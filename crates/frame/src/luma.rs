//! Single-channel (luma) frame buffer.
//!
//! The renderer produces luma frames directly; SSIM is conventionally
//! computed on luma, and a single channel keeps the 10-minute-trace
//! similarity experiments tractable while preserving every structural
//! property the paper's metrics depend on.

use std::fmt;

/// A `width × height` luma image with values in `[0, 1]`, row-major.
#[derive(Clone, PartialEq)]
pub struct LumaFrame {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl LumaFrame {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Creates a frame filled with a constant value.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, value: f32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        LumaFrame {
            width,
            height,
            data: vec![value; (width * height) as usize],
        }
    }

    /// Builds a frame from a pixel generator called as `f(x, y)`.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        let mut frame = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let v = f(x, y);
                frame.data[(y * width + x) as usize] = v;
            }
        }
        frame
    }

    /// Reconstructs a frame from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_raw(width: u32, height: u32, data: Vec<f32>) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        assert_eq!(
            data.len(),
            (width * height) as usize,
            "data length must match dimensions"
        );
        LumaFrame {
            width,
            height,
            data,
        }
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Raw pixel data, row-major.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw pixel data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel row `y` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: u32) -> &[f32] {
        assert!(y < self.height, "row {y} out of bounds");
        let start = (y * self.width) as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Pixel row `y` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: u32) -> &mut [f32] {
        assert!(y < self.height, "row {y} out of bounds");
        let start = (y * self.width) as usize;
        &mut self.data[start..start + self.width as usize]
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[(y * self.width + x) as usize]
    }

    /// Sets the pixel at `(x, y)`, clamping the value to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[(y * self.width + x) as usize] = value.clamp(0.0, 1.0);
    }

    /// Bilinear sample at fractional coordinates, clamped to the border.
    pub fn sample_bilinear(&self, fx: f32, fy: f32) -> f32 {
        let fx = fx.clamp(0.0, (self.width - 1) as f32);
        let fy = fy.clamp(0.0, (self.height - 1) as f32);
        let x0 = fx.floor() as u32;
        let y0 = fy.floor() as u32;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let v00 = self.get(x0, y0);
        let v10 = self.get(x1, y0);
        let v01 = self.get(x0, y1);
        let v11 = self.get(x1, y1);
        let a = v00 + (v10 - v00) * tx;
        let b = v01 + (v11 - v01) * tx;
        a + (b - a) * ty
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Quantizes to 8-bit values (used by the codec).
    pub fn to_u8(&self) -> Vec<u8> {
        self.data
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect()
    }

    /// Builds a frame from 8-bit values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_u8(width: u32, height: u32, data: &[u8]) -> Self {
        let floats = data.iter().map(|&b| b as f32 / 255.0).collect();
        Self::from_raw(width, height, floats)
    }

    /// Box-filter downsample by an integer factor (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0` or does not divide both dimensions.
    pub fn downsample(&self, factor: u32) -> LumaFrame {
        assert!(factor > 0, "downsample factor must be positive");
        assert!(
            self.width.is_multiple_of(factor) && self.height.is_multiple_of(factor),
            "factor {factor} must divide {}x{}",
            self.width,
            self.height
        );
        let w = self.width / factor;
        let h = self.height / factor;
        let norm = 1.0 / (factor * factor) as f32;
        LumaFrame::from_fn(w, h, |x, y| {
            let mut sum = 0.0;
            for dy in 0..factor {
                for dx in 0..factor {
                    sum += self.get(x * factor + dx, y * factor + dy);
                }
            }
            sum * norm
        })
    }
}

impl fmt::Debug for LumaFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LumaFrame")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let f = LumaFrame::new(4, 3);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.pixel_count(), 12);
        assert_eq!(f.mean(), 0.0);
    }

    #[test]
    fn set_get_roundtrip_and_clamp() {
        let mut f = LumaFrame::new(4, 4);
        f.set(1, 2, 0.5);
        assert_eq!(f.get(1, 2), 0.5);
        f.set(0, 0, 2.0);
        assert_eq!(f.get(0, 0), 1.0);
        f.set(3, 3, -1.0);
        assert_eq!(f.get(3, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let f = LumaFrame::new(4, 4);
        let _ = f.get(4, 0);
    }

    #[test]
    fn row_accessors_view_contiguous_rows() {
        let mut f = LumaFrame::from_fn(3, 2, |x, y| (y * 3 + x) as f32 / 10.0);
        assert_eq!(f.row(0), &[0.0, 0.1, 0.2]);
        assert_eq!(f.row(1), &[0.3, 0.4, 0.5]);
        f.row_mut(1).copy_from_slice(&[0.9, 0.8, 0.7]);
        assert_eq!(f.get(0, 1), 0.9);
        assert_eq!(f.row(1), &[0.9, 0.8, 0.7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let f = LumaFrame::new(4, 4);
        let _ = f.row(4);
    }

    #[test]
    fn from_fn_generates_gradient() {
        let f = LumaFrame::from_fn(10, 1, |x, _| x as f32 / 10.0);
        assert_eq!(f.get(0, 0), 0.0);
        assert!((f.get(9, 0) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn bilinear_interpolates() {
        let mut f = LumaFrame::new(2, 1);
        f.set(0, 0, 0.0);
        f.set(1, 0, 1.0);
        assert!((f.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
        // Clamped outside.
        assert_eq!(f.sample_bilinear(-3.0, 0.0), 0.0);
        assert_eq!(f.sample_bilinear(5.0, 0.0), 1.0);
    }

    #[test]
    fn u8_roundtrip_is_close() {
        let f = LumaFrame::from_fn(16, 16, |x, y| ((x + y) as f32 / 32.0).min(1.0));
        let bytes = f.to_u8();
        let g = LumaFrame::from_u8(16, 16, &bytes);
        for (a, b) in f.data().iter().zip(g.data()) {
            assert!((a - b).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn downsample_averages() {
        let f = LumaFrame::from_fn(4, 4, |x, _| if x < 2 { 0.0 } else { 1.0 });
        let d = f.downsample(2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn downsample_requires_divisibility() {
        let _ = LumaFrame::new(5, 4).downsample(2);
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimensions_rejected() {
        let _ = LumaFrame::new(0, 4);
    }

    #[test]
    fn from_raw_validates_length() {
        let f = LumaFrame::from_raw(2, 2, vec![0.0, 0.25, 0.5, 0.75]);
        assert_eq!(f.get(1, 1), 0.75);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn from_raw_wrong_length_panics() {
        let _ = LumaFrame::from_raw(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn debug_is_nonempty() {
        let f = LumaFrame::new(2, 2);
        let s = format!("{f:?}");
        assert!(s.contains("LumaFrame"));
    }
}
