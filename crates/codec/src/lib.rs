//! # coterie-codec
//!
//! Intra-frame transform codec standing in for x264.
//!
//! The paper's server encodes pre-rendered panoramas with x264 (H.264,
//! Constant Rate Factor 25, fastdecode tuning, §5.1) and the phone
//! decodes them with the hardware `MediaCodec`. We cannot ship H.264, but
//! the experiments only need two properties of the codec, both of which a
//! real DCT transform codec provides and a byte-count formula would not:
//!
//! 1. **Content-dependent sizes** — far-BE frames (smooth, distant
//!    content) must compress better than whole-BE frames (detailed near
//!    content), which is what makes Coterie's prefetch traffic 2–3×
//!    smaller per frame (§7.2).
//! 2. **True lossy round-trips** — Table 7 measures SSIM *after*
//!    encode/decode; Coterie scores higher than Multi-Furion because only
//!    its far layer suffers codec loss. Our decoder reproduces that.
//!
//! The pipeline is the classic JPEG/H.264-intra shape: 8×8 blocks →
//! DCT-II → quantization scaled by a CRF-like quality factor → zig-zag →
//! run-length + varint entropy coding.
//!
//! [`SizeModel`] maps byte sizes at our render resolution to the paper's
//! 4K-equivalent sizes for the network experiments.
//!
//! # Example
//!
//! ```
//! use coterie_codec::{Encoder, Quality};
//! use coterie_frame::{LumaFrame, ssim};
//!
//! let frame = LumaFrame::from_fn(64, 64, |x, y| ((x * y) % 17) as f32 / 16.0);
//! let enc = Encoder::new(Quality::CRF25);
//! let encoded = enc.encode(&frame);
//! let decoded = enc.decode(&encoded)?;
//! assert!(ssim(&frame, &decoded) > 0.8);
//! # Ok::<(), coterie_codec::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dct;
pub mod delta;
mod entropy;

pub use delta::{DeltaEncoder, EncodedDelta};
pub use entropy::CodecError;

use bytes::Bytes;
use coterie_frame::LumaFrame;
use coterie_parallel::simd::{self, SimdLevel};

/// Encoding quality, named after x264's Constant Rate Factor scale
/// (lower CRF = higher quality and larger frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quality {
    /// Visually lossless-ish (CRF ≈ 18).
    CRF18,
    /// The paper's operating point (CRF 25, §5.1).
    #[default]
    CRF25,
    /// Aggressive compression (CRF ≈ 32).
    CRF32,
}

impl Quality {
    /// Quantization scale factor applied to the base matrix.
    pub(crate) fn quant_scale(self) -> f32 {
        match self {
            Quality::CRF18 => 0.5,
            Quality::CRF25 => 1.0,
            Quality::CRF32 => 2.2,
        }
    }
}

/// An encoded frame: header + entropy-coded payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Original width in pixels.
    pub width: u32,
    /// Original height in pixels.
    pub height: u32,
    /// Quality used to encode.
    pub quality: Quality,
    /// Entropy-coded payload.
    pub payload: Bytes,
}

impl EncodedFrame {
    /// Encoded size in bytes (payload plus a nominal 16-byte header).
    pub fn size_bytes(&self) -> usize {
        self.payload.len() + 16
    }
}

/// JPEG-style base quantization matrix (luminance), scaled by quality.
pub(crate) const BASE_QUANT: [f32; 64] = [
    16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0, //
    12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0, //
    14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0, //
    14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0, //
    18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0, //
    24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0, //
    49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0, //
    72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0,
];

/// Initial working-buffer capacity per block. A served far-field block
/// codes to about 12 bytes, so most frames never regrow the buffer; the
/// finished payload is copied out at its exact length.
pub(crate) const PAYLOAD_BYTES_PER_BLOCK: usize = 16;

/// Zig-zag scan order for an 8×8 block.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Builds the quantization table for a quality level, entry-for-entry
/// the historical per-coefficient expression.
pub(crate) fn quant_table(quality: Quality) -> [f32; 64] {
    let scale = quality.quant_scale();
    let mut q = [0.0f32; 64];
    for (i, v) in q.iter_mut().enumerate() {
        *v = BASE_QUANT[i] * scale / 255.0;
    }
    q
}

/// Zig-zag scan position of each raster index (the inverse of
/// [`ZIGZAG`]).
pub(crate) const ZIGZAG_POS: [u8; 64] = {
    let mut pos = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        pos[ZIGZAG[i]] = i as u8;
        i += 1;
    }
    pos
};

/// Copies the 8×8 block at `(bx, by)` out of a row-major plane, minus
/// `bias` (`plane[i] - bias`, one f32 subtraction per pixel), with edge
/// clamping (the same `min(w-1)/min(h-1)` replication the per-pixel
/// gather used). Interior blocks read eight contiguous row slices.
pub(crate) fn gather_block(
    plane: &[f32],
    w: usize,
    h: usize,
    bx: usize,
    by: usize,
    bias: f32,
    block: &mut [f32; 64],
) {
    let x0 = bx * 8;
    let y0 = by * 8;
    if x0 + 8 <= w && y0 + 8 <= h {
        for (y, out) in block.chunks_exact_mut(8).enumerate() {
            let row = (y0 + y) * w + x0;
            for (o, &v) in out.iter_mut().zip(&plane[row..row + 8]) {
                *o = v - bias;
            }
        }
    } else {
        for y in 0..8 {
            let sy = (y0 + y).min(h - 1);
            for x in 0..8 {
                let sx = (x0 + x).min(w - 1);
                block[y * 8 + x] = plane[sy * w + sx] - bias;
            }
        }
    }
}

/// Writes an 8×8 block into a row-major plane, clipping at the edges
/// (every pixel belongs to exactly one block, so no write overlaps).
pub(crate) fn scatter_block(
    plane: &mut [f32],
    w: usize,
    h: usize,
    bx: usize,
    by: usize,
    block: &[f32; 64],
) {
    let x0 = bx * 8;
    let y0 = by * 8;
    let cols = (w - x0).min(8);
    for y in 0..8 {
        let dy = y0 + y;
        if dy >= h {
            break;
        }
        let row = dy * w + x0;
        plane[row..row + cols].copy_from_slice(&block[y * 8..y * 8 + cols]);
    }
}

/// The intra-frame encoder/decoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    quality: Quality,
    qtable: [f32; 64],
    dct: dct::Dct8x8,
    level: SimdLevel,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new(Quality::default())
    }
}

impl Encoder {
    /// Creates an encoder at the given quality, using the process-wide
    /// detected SIMD level.
    pub fn new(quality: Quality) -> Self {
        Self::with_simd_level(quality, simd::detected_level())
    }

    /// Creates an encoder pinned to an explicit SIMD dispatch level
    /// (clamped to CPU capability inside every kernel). All levels
    /// produce byte-identical payloads; this exists for tests and
    /// benchmarks.
    pub fn with_simd_level(quality: Quality, level: SimdLevel) -> Self {
        Encoder {
            quality,
            qtable: quant_table(quality),
            dct: dct::Dct8x8::new(),
            level,
        }
    }

    /// The configured quality.
    pub fn quality(&self) -> Quality {
        self.quality
    }

    /// Encodes a luma frame.
    ///
    /// Each block is centred as it is read (pixel - 0.5), transformed
    /// and quantized; the quantizer's nonzero mask then drives the
    /// run-length pass, so a block pays for the coefficients it has.
    pub fn encode(&self, frame: &LumaFrame) -> EncodedFrame {
        let w = frame.width() as usize;
        let h = frame.height() as usize;
        let bw = w.div_ceil(8);
        let bh = h.div_ceil(8);
        let mut writer = entropy::Writer::with_capacity(bw * bh * PAYLOAD_BYTES_PER_BLOCK);
        let mut prev_dc: i32 = 0;
        let mut block = [0.0f32; 64];
        let mut coeffs = [0.0f32; 64];
        let mut quantized = [0i32; 64];
        for by in 0..bh {
            for bx in 0..bw {
                gather_block(frame.data(), w, h, bx, by, 0.5, &mut block);
                self.dct.forward(&block, &mut coeffs, self.level);
                let mask = simd::quantize_8x8(&coeffs, &self.qtable, &mut quantized, self.level);
                // DC is coded as a delta against the previous block's.
                let dc = quantized[0];
                writer.write_block(dc - prev_dc, &quantized, mask);
                prev_dc = dc;
            }
        }
        EncodedFrame {
            width: frame.width(),
            height: frame.height(),
            quality: self.quality,
            payload: writer.into_bytes(),
        }
    }

    /// Decodes an encoded frame back into luma.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the payload is truncated or malformed.
    pub fn decode(&self, encoded: &EncodedFrame) -> Result<LumaFrame, CodecError> {
        let w = encoded.width as usize;
        let h = encoded.height as usize;
        let bw = w.div_ceil(8);
        let bh = h.div_ceil(8);
        // The encoder writes at least a DC byte and an EOB byte per
        // block, so a payload shorter than that cannot fill the header's
        // dimensions; reject it before sizing the plane from them.
        if encoded.payload.len() < bw.saturating_mul(bh).saturating_mul(2) {
            return Err(CodecError::Truncated);
        }
        // The payload's quality wins over the decoder's own (it may
        // have been encoded elsewhere at a different operating point).
        let qtable = if encoded.quality == self.quality {
            self.qtable
        } else {
            quant_table(encoded.quality)
        };
        let mut reader = entropy::Reader::new(&encoded.payload);
        let mut plane = vec![0.0f32; w * h];
        let mut prev_dc: i32 = 0;
        let mut quantized = [0i32; 64];
        let mut coeffs = [0.0f32; 64];
        let mut block = [0.0f32; 64];
        for by in 0..bh {
            for bx in 0..bw {
                quantized.fill(0);
                let dc_delta = reader.read_signed()?;
                prev_dc = prev_dc
                    .checked_add(dc_delta)
                    .ok_or(CodecError::Malformed("DC overflow"))?;
                quantized[0] = prev_dc;
                let mut pos = 1usize;
                loop {
                    match reader.read_run()? {
                        entropy::Run::Eob => break,
                        entropy::Run::Pair { zeros, value } => {
                            pos += zeros as usize;
                            if pos >= 64 {
                                return Err(CodecError::Malformed("AC index overflow"));
                            }
                            quantized[ZIGZAG[pos]] = value;
                            pos += 1;
                        }
                    }
                    if pos >= 64 {
                        // A full block must be terminated by EOB.
                        match reader.read_run()? {
                            entropy::Run::Eob => break,
                            _ => return Err(CodecError::Malformed("missing EOB")),
                        }
                    }
                }
                simd::dequantize_8x8(&quantized, &qtable, &mut coeffs, self.level);
                self.dct.inverse(&coeffs, &mut block, self.level);
                scatter_block(&mut plane, w, h, bx, by, &block);
            }
        }
        // Un-center and clamp in one fused plane pass (block value
        // + 0.5, then the `[0, 1]` clamp `LumaFrame::set` used to
        // apply — same values as the two separate passes).
        simd::add_clamp_unit_f32(&mut plane, 0.5, self.level);
        Ok(LumaFrame::from_raw(encoded.width, encoded.height, plane))
    }
}

/// Maps encoded sizes at render resolution to 4K-equivalent transfer
/// sizes (the paper's frames are 3840×2160 panoramas).
///
/// Bytes scale with pixel area, discounted by `h264_efficiency` — the
/// factor by which real x264 at CRF 25 out-compresses this intra-only
/// codec (motion-compensated prediction, CABAC, deblocking). The default
/// is calibrated so whole-BE frames land in the paper's 440–680 KB range
/// and far-BE frames in 150–280 KB (Tables 1 and 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    /// Target ("paper") resolution width.
    pub target_width: u32,
    /// Target resolution height.
    pub target_height: u32,
    /// Ratio of x264 bytes to this codec's bytes at equal quality.
    pub h264_efficiency: f64,
}

impl Default for SizeModel {
    fn default() -> Self {
        SizeModel {
            target_width: 3840,
            target_height: 2160,
            h264_efficiency: 0.35,
        }
    }
}

impl SizeModel {
    /// 4K-equivalent size in bytes for an encoded frame.
    pub fn scaled_bytes(&self, encoded: &EncodedFrame) -> u64 {
        let src_area = (encoded.width as f64) * (encoded.height as f64);
        let dst_area = (self.target_width as f64) * (self.target_height as f64);
        // Detail does not fully survive upscaling: empirically bits grow
        // sublinearly with area; exponent 0.9 keeps the growth honest
        // without claiming linearity.
        let ratio = (dst_area / src_area).powf(0.9);
        (encoded.size_bytes() as f64 * ratio * self.h264_efficiency).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_frame::ssim;

    fn textured_frame() -> LumaFrame {
        LumaFrame::from_fn(64, 48, |x, y| {
            let v = ((x * 13 + y * 7) % 23) as f32 / 23.0;
            0.2 + 0.6 * v
        })
    }

    fn smooth_frame() -> LumaFrame {
        LumaFrame::from_fn(64, 48, |x, y| {
            0.3 + 0.3 * (x as f32 / 64.0) + 0.1 * (y as f32 / 48.0)
        })
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let f = textured_frame();
        let enc = Encoder::new(Quality::CRF25);
        let decoded = enc.decode(&enc.encode(&f)).unwrap();
        assert_eq!(decoded.width(), f.width());
        assert_eq!(decoded.height(), f.height());
        let s = ssim(&f, &decoded);
        assert!(s > 0.85, "decode quality too low: SSIM {s}");
    }

    #[test]
    fn roundtrip_is_lossy_but_bounded() {
        let f = textured_frame();
        let enc = Encoder::new(Quality::CRF25);
        let decoded = enc.decode(&enc.encode(&f)).unwrap();
        assert_ne!(f, decoded, "transform quantization must lose something");
        let max_err = f
            .data()
            .iter()
            .zip(decoded.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.35, "max per-pixel error {max_err} too large");
    }

    #[test]
    fn higher_quality_is_larger_and_better() {
        let f = textured_frame();
        let lo = Encoder::new(Quality::CRF32);
        let hi = Encoder::new(Quality::CRF18);
        let e_lo = lo.encode(&f);
        let e_hi = hi.encode(&f);
        assert!(e_hi.size_bytes() > e_lo.size_bytes());
        let s_lo = ssim(&f, &lo.decode(&e_lo).unwrap());
        let s_hi = ssim(&f, &hi.decode(&e_hi).unwrap());
        assert!(s_hi > s_lo, "CRF18 ({s_hi}) must beat CRF32 ({s_lo})");
    }

    #[test]
    fn smooth_content_compresses_better() {
        // The property Coterie's traffic reduction rests on: simpler
        // (far-BE-like) content costs fewer bytes.
        let enc = Encoder::default();
        let smooth = enc.encode(&smooth_frame());
        let textured = enc.encode(&textured_frame());
        assert!(
            smooth.size_bytes() * 2 < textured.size_bytes(),
            "smooth {} vs textured {}",
            smooth.size_bytes(),
            textured.size_bytes()
        );
    }

    #[test]
    fn constant_frame_is_tiny() {
        let f = LumaFrame::filled(64, 64, 0.5);
        let enc = Encoder::default();
        let e = enc.encode(&f);
        // 64 blocks, each ~2 bytes (DC delta 0 + EOB).
        assert!(
            e.size_bytes() < 200,
            "constant frame took {} bytes",
            e.size_bytes()
        );
        let d = enc.decode(&e).unwrap();
        assert!(ssim(&f, &d) > 0.999);
    }

    #[test]
    fn non_multiple_of_8_dimensions() {
        let f = LumaFrame::from_fn(50, 35, |x, y| ((x + y) % 11) as f32 / 11.0);
        let enc = Encoder::default();
        let d = enc.decode(&enc.encode(&f)).unwrap();
        assert_eq!((d.width(), d.height()), (50, 35));
        assert!(ssim(&f, &d) > 0.6);
    }

    #[test]
    fn truncated_payload_is_error() {
        let enc = Encoder::default();
        let mut e = enc.encode(&textured_frame());
        e.payload = e.payload.slice(0..e.payload.len() / 2);
        assert!(enc.decode(&e).is_err());
    }

    #[test]
    fn hostile_frames_are_errors_not_panics() {
        let enc = Encoder::default();
        // Two blocks whose DC deltas are both i32::MAX: the running DC
        // overflows on the second.
        let dc_max = [0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 0x7F];
        let overflow = EncodedFrame {
            width: 16,
            height: 8,
            quality: Quality::CRF25,
            payload: Bytes::from([dc_max, dc_max].concat()),
        };
        assert_eq!(
            enc.decode(&overflow).err(),
            Some(CodecError::Malformed("DC overflow"))
        );
        // A header far larger than its payload could fill: the decoder
        // must not size a plane from it.
        let huge = EncodedFrame {
            width: u32::MAX,
            height: u32::MAX,
            quality: Quality::CRF25,
            payload: Bytes::from(vec![0x00, 0x7F]),
        };
        assert_eq!(enc.decode(&huge).err(), Some(CodecError::Truncated));
    }

    #[test]
    fn size_model_scales_with_area() {
        let enc = Encoder::default();
        let e = enc.encode(&textured_frame());
        let model = SizeModel::default();
        let scaled = model.scaled_bytes(&e);
        assert!(
            scaled > e.size_bytes() as u64 * 50,
            "4K scaling too small: {scaled}"
        );
        // Efficiency discount reduces size.
        let cheap = SizeModel {
            h264_efficiency: 0.1,
            ..model
        };
        assert!(cheap.scaled_bytes(&e) < scaled);
    }

    #[test]
    fn encode_is_deterministic() {
        let f = textured_frame();
        let enc = Encoder::default();
        assert_eq!(enc.encode(&f), enc.encode(&f));
    }
}
