//! Field-of-view cropping from panoramic frames.
//!
//! Furion and Coterie prefetch *panoramic* frames so that any head
//! orientation at a grid point can be served "at almost no cost or delay"
//! (§2.2): the client crops the panorama to the current FoV instead of
//! requesting a new render. This module implements that crop as a
//! perspective resampling of the equirectangular image.

use coterie_frame::LumaFrame;
use coterie_world::Vec3;
use serde::{Deserialize, Serialize};

/// Perspective-crop parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FovOptions {
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
    /// Horizontal field of view in radians.
    pub hfov: f64,
}

impl Default for FovOptions {
    /// A Daydream-like viewport: 100° horizontal FoV at 16:9.
    fn default() -> Self {
        FovOptions {
            width: 160,
            height: 90,
            hfov: 100.0_f64.to_radians(),
        }
    }
}

impl FovOptions {
    /// Vertical field of view implied by the aspect ratio.
    pub fn vfov(&self) -> f64 {
        2.0 * ((self.hfov / 2.0).tan() * self.height as f64 / self.width as f64).atan()
    }

    /// Crops a perspective view with the given yaw/pitch (radians) out of
    /// an equirectangular panorama, bilinearly resampled.
    ///
    /// # Panics
    ///
    /// Panics if `hfov` is not in `(0, π)`.
    pub fn crop(&self, pano: &LumaFrame, yaw: f64, pitch: f64) -> LumaFrame {
        assert!(
            self.hfov > 0.0 && self.hfov < std::f64::consts::PI,
            "hfov must be in (0, pi)"
        );
        let half_w = (self.hfov / 2.0).tan();
        let half_h = half_w * self.height as f64 / self.width as f64;
        // Camera basis: forward from yaw/pitch; up is world-up projected.
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let forward = Vec3::new(sy * cp, sp, cy * cp);
        let right = Vec3::new(cy, 0.0, -sy);
        let up = forward.cross(right).normalized();

        let pw = pano.width() as f64;
        let ph = pano.height() as f64;
        LumaFrame::from_fn(self.width, self.height, |x, y| {
            let u = ((x as f64 + 0.5) / self.width as f64 * 2.0 - 1.0) * half_w;
            let v = (1.0 - (y as f64 + 0.5) / self.height as f64 * 2.0) * half_h;
            let dir = (forward + right * u + up * v).normalized();
            let azimuth = dir.x.atan2(dir.z);
            let elevation = dir.y.asin();
            let fx = (azimuth + std::f64::consts::PI) / std::f64::consts::TAU * pw - 0.5;
            let fy = (std::f64::consts::FRAC_PI_2 - elevation) / std::f64::consts::PI * ph - 0.5;
            pano.sample_bilinear(fx as f32, fy as f32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_pano() -> LumaFrame {
        // Luma encodes azimuth so we can verify which part of the pano a
        // crop samples.
        LumaFrame::from_fn(256, 128, |x, _| x as f32 / 255.0)
    }

    #[test]
    fn crop_dimensions_match_options() {
        let opts = FovOptions::default();
        let out = opts.crop(&gradient_pano(), 0.0, 0.0);
        assert_eq!(out.width(), opts.width);
        assert_eq!(out.height(), opts.height);
    }

    #[test]
    fn forward_crop_samples_pano_center() {
        let opts = FovOptions::default();
        let out = opts.crop(&gradient_pano(), 0.0, 0.0);
        // Yaw 0 looks along +z = azimuth 0 = pano center column.
        let mid = out.get(opts.width / 2, opts.height / 2);
        assert!((mid - 0.5).abs() < 0.02, "center luma {mid}");
    }

    #[test]
    fn yaw_rotation_shifts_sampled_region() {
        let opts = FovOptions::default();
        let left = opts.crop(&gradient_pano(), -1.0, 0.0);
        let right = opts.crop(&gradient_pano(), 1.0, 0.0);
        let l = left.get(opts.width / 2, opts.height / 2);
        let r = right.get(opts.width / 2, opts.height / 2);
        assert!(l < 0.5 && r > 0.5, "yaw must pan the crop: l={l} r={r}");
    }

    #[test]
    fn pitch_up_samples_upper_rows() {
        let pano = LumaFrame::from_fn(256, 128, |_, y| y as f32 / 127.0);
        let opts = FovOptions::default();
        let level = opts.crop(&pano, 0.0, 0.0);
        let up = opts.crop(&pano, 0.0, 0.6);
        let c_level = level.get(opts.width / 2, opts.height / 2);
        let c_up = up.get(opts.width / 2, opts.height / 2);
        assert!(
            c_up < c_level,
            "pitching up should sample smaller y: {c_up} vs {c_level}"
        );
    }

    #[test]
    fn output_rows_run_from_above_to_below_the_view_axis() {
        // Luma is the panorama row, so a crop's luma must grow downwards;
        // the centre pixel alone cannot tell an upside-down crop.
        let pano = LumaFrame::from_fn(256, 128, |_, y| y as f32 / 127.0);
        let opts = FovOptions::default();
        let column = |pitch: f64| {
            let out = opts.crop(&pano, 0.0, pitch);
            let x = opts.width / 2;
            [
                out.get(x, 0),
                out.get(x, opts.height / 2),
                out.get(x, opts.height - 1),
            ]
        };
        let level = column(0.0);
        assert!(
            level[0] < level[1] && level[1] < level[2],
            "top row must sample above the horizon: {level:?}"
        );
        let up = column(0.6);
        assert!(up[0] < up[1] && up[1] < up[2], "pitched: {up:?}");
        for (u, l) in up.iter().zip(level) {
            assert!(
                *u < l,
                "pitching up must raise every row: {up:?} vs {level:?}"
            );
        }
    }

    #[test]
    fn any_orientation_stays_in_range() {
        let pano = gradient_pano();
        let opts = FovOptions {
            width: 64,
            height: 36,
            hfov: 1.8,
        };
        for i in 0..12 {
            let yaw = i as f64 * 0.55 - 3.0;
            let pitch = (i as f64 * 0.2 - 1.0).clamp(-1.3, 1.3);
            let out = opts.crop(&pano, yaw, pitch);
            for &v in out.data() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn vfov_smaller_than_hfov_for_wide_aspect() {
        let opts = FovOptions::default();
        assert!(opts.vfov() < opts.hfov);
    }

    #[test]
    #[should_panic(expected = "hfov must be in")]
    fn invalid_hfov_rejected() {
        let opts = FovOptions {
            width: 8,
            height: 8,
            hfov: 4.0,
        };
        let _ = opts.crop(&gradient_pano(), 0.0, 0.0);
    }

    #[test]
    fn crop_is_deterministic() {
        let opts = FovOptions::default();
        let a = opts.crop(&gradient_pano(), 0.3, -0.1);
        let b = opts.crop(&gradient_pano(), 0.3, -0.1);
        assert_eq!(a, b);
    }
}
