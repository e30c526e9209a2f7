//! Field-of-view cropping from panoramic frames.
//!
//! Furion and Coterie prefetch *panoramic* frames so that any head
//! orientation at a grid point can be served "at almost no cost or delay"
//! (§2.2): the client crops the panorama to the current FoV instead of
//! requesting a new render. This module implements that crop as a
//! perspective resampling of the equirectangular image.
//!
//! The crop runs once per displayed frame, so it is cheap without
//! holding state. The view ray is linear in the output pixel — a base
//! per row plus an offset per column — and needs no normalising because
//! both angles are ratios: azimuth `atan2(dx, dz)`, elevation
//! `atan2(dy, hypot(dx, dz))`. Each output row takes two passes: the
//! first turns its rays into panorama coordinates with a polynomial
//! `atan2` in `f32` ([`atan2_f32`]: within 2.5e-6 rad of libm, 1e-4 of a
//! pixel of a 256-wide panorama) and, having no gather and no branch,
//! vectorises; the second gathers and blends. Nothing is cached between
//! calls, neither a sampling map keyed by (yaw, pitch) nor a
//! thread-local: a headset's yaw and pitch change every frame, so a map
//! that measured well at a fixed pitch would miss in use. The tests keep
//! the exact per-pixel formula (`f64`, libm) to compare against.

use coterie_frame::LumaFrame;
use coterie_world::Vec3;
use std::f32::consts::{FRAC_PI_2, PI, TAU};

/// Perspective-crop parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The view rays of one crop: output pixel `(x, y)` looks along
/// `corner + right·(x + ½) + down·(y + ½)` (not normalised).
struct Camera {
    corner: Vec3,
    right: Vec3,
    down: Vec3,
}

impl FovOptions {
    fn camera(&self, yaw: f64, pitch: f64) -> Camera {
        assert!(
            self.hfov > 0.0 && self.hfov < std::f64::consts::PI,
            "hfov must be in (0, pi)"
        );
        let half_w = (self.hfov / 2.0).tan();
        let half_h = half_w * self.height as f64 / self.width as f64;
        // Forward from yaw/pitch; right is level; up completes the basis
        // (world-up projected), so output row 0 is the top of the view.
        let (sy, cy) = yaw.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        let forward = Vec3::new(sy * cp, sp, cy * cp);
        let right = Vec3::new(cy, 0.0, -sy);
        let up = forward.cross(right).normalized();
        Camera {
            corner: forward - right * half_w + up * half_h,
            right: right * (2.0 * half_w / self.width as f64),
            down: up * (-2.0 * half_h / self.height as f64),
        }
    }

    /// Crops a perspective view with the given yaw/pitch (radians) out of
    /// an equirectangular panorama, bilinearly resampled. Columns wrap
    /// at the ±π seam; rows clamp at the poles.
    ///
    /// # Panics
    ///
    /// Panics if `hfov` is not in `(0, π)`.
    pub fn crop(&self, pano: &LumaFrame, yaw: f64, pitch: f64) -> LumaFrame {
        let cam = self.camera(yaw, pitch);
        let x_scale = pano.width() as f32 / TAU;
        let y_scale = pano.height() as f32 / PI;
        // `right` is level, so a column moves the ray in x and z only.
        let columns: Vec<(f32, f32)> = (0..self.width)
            .map(|x| cam.right * (x as f64 + 0.5))
            .map(|offset| (offset.x as f32, offset.z as f32))
            .collect();
        let mut coords = vec![(0.0f32, 0.0f32); columns.len()];
        let mut out = LumaFrame::new(self.width, self.height);
        for y in 0..self.height {
            let base = cam.corner + cam.down * (y as f64 + 0.5);
            let (bx, by, bz) = (base.x as f32, base.y as f32, base.z as f32);
            for (coord, &(cx, cz)) in coords.iter_mut().zip(&columns) {
                let (dx, dz) = (bx + cx, bz + cz);
                let azimuth = atan2_f32(dx, dz);
                let elevation = atan2_f32(by, (dx * dx + dz * dz).sqrt());
                *coord = (
                    (azimuth + PI) * x_scale - 0.5,
                    (FRAC_PI_2 - elevation) * y_scale - 0.5,
                );
            }
            for (o, &(fx, fy)) in out.row_mut(y).iter_mut().zip(&coords) {
                *o = sample_wrapped(pano, fx, fy);
            }
        }
        out
    }
}

/// `y.atan2(x)` within 2.5e-6 rad, without a branch or a libm call so
/// that a loop over it vectorises: an odd degree-11 minimax polynomial
/// for `atan` on `[0, 1]` (|error| ≤ 1.8e-6 evaluated in `f32`), then the
/// octant reflections as selects. `atan2_f32(0, 0)` is 0.
#[inline(always)]
fn atan2_f32(y: f32, x: f32) -> f32 {
    let (ax, ay) = (x.abs(), y.abs());
    let steep = ay > ax;
    let (lo, hi) = if steep { (ax, ay) } else { (ay, ax) };
    let a = lo / if hi > 0.0 { hi } else { f32::MIN_POSITIVE };
    let s = a * a;
    let p = 0.999_977_26
        + s * (-0.332_623_47
            + s * (0.193_543_46 + s * (-0.116_432_87 + s * (0.052_653_32 + s * -0.011_721_2))));
    let mut r = p * a;
    r = if steep { FRAC_PI_2 - r } else { r };
    r = if x < 0.0 { PI - r } else { r };
    r.copysign(y)
}

/// Bilinear sample of an equirectangular panorama at pixel coordinates
/// `fx` in `[-0.5, width)`, any `fy`. Azimuth is periodic, so columns
/// wrap: a view across the ±π seam blends the last column with the
/// first. Rows clamp.
#[inline]
fn sample_wrapped(pano: &LumaFrame, fx: f32, fy: f32) -> f32 {
    let (w, h) = (pano.width() as usize, pano.height() as usize);
    let fx = if fx < 0.0 { fx + w as f32 } else { fx };
    let fy = fy.clamp(0.0, (h - 1) as f32);
    // `fx + w` can round up to `w` itself; the weight is then 1 on column 0.
    let x0 = (fx as usize).min(w - 1);
    let y0 = fy as usize;
    let x1 = if x0 + 1 == w { 0 } else { x0 + 1 };
    let y1 = (y0 + 1).min(h - 1);
    let (tx, ty) = (fx - x0 as f32, fy - y0 as f32);
    let (top, bottom) = (pano.row(y0 as u32), pano.row(y1 as u32));
    let a = top[x0] + (top[x1] - top[x0]) * tx;
    let b = bottom[x0] + (bottom[x1] - bottom[x0]) * tx;
    a + (b - a) * ty
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`FovOptions::crop`] by the exact formula, one pixel at a time.
    fn crop_reference(opts: &FovOptions, pano: &LumaFrame, yaw: f64, pitch: f64) -> LumaFrame {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        let cam = opts.camera(yaw, pitch);
        let (pw, ph) = (pano.width() as f64, pano.height() as f64);
        LumaFrame::from_fn(opts.width, opts.height, |x, y| {
            let ray = cam.corner + cam.right * (x as f64 + 0.5) + cam.down * (y as f64 + 0.5);
            let dir = ray.normalized();
            let azimuth = dir.x.atan2(dir.z);
            let elevation = dir.y.asin();
            let fx = (azimuth + PI) / TAU * pw - 0.5;
            let fy = (FRAC_PI_2 - elevation) / PI * ph - 0.5;
            sample_wrapped(pano, fx as f32, fy as f32)
        })
    }

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
    fn crop_wraps_across_the_azimuth_seam() {
        // Looking along azimuth π the view centre sits on the seam
        // between the last column (luma 1) and the first (luma 0). The
        // two centre pixels straddle it a quarter of a panorama pixel
        // either side, so each must blend both columns; a border clamp
        // would give exactly 1 and 0.
        let opts = FovOptions::default();
        let (l, r) = (opts.width / 2 - 1, opts.width / 2);
        for yaw in [std::f64::consts::PI, -std::f64::consts::PI] {
            let out = opts.crop(&gradient_pano(), yaw, 0.0);
            let (a, b) = (out.get(l, opts.height / 2), out.get(r, opts.height / 2));
            assert!(0.6 < a && a < 0.9, "left of the seam at yaw {yaw}: {a}");
            assert!(0.1 < b && b < 0.4, "right of the seam at yaw {yaw}: {b}");
            assert!(
                (a + b - 1.0).abs() < 1e-3,
                "seam blend not symmetric: {a} + {b}"
            );
        }
    }

    #[test]
    fn atan2_f32_stays_within_its_stated_error() {
        let mut worst = 0.0f64;
        for i in -200..=200 {
            for j in -200..=200 {
                let (y, x) = (i as f32 * 0.013, j as f32 * 0.017);
                let exact = (y as f64).atan2(x as f64);
                let mut err = (atan2_f32(y, x) as f64 - exact).abs();
                // On the negative x axis -π and π are the same angle.
                err = err.min((err - std::f64::consts::TAU).abs());
                worst = worst.max(err);
            }
        }
        assert!(worst <= 2.5e-6, "worst atan2_f32 error {worst:e}");
        assert_eq!(atan2_f32(0.0, 0.0), 0.0);
    }

    #[test]
    fn fast_crop_matches_the_exact_formula_at_any_orientation() {
        use crate::{RenderFilter, Renderer};
        use coterie_world::{GameId, GameSpec};
        // A real panorama: hard object edges are the worst case for a
        // sampling position that is off by a fraction of a pixel.
        let scene = GameSpec::for_game(GameId::VikingVillage).build_scene(3);
        let eye = scene.eye(scene.bounds().center());
        let pano = Renderer::default()
            .render_panorama(&scene, eye, RenderFilter::All)
            .frame;
        let small = FovOptions {
            width: 64,
            height: 36,
            hfov: 1.8,
        };
        let pi = std::f64::consts::PI;
        let yaws = [-pi, -2.4, -1.0, 0.0, 0.7, 1.9, 3.0, pi, 7.5];
        let pitches = [-1.3, -0.6, 0.0, 0.35, 1.3];
        let (mut worst_delta, mut worst_ssim) = (0.0f32, 1.0f64);
        for opts in [FovOptions::default(), small] {
            for yaw in yaws {
                for pitch in pitches {
                    let fast = opts.crop(&pano, yaw, pitch);
                    let exact = crop_reference(&opts, &pano, yaw, pitch);
                    for (a, b) in fast.data().iter().zip(exact.data()) {
                        worst_delta = worst_delta.max((a - b).abs());
                    }
                    worst_ssim = worst_ssim.min(coterie_frame::ssim(&fast, &exact));
                }
            }
        }
        assert!(worst_delta <= 1e-3, "worst pixel delta {worst_delta:e}");
        assert!(worst_ssim >= 0.9999, "worst SSIM {worst_ssim}");
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
