//! Layer compositing: merging near BE over far BE.
//!
//! Task 5 of the Coterie client loop (§5.1): "The decoded far BE frame is
//! merged with the locally rendered FI and near BE in the Render engine."
//! The near layer's coverage mask decides which pixels come from the
//! locally rendered near BE and which from the (possibly cached, possibly
//! codec-lossy) far BE frame.

use crate::panorama::Panorama;
use coterie_frame::LumaFrame;
use coterie_parallel::simd;

/// Composites the near-BE layer over the far-BE layer.
///
/// Pixels covered by `near` take its value; all other pixels fall back to
/// `far`. The result reports full coverage when the two layers jointly
/// cover the frame (they always do when rendered from the same viewpoint
/// with complementary filters; a *reused* far frame from a nearby
/// viewpoint may leave a thin uncovered seam, which is filled from the
/// far frame's values regardless — visually this is the slight stutter
/// the paper's user study probes).
///
/// # Panics
///
/// Panics if the layers have different dimensions.
pub fn merge(near: &Panorama, far: &Panorama) -> LumaFrame {
    assert_eq!(near.frame.width(), far.frame.width(), "layer widths differ");
    assert_eq!(
        near.frame.height(),
        far.frame.height(),
        "layer heights differ"
    );
    let w = near.frame.width();
    let h = near.frame.height();
    let mut out = LumaFrame::new(w, h);
    // Bulk-copy the far plane, then overwrite the near-masked pixels with
    // a masked select over the whole plane.
    out.data_mut().copy_from_slice(far.frame.data());
    simd::masked_select_f32(
        out.data_mut(),
        near.frame.data(),
        &near.mask,
        simd::detected_level(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panorama::{RenderFilter, Renderer};
    use coterie_frame::ssim;
    use coterie_world::{GameId, GameSpec};

    #[test]
    fn merge_prefers_near_where_masked() {
        let near = Panorama {
            frame: LumaFrame::filled(4, 2, 1.0),
            mask: vec![1, 0, 1, 0, 1, 0, 1, 0],
        };
        let far = Panorama {
            frame: LumaFrame::filled(4, 2, 0.25),
            mask: vec![1; 8],
        };
        let merged = merge(&near, &far);
        assert_eq!(merged.get(0, 0), 1.0);
        assert_eq!(merged.get(1, 0), 0.25);
    }

    #[test]
    fn split_render_then_merge_equals_full_render() {
        // The core compositing invariant: near + far layers rendered from
        // the same viewpoint must reassemble the whole-BE frame (up to the
        // occlusion approximation at the cutoff boundary).
        let spec = GameSpec::for_game(GameId::Fps);
        let scene = spec.build_scene(1);
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let full = r.render_panorama(&scene, eye, RenderFilter::All);
        for cutoff in [4.0, 10.0, 25.0] {
            let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff });
            let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff });
            let merged = merge(&near, &far);
            let s = ssim(&merged, &full.frame);
            assert!(
                s > 0.97,
                "cutoff {cutoff}: merged frame diverges from full render (SSIM {s:.4})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_layers_panic() {
        let a = Panorama {
            frame: LumaFrame::new(4, 4),
            mask: vec![0; 16],
        };
        let b = Panorama {
            frame: LumaFrame::new(5, 4),
            mask: vec![0; 20],
        };
        let _ = merge(&a, &b);
    }

    #[test]
    fn merge_of_complementary_layers_has_no_black_holes() {
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(3);
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff: 8.0 });
        let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff: 8.0 });
        let merged = merge(&near, &far);
        // A fully void pixel would be exactly 0.0; the sky/ground/fog make
        // true zeros vanishingly unlikely in a composited frame.
        let zeros = merged.data().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 0, "merged frame has {zeros} uncovered pixels");
    }
}
