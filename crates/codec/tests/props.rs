//! Property-based tests for the transform codec, including scalar-vs-SIMD
//! parity for every kernel the codec dispatches through
//! [`coterie_parallel::simd`].

use coterie_codec::{DeltaEncoder, Encoder, Quality, SizeModel};
use coterie_frame::{ssim_with, LumaFrame, SsimOptions};
use coterie_parallel::simd::{self, SimdLevel};
use proptest::prelude::*;

fn frame_strategy() -> impl Strategy<Value = LumaFrame> {
    (8u32..48, 8u32..48).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0.0f32..=1.0, (w * h) as usize)
            .prop_map(move |data| LumaFrame::from_raw(w, h, data))
    })
}

/// Smooth frames (realistic content) for quality assertions; pure white
/// noise is the pathological worst case for any transform codec.
fn smooth_frame_strategy() -> impl Strategy<Value = LumaFrame> {
    (8u32..48, 8u32..48, 0u64..1000).prop_map(|(w, h, seed)| {
        LumaFrame::from_fn(w, h, |x, y| {
            let fx = x as f32 / w as f32;
            let fy = y as f32 / h as f32;
            let s = seed as f32 * 0.01;
            (0.5 + 0.3 * (fx * 6.0 + s).sin() * (fy * 5.0 - s).cos()).clamp(0.0, 1.0)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_frame_roundtrips_without_error(f in frame_strategy()) {
        for q in [Quality::CRF18, Quality::CRF25, Quality::CRF32] {
            let enc = Encoder::new(q);
            let encoded = enc.encode(&f);
            let decoded = enc.decode(&encoded);
            prop_assert!(decoded.is_ok(), "decode failed at {q:?}");
            let d = decoded.unwrap();
            prop_assert_eq!(d.width(), f.width());
            prop_assert_eq!(d.height(), f.height());
        }
    }

    #[test]
    fn decoded_pixels_stay_in_unit_range(f in frame_strategy()) {
        let enc = Encoder::new(Quality::CRF25);
        let decoded = enc.decode(&enc.encode(&f)).unwrap();
        for &v in decoded.data() {
            prop_assert!((0.0..=1.0).contains(&v), "pixel {v} escaped range");
        }
    }

    #[test]
    fn encoding_is_deterministic(f in frame_strategy()) {
        let enc = Encoder::new(Quality::CRF25);
        prop_assert_eq!(enc.encode(&f), enc.encode(&f));
    }

    #[test]
    fn smooth_content_decodes_faithfully(f in smooth_frame_strategy()) {
        let enc = Encoder::new(Quality::CRF25);
        let decoded = enc.decode(&enc.encode(&f)).unwrap();
        let s = ssim_with(&f, &decoded, &SsimOptions::fast());
        prop_assert!(s > 0.9, "smooth content should survive: SSIM {s:.3}");
    }

    #[test]
    fn higher_quality_never_larger_error(f in smooth_frame_strategy()) {
        let hi = Encoder::new(Quality::CRF18);
        let lo = Encoder::new(Quality::CRF32);
        let d_hi = hi.decode(&hi.encode(&f)).unwrap();
        let d_lo = lo.decode(&lo.encode(&f)).unwrap();
        let err = |a: &LumaFrame, b: &LumaFrame| {
            a.data().iter().zip(b.data()).map(|(x, y)| ((x - y) as f64).powi(2)).sum::<f64>()
        };
        prop_assert!(err(&f, &d_hi) <= err(&f, &d_lo) + 1e-6);
    }

    #[test]
    fn truncation_never_panics(f in frame_strategy(), cut in 0usize..100) {
        let enc = Encoder::new(Quality::CRF25);
        let mut e = enc.encode(&f);
        let keep = e.payload.len() * cut / 100;
        e.payload = e.payload.slice(0..keep);
        // Must return Ok or Err but never panic. (Truncation may still
        // decode successfully when the cut lands on a block boundary near
        // the end.)
        let _ = enc.decode(&e);
    }

    #[test]
    fn size_model_monotone_in_resolution(f in smooth_frame_strategy()) {
        let enc = Encoder::new(Quality::CRF25);
        let e = enc.encode(&f);
        let small = SizeModel { target_width: 1280, target_height: 720, h264_efficiency: 0.35 };
        let big = SizeModel { target_width: 3840, target_height: 2160, h264_efficiency: 0.35 };
        prop_assert!(small.scaled_bytes(&e) <= big.scaled_bytes(&e));
    }

    // --- scalar-vs-SIMD parity ------------------------------------------
    //
    // Integer/byte kernels must agree *exactly* across dispatch levels;
    // the f32 DCT gets the spec'd ≤1e-5 relative tolerance (in practice
    // the kernels replicate the scalar association and are bit-identical,
    // so these bounds are loose by design).

    #[test]
    fn quantize_zigzag_dequantize_parity_is_exact(
        coeffs in proptest::collection::vec(-512.0f32..512.0, 64),
        qraw in proptest::collection::vec(0.5f32..64.0, 64),
        order_raw in proptest::collection::vec(0i32..64, 64),
    ) {
        let coeffs: [f32; 64] = coeffs.try_into().unwrap();
        let qtable: [f32; 64] = qraw.try_into().unwrap();
        let order: [i32; 64] = order_raw.try_into().unwrap();
        let mut want_q = [0i32; 64];
        let want_zero = simd::quantize_8x8(&coeffs, &qtable, &mut want_q, SimdLevel::Scalar);
        let mut want_z = [0i32; 64];
        simd::zigzag_gather(&want_q, &order, &mut want_z, SimdLevel::Scalar);
        let mut want_d = [0.0f32; 64];
        simd::dequantize_8x8(&want_q, &qtable, &mut want_d, SimdLevel::Scalar);
        for level in simd::available_levels() {
            let mut got_q = [0i32; 64];
            let got_zero = simd::quantize_8x8(&coeffs, &qtable, &mut got_q, level);
            prop_assert_eq!(got_q, want_q, "quantize diverged at {:?}", level);
            prop_assert_eq!(got_zero, want_zero, "all_zero flag diverged at {:?}", level);
            let mut got_z = [0i32; 64];
            simd::zigzag_gather(&got_q, &order, &mut got_z, level);
            prop_assert_eq!(got_z, want_z, "zig-zag diverged at {:?}", level);
            let mut got_d = [0.0f32; 64];
            simd::dequantize_8x8(&got_q, &qtable, &mut got_d, level);
            for (g, w) in got_d.iter().zip(&want_d) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "dequantize diverged at {:?}", level);
            }
        }
    }

    #[test]
    fn delta_plane_kernels_parity_is_exact(
        a in proptest::collection::vec(-2.0f32..2.0, 67),
        b in proptest::collection::vec(-2.0f32..2.0, 67),
        s in -1.0f32..1.0,
    ) {
        // 67 elements: odd length exercises every SIMD tail path.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut want_sub = vec![0.0f32; a.len()];
        simd::sub_planes_f32(&a, &b, &mut want_sub, SimdLevel::Scalar);
        let mut want_add = a.clone();
        simd::add_planes_f32(&mut want_add, &b, SimdLevel::Scalar);
        let mut want_subs = vec![0.0f32; a.len()];
        simd::sub_scalar_f32(&a, s, &mut want_subs, SimdLevel::Scalar);
        let mut want_add_clamp = a.clone();
        simd::add_clamp_unit_f32(&mut want_add_clamp, s, SimdLevel::Scalar);
        let mut want_clamp = a.clone();
        simd::clamp_unit_f32(&mut want_clamp, SimdLevel::Scalar);
        let want_above = simd::any_abs_above(&a, 0.5, SimdLevel::Scalar);
        for level in simd::available_levels() {
            let mut got = vec![0.0f32; a.len()];
            simd::sub_planes_f32(&a, &b, &mut got, level);
            prop_assert_eq!(bits(&got), bits(&want_sub), "sub_planes diverged at {:?}", level);
            let mut got = a.clone();
            simd::add_planes_f32(&mut got, &b, level);
            prop_assert_eq!(bits(&got), bits(&want_add), "add_planes diverged at {:?}", level);
            let mut got = vec![0.0f32; a.len()];
            simd::sub_scalar_f32(&a, s, &mut got, level);
            prop_assert_eq!(bits(&got), bits(&want_subs), "sub_scalar diverged at {:?}", level);
            let mut got = a.clone();
            simd::add_clamp_unit_f32(&mut got, s, level);
            prop_assert_eq!(
                bits(&got), bits(&want_add_clamp),
                "add_clamp_unit diverged at {:?}", level
            );
            let mut got = a.clone();
            simd::clamp_unit_f32(&mut got, level);
            prop_assert_eq!(bits(&got), bits(&want_clamp), "clamp_unit diverged at {:?}", level);
            prop_assert_eq!(
                simd::any_abs_above(&a, 0.5, level), want_above,
                "any_abs_above diverged at {:?}", level
            );
        }
    }

    #[test]
    fn dct_parity_within_tolerance(block in proptest::collection::vec(-0.5f32..0.5, 64)) {
        let block: [f32; 64] = block.try_into().unwrap();
        let dct = simd::Dct8x8::new();
        let mut want_f = [0.0f32; 64];
        dct.forward(&block, &mut want_f, SimdLevel::Scalar);
        let mut want_i = [0.0f32; 64];
        dct.inverse(&want_f, &mut want_i, SimdLevel::Scalar);
        for level in simd::available_levels() {
            let mut got_f = [0.0f32; 64];
            dct.forward(&block, &mut got_f, level);
            for (g, w) in got_f.iter().zip(&want_f) {
                let tol = 1e-5f32 * w.abs().max(1.0);
                prop_assert!((g - w).abs() <= tol, "forward DCT diverged at {level:?}: {g} vs {w}");
            }
            let mut got_i = [0.0f32; 64];
            dct.inverse(&got_f, &mut got_i, level);
            for (g, w) in got_i.iter().zip(&want_i) {
                let tol = 1e-5f32 * w.abs().max(1.0);
                prop_assert!((g - w).abs() <= tol, "inverse DCT diverged at {level:?}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn whole_codec_is_identical_across_levels(f in frame_strategy(), g in frame_strategy()) {
        // End-to-end: the kernels replicate scalar operation order, so the
        // *entire* intra and delta codec paths — bitstream included — must
        // agree bit-for-bit at every dispatch level.
        let want_enc = Encoder::with_simd_level(Quality::CRF25, SimdLevel::Scalar);
        let want = want_enc.encode(&f);
        let want_dec = want_enc.decode(&want).unwrap();
        for level in simd::available_levels() {
            let enc = Encoder::with_simd_level(Quality::CRF25, level);
            let e = enc.encode(&f);
            prop_assert_eq!(&e, &want, "intra bitstream diverged at {:?}", level);
            let d = enc.decode(&e).unwrap();
            prop_assert_eq!(d.data(), want_dec.data(), "intra decode diverged at {:?}", level);
        }
        // Delta path needs same-sized frames; resample g onto f's grid.
        let reference = LumaFrame::from_fn(f.width(), f.height(), |x, y| {
            g.sample_bilinear(
                x as f32 * g.width() as f32 / f.width() as f32,
                y as f32 * g.height() as f32 / f.height() as f32,
            )
        });
        let want_enc = DeltaEncoder::with_simd_level(Quality::CRF25, SimdLevel::Scalar);
        let want = want_enc.encode(&f, &reference);
        let want_dec = want_enc.decode(&want, &reference).unwrap();
        for level in simd::available_levels() {
            let enc = DeltaEncoder::with_simd_level(Quality::CRF25, level);
            let e = enc.encode(&f, &reference);
            prop_assert_eq!(&e, &want, "delta bitstream diverged at {:?}", level);
            let d = enc.decode(&e, &reference).unwrap();
            prop_assert_eq!(d.data(), want_dec.data(), "delta decode diverged at {:?}", level);
        }
    }
}
