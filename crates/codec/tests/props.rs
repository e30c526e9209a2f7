//! Property-based tests for the transform codec, including scalar-vs-SIMD
//! parity for every kernel the codec dispatches through
//! [`coterie_parallel::simd`], and byte-identity of both encoders against
//! a reference that scans every coefficient of every block.

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

/// The codec's base quantization matrix, zig-zag order and quality
/// scales, restated so the reference shares no table with the code under
/// test.
const BASE_QUANT: [f32; 64] = [
    16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0, //
    12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0, //
    14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0, //
    14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0, //
    18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0, //
    24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0, //
    49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0, //
    72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0,
];

const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

const QUALITIES: [(Quality, f32); 3] = [
    (Quality::CRF18, 0.5),
    (Quality::CRF25, 1.0),
    (Quality::CRF32, 2.2),
];

/// Reference encoder: the per-coefficient zig-zag scan the codec used
/// before it walked the quantizer's nonzero mask. It centres the whole
/// plane, gathers every block with edge clamping, quantizes through the
/// same SIMD kernels, and run-length codes all 63 AC positions.
struct ReferenceEncoder {
    qtable: [f32; 64],
    dct: simd::Dct8x8,
    level: SimdLevel,
}

impl ReferenceEncoder {
    fn new(scale: f32, level: SimdLevel) -> Self {
        ReferenceEncoder {
            qtable: std::array::from_fn(|i| BASE_QUANT[i] * scale / 255.0),
            dct: simd::Dct8x8::new(),
            level,
        }
    }

    fn write_unsigned(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn write_signed(out: &mut Vec<u8>, v: i32) {
        Self::write_unsigned(out, ((v << 1) ^ (v >> 31)) as u32);
    }

    /// Quantizes the block at `(bx, by)` of `plane` and returns it in
    /// zig-zag order.
    fn scan_block(&self, plane: &[f32], w: usize, h: usize, bx: usize, by: usize) -> [i32; 64] {
        let mut block = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                block[y * 8 + x] = plane[(by * 8 + y).min(h - 1) * w + (bx * 8 + x).min(w - 1)];
            }
        }
        let mut coeffs = [0.0f32; 64];
        self.dct.forward(&block, &mut coeffs, self.level);
        let mut quantized = [0i32; 64];
        simd::quantize_8x8(&coeffs, &self.qtable, &mut quantized, self.level);
        std::array::from_fn(|i| quantized[ZIGZAG[i]])
    }

    /// `dc` then every nonzero AC as a `(zero_run, value)` pair, then EOB.
    fn write_scan(out: &mut Vec<u8>, dc: i32, scan: &[i32; 64]) {
        Self::write_signed(out, dc);
        let mut run = 0u32;
        for &v in scan.iter().skip(1) {
            if v == 0 {
                run += 1;
            } else {
                Self::write_unsigned(out, run);
                Self::write_signed(out, v);
                run = 0;
            }
        }
        Self::write_unsigned(out, 0x7F);
    }

    fn encode(&self, frame: &LumaFrame) -> Vec<u8> {
        let (w, h) = (frame.width() as usize, frame.height() as usize);
        let centered: Vec<f32> = frame.data().iter().map(|v| v - 0.5).collect();
        let mut out = Vec::new();
        let mut prev_dc = 0;
        for by in 0..h.div_ceil(8) {
            for bx in 0..w.div_ceil(8) {
                let scan = self.scan_block(&centered, w, h, bx, by);
                Self::write_scan(&mut out, scan[0] - prev_dc, &scan);
                prev_dc = scan[0];
            }
        }
        out
    }

    /// The residual payload and its skipped-block count.
    fn encode_delta(&self, frame: &LumaFrame, reference: &LumaFrame) -> (Vec<u8>, u32) {
        let (w, h) = (frame.width() as usize, frame.height() as usize);
        let residual: Vec<f32> = frame
            .data()
            .iter()
            .zip(reference.data())
            .map(|(a, b)| a - b)
            .collect();
        let mut out = Vec::new();
        let mut skipped = 0;
        for by in 0..h.div_ceil(8) {
            for bx in 0..w.div_ceil(8) {
                let still = (0..8).all(|y| {
                    (0..8).all(|x| {
                        let v = residual[(by * 8 + y).min(h - 1) * w + (bx * 8 + x).min(w - 1)];
                        v.abs() <= 1e-6
                    })
                });
                let scan = if still {
                    [0; 64]
                } else {
                    self.scan_block(&residual, w, h, bx, by)
                };
                skipped += u32::from(scan == [0; 64]);
                Self::write_scan(&mut out, scan[0], &scan);
            }
        }
        (out, skipped)
    }
}

/// Pixel values whose flat 8×8 block quantizes its DC from an exact
/// `.5` tie, per quality. The orthonormal DC of a flat block is about
/// `8·(v - 0.5)`, so each tie `k + 0.5` is searched for within 64 ulps
/// of the `v` that formula gives; about a third of the ties exist in
/// f32.
fn dc_tie_pixels() -> &'static [Vec<f32>; 3] {
    static TIES: std::sync::OnceLock<[Vec<f32>; 3]> = std::sync::OnceLock::new();
    TIES.get_or_init(|| {
        let dct = simd::Dct8x8::new();
        QUALITIES.map(|(_, scale)| {
            let step = BASE_QUANT[0] * scale / 255.0;
            let kmax = (4.0 / step) as i32;
            (-kmax..kmax)
                .filter_map(|k| {
                    let guess = (0.5 + (k as f32 + 0.5) * step / 8.0).to_bits();
                    (0..64)
                        .flat_map(|d| [guess + d, guess - d])
                        .map(f32::from_bits)
                        .find(|&v| {
                            let mut dc = [0.0f32; 64];
                            dct.forward(&[v - 0.5; 64], &mut dc, SimdLevel::Scalar);
                            dc[0] / step == k as f32 + 0.5
                        })
                })
                .collect()
        })
    })
}

/// Frames of every size from 1×1 up, so blocks clipped on the right,
/// the bottom and both are common, at a random quality index. Pixels
/// mix uniform noise with the extremes 0 and 1 and mid-grey (which
/// centres to exactly 0); a tile whose first pixel draws kind 3 is flat
/// at a value from [`dc_tie_pixels`].
fn edge_frame_strategy() -> impl Strategy<Value = (LumaFrame, usize)> {
    (1u32..=80, 1u32..=48, 0usize..3).prop_flat_map(|(w, h, q)| {
        let pixels =
            proptest::collection::vec((0u8..6, 0.0f32..=1.0, 0usize..256), (w * h) as usize);
        pixels.prop_map(move |picks| {
            let ties = &dc_tie_pixels()[q];
            let w = w as usize;
            let data = picks
                .iter()
                .enumerate()
                .map(|(i, &(kind, noise, _))| {
                    let (head, _, tie) = picks[(i / w / 8 * 8) * w + i % w / 8 * 8];
                    match (head, kind) {
                        (3, _) => ties[tie % ties.len()],
                        (_, 0) => 0.0,
                        (_, 1) => 1.0,
                        (_, 2) => 0.5,
                        _ => noise,
                    }
                })
                .collect();
            (LumaFrame::from_raw(w as u32, h, data), q)
        })
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
    fn quantize_mask_dequantize_parity_is_exact(
        coeffs in proptest::collection::vec(-512.0f32..512.0, 64),
        qraw in proptest::collection::vec(0.5f32..64.0, 64),
    ) {
        let coeffs: [f32; 64] = coeffs.try_into().unwrap();
        let qtable: [f32; 64] = qraw.try_into().unwrap();
        let mut want_q = [0i32; 64];
        let want_mask = simd::quantize_8x8(&coeffs, &qtable, &mut want_q, SimdLevel::Scalar);
        for (i, &q) in want_q.iter().enumerate() {
            prop_assert_eq!(want_mask >> i & 1 == 1, q != 0, "mask bit {} disagrees", i);
        }
        let mut want_d = [0.0f32; 64];
        simd::dequantize_8x8(&want_q, &qtable, &mut want_d, SimdLevel::Scalar);
        for level in simd::available_levels() {
            let mut got_q = [0i32; 64];
            let got_mask = simd::quantize_8x8(&coeffs, &qtable, &mut got_q, level);
            prop_assert_eq!(got_q, want_q, "quantize diverged at {:?}", level);
            prop_assert_eq!(got_mask, want_mask, "nonzero mask diverged at {:?}", level);
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

    #[test]
    fn encoders_match_the_full_scan_reference(
        (f, q) in edge_frame_strategy(),
        (g, _) in edge_frame_strategy(),
    ) {
        let (quality, scale) = QUALITIES[q];
        // A reference of the same size: `g` tiled over `f`'s grid, with
        // some blocks copied from `f` so the delta coder skips them.
        let reference = LumaFrame::from_fn(f.width(), f.height(), |x, y| {
            if (x / 8 + y / 8) % 3 == 0 {
                f.get(x, y)
            } else {
                g.get(x % g.width(), y % g.height())
            }
        });
        for level in simd::available_levels() {
            let want = ReferenceEncoder::new(scale, level);
            let got = Encoder::with_simd_level(quality, level).encode(&f);
            prop_assert_eq!(&got.payload[..], &want.encode(&f)[..], "intra {:?} {:?}", quality, level);
            let (want_delta, want_skipped) = want.encode_delta(&f, &reference);
            let got = DeltaEncoder::with_simd_level(quality, level).encode(&f, &reference);
            prop_assert_eq!(&got.payload[..], &want_delta[..], "delta {:?} {:?}", quality, level);
            prop_assert_eq!(got.skipped_blocks, want_skipped, "skips {:?} {:?}", quality, level);
        }
    }
}
