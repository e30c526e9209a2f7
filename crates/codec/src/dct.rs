//! 8×8 type-II DCT and its inverse (separable, orthonormal).
//!
//! The transform itself lives in [`coterie_parallel::simd::Dct8x8`],
//! which precomputes the cosine basis (and its transpose, the layout
//! the SIMD row pass needs) once per instance — the encoder constructs
//! one per codec instead of consulting a `OnceLock` per block — and
//! dispatches between scalar and AVX2 matmuls that are bit-identical
//! to each other.

pub(crate) use coterie_parallel::simd::Dct8x8;

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_parallel::simd::available_levels;

    #[test]
    fn roundtrip_is_identity() {
        let dct = Dct8x8::new();
        let mut input = [0.0f32; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 7919) % 100) as f32 / 100.0 - 0.5;
        }
        for level in available_levels() {
            let mut coeffs = [0.0f32; 64];
            let mut back = [0.0f32; 64];
            dct.forward(&input, &mut coeffs, level);
            dct.inverse(&coeffs, &mut back, level);
            for i in 0..64 {
                assert!((input[i] - back[i]).abs() < 1e-5, "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn dc_of_constant_block() {
        let dct = Dct8x8::new();
        let input = [0.25f32; 64];
        for level in available_levels() {
            let mut coeffs = [0.0f32; 64];
            dct.forward(&input, &mut coeffs, level);
            // Orthonormal: DC = 8 * mean = 8 * 0.25.
            assert!((coeffs[0] - 2.0).abs() < 1e-5, "{level:?}");
            for (i, &c) in coeffs.iter().enumerate().skip(1) {
                assert!(c.abs() < 1e-5, "{level:?} AC {i} = {c}");
            }
        }
    }

    #[test]
    fn energy_preservation_parseval() {
        let dct = Dct8x8::new();
        let mut input = [0.0f32; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin() * 0.5;
        }
        for level in available_levels() {
            let mut coeffs = [0.0f32; 64];
            dct.forward(&input, &mut coeffs, level);
            let e_in: f32 = input.iter().map(|v| v * v).sum();
            let e_out: f32 = coeffs.iter().map(|v| v * v).sum();
            assert!((e_in - e_out).abs() < 1e-4, "{level:?}: {e_in} vs {e_out}");
        }
    }

    #[test]
    fn smooth_gradient_concentrates_low_frequencies() {
        let dct = Dct8x8::new();
        let mut input = [0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                input[y * 8 + x] = x as f32 / 8.0 - 0.5;
            }
        }
        for level in available_levels() {
            let mut coeffs = [0.0f32; 64];
            dct.forward(&input, &mut coeffs, level);
            let low: f32 = coeffs[..16].iter().map(|v| v.abs()).sum();
            let high: f32 = coeffs[32..].iter().map(|v| v.abs()).sum();
            assert!(low > high * 10.0, "{level:?}: low {low} vs high {high}");
        }
    }
}
