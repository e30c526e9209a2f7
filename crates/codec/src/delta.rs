//! Inter-frame (P-frame) coding against a reference frame.
//!
//! The paper's server encodes with x264, whose motion-compensated
//! P-frames spend bits only on what *changed* since the reference. This
//! module implements the zero-motion-vector version of that: the block
//! residual against a reference frame is transformed and entropy-coded,
//! and unchanged blocks cost two bytes.
//!
//! Its purpose in the reproduction is evidential: the simulation's
//! [`crate::SizeModel`] charges far-BE frames a *lower* H.264-equivalence
//! factor than whole-BE frames on the grounds that far content barely
//! moves between adjacent grid points while near content moves a lot.
//! The `coterie-sim` test `delta_coding_validates_size_asymmetry` uses
//! this codec to verify that claim end-to-end: P-frame savings between
//! adjacent-viewpoint renders are materially larger for far-BE layers
//! than for whole-BE layers.

use crate::{
    dct, entropy, gather_block, quant_table, scatter_block, CodecError, Quality,
    PAYLOAD_BYTES_PER_BLOCK, ZIGZAG,
};
use bytes::Bytes;
use coterie_frame::LumaFrame;
use coterie_parallel::simd::{self, SimdLevel};

/// An encoded inter-frame: residual payload plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedDelta {
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Quality used.
    pub quality: Quality,
    /// Entropy-coded residual payload.
    pub payload: Bytes,
    /// Number of blocks that were skipped (identical to reference after
    /// quantization).
    pub skipped_blocks: u32,
}

impl EncodedDelta {
    /// Encoded size in bytes (payload plus a nominal 16-byte header).
    pub fn size_bytes(&self) -> usize {
        self.payload.len() + 16
    }
}

/// Inter-frame encoder/decoder.
#[derive(Debug, Clone)]
pub struct DeltaEncoder {
    quality: Quality,
    qtable: [f32; 64],
    dct: dct::Dct8x8,
    level: SimdLevel,
}

impl Default for DeltaEncoder {
    fn default() -> Self {
        DeltaEncoder::new(Quality::default())
    }
}

impl DeltaEncoder {
    /// Creates a P-frame encoder at the given quality, using the
    /// process-wide detected SIMD level.
    pub fn new(quality: Quality) -> Self {
        Self::with_simd_level(quality, simd::detected_level())
    }

    /// Creates a P-frame encoder pinned to an explicit SIMD dispatch
    /// level (all levels produce byte-identical payloads).
    pub fn with_simd_level(quality: Quality, level: SimdLevel) -> Self {
        DeltaEncoder {
            quality,
            qtable: quant_table(quality),
            dct: dct::Dct8x8::new(),
            level,
        }
    }

    /// Encodes `frame` as a residual against `reference`.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different dimensions.
    pub fn encode(&self, frame: &LumaFrame, reference: &LumaFrame) -> EncodedDelta {
        assert_eq!(frame.width(), reference.width(), "frame widths differ");
        assert_eq!(frame.height(), reference.height(), "frame heights differ");
        let w = frame.width() as usize;
        let h = frame.height() as usize;
        let bw = w.div_ceil(8);
        let bh = h.div_ceil(8);
        let mut writer = entropy::Writer::with_capacity(bw * bh * PAYLOAD_BYTES_PER_BLOCK);
        let mut skipped = 0u32;
        let mut block = [0.0f32; 64];
        let mut coeffs = [0.0f32; 64];
        let mut quantized = [0i32; 64];
        // One plane-wide subtraction replaces the per-pixel residual
        // gather; blocks then copy out of the residual plane.
        let mut residual = vec![0.0f32; w * h];
        simd::sub_planes_f32(frame.data(), reference.data(), &mut residual, self.level);
        for by in 0..bh {
            for bx in 0..bw {
                gather_block(&residual, w, h, bx, by, 0.0, &mut block);
                if !simd::any_abs_above(&block, 1e-6, self.level) {
                    // Skip flag: zero DC delta + EOB.
                    writer.write_signed(0);
                    writer.write_eob();
                    skipped += 1;
                    continue;
                }
                self.dct.forward(&block, &mut coeffs, self.level);
                let mask = simd::quantize_8x8(&coeffs, &self.qtable, &mut quantized, self.level);
                if mask == 0 {
                    skipped += 1;
                }
                // Residual DC is coded directly (no prediction chain:
                // residual DCs are already near zero).
                writer.write_block(quantized[0], &quantized, mask);
            }
        }
        EncodedDelta {
            width: frame.width(),
            height: frame.height(),
            quality: self.quality,
            payload: writer.into_bytes(),
            skipped_blocks: skipped,
        }
    }

    /// Reconstructs a frame from a residual and its reference.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed payloads, and
    /// [`CodecError::Malformed`] if `reference` does not match the
    /// encoded dimensions.
    pub fn decode(
        &self,
        encoded: &EncodedDelta,
        reference: &LumaFrame,
    ) -> Result<LumaFrame, CodecError> {
        if (reference.width(), reference.height()) != (encoded.width, encoded.height) {
            return Err(CodecError::Malformed("reference size differs"));
        }
        let w = encoded.width as usize;
        let h = encoded.height as usize;
        let bw = w.div_ceil(8);
        let bh = h.div_ceil(8);
        // Every block costs at least a DC byte and an EOB byte (a
        // skipped block is exactly those two), the same floor
        // `Encoder::decode` checks before it sizes a plane.
        if encoded.payload.len() < bw.saturating_mul(bh).saturating_mul(2) {
            return Err(CodecError::Truncated);
        }
        let qtable = if encoded.quality == self.quality {
            self.qtable
        } else {
            quant_table(encoded.quality)
        };
        let mut reader = entropy::Reader::new(&encoded.payload);
        let mut quantized = [0i32; 64];
        let mut coeffs = [0.0f32; 64];
        let mut block = [0.0f32; 64];
        // Decoded residual blocks land in a zero plane, then one
        // plane-wide add applies the reference (reference + residual,
        // exactly the old per-pixel order).
        let mut residual = vec![0.0f32; w * h];
        for by in 0..bh {
            for bx in 0..bw {
                quantized.fill(0);
                quantized[0] = reader.read_signed()?;
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
                        match reader.read_run()? {
                            entropy::Run::Eob => break,
                            _ => return Err(CodecError::Malformed("missing EOB")),
                        }
                    }
                }
                simd::dequantize_8x8(&quantized, &qtable, &mut coeffs, self.level);
                self.dct.inverse(&coeffs, &mut block, self.level);
                scatter_block(&mut residual, w, h, bx, by, &block);
            }
        }
        let mut out = reference.data().to_vec();
        simd::add_planes_f32(&mut out, &residual, self.level);
        // The `[0, 1]` clamp `LumaFrame::set` used to apply per pixel.
        simd::clamp_unit_f32(&mut out, self.level);
        Ok(LumaFrame::from_raw(encoded.width, encoded.height, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;
    use coterie_frame::ssim;

    fn textured(seed: u32) -> LumaFrame {
        LumaFrame::from_fn(64, 48, |x, y| {
            ((x.wrapping_mul(13) ^ y.wrapping_mul(7) ^ seed) % 31) as f32 / 31.0
        })
    }

    #[test]
    fn identical_frames_cost_almost_nothing() {
        let f = textured(1);
        let enc = DeltaEncoder::new(Quality::CRF25);
        let d = enc.encode(&f, &f);
        // 48 blocks x 2 bytes of skip flags.
        assert!(
            d.size_bytes() < 250,
            "still frame cost {} bytes",
            d.size_bytes()
        );
        assert_eq!(d.skipped_blocks, 48);
        let decoded = enc.decode(&d, &f).unwrap();
        assert!(ssim(&f, &decoded) > 0.999);
    }

    #[test]
    fn small_change_is_localized() {
        let reference = textured(1);
        let mut frame = reference.clone();
        for y in 0..8 {
            for x in 0..8 {
                frame.set(x + 16, y + 16, 1.0 - frame.get(x + 16, y + 16));
            }
        }
        let enc = DeltaEncoder::new(Quality::CRF25);
        let d = enc.encode(&frame, &reference);
        assert_eq!(d.skipped_blocks, 47, "only the touched block carries bits");
        let decoded = enc.decode(&d, &reference).unwrap();
        assert!(ssim(&frame, &decoded) > 0.9);
    }

    #[test]
    fn delta_beats_intra_for_similar_frames() {
        // The temporal-redundancy claim: frames that barely changed cost
        // far fewer bits as P-frames than as I-frames.
        let reference = textured(3);
        let mut frame = reference.clone();
        for (i, v) in frame.data_mut().iter_mut().enumerate() {
            if i % 97 == 0 {
                *v = (*v + 0.06).min(1.0);
            }
        }
        let intra = Encoder::new(Quality::CRF25).encode(&frame);
        let delta = DeltaEncoder::new(Quality::CRF25).encode(&frame, &reference);
        assert!(
            delta.size_bytes() * 3 < intra.size_bytes(),
            "delta {} should be far smaller than intra {}",
            delta.size_bytes(),
            intra.size_bytes()
        );
    }

    #[test]
    fn unrelated_frames_gain_nothing() {
        let a = textured(1);
        let b = textured(999);
        let intra = Encoder::new(Quality::CRF25).encode(&b);
        let delta = DeltaEncoder::new(Quality::CRF25).encode(&b, &a);
        // Residual of unrelated noise is as expensive as the content.
        assert!(delta.size_bytes() as f64 > intra.size_bytes() as f64 * 0.6);
    }

    #[test]
    fn roundtrip_quality_matches_intra() {
        let reference = textured(5);
        let mut frame = reference.clone();
        for v in frame.data_mut().iter_mut().step_by(11) {
            *v = (*v * 0.8 + 0.1).clamp(0.0, 1.0);
        }
        let enc = DeltaEncoder::new(Quality::CRF25);
        let decoded = enc
            .decode(&enc.encode(&frame, &reference), &reference)
            .unwrap();
        let s = ssim(&frame, &decoded);
        assert!(s > 0.9, "delta round-trip SSIM {s:.3}");
    }

    #[test]
    fn truncated_delta_errors() {
        let reference = textured(5);
        let enc = DeltaEncoder::new(Quality::CRF25);
        let mut d = enc.encode(&textured(6), &reference);
        d.payload = d.payload.slice(0..d.payload.len() / 3);
        assert_eq!(
            enc.decode(&d, &reference).err(),
            Some(CodecError::Truncated)
        );
        // 48 blocks need at least 96 bytes; 95 bytes of skip flags stop
        // one byte short and are refused before the residual plane is
        // allocated.
        let mut still = enc.encode(&reference, &reference);
        assert_eq!(still.payload.len(), 96, "a still frame is all skip flags");
        still.payload = still.payload.slice(..95);
        assert_eq!(
            enc.decode(&still, &reference).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn mismatched_reference_is_an_error() {
        let enc = DeltaEncoder::new(Quality::CRF25);
        let reference = textured(5);
        let mut d = enc.encode(&textured(6), &reference);
        d.width = u32::MAX;
        assert_eq!(
            enc.decode(&d, &reference).err(),
            Some(CodecError::Malformed("reference size differs"))
        );
        let small = LumaFrame::new(16, 16);
        d.width = reference.width();
        assert_eq!(
            enc.decode(&d, &small).err(),
            Some(CodecError::Malformed("reference size differs"))
        );
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_reference_panics() {
        let enc = DeltaEncoder::new(Quality::CRF25);
        let _ = enc.encode(&LumaFrame::new(16, 16), &LumaFrame::new(24, 16));
    }
}
