//! Output checks on every frame the server delivers.
//!
//! Checked as frames arrive: the dimensions match the frame's
//! `scale_pm`, and two replies for one grid point and scale carry the
//! same bytes. Checked after the timed phases, off the clock: every
//! distinct payload decodes with the real `coterie-codec` to the
//! dimensions its frame header claimed.

use crate::workload::Pose;
use coterie_codec::{EncodedFrame, Encoder};
use coterie_server::service::{quality_from_wire, BASE_WIDTH};
use coterie_world::{Scene, Vec2};
use std::collections::HashMap;
use std::sync::Arc;

/// Violations kept verbatim; further ones are only counted.
const VIOLATIONS_KEPT: usize = 20;

/// A 64-bit hash of a payload, eight bytes a step (payload identity
/// only — the inputs are the program's own output, not hostile).
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(K);
    }
    h
}

/// One distinct payload, kept for the off-the-clock decode.
struct Distinct {
    frame: EncodedFrame,
    /// Frames that carried it.
    frames: u64,
}

pub struct Checker {
    scene: Arc<Scene>,
    /// `(grid key, scale)` → hash of the payload first seen there.
    by_grid: HashMap<(u64, u16), u64>,
    distinct: HashMap<u64, Distinct>,
    pub frames: u64,
    pub store_hits: u64,
    pub payload_bytes: u64,
    pub degrades_seen: u64,
    pub violations: Vec<String>,
    pub violation_count: u64,
}

impl Checker {
    pub fn new(scene: Arc<Scene>) -> Checker {
        Checker {
            scene,
            by_grid: HashMap::new(),
            distinct: HashMap::new(),
            frames: 0,
            store_hits: 0,
            payload_bytes: 0,
            degrades_seen: 0,
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    pub fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(what);
        }
    }

    /// Checks one delivered frame against the pose that asked for it.
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &mut self,
        pose: &Pose,
        width: u32,
        height: u32,
        quality: u8,
        store_hit: bool,
        scale_pm: u16,
        payload: Vec<u8>,
    ) {
        self.frames += 1;
        self.store_hits += store_hit as u64;
        self.payload_bytes += payload.len() as u64;

        let want_w = (BASE_WIDTH * scale_pm as u32 / 1000).max(16);
        let want_h = (want_w / 2).max(8);
        if (width, height) != (want_w, want_h) {
            self.violation(format!(
                "frame is {width}x{height}, scale {scale_pm} wants {want_w}x{want_h}"
            ));
        }

        let grid = self.scene.grid().snap(Vec2::new(pose.x, pose.z));
        let hash = hash64(&payload);
        let first = *self.by_grid.entry((grid.key(), scale_pm)).or_insert(hash);
        if first != hash {
            self.violation(format!(
                "grid point ({}, {}) at scale {scale_pm} answered with different bytes",
                grid.ix, grid.iz
            ));
        }
        self.distinct
            .entry(hash)
            .or_insert_with(|| Distinct {
                frame: EncodedFrame {
                    width,
                    height,
                    quality: quality_from_wire(quality),
                    payload: bytes::Bytes::from_vec(payload),
                },
                frames: 0,
            })
            .frames += 1;
    }

    pub fn distinct_payloads(&self) -> usize {
        self.distinct.len()
    }

    /// A few distinct delivered frames, for the layer replays.
    pub fn sample_frames(&self, n: usize) -> Vec<EncodedFrame> {
        let mut keys: Vec<&u64> = self.distinct.keys().collect();
        keys.sort_unstable();
        keys.into_iter()
            .take(n)
            .map(|k| self.distinct[k].frame.clone())
            .collect()
    }

    /// Decodes every distinct payload once. Returns how many delivered
    /// frames carried a payload that did not decode.
    pub fn decode_all(&mut self) -> u64 {
        let mut bad_frames = 0;
        let mut bad = Vec::new();
        for (hash, d) in &self.distinct {
            let ok = match Encoder::new(d.frame.quality).decode(&d.frame) {
                Ok(luma) => (luma.width(), luma.height()) == (d.frame.width, d.frame.height),
                Err(_) => false,
            };
            if !ok {
                bad_frames += d.frames;
                bad.push(format!(
                    "payload {hash:#018x} ({} bytes, {} frames) does not decode",
                    d.frame.payload.len(),
                    d.frames
                ));
            }
        }
        bad.sort();
        for b in bad {
            self.violation(b);
        }
        bad_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GAME;
    use coterie_frame::LumaFrame;
    use coterie_world::GameSpec;

    fn checker() -> Checker {
        Checker::new(Arc::new(GameSpec::for_game(GAME).build_scene(42)))
    }

    fn encoded(seed: f32) -> Vec<u8> {
        let frame = LumaFrame::from_fn(128, 64, |x, y| ((x + y) as f32 * seed).sin().abs());
        Encoder::new(quality_from_wire(1))
            .encode(&frame)
            .payload
            .to_vec()
    }

    const HERE: Pose = Pose {
        x: 10.0,
        z: 10.0,
        yaw: 0.0,
    };

    #[test]
    fn clean_frames_pass_and_decode() {
        let mut c = checker();
        c.frame(&HERE, 128, 64, 1, false, 1000, encoded(0.1));
        c.frame(&HERE, 128, 64, 1, true, 1000, encoded(0.1));
        assert_eq!(c.decode_all(), 0);
        assert_eq!((c.frames, c.store_hits, c.violation_count), (2, 1, 0));
        assert_eq!(c.distinct_payloads(), 1);
    }

    #[test]
    fn wrong_dimensions_differing_bytes_and_garbage_are_caught() {
        let mut c = checker();
        c.frame(&HERE, 128, 64, 1, false, 500, encoded(0.1));
        assert_eq!(c.violation_count, 1, "scale 500 wants 64x32");
        c.frame(&HERE, 128, 64, 1, false, 1000, encoded(0.1));
        c.frame(&HERE, 128, 64, 1, false, 1000, encoded(0.2));
        assert_eq!(c.violation_count, 2, "same grid point, other bytes");
        let mut c = checker();
        c.frame(&HERE, 128, 64, 1, false, 1000, vec![0xFF; 7]);
        c.frame(&HERE, 128, 64, 1, false, 1000, vec![0xFF; 7]);
        assert_eq!(c.decode_all(), 2, "both frames carried the bad payload");
        assert_eq!(c.violation_count, 1);
    }

    #[test]
    fn hash_separates_near_identical_payloads() {
        let a = vec![7u8; 1500];
        let mut b = a.clone();
        b[1499] ^= 1;
        assert_ne!(hash64(&a), hash64(&b));
        assert_ne!(hash64(&a[..1499]), hash64(&a));
    }
}
