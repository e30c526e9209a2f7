//! A [`FrameStore`] that times every call into the [`LocalStore`] it
//! wraps — the traced pass's view of the store layer, taken from
//! outside through `ServiceCore::with_store`.

use coterie_core::cache::{CacheQuery, FrameMeta};
use coterie_serve::{Admission, FrameStore, LocalStore, StoreConfig, StoreStats};
use coterie_world::GameId;
use parking_lot::Mutex;
use std::time::Instant;

/// The three timed operations, in [`OpLog`] index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lookup = 0,
    Insert = 1,
    InsertSpeculative = 2,
}

/// Every call's duration, per operation, in call order.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    pub ns: [Vec<u32>; 3],
}

/// Where a window starts in an [`OpLog`]: the call counts so far.
pub type OpMark = [usize; 3];

impl OpLog {
    pub fn mark(&self) -> OpMark {
        [self.ns[0].len(), self.ns[1].len(), self.ns[2].len()]
    }

    /// Durations of `op` between two marks, µs.
    pub fn window_us(&self, op: Op, from: &OpMark, to: &OpMark) -> Vec<f64> {
        let i = op as usize;
        self.ns[i][from[i]..to[i]]
            .iter()
            .map(|&ns| ns as f64 / 1000.0)
            .collect()
    }
}

pub struct TimedStore {
    inner: LocalStore,
    log: Mutex<OpLog>,
}

impl TimedStore {
    pub fn new(config: StoreConfig) -> TimedStore {
        TimedStore {
            inner: LocalStore::new(config),
            log: Mutex::new(OpLog::default()),
        }
    }

    pub fn mark(&self) -> OpMark {
        self.log.lock().mark()
    }

    pub fn log(&self) -> OpLog {
        self.log.lock().clone()
    }

    fn timed<R>(&self, op: Op, f: impl FnOnce(&LocalStore) -> R) -> R {
        let t0 = Instant::now();
        let result = f(&self.inner);
        let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.log.lock().ns[op as usize].push(ns);
        result
    }
}

impl FrameStore for TimedStore {
    fn lookup(&self, game: GameId, query: &CacheQuery) -> bool {
        self.timed(Op::Lookup, |s| s.lookup(game, query))
    }

    fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool {
        self.timed(Op::Insert, |s| s.insert(game, meta, size_bytes))
    }

    fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool {
        self.timed(Op::InsertSpeculative, |s| {
            s.insert_speculative(game, meta, size_bytes, reuse_score)
        })
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn admission(&self) -> Admission {
        self.inner.config().admission
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::{GridPoint, LeafId, Vec2};

    /// xorshift64*: seeded, dependency-free.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn returns_exactly_what_the_local_store_returns() {
        // A budget small enough that the sequence evicts.
        let config = StoreConfig {
            capacity_bytes: 200_000,
            ..StoreConfig::default()
        };
        let timed = TimedStore::new(config);
        let plain = LocalStore::new(config);
        let mut rng = Rng(0xC07E_71E5);
        let mut calls = [0usize; 3];
        for step in 0..10_000 {
            let (ix, iz) = (rng.below(48) as i32, rng.below(48) as i32);
            let grid = GridPoint::new(ix, iz);
            let pos = Vec2::new(ix as f64 * 0.5, iz as f64 * 0.5);
            let leaf = LeafId(((ix >> 3) << 16 | (iz >> 3)) as u32);
            let near_hash = rng.below(3);
            let meta = FrameMeta {
                grid,
                pos,
                leaf,
                near_hash,
            };
            let bytes = 800 + rng.below(1200);
            let game = if rng.below(4) == 0 {
                GameId::Fps
            } else {
                GameId::VikingVillage
            };
            let op = rng.below(3) as usize;
            calls[op] += 1;
            let same = match op {
                0 => {
                    let query = CacheQuery {
                        grid,
                        pos,
                        leaf,
                        near_hash,
                        dist_thresh: 0.6,
                    };
                    timed.lookup(game, &query) == plain.lookup(game, &query)
                }
                1 => timed.insert(game, meta, bytes) == plain.insert(game, meta, bytes),
                _ => {
                    let score = rng.below(100) as f64 / 100.0;
                    timed.insert_speculative(game, meta, bytes, score)
                        == plain.insert_speculative(game, meta, bytes, score)
                }
            };
            assert!(same, "results diverged at step {step}");
            assert_eq!(FrameStore::bytes(&timed), plain.bytes(), "step {step}");
            assert_eq!(FrameStore::len(&timed), plain.len(), "step {step}");
        }
        assert_eq!(FrameStore::stats(&timed), plain.stats());
        assert!(plain.stats().evictions > 0, "the sequence must evict");
        // Every call was timed, none twice.
        assert_eq!(timed.mark(), calls);
    }
}
