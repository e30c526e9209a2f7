//! Differential property test: [`LocalStore`] against a model that keeps
//! every frame in one `Vec` and answers each question by scanning it.
//!
//! The store finds its eviction victim through per-cache recency lists
//! and per-stripe head indexes; the model finds it with `min_by_key`
//! over everything. Both are driven by the same seeded sequence of
//! operations and must agree after every step on the hit/miss answer,
//! `bytes()`, `len()`, `stats()` and `oldest_stamp()`, and at the end on
//! the order in which the survivors are evicted — so an index that loses
//! a cache, a list that misses a touch, or a budget that drifts shows up
//! as a divergence, not as a slow leak. A second property reads the
//! oldest entry only every few steps, so the caches that hits leave
//! stale in the head index pile up between reads. Two more properties
//! cover the [`StoreStats`] algebra: NaN-safe bounded ratios, and
//! order-independent merges (an isolated-store fleet folds one
//! `StoreStats` per room).

use coterie_core::{CacheQuery, FrameMeta};
use coterie_serve::{render_cost_ms, Admission, LocalStore, StoreConfig, StoreStats};
use coterie_world::{GameId, GridPoint, LeafId, Vec2};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
struct Op {
    kind: u32,
    game: GameId,
    meta: FrameMeta,
    size: u64,
    /// Match radius of a lookup and reuse score of a speculative insert.
    knob: f64,
}

/// Operations over a lattice small enough that lookups hit, inserts
/// collide with resident frames (same size: duplicate; other size:
/// replacement) and one leaf holds several frames.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..12,
        proptest::bool::ANY,
        (0i32..6, 0i32..3),
        0u32..3,
        0u64..2,
        0usize..4,
        0.0f64..1.0,
    )
        .prop_map(|(kind, game, (ix, iz), leaf, near_hash, size, knob)| Op {
            kind,
            game: if game {
                GameId::VikingVillage
            } else {
                GameId::Fps
            },
            meta: FrameMeta {
                grid: GridPoint::new(ix, iz),
                pos: Vec2::new(ix as f64 * 0.25, iz as f64 * 0.25),
                leaf: LeafId(leaf),
                near_hash,
            },
            size: [100, 150, 220, 340][size],
            knob,
        })
}

#[derive(Debug, Clone)]
struct ModelFrame {
    game: GameId,
    meta: FrameMeta,
    size: u64,
    stamp: u64,
    /// Insertion order, the last tie-break of a lookup.
    seq: u64,
    speculative: bool,
    used: bool,
    value: f64,
}

/// The reference: one `Vec`, one clock, every decision a scan.
struct Model {
    frames: Vec<ModelFrame>,
    clock: u64,
    seq: u64,
    capacity: u64,
    admission: Admission,
    stats: StoreStats,
}

impl Model {
    fn bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.size).sum()
    }

    fn ticket(&mut self) -> u64 {
        self.clock += 1;
        self.clock - 1
    }

    fn oldest(&self) -> Option<usize> {
        (0..self.frames.len()).min_by_key(|&i| self.frames[i].stamp)
    }

    fn oldest_stamp(&self) -> Option<u64> {
        self.oldest().map(|i| self.frames[i].stamp)
    }

    /// The three criteria, closest frame winning. Equally close frames
    /// go to the lower 2 m cell (row, then column), then to the earlier
    /// insert — the order the cache's buckets are walked in.
    fn best(&self, game: GameId, q: &CacheQuery) -> Option<usize> {
        let cell = |p: Vec2| ((p.z / 2.0).floor() as i32, (p.x / 2.0).floor() as i32);
        (0..self.frames.len())
            .filter(|&i| {
                let f = &self.frames[i];
                f.game == game
                    && f.meta.leaf == q.leaf
                    && f.meta.near_hash == q.near_hash
                    && f.meta.pos.distance(q.pos) <= q.dist_thresh.max(0.0)
            })
            .min_by(|&a, &b| {
                let key = |i: usize| {
                    let f = &self.frames[i];
                    (f.meta.pos.distance(q.pos), cell(f.meta.pos), f.seq)
                };
                key(a).partial_cmp(&key(b)).expect("finite distances")
            })
    }

    fn lookup(&mut self, game: GameId, q: &CacheQuery) -> bool {
        let ticket = self.ticket();
        let Some(i) = self.best(game, q) else {
            self.stats.misses += 1;
            return false;
        };
        let f = &mut self.frames[i];
        f.stamp = ticket + 1;
        self.stats.hits += 1;
        if f.speculative {
            self.stats.spec_hits += 1;
            if !f.used {
                self.stats.spec_used += 1;
            }
        }
        f.used = true;
        true
    }

    fn evict_oldest(&mut self) -> Option<u64> {
        let i = self.oldest()?;
        self.stats.evictions += 1;
        Some(self.frames.remove(i).size)
    }

    fn insert(
        &mut self,
        game: GameId,
        meta: FrameMeta,
        size: u64,
        speculative: Option<f64>,
    ) -> bool {
        let value = speculative.map_or(0.0, |score| score * render_cost_ms(size));
        if speculative.is_some()
            && self.admission == Admission::CostAware
            && self.bytes() + size > self.capacity
        {
            let victim = self.oldest().map(|i| self.frames[i].value);
            if victim.is_some_and(|v| v >= value) {
                self.stats.spec_rejected += 1;
                return false;
            }
        }
        let ticket = self.ticket();
        let probe = CacheQuery {
            grid: meta.grid,
            pos: meta.pos,
            leaf: meta.leaf,
            near_hash: meta.near_hash,
            dist_thresh: 0.0,
        };
        if let Some(i) = self.best(game, &probe) {
            if self.frames[i].size == size {
                self.stats.duplicates += 1;
                return false;
            }
            self.frames.remove(i);
            self.stats.replacements += 1;
        }
        self.frames.push(ModelFrame {
            game,
            meta,
            size,
            stamp: ticket + 1,
            seq: self.seq,
            speculative: speculative.is_some(),
            used: false,
            value,
        });
        self.seq += 1;
        self.stats.insertions += 1;
        if speculative.is_some() {
            self.stats.spec_rendered += 1;
        }
        while self.bytes() > self.capacity && self.evict_oldest().is_some() {}
        true
    }
}

/// What a step does with an [`Op`]'s operands.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Lookup,
    Insert,
    InsertSpeculative,
    EvictOldest,
}

/// Runs one step on both sides and checks that they answer alike and
/// agree on `stats()`, `bytes()` and `len()`, none of which reads the
/// stores' head indexes. A lookup's radius is `knob · reach`.
fn step(
    store: &LocalStore,
    model: &mut Model,
    kind: Kind,
    op: &Op,
    reach: f64,
) -> Result<(), TestCaseError> {
    let Op {
        game,
        meta,
        size,
        knob,
        ..
    } = *op;
    match kind {
        Kind::Lookup => {
            let q = CacheQuery {
                grid: meta.grid,
                pos: meta.pos,
                leaf: meta.leaf,
                near_hash: meta.near_hash,
                dist_thresh: knob * reach,
            };
            prop_assert_eq!(store.lookup(game, &q), model.lookup(game, &q), "lookup");
        }
        Kind::Insert => prop_assert_eq!(
            store.insert(game, meta, size),
            model.insert(game, meta, size, None),
            "insert"
        ),
        Kind::InsertSpeculative => {
            let score = knob * 4.0;
            prop_assert_eq!(
                store.insert_speculative(game, meta, size, score),
                model.insert(game, meta, size, Some(score)),
                "insert_speculative"
            );
        }
        Kind::EvictOldest => prop_assert_eq!(store.evict_oldest(), model.evict_oldest(), "evict"),
    }
    prop_assert_eq!(store.stats(), model.stats, "stats");
    prop_assert_eq!(store.bytes(), model.bytes(), "bytes");
    prop_assert_eq!(store.len(), model.frames.len(), "len");
    Ok(())
}

fn new_pair(capacity: u64, shards: usize, cost_aware: bool) -> (LocalStore, Model) {
    let admission = if cost_aware {
        Admission::CostAware
    } else {
        Admission::Lru
    };
    let store = LocalStore::new(StoreConfig {
        capacity_bytes: capacity,
        shards,
        admission,
    });
    let model = Model {
        frames: Vec::new(),
        clock: 0,
        seq: 0,
        capacity,
        admission,
        stats: StoreStats::default(),
    };
    (store, model)
}

/// Drain: the survivors leave in the same order, one each.
fn drain(store: &LocalStore, model: &mut Model) -> Result<(), TestCaseError> {
    while !model.frames.is_empty() {
        prop_assert_eq!(store.oldest_stamp(), model.oldest_stamp());
        prop_assert_eq!(store.evict_oldest(), model.evict_oldest());
    }
    prop_assert_eq!(store.evict_oldest(), None);
    prop_assert_eq!(store.oldest_stamp(), None);
    prop_assert_eq!((store.bytes(), store.len()), (0, 0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn local_store_matches_the_scan_model(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 500u64..5_000,
        shards in 1usize..6,
        cost_aware in proptest::bool::ANY,
    ) {
        let (store, mut model) = new_pair(capacity, shards, cost_aware);
        for (i, op) in ops.iter().enumerate() {
            let kind = match op.kind {
                0..=3 => Kind::Lookup,
                4..=6 => Kind::Insert,
                7..=9 => Kind::InsertSpeculative,
                _ => Kind::EvictOldest,
            };
            step(&store, &mut model, kind, op, 1.0)
                .map_err(|e| TestCaseError::fail(format!("step {i} {op:?}: {e}")))?;
            prop_assert_eq!(store.oldest_stamp(), model.oldest_stamp(), "step {i} oldest after {op:?}");
        }
        drain(&store, &mut model)?;
    }

    /// The store re-files the caches hits have moved only before it
    /// mutates a cache or reads its oldest entry. Reading that only
    /// every `k`-th step lets hits pile up stale caches in between, so
    /// a mutation or a read that skips the re-filing shows up in the
    /// eviction order.
    #[test]
    fn hits_between_sparse_reads_keep_the_eviction_order(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        every in 5usize..50,
        capacity in 500u64..5_000,
        shards in 1usize..6,
        cost_aware in proptest::bool::ANY,
    ) {
        let (store, mut model) = new_pair(capacity, shards, cost_aware);
        for (i, op) in ops.iter().enumerate() {
            let kind = match op.kind {
                0..=7 => Kind::Lookup,
                8 | 9 | 11 => Kind::Insert,
                _ => Kind::InsertSpeculative,
            };
            step(&store, &mut model, kind, op, 3.0)
                .map_err(|e| TestCaseError::fail(format!("step {i} {op:?}: {e}")))?;
            if i % every == every - 1 {
                prop_assert_eq!(store.oldest_stamp(), model.oldest_stamp(), "step {i}");
                prop_assert_eq!(store.evict_oldest(), model.evict_oldest(), "step {i}");
            }
        }
        drain(&store, &mut model)?;
    }
}

/// A counter value that is either small or close to `u64::MAX`, so
/// merges exercise the saturating path.
fn any_count() -> impl Strategy<Value = u64> {
    (proptest::bool::ANY, 0u64..1000).prop_map(|(big, v)| if big { u64::MAX - v } else { v })
}

fn any_stats() -> impl Strategy<Value = StoreStats> {
    proptest::collection::vec(any_count(), 10).prop_map(|c| StoreStats {
        hits: c[0],
        misses: c[1],
        insertions: c[2],
        duplicates: c[3],
        replacements: c[4],
        evictions: c[5],
        spec_rendered: c[6],
        spec_used: c[7],
        spec_hits: c[8],
        spec_rejected: c[9],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merged` is commutative and associative for arbitrary counter
    /// values, including near-`u64::MAX` operands that saturate: a
    /// fleet total cannot depend on the order its stores are folded.
    #[test]
    fn stats_merge_is_order_independent(
        a in any_stats(),
        b in any_stats(),
        c in any_stats(),
    ) {
        prop_assert_eq!(a.merged(b), b.merged(a));
        prop_assert_eq!(a.merged(b).merged(c), a.merged(b.merged(c)));
        // Identity: the default (all-zero) stats are a neutral element.
        prop_assert_eq!(a.merged(StoreStats::default()), a);
    }

    /// Every ratio helper stays finite and in `[0, 1]` for arbitrary
    /// counters — zero traffic yields 0, never NaN, and huge counters
    /// never overflow into infinity.
    #[test]
    fn ratio_helpers_are_nan_safe_and_bounded(a in any_stats(), b in any_stats()) {
        for s in [a, b, a.merged(b), StoreStats::default()] {
            for ratio in [s.hit_ratio(), s.spec_precision(), s.spec_recall()] {
                prop_assert!(ratio.is_finite(), "{ratio} from {s:?}");
                prop_assert!((0.0..=1.0).contains(&ratio), "{ratio} from {s:?}");
            }
        }
    }
}
