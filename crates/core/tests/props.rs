//! Property-based tests for the frame cache's invariants.

use coterie_core::{
    CacheConfig, CacheQuery, CacheVersion, EvictionPolicy, FrameCache, FrameMeta, FrameSource,
};
use coterie_world::{GridPoint, LeafId, Vec2};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Op {
    ix: i32,
    iz: i32,
    leaf: u32,
    near_hash: u64,
    size: u64,
    lookup: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        -40i32..40,
        -40i32..40,
        0u32..4,
        0u64..3,
        1u64..500,
        proptest::bool::ANY,
    )
        .prop_map(|(ix, iz, leaf, near_hash, size, lookup)| Op {
            ix,
            iz,
            leaf,
            near_hash,
            size,
            lookup,
        })
}

fn meta_of(op: &Op) -> FrameMeta {
    FrameMeta {
        grid: GridPoint::new(op.ix, op.iz),
        pos: Vec2::new(op.ix as f64 * 0.25, op.iz as f64 * 0.25),
        leaf: LeafId(op.leaf),
        near_hash: op.near_hash,
    }
}

fn query_of(op: &Op, dist_thresh: f64) -> CacheQuery {
    let m = meta_of(op);
    CacheQuery {
        grid: m.grid,
        pos: m.pos,
        leaf: m.leaf,
        near_hash: m.near_hash,
        dist_thresh,
    }
}

/// A coordinate on a 2 m bucket edge or one ulp either side of it.
fn edge_coord() -> impl Strategy<Value = f64> {
    (-2i32..=2, 0usize..3).prop_map(|(k, side)| {
        let edge = 2.0 * k as f64;
        [edge.next_down(), edge, edge.next_up()][side]
    })
}

fn edge_pos() -> impl Strategy<Value = Vec2> {
    (edge_coord(), edge_coord()).prop_map(|(x, z)| Vec2::new(x, z))
}

/// A coordinate 1 cm either side of a 2 m bucket edge; both sides snap
/// to the edge's 1/32 m grid point.
fn straddling_coord() -> impl Strategy<Value = f64> {
    (-2i32..=2, proptest::bool::ANY)
        .prop_map(|(k, right)| 2.0 * k as f64 + if right { 0.01 } else { -0.01 })
}

fn straddling_pos() -> impl Strategy<Value = Vec2> {
    (straddling_coord(), straddling_coord()).prop_map(|(x, z)| Vec2::new(x, z))
}

/// The 1/32 m grid point a position snaps to.
fn grid_of(p: Vec2) -> GridPoint {
    GridPoint::new((p.x * 32.0).round() as i32, (p.z * 32.0).round() as i32)
}

const THRESHOLDS: [f64; 7] = [0.0, 0.0234, 0.6, 1.999, 2.0, 2.001, 7.5];

/// The first of `candidates` in the order a lookup prefers them: closest
/// to `query`, ties to the first in the walk over 2 m buckets by row,
/// then column, then insertion.
fn first_in_walk_order(
    positions: &[Vec2],
    query: Vec2,
    candidates: impl Iterator<Item = usize>,
) -> Option<usize> {
    let walk_key = |i: usize| {
        let p = positions[i];
        let bucket = ((p.z / 2.0).floor() as i32, (p.x / 2.0).floor() as i32);
        (p.distance(query), bucket, i)
    };
    candidates.min_by(|&a, &b| {
        walk_key(a)
            .partial_cmp(&walk_key(b))
            .expect("finite distances")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fails if the lookup skips a bucket the query disc reaches (a
    /// bucket range one short), or breaks a tie in another order than
    /// the walk over 2 m buckets by row, then column, then insertion.
    #[test]
    fn lookup_picks_the_frame_a_scan_in_walk_order_picks(
        entries in proptest::collection::vec((edge_pos(), 0u64..2), 1..40),
        queries in proptest::collection::vec((edge_pos(), 0u64..2, 0usize..7), 1..20),
    ) {
        let mut cache: FrameCache<usize> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        for (i, &(pos, near_hash)) in entries.iter().enumerate() {
            let meta = FrameMeta { grid: GridPoint::new(i as i32, 0), pos, leaf: LeafId(0), near_hash };
            cache.insert(meta, FrameSource::SelfPrefetch, i, 1, pos);
        }
        let positions: Vec<Vec2> = entries.iter().map(|&(pos, _)| pos).collect();
        for &(pos, near_hash, t) in &queries {
            let q = CacheQuery {
                grid: GridPoint::new(-1, 0),
                pos,
                leaf: LeafId(0),
                near_hash,
                dist_thresh: THRESHOLDS[t],
            };
            let scan = first_in_walk_order(&positions, pos, (0..entries.len())
                .filter(|&i| entries[i].1 == near_hash && entries[i].0.distance(pos) <= q.dist_thresh));
            prop_assert_eq!(cache.peek(&q), scan.is_some());
            prop_assert_eq!(cache.lookup(&q).copied(), scan, "query {:?}", q);
        }
    }

    /// Fails if an exact lookup misses a frame filed at its grid point
    /// from the other side of a bucket edge, at any threshold, or breaks
    /// a tie in another order than the walk.
    #[test]
    fn exact_lookup_finds_its_grid_point_across_bucket_edges(
        positions in proptest::collection::vec(straddling_pos(), 1..30),
        queries in proptest::collection::vec((straddling_pos(), 0usize..7), 1..20),
    ) {
        let mut cache: FrameCache<usize> = FrameCache::new(CacheConfig::infinite(CacheVersion::V1));
        for (i, &pos) in positions.iter().enumerate() {
            let meta = FrameMeta { grid: grid_of(pos), pos, leaf: LeafId(0), near_hash: 0 };
            cache.insert(meta, FrameSource::SelfPrefetch, i, 1, pos);
        }
        for &(pos, t) in &queries {
            let q = CacheQuery {
                grid: grid_of(pos),
                pos,
                leaf: LeafId(0),
                near_hash: 0,
                dist_thresh: THRESHOLDS[t],
            };
            let scan = first_in_walk_order(&positions, pos, (0..positions.len())
                .filter(|&i| grid_of(positions[i]) == q.grid));
            prop_assert_eq!(cache.lookup(&q).copied(), scan, "query {:?}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bytes_accounting_is_exact(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 1_000u64..20_000,
        policy_flip in proptest::bool::ANY,
    ) {
        let policy = if policy_flip { EvictionPolicy::Lru } else { EvictionPolicy::Flf };
        let mut cache: FrameCache<u64> = FrameCache::new(CacheConfig {
            capacity_bytes: capacity,
            policy,
            version: CacheVersion::V3,
        });
        let mut inserted = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if op.lookup {
                let _ = cache.lookup(&query_of(op, 1.0));
            } else {
                cache.insert(meta_of(op), FrameSource::SelfPrefetch, i as u64, op.size, Vec2::ZERO);
                inserted += 1;
            }
            // Invariants after every operation.
            prop_assert!(cache.bytes() <= capacity.max(op.size),
                "cache bytes {} exceed capacity {capacity}", cache.bytes());
            prop_assert!(cache.len() as u64 <= inserted);
        }
        let stats = cache.stats();
        let lookups = ops.iter().filter(|o| o.lookup).count() as u64;
        prop_assert_eq!(stats.hits + stats.misses, lookups);
    }

    #[test]
    fn lookup_hit_implies_all_criteria(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        probe in op_strategy(),
        dist_thresh in 0.0f64..5.0,
    ) {
        let mut cache: FrameCache<usize> =
            FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let mut entries = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            cache.insert(meta_of(op), FrameSource::SelfPrefetch, i, 1, Vec2::ZERO);
            entries.push(meta_of(op));
        }
        let q = query_of(&probe, dist_thresh);
        if let Some(&idx) = cache.lookup(&q) {
            let hit = &entries[idx];
            prop_assert_eq!(hit.leaf, q.leaf, "criterion 2 violated");
            prop_assert_eq!(hit.near_hash, q.near_hash, "criterion 3 violated");
            prop_assert!(hit.pos.distance(q.pos) <= dist_thresh + 1e-9,
                "criterion 1 violated: {} > {dist_thresh}", hit.pos.distance(q.pos));
            // And it is the *closest* qualifying entry.
            for e in &entries {
                if e.leaf == q.leaf && e.near_hash == q.near_hash
                    && e.pos.distance(q.pos) <= dist_thresh {
                    prop_assert!(hit.pos.distance(q.pos) <= e.pos.distance(q.pos) + 1e-9);
                }
            }
        } else {
            // A miss means no entry qualifies.
            for e in &entries {
                let qualifies = e.leaf == q.leaf
                    && e.near_hash == q.near_hash
                    && e.pos.distance(q.pos) <= dist_thresh - 1e-9;
                prop_assert!(!qualifies, "missed a qualifying entry at {}", e.pos);
            }
        }
    }

    #[test]
    fn exact_version_only_hits_same_grid_point(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        probe in op_strategy(),
    ) {
        let mut cache: FrameCache<usize> =
            FrameCache::new(CacheConfig::infinite(CacheVersion::V1));
        let mut grids = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            cache.insert(meta_of(op), FrameSource::SelfPrefetch, i, 1, Vec2::ZERO);
            grids.push(meta_of(op).grid);
        }
        let q = query_of(&probe, 100.0);
        let hit = cache.lookup(&q).is_some();
        let exists = grids.contains(&q.grid);
        prop_assert_eq!(hit, exists);
    }

    #[test]
    fn eviction_never_loses_accounting(
        sizes in proptest::collection::vec(1u64..2_000, 1..80),
    ) {
        let mut cache: FrameCache<()> = FrameCache::new(CacheConfig {
            capacity_bytes: 4_000,
            policy: EvictionPolicy::Lru,
            version: CacheVersion::V3,
        });
        for (i, &size) in sizes.iter().enumerate() {
            let op = Op { ix: i as i32, iz: 0, leaf: 0, near_hash: 0, size, lookup: false };
            cache.insert(meta_of(&op), FrameSource::SelfPrefetch, (), size, Vec2::ZERO);
        }
        // Bytes never exceed capacity by more than one oversized entry.
        prop_assert!(cache.bytes() <= 4_000 + 2_000);
        let evicted = cache.stats().evictions as usize;
        prop_assert_eq!(cache.len() + evicted, sizes.len());
    }
}
