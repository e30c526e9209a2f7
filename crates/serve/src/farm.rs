//! The batching pre-render farm.
//!
//! Every store miss means the fleet's render server had to produce a
//! far-BE panorama on demand. The farm turns each such miss into
//! *speculative* work as well: it pre-renders frames at neighbouring
//! positions inside the same leaf region, so the next room to walk
//! through that area hits the store instead of stalling a GPU. Jobs
//! accumulate during an epoch and drain in one serial pass, ranked by
//! predicted reuse.
//!
//! Rendering here is simulated: jobs produce a deterministic cost in
//! GPU-milliseconds (a function of encoded size), which the fleet
//! aggregates into the pre-render GPU-hours metric the shared-store
//! comparison reports.

use crate::store::FrameStore;
use coterie_core::FrameMeta;
use coterie_world::{GameId, GridPoint, Vec2};

/// Fixed per-panorama server render overhead, GPU-ms (scheduling,
/// state changes). The size-dependent part comes on top.
pub const PRERENDER_BASE_MS: f64 = 2.0;

/// GPU-ms per encoded megabyte of panorama — larger frames cover more
/// geometry and cost proportionally more to render and encode.
pub const PRERENDER_MS_PER_MB: f64 = 9.0;

/// Simulated GPU cost of rendering one far-BE panorama of `bytes`
/// encoded size, ms.
pub fn render_cost_ms(bytes: u64) -> f64 {
    PRERENDER_BASE_MS + PRERENDER_MS_PER_MB * bytes as f64 / 1_000_000.0
}

/// One speculative render job: a frame the farm should have ready in
/// the store, with which store to backfill (isolated fleets run one
/// store per room).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrerenderJob {
    /// Index of the target store in the fleet's store list.
    pub store: usize,
    /// Game the frame belongs to.
    pub game: GameId,
    /// Frame identity (grid point, position, leaf, near set).
    pub meta: FrameMeta,
    /// Encoded size the frame would have, bytes.
    pub bytes: u64,
    /// Predicted-reuse priority: the pose predictor's estimated leaf-
    /// region occupancy over the speculation window. Blind neighbour
    /// speculation scores 0, so a predictor-driven queue renders its
    /// predicted frames first and an all-blind queue keeps its
    /// historical FIFO order exactly (the sort is stable).
    pub score: f64,
}

/// Batching pre-render farm. Jobs accumulate during an epoch and are
/// rendered in one sweep at the epoch boundary.
#[derive(Debug, Default)]
pub struct PrerenderFarm {
    jobs: Vec<PrerenderJob>,
    gpu_ms: f64,
    rendered: u64,
}

impl PrerenderFarm {
    /// An empty farm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues the speculative neighbours of a missed frame: two
    /// positions straddling the miss along x at half the leaf's
    /// `dist_thresh`, so each covers queries the original frame's match
    /// radius does not. Frames are rendered under the requesting
    /// client's near set (the only set a lookup with that near hash can
    /// ever ask for). A zero `dist_thresh` (exact-match traffic) makes
    /// speculation pointless and queues nothing.
    pub fn enqueue_neighbors(
        &mut self,
        store: usize,
        game: GameId,
        meta: FrameMeta,
        bytes: u64,
        dist_thresh: f64,
    ) {
        if dist_thresh <= 0.0 {
            return;
        }
        let step = dist_thresh * 0.5;
        for (dx, dgrid) in [(-step, -1), (step, 1)] {
            self.jobs.push(PrerenderJob {
                store,
                game,
                meta: FrameMeta {
                    grid: GridPoint::new(meta.grid.ix + dgrid, meta.grid.iz),
                    pos: Vec2::new(meta.pos.x + dx, meta.pos.z),
                    leaf: meta.leaf,
                    near_hash: meta.near_hash,
                },
                bytes,
                score: 0.0,
            });
        }
    }

    /// Queues one pose-predicted frame: a position a predictor expects
    /// a player to occupy within the speculation window, ranked by
    /// `score` (predicted leaf-region occupancy). Predicted frames are
    /// rendered before blind neighbours when the epoch batch drains,
    /// and duplicate positions keep the highest-scored copy.
    pub fn enqueue_predicted(
        &mut self,
        store: usize,
        game: GameId,
        meta: FrameMeta,
        bytes: u64,
        score: f64,
    ) {
        self.jobs.push(PrerenderJob {
            store,
            game,
            meta,
            bytes,
            score,
        });
    }

    /// Jobs currently queued.
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Total simulated render time spent so far, GPU-ms.
    pub fn gpu_ms(&self) -> f64 {
        self.gpu_ms
    }

    /// Frames actually rendered (deduplicated jobs only).
    pub fn rendered(&self) -> u64 {
        self.rendered
    }

    /// Renders the queued batch and backfills the stores.
    ///
    /// Duplicate jobs (same store, game, leaf and grid point) are
    /// dropped before rendering — concurrent rooms walking the same
    /// area request the same neighbours. Store insertion happens
    /// serially in job order, so a fleet that queues jobs in room-id
    /// order gets identical store contents on every run.
    pub fn drain_into(&mut self, stores: &[&dyn FrameStore]) {
        if self.jobs.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.jobs);
        // Highest predicted occupancy first. The sort is stable and
        // blind jobs all score 0, so a predictor-less batch keeps its
        // arrival order bit-for-bit — byte identity for
        // `--predictor none` rides on this.
        batch.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut seen = std::collections::HashSet::new();
        batch.retain(|j| {
            seen.insert((
                j.store,
                j.game,
                j.meta.leaf.0,
                j.meta.grid.ix,
                j.meta.grid.iz,
            ))
        });
        for job in &batch {
            // The store skips frames already covered (e.g. the mirror
            // neighbour of an adjacent miss): those cost nothing — the
            // server checks the store before rendering.
            if stores[job.store].insert_speculative(job.game, job.meta, job.bytes, job.score) {
                // "Rendering" is the cost model's multiply-add.
                self.gpu_ms += render_cost_ms(job.bytes);
                self.rendered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LocalStore, StoreConfig};
    use coterie_core::CacheQuery;
    use coterie_world::LeafId;

    fn miss_meta() -> FrameMeta {
        FrameMeta {
            grid: GridPoint::new(100, 50),
            pos: Vec2::new(10.0, 5.0),
            leaf: LeafId(2),
            near_hash: 77,
        }
    }

    #[test]
    fn backfill_makes_neighbors_hit() {
        let store = LocalStore::new(StoreConfig::default());
        let mut farm = PrerenderFarm::new();
        farm.enqueue_neighbors(0, GameId::VikingVillage, miss_meta(), 400_000, 0.4);
        assert_eq!(farm.pending(), 2);
        farm.drain_into(&[&store]);
        assert_eq!(farm.pending(), 0);
        assert_eq!(farm.rendered(), 2);
        assert!(farm.gpu_ms() > 0.0);
        // A query 0.2 m to the side of the miss now hits.
        let q = CacheQuery {
            grid: GridPoint::new(102, 50),
            pos: Vec2::new(10.2, 5.0),
            leaf: LeafId(2),
            near_hash: 77,
            dist_thresh: 0.1,
        };
        assert!(store.lookup(GameId::VikingVillage, &q));
    }

    #[test]
    fn duplicate_jobs_render_once() {
        let store = LocalStore::new(StoreConfig::default());
        let mut farm = PrerenderFarm::new();
        for _ in 0..5 {
            farm.enqueue_neighbors(0, GameId::VikingVillage, miss_meta(), 400_000, 0.4);
        }
        assert_eq!(farm.pending(), 10);
        farm.drain_into(&[&store]);
        assert_eq!(farm.rendered(), 2, "same neighbours must render once");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn predicted_jobs_outrank_blind_duplicates() {
        // A blind neighbour and a predicted job land on the same grid
        // point; the predicted (higher-scored) copy must win the dedup
        // even though it was queued later.
        let store = LocalStore::new(StoreConfig::default());
        let mut farm = PrerenderFarm::new();
        farm.enqueue_neighbors(0, GameId::VikingVillage, miss_meta(), 400_000, 0.4);
        let neighbor = FrameMeta {
            grid: GridPoint::new(101, 50),
            pos: Vec2::new(10.2, 5.0),
            leaf: LeafId(2),
            near_hash: 77,
        };
        farm.enqueue_predicted(0, GameId::VikingVillage, neighbor, 900_000, 2.5);
        farm.drain_into(&[&store]);
        assert_eq!(farm.rendered(), 2);
        // 900 kB predicted frame + 400 kB far neighbour; had the blind
        // 400 kB duplicate won, the total would be 800 kB.
        assert_eq!(store.bytes(), 1_300_000);
        assert_eq!(store.stats().spec_rendered, 2);
    }

    #[test]
    fn exact_match_traffic_is_not_speculated() {
        let mut farm = PrerenderFarm::new();
        farm.enqueue_neighbors(0, GameId::Fps, miss_meta(), 400_000, 0.0);
        assert_eq!(farm.pending(), 0);
    }

    #[test]
    fn cost_model_grows_with_size() {
        assert!(render_cost_ms(2_000_000) > render_cost_ms(100_000));
        assert!(
            (render_cost_ms(1_000_000) - (PRERENDER_BASE_MS + PRERENDER_MS_PER_MB)).abs() < 1e-12
        );
    }
}
