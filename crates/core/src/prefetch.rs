//! Far-BE frame prefetching (§5.2 of the paper).
//!
//! The prefetcher anticipates the far-BE frames the player will need
//! next. Because cached frames are reusable within `dist_thresh`, a
//! prefetched frame covers several upcoming grid points — Figure 10's
//! example: with the frame for point 0 cached, the client moving toward
//! point 2 merely needs the frame for point 4 (and its forward neighbors
//! 5, 6, 7) fetched any time before arriving at point 4. The enlarged
//! window lets clients start prefetching "right away after the first time
//! reusing a cached frame" instead of coordinating with TDMA.

use crate::cache::{CacheQuery, FrameCache};
use crate::cutoff::CutoffMap;
use coterie_world::{GridPoint, GridSpec, Scene, Vec2};

/// The set of grid points to have resident before the player reaches the
/// anchor point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// The anchor grid point (Figure 10's point 4): the reuse horizon of
    /// the currently cached frame along the movement direction.
    pub anchor: GridPoint,
    /// Grid points whose frames should be resident (anchor plus its
    /// forward neighbors), already filtered to the world lattice.
    pub targets: Vec<GridPoint>,
}

/// Computes prefetch plans from position, movement and cache state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prefetcher {
    /// How many `dist_thresh` radii ahead the anchor is placed. 1.0
    /// places it exactly at the reuse horizon.
    pub horizon_factor: f64,
}

impl Default for Prefetcher {
    fn default() -> Self {
        Prefetcher {
            horizon_factor: 1.0,
        }
    }
}

impl Prefetcher {
    /// Plans the next prefetch for a player at `pos` moving along `dir`
    /// (need not be normalized). The anchor is the grid point one reuse
    /// radius (`dist_thresh × horizon_factor`, at least one grid step)
    /// ahead; targets are the anchor and its three forward neighbors.
    pub fn plan(&self, grid: &GridSpec, pos: Vec2, dir: Vec2, dist_thresh: f64) -> PrefetchPlan {
        let step = grid.spacing();
        let ahead = (dist_thresh * self.horizon_factor).max(step);
        let dir = if dir.length() < 1e-12 {
            Vec2::new(0.0, 1.0)
        } else {
            dir.normalized()
        };
        let anchor_pos = pos + dir * ahead;
        let anchor = grid.snap(anchor_pos);
        // Forward neighbors: the three Moore neighbors of the anchor that
        // lie ahead of it along the movement direction (Figure 10's
        // points 5, 6, 7).
        let mut targets = vec![anchor];
        let mut forward: Vec<(f64, GridPoint)> = anchor
            .neighbors8()
            .into_iter()
            .filter(|n| grid.contains(*n))
            .map(|n| {
                let progress = (grid.position(n) - anchor_pos).dot(dir);
                (progress, n)
            })
            .filter(|(progress, _)| *progress > 0.0)
            .collect();
        forward.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite progress"));
        targets.extend(forward.into_iter().take(3).map(|(_, n)| n));
        PrefetchPlan { anchor, targets }
    }

    /// Filters a plan down to the targets the cache cannot already serve
    /// ("if all needed frames are found in the frame cache, the
    /// prefetching is skipped", §5.1 task 3).
    pub fn misses<T>(
        &self,
        plan: &PrefetchPlan,
        scene: &Scene,
        cutoffs: &CutoffMap,
        cache: &FrameCache<T>,
    ) -> Vec<GridPoint> {
        plan.targets
            .iter()
            .copied()
            .filter(|gp| {
                let pos = scene.grid().position(*gp);
                let (leaf, radius, dist_thresh) = cutoffs.lookup_params(pos);
                let query = CacheQuery {
                    grid: *gp,
                    pos,
                    leaf,
                    near_hash: scene.near_set_hash(pos, radius),
                    dist_thresh,
                };
                !cache.peek(&query)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheVersion, FrameMeta, FrameSource};
    use crate::cutoff::CutoffConfig;
    use coterie_device::DeviceProfile;
    use coterie_world::{GameId, GameSpec};

    fn grid() -> GridSpec {
        GridSpec::new(Vec2::ZERO, 0.5, 200, 200)
    }

    #[test]
    fn anchor_is_ahead_of_player() {
        let g = grid();
        let p = Prefetcher::default();
        let pos = Vec2::new(50.0, 50.0);
        let plan = p.plan(&g, pos, Vec2::new(0.0, 1.0), 3.0);
        let anchor_pos = g.position(plan.anchor);
        assert!(anchor_pos.z > pos.z, "anchor must lie ahead: {anchor_pos}");
        assert!((anchor_pos.z - pos.z - 3.0).abs() < 0.5);
    }

    #[test]
    fn targets_include_anchor_and_forward_neighbors() {
        let g = grid();
        let plan = Prefetcher::default().plan(&g, Vec2::new(50.0, 50.0), Vec2::new(0.0, 1.0), 2.0);
        assert_eq!(plan.targets[0], plan.anchor);
        assert_eq!(plan.targets.len(), 4, "anchor + 3 forward neighbors");
        for t in &plan.targets[1..] {
            assert_eq!(plan.anchor.hops(*t), 1);
            // Forward means larger z for +z movement.
            assert!(t.iz >= plan.anchor.iz);
        }
    }

    #[test]
    fn zero_direction_defaults_forward() {
        let g = grid();
        let plan = Prefetcher::default().plan(&g, Vec2::new(50.0, 50.0), Vec2::ZERO, 1.0);
        assert!(g.contains(plan.anchor));
    }

    #[test]
    fn anchor_clamped_at_world_edge() {
        let g = grid();
        let plan = Prefetcher::default().plan(&g, Vec2::new(50.0, 99.4), Vec2::new(0.0, 1.0), 10.0);
        assert!(g.contains(plan.anchor));
        for t in &plan.targets {
            assert!(g.contains(*t));
        }
    }

    #[test]
    fn small_dist_thresh_still_looks_one_step_ahead() {
        let g = grid();
        let pos = Vec2::new(50.0, 50.0);
        let plan = Prefetcher::default().plan(&g, pos, Vec2::new(1.0, 0.0), 0.01);
        assert_ne!(
            plan.anchor,
            g.snap(pos),
            "anchor must move at least one step"
        );
    }

    #[test]
    fn misses_reports_uncached_targets_only() {
        let spec = GameSpec::for_game(GameId::Pool);
        let scene = spec.build_scene(1);
        let cutoffs = CutoffMap::compute(
            &scene,
            &DeviceProfile::pixel2(),
            &CutoffConfig::for_spec(&spec),
            1,
        );
        let mut cache: FrameCache<()> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let prefetcher = Prefetcher::default();
        let pos = scene.bounds().center();
        let plan = prefetcher.plan(scene.grid(), pos, Vec2::new(0.0, 1.0), 0.5);
        // Nothing cached: everything misses.
        let misses = prefetcher.misses(&plan, &scene, &cutoffs, &cache);
        assert_eq!(misses.len(), plan.targets.len());
        // Cache the anchor's frame; it and close targets become resident.
        let anchor_pos = scene.grid().position(plan.anchor);
        let (leaf, radius, _) = cutoffs.lookup_params(anchor_pos);
        cache.insert(
            FrameMeta {
                grid: plan.anchor,
                pos: anchor_pos,
                leaf,
                near_hash: scene.near_set_hash(anchor_pos, radius),
            },
            FrameSource::SelfPrefetch,
            (),
            1,
            pos,
        );
        let misses_after = prefetcher.misses(&plan, &scene, &cutoffs, &cache);
        assert!(misses_after.len() < misses.len());
    }

    #[test]
    fn diagonal_direction_yields_diagonal_anchor() {
        let g = grid();
        let pos = Vec2::new(50.0, 50.0);
        let plan = Prefetcher::default().plan(&g, pos, Vec2::new(1.0, 1.0), 4.0);
        let a = g.position(plan.anchor);
        assert!(a.x > pos.x && a.z > pos.z);
    }
}
