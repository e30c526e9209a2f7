//! Offline pre-rendering pipeline and storage accounting.
//!
//! The Coterie server "pre-renders and pre-encodes ... panoramic far BE
//! frames for all the grid points the player can reach" (§5.1). This
//! module implements that batch pipeline (parallelized across cores with
//! crossbeam) and exposes the storage arithmetic it implies — which is
//! itself an interesting reproduction observation: at the paper's
//! full lattice density the frame store would be petabytes, so a real
//! deployment necessarily renders at reuse granularity (one frame per
//! `dist_thresh` disc), which the accounting below also reports.

use crate::server::RenderServer;
use coterie_core::CutoffMap;
use coterie_parallel::par_map;
use coterie_world::{GridPoint, Scene, Vec2};
use serde::{Deserialize, Serialize};

/// One pre-rendered cell: the grid point, its position, and the encoded
/// frame's size (payload bytes at 4K equivalence).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrerenderedCell {
    /// Anchor grid point of the cell.
    pub grid: GridPoint,
    /// World position.
    pub pos: (f64, f64),
    /// 4K-equivalent encoded size, bytes.
    pub bytes: u64,
}

/// Result of pre-rendering a region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrerenderBatch {
    /// Every rendered cell.
    pub cells: Vec<PrerenderedCell>,
    /// Sum of all encoded sizes, bytes.
    pub total_bytes: u64,
}

/// Storage estimate for serving a whole game (Table-3-scale lattices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageEstimate {
    /// Frames if every lattice point were materialized.
    pub full_lattice_frames: u64,
    /// Bytes if every lattice point were materialized.
    pub full_lattice_bytes: u64,
    /// Frames at reuse granularity (one per `dist_thresh` disc).
    pub reuse_granularity_frames: u64,
    /// Bytes at reuse granularity.
    pub reuse_granularity_bytes: u64,
}

/// Pre-renders the far-BE frames of a rectangular patch at reuse
/// granularity: one frame per `dist_thresh` step, which is the coarsest
/// spacing the frame cache can fully exploit.
pub fn prerender_patch(
    server: &RenderServer<'_>,
    cutoffs: &CutoffMap,
    center: Vec2,
    extent_m: f64,
) -> PrerenderBatch {
    let scene = server.scene();
    let (_, _, dist_thresh) = cutoffs.lookup_params(center);
    let step = dist_thresh.max(scene.grid().spacing());
    let n = ((extent_m / step).ceil() as i32).max(1);
    let mut targets = Vec::new();
    for iz in -n..=n {
        for ix in -n..=n {
            let p = Vec2::new(center.x + ix as f64 * step, center.z + iz as f64 * step);
            if scene.bounds().contains(p) {
                targets.push(p);
            }
        }
    }
    let cells = par_map(&targets, |&p| {
        let (_, radius, _) = cutoffs.lookup_params(p);
        let frame = server.far_be(p, radius);
        PrerenderedCell {
            grid: scene.grid().snap(p),
            pos: (p.x, p.z),
            bytes: frame.transfer_bytes,
        }
    });
    let total_bytes = cells.iter().map(|c| c.bytes).sum();
    PrerenderBatch { cells, total_bytes }
}

/// Storage arithmetic for one game: full-lattice materialization vs
/// reuse-granularity materialization, using a mean frame size measured
/// from a small sample.
pub fn storage_estimate(
    scene: &Scene,
    cutoffs: &CutoffMap,
    mean_frame_bytes: u64,
) -> StorageEstimate {
    let full = scene.reachable_grid_points();
    // Reuse granularity: one frame covers a disc of radius dist_thresh;
    // integrate disc areas over the leaf regions.
    let mut reuse_frames = 0.0f64;
    for (_, rect, cutoff) in cutoffs.leaves() {
        let thresh = cutoff
            .dist_thresh_m
            .unwrap_or_else(|| cutoffs.default_dist_thresh(cutoff.radius_m));
        let per_frame_area = std::f64::consts::PI * thresh * thresh;
        reuse_frames += (rect.area() / per_frame_area).max(1.0);
    }
    let reuse_frames = reuse_frames.round() as u64;
    StorageEstimate {
        full_lattice_frames: full,
        full_lattice_bytes: full.saturating_mul(mean_frame_bytes),
        reuse_granularity_frames: reuse_frames,
        reuse_granularity_bytes: reuse_frames.saturating_mul(mean_frame_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_core::cutoff::CutoffConfig;
    use coterie_device::DeviceProfile;
    use coterie_render::{RenderOptions, Renderer};
    use coterie_world::{GameId, GameSpec};

    #[test]
    fn patch_prerender_covers_and_sums() {
        let spec = GameSpec::for_game(GameId::Bowling);
        let scene = spec.build_scene(3);
        let cutoffs = CutoffMap::compute(
            &scene,
            &DeviceProfile::pixel2(),
            &CutoffConfig::for_spec(&spec),
            3,
        );
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let batch = prerender_patch(&server, &cutoffs, scene.bounds().center(), 1.0);
        assert!(!batch.cells.is_empty());
        let sum: u64 = batch.cells.iter().map(|c| c.bytes).sum();
        assert_eq!(sum, batch.total_bytes);
        for c in &batch.cells {
            assert!(c.bytes > 1000, "implausibly small frame: {}", c.bytes);
            assert!(scene.bounds().contains(Vec2::new(c.pos.0, c.pos.1)));
        }
    }

    #[test]
    fn full_lattice_storage_is_infeasible_but_reuse_is_not() {
        // The observation: materializing every Viking grid point at
        // ~250 KB would need petabytes; one frame per reuse disc is
        // gigabytes — deployable.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(3);
        let cutoffs = CutoffMap::compute(
            &scene,
            &DeviceProfile::pixel2(),
            &CutoffConfig::for_spec(&spec),
            3,
        );
        let est = storage_estimate(&scene, &cutoffs, 250_000);
        assert!(
            est.full_lattice_bytes > 1_000_000_000_000,
            "full lattice should be TB-scale+: {}",
            est.full_lattice_bytes
        );
        assert!(
            est.reuse_granularity_frames < est.full_lattice_frames / 10,
            "reuse granularity must shrink the store"
        );
        assert!(
            est.reuse_granularity_bytes < 1_000_000_000_000,
            "reuse-granularity store should be sub-TB: {}",
            est.reuse_granularity_bytes
        );
    }
}
