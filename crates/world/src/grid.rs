//! Virtual-world discretization into grid points.
//!
//! Following Furion and Coterie (§2.2), the continuous virtual world is
//! discretized into a finite lattice of *grid points*; the server
//! pre-renders panoramic frames only at grid points, and the client snaps
//! the player position to the nearest grid point when requesting frames.

use crate::vec::Vec2;
use std::fmt;

/// Index of a grid point in the world lattice.
///
/// Grid points are identified by integer lattice coordinates `(ix, iz)`;
/// the [`GridSpec`] maps them to world-space positions.
///
/// ```
/// use coterie_world::{GridPoint, GridSpec, Vec2};
/// let spec = GridSpec::new(Vec2::ZERO, 0.5, 10, 10);
/// let gp = spec.snap(Vec2::new(1.2, 3.4));
/// assert_eq!(gp, GridPoint::new(2, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridPoint {
    /// Lattice index along x.
    pub ix: i32,
    /// Lattice index along z.
    pub iz: i32,
}

impl GridPoint {
    /// Creates a grid point from lattice indices.
    #[inline]
    pub const fn new(ix: i32, iz: i32) -> Self {
        GridPoint { ix, iz }
    }

    /// Chebyshev (grid-hop) distance to another grid point.
    #[inline]
    pub fn hops(self, other: GridPoint) -> u32 {
        let dx = (self.ix - other.ix).unsigned_abs();
        let dz = (self.iz - other.iz).unsigned_abs();
        dx.max(dz)
    }

    /// The 8 neighbouring lattice points (Moore neighbourhood).
    pub fn neighbors8(self) -> [GridPoint; 8] {
        [
            GridPoint::new(self.ix - 1, self.iz - 1),
            GridPoint::new(self.ix, self.iz - 1),
            GridPoint::new(self.ix + 1, self.iz - 1),
            GridPoint::new(self.ix - 1, self.iz),
            GridPoint::new(self.ix + 1, self.iz),
            GridPoint::new(self.ix - 1, self.iz + 1),
            GridPoint::new(self.ix, self.iz + 1),
            GridPoint::new(self.ix + 1, self.iz + 1),
        ]
    }

    /// A stable 64-bit key for use in hash maps and caches.
    #[inline]
    pub fn key(self) -> u64 {
        ((self.ix as u32 as u64) << 32) | (self.iz as u32 as u64)
    }
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g({}, {})", self.ix, self.iz)
    }
}

/// Lattice specification: origin, spacing and extent.
///
/// The paper's worlds use a very fine lattice — e.g. Viking Village packs
/// 24.9 million grid points into 187 m × 130 m, i.e. one point every
/// 1/32 m (Table 3). The spacing here is configurable per game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    origin: Vec2,
    spacing: f64,
    nx: u32,
    nz: u32,
}

impl GridSpec {
    /// Creates a lattice with `nx × nz` points starting at `origin` with
    /// the given spacing in meters.
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not strictly positive or a dimension is zero.
    pub fn new(origin: Vec2, spacing: f64, nx: u32, nz: u32) -> Self {
        assert!(spacing > 0.0, "grid spacing must be positive");
        assert!(
            nx > 0 && nz > 0,
            "grid must have at least one point per axis"
        );
        GridSpec {
            origin,
            spacing,
            nx,
            nz,
        }
    }

    /// Builds the lattice covering a world of `width × depth` meters with
    /// the given spacing, anchored at `origin`.
    pub fn covering(origin: Vec2, width: f64, depth: f64, spacing: f64) -> Self {
        let nx = (width / spacing).floor().max(1.0) as u32 + 1;
        let nz = (depth / spacing).floor().max(1.0) as u32 + 1;
        GridSpec::new(origin, spacing, nx, nz)
    }

    /// Lattice origin in world space.
    #[inline]
    pub fn origin(&self) -> Vec2 {
        self.origin
    }

    /// Spacing between adjacent grid points, in meters.
    #[inline]
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// Number of lattice points along x.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of lattice points along z.
    #[inline]
    pub fn nz(&self) -> u32 {
        self.nz
    }

    /// Total number of grid points in the lattice.
    #[inline]
    pub fn point_count(&self) -> u64 {
        self.nx as u64 * self.nz as u64
    }

    /// World-space position of a grid point (on the ground plane).
    #[inline]
    pub fn position(&self, gp: GridPoint) -> Vec2 {
        Vec2::new(
            self.origin.x + gp.ix as f64 * self.spacing,
            self.origin.z + gp.iz as f64 * self.spacing,
        )
    }

    /// Snaps a world-space position to the nearest grid point, clamped to
    /// the lattice extent.
    pub fn snap(&self, p: Vec2) -> GridPoint {
        let fx = (p.x - self.origin.x) / self.spacing;
        let fz = (p.z - self.origin.z) / self.spacing;
        let ix = fx.round().clamp(0.0, (self.nx - 1) as f64) as i32;
        let iz = fz.round().clamp(0.0, (self.nz - 1) as f64) as i32;
        GridPoint::new(ix, iz)
    }

    /// Whether a grid point lies inside the lattice extent.
    #[inline]
    pub fn contains(&self, gp: GridPoint) -> bool {
        gp.ix >= 0 && gp.iz >= 0 && (gp.ix as u32) < self.nx && (gp.iz as u32) < self.nz
    }

    /// Euclidean world-space distance between two grid points.
    #[inline]
    pub fn distance(&self, a: GridPoint, b: GridPoint) -> f64 {
        self.position(a).distance(self.position(b))
    }
}

impl fmt::Display for GridSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid {}x{} @ {:.4} m from {}",
            self.nx, self.nz, self.spacing, self.origin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_rounds_to_nearest() {
        let spec = GridSpec::new(Vec2::ZERO, 1.0, 100, 100);
        assert_eq!(spec.snap(Vec2::new(0.4, 0.6)), GridPoint::new(0, 1));
        assert_eq!(spec.snap(Vec2::new(2.5, 2.49)), GridPoint::new(3, 2));
    }

    #[test]
    fn snap_clamps_to_extent() {
        let spec = GridSpec::new(Vec2::ZERO, 1.0, 10, 10);
        assert_eq!(spec.snap(Vec2::new(-5.0, 100.0)), GridPoint::new(0, 9));
    }

    #[test]
    fn position_roundtrip() {
        let spec = GridSpec::new(Vec2::new(-3.0, 2.0), 0.25, 40, 40);
        let gp = GridPoint::new(7, 13);
        assert_eq!(spec.snap(spec.position(gp)), gp);
    }

    #[test]
    fn covering_matches_paper_scale() {
        // Viking Village: 187 x 130 m at 1/32 m spacing -> about 24.9 M points.
        let spec = GridSpec::covering(Vec2::ZERO, 187.0, 130.0, 1.0 / 32.0);
        let count = spec.point_count();
        assert!(
            (24_000_000..26_000_000).contains(&count),
            "unexpected point count {count}"
        );
    }

    #[test]
    fn neighbors8_are_adjacent() {
        let gp = GridPoint::new(5, 5);
        for n in gp.neighbors8() {
            assert_eq!(gp.hops(n), 1);
            assert_ne!(n, gp);
        }
    }

    #[test]
    fn hops_is_chebyshev_distance() {
        let a = GridPoint::new(0, 0);
        let b = GridPoint::new(3, -4);
        assert_eq!(a.hops(b), 4);
    }

    #[test]
    fn contains_checks_bounds() {
        let spec = GridSpec::new(Vec2::ZERO, 1.0, 4, 4);
        assert!(spec.contains(GridPoint::new(0, 0)));
        assert!(spec.contains(GridPoint::new(3, 3)));
        assert!(!spec.contains(GridPoint::new(4, 0)));
        assert!(!spec.contains(GridPoint::new(-1, 2)));
    }

    #[test]
    fn key_is_injective_for_distinct_points() {
        let a = GridPoint::new(1, 2).key();
        let b = GridPoint::new(2, 1).key();
        assert_ne!(a, b);
        let c = GridPoint::new(-1, 0).key();
        let d = GridPoint::new(0, -1).key();
        assert_ne!(c, d);
    }

    #[test]
    fn grid_distance_is_euclidean() {
        let spec = GridSpec::new(Vec2::ZERO, 0.5, 100, 100);
        let d = spec.distance(GridPoint::new(0, 0), GridPoint::new(3, 4));
        assert!((d - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn zero_spacing_rejected() {
        let _ = GridSpec::new(Vec2::ZERO, 0.0, 1, 1);
    }
}
