//! Scene: terrain + placed objects + movement constraints + grid.
//!
//! A [`Scene`] is the renderer's and cutoff solver's view of one game's
//! virtual world. It offers the two queries the Coterie algorithms are
//! built on:
//!
//! * *object-density queries* — triangles within a radius of a viewpoint
//!   (Constraint 1 of the cutoff scheme), and
//! * *near-set queries* — the identity of objects within the cutoff radius
//!   (criterion 3 of the cache lookup algorithm, §5.3).

use crate::grid::GridSpec;
use crate::noise::hash64;
use crate::object::{ObjectId, SceneObject};
use crate::quadtree::Rect;
use crate::terrain::Terrain;
use crate::vec::{Vec2, Vec3};

/// Which part of the world players can actually reach.
///
/// Outdoor roaming games allow the full rectangle; racing games restrict
/// movement to the track, which is why the paper's Racing Mountain and DS
/// have far fewer grid points than their world area would suggest
/// (Table 3: ~6.5 points/m² instead of 1024/m²).
#[derive(Debug, Clone, PartialEq)]
pub enum ReachableArea {
    /// The whole world rectangle is walkable.
    All,
    /// Only a corridor around a closed-loop track centerline is reachable.
    Track {
        /// Closed polyline of the track centerline.
        centerline: Vec<Vec2>,
        /// Half-width of the drivable corridor in meters.
        half_width: f64,
    },
}

impl ReachableArea {
    /// Whether a ground position is reachable by players.
    pub fn contains(&self, bounds: &Rect, p: Vec2) -> bool {
        if !bounds.contains(p) {
            return false;
        }
        match self {
            ReachableArea::All => true,
            ReachableArea::Track {
                centerline,
                half_width,
            } => distance_to_polyline(centerline, p) <= *half_width,
        }
    }

    /// Approximate fraction of the world rectangle that is reachable.
    ///
    /// Racing games constrain *normal* movement to the track corridor,
    /// but cars can run wide, so the server pre-renders the full lattice
    /// — which is why the paper's Racing Mountain and DS count millions
    /// of grid points at a coarse 0.39 m spacing over their whole worlds
    /// (Table 3). Reachability for *movement* is still the corridor
    /// (see [`ReachableArea::contains`]).
    pub fn area_fraction(&self, _bounds: &Rect) -> f64 {
        match self {
            ReachableArea::All => 1.0,
            ReachableArea::Track { .. } => 1.0,
        }
    }
}

/// Distance from a point to a closed polyline.
fn distance_to_polyline(poly: &[Vec2], p: Vec2) -> f64 {
    if poly.is_empty() {
        return f64::INFINITY;
    }
    if poly.len() == 1 {
        return poly[0].distance(p);
    }
    let mut best = f64::INFINITY;
    let n = poly.len();
    for i in 0..n {
        let a = poly[i];
        let b = poly[(i + 1) % n];
        best = best.min(distance_to_segment(a, b, p));
    }
    best
}

fn distance_to_segment(a: Vec2, b: Vec2, p: Vec2) -> f64 {
    let ab = b - a;
    let len_sq = ab.length_sq();
    if len_sq <= f64::EPSILON {
        return a.distance(p);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    (a + ab * t).distance(p)
}

/// A game's virtual world: bounds, terrain, objects, reachability, grid.
#[derive(Debug, Clone)]
pub struct Scene {
    bounds: Rect,
    terrain: Terrain,
    objects: Vec<SceneObject>,
    reachable: ReachableArea,
    grid: GridSpec,
    eye_height: f64,
    /// Uniform spatial hash for radius queries.
    index: SpatialIndex,
}

impl Scene {
    /// Eye height used when the paper adjusts the camera to the player's
    /// foothold (§6). Matches a standing player.
    pub const DEFAULT_EYE_HEIGHT: f64 = 1.7;

    /// Assembles a scene and builds its spatial index.
    ///
    /// # Panics
    ///
    /// Panics if any object lies outside `bounds` by more than its radius,
    /// which would indicate a broken generator.
    pub fn new(
        bounds: Rect,
        terrain: Terrain,
        objects: Vec<SceneObject>,
        reachable: ReachableArea,
        grid: GridSpec,
    ) -> Self {
        for o in &objects {
            let p = o.position.ground();
            assert!(
                p.x >= bounds.min.x - o.radius
                    && p.x <= bounds.max.x + o.radius
                    && p.z >= bounds.min.z - o.radius
                    && p.z <= bounds.max.z + o.radius,
                "object {} at {} escapes world bounds {}",
                o.id,
                p,
                bounds
            );
        }
        let index = SpatialIndex::build(&bounds, &objects);
        Scene {
            bounds,
            terrain,
            objects,
            reachable,
            grid,
            eye_height: Self::DEFAULT_EYE_HEIGHT,
            index,
        }
    }

    /// World rectangle.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Terrain heightfield.
    #[inline]
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// All objects in the scene.
    #[inline]
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Movement constraint.
    #[inline]
    pub fn reachable(&self) -> &ReachableArea {
        &self.reachable
    }

    /// Grid-point lattice.
    #[inline]
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// A stable digest of the world layout (bounds plus object
    /// population), FNV-1a over the geometry.
    ///
    /// Trajectory generators key *map-level* features — roam hotspots,
    /// spawn areas — on this digest rather than on the per-player
    /// movement seed, so every session hosted in the same world sees
    /// the same map features regardless of who is moving through it
    /// (the property the fleet's cross-session frame reuse relies on).
    pub fn layout_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.objects.len() as u64);
        mix(self.bounds.min.x.to_bits());
        mix(self.bounds.min.z.to_bits());
        mix(self.bounds.max.x.to_bits());
        mix(self.bounds.max.z.to_bits());
        for o in &self.objects {
            mix(o.id.0 as u64);
            mix(o.position.x.to_bits());
            mix(o.position.z.to_bits());
        }
        h
    }

    /// Number of grid points players can reach (Table 3's "Grid Points"
    /// column): full lattice scaled by the reachable-area fraction.
    pub fn reachable_grid_points(&self) -> u64 {
        (self.grid.point_count() as f64 * self.reachable.area_fraction(&self.bounds)).round() as u64
    }

    /// Whether the ground position is reachable by players.
    #[inline]
    pub fn is_reachable(&self, p: Vec2) -> bool {
        self.reachable.contains(&self.bounds, p)
    }

    /// The eye position of a player standing at ground position `p`
    /// (foothold + eye height — the paper's ray-traced camera adjustment).
    #[inline]
    pub fn eye(&self, p: Vec2) -> Vec3 {
        let foot = self.terrain.foothold(p);
        Vec3::new(foot.x, foot.y + self.eye_height, foot.z)
    }

    /// Iterates over objects whose *center* lies within `radius` (ground
    /// distance) of `p`.
    pub fn objects_within(&self, p: Vec2, radius: f64) -> impl Iterator<Item = &SceneObject> {
        self.index
            .candidates(p, radius)
            .map(move |idx| &self.objects[idx])
            .filter(move |o| o.position.ground_distance(p.with_y(0.0)) <= radius)
    }

    /// Total triangles of objects within `radius` of `p` — the rendering
    /// cost proxy behind Constraint 1.
    pub fn triangles_within(&self, p: Vec2, radius: f64) -> u64 {
        self.objects_within(p, radius)
            .map(|o| o.triangles as u64)
            .sum()
    }

    /// Triangle density (triangles per m²) inside a rectangle — Figure 8's
    /// x-axis.
    pub fn triangle_density(&self, rect: &Rect) -> f64 {
        let mut total = 0u64;
        for o in &self.objects {
            if rect.contains(o.position.ground()) {
                total += o.triangles as u64;
            }
        }
        total as f64 / rect.area().max(1e-9)
    }

    /// The set of object ids within `radius` of `p`, hashed into a stable
    /// 64-bit digest. Criterion 3 of the cache lookup algorithm (§5.3):
    /// a cached far-BE frame may only be reused where the *near BE contains
    /// the same set of objects*, otherwise merging would leave holes.
    pub fn near_set_hash(&self, p: Vec2, radius: f64) -> u64 {
        let mut ids: Vec<ObjectId> = self.objects_within(p, radius).map(|o| o.id).collect();
        ids.sort_unstable();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for id in ids {
            h = hash64(h ^ u64::from(id.0));
        }
        h
    }
}

/// Uniform-bucket spatial hash over object centers.
#[derive(Debug, Clone)]
struct SpatialIndex {
    origin: Vec2,
    cell: f64,
    nx: i32,
    nz: i32,
    buckets: Vec<Vec<u32>>,
}

impl SpatialIndex {
    const TARGET_CELL: f64 = 8.0;

    fn build(bounds: &Rect, objects: &[SceneObject]) -> Self {
        let cell = Self::TARGET_CELL;
        let nx = ((bounds.width() / cell).ceil() as i32).max(1);
        let nz = ((bounds.depth() / cell).ceil() as i32).max(1);
        let mut buckets = vec![Vec::new(); (nx * nz) as usize];
        for (i, o) in objects.iter().enumerate() {
            let p = o.position.ground();
            let bx = (((p.x - bounds.min.x) / cell) as i32).clamp(0, nx - 1);
            let bz = (((p.z - bounds.min.z) / cell) as i32).clamp(0, nz - 1);
            buckets[(bz * nx + bx) as usize].push(i as u32);
        }
        SpatialIndex {
            origin: bounds.min,
            cell,
            nx,
            nz,
            buckets,
        }
    }

    /// Indices of objects in buckets overlapping the query disc.
    fn candidates(&self, p: Vec2, radius: f64) -> impl Iterator<Item = usize> + '_ {
        let lo_x =
            (((p.x - radius - self.origin.x) / self.cell).floor() as i32).clamp(0, self.nx - 1);
        let hi_x =
            (((p.x + radius - self.origin.x) / self.cell).floor() as i32).clamp(0, self.nx - 1);
        let lo_z =
            (((p.z - radius - self.origin.z) / self.cell).floor() as i32).clamp(0, self.nz - 1);
        let hi_z =
            (((p.z + radius - self.origin.z) / self.cell).floor() as i32).clamp(0, self.nz - 1);
        let nx = self.nx;
        (lo_z..=hi_z).flat_map(move |bz| {
            (lo_x..=hi_x).flat_map(move |bx| {
                self.buckets[(bz * nx + bx) as usize]
                    .iter()
                    .map(|&i| i as usize)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;

    fn make_object(id: u32, x: f64, z: f64, tris: u32) -> SceneObject {
        SceneObject {
            id: ObjectId(id),
            position: Vec3::new(x, 0.0, z),
            radius: 0.5,
            height: 1.0,
            triangles: tris,
            albedo: 0.5,
            kind: ObjectKind::Sphere,
            texture_seed: id as u64,
        }
    }

    fn test_scene() -> Scene {
        let bounds = Rect::from_size(100.0, 100.0);
        let objects = vec![
            make_object(0, 10.0, 10.0, 100),
            make_object(1, 12.0, 10.0, 200),
            make_object(2, 50.0, 50.0, 400),
            make_object(3, 90.0, 90.0, 800),
        ];
        Scene::new(
            bounds,
            Terrain::flat(),
            objects,
            ReachableArea::All,
            GridSpec::covering(Vec2::ZERO, 100.0, 100.0, 0.5),
        )
    }

    #[test]
    fn objects_within_radius() {
        let s = test_scene();
        let near: Vec<u32> = s
            .objects_within(Vec2::new(10.0, 10.0), 3.0)
            .map(|o| o.id.0)
            .collect();
        assert_eq!(near.len(), 2);
        assert!(near.contains(&0) && near.contains(&1));
    }

    #[test]
    fn triangles_within_sums_correctly() {
        let s = test_scene();
        assert_eq!(s.triangles_within(Vec2::new(10.0, 10.0), 3.0), 300);
        assert_eq!(s.triangles_within(Vec2::new(10.0, 10.0), 0.1), 100);
        assert_eq!(s.triangles_within(Vec2::new(0.0, 0.0), 200.0), 1500);
    }

    #[test]
    fn triangles_within_monotone_in_radius() {
        let s = test_scene();
        let p = Vec2::new(30.0, 30.0);
        let mut last = 0;
        for r in [1.0, 5.0, 20.0, 40.0, 80.0, 150.0] {
            let t = s.triangles_within(p, r);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn near_set_hash_changes_with_membership() {
        let s = test_scene();
        let p = Vec2::new(10.0, 10.0);
        let h_small = s.near_set_hash(p, 1.0); // only object 0
        let h_large = s.near_set_hash(p, 3.0); // objects 0 and 1
        assert_ne!(h_small, h_large);
        // Same membership -> same hash, independent of query point.
        let h_other = s.near_set_hash(Vec2::new(11.0, 10.0), 2.0);
        assert_eq!(h_large, h_other);
    }

    #[test]
    fn eye_uses_terrain_and_height() {
        let bounds = Rect::from_size(50.0, 50.0);
        let terrain = Terrain::new(3, 4.0, 20.0);
        let s = Scene::new(
            bounds,
            terrain.clone(),
            vec![],
            ReachableArea::All,
            GridSpec::covering(Vec2::ZERO, 50.0, 50.0, 1.0),
        );
        let p = Vec2::new(20.0, 20.0);
        let eye = s.eye(p);
        assert!((eye.y - (terrain.height(p) + Scene::DEFAULT_EYE_HEIGHT)).abs() < 1e-12);
    }

    #[test]
    fn track_reachability() {
        let track = ReachableArea::Track {
            centerline: vec![
                Vec2::new(10.0, 10.0),
                Vec2::new(90.0, 10.0),
                Vec2::new(90.0, 90.0),
                Vec2::new(10.0, 90.0),
            ],
            half_width: 5.0,
        };
        let bounds = Rect::from_size(100.0, 100.0);
        assert!(track.contains(&bounds, Vec2::new(50.0, 12.0)));
        assert!(!track.contains(&bounds, Vec2::new(50.0, 50.0)));
        // The server pre-renders the full lattice even for track games.
        assert_eq!(track.area_fraction(&bounds), 1.0);
    }

    #[test]
    fn track_scene_prerenders_full_lattice() {
        // Racing games pre-render every grid point (cars can run wide),
        // matching Table 3's millions of grid points for Racing/DS.
        let bounds = Rect::from_size(100.0, 100.0);
        let grid = GridSpec::covering(Vec2::ZERO, 100.0, 100.0, 1.0);
        let all = Scene::new(bounds, Terrain::flat(), vec![], ReachableArea::All, grid);
        let track = Scene::new(
            bounds,
            Terrain::flat(),
            vec![],
            ReachableArea::Track {
                centerline: vec![
                    Vec2::new(10.0, 10.0),
                    Vec2::new(90.0, 10.0),
                    Vec2::new(90.0, 90.0),
                    Vec2::new(10.0, 90.0),
                ],
                half_width: 5.0,
            },
            grid,
        );
        assert_eq!(track.reachable_grid_points(), all.reachable_grid_points());
        // Movement reachability is still corridor-bound.
        assert!(track.is_reachable(Vec2::new(50.0, 12.0)));
        assert!(!track.is_reachable(Vec2::new(50.0, 50.0)));
    }

    #[test]
    fn triangle_density_counts_rect_only() {
        let s = test_scene();
        let rect = Rect::new(Vec2::new(0.0, 0.0), Vec2::new(20.0, 20.0));
        let density = s.triangle_density(&rect);
        assert!((density - 300.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn distance_to_segment_basics() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        assert!((distance_to_segment(a, b, Vec2::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        assert!((distance_to_segment(a, b, Vec2::new(-4.0, 3.0)) - 5.0).abs() < 1e-12);
        assert!((distance_to_segment(a, a, Vec2::new(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_polyline_infinitely_far() {
        assert_eq!(distance_to_polyline(&[], Vec2::ZERO), f64::INFINITY);
        assert_eq!(
            distance_to_polyline(&[Vec2::new(3.0, 4.0)], Vec2::ZERO),
            5.0
        );
    }

    #[test]
    #[should_panic(expected = "escapes world bounds")]
    fn out_of_bounds_object_rejected() {
        let bounds = Rect::from_size(10.0, 10.0);
        let _ = Scene::new(
            bounds,
            Terrain::flat(),
            vec![make_object(0, 500.0, 500.0, 10)],
            ReachableArea::All,
            GridSpec::covering(Vec2::ZERO, 10.0, 10.0, 1.0),
        );
    }
}
