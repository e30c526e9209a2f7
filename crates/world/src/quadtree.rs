//! 2-D region quadtree.
//!
//! The adaptive cutoff scheme (§4.3) recursively partitions the game's
//! 2-D movement plane into four equal subregions until a caller-supplied
//! uniformity test passes; the unpartitioned subregions are the paper's
//! "leaf regions". This module provides the generic spatial structure; the
//! cutoff-specific decision logic lives in `coterie-core`.

use crate::vec::Vec2;
use std::fmt;

/// An axis-aligned rectangle on the ground plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner (inclusive).
    pub min: Vec2,
    /// Maximum corner (exclusive for point-location purposes).
    pub max: Vec2,
}

impl Rect {
    /// Creates a rectangle from corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not component-wise `<= max`.
    pub fn new(min: Vec2, max: Vec2) -> Self {
        assert!(
            min.x <= max.x && min.z <= max.z,
            "degenerate rect {min} .. {max}"
        );
        Rect { min, max }
    }

    /// Rectangle anchored at the origin with the given extent.
    pub fn from_size(width: f64, depth: f64) -> Self {
        Rect::new(Vec2::ZERO, Vec2::new(width, depth))
    }

    /// Width along x, in meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Depth along z, in meters.
    #[inline]
    pub fn depth(&self) -> f64 {
        self.max.z - self.min.z
    }

    /// Area in square meters.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.depth()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec2 {
        Vec2::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.z + self.max.z) * 0.5,
        )
    }

    /// Whether the rectangle contains a point (min-inclusive,
    /// max-exclusive, so quadrant tiles partition the parent exactly).
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.z >= self.min.z && p.z < self.max.z
    }

    /// Splits into four equal quadrants, ordered `[SW, SE, NW, NE]`
    /// (min-z/min-x first).
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::new(self.min, c),
            Rect::new(Vec2::new(c.x, self.min.z), Vec2::new(self.max.x, c.z)),
            Rect::new(Vec2::new(self.min.x, c.z), Vec2::new(c.x, self.max.z)),
            Rect::new(c, self.max),
        ]
    }

    /// A deterministic interior sample point parameterized by `(u, v)` in
    /// `[0, 1)` — used for sampling `K` locations in a region.
    #[inline]
    pub fn sample(&self, u: f64, v: f64) -> Vec2 {
        Vec2::new(
            self.min.x + u.clamp(0.0, 1.0) * self.width(),
            self.min.z + v.clamp(0.0, 1.0) * self.depth(),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Identifier of a quadtree leaf region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafId(pub u32);

impl fmt::Display for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leaf#{}", self.0)
    }
}

/// A leaf region of the quadtree with its associated payload (for the
/// adaptive cutoff scheme: the region's cutoff radius and distance
/// threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf<T> {
    /// Leaf identifier (dense, 0-based).
    pub id: LeafId,
    /// The region covered by this leaf.
    pub rect: Rect,
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// Caller payload.
    pub value: T,
}

#[derive(Debug, Clone)]
enum Node {
    Internal { children: [u32; 4] },
    Leaf { leaf: u32 },
}

/// The outcome of the partitioning decision for one region.
#[derive(Debug, Clone, PartialEq)]
pub enum Partition<T> {
    /// Stop here; the region becomes a leaf with this payload.
    Stop(T),
    /// Recurse into four quadrants.
    Split,
}

/// A region quadtree whose shape is driven by a caller decision function.
///
/// ```
/// use coterie_world::{Quadtree, Rect};
/// use coterie_world::quadtree::Partition;
///
/// // Split twice everywhere -> 16 uniform leaves.
/// let qt = Quadtree::build(Rect::from_size(16.0, 16.0), 8, &mut |_r, depth| {
///     if depth < 2 { Partition::<u32>::Split } else { Partition::Stop(depth) }
/// });
/// assert_eq!(qt.leaves().len(), 16);
/// assert_eq!(qt.stats().max_depth, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Quadtree<T> {
    root_rect: Rect,
    nodes: Vec<Node>,
    leaves: Vec<Leaf<T>>,
}

impl<T> Quadtree<T> {
    /// Builds the tree by recursive descent. `decide` is called with each
    /// region and its depth; returning [`Partition::Split`] recurses (until
    /// `max_depth`, where the region is forced into a leaf by calling
    /// `decide` once more and using its payload even if it asks to split —
    /// in that case `decide` must return `Stop` at `max_depth`).
    ///
    /// # Panics
    ///
    /// Panics if `decide` returns [`Partition::Split`] at `max_depth`.
    pub fn build(
        root: Rect,
        max_depth: u32,
        decide: &mut dyn FnMut(&Rect, u32) -> Partition<T>,
    ) -> Self {
        let mut tree = Quadtree {
            root_rect: root,
            nodes: Vec::new(),
            leaves: Vec::new(),
        };
        tree.build_node(root, 0, max_depth, decide);
        tree
    }

    fn build_node(
        &mut self,
        rect: Rect,
        depth: u32,
        max_depth: u32,
        decide: &mut dyn FnMut(&Rect, u32) -> Partition<T>,
    ) -> u32 {
        let idx = self.nodes.len() as u32;
        match decide(&rect, depth) {
            Partition::Stop(value) => {
                let leaf_idx = self.leaves.len() as u32;
                self.leaves.push(Leaf {
                    id: LeafId(leaf_idx),
                    rect,
                    depth,
                    value,
                });
                self.nodes.push(Node::Leaf { leaf: leaf_idx });
                idx
            }
            Partition::Split => {
                assert!(
                    depth < max_depth,
                    "decision function requested split at max depth {max_depth}"
                );
                self.nodes.push(Node::Internal { children: [0; 4] });
                let mut children = [0u32; 4];
                for (i, q) in rect.quadrants().into_iter().enumerate() {
                    children[i] = self.build_node(q, depth + 1, max_depth, decide);
                }
                if let Node::Internal { children: slot } = &mut self.nodes[idx as usize] {
                    *slot = children;
                }
                idx
            }
        }
    }

    /// The region covered by the whole tree.
    #[inline]
    pub fn root_rect(&self) -> Rect {
        self.root_rect
    }

    /// All leaf regions, in creation (depth-first SW→NE) order.
    #[inline]
    pub fn leaves(&self) -> &[Leaf<T>] {
        &self.leaves
    }

    /// The leaf containing a point, or `None` if the point is outside the
    /// root region (points exactly on the max edge are clamped inward).
    pub fn locate(&self, p: Vec2) -> Option<&Leaf<T>> {
        // Clamp points on the outer max edge inward so the whole closed
        // world rectangle resolves to some leaf.
        let eps = 1e-9;
        let p = Vec2::new(
            p.x.min(self.root_rect.max.x - eps)
                .max(self.root_rect.min.x),
            p.z.min(self.root_rect.max.z - eps)
                .max(self.root_rect.min.z),
        );
        if !self.root_rect.contains(p) {
            return None;
        }
        let mut node = 0u32;
        let mut rect = self.root_rect;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { leaf } => return Some(&self.leaves[*leaf as usize]),
                Node::Internal { children } => {
                    let c = rect.center();
                    let east = p.x >= c.x;
                    let north = p.z >= c.z;
                    let quad = match (east, north) {
                        (false, false) => 0,
                        (true, false) => 1,
                        (false, true) => 2,
                        (true, true) => 3,
                    };
                    node = children[quad];
                    rect = rect.quadrants()[quad];
                }
            }
        }
    }

    /// Mutable access to a leaf's payload by id.
    pub fn leaf_mut(&mut self, id: LeafId) -> Option<&mut Leaf<T>> {
        self.leaves.get_mut(id.0 as usize)
    }

    /// Leaf by id.
    pub fn leaf(&self, id: LeafId) -> Option<&Leaf<T>> {
        self.leaves.get(id.0 as usize)
    }

    /// Aggregate statistics matching the paper's Table 3 columns
    /// (average/maximum leaf depth, leaf count).
    pub fn stats(&self) -> QuadtreeStats {
        let leaf_count = self.leaves.len();
        let max_depth = self.leaves.iter().map(|l| l.depth).max().unwrap_or(0);
        let avg_depth = if leaf_count == 0 {
            0.0
        } else {
            self.leaves.iter().map(|l| l.depth as f64).sum::<f64>() / leaf_count as f64
        };
        QuadtreeStats {
            leaf_count,
            avg_depth,
            max_depth,
        }
    }
}

/// Shape statistics of a built quadtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadtreeStats {
    /// Number of leaf regions.
    pub leaf_count: usize,
    /// Mean depth across leaves.
    pub avg_depth: f64,
    /// Maximum leaf depth.
    pub max_depth: u32,
}

impl fmt::Display for QuadtreeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} leaves, depth {:.2}/{}",
            self.leaf_count, self.avg_depth, self.max_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_tree(levels: u32) -> Quadtree<u32> {
        Quadtree::build(Rect::from_size(64.0, 64.0), 10, &mut |_r, d| {
            if d < levels {
                Partition::Split
            } else {
                Partition::Stop(d)
            }
        })
    }

    #[test]
    fn single_leaf_tree() {
        let qt = Quadtree::build(Rect::from_size(10.0, 10.0), 4, &mut |_r, _d| {
            Partition::Stop(42u32)
        });
        assert_eq!(qt.leaves().len(), 1);
        assert_eq!(qt.stats().max_depth, 0);
        assert_eq!(qt.locate(Vec2::new(5.0, 5.0)).unwrap().value, 42);
    }

    #[test]
    fn uniform_split_counts() {
        for levels in 0..4 {
            let qt = uniform_tree(levels);
            assert_eq!(qt.leaves().len(), 4usize.pow(levels));
            let stats = qt.stats();
            assert_eq!(stats.max_depth, levels);
            assert!((stats.avg_depth - levels as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn locate_finds_correct_quadrant() {
        let qt = uniform_tree(1);
        // 4 leaves in SW, SE, NW, NE order.
        let sw = qt.locate(Vec2::new(1.0, 1.0)).unwrap();
        let ne = qt.locate(Vec2::new(63.0, 63.0)).unwrap();
        assert!(sw.rect.contains(Vec2::new(1.0, 1.0)));
        assert!(ne.rect.contains(Vec2::new(63.0, 63.0)));
        assert_ne!(sw.id, ne.id);
    }

    #[test]
    fn locate_outside_is_none_inside_edges_clamped() {
        let qt = uniform_tree(2);
        assert!(qt.locate(Vec2::new(-1.0, 5.0)).is_some()); // clamped to min edge
                                                            // Max edge is clamped inward rather than rejected:
        assert!(qt.locate(Vec2::new(64.0, 64.0)).is_some());
        assert!(qt.locate(Vec2::new(200.0, 5.0)).is_some()); // clamped
    }

    #[test]
    fn leaves_partition_root_exactly() {
        let qt = uniform_tree(3);
        let total: f64 = qt.leaves().iter().map(|l| l.rect.area()).sum();
        assert!((total - 64.0 * 64.0).abs() < 1e-6);
    }

    #[test]
    fn every_interior_point_locates_to_containing_leaf() {
        let qt = Quadtree::build(Rect::from_size(32.0, 32.0), 6, &mut |r, d| {
            // Irregular: split only the SW-ish regions.
            if d < 3 && r.min.x < 8.0 && r.min.z < 8.0 {
                Partition::Split
            } else {
                Partition::Stop(d)
            }
        });
        for i in 0..32 {
            for j in 0..32 {
                let p = Vec2::new(i as f64 + 0.5, j as f64 + 0.5);
                let leaf = qt.locate(p).expect("point must land in a leaf");
                assert!(leaf.rect.contains(p), "{p} not in {}", leaf.rect);
            }
        }
    }

    #[test]
    fn quadrants_tile_parent() {
        let r = Rect::new(Vec2::new(-2.0, 4.0), Vec2::new(6.0, 12.0));
        let quads = r.quadrants();
        let area: f64 = quads.iter().map(Rect::area).sum();
        assert!((area - r.area()).abs() < 1e-9);
        // Each point belongs to exactly one quadrant.
        let p = Vec2::new(1.9, 7.9);
        let owners = quads.iter().filter(|q| q.contains(p)).count();
        assert_eq!(owners, 1);
    }

    #[test]
    fn rect_sample_inside() {
        let r = Rect::new(Vec2::new(1.0, 2.0), Vec2::new(3.0, 8.0));
        for i in 0..10 {
            let p = r.sample(i as f64 / 10.0, (9 - i) as f64 / 10.0);
            assert!(p.x >= r.min.x && p.x <= r.max.x);
            assert!(p.z >= r.min.z && p.z <= r.max.z);
        }
    }

    #[test]
    #[should_panic(expected = "split at max depth")]
    fn split_at_max_depth_panics() {
        let _ = Quadtree::build(Rect::from_size(4.0, 4.0), 1, &mut |_r, _d| {
            Partition::<()>::Split
        });
    }

    #[test]
    fn leaf_lookup_by_id() {
        let mut qt = uniform_tree(1);
        let id = qt.leaves()[2].id;
        qt.leaf_mut(id).unwrap().value = 99;
        assert_eq!(qt.leaf(id).unwrap().value, 99);
        assert!(qt.leaf(LeafId(1000)).is_none());
    }

    #[test]
    fn stats_display() {
        let qt = uniform_tree(2);
        let s = format!("{}", qt.stats());
        assert!(s.contains("16 leaves"));
    }
}
