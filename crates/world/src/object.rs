//! Scene objects: the "assets" of the virtual world.
//!
//! Each object carries a triangle count — the paper's proxy for rendering
//! cost (§4.3, "the rendering speed is correlated with the triangle count
//! of the objects") — plus the geometric and shading attributes needed by
//! the panoramic software renderer.

use crate::vec::Vec3;
use std::fmt;

/// Stable identifier of a scene object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Geometric archetype of an object, chosen to give the renderer distinct
/// silhouettes (spheres for rocks/props, cylinders for trees, boxes for
/// buildings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Roughly isotropic prop (rock, barrel, bush).
    Sphere,
    /// Tall object (tree trunk + canopy, lamp post, person).
    Cylinder,
    /// Axis-aligned building-like block.
    Box,
}

/// An asset placed in the virtual world.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Stable identifier.
    pub id: ObjectId,
    /// Center of the object's footprint; `position.y` is the base height
    /// (on the terrain).
    pub position: Vec3,
    /// Horizontal radius of the bounding volume, in meters.
    pub radius: f64,
    /// Height of the object above its base, in meters.
    pub height: f64,
    /// Triangle count of the mesh (render-cost proxy).
    pub triangles: u32,
    /// Base surface brightness in `[0, 1]` (luma albedo).
    pub albedo: f64,
    /// Shape archetype.
    pub kind: ObjectKind,
    /// Seed for surface-texture noise so the renderer gives each object
    /// pixel-level detail (needed for meaningful SSIM).
    pub texture_seed: u64,
}

/// Angular extent of an object's silhouette as seen from an eye point.
///
/// The renderer bins objects into the panorama rows/columns they can
/// touch before rasterizing; this is the pure-geometry half of that
/// computation, independent of any pixel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngularExtent {
    /// Azimuthal half-width of the silhouette, radians.
    pub half_width: f64,
    /// Elevation of the silhouette's base, radians.
    pub base_elevation: f64,
    /// Elevation of the silhouette's top, radians.
    pub top_elevation: f64,
    /// Azimuth of the object center, radians in `(-π, π]`.
    pub center_azimuth: f64,
    /// Euclidean distance from the eye to the bounding-volume center,
    /// meters.
    pub distance: f64,
}

impl SceneObject {
    /// Vertical center of the bounding volume.
    #[inline]
    pub fn center(&self) -> Vec3 {
        Vec3::new(
            self.position.x,
            self.position.y + self.height * 0.5,
            self.position.z,
        )
    }

    /// Radius of a bounding sphere enclosing the object.
    #[inline]
    pub fn bounding_radius(&self) -> f64 {
        // Conservative: horizontal radius and half-height combined.
        self.radius.hypot(self.height * 0.5)
    }

    /// Ground-plane distance from a viewpoint to the object center.
    #[inline]
    pub fn ground_distance(&self, from: Vec3) -> f64 {
        self.position.ground_distance(from)
    }

    /// Angular extent of the object's silhouette as seen from `eye`, or
    /// `None` when the eye sits inside the bounding volume's center
    /// (degenerate projection).
    ///
    /// Spheres subtend a symmetric cap around the center direction;
    /// cylinders and boxes project as azimuthal slabs between the base
    /// and top elevations (boxes are widened by 1.3× to approximate
    /// their diagonal).
    pub fn angular_extent(&self, eye: Vec3) -> Option<AngularExtent> {
        let v = self.center() - eye;
        let dist = v.length();
        if dist < 1e-6 {
            return None;
        }
        let (half_width, base_elevation, top_elevation) = match self.kind {
            ObjectKind::Sphere => {
                let a = (self.radius / dist).min(1.0).asin();
                let ce = (v.y / dist).asin();
                (a, ce - a, ce + a)
            }
            ObjectKind::Cylinder | ObjectKind::Box => {
                let ground_dist = v.ground().length().max(1e-6);
                let widen = if self.kind == ObjectKind::Box {
                    1.3
                } else {
                    1.0
                };
                let a = ((self.radius * widen / ground_dist).min(1.0)).asin();
                let base = (self.position.y - eye.y).atan2(ground_dist);
                let top = (self.position.y + self.height - eye.y).atan2(ground_dist);
                (a, base, top)
            }
        };
        Some(AngularExtent {
            half_width,
            base_elevation,
            top_elevation,
            center_azimuth: v.x.atan2(v.z),
            distance: dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> SceneObject {
        SceneObject {
            id: ObjectId(7),
            position: Vec3::new(3.0, 1.0, 4.0),
            radius: 1.0,
            height: 4.0,
            triangles: 1200,
            albedo: 0.5,
            kind: ObjectKind::Cylinder,
            texture_seed: 99,
        }
    }

    #[test]
    fn center_is_mid_height() {
        let o = obj();
        assert_eq!(o.center(), Vec3::new(3.0, 3.0, 4.0));
    }

    #[test]
    fn bounding_radius_encloses_extents() {
        let o = obj();
        let br = o.bounding_radius();
        assert!(br >= o.radius);
        assert!(br >= o.height * 0.5);
    }

    #[test]
    fn ground_distance_ignores_height() {
        let o = obj();
        let d = o.ground_distance(Vec3::new(0.0, 100.0, 0.0));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(format!("{}", ObjectId(3)), "obj#3");
    }

    #[test]
    fn angular_extent_spans_the_silhouette() {
        let o = obj();
        // Eye 5 m away on the ground axis, level with the base.
        let eye = Vec3::new(0.0, 1.0, 0.0);
        let e = o.angular_extent(eye).expect("extent");
        // The cylinder's top (4 m up at 5 m range) is above the base.
        assert!(e.top_elevation > e.base_elevation);
        assert!((e.base_elevation - 0.0).abs() < 1e-12);
        // 1 m radius at 5 m ground distance: asin(0.2).
        assert!((e.half_width - 0.2f64.asin()).abs() < 1e-12);
        // Center azimuth points toward (3, 4).
        assert!((e.center_azimuth - 3.0f64.atan2(4.0)).abs() < 1e-12);
        assert!(e.distance > 5.0);
    }

    #[test]
    fn angular_extent_degenerate_when_eye_at_center() {
        let o = obj();
        assert!(o.angular_extent(o.center()).is_none());
    }

    #[test]
    fn sphere_extent_is_symmetric_cap() {
        let o = SceneObject {
            kind: ObjectKind::Sphere,
            position: Vec3::new(0.0, 0.0, 10.0),
            height: 0.0,
            ..obj()
        };
        let e = o.angular_extent(Vec3::new(0.0, 0.0, 0.0)).expect("extent");
        let center_elev = (e.base_elevation + e.top_elevation) * 0.5;
        assert!((e.top_elevation - center_elev - e.half_width).abs() < 1e-12);
        assert!((e.center_azimuth - 0.0).abs() < 1e-12);
    }
}
