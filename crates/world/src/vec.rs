//! Minimal 2-D / 3-D vector math used throughout the workspace.
//!
//! Coordinates are in meters. The world uses a right-handed frame with
//! `y` pointing up; players move on the `x`–`z` ground plane (the paper's
//! virtual worlds are 2-D for movement purposes, §4.3).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector on the ground plane (`x`, `z`), in meters.
///
/// ```
/// use coterie_world::Vec2;
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.length(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East-west component in meters.
    pub x: f64,
    /// North-south component in meters.
    pub z: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, z: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, z: f64) -> Self {
        Vec2 { x, z }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        self.x.hypot(self.z)
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.z * self.z
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (self - other).length_sq()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.z * other.z
    }

    /// Returns the vector scaled to unit length, or zero if degenerate.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len <= f64::EPSILON {
            Vec2::ZERO
        } else {
            self / len
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Heading angle in radians measured from the +z axis toward +x,
    /// matching the azimuth convention used by the panoramic renderer.
    #[inline]
    pub fn heading(self) -> f64 {
        self.x.atan2(self.z)
    }

    /// Lifts the vector to 3-D at the given height.
    #[inline]
    pub fn with_y(self, y: f64) -> Vec3 {
        Vec3::new(self.x, y, self.z)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.z + rhs.z)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.z / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.z)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.z)
    }
}

/// A 3-D vector / point, in meters, `y` up.
///
/// ```
/// use coterie_world::Vec3;
/// let eye = Vec3::new(0.0, 1.7, 0.0);
/// let obj = Vec3::new(3.0, 1.7, 4.0);
/// assert_eq!(eye.distance(obj), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// East-west component in meters.
    pub x: f64,
    /// Vertical component in meters (up).
    pub y: f64,
    /// North-south component in meters.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).length()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Returns the vector scaled to unit length, or zero if degenerate.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len <= f64::EPSILON {
            Vec3::ZERO
        } else {
            self / len
        }
    }

    /// Projection onto the ground plane (drops `y`).
    #[inline]
    pub fn ground(self) -> Vec2 {
        Vec2::new(self.x, self.z)
    }

    /// Horizontal (ground-plane) distance to another point.
    #[inline]
    pub fn ground_distance(self, other: Vec3) -> f64 {
        self.ground().distance(other.ground())
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl From<Vec2> for Vec3 {
    /// Lifts a ground-plane vector to 3-D with `y = 0`.
    #[inline]
    fn from(v: Vec2) -> Vec3 {
        Vec3::new(v.x, 0.0, v.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_length_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.length(), 5.0);
        assert_eq!(a.length_sq(), 25.0);
        assert_eq!(Vec2::ZERO.distance(a), 5.0);
        assert_eq!(Vec2::ZERO.distance_sq(a), 25.0);
    }

    #[test]
    fn vec2_normalized_unit_length() {
        let v = Vec2::new(10.0, -7.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn vec2_heading_matches_azimuth_convention() {
        // +z is heading 0; +x is heading pi/2.
        assert!(Vec2::new(0.0, 1.0).heading().abs() < 1e-12);
        assert!((Vec2::new(1.0, 0.0).heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn vec2_lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec3_arithmetic_and_length() {
        let a = Vec3::new(1.0, 2.0, 2.0);
        assert_eq!(a.length(), 3.0);
        let b = Vec3::new(1.0, 0.0, 0.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a + b, Vec3::new(2.0, 2.0, 2.0));
        assert_eq!((a * 2.0).length(), 6.0);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        let c = a.cross(b);
        assert_eq!(c, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(c.dot(a), 0.0);
        assert_eq!(c.dot(b), 0.0);
    }

    #[test]
    fn vec3_ground_projection() {
        let p = Vec3::new(3.0, 99.0, 4.0);
        assert_eq!(p.ground(), Vec2::new(3.0, 4.0));
        assert_eq!(p.ground_distance(Vec3::new(0.0, -5.0, 0.0)), 5.0);
    }

    #[test]
    fn conversion_from_vec2() {
        let v: Vec3 = Vec2::new(1.0, 2.0).into();
        assert_eq!(v, Vec3::new(1.0, 0.0, 2.0));
        assert_eq!(Vec2::new(1.0, 2.0).with_y(5.0), Vec3::new(1.0, 5.0, 2.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = Vec2::new(1.0, 1.0);
        a += Vec2::new(1.0, 2.0);
        assert_eq!(a, Vec2::new(2.0, 3.0));
        a -= Vec2::new(2.0, 3.0);
        assert_eq!(a, Vec2::ZERO);
        let mut b = Vec3::new(1.0, 1.0, 1.0);
        b += Vec3::new(0.0, 1.0, 0.0);
        b -= Vec3::new(1.0, 0.0, 0.0);
        assert_eq!(b, Vec3::new(0.0, 2.0, 1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Vec2::new(1.0, 2.0)), "(1.000, 2.000)");
        assert_eq!(
            format!("{}", Vec3::new(1.0, 2.0, 3.0)),
            "(1.000, 2.000, 3.000)"
        );
    }
}
