//! Plane angles, used for steering commands and vehicle heading.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A plane angle, stored canonically in radians.
///
/// The paper quotes steering limits in degrees (e.g. `limit_steer = 0.5°`),
/// while the bicycle model wants radians; [`Angle::from_degrees`] and
/// [`Angle::degrees`] make the conversion explicit.
///
/// # Examples
///
/// ```
/// use units::Angle;
///
/// let limit = Angle::from_degrees(0.5);
/// assert!((limit.radians() - 0.00872665).abs() < 1e-6);
/// assert!((limit.degrees() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Angle(f64);

impl Angle {
    /// The zero angle.
    pub const ZERO: Self = Self(0.0);

    /// Creates an angle from radians.
    #[inline]
    pub const fn from_radians(rad: f64) -> Self {
        Self(rad)
    }

    /// Creates an angle from degrees.
    #[inline]
    pub const fn from_degrees(deg: f64) -> Self {
        Self(deg.to_radians())
    }

    /// The angle in radians.
    #[inline]
    pub const fn radians(self) -> f64 {
        self.0
    }

    /// The angle in degrees.
    #[inline]
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    #[inline]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Tangent of the angle (used by the bicycle model's curvature term).
    #[inline]
    pub fn tan(self) -> f64 {
        self.0.tan()
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Returns the sign of the angle (`-1.0`, `0.0` or `1.0`).
    #[inline]
    pub fn signum(self) -> f64 {
        if self.0 == 0.0 {
            0.0
        } else {
            self.0.signum()
        }
    }

    /// Returns `true` if the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the larger of two angles.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Returns the smaller of two angles.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} deg", self.degrees())
    }
}

impl Add for Angle {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl AddAssign for Angle {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Angle {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Neg for Angle {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl Mul<f64> for Angle {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<f64> for Angle {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    #[test]
    fn degree_radian_round_trip() {
        let a = Angle::from_degrees(0.25);
        assert!((a.degrees() - 0.25).abs() < 1e-12);
        let b = Angle::from_radians(std::f64::consts::PI);
        assert!((b.degrees() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn trig_matches_std() {
        let a = Angle::from_degrees(30.0);
        assert!((a.sin() - 0.5).abs() < 1e-12);
        assert!((a.tan() - (std::f64::consts::PI / 6.0).tan()).abs() < 1e-12);
    }

    #[test]
    fn clamp_respects_steering_limits() {
        let cmd = Angle::from_degrees(1.2);
        let lim = Angle::from_degrees(0.5);
        assert_eq!(cmd.clamp(-lim, lim), lim);
        assert_eq!((-cmd).clamp(-lim, lim), -lim);
    }

    #[test]
    fn arithmetic() {
        let a = Angle::from_degrees(1.0);
        let b = Angle::from_degrees(2.0);
        assert!(((a + b).degrees() - 3.0).abs() < 1e-12);
        assert!(((b - a).degrees() - 1.0).abs() < 1e-12);
        assert!(((a * 2.0).degrees() - 2.0).abs() < 1e-12);
        assert!(((b / 2.0).degrees() - 1.0).abs() < 1e-12);
        assert_eq!((-a).signum(), -1.0);
        assert_eq!(Angle::ZERO.signum(), 0.0);
    }

    #[test]
    fn display_in_degrees() {
        assert_eq!(format!("{}", Angle::from_degrees(0.5)), "0.5000 deg");
    }
}
