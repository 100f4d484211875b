//! Scalar physical quantities: time, distance, speed, acceleration.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Conversion factor: one mile per hour expressed in metres per second.
const MPS_PER_MPH: f64 = 0.44704;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in the canonical unit.
            #[inline]
            pub const fn raw(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the sign of the quantity (`-1.0`, `0.0` or `1.0`).
            #[inline]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 { 0.0 } else { self.0.signum() }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// A duration or point in simulated time, in seconds.
    Seconds,
    "s"
);

quantity!(
    /// A longitudinal or lateral distance, in metres.
    Distance,
    "m"
);

quantity!(
    /// A speed, canonically in metres per second.
    Speed,
    "m/s"
);

quantity!(
    /// An acceleration, in metres per second squared. Negative values brake.
    Accel,
    "m/s^2"
);

impl Seconds {
    /// Creates a duration from seconds.
    #[inline]
    pub const fn new(secs: f64) -> Self {
        Self(secs)
    }

    /// The duration in seconds.
    #[inline]
    pub const fn secs(self) -> f64 {
        self.0
    }
}

impl Distance {
    /// Creates a distance from metres.
    #[inline]
    pub const fn meters(m: f64) -> Self {
        Self(m)
    }
}

impl Speed {
    /// Creates a speed from metres per second.
    #[inline]
    pub const fn from_mps(mps: f64) -> Self {
        Self(mps)
    }

    /// Creates a speed from miles per hour (the unit the paper's scenarios
    /// and thresholds use).
    #[inline]
    pub fn from_mph(mph: f64) -> Self {
        Self(mph * MPS_PER_MPH)
    }

    /// The speed in metres per second.
    #[inline]
    pub const fn mps(self) -> f64 {
        self.0
    }

    /// The speed in miles per hour.
    #[inline]
    pub fn mph(self) -> f64 {
        self.0 / MPS_PER_MPH
    }
}

impl Accel {
    /// Creates an acceleration from metres per second squared.
    #[inline]
    pub const fn from_mps2(a: f64) -> Self {
        Self(a)
    }

    /// The acceleration in metres per second squared.
    #[inline]
    pub const fn mps2(self) -> f64 {
        self.0
    }
}

// Dimensional arithmetic that shows up throughout the control code.

impl Mul<Seconds> for Speed {
    type Output = Distance;
    /// `v * t = d` — distance travelled at constant speed.
    #[inline]
    fn mul(self, rhs: Seconds) -> Distance {
        Distance::meters(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Accel {
    type Output = Speed;
    /// `a * t = Δv` — speed change under constant acceleration.
    #[inline]
    fn mul(self, rhs: Seconds) -> Speed {
        Speed::from_mps(self.0 * rhs.0)
    }
}

impl Div<Speed> for Distance {
    type Output = Seconds;
    /// `d / v = t` — e.g. headway time = relative distance / current speed.
    #[inline]
    fn div(self, rhs: Speed) -> Seconds {
        Seconds::new(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Speed {
    type Output = Accel;
    /// `Δv / t = a`.
    #[inline]
    fn div(self, rhs: Seconds) -> Accel {
        Accel::from_mps2(self.0 / rhs.0)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    #[test]
    fn mph_round_trips() {
        let v = Speed::from_mph(60.0);
        assert!((v.mph() - 60.0).abs() < 1e-12);
        assert!((v.mps() - 26.8224).abs() < 1e-4);
    }

    #[test]
    fn headway_time_is_distance_over_speed() {
        let gap = Distance::meters(53.6448);
        let v = Speed::from_mph(60.0);
        let hwt = gap / v;
        assert!((hwt.secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn accel_integrates_to_speed() {
        let a = Accel::from_mps2(2.0);
        let dv = a * Seconds::new(0.01);
        assert!((dv.mps() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_ordering() {
        let a = Accel::from_mps2(3.0);
        let clamped = a.clamp(Accel::from_mps2(-3.5), Accel::from_mps2(2.0));
        assert_eq!(clamped, Accel::from_mps2(2.0));
        assert!(Accel::from_mps2(-4.0) < Accel::from_mps2(-3.5));
    }

    #[test]
    fn arithmetic_identities() {
        let d = Distance::meters(10.0);
        assert_eq!(d + Distance::ZERO, d);
        assert_eq!(d - d, Distance::ZERO);
        assert_eq!(-d, Distance::meters(-10.0));
        assert_eq!(d * 2.0, Distance::meters(20.0));
        assert_eq!(d / 2.0, Distance::meters(5.0));
        assert_eq!(d / Distance::meters(5.0), 2.0);
    }

    #[test]
    fn signum_covers_zero() {
        assert_eq!(Distance::ZERO.signum(), 0.0);
        assert_eq!(Distance::meters(-2.0).signum(), -1.0);
        assert_eq!(Distance::meters(2.0).signum(), 1.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Seconds = (1..=4).map(|i| Seconds::new(i as f64)).sum();
        assert_eq!(total, Seconds::new(10.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Speed::from_mps(1.0)), "1.000 m/s");
        assert_eq!(format!("{}", Accel::from_mps2(-3.5)), "-3.500 m/s^2");
    }
}
