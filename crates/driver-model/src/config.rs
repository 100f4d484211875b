//! Driver parameterisation.

use units::{Accel, Angle, Seconds};

/// Parameters of the simulated driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Whether the driver is paying attention at all. An inattentive driver
    /// never notices anything (the paper's "without driver reaction"
    /// ablation).
    pub attentive: bool,
    /// Perception-plus-reaction delay before physically acting (2.5 s).
    pub reaction_time: Seconds,
    /// Acceleration above this is an anomaly (2 m/s²).
    pub accel_threshold: Accel,
    /// Braking below this (more negative) is an anomaly (−3.5 m/s²).
    pub brake_threshold: Accel,
    /// Steering beyond this magnitude is an anomaly.
    pub steer_threshold: Angle,
    /// Speed above `overspeed_factor × v_cruise` is an anomaly (1.1).
    pub overspeed_factor: f64,
    /// Peak deceleration of the driver's panic brake.
    pub max_brake: Accel,
}

impl DriverConfig {
    /// The alert driver of the paper's main experiments.
    pub fn alert() -> Self {
        Self {
            attentive: true,
            reaction_time: Seconds::new(2.5),
            accel_threshold: Accel::from_mps2(2.0),
            brake_threshold: Accel::from_mps2(-3.5),
            steer_threshold: Angle::from_degrees(0.6),
            overspeed_factor: 1.1,
            max_brake: Accel::from_mps2(-8.0),
        }
    }

    /// A driver who never intervenes (ablation baseline).
    pub fn inattentive() -> Self {
        Self {
            attentive: false,
            ..Self::alert()
        }
    }
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self::alert()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    #[test]
    fn alert_defaults_match_paper() {
        let c = DriverConfig::alert();
        assert_eq!(c.reaction_time, Seconds::new(2.5));
        assert_eq!(c.accel_threshold, Accel::from_mps2(2.0));
        assert_eq!(c.brake_threshold, Accel::from_mps2(-3.5));
        assert_eq!(c.overspeed_factor, 1.1);
        assert!(c.attentive);
    }

    #[test]
    fn inattentive_only_differs_in_attention() {
        let a = DriverConfig::alert();
        let i = DriverConfig::inattentive();
        assert!(!i.attentive);
        assert_eq!(i.reaction_time, a.reaction_time);
    }
}
