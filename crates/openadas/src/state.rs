//! Fused car state.

use msgbus::schema::{CarState, GpsLocation};
use units::{Accel, Angle, Speed, DT};

use crate::Kalman1D;

/// Builds the `carState` stream: Kalman-filtered ego speed, derived
/// acceleration, and the cruise setting.
#[derive(Debug, Clone, PartialEq)]
pub struct CarStateEstimator {
    speed_filter: Option<Kalman1D>,
    state: CarState,
}

impl CarStateEstimator {
    /// Creates an estimator for a given cruise set-speed, initially engaged.
    pub fn new(v_cruise: Speed) -> Self {
        Self {
            speed_filter: None,
            state: CarState {
                v_ego: Speed::ZERO,
                a_ego: Accel::ZERO,
                steering_angle: Angle::ZERO,
                v_cruise,
                cruise_enabled: true,
            },
        }
    }

    /// The current fused state.
    pub fn state(&self) -> CarState {
        self.state
    }

    /// Disengages the ADAS (driver override).
    pub fn disengage(&mut self) {
        self.state.cruise_enabled = false;
    }

    /// Whether the ADAS is engaged.
    pub fn engaged(&self) -> bool {
        self.state.cruise_enabled
    }

    /// Normalized innovation a GPS speed sample would have against the
    /// current filter state, or `None` before the first sample anchored the
    /// filter. Used by the plausibility gate to vet a reading *before*
    /// [`Self::update`] fuses it.
    // adas-lint: allow(R1, reason = "normalized innovation is dimensionless (residual over its own sigma)")
    pub fn speed_innovation(&self, gps: &GpsLocation) -> Option<f64> {
        self.speed_filter
            .as_ref()
            .map(|f| f.normalized_innovation(gps.speed.mps()))
    }

    /// Feeds one GPS sample and the steering angle the controller last
    /// commanded; returns the fused state.
    pub fn update(&mut self, gps: &GpsLocation, applied_steer: Angle) -> CarState {
        let filter = self
            .speed_filter
            .get_or_insert_with(|| Kalman1D::new(gps.speed.mps(), 0.5, 0.02, 0.05));
        let prev_v = filter.estimate();
        filter.predict(0.0);
        let v = filter.update(gps.speed.mps());
        // Acceleration from the filtered speed, lightly smoothed.
        let raw_a = (v - prev_v) / DT.secs();
        let a = self.state.a_ego.mps2() * 0.9 + raw_a * 0.1;
        self.state.v_ego = Speed::from_mps(v.max(0.0));
        self.state.a_ego = Accel::from_mps2(a);
        self.state.steering_angle = applied_steer;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gps(v: f64) -> GpsLocation {
        GpsLocation {
            speed: Speed::from_mps(v),
            bearing: Angle::ZERO,
        }
    }

    #[test]
    fn speed_converges() {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        for _ in 0..100 {
            est.update(&gps(26.8), Angle::ZERO);
        }
        assert!((est.state().v_ego.mps() - 26.8).abs() < 0.05);
    }

    #[test]
    fn acceleration_tracks_speed_ramp() {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        let mut v = 20.0;
        for _ in 0..400 {
            v += 2.0 * DT.secs();
            est.update(&gps(v), Angle::ZERO);
        }
        let a = est.state().a_ego.mps2();
        assert!((a - 2.0).abs() < 0.5, "a_ego {a} should approximate 2");
    }

    #[test]
    fn disengage_latches() {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        assert!(est.engaged());
        est.disengage();
        est.update(&gps(20.0), Angle::ZERO);
        assert!(!est.engaged());
        assert!(!est.state().cruise_enabled);
    }

    #[test]
    fn steering_angle_passthrough() {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        let s = est.update(&gps(26.8), Angle::from_degrees(0.3));
        assert_eq!(s.steering_angle, Angle::from_degrees(0.3));
    }
}
