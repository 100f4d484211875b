//! Automated Lane Centering: the lateral controller.

use units::{Angle, Distance};

use crate::perception::LaneEstimate;
use crate::SafetyLimits;

/// Lateral control output, before and after the safety clamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlcOutput {
    /// The raw desired road-wheel angle (drives the steer-saturated alert).
    pub desired: Angle,
    /// The clamped command sent toward the actuators.
    pub command: Angle,
    /// Whether the desired angle exceeded the saturation limit this cycle.
    pub saturated: bool,
}

/// A feed-forward + PD lane-centering controller.
///
/// Feed-forward holds the road curvature (`δ_ff = atan(L κ)`); the PD terms
/// pull the car back to the lane centre. Gains are deliberately soft — like
/// the system the paper measured, the controller does "not keep the Ego
/// vehicle in the center of the lane at all times" (Observation 1): sensor
/// drift walks the car around the lane and occasionally onto a lane line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlcController {
    /// Wheelbase used for the curvature feed-forward.
    pub wheelbase: Distance,
    /// Steering-column ratio: the controller computes a road-wheel angle
    /// and commands `ratio ×` that at the steering wheel.
    pub steering_ratio: f64,
    /// Proportional gain: radians of road-wheel angle per metre of offset.
    pub k_p: f64,
    /// Derivative gain: radians per (m/s) of lateral rate.
    pub k_d: f64,
    /// Lateral set-point relative to the lane centre. OpenPilot-class lane
    /// centering is known to hug the outside of a curve slightly; on the
    /// paper's left curve that is the right-hand side — the bias behind the
    /// ego being "initialized to a lane closer to the right guardrail".
    pub offset_setpoint: Distance,
    /// Saturation threshold on the *desired* angle; exceeding it sustained
    /// raises the `steerSaturated` alert.
    pub saturation_limit: Angle,
    limits: SafetyLimits,
}

impl Default for AlcController {
    fn default() -> Self {
        Self {
            wheelbase: Distance::meters(2.7),
            steering_ratio: 2.0,
            k_p: 0.0020,
            k_d: 0.0040,
            offset_setpoint: Distance::meters(-0.2),
            saturation_limit: Angle::from_degrees(1.25),
            limits: SafetyLimits::software(),
        }
    }
}

impl AlcController {
    /// Creates the default controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the steering command for this cycle.
    ///
    /// The proportional term is piecewise: soft inside the normal wander
    /// band (±0.6 m of the set-point), three times stiffer beyond it. The
    /// soft inner band reproduces the paper's imperfect lane-centering; the
    /// stiff outer band is the "1-second delay before the vehicle
    /// significantly deviates from its original path" guarantee — the
    /// controller genuinely fights a real departure.
    pub fn control(&self, lane: &LaneEstimate) -> AlcOutput {
        let ff = (self.wheelbase.raw() * lane.curvature).atan();
        let err = lane.offset.raw() - self.offset_setpoint.raw();
        let band = 0.6;
        let shaped_err = if err.abs() <= band {
            err
        } else {
            err.signum() * (band + 3.0 * (err.abs() - band))
        };
        let correction = -self.k_p * shaped_err - self.k_d * lane.offset_rate.mps();
        let desired = Angle::from_radians(self.steering_ratio * (ff + correction));
        let saturated = desired.abs() > self.saturation_limit;
        AlcOutput {
            desired,
            command: self.limits.clamp_steer(desired),
            saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Speed;

    fn lane(offset: f64, rate: f64, curvature: f64) -> LaneEstimate {
        LaneEstimate {
            offset: Distance::meters(offset),
            offset_rate: Speed::from_mps(rate),
            curvature,
            left_line: Distance::meters(1.85 - offset),
            right_line: Distance::meters(1.85 + offset),
            confidence: 1.0,
        }
    }

    #[test]
    fn feed_forward_matches_curvature() {
        let alc = AlcController::new();
        // Sitting exactly on the set-point of the paper's R = 800 m left
        // curve: the command is the pure curvature feed-forward.
        let out = alc.control(&lane(alc.offset_setpoint.raw(), 0.0, 1.0 / 2500.0));
        let expected = (alc.steering_ratio * (2.7f64 / 2500.0).atan()).to_degrees();
        assert!((out.command.degrees() - expected).abs() < 1e-9);
        assert!(!out.saturated);
    }

    #[test]
    fn corrects_toward_centre() {
        let alc = AlcController::new();
        // Car left of centre: steer right (negative).
        let out = alc.control(&lane(0.5, 0.0, 0.0));
        assert!(out.command.radians() < 0.0);
        // Car right of centre: steer left.
        let out = alc.control(&lane(-0.5, 0.0, 0.0));
        assert!(out.command.radians() > 0.0);
    }

    #[test]
    fn derivative_damps_motion() {
        let alc = AlcController::new();
        // Centred but moving left fast: pre-emptively steer right.
        let out = alc.control(&lane(0.0, 1.0, 0.0));
        assert!(out.command.radians() < 0.0);
    }

    #[test]
    fn saturation_flag_and_clamp() {
        let alc = AlcController::new();
        // A 3 m offset demands far more than 0.5 degrees.
        let out = alc.control(&lane(-3.0, -1.0, 0.0));
        assert!(out.saturated);
        assert_eq!(out.command, Angle::from_degrees(0.5), "clamped at limit");
        assert!(out.desired > out.command);
    }

    #[test]
    fn normal_lane_keeping_never_saturates() {
        let alc = AlcController::new();
        // Typical operating range on the paper's curve: |offset| < 1 m.
        for offset10 in -10..=10 {
            let offset = offset10 as f64 / 10.0;
            let out = alc.control(&lane(offset, 0.0, 1.0 / 800.0));
            assert!(
                !out.saturated,
                "offset {offset} m must not saturate (desired {})",
                out.desired
            );
        }
    }
}
