//! Control-invariant detection (Choi et al., CCS'18 style).
//!
//! The invariant: the vehicle's measured response must track the response a
//! vehicle model predicts from the commands the *controller issued*. A
//! man-in-the-middle that replaces the actuator commands after the
//! controller breaks the invariant by construction — the car does what the
//! attacker said, not what the ADAS said — regardless of whether the
//! injected values look individually plausible.
//!
//! Residuals are accumulated with a CUSUM statistic so brief sensor noise
//! never alarms but a persistent deviation does.

use units::{Accel, Angle, Seconds, Speed, Tick, DT};

/// First-order lag of the modelled longitudinal actuator.
const ACCEL_TAU: Seconds = Seconds::new(0.25);
/// Time constant of the low-pass that turns noisy speed samples into a
/// measured-acceleration estimate.
const MEAS_TAU: Seconds = Seconds::new(0.8);
/// Acceleration mismatch absorbed without accumulating (m/s²): covers
/// modelling error plus filtered sensor noise.
const LONG_SLACK: f64 = 0.6;
/// CUSUM alarm threshold for the longitudinal statistic (m/s-equivalent:
/// mismatch × time in excess of the slack).
const LONG_THRESHOLD: f64 = 0.35;
/// Lateral-rate residual deadband (m/s): normal wander lives below it.
const LAT_DEADBAND: f64 = 0.8;
/// Lateral drift allowance per second above the deadband.
const LAT_SLACK: f64 = 0.2;
/// CUSUM alarm threshold for the lateral statistic.
const LAT_THRESHOLD: f64 = 0.6;

/// The detector. Feed it, per control cycle, the command the ADAS issued
/// (from `carControl`) and the measurements (speed from GPS, lateral offset
/// from the lane model); it predicts the response and integrates residuals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlInvariantDetector {
    /// Modelled realised acceleration (first-order lag of the command).
    a_model: f64,
    /// The model passed through the same low-pass as the measurement, so
    /// both sides lag identically and transients cancel.
    a_model_lp: f64,
    /// Low-passed measured acceleration.
    a_meas: f64,
    /// Previous speed sample.
    prev_speed: Option<f64>,
    /// Previous lateral offset, for the measured lateral rate.
    prev_offset: Option<f64>,
    /// Modelled lateral rate response to the commanded steering.
    lat_model: f64,
    cusum_long: f64,
    cusum_lat: f64,
    detected_at: Option<Tick>,
}

impl ControlInvariantDetector {
    /// First tick at which either invariant alarmed, if any.
    pub fn detected_at(&self) -> Option<Tick> {
        self.detected_at
    }

    /// Current CUSUM statistics `(longitudinal, lateral)` for inspection.
    pub fn statistics(&self) -> (f64, f64) {
        (self.cusum_long, self.cusum_lat)
    }

    /// Feeds one cycle. `commanded_*` are what the ADAS issued;
    /// `measured_speed` and `measured_offset` are the sensor readings.
    /// Returns `true` on the cycle the detector first alarms.
    pub fn step(
        &mut self,
        tick: Tick,
        commanded_accel: Accel,
        commanded_steer: Angle,
        measured_speed: Speed,
        measured_offset: f64,
    ) -> bool {
        let dt = DT.secs();

        // --- Longitudinal invariant: measured accel follows the command. ---
        let alpha = dt / (ACCEL_TAU.secs() + dt);
        self.a_model += (commanded_accel.mps2() - self.a_model) * alpha;
        let v_meas = measured_speed.mps();
        let raw_a = match self.prev_speed {
            Some(prev) => (v_meas - prev) / dt,
            None => self.a_model,
        };
        self.prev_speed = Some(v_meas);
        let beta = dt / (MEAS_TAU.secs() + dt);
        self.a_meas += (raw_a - self.a_meas) * beta;
        // A standing car cannot decelerate: at standstill a braking command
        // legitimately produces zero response.
        let model_effective = if v_meas < 0.3 {
            self.a_model.max(0.0)
        } else {
            self.a_model
        };
        self.a_model_lp += (model_effective - self.a_model_lp) * beta;
        let residual_long = (self.a_meas - self.a_model_lp).abs();
        self.cusum_long = (self.cusum_long + (residual_long - LONG_SLACK) * dt).max(0.0);

        // --- Lateral invariant: lateral rate follows the commanded steer. --
        // Model: commanded steer (wheel degrees) maps to an expected lateral
        // rate trend; large opposing motion is the signature of a steering
        // override. A first-order blend keeps it causal and cheap.
        let steer_gain = 2.0; // (m/s of lateral rate) per rad of wheel angle at speed
        let expected_rate = steer_gain * commanded_steer.radians() * v_meas / 26.8;
        self.lat_model += (expected_rate - self.lat_model) * (dt / 0.5);
        let measured_rate = match self.prev_offset {
            Some(prev) => (measured_offset - prev) / dt,
            None => 0.0,
        };
        self.prev_offset = Some(measured_offset);
        let residual_lat = (measured_rate - self.lat_model).abs();
        self.cusum_lat =
            (self.cusum_lat + ((residual_lat - LAT_DEADBAND).max(0.0) - LAT_SLACK) * dt).max(0.0);

        let alarm = self.cusum_long > LONG_THRESHOLD || self.cusum_lat > LAT_THRESHOLD;
        if alarm && self.detected_at.is_none() {
            self.detected_at = Some(tick);
        }
        alarm && self.detected_at == Some(tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates `steps` cycles where the executed accel equals `executed`
    /// while the detector is told the command was `commanded`.
    fn drive(
        det: &mut ControlInvariantDetector,
        commanded: f64,
        executed: f64,
        v0: f64,
        steps: u64,
    ) -> f64 {
        let mut v = v0;
        let mut a = 0.0;
        for i in 0..steps {
            let dt = DT.secs();
            a += (executed - a) * (dt / (0.25 + dt));
            v = (v + a * dt).max(0.0);
            det.step(
                Tick::new(i),
                Accel::from_mps2(commanded),
                Angle::ZERO,
                Speed::from_mps(v),
                0.0,
            );
        }
        v
    }

    #[test]
    fn faithful_execution_never_alarms() {
        let mut det = ControlInvariantDetector::default();
        drive(&mut det, 1.5, 1.5, 20.0, 2_000);
        assert_eq!(det.detected_at(), None);
        let mut det = ControlInvariantDetector::default();
        drive(&mut det, -3.0, -3.0, 25.0, 2_000);
        assert_eq!(det.detected_at(), None);
    }

    #[test]
    fn command_override_is_detected_quickly() {
        let mut det = ControlInvariantDetector::default();
        // ADAS commanded mild braking; the attacker executed +2.4.
        drive(&mut det, -0.5, 2.4, 20.0, 300);
        let t = det.detected_at().expect("override detected");
        assert!(
            t.time().secs() < 1.5,
            "detected in {:.2}s, well inside the driver's 2.5 s",
            t.time().secs()
        );
    }

    #[test]
    fn small_mismatch_within_noise_is_tolerated() {
        let mut det = ControlInvariantDetector::default();
        // 0.3 m/s^2 modelling error: below the slack.
        drive(&mut det, 1.0, 1.3, 20.0, 3_000);
        assert_eq!(det.detected_at(), None);
    }

    #[test]
    fn lateral_override_is_detected() {
        let mut det = ControlInvariantDetector::default();
        // ADAS commands centre-keeping (~0 steer) but the car slides out at
        // 1.8 m/s (a hard steering override at speed).
        let mut offset = 0.0;
        for i in 0..400 {
            offset += 1.8 * DT.secs();
            det.step(
                Tick::new(i),
                Accel::ZERO,
                Angle::from_degrees(0.05),
                Speed::from_mps(26.8),
                offset,
            );
        }
        let t = det.detected_at().expect("lateral override detected");
        assert!(t.time().secs() < 2.0, "got {:.2}s", t.time().secs());
    }

    #[test]
    fn normal_wander_does_not_alarm_laterally() {
        let mut det = ControlInvariantDetector::default();
        // Sinusoidal wander ±0.4 m at 0.1 Hz with matching mild steering.
        for i in 0..5_000u64 {
            let t = i as f64 * DT.secs();
            let offset = 0.4 * (0.63 * t).sin();
            let steer = Angle::from_radians(0.004 * (0.63 * t).cos());
            det.step(
                Tick::new(i),
                Accel::ZERO,
                steer,
                Speed::from_mps(22.0),
                offset,
            );
        }
        assert_eq!(det.detected_at(), None);
    }
}
