//! Step 4 of the attack: strategic value corruption (paper Eq. 1–3).
//!
//! The attacker wants to maximise hazard probability while staying inside
//! every envelope that is checked — the ADAS software limits, the firmware
//! (Panda) limits, and the human driver's anomaly perception:
//!
//! ```text
//! minimize_TTH  max Pr{ x_{t+TTH} ∈ Hazardous }
//!   s.t.  brake ≥ limit_brake,  accel ≤ limit_accel,  Δsteer < limit_steer,
//!         v̂_{t+1} ≤ 1.1 v_cruise                                    (Eq. 1)
//!         v̂_{t+1|t} = v̂_t + accel·Δt                                (Eq. 2)
//!         v̂_{t+1}  = v̂_{t+1|t} + K_t (v_{t+1} − v̂_{t+1|t})          (Eq. 3)
//! ```
//!
//! The per-axis solution is bang-bang: drive each corrupted output at the
//! binding constraint. Only the acceleration axis needs the speed predictor:
//! near the overspeed ceiling the injected value tapers so the *next-step*
//! predicted speed never crosses `1.1 v_cruise`.

use units::{limits, Accel, Angle, Speed, DT};

use crate::{AttackAction, AttackValues, SteerDirection, ValueMode};

/// The Kalman-style one-step speed predictor of Eq. 2–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedPredictor {
    v_hat: f64,
    gain: f64,
    initialized: bool,
}

impl Default for SpeedPredictor {
    fn default() -> Self {
        Self::new(0.3)
    }
}

impl SpeedPredictor {
    /// Creates a predictor with Kalman gain `K_t` (held constant — the
    /// filter reaches steady state within a few samples anyway).
    ///
    /// # Panics
    ///
    /// Panics if the gain is outside `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        Self {
            v_hat: 0.0,
            gain,
            initialized: false,
        }
    }

    /// Current speed estimate `v̂_t`.
    pub fn estimate(&self) -> Speed {
        Speed::from_mps(self.v_hat)
    }

    /// Eq. 2: propagate the estimate through the injected acceleration.
    pub fn predict(&mut self, accel: Accel) {
        self.v_hat += accel.mps2() * DT.secs();
    }

    /// Eq. 3: correct with the next eavesdropped speed measurement.
    pub fn correct(&mut self, measured: Speed) {
        if !self.initialized {
            self.v_hat = measured.mps();
            self.initialized = true;
        } else {
            self.v_hat += self.gain * (measured.mps() - self.v_hat);
        }
    }
}

/// Computes injected values for the active attack actions.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionPolicy {
    mode: ValueMode,
    predictor: SpeedPredictor,
}

/// Fixed-mode values: the ADAS software limits (Table III footnote 1).
/// The attacker reads the same canonical constants the defender enforces —
/// the paper's premise that fixed values sit exactly at the checked bounds.
const FIXED_ACCEL: Accel = Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2);
const FIXED_BRAKE: Accel = Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2);
const FIXED_STEER_DEG: f64 = limits::SW_STEER_MAX_DEG;

/// Strategic-mode values: the strict envelope (Table III footnote 2).
const STRATEGIC_ACCEL: Accel = Accel::from_mps2(limits::STRICT_ACCEL_MAX_MPS2);
const STRATEGIC_BRAKE: Accel = Accel::from_mps2(limits::STRICT_BRAKE_MIN_MPS2);
const STRATEGIC_STEER_DEG: f64 = limits::STRICT_STEER_MAX_DEG;
/// Eq. 1 overspeed ceiling.
const OVERSPEED_FACTOR: f64 = limits::STRICT_OVERSPEED_FACTOR;

impl CorruptionPolicy {
    /// Creates a policy for the given value mode.
    pub fn new(mode: ValueMode) -> Self {
        Self {
            mode,
            predictor: SpeedPredictor::default(),
        }
    }

    /// The value mode in use.
    pub fn mode(&self) -> ValueMode {
        self.mode
    }

    /// Feeds the latest eavesdropped ego speed (Eq. 3).
    pub fn observe_speed(&mut self, v: Speed) {
        self.predictor.correct(v);
    }

    /// Computes this cycle's injected values for the active actions and
    /// propagates the speed predictor through them (Eq. 2).
    pub fn values(
        &mut self,
        longitudinal: Option<AttackAction>,
        steer: Option<SteerDirection>,
        v_cruise: Speed,
    ) -> AttackValues {
        let (accel, brake) = match longitudinal {
            Some(AttackAction::Accelerate) => {
                let accel = match self.mode {
                    ValueMode::Fixed => FIXED_ACCEL,
                    ValueMode::Strategic => {
                        // Largest accel keeping v̂_{t+1} ≤ 1.1 v_cruise.
                        let ceiling = v_cruise.mps() * OVERSPEED_FACTOR;
                        let headroom = (ceiling - self.predictor.estimate().mps()) / DT.secs();
                        Accel::from_mps2(headroom.clamp(0.0, STRATEGIC_ACCEL.mps2()))
                    }
                };
                self.predictor.predict(accel);
                (Some(accel), Some(Accel::ZERO))
            }
            Some(AttackAction::Decelerate) => {
                let brake = match self.mode {
                    ValueMode::Fixed => FIXED_BRAKE,
                    ValueMode::Strategic => STRATEGIC_BRAKE,
                };
                self.predictor.predict(brake);
                (Some(Accel::ZERO), Some(brake))
            }
            // Steering corruption carries no longitudinal component.
            None | Some(AttackAction::Steer(_)) => (None, None),
        };
        let steer = steer.map(|direction| {
            let magnitude = match self.mode {
                ValueMode::Fixed => FIXED_STEER_DEG,
                ValueMode::Strategic => STRATEGIC_STEER_DEG,
            };
            Angle::from_degrees(direction.sign() * magnitude)
        });
        AttackValues::new(accel, brake, steer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_values_match_table_iii_footnote_1() {
        let mut p = CorruptionPolicy::new(ValueMode::Fixed);
        let v = p.values(
            Some(AttackAction::Accelerate),
            Some(SteerDirection::Right),
            Speed::from_mph(60.0),
        );
        assert_eq!(
            v,
            AttackValues::new(
                Some(Accel::from_mps2(2.4)),
                Some(Accel::ZERO),
                Some(Angle::from_degrees(-0.5))
            )
        );

        let v = p.values(Some(AttackAction::Decelerate), None, Speed::from_mph(60.0));
        assert_eq!(
            v,
            AttackValues::new(Some(Accel::ZERO), Some(Accel::from_mps2(-4.0)), None)
        );
    }

    #[test]
    fn strategic_values_match_table_iii_footnote_2() {
        let mut p = CorruptionPolicy::new(ValueMode::Strategic);
        p.observe_speed(Speed::from_mph(60.0));
        let v = p.values(
            Some(AttackAction::Decelerate),
            Some(SteerDirection::Left),
            Speed::from_mph(60.0),
        );
        assert_eq!(
            v,
            AttackValues::new(
                Some(Accel::ZERO),
                Some(Accel::from_mps2(-3.5)),
                Some(Angle::from_degrees(0.25))
            )
        );
    }

    #[test]
    fn strategic_accel_respects_overspeed_ceiling() {
        let mut p = CorruptionPolicy::new(ValueMode::Strategic);
        let cruise = Speed::from_mph(60.0);
        p.observe_speed(cruise);
        // Far from the ceiling: full strategic acceleration.
        let v = p.values(Some(AttackAction::Accelerate), None, cruise);
        assert_eq!(
            v,
            AttackValues::new(Some(Accel::from_mps2(2.0)), Some(Accel::ZERO), None)
        );
        // At the ceiling (give the Eq. 3 gain time to converge): essentially
        // no further acceleration.
        for _ in 0..200 {
            p.observe_speed(Speed::from_mps(cruise.mps() * 1.1));
        }
        let v = p.values(Some(AttackAction::Accelerate), None, cruise);
        assert!(v.accel().unwrap().mps2() < 0.05, "got {v:?}");
    }

    #[test]
    fn strategic_accel_never_overshoots_in_closed_loop() {
        // Simulate the speed actually following the injected accel exactly.
        let mut p = CorruptionPolicy::new(ValueMode::Strategic);
        let cruise = Speed::from_mph(60.0);
        let mut v = cruise.mps();
        p.observe_speed(Speed::from_mps(v));
        for _ in 0..5000 {
            let vals = p.values(Some(AttackAction::Accelerate), None, cruise);
            let a = vals.accel().unwrap().mps2();
            assert!((0.0..=2.0).contains(&a));
            v += a * DT.secs();
            p.observe_speed(Speed::from_mps(v));
            assert!(
                v <= cruise.mps() * 1.1 + 1e-6,
                "speed {v} exceeded the 1.1x ceiling"
            );
        }
        // And the attack drives speed essentially *to* the ceiling.
        assert!(v > cruise.mps() * 1.099);
    }

    #[test]
    fn predictor_tracks_measurements() {
        let mut sp = SpeedPredictor::new(0.3);
        sp.correct(Speed::from_mps(20.0));
        assert_eq!(sp.estimate(), Speed::from_mps(20.0), "first sample snaps");
        sp.predict(Accel::from_mps2(2.0));
        assert!((sp.estimate().mps() - 20.02).abs() < 1e-12);
        sp.correct(Speed::from_mps(20.5));
        let expected = 20.02 + 0.3 * (20.5 - 20.02);
        assert!((sp.estimate().mps() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gain must be in (0, 1]")]
    fn predictor_rejects_bad_gain() {
        let _ = SpeedPredictor::new(0.0);
    }

    #[test]
    fn no_actions_no_values() {
        let mut p = CorruptionPolicy::new(ValueMode::Strategic);
        assert_eq!(
            p.values(None, None, Speed::from_mph(60.0)),
            AttackValues::default()
        );
    }
}
