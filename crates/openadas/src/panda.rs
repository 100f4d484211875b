//! A Panda-style CAN safety firmware model.
//!
//! Comma.ai's Panda adapter enforces hard limits on actuator messages
//! independent of the OpenPilot process. When OpenPilot runs against CARLA —
//! the paper's setup — Panda is *not* in the loop, which is why the paper's
//! fixed attack values (at OpenPilot's looser software limits) succeed; the
//! authors note those same attacks "may be detected by Panda's safety checks
//! if deployed on an actual vehicle" (§IV-E.4). The strategic values are
//! chosen inside this stricter envelope so they would pass even here.

use canbus::{decode_signal, CanFrame, VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, STEER_ANGLE_CMD};
use units::{Accel, Angle};

use crate::SafetyLimits;

/// Verdict for one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum PandaVerdict {
    /// The frame is within the safety envelope (or not a controlled message).
    Pass,
    /// The frame violates the envelope and is blocked.
    Blocked(
        /// Human-readable reason.
        String,
    ),
}

impl PandaVerdict {
    /// Whether the frame passed.
    pub fn passed(&self) -> bool {
        matches!(self, PandaVerdict::Pass)
    }
}

/// The firmware safety model: value limits on gas/brake and a rate limit on
/// steering.
#[derive(Debug)]
pub struct PandaSafety {
    dbc: VirtualCarDbc,
    limits: SafetyLimits,
    enabled: bool,
    last_steer: Angle,
    blocked: u64,
}

impl Default for PandaSafety {
    fn default() -> Self {
        Self::new(true)
    }
}

impl PandaSafety {
    /// Creates the safety model with the strict envelope.
    pub fn new(enabled: bool) -> Self {
        Self {
            dbc: VirtualCarDbc::new(),
            limits: SafetyLimits::strict(),
            enabled,
            last_steer: Angle::ZERO,
            blocked: 0,
        }
    }

    /// Whether checks are enforced. Disabled matches the paper's
    /// CARLA-integration setup.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of frames blocked so far.
    pub fn blocked_count(&self) -> u64 {
        self.blocked
    }

    /// Checks one outgoing frame against the envelope.
    ///
    /// Invalid checksums are blocked outright; gas/brake values must sit
    /// inside the strict limits; steering may change by at most the strict
    /// steer limit per frame (a rate check — absolute angles are the
    /// vehicle's business, jumps are an attack signature).
    pub fn check(&mut self, frame: &CanFrame) -> PandaVerdict {
        if !self.enabled {
            return PandaVerdict::Pass;
        }
        let verdict = self.evaluate(frame);
        if !verdict.passed() {
            self.blocked += 1;
        }
        verdict
    }

    fn evaluate(&mut self, frame: &CanFrame) -> PandaVerdict {
        if frame.id() == self.dbc.steering_control().id {
            // The allocation-free single-signal decode: the firmware model
            // sits on the per-frame hot path, so it must not build a
            // signal map per frame (R13).
            let deg = match decode_signal(self.dbc.steering_control(), frame, &STEER_ANGLE_CMD) {
                Ok(v) => v,
                Err(e) => return blocked(format_args!("steering frame: {e}")),
            };
            let steer = Angle::from_degrees(deg);
            let jump = (steer - self.last_steer).abs();
            if jump > self.limits.steer_max {
                return blocked(format_args!(
                    "steer change {:.3} deg exceeds {:.3} deg per frame",
                    jump.degrees(),
                    self.limits.steer_max.degrees()
                ));
            }
            self.last_steer = steer;
        } else if frame.id() == self.dbc.gas_command().id {
            let mps2 = match decode_signal(self.dbc.gas_command(), frame, &ACCEL_CMD) {
                Ok(v) => v,
                Err(e) => return blocked(format_args!("gas frame: {e}")),
            };
            let accel = Accel::from_mps2(mps2);
            if accel > self.limits.accel_max {
                return blocked(format_args!(
                    "accel {} exceeds {}",
                    accel, self.limits.accel_max
                ));
            }
        } else if frame.id() == self.dbc.brake_command().id {
            let mps2 = match decode_signal(self.dbc.brake_command(), frame, &BRAKE_CMD) {
                Ok(v) => v,
                Err(e) => return blocked(format_args!("brake frame: {e}")),
            };
            let brake = Accel::from_mps2(mps2);
            if brake < self.limits.brake_min {
                return blocked(format_args!(
                    "brake {} exceeds {}",
                    brake, self.limits.brake_min
                ));
            }
        }
        PandaVerdict::Pass
    }
}

/// Builds a blocked verdict — the safety model's only allocation, funneled
/// through one site so the hot-path proof has exactly one witness to
/// justify: verdict text exists only for frames the envelope rejects.
fn blocked(reason: std::fmt::Arguments<'_>) -> PandaVerdict {
    // adas-lint: allow(R13, reason = "verdict text is built only for a blocked frame — attack evidence, never a clean steady-state tick")
    PandaVerdict::Blocked(reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use canbus::Encoder;

    fn frames(accel: f64, brake: f64, steer: f64) -> Vec<CanFrame> {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        vec![
            enc.encode(dbc.gas_command(), &[("ACCEL_CMD", accel)])
                .unwrap(),
            enc.encode(dbc.brake_command(), &[("BRAKE_CMD", brake)])
                .unwrap(),
            enc.encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", steer)])
                .unwrap(),
        ]
    }

    #[test]
    fn strategic_attack_values_pass() {
        let mut panda = PandaSafety::new(true);
        for f in frames(2.0, -3.5, 0.25) {
            assert!(panda.check(&f).passed(), "{f}");
        }
        assert_eq!(panda.blocked_count(), 0);
    }

    #[test]
    fn fixed_attack_values_are_blocked() {
        let mut panda = PandaSafety::new(true);
        let fs = frames(2.4, -4.0, 0.5);
        let verdicts: Vec<bool> = fs.iter().map(|f| panda.check(f).passed()).collect();
        assert_eq!(verdicts, vec![false, false, false]);
        assert_eq!(panda.blocked_count(), 3);
    }

    #[test]
    fn smooth_steering_passes_rate_check() {
        let mut panda = PandaSafety::new(true);
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        // Ramp to 0.5 deg in 0.05 deg steps: each jump is tiny.
        for i in 0..10 {
            let f = enc
                .encode(
                    dbc.steering_control(),
                    &[("STEER_ANGLE_CMD", i as f64 * 0.05)],
                )
                .unwrap();
            assert!(panda.check(&f).passed(), "step {i}");
        }
    }

    #[test]
    fn steering_jump_is_blocked() {
        let mut panda = PandaSafety::new(true);
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let f = enc
            .encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", 0.5)])
            .unwrap();
        assert!(!panda.check(&f).passed(), "0 -> 0.5 deg jump blocked");
    }

    #[test]
    fn invalid_checksum_is_blocked() {
        let mut panda = PandaSafety::new(true);
        let mut fs = frames(1.0, 0.0, 0.0);
        fs[0].data_mut()[0] ^= 1;
        assert!(!panda.check(&fs[0]).passed());
    }

    #[test]
    fn disabled_panda_passes_everything() {
        // The paper's CARLA setup: Panda hardware not in the loop.
        let mut panda = PandaSafety::new(false);
        for f in frames(2.4, -4.0, 0.5) {
            assert!(panda.check(&f).passed());
        }
        assert_eq!(panda.blocked_count(), 0);
    }

    #[test]
    fn uncontrolled_messages_pass() {
        let mut panda = PandaSafety::new(true);
        let f = CanFrame::new(0x1D0, &[0xFF; 8]).unwrap();
        assert!(panda.check(&f).passed());
    }
}
