//! The ADAS output safety envelope.
//!
//! Two nested envelopes exist in the paper (Table III):
//!
//! * the **software limits** OpenPilot's control code enforces on its own
//!   outputs — `accel ≤ 2.4 m/s²`, `brake ≥ −4.0 m/s²`, `|steer| ≤ 0.5°`.
//!   The *fixed* attack values sit exactly at these limits, so they pass the
//!   software checks;
//! * the **strict limits** used by the Panda firmware checks, the driver's
//!   anomaly perception, and the strategic value corruption —
//!   `accel ≤ 2.0 m/s²`, `brake ≥ −3.5 m/s²`, `|steer| ≤ 0.25°`, plus
//!   `speed ≤ 1.1 × v_cruise`, which only the driver model reads
//!   (`units::limits::STRICT_OVERSPEED_FACTOR`).

use msgbus::schema::CarControl;
use units::{limits, Accel, Angle};

/// A set of actuator-output limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyLimits {
    /// Maximum commanded acceleration.
    pub accel_max: Accel,
    /// Strongest commanded deceleration (negative).
    pub brake_min: Accel,
    /// Maximum commanded road-wheel steering magnitude.
    pub steer_max: Angle,
}

impl SafetyLimits {
    /// OpenPilot's software output limits (Table III footnote 1), sourced
    /// from the canonical [`units::limits`] module.
    pub fn software() -> Self {
        Self {
            accel_max: Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2),
            brake_min: Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2),
            steer_max: Angle::from_degrees(limits::SW_STEER_MAX_DEG),
        }
    }

    /// The strict envelope: Panda-style firmware checks, the driver's
    /// anomaly thresholds, and the strategic corruption limits (Table III
    /// footnote 2 and Eq. 1).
    pub fn strict() -> Self {
        Self {
            accel_max: Accel::from_mps2(limits::STRICT_ACCEL_MAX_MPS2),
            brake_min: Accel::from_mps2(limits::STRICT_BRAKE_MIN_MPS2),
            steer_max: Angle::from_degrees(limits::STRICT_STEER_MAX_DEG),
        }
    }

    /// Clamps a longitudinal command into the envelope.
    pub fn clamp_accel(&self, a: Accel) -> Accel {
        a.clamp(self.brake_min, self.accel_max)
    }

    /// Clamps a steering command into the envelope.
    pub fn clamp_steer(&self, s: Angle) -> Angle {
        s.clamp(-self.steer_max, self.steer_max)
    }

    /// Whether a longitudinal command is *within* the envelope (boundary
    /// values pass — the reason fixed attack values evade the software
    /// checks).
    pub fn accel_ok(&self, a: Accel) -> bool {
        a <= self.accel_max && a >= self.brake_min
    }
}

/// The final output envelope: clamps an assembled control command into the
/// software limits immediately before it reaches the CAN encoder.
///
/// On the nominal path the clamp is a no-op (the ACC command is already
/// strict-clamped and the ALC command software-clamped), but it converts
/// "every upstream stage behaved" from an assumption into a local
/// invariant. A NaN passes any clamp; [`Enveloped::new`], which the
/// encoder's input type demands next, is what turns one away. Every finite
/// command this returns is inside the software envelope, so inside the
/// physical one (the `const` assertions in [`units::limits`] keep the two
/// nested), and `Enveloped::new` admits it.
pub fn envelope_clamp(control: CarControl) -> CarControl {
    CarControl {
        accel: control.accel.clamp(
            Accel::from_mps2(limits::SW_BRAKE_MIN_MPS2),
            Accel::from_mps2(limits::SW_ACCEL_MAX_MPS2),
        ),
        steer: control.steer.clamp(
            Angle::from_degrees(-limits::SW_STEER_MAX_DEG),
            Angle::from_degrees(limits::SW_STEER_MAX_DEG),
        ),
    }
}

/// A [`CarControl`] inside the physical plant envelope of
/// [`units::limits`]: finite, `accel` within
/// `[PHYS_BRAKE_MIN_MPS2, PHYS_ACCEL_MAX_MPS2]` and `steer` within
/// `±PHYS_STEER_MAX_DEG`. The field is private and [`Enveloped::new`] is the
/// only constructor, so holding one is the proof that the command may go
/// on the bus. The simulated plant saturates inside this envelope, at
/// `PLANT_BRAKE_MIN_MPS2` (−8.0) and `PLANT_ACCEL_MAX_MPS2` (3.0): a
/// command between the plant's limits and the envelope's, such as 4 or −9
/// m/s², is admitted and encoded as sent, and the plant executes its own
/// limit instead. It is the only command type
/// [`CommandEncoder`](crate::CommandEncoder) encodes or quantizes:
///
/// ```
/// use msgbus::schema::CarControl;
/// use openadas::{CommandEncoder, Enveloped};
///
/// let mut encoder = CommandEncoder::new();
/// let mut frames = Vec::new();
/// let command = Enveloped::new(CarControl::default()).expect("zero is inside");
/// encoder.encode_into(&command, &mut frames);
/// assert_eq!(frames.len(), 3);
/// assert_eq!(encoder.quantize_cycle(&command).command, CarControl::default());
/// ```
///
/// A raw command, such as one taken before `envelope_clamp`, does not
/// compile at either sink:
///
/// ```compile_fail,E0308
/// use msgbus::schema::CarControl;
/// use openadas::CommandEncoder;
///
/// let mut encoder = CommandEncoder::new();
/// let mut frames = Vec::new();
/// encoder.encode_into(&CarControl::default(), &mut frames);
/// ```
///
/// ```compile_fail,E0308
/// use msgbus::schema::CarControl;
/// use openadas::CommandEncoder;
///
/// let mut encoder = CommandEncoder::new();
/// let _ = encoder.quantize_cycle(&CarControl::default());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Enveloped(CarControl);

impl Enveloped {
    /// Admits `control` if both fields are inside the physical envelope
    /// (bounds included); `None` for NaN, ±∞ or any value past a bound.
    pub fn new(control: CarControl) -> Option<Self> {
        let accel = Accel::from_mps2(limits::PHYS_BRAKE_MIN_MPS2)
            ..=Accel::from_mps2(limits::PHYS_ACCEL_MAX_MPS2);
        let steer_max = Angle::from_degrees(limits::PHYS_STEER_MAX_DEG);
        // NaN compares false with every bound, so `contains` rejects it.
        (accel.contains(&control.accel) && (-steer_max..=steer_max).contains(&control.steer))
            .then_some(Self(control))
    }

    /// The admitted command.
    pub fn get(self) -> CarControl {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_tighter_than_software() {
        let sw = SafetyLimits::software();
        let st = SafetyLimits::strict();
        assert!(st.accel_max < sw.accel_max);
        assert!(st.brake_min > sw.brake_min);
        assert!(st.steer_max < sw.steer_max);
    }

    #[test]
    fn fixed_attack_values_pass_software_but_fail_strict() {
        // Table III: fixed = (2.4, -4.0, 0.5 deg); strategic = (2.0, -3.5, 0.25 deg).
        let sw = SafetyLimits::software();
        let st = SafetyLimits::strict();
        assert!(sw.accel_ok(Accel::from_mps2(2.4)));
        assert!(sw.accel_ok(Accel::from_mps2(-4.0)));
        assert!(Angle::from_degrees(0.5) <= sw.steer_max);
        assert!(!st.accel_ok(Accel::from_mps2(2.4)));
        assert!(!st.accel_ok(Accel::from_mps2(-4.0)));
        assert!(Angle::from_degrees(0.5) > st.steer_max);
    }

    #[test]
    fn strategic_values_pass_both() {
        for limits in [SafetyLimits::software(), SafetyLimits::strict()] {
            assert!(limits.accel_ok(Accel::from_mps2(2.0)));
            assert!(limits.accel_ok(Accel::from_mps2(-3.5)));
            assert!(Angle::from_degrees(0.25) <= limits.steer_max);
            assert!(Angle::from_degrees(-0.25).abs() <= limits.steer_max);
        }
    }

    #[test]
    fn clamping() {
        let st = SafetyLimits::strict();
        assert_eq!(st.clamp_accel(Accel::from_mps2(5.0)), Accel::from_mps2(2.0));
        assert_eq!(
            st.clamp_accel(Accel::from_mps2(-9.0)),
            Accel::from_mps2(-3.5)
        );
        assert_eq!(
            st.clamp_steer(Angle::from_degrees(1.0)),
            Angle::from_degrees(0.25)
        );
    }
}
