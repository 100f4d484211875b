//! Property-based tests on the ADAS controllers' envelopes and stability,
//! and on the `Enveloped` command type the CAN encoder demands.

use msgbus::schema::{CarControl, CarState};
use openadas::{
    AccController, AlcController, CommandEncoder, Enveloped, Kalman1D, LaneEstimate, LeadEstimate,
    SafetyLimits,
};
use proptest::prelude::*;
use units::{limits, Accel, Angle, Distance, Speed};

/// The physical steering bound in radians, the unit an [`Angle`] stores.
fn steer_bound() -> f64 {
    Angle::from_degrees(limits::PHYS_STEER_MAX_DEG).radians()
}

/// The physical envelope, spelled independently of `Enveloped::new`: both
/// fields finite and inside their bounds, bounds included.
fn admissible(accel: f64, steer_rad: f64) -> bool {
    let inside = |x: f64, lo: f64, hi: f64| x.is_finite() && lo <= x && x <= hi;
    inside(
        accel,
        limits::PHYS_BRAKE_MIN_MPS2,
        limits::PHYS_ACCEL_MAX_MPS2,
    ) && inside(steer_rad, -steer_bound(), steer_bound())
}

fn raw(accel: f64, steer_rad: f64) -> CarControl {
    CarControl {
        accel: Accel::from_mps2(accel),
        steer: Angle::from_radians(steer_rad),
    }
}

/// An admitted command must reach the wire: `encode_into` and
/// `quantize_cycle` agree on the decoded command, which sits within half a
/// DBC step of the input. This is the runtime half of the `const`
/// assertions in `openadas::controls` that the physical envelope lies
/// inside the command signals' range.
fn assert_encodes(command: &Enveloped) {
    let mut wire = CommandEncoder::new();
    let mut short = CommandEncoder::new();
    let mut frames = Vec::new();
    let sent = command.get();
    wire.encode_into(command, &mut frames);
    let quantized = short.quantize_cycle(command);
    assert_eq!(frames.len(), 3, "{sent:?}");
    let decoded = wire.decode_actuators(&frames, CarControl::default());
    assert_eq!(decoded, quantized.command, "{sent:?}");
    assert!(
        (decoded.accel.mps2() - sent.accel.mps2()).abs() <= 0.0005 + 1e-9,
        "{sent:?}"
    );
    assert!(
        (decoded.steer.degrees() - sent.steer.degrees()).abs() <= 0.005 + 1e-9,
        "{sent:?}"
    );
}

#[test]
fn enveloped_admits_exactly_the_finite_commands_inside_the_envelope() {
    let tiny = f64::from_bits(1); // the smallest subnormal
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
    ];
    let (lo, hi) = (limits::PHYS_BRAKE_MIN_MPS2, limits::PHYS_ACCEL_MAX_MPS2);
    let accels = specials.into_iter().chain([
        lo,
        lo.next_down(),
        lo.next_up(),
        hi,
        hi.next_up(),
        hi.next_down(),
    ]);
    let b = steer_bound();
    let steers: Vec<f64> = specials
        .into_iter()
        .chain([
            b,
            b.next_up(),
            b.next_down(),
            -b,
            (-b).next_down(),
            (-b).next_up(),
        ])
        .collect();
    let mut admitted = 0;
    for accel in accels {
        for &steer in &steers {
            let command = Enveloped::new(raw(accel, steer));
            assert_eq!(
                command.is_some(),
                admissible(accel, steer),
                "accel {accel:e} steer {steer:e} rad"
            );
            if let Some(command) = command {
                admitted += 1;
                assert_encodes(&command);
            }
        }
    }
    // Ten admissible values per field: ±0, the four subnormals, and each
    // bound with the float just inside it.
    assert_eq!(admitted, 10 * 10);
    // The bounds themselves, spelled as the constants, are inside.
    let corners = [
        (lo, -limits::PHYS_STEER_MAX_DEG),
        (hi, limits::PHYS_STEER_MAX_DEG),
    ];
    for (accel, steer_deg) in corners {
        let command = Enveloped::new(CarControl {
            accel: Accel::from_mps2(accel),
            steer: Angle::from_degrees(steer_deg),
        });
        assert!(command.is_some(), "{accel} {steer_deg}");
    }
}

/// A float drawn from the whole bit space (NaN payloads, ±∞, subnormals,
/// huge magnitudes) or from a band of 2.5 × `scale` around zero.
fn any_float(scale: f64) -> impl Strategy<Value = f64> {
    (any::<bool>(), any::<u64>(), -2.5..2.5f64).prop_map(move |(bits, pattern, x)| {
        if bits {
            f64::from_bits(pattern)
        } else {
            x * scale
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `Enveloped::new` admits a random command exactly when it is inside
    /// the envelope, and every admitted command reaches the wire.
    #[test]
    fn enveloped_admits_random_commands_iff_inside(
        accel in any_float(limits::PHYS_ACCEL_MAX_MPS2 - limits::PHYS_BRAKE_MIN_MPS2),
        steer in any_float(steer_bound()),
    ) {
        let command = Enveloped::new(raw(accel, steer));
        prop_assert_eq!(command.is_some(), admissible(accel, steer), "{} {}", accel, steer);
        if let Some(command) = command {
            prop_assert_eq!(command.get(), raw(accel, steer));
            assert_encodes(&command);
        }
    }
}

proptest! {
    /// The ACC command never leaves the strict envelope for any state.
    #[test]
    fn acc_respects_the_envelope(
        v in 0.0..45.0f64,
        cruise in 5.0..40.0f64,
        lead in proptest::option::of((1.0..200.0f64, 0.0..40.0f64)),
    ) {
        let acc = AccController::new();
        let car = CarState {
            v_ego: Speed::from_mps(v),
            v_cruise: Speed::from_mps(cruise),
            cruise_enabled: true,
            ..CarState::default()
        };
        let lead_est = lead.map(|(d, vl)| LeadEstimate {
            d_rel: Distance::meters(d),
            v_lead: Speed::from_mps(vl),
            a_lead: Accel::ZERO,
        });
        let out = acc.control(&car, lead_est.as_ref());
        prop_assert!(out.command.mps2() <= 2.0 + 1e-12);
        prop_assert!(out.command.mps2() >= -3.5 - 1e-12);
        prop_assert!(out.command.mps2().is_finite());
        // The raw demand is finite too (used by FCW-style checks).
        prop_assert!(out.desired.mps2().is_finite());
    }

    /// The ALC command is always inside the software clamp and finite.
    #[test]
    fn alc_respects_the_clamp(
        offset in -8.0..8.0f64,
        rate in -5.0..5.0f64,
        curvature in -0.01..0.01f64,
    ) {
        let alc = AlcController::new();
        let lane = LaneEstimate {
            offset: Distance::meters(offset),
            offset_rate: Speed::from_mps(rate),
            curvature,
            left_line: Distance::meters(1.85 - offset),
            right_line: Distance::meters(1.85 + offset),
            confidence: 1.0,
        };
        let out = alc.control(&lane);
        prop_assert!(out.command.degrees().abs() <= 0.5 + 1e-12);
        prop_assert!(out.command.degrees().is_finite());
        // Saturation flag is consistent with the desire exceeding the limit.
        prop_assert_eq!(out.saturated, out.desired.abs() > alc.saturation_limit);
    }

    /// ACC steers toward its fixed point: from any speed below cruise with a
    /// clear road, iterating controller+integrator converges near cruise.
    #[test]
    fn acc_converges_to_cruise(v0 in 1.0..35.0f64, cruise in 10.0..35.0f64) {
        let acc = AccController::new();
        let mut v = v0;
        for _ in 0..20_000 {
            let car = CarState {
                v_ego: Speed::from_mps(v),
                v_cruise: Speed::from_mps(cruise),
                cruise_enabled: true,
                ..CarState::default()
            };
            let a = acc.control(&car, None).command.mps2();
            v = (v + a * 0.01).max(0.0);
        }
        prop_assert!((v - cruise).abs() < 0.3, "v={v} cruise={cruise}");
    }

    /// Kalman filter estimates stay bounded by the measurement range.
    #[test]
    fn kalman_stays_in_measurement_hull(
        x0 in -50.0..50.0f64,
        zs in proptest::collection::vec(-30.0..30.0f64, 1..300),
    ) {
        let mut kf = Kalman1D::new(x0, 1.0, 0.01, 0.1);
        for z in &zs {
            kf.predict(0.0);
            kf.update(*z);
        }
        let lo = zs.iter().cloned().fold(f64::INFINITY, f64::min).min(x0);
        let hi = zs.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(x0);
        prop_assert!(kf.estimate() >= lo - 1e-9 && kf.estimate() <= hi + 1e-9);
        prop_assert!(kf.variance() > 0.0);
    }

    /// Both safety envelopes clamp into themselves (idempotent) and strict
    /// is a subset of software.
    #[test]
    fn envelope_clamps_are_idempotent(a in -20.0..20.0f64) {
        for limits in [SafetyLimits::software(), SafetyLimits::strict()] {
            let once = limits.clamp_accel(Accel::from_mps2(a));
            let twice = limits.clamp_accel(once);
            prop_assert_eq!(once, twice);
            prop_assert!(limits.accel_ok(once));
        }
        let strict = SafetyLimits::strict().clamp_accel(Accel::from_mps2(a));
        prop_assert!(SafetyLimits::software().accel_ok(strict), "strict ⊆ software");
    }
}
