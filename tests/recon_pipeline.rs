//! End-to-end reconnaissance pipeline (paper §III-B): record a victim run,
//! reverse-engineer the CAN layout and the safety envelope offline, and
//! verify the recovered parameters are exactly the ones the strategic value
//! corruption uses.

use attack_core::recon::{analyze_can, SafetyEnvelopeEstimate};
use canbus::{CanBus, Capture};
use driving_sim::{Scenario, ScenarioId};
use msgbus::{Payload, Topic};
use openadas::{CommandEncoder, Enveloped};
use platform::{Harness, HarnessConfig};
use units::Distance;

fn record_benign_run(
    seed: u64,
) -> (
    Vec<(units::Tick, canbus::CanFrame)>,
    Vec<msgbus::schema::CarControl>,
) {
    let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
    let mut harness = Harness::new(HarnessConfig::no_attack(scenario, seed));
    let mut tap = harness.bus().subscribe(&[Topic::CarControl]);
    let mut can = CanBus::new();
    can.enable_capture();
    let mut encoder = CommandEncoder::new();
    let mut controls = Vec::new();
    while !harness.finished() {
        let tick = harness.step();
        for env in tap.drain() {
            if let Payload::CarControl(c) = env.payload() {
                controls.push(*c);
                let c = Enveloped::new(*c).expect("inside the envelope");
                for frame in encoder.encode(&c) {
                    can.send(tick, frame);
                }
            }
        }
        can.deliver(tick);
    }
    let capture = can.take_capture().expect("enabled");
    (Capture::parse(&capture.into_bytes()), controls)
}

#[test]
fn recon_recovers_the_attack_surface() {
    let (records, controls) = record_benign_run(99);
    assert_eq!(records.len(), 15_000, "3 command frames x 5,000 cycles");

    // CAN reverse-engineering finds exactly the three actuator commands.
    let profiles = analyze_can(&records);
    let commands: Vec<u16> = profiles
        .values()
        .filter(|p| p.looks_like_actuator_command())
        .map(|p| p.id)
        .collect();
    assert_eq!(commands, vec![0xE4, 0x1FA, 0x200]);
    for p in profiles.values() {
        assert!(p.honda_checksum, "0x{:X}", p.id);
        assert!(p.rolling_counter);
        assert!((p.period_ticks - 1.0).abs() < 1e-9, "100 Hz");
        // The value field sits at the head of the payload.
        assert_eq!(p.fields.first().map(|f| f.start_byte), Some(0));
    }

    // Envelope recovery brackets the true software clamps from below.
    let est = SafetyEnvelopeEstimate::from_controls(&controls);
    assert!(est.samples >= 4_000);
    assert!(
        est.accel_max.mps2() <= 2.0 + 1e-9,
        "never exceeds the clamp"
    );
    assert!(est.brake_min.mps2() >= -3.5 - 1e-9);
    assert!(est.steer_max.degrees() <= 0.5 + 1e-9);
    // A 50 s mixed run (cruise + approach + following) exercises the limits.
    assert!(est.accel_max.mps2() > 1.5, "observed near-max acceleration");
    assert!(est.brake_min.mps2() < -2.0, "observed firm braking");

    // The strategic attack values (Table III fn. 2) sit inside the
    // recovered envelope — which is the whole point of Eq. 1.
    assert!(est.accel_in_envelope(units::Accel::from_mps2(2.0).min(est.accel_max)));
    assert!(est.accel_in_envelope(units::Accel::from_mps2(-3.5).max(est.brake_min)));
}

#[test]
fn recon_is_deterministic() {
    let (a, _) = record_benign_run(5);
    let (b, _) = record_benign_run(5);
    assert_eq!(a, b);
    let (c, _) = record_benign_run(6);
    assert_ne!(a, c);
}
