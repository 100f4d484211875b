//! The attacker's offline preparation (paper §III-B): record a victim's
//! traffic, reverse-engineer the CAN layout, and recover the safety
//! envelope that the strategic value corruption must respect.
//!
//! ```bash
//! cargo run --release --example recon
//! ```

use attack_core::recon::{analyze_can, SafetyEnvelopeEstimate};
use canbus::{CanBus, Capture};
use driving_sim::{Scenario, ScenarioId};
use msgbus::{Payload, Topic};
use openadas::{CommandEncoder, Enveloped};
use platform::{Harness, HarnessConfig};
use units::Distance;

fn main() {
    // Phase 1: ride along in a benign car, recording everything.
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let mut harness = Harness::new(HarnessConfig::no_attack(scenario, 13));
    let mut control_tap = harness.bus().subscribe(&[Topic::CarControl]);
    let mut can = CanBus::new();
    can.enable_capture();
    let mut encoder = CommandEncoder::new();
    let mut controls = Vec::new();

    while !harness.finished() {
        let tick = harness.step();
        for env in control_tap.drain() {
            if let Payload::CarControl(c) = env.payload() {
                controls.push(*c);
                // Mirror the command onto a recorded CAN segment the way the
                // in-car tap sees it.
                let c = Enveloped::new(*c).expect("published commands are inside the envelope");
                for frame in encoder.encode(&c) {
                    can.send(tick, frame);
                }
            }
        }
        can.deliver(tick);
    }

    // Phase 2: offline CAN reverse-engineering.
    let capture = can.take_capture().expect("capture enabled");
    println!("captured {} frames over 50 s\n", capture.len());
    let records = Capture::parse(&capture.into_bytes());
    let profiles = analyze_can(&records);
    println!(
        "{:<6} {:>6} {:>8} {:>9} {:>8} {:>8}  inferred fields",
        "id", "count", "rate", "checksum", "counter", "command"
    );
    for (id, p) in &profiles {
        println!(
            "0x{id:03X} {:>6} {:>6.0}Hz {:>9} {:>8} {:>8}  {:?}",
            p.count,
            100.0 / p.period_ticks.max(1e-9),
            p.honda_checksum,
            p.rolling_counter,
            p.looks_like_actuator_command(),
            p.fields,
        );
    }

    // Phase 3: safety-envelope recovery (the Eq. 1 constraint set).
    let envelope = SafetyEnvelopeEstimate::from_controls(&controls);
    println!(
        "\nrecovered safety envelope from {} carControl samples:",
        envelope.samples
    );
    println!(
        "  accel_max ≈ {:.2} m/s²  (true software limit: 2.0 in normal operation)",
        envelope.accel_max.mps2()
    );
    println!(
        "  brake_min ≈ {:.2} m/s²  (true software limit: -3.5)",
        envelope.brake_min.mps2()
    );
    println!(
        "  steer_max ≈ {:.2}°     (true software clamp: 0.5°)",
        envelope.steer_max.degrees()
    );
    println!(
        "\nA strategic attack constrained to this envelope (paper Eq. 1-3) is\n\
         indistinguishable, value-wise, from the ADAS's own commands."
    );
}
