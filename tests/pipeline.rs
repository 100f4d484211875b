//! End-to-end pipeline integration tests: sensors → bus → ADAS → CAN →
//! attack MITM → actuators → physics, across all the crates at once.

use attack_core::{AttackConfig, AttackType, AttackValues, StrategyKind, ValueMode};
use canbus::{decode, VirtualCarDbc};
use driving_sim::{Scenario, ScenarioId};
use msgbus::{Payload, Topic};
use platform::{trace_assert, Harness, HarnessConfig, TraceConfig};
use units::{Accel, Angle, Distance};

fn scenario() -> Scenario {
    Scenario::new(ScenarioId::S2, Distance::meters(70.0))
}

/// The ADAS keeps the car following the lead for a whole attack-free run:
/// speed converges near the lead's, the gap stabilises around the desired
/// following distance, and the car stays in its lane. Runs with the flight
/// recorder attached so a failure prints the final trace ticks.
#[test]
fn closed_loop_following_is_stable() {
    let mut h =
        Harness::new(HarnessConfig::no_attack(scenario(), 21).traced(TraceConfig::enabled(64)));
    while !h.finished() {
        h.step();
    }
    let w = h.world();
    let v = w.ego().speed().mph();
    trace_assert!(
        h,
        (45.0..55.0).contains(&v),
        "settled near the 50 mph lead, got {v:.1} mph"
    );
    let hwt = w.gap().raw() / w.ego().speed().mps();
    trace_assert!(
        h,
        (1.8..3.2).contains(&hwt),
        "headway near the 2.2 s policy + 4 m, got {hwt:.2} s"
    );
    trace_assert!(h, w.ego().d().raw().abs() < 1.0, "still in lane");
}

/// Every message topic sees traffic each control cycle, and an external
/// subscriber (like the attacker) observes all of it.
#[test]
fn bus_carries_all_topics_every_cycle() {
    let mut h = Harness::new(HarnessConfig::no_attack(scenario(), 4));
    let mut sub = h.bus().subscribe(&Topic::ALL);
    for _ in 0..100 {
        h.step();
    }
    let msgs = sub.drain();
    // 3 sensor + 3 ADAS messages per tick.
    assert_eq!(msgs.len(), 600);
    for topic in Topic::ALL {
        assert_eq!(
            msgs.iter().filter(|m| m.topic() == topic).count(),
            100,
            "{topic} publishes once per cycle"
        );
    }
    // carControl reflects a sane command.
    let last_ctrl = msgs
        .iter()
        .rev()
        .find(|m| m.topic() == Topic::CarControl)
        .unwrap();
    if let Payload::CarControl(c) = last_ctrl.payload() {
        assert!(c.accel.mps2().abs() <= 3.5);
        assert!(c.steer.degrees().abs() <= 0.5);
    } else {
        panic!("expected carControl payload");
    }
}

/// The attack engine's frame rewrites carry valid checksums end to end: an
/// independent decoder accepts every frame the actuators accepted.
#[test]
fn attacked_frames_always_verify() {
    let attack = AttackConfig {
        attack_type: AttackType::AccelerationSteering,
        strategy: StrategyKind::RandomSt,
        value_mode: ValueMode::Fixed,
        seed: 77,
        ..AttackConfig::default()
    };
    let mut h = Harness::new(HarnessConfig::with_attack(scenario(), 77, attack));
    let dbc = VirtualCarDbc::new();
    // Tap carControl to reconstruct what the ADAS wanted, and compare with
    // what physics got during the attack window.
    let mut was_attacked = false;
    while !h.finished() {
        h.step();
        if let Some(att) = h.attacker() {
            if att.is_active() {
                was_attacked = true;
                let v = att.values();
                // Values are the fixed limits from Table III, steering
                // toward either edge.
                let fixed = |steer_deg| {
                    AttackValues::new(
                        Some(Accel::from_mps2(2.4)),
                        Some(Accel::ZERO),
                        Some(Angle::from_degrees(steer_deg)),
                    )
                };
                assert!(v == fixed(0.5) || v == fixed(-0.5), "{v:?}");
            }
        }
    }
    assert!(was_attacked, "the random window fired");
    assert!(h.result_so_far().frames_rewritten > 0);
    // Spot-check the codec path used throughout: encode + rewrite verifies.
    let mut enc = canbus::Encoder::new();
    let f = enc
        .encode(dbc.gas_command(), &[("ACCEL_CMD", 1.0)])
        .unwrap();
    let g = canbus::rewrite_signal(dbc.gas_command(), &f, &canbus::ACCEL_CMD, 2.4).unwrap();
    assert!(decode(dbc.gas_command(), &g).is_ok());
}

/// Full-run determinism across the whole stack: identical seeds produce
/// identical results, different seeds almost surely do not.
#[test]
fn cross_crate_determinism() {
    let attack = AttackConfig {
        attack_type: AttackType::DecelerationSteering,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 5,
        ..AttackConfig::default()
    };
    let run = |seed| Harness::new(HarnessConfig::with_attack(scenario(), seed, attack)).run();
    assert_eq!(run(123), run(123));
    assert_ne!(run(123), run(124));
}

/// Disengaging mid-run (driver takeover) stops the ADAS from commanding and
/// halts the attack permanently — verified through the public surfaces only.
#[test]
fn driver_takeover_silences_adas_and_attack() {
    // Fixed deceleration triggers the driver reliably.
    let attack = AttackConfig {
        attack_type: AttackType::Deceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Fixed,
        seed: 2,
        ..AttackConfig::default()
    };
    let mut h = Harness::new(HarnessConfig::with_attack(scenario(), 2, attack));
    let mut control_sub = h.bus().subscribe(&[Topic::ControlsState]);
    while !h.finished() {
        h.step();
    }
    let r = h.result_so_far();
    if let Some(engaged) = r.driver_engaged {
        // After engagement the ADAS publishes engaged=false.
        let disengaged_seen = control_sub.drain().iter().any(|m| {
            m.tick().time() > engaged
                && matches!(m.payload(), Payload::ControlsState(cs) if !cs.engaged)
        });
        assert!(disengaged_seen, "controlsState reports the disengagement");
        // The attack halted at (or before) engagement.
        let att = h.attacker().unwrap();
        assert!(att.timeline().halted_at().is_some());
        assert!(att.timeline().last_active().unwrap().time() <= engaged);
    }
}

/// Simulated clock bookkeeping: durations, tick counts and TTH are
/// consistent with each other.
#[test]
fn timing_bookkeeping_is_consistent() {
    let attack = AttackConfig {
        attack_type: AttackType::Acceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 31,
        ..AttackConfig::default()
    };
    let r = Harness::new(HarnessConfig::with_attack(
        Scenario::new(ScenarioId::S1, Distance::meters(50.0)),
        31,
        attack,
    ))
    .run();
    assert_eq!(r.duration, units::SIM_DURATION);
    if let (Some(t_a), Some((t_h, _)), Some(tth)) = (r.attack_activated, r.first_hazard, r.tth) {
        assert!((t_h.secs() - t_a.secs() - tth.secs()).abs() < 1e-9);
    } else {
        panic!("S1@50m strategic acceleration reliably produces a hazard");
    }
}
