//! Workspace-level property tests: whatever the configuration, the system
//! upholds its core invariants.

use attack_core::{AttackConfig, AttackType, AttackValues, Injector, StrategyKind, ValueMode};
use canbus::{decode_signal, Encoder, VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, STEER_ANGLE_CMD};
use driving_sim::{Scenario, ScenarioId, INITIAL_GAPS};
use platform::{Harness, HarnessConfig};
use proptest::prelude::*;
use units::Distance;

fn any_attack_type() -> impl Strategy<Value = AttackType> {
    prop::sample::select(AttackType::ALL.to_vec())
}

fn any_strategy() -> impl Strategy<Value = StrategyKind> {
    prop::sample::select(StrategyKind::ALL.to_vec())
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::sample::select(ScenarioId::ALL.to_vec()),
        prop::sample::select(INITIAL_GAPS.to_vec()),
    )
        .prop_map(|(id, gap)| Scenario::new(id, Distance::meters(gap)))
}

/// The gas, brake and steering commands `values` put on the bus: what the
/// injector writes into zero-valued command frames, decoded.
fn injected(values: &AttackValues) -> (f64, f64, f64) {
    let dbc = VirtualCarDbc::new();
    let mut enc = Encoder::new();
    let mut frame = |spec, name| enc.encode(spec, &[(name, 0.0)]).expect("zero encodes");
    let frames = [
        frame(dbc.gas_command(), "ACCEL_CMD"),
        frame(dbc.brake_command(), "BRAKE_CMD"),
        frame(dbc.steering_control(), "STEER_ANGLE_CMD"),
    ];
    let mut injector = Injector::new();
    let [gas, brake, steer] = frames.map(|f| injector.apply(f, values));
    let read = |spec, frame, signal| decode_signal(spec, frame, signal).expect("frame verifies");
    (
        read(dbc.gas_command(), &gas, &ACCEL_CMD),
        read(dbc.brake_command(), &brake, &BRAKE_CMD),
        read(dbc.steering_control(), &steer, &STEER_ANGLE_CMD),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any attack configuration runs 8 simulated seconds without panicking,
    /// and the physics invariants hold throughout.
    #[test]
    fn any_configuration_upholds_physical_invariants(
        attack_type in any_attack_type(),
        strategy in any_strategy(),
        fixed in any::<bool>(),
        scenario in any_scenario(),
        seed in 0u64..1_000,
        panda in any::<bool>(),
    ) {
        let attack = AttackConfig {
            attack_type,
            strategy,
            value_mode: if fixed { ValueMode::Fixed } else { ValueMode::Strategic },
            seed,
            ..AttackConfig::default()
        };
        let mut cfg = HarnessConfig::with_attack(scenario, seed, attack);
        cfg.panda_enabled = panda;
        let mut h = Harness::new(cfg);
        for _ in 0..800 {
            h.step();
            let ego = h.world().ego();
            prop_assert!(ego.speed().mps() >= 0.0, "no reversing");
            prop_assert!(ego.speed().mps() < 45.0, "bounded by physics + limits");
            prop_assert!(ego.accel().mps2() >= -8.5 && ego.accel().mps2() <= 3.5);
            prop_assert!(ego.d().raw().abs() < 12.0, "within the road corridor");
        }
        let r = h.result_so_far();
        prop_assert!(r.fcw_events == 0, "FCW silent under every configuration");
    }

    /// Strategic values never leave the strict envelope, whatever the
    /// context that produced them. `AttackValues` keeps its numbers to the
    /// injector, so the check reads what the injector writes.
    #[test]
    fn strategic_values_always_inside_the_envelope(
        attack_type in any_attack_type(),
        scenario in any_scenario(),
        seed in 0u64..1_000,
    ) {
        let attack = AttackConfig {
            attack_type,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            seed,
            ..AttackConfig::default()
        };
        let mut h = Harness::new(HarnessConfig::with_attack(scenario, seed, attack));
        for _ in 0..2_000 {
            h.step();
            if let Some(att) = h.attacker() {
                let (accel, brake, steer) = injected(&att.values());
                prop_assert!((0.0..=2.0 + 1e-9).contains(&accel), "accel {accel}");
                prop_assert!((-3.5 - 1e-9..=0.0).contains(&brake), "brake {brake}");
                prop_assert!(steer.abs() <= 0.25 + 1e-9, "steer {steer}");
            }
        }
    }

    /// Seed-determinism holds for arbitrary configurations (the foundation
    /// of the paired Table V analysis).
    #[test]
    fn arbitrary_runs_are_deterministic(
        attack_type in any_attack_type(),
        strategy in any_strategy(),
        scenario in any_scenario(),
        seed in 0u64..500,
    ) {
        let attack = AttackConfig {
            attack_type,
            strategy,
            value_mode: ValueMode::Fixed,
            seed,
            ..AttackConfig::default()
        };
        let run = || {
            let mut h = Harness::new(HarnessConfig::with_attack(scenario, seed, attack));
            for _ in 0..600 {
                h.step();
            }
            h.result_so_far()
        };
        prop_assert_eq!(run(), run());
    }
}
