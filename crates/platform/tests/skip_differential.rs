//! Differential property tests for the work `Harness::step` skips.
//!
//! An untraced tick skips what nothing reads: actuator frames no stage
//! inspects, a dormant attacker, and sensing and control after a driver
//! takeover. A traced run turns every skip off and executes the whole
//! pipeline, so it is the oracle: for any config, the untraced
//! `SimResult` must equal the traced one bit for bit.
//!
//! Three proptest blocks draw the configs, so coverage of the skips does
//! not depend on what the RNG happens to draw:
//!
//! * **Wire-free** — attacked, fault-free, undefended, Panda off: nothing
//!   reads the wire, so every skip can fire.
//! * **Wired** — attacked and defended, with a CAN-side fault window drawn
//!   around the attack's first injection and optional Panda: the per-tick
//!   frame predicate turns on and off at the window's edges and on
//!   injection ticks inside and outside the window, the IDS switches
//!   between frames and counters, and the detectors latch.
//! * **Any** — attacks, fault windows, defense policies, Panda and drivers
//!   all drawn: the skips must stay off, or stay invisible, wherever a
//!   stage reads what they freeze.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{DefensePolicy, Harness, HarnessConfig, HazardParams, TraceConfig};
use proptest::prelude::*;

const CAN_FAULTS: [FaultKind; 3] = [
    FaultKind::CanFrameDrop,
    FaultKind::CanBitFlip,
    FaultKind::CanBusOff,
];

const POLICIES: [DefensePolicy; 4] = [
    DefensePolicy::Off,
    DefensePolicy::Observe,
    DefensePolicy::Degrade,
    DefensePolicy::FailSafe,
];

fn base_config(scenario_i: usize, seed: u64, driver_alert: bool) -> HarnessConfig {
    HarnessConfig {
        scenario: Scenario::matrix()[scenario_i % Scenario::matrix().len()],
        seed,
        attack: None,
        driver: if driver_alert {
            DriverConfig::alert()
        } else {
            DriverConfig::inattentive()
        },
        panda_enabled: false,
        defense: DefensePolicy::Off,
        hazard_params: HazardParams::default(),
        trace: TraceConfig::disabled(),
        faults: FaultSchedule::empty(),
    }
}

fn attack(type_i: usize, strat_i: usize, strategic: bool, seed: u64) -> AttackConfig {
    AttackConfig {
        attack_type: AttackType::ALL[type_i % AttackType::ALL.len()],
        strategy: StrategyKind::ALL[strat_i % StrategyKind::ALL.len()],
        value_mode: if strategic {
            ValueMode::Strategic
        } else {
            ValueMode::Fixed
        },
        seed,
        ..AttackConfig::default()
    }
}

fn fault_schedule(kind_i: usize, intensity: f64, start: u64, duration: u64) -> FaultSchedule {
    let spec = FaultSpec::window(
        FaultKind::ALL[kind_i % FaultKind::ALL.len()],
        FaultTarget::All,
        start,
        duration,
    )
    .with_intensity(intensity);
    FaultSchedule::single(spec)
}

/// The tick the attack first injects on `config`'s lane, if it does.
fn attack_onset(config: HarnessConfig) -> Option<u64> {
    let mut harness = Harness::new(config);
    while !harness.finished() {
        harness.step();
    }
    harness
        .attacker()
        .and_then(|att| att.timeline().activated_at())
        .map(|tick| tick.index())
}

/// Asserts the untraced run equals its fully executed, traced twin.
fn assert_skips_are_invisible(config: HarnessConfig) {
    let untraced = Harness::new(config).run();
    let traced = Harness::new(config.traced(TraceConfig::enabled(64))).run();
    assert_eq!(
        untraced, traced,
        "skipped work changed the result of {config:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lanes whose wire nothing reads: frames are encoded only on
    /// injection ticks, a dormant attacker is skipped, and a disengaged
    /// lane runs only the driver, the world and the hazard detector.
    #[test]
    fn wire_free_lanes_match_their_traced_runs(
        scenario_i in 0..12usize,
        seed in any::<u64>(),
        driver_alert in any::<bool>(),
        atk in (0..6usize, 0..4usize, any::<bool>(), any::<u64>()),
    ) {
        let mut config = base_config(scenario_i, seed, driver_alert);
        let (t, s, v, sd) = atk;
        config.attack = Some(attack(t, s, v, sd));
        assert_skips_are_invisible(config);
    }

    /// Attacked, defended lanes with a CAN-side fault window that starts
    /// up to 4 s before or after the attack's first injection (or anywhere,
    /// when the attack never injects), with optional Panda.
    #[test]
    fn wired_lanes_match_their_traced_runs(
        scenario_i in 0..12usize,
        seed in any::<u64>(),
        driver_alert in any::<bool>(),
        atk in (0..6usize, 0..4usize, any::<bool>(), any::<u64>()),
        fault in (0..3usize, 0.05..1.0f64, -400..400i64, 1..800u64, 0..4_000u64),
        policy_i in 1..4usize,
        panda in any::<bool>(),
    ) {
        let mut config = base_config(scenario_i, seed, driver_alert);
        let (t, s, v, sd) = atk;
        config.attack = Some(attack(t, s, v, sd));
        let (kind_i, intensity, offset, duration, fallback) = fault;
        let start = attack_onset(config)
            .map_or(fallback, |onset| onset.saturating_add_signed(offset));
        let spec = FaultSpec::window(CAN_FAULTS[kind_i], FaultTarget::All, start, duration)
            .with_intensity(intensity);
        config.faults = FaultSchedule::single(spec);
        config.defense = POLICIES[policy_i];
        config.panda_enabled = panda;
        assert_skips_are_invisible(config);
    }

    /// Lanes with any mix of attack, fault window, defense policy, Panda
    /// and driver: where a stage reads the wire, a skip must not fire.
    #[test]
    fn any_lane_matches_its_traced_run(
        scenario_i in 0..12usize,
        seed in any::<u64>(),
        driver_alert in any::<bool>(),
        atk in proptest::option::of((0..6usize, 0..4usize, any::<bool>(), any::<u64>())),
        fault in proptest::option::of((0..9usize, 0.05..1.0f64, 100..1000u64, 100..2000u64)),
        policy_i in 0..4usize,
        panda in any::<bool>(),
    ) {
        let mut config = base_config(scenario_i, seed, driver_alert);
        config.attack = atk.map(|(t, s, v, sd)| attack(t, s, v, sd));
        if let Some((kind_i, intensity, start, duration)) = fault {
            config.faults = fault_schedule(kind_i, intensity, start, duration);
        }
        config.defense = POLICIES[policy_i];
        config.panda_enabled = panda;
        assert_skips_are_invisible(config);
    }
}
