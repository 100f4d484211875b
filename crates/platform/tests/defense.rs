//! Defense integration tests: the corruption blind-spot acceptance
//! criteria, end to end through the harness.
//!
//! * False-positive budget: the strongest policy on clean runs is
//!   *invisible* — no alarms, no gate rejections, and bit-identical
//!   results to the undefended baseline across the whole S1–S4 matrix.
//! * Stale-replay regression: a total sensor-latency fault can no longer
//!   masquerade as fresh data; the staleness watchdog degrades.
//! * Stuck-at regression: frozen GPS/radar readings are caught by the
//!   plausibility gates and walk the degradation ladder before any hazard.
//! * Bus-off: the CAN IDS alarms within a quarter second of onset and an
//!   acting policy turns the alarm into a degradation the driver sees.

use defense::DefensePolicy;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{Harness, HarnessConfig};
use units::DT;

const FAULT_START: u64 = 500;
const FAULT_DURATION: u64 = 2000;

fn window(kind: FaultKind, target: FaultTarget) -> FaultSpec {
    FaultSpec::window(kind, target, FAULT_START, FAULT_DURATION)
}

/// The false-positive budget of the whole defense stack is zero: on clean
/// runs the strongest acting policy must not alarm, must not withhold a
/// single reading, must not degrade — and therefore must produce exactly
/// the run the undefended ADAS produces.
#[test]
fn clean_matrix_under_failsafe_policy_is_bit_identical_to_undefended() {
    for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
        let seed = 60 + si as u64;
        let off = Harness::new(HarnessConfig::no_attack(scenario, seed)).run();
        let defended = Harness::new(
            HarnessConfig::no_attack(scenario, seed).with_defense(DefensePolicy::FailSafe),
        )
        .run();

        assert_eq!(defended.ids_detected, None, "cell {si}: IDS false alarm");
        assert_eq!(
            defended.gate_rejections, 0,
            "cell {si}: plausibility gates rejected clean readings"
        );
        assert_eq!(
            defended.degraded_ticks, 0,
            "cell {si}: spurious degradation on a clean run"
        );
        assert_eq!(defended.fcw_events, 0, "cell {si}: spurious FCW");
        assert_eq!(
            defended.invariant_detected, None,
            "cell {si}: invariant false alarm"
        );
        assert_eq!(
            defended.monitor_detected, None,
            "cell {si}: monitor false alarm"
        );
        assert_eq!(
            off, defended,
            "cell {si}: an acting defense that never fires must be invisible"
        );
    }
}

/// Regression for the stale-replay watchdog bug: a total sensor-latency
/// fault used to republish old readings with fresh timestamps, so the
/// staleness watchdog saw a live stream and stayed nominal. Replayed
/// samples now carry their original sample tick, so a 10-tick replay is
/// visibly stale (> 5-tick watchdog bound) and the ladder degrades.
#[test]
fn total_sensor_latency_is_stale_and_degrades() {
    let scenario = Scenario::matrix()[0];
    let cfg = HarnessConfig::no_attack(scenario, 17)
        .with_faults(FaultSchedule::single(window(
            FaultKind::SensorLatency,
            FaultTarget::All,
        )))
        .with_defense(DefensePolicy::Degrade);
    let result = Harness::new(cfg).run();

    let first = result
        .first_degraded
        .expect("a 10-tick replay of every stream must trip the staleness watchdog");
    let onset = FAULT_START as f64 * DT.secs();
    assert!(
        first.secs() >= onset && first.secs() <= onset + 1.0,
        "degradation at {:.2}s should follow fault onset at {onset:.2}s closely",
        first.secs()
    );
    assert!(result.degraded_ticks > 0);
    assert!(
        result.accident.is_none(),
        "degrading on stale data must keep the run accident-free, got {:?}",
        result.accident
    );
    assert!(
        result.recovery_latency.is_some(),
        "the ladder recovers once fresh samples resume"
    );
}

/// Regression for the stuck-at blind spot: frozen GPS and radar streams
/// keep publishing fresh-looking (but identical) readings. The staleness
/// watchdog alone cannot see this; the plausibility gates' stuck detector
/// must, and an acting policy walks the ladder before any hazard develops.
#[test]
fn stuck_gps_and_radar_degrade_before_any_hazard() {
    let scenario = Scenario::matrix()[0]; // S1, closest gap
    let mut faults = FaultSchedule::empty();
    faults.add(window(FaultKind::SensorStuckAt, FaultTarget::Gps).with_intensity(0.3));
    faults.add(window(FaultKind::SensorStuckAt, FaultTarget::Radar).with_intensity(0.3));

    // Undefended: the frozen streams look alive and nothing degrades —
    // this is exactly the blind spot.
    let blind = Harness::new(HarnessConfig::no_attack(scenario, 23).with_faults(faults)).run();
    assert_eq!(
        blind.degraded_ticks, 0,
        "undefended stuck-at is invisible to the staleness watchdog"
    );

    // Defended: the stuck detector fires and the ladder reacts.
    let defended = Harness::new(
        HarnessConfig::no_attack(scenario, 23)
            .with_faults(faults)
            .with_defense(DefensePolicy::Degrade),
    )
    .run();
    assert!(
        defended.gate_rejections > 0,
        "gates must reject the frozen readings"
    );
    let first = defended
        .first_degraded
        .expect("stuck streams must degrade under an acting policy");
    let onset = FAULT_START as f64 * DT.secs();
    assert!(
        first.secs() >= onset && first.secs() <= onset + 2.0,
        "degradation at {:.2}s should follow stuck onset at {onset:.2}s",
        first.secs()
    );
    if let Some((hazard, kind)) = defended.first_hazard {
        assert!(
            first < hazard,
            "ladder must move at {:.2}s before the first hazard {kind:?} at {:.2}s",
            first.secs(),
            hazard.secs()
        );
    }
    assert!(defended.accident.is_none(), "got {:?}", defended.accident);
}

/// A bus-off window silences every actuator frame. The CAN IDS alarms
/// within a quarter second of the miss-streak threshold, and an acting
/// policy converts the alarm into a forced degradation whose alert the
/// driver reacts to.
#[test]
fn bus_off_raises_ids_alarm_and_forces_degradation() {
    let scenario = Scenario::matrix()[0];
    let cfg = HarnessConfig::no_attack(scenario, 29)
        .with_faults(FaultSchedule::single(window(
            FaultKind::CanBusOff,
            FaultTarget::All,
        )))
        .with_defense(DefensePolicy::Degrade);
    let result = Harness::new(cfg).run();

    let detected = result
        .ids_detected
        .expect("total actuator-frame loss must raise an IDS alarm");
    let onset = FAULT_START as f64 * DT.secs();
    assert!(
        detected.secs() >= onset && detected.secs() <= onset + 0.5,
        "IDS alarm at {:.2}s should land within 0.5s of bus-off onset at {onset:.2}s",
        detected.secs()
    );
    assert!(
        result.degraded_ticks > 0,
        "the Degrade policy must act on the alarm"
    );
    let degraded = result.first_degraded.expect("forced rung");
    assert!(
        degraded >= detected,
        "degradation follows detection: {:.2}s vs {:.2}s",
        degraded.secs(),
        detected.secs()
    );
    assert!(
        result.alert_events > 0,
        "the forced rung raises an alert edge"
    );
    assert!(
        result.driver_noticed.is_some(),
        "the alert is the driver's cue that the bus is dead"
    );
    assert!(result.accident.is_none(), "got {:?}", result.accident);
}
