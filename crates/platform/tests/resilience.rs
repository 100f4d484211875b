//! Resilience integration tests: the graceful-degradation acceptance
//! criteria of the fault-injection work, end to end through the harness.
//!
//! * Total radar loss drives the ADAS into fail-safe with **zero
//!   collisions** across the whole S1–S4 scenario matrix.
//! * A seeded fault run is bit-reproducible.
//! * A harness with a fault engine attached but no active window is
//!   bit-identical to one with no engine at all.
//! * Recovery latency after a bounded fault window matches the hysteresis
//!   window of the degradation monitor.

use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use openadas::{FAILSAFE_AFTER, RECOVERY_TICKS};
use platform::trace::{diff, DegradationCode, TraceEventKind};
use platform::{Harness, HarnessConfig, TraceConfig};
use units::DT;

fn radar_loss(start: u64, duration: u64) -> FaultSchedule {
    FaultSchedule::single(FaultSpec::window(
        FaultKind::SensorDropout,
        FaultTarget::Radar,
        start,
        duration,
    ))
}

/// The headline safety criterion: under total radar loss the ADAS walks the
/// degradation ladder into a controlled fail-safe stop and no run in the
/// S1–S4 matrix ends in a collision.
#[test]
fn total_radar_loss_fails_safe_without_collisions_across_the_matrix() {
    const START: u64 = 200;
    for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
        let cfg = HarnessConfig::no_attack(scenario, 40 + si as u64)
            .with_faults(radar_loss(START, 10_000));
        let result = Harness::new(cfg).run();
        assert!(
            result.failsafe_ticks > 0,
            "cell {si}: persistent radar loss must reach fail-safe"
        );
        let entered = result.first_failsafe.expect("fail-safe entry time");
        let bound = (START + u64::from(FAILSAFE_AFTER) + 10) as f64 * DT.secs();
        assert!(
            entered.secs() <= bound,
            "cell {si}: fail-safe at {:.2}s exceeds the {bound:.2}s bound",
            entered.secs()
        );
        assert!(
            result.accident.is_none(),
            "cell {si}: fail-safe stop must not collide, got {:?}",
            result.accident
        );
        assert_eq!(
            result.fcw_events, 0,
            "cell {si}: the fail-safe brake stays under the FCW threshold"
        );
        assert!(result.alert_events > 0, "cell {si}: degradation alerts fire");
    }
}

/// Seeded fault campaigns are part of the reproducibility contract: the
/// same config twice gives bit-identical results and traces.
#[test]
fn faulted_run_is_bit_reproducible() {
    let mut schedule = FaultSchedule::empty();
    schedule.add(
        FaultSpec::window(FaultKind::SensorNoiseBurst, FaultTarget::All, 300, 800)
            .with_intensity(0.7),
    );
    schedule.add(FaultSpec::window(FaultKind::CanBitFlip, FaultTarget::All, 900, 600)
        .with_intensity(0.4));
    let cfg = HarnessConfig::no_attack(Scenario::matrix()[2], 11)
        .with_faults(schedule)
        .traced(TraceConfig::enabled(256));
    let (ra, ta) = Harness::new(cfg).run_traced();
    let (rb, tb) = Harness::new(cfg).run_traced();
    assert_eq!(ra, rb, "results must be bit-identical");
    assert!(ra.faults_injected > 0, "the schedule actually injected");
    let d = diff(
        ta.as_ref().expect("traced").ring().iter(),
        tb.as_ref().expect("traced").ring().iter(),
    );
    assert!(d.identical(), "traces must be bit-identical: {d}");
}

/// An attached-but-idle fault engine must be invisible: a schedule whose
/// window never opens gives the same run, bit for bit, as no schedule.
#[test]
fn idle_fault_engine_is_bit_identical_to_none() {
    let scenario = Scenario::matrix()[5];
    let plain = HarnessConfig::no_attack(scenario, 21).traced(TraceConfig::enabled(256));
    // Window opens long after the 5,000-tick run ends.
    let idle = plain.with_faults(radar_loss(100_000, 50));
    let (rp, tp) = Harness::new(plain).run_traced();
    let (ri, ti) = Harness::new(idle).run_traced();
    assert_eq!(rp.first_hazard, ri.first_hazard);
    assert_eq!(rp.alert_events, ri.alert_events);
    assert_eq!(ri.faults_injected, 0);
    assert_eq!(ri.degraded_ticks, 0);
    let d = diff(
        tp.as_ref().expect("traced").ring().iter(),
        ti.as_ref().expect("traced").ring().iter(),
    );
    assert!(d.identical(), "idle engine perturbed the run: {d}");
}

/// After a bounded radar outage the ADAS recovers to nominal in one full
/// hysteresis window, and the result records the latency.
#[test]
fn bounded_outage_recovers_with_hysteresis_latency() {
    let scenario = Scenario::matrix()[0];
    let cfg = HarnessConfig::no_attack(scenario, 33).with_faults(radar_loss(500, 1000));
    let result = Harness::new(cfg).run();
    assert!(result.failsafe_ticks > 0, "outage long enough for fail-safe");
    let latency = result
        .recovery_latency
        .expect("the ladder recovers after the window closes")
        .secs();
    let expected = f64::from(RECOVERY_TICKS) * DT.secs();
    assert!(
        (latency - expected).abs() < 0.2,
        "recovery latency {latency:.2}s should be about the {expected:.2}s hysteresis window"
    );
}

/// The flight recorder explains a resilience run: fault-mask and
/// degradation columns are populated and ladder transitions become events.
#[test]
fn trace_records_fault_mask_and_degradation_transitions() {
    let scenario = Scenario::matrix()[0];
    let cfg = HarnessConfig::no_attack(scenario, 12)
        .with_faults(radar_loss(100, 600))
        .traced(TraceConfig::full_run());
    let (result, rec) = Harness::new(cfg).run_traced();
    let rec = rec.expect("traced");
    let in_window = rec
        .ring()
        .iter()
        .find(|r| r.tick == 300)
        .expect("full-run ring holds tick 300");
    assert_eq!(
        in_window.fault_mask,
        1u16 << FaultKind::SensorDropout.index(),
        "active dropout appears in the fault mask"
    );
    assert!(in_window.faults_injected > 0);
    assert_ne!(in_window.degradation, DegradationCode::Nominal);
    let ladder: Vec<DegradationCode> = rec
        .events()
        .iter()
        .filter_map(|e| {
            if let TraceEventKind::DegradationChanged(code) = e.kind {
                Some(code)
            } else {
                None
            }
        })
        .collect();
    assert!(
        ladder.contains(&DegradationCode::FailSafe),
        "ladder transitions are events: {ladder:?}"
    );
    assert_eq!(
        rec.metrics().degraded_ticks,
        result.degraded_ticks,
        "recorder and harness agree on time degraded"
    );
}
