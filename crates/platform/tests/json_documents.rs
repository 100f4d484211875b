//! Byte pins for every JSON document the platform writes: the resilience
//! and defense reports (the `BENCH_*.json` shape) and the trace JSON
//! export, each for fixed inputs.
//!
//! The reports carry the host's core count, so the expected text takes
//! its `"cores"` value from [`detected_cores`]; every other byte is fixed.
//! The reports' bytes are the ones they had before `platform::json` wrote
//! them; the trace export gained the writer's spaces after `:` and `,`.

use driving_sim::{Scenario, ScenarioId};
use platform::defense_campaign::{DefenseCell, DefenseReport};
use platform::experiment::detected_cores;
use platform::json;
use platform::resilience::{ResilienceCell, ResilienceReport};
use platform::trace::to_json;
use platform::{DefensePolicy, Harness, HarnessConfig, TraceConfig};
use units::Distance;

fn resilience_cell(
    fault: &str,
    degraded_runs: u64,
    mean_recovery_s: Option<f64>,
) -> ResilienceCell {
    ResilienceCell {
        fault: fault.to_string(),
        intensity: 0.25,
        runs: 8,
        hazardous_runs: 1,
        accident_runs: 0,
        failsafe_runs: 2,
        false_fcw_runs: 3,
        degraded_runs,
        mean_degraded_s: 1.23456,
        mean_failsafe_s: 0.0,
        recovered_runs: 4,
        mean_recovery_s,
        faults_injected: 1_234,
    }
}

#[test]
fn resilience_report_bytes() {
    let report = ResilienceReport {
        base_seed: 7,
        reps: 20,
        defense: DefensePolicy::Degrade,
        total_runs: 24,
        cells: vec![
            // Never degraded: no recovery field at all.
            resilience_cell("sensor_dropout", 0, None),
            // Degraded, never recovered: `null`.
            resilience_cell("can_bit_flip", 5, None),
            // Degraded and recovered: three decimals.
            resilience_cell("msg_delay", 5, Some(1.5)),
        ],
    };
    let cores = detected_cores();
    let expected = format!(
        r#"{{
  "bench": "resilience",
  "base_seed": 7,
  "reps_per_cell": 20,
  "cores": {cores},
  "defense_policy": "degrade",
  "fault_start_tick": 500,
  "fault_duration_ticks": 2000,
  "total_runs": 24,
  "cells": [
    {{"fault": "sensor_dropout", "intensity": 0.25, "runs": 8, "hazardous_runs": 1, "accident_runs": 0, "failsafe_runs": 2, "false_fcw_runs": 3, "degraded_runs": 0, "mean_degraded_s": 1.235, "mean_failsafe_s": 0.000, "recovered_runs": 4, "faults_injected": 1234}},
    {{"fault": "can_bit_flip", "intensity": 0.25, "runs": 8, "hazardous_runs": 1, "accident_runs": 0, "failsafe_runs": 2, "false_fcw_runs": 3, "degraded_runs": 5, "mean_degraded_s": 1.235, "mean_failsafe_s": 0.000, "recovered_runs": 4, "mean_recovery_s": null, "faults_injected": 1234}},
    {{"fault": "msg_delay", "intensity": 0.25, "runs": 8, "hazardous_runs": 1, "accident_runs": 0, "failsafe_runs": 2, "false_fcw_runs": 3, "degraded_runs": 5, "mean_degraded_s": 1.235, "mean_failsafe_s": 0.000, "recovered_runs": 4, "mean_recovery_s": 1.500, "faults_injected": 1234}}
  ]
}}
"#
    );
    assert_eq!(report.to_json(), expected);
}

fn defense_cell(policy: &str, threat: &str, mean_detection_s: Option<f64>) -> DefenseCell {
    DefenseCell {
        policy: policy.to_string(),
        threat: threat.to_string(),
        runs: 12,
        hazardous_runs: 3,
        accident_runs: 1,
        detected_runs: 9,
        ids_detected_runs: 8,
        invariant_detected_runs: 7,
        monitor_detected_runs: 6,
        gate_rejection_runs: 5,
        gate_rejections: 400,
        degraded_runs: 4,
        false_fcw_runs: 2,
        mean_detection_s,
    }
}

#[test]
fn defense_report_bytes() {
    let report = DefenseReport {
        base_seed: 11,
        reps: 20,
        total_runs: 24,
        cells: vec![
            defense_cell("off", "clean", None),
            defense_cell("fail_safe", "fault_radar_noise@0.5", Some(0.0125)),
        ],
    };
    let cores = detected_cores();
    let expected = format!(
        r#"{{
  "bench": "defense",
  "base_seed": 11,
  "reps_per_cell": 20,
  "cores": {cores},
  "total_runs": 24,
  "cells": [
    {{"policy": "off", "threat": "clean", "runs": 12, "hazardous_runs": 3, "accident_runs": 1, "detected_runs": 9, "ids_detected_runs": 8, "invariant_detected_runs": 7, "monitor_detected_runs": 6, "gate_rejection_runs": 5, "gate_rejections": 400, "degraded_runs": 4, "false_fcw_runs": 2, "mean_detection_s": null}},
    {{"policy": "fail_safe", "threat": "fault_radar_noise@0.5", "runs": 12, "hazardous_runs": 3, "accident_runs": 1, "detected_runs": 9, "ids_detected_runs": 8, "invariant_detected_runs": 7, "monitor_detected_runs": 6, "gate_rejection_runs": 5, "gate_rejections": 400, "degraded_runs": 4, "false_fcw_runs": 2, "mean_detection_s": 0.013}}
  ]
}}
"#
    );
    assert_eq!(report.to_json(), expected);
}

/// The trace export of a two-tick S2 run, plus a copy of its last tick
/// with the gap and headway unknown (NaN), which export as `null`. The
/// compact text it had before [`json`] wrote it reads back to the same
/// values.
#[test]
fn trace_json_bytes() {
    let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
    let cfg = HarnessConfig::no_attack(scenario, 3).traced(TraceConfig::enabled(8));
    let mut harness = Harness::new(cfg);
    harness.step();
    harness.step();
    let mut records: Vec<_> = harness
        .recorder()
        .expect("tracing is on")
        .ring()
        .iter()
        .copied()
        .collect();
    let mut unknown = *records.last().expect("two ticks");
    unknown.gap = f64::NAN;
    unknown.hwt = f64::NAN;
    records.push(unknown);
    assert_eq!(to_json(records.iter()), TRACE_JSON);
    assert_eq!(
        json::parse(COMPACT_TRACE_JSON.as_bytes()),
        json::parse(TRACE_JSON.as_bytes())
    );
}

/// The export's text before it went through `platform::json`: the same
/// values, without the spaces after `:` and `,`.
const COMPACT_TRACE_JSON: &str = r#"[
  {"tick":0,"time_s":0.00,"ego":{"s":0.2682,"d":-0.2498,"v":26.8224,"a":0.0011,"steer_deg":0.0500},"lead":{"s":70.2228,"v":22.2797},"gap":69.9546,"hwt":2.6081,"engaged":true,"acc":{"desired":0.0292,"cmd":0.0292},"alc":{"desired_deg":0.1267,"cmd_deg":0.1267,"saturated":false},"cmd":{"accel":0.0290,"steer_deg":0.1300},"applied":{"accel":0.0290,"steer_deg":0.1300},"bus":{"gpsLocationExternal":1,"modelV2":1,"radarState":1,"carState":1,"carControl":1,"controlsState":1},"attack_active":false,"frames_rewritten":0,"panda_blocked":0,"alert_events":0,"driver_phase":"-","hazard_mask":0,"h3_streak":0,"collided":false,"fault_mask":0,"faults_injected":0,"degradation":"-","gate_rejections":0,"ids":"-"},
  {"tick":1,"time_s":0.01,"ego":{"s":0.5364,"d":-0.2496,"v":26.8224,"a":0.0021,"steer_deg":0.1000},"lead":{"s":70.4455,"v":22.2656},"gap":69.9090,"hwt":2.6064,"engaged":true,"acc":{"desired":0.0284,"cmd":0.0284},"alc":{"desired_deg":0.1378,"cmd_deg":0.1378,"saturated":false},"cmd":{"accel":0.0280,"steer_deg":0.1400},"applied":{"accel":0.0280,"steer_deg":0.1400},"bus":{"gpsLocationExternal":2,"modelV2":2,"radarState":2,"carState":2,"carControl":2,"controlsState":2},"attack_active":false,"frames_rewritten":0,"panda_blocked":0,"alert_events":0,"driver_phase":"-","hazard_mask":0,"h3_streak":0,"collided":false,"fault_mask":0,"faults_injected":0,"degradation":"-","gate_rejections":0,"ids":"-"},
  {"tick":1,"time_s":0.01,"ego":{"s":0.5364,"d":-0.2496,"v":26.8224,"a":0.0021,"steer_deg":0.1000},"lead":{"s":70.4455,"v":22.2656},"gap":null,"hwt":null,"engaged":true,"acc":{"desired":0.0284,"cmd":0.0284},"alc":{"desired_deg":0.1378,"cmd_deg":0.1378,"saturated":false},"cmd":{"accel":0.0280,"steer_deg":0.1400},"applied":{"accel":0.0280,"steer_deg":0.1400},"bus":{"gpsLocationExternal":2,"modelV2":2,"radarState":2,"carState":2,"carControl":2,"controlsState":2},"attack_active":false,"frames_rewritten":0,"panda_blocked":0,"alert_events":0,"driver_phase":"-","hazard_mask":0,"h3_streak":0,"collided":false,"fault_mask":0,"faults_injected":0,"degradation":"-","gate_rejections":0,"ids":"-"}
]
"#;

const TRACE_JSON: &str = r#"[
  {"tick": 0, "time_s": 0.00, "ego": {"s": 0.2682, "d": -0.2498, "v": 26.8224, "a": 0.0011, "steer_deg": 0.0500}, "lead": {"s": 70.2228, "v": 22.2797}, "gap": 69.9546, "hwt": 2.6081, "engaged": true, "acc": {"desired": 0.0292, "cmd": 0.0292}, "alc": {"desired_deg": 0.1267, "cmd_deg": 0.1267, "saturated": false}, "cmd": {"accel": 0.0290, "steer_deg": 0.1300}, "applied": {"accel": 0.0290, "steer_deg": 0.1300}, "bus": {"gpsLocationExternal": 1, "modelV2": 1, "radarState": 1, "carState": 1, "carControl": 1, "controlsState": 1}, "attack_active": false, "frames_rewritten": 0, "panda_blocked": 0, "alert_events": 0, "driver_phase": "-", "hazard_mask": 0, "h3_streak": 0, "collided": false, "fault_mask": 0, "faults_injected": 0, "degradation": "-", "gate_rejections": 0, "ids": "-"},
  {"tick": 1, "time_s": 0.01, "ego": {"s": 0.5364, "d": -0.2496, "v": 26.8224, "a": 0.0021, "steer_deg": 0.1000}, "lead": {"s": 70.4455, "v": 22.2656}, "gap": 69.9090, "hwt": 2.6064, "engaged": true, "acc": {"desired": 0.0284, "cmd": 0.0284}, "alc": {"desired_deg": 0.1378, "cmd_deg": 0.1378, "saturated": false}, "cmd": {"accel": 0.0280, "steer_deg": 0.1400}, "applied": {"accel": 0.0280, "steer_deg": 0.1400}, "bus": {"gpsLocationExternal": 2, "modelV2": 2, "radarState": 2, "carState": 2, "carControl": 2, "controlsState": 2}, "attack_active": false, "frames_rewritten": 0, "panda_blocked": 0, "alert_events": 0, "driver_phase": "-", "hazard_mask": 0, "h3_streak": 0, "collided": false, "fault_mask": 0, "faults_injected": 0, "degradation": "-", "gate_rejections": 0, "ids": "-"},
  {"tick": 1, "time_s": 0.01, "ego": {"s": 0.5364, "d": -0.2496, "v": 26.8224, "a": 0.0021, "steer_deg": 0.1000}, "lead": {"s": 70.4455, "v": 22.2656}, "gap": null, "hwt": null, "engaged": true, "acc": {"desired": 0.0284, "cmd": 0.0284}, "alc": {"desired_deg": 0.1378, "cmd_deg": 0.1378, "saturated": false}, "cmd": {"accel": 0.0280, "steer_deg": 0.1400}, "applied": {"accel": 0.0280, "steer_deg": 0.1400}, "bus": {"gpsLocationExternal": 2, "modelV2": 2, "radarState": 2, "carState": 2, "carControl": 2, "controlsState": 2}, "attack_active": false, "frames_rewritten": 0, "panda_blocked": 0, "alert_events": 0, "driver_phase": "-", "hazard_mask": 0, "h3_streak": 0, "collided": false, "fault_mask": 0, "faults_injected": 0, "degradation": "-", "gate_rejections": 0, "ids": "-"}
]
"#;
