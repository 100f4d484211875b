//! Byte pins for every JSON document campaignd writes, for fixed inputs:
//! the stream's event lines, `JobSpec::canonical` and the job id it
//! hashes to, the attack report, and the `/healthz`, `/stats`, `/jobs`,
//! `/jobs/<id>`, error and `/shutdown` bodies as the daemon serves them.
//!
//! Perf's `service_jobs` workload scrapes `"key": ` out of these bodies
//! and stream lines, so a drift here is a benchmark failure too. The
//! attack report and `/stats` carry the host's core count and cell
//! timings; the expected text takes those from the host or the body and
//! pins every other byte.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "waits on a live daemon under wall-clock deadlines"
)]

mod common;

use std::time::Duration;

use attack_core::{AttackType, StrategyKind};
use campaignd::spec::{ChaosKnobs, JobKind, JobSpec};
use campaignd::supervisor::Event;
use common::{http, job_id, temp_state, wait_for_status, Daemon};
use defense::DefensePolicy;
use driving_sim::Scenario;
use platform::experiment::detected_cores;
use platform::{AccidentKind, Harness, HarnessConfig, HazardKind, SimResult};
use units::Seconds;

/// A quote, a backslash and a newline, which every writer must escape.
const NASTY: &str = "boom \"quoted\" back\\slash\nnext line";

#[test]
fn event_lines_bytes() {
    let cases = [
        (
            Event::Running {
                cells_total: 24,
                checkpointed: 3,
            },
            r#"{"event": "job", "id": "job-0007-0badf00d", "status": "running", "cells_total": 24, "checkpointed": 3}"#,
        ),
        (
            Event::CellOk { idx: 5, attempt: 1 },
            r#"{"event": "cell", "idx": 5, "status": "ok", "attempt": 1}"#,
        ),
        (
            Event::CellRetryOk { idx: 9, attempt: 2 },
            r#"{"event": "cell", "idx": 9, "status": "retry_ok", "attempt": 2}"#,
        ),
        (
            Event::CellPanic {
                idx: 2,
                attempt: 1,
                message: NASTY.to_string(),
            },
            r#"{"event": "cell", "idx": 2, "status": "panic", "attempt": 1, "message": "boom \"quoted\" back\\slash\nnext line"}"#,
        ),
        (
            Event::CellQuarantined {
                idx: 17,
                attempts: 3,
            },
            r#"{"event": "cell", "idx": 17, "status": "quarantined", "attempts": 3}"#,
        ),
        (
            Event::Completed { cells_total: 24 },
            r#"{"event": "job", "id": "job-0007-0badf00d", "status": "completed", "cells_total": 24}"#,
        ),
        (
            Event::Failed {
                reason: NASTY.to_string(),
            },
            r#"{"event": "job", "id": "job-0007-0badf00d", "status": "failed", "reason": "boom \"quoted\" back\\slash\nnext line"}"#,
        ),
        (
            Event::Interrupted,
            r#"{"event": "job", "id": "job-0007-0badf00d", "status": "interrupted"}"#,
        ),
    ];
    for (event, line) in cases {
        assert_eq!(event.render("job-0007-0badf00d"), line, "{event:?}");
    }
}

/// The attack job the daemon test submits: the largest seed, a delay and
/// a panic that the retry ladder heals.
fn attack_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Attack {
            strategy: StrategyKind::ContextAware,
            attack: AttackType::Acceleration,
        },
        base_seed: u64::MAX,
        reps: 1,
        chaos: ChaosKnobs {
            panic_cells: vec![(1, 1)],
            delay_cells: vec![(0, 1)],
        },
    }
}

#[test]
fn canonical_bytes() {
    assert_eq!(
        attack_spec().canonical(),
        r#"{"kind": "attack", "strategy": "context_aware", "attack": "acceleration", "base_seed": 18446744073709551615, "reps": 1, "panic_cells": [[1, 1]], "delay_cells": [[0, 1]]}"#
    );
    let resilience = JobSpec {
        kind: JobKind::Resilience {
            defense: DefensePolicy::FailSafe,
        },
        base_seed: 0,
        reps: 3,
        chaos: ChaosKnobs {
            panic_cells: vec![(3, u32::MAX), (10, 2)],
            delay_cells: vec![(0, u64::MAX)],
        },
    };
    assert_eq!(
        resilience.canonical(),
        r#"{"kind": "resilience", "defense": "fail_safe", "base_seed": 0, "reps": 3, "panic_cells": [[3, 4294967295], [10, 2]], "delay_cells": [[0, 18446744073709551615]]}"#
    );
}

#[test]
fn attack_report_without_runs_bytes() {
    let cores = detected_cores();
    assert_eq!(
        attack_spec().report(&[]),
        format!(
            r#"{{
  "bench": "campaign",
  "kind": "attack",
  "strategy": "Context-Aware",
  "attack": "Acceleration",
  "base_seed": 18446744073709551615,
  "reps_per_cell": 1,
  "cores": {cores},
  "total_runs": 0,
  "hazardous_runs": 0,
  "accident_runs": 0,
  "hazard_no_alert_runs": 0,
  "mean_tth_s": null
}}
"#
        )
    );
}

/// Cuts `"cell_seconds": {…}` (wall-clock timings) out of a `/stats`
/// body, checking its count.
fn without_cell_timings(stats: &str, count: u64) -> String {
    let open = format!("\"cell_seconds\": {{\"count\": {count}, \"mean\": ");
    let start = stats.find(&open).unwrap_or_else(|| panic!("{stats}"));
    let end = start
        + stats[start..]
            .find('}')
            .unwrap_or_else(|| panic!("{stats}"));
    format!(
        "{}\"cell_seconds\": …{}",
        &stats[..start],
        &stats[end + 1..]
    )
}

#[test]
fn daemon_bodies_bytes() {
    let dir = temp_state("json-documents");
    let daemon = Daemon::launch(&dir, &["--workers", "2", "--backoff-ms", "1"]);
    let addr = daemon.addr.clone();
    let get = |path: &str| http(&addr, "GET", path, None);

    assert_eq!(
        get("/healthz"),
        (200, r#"{"ok": true, "draining": false}"#.to_string())
    );
    assert_eq!(
        get("/stats"),
        (
            200,
            r#"{"queue_depth": 0, "queue_cap": 16, "accepted": 0, "shed": 0, "in_flight_cells": 0, "cells_done": 0, "retries": 0, "quarantined": 0, "io_errors": 0, "jobs": {"queued": 0, "running": 0, "completed": 0, "failed": 0, "interrupted": 0}, "cell_seconds": {"count": 0, "mean": 0.000000, "sparkline": "∅"}, "draining": false}"#
                .to_string()
        )
    );
    assert_eq!(get("/nope"), (404, r#"{"error": "not found"}"#.to_string()));
    assert_eq!(
        get("/jobs/job-9999-00000000/report"),
        (404, r#"{"error": "not found"}"#.to_string())
    );
    assert_eq!(
        http(&addr, "DELETE", "/jobs", None),
        (405, r#"{"error": "method not allowed"}"#.to_string())
    );
    assert_eq!(
        http(&addr, "POST", "/jobs", Some(r#"{"kind": "nope"}"#)),
        (
            400,
            r#"{"error": "'kind' must be \"attack\" or \"resilience\""}"#.to_string()
        )
    );

    // A job that completes after one retry. The 202 body's queue depth is
    // read in the same lock hold that queues the job, so it is 1.
    let (code, accepted) = http(&addr, "POST", "/jobs", Some(&attack_spec().canonical()));
    assert_eq!(
        (code, accepted.as_str()),
        (
            202,
            r#"{"id": "job-0000-b046fac4", "cells_total": 12, "queue_depth": 1}"#
        )
    );
    let done = job_id(&accepted);
    wait_for_status(&addr, &done, "completed", Duration::from_secs(120));
    assert_eq!(
        get(&format!("/jobs/{done}")),
        (
            200,
            r#"{"id": "job-0000-b046fac4", "status": "completed", "cells_total": 12, "cells_done": 12, "retries": 1, "quarantined": []}"#
                .to_string()
        )
    );
    let cores = detected_cores();
    assert_eq!(
        get(&format!("/jobs/{done}/report")),
        (
            200,
            format!(
                r#"{{
  "bench": "campaign",
  "kind": "attack",
  "strategy": "Context-Aware",
  "attack": "Acceleration",
  "base_seed": 18446744073709551615,
  "reps_per_cell": 1,
  "cores": {cores},
  "total_runs": 12,
  "hazardous_runs": 11,
  "accident_runs": 7,
  "hazard_no_alert_runs": 11,
  "mean_tth_s": 4.869
}}
"#
            )
        )
    );

    // A job whose cell 0 never succeeds: quarantined, failed, reason shown.
    let cursed = "{\"kind\": \"attack\", \"strategy\": \"random_st\", \
\"attack\": \"steering_left\", \"base_seed\": 5, \"panic_cells\": [[0, 9]]}";
    let (code, accepted) = http(&addr, "POST", "/jobs", Some(cursed));
    assert_eq!(code, 202, "{accepted}");
    let failed = job_id(&accepted);
    wait_for_status(&addr, &failed, "failed", Duration::from_secs(120));
    assert_eq!(
        get(&format!("/jobs/{failed}")),
        (
            200,
            format!(
                r#"{{"id": "{failed}", "status": "failed", "cells_total": 12, "cells_done": 11, "retries": 2, "quarantined": [0], "reason": "1 cell(s) quarantined after 3 attempts each: [0]"}}"#
            )
        )
    );
    assert_eq!(
        get(&format!("/jobs/{failed}/report")),
        (
            410,
            r#"{"error": "1 cell(s) quarantined after 3 attempts each: [0]"}"#.to_string()
        )
    );

    let (code, stats) = get("/stats");
    assert_eq!(code, 200);
    assert_eq!(
        without_cell_timings(&stats, 23),
        r#"{"queue_depth": 0, "queue_cap": 16, "accepted": 2, "shed": 0, "in_flight_cells": 0, "cells_done": 23, "retries": 3, "quarantined": 1, "io_errors": 0, "jobs": {"queued": 0, "running": 0, "completed": 1, "failed": 1, "interrupted": 0}, "cell_seconds": …, "draining": false}"#
    );

    assert_eq!(
        http(&addr, "POST", "/shutdown", None),
        (202, r#"{"ok": true, "draining": true}"#.to_string())
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finished run with the given outcome: a fresh harness's result with
/// its outcome fields set.
fn run(seed: u64, hazard: bool, accident: bool, alerts: u64, tth: Option<f64>) -> SimResult {
    let scenario = Scenario::matrix()[0];
    let mut r = Harness::new(HarnessConfig::no_attack(scenario, seed)).result_so_far();
    r.first_hazard = hazard.then_some((Seconds::new(20.0), HazardKind::H1));
    r.hazard_kinds = if hazard { vec![HazardKind::H1] } else { vec![] };
    r.accident = accident.then_some((Seconds::new(25.0), AccidentKind::A1));
    r.alert_events = alerts;
    r.tth = tth.map(Seconds::new);
    r
}

#[test]
fn attack_report_with_runs_bytes() {
    let runs = [
        run(1, true, true, 0, Some(2.5)),
        run(2, true, false, 3, Some(1.25)),
        // A hazard before the attack activated: counted, no TTH.
        run(3, true, false, 0, None),
        run(4, false, false, 1, None),
    ];
    let cores = detected_cores();
    assert_eq!(
        attack_spec().report(&runs),
        format!(
            r#"{{
  "bench": "campaign",
  "kind": "attack",
  "strategy": "Context-Aware",
  "attack": "Acceleration",
  "base_seed": 18446744073709551615,
  "reps_per_cell": 1,
  "cores": {cores},
  "total_runs": 4,
  "hazardous_runs": 3,
  "accident_runs": 1,
  "hazard_no_alert_runs": 2,
  "mean_tth_s": 1.875
}}
"#
        )
    );
}
