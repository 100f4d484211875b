//! Resilience campaign: every fault kind over the S1–S4 matrix at two
//! intensities, aggregated into `BENCH_resilience.json` at the repo root.
//!
//! The campaign is attack-free: the fault engine injects sensor, IPC and
//! CAN faults on a deterministic schedule and the report measures how the
//! ADAS degradation ladder absorbs them — hazard/accident rates, time
//! degraded, time in fail-safe, spurious FCWs and recovery latency.
//!
//! Run with e.g. `REPRO_SCALE=20 cargo bench -p bench --bench resilience`.
//! The campaign is run twice (parallel, then single-worker) and the two
//! JSON reports must match byte for byte: seeded fault injection is part
//! of the reproducibility contract.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench times its own run; timings are reported beside the seeded results and never feed them"
)]

use bench::{canonical_resilience_config, scale_divisor, write_artifact};
use platform::experiment::RunnerConfig;
use platform::resilience::run_resilience_campaign_with;

fn main() {
    let cfg = canonical_resilience_config();
    let t0 = std::time::Instant::now();
    let report = run_resilience_campaign_with(RunnerConfig::default(), &cfg);
    let seconds = t0.elapsed().as_secs_f64();
    println!(
        "resilience: {} runs across {} fault/intensity cells in {:.2}s (scale 1/{})",
        report.total_runs,
        report.cells.len(),
        seconds,
        scale_divisor()
    );
    for cell in &report.cells {
        println!(
            "  {:<18} i={:.1}  hazards {}/{}  accidents {}  failsafe {}  \
degraded {:>6.1}s  recovered {} ({})",
            cell.fault,
            cell.intensity,
            cell.hazardous_runs,
            cell.runs,
            cell.accident_runs,
            cell.failsafe_runs,
            cell.mean_degraded_s,
            cell.recovered_runs,
            cell.mean_recovery_s
                .map_or("-".to_string(), |s| format!("{s:.1}s")),
        );
    }

    let json = report.to_json();
    let replay = run_resilience_campaign_with(RunnerConfig::with_workers(1), &cfg);
    assert_eq!(
        json,
        replay.to_json(),
        "seeded fault campaign must be bit-reproducible across worker counts"
    );
    println!("  replay identical: true");

    // The tracked copy lives at the repo root (BENCH_resilience.json);
    // write_artifact drops a second copy under target/paper-artifacts/.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_resilience.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[artifact] {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    write_artifact("BENCH_resilience.json", &json);
}
