//! Defense campaign: every defense deployment (off / observe / degrade /
//! fail-safe) against the clean baseline, the Context-Aware strategic
//! attacker, and the full fault matrix, aggregated into
//! `BENCH_defense.json` at the repo root.
//!
//! The report answers, per (policy, threat) cell: did a detector fire, how
//! fast after onset, did acting on it reduce hazards/accidents, and — on
//! the clean threat — whether any detection was spurious.
//!
//! Run with e.g. `REPRO_SCALE=20 cargo bench -p bench --bench defense`.
//! The campaign is run twice (parallel, then single-worker) and the two
//! JSON reports must match byte for byte.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench times its own run; timings are reported beside the seeded results and never feed them"
)]

use bench::{scale_divisor, write_artifact};
use platform::defense_campaign::{run_defense_campaign_with, DefenseCampaignConfig};
use platform::experiment::RunnerConfig;

fn main() {
    // The threat matrix is ~25 threats x 4 policies x 12 scenario cells, so
    // reps stay small: 2 at full scale, 1 under any REPRO_SCALE.
    let reps = if scale_divisor() > 1 { 1 } else { 2 };
    let cfg = DefenseCampaignConfig::new(0xD3F3, reps);
    let t0 = std::time::Instant::now();
    let report = run_defense_campaign_with(RunnerConfig::default(), &cfg);
    let seconds = t0.elapsed().as_secs_f64();
    println!(
        "defense: {} runs across {} policy/threat cells in {:.2}s (scale 1/{})",
        report.total_runs,
        report.cells.len(),
        seconds,
        scale_divisor()
    );
    for cell in &report.cells {
        let detection = cell
            .mean_detection_s
            .map_or("     -".to_string(), |s| format!("{s:5.2}s"));
        println!(
            "  {:<9} {:<26} haz {:>2}/{:<2} acc {:>2}  det {:>2} \
(ids {:>2} inv {:>2} mon {:>2})  gates {:>4}  latency {}",
            cell.policy,
            cell.threat,
            cell.hazardous_runs,
            cell.runs,
            cell.accident_runs,
            cell.detected_runs,
            cell.ids_detected_runs,
            cell.invariant_detected_runs,
            cell.monitor_detected_runs,
            cell.gate_rejections,
            detection,
        );
    }

    let json = report.to_json();
    let replay = run_defense_campaign_with(RunnerConfig::with_workers(1), &cfg);
    assert_eq!(
        json,
        replay.to_json(),
        "defense campaign must be bit-reproducible across worker counts"
    );
    println!("  replay identical: true");

    // The tracked copy lives at the repo root (BENCH_defense.json);
    // write_artifact drops a second copy under target/paper-artifacts/.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_defense.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[artifact] {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    write_artifact("BENCH_defense.json", &json);
}
