//! Campaign throughput benchmark: sims/sec and ticks/sec, serial vs.
//! parallel, written to `BENCH_throughput.json` at the repo root so the
//! perf trajectory is tracked from commit to commit.
//!
//! The workload is a scaled Context-Aware campaign (the paper's headline
//! strategy) over all six attack types. Serial runs one [`Harness`] per
//! sim on the calling thread; parallel is the campaign runner as every
//! campaign uses it — the same cells fanned out over the persistent worker
//! pool (`REPRO_WORKERS` or all cores). Both passes must produce
//! bit-identical results.
//!
//! Run with e.g. `REPRO_SCALE=20 cargo bench -p bench --bench throughput`.
//! No wall-clock gating anywhere: the JSON records `cores` and `workers`,
//! since `speedup` (parallel over serial) is mostly the core count.

use attack_core::StrategyKind;
use bench::{scale_divisor, scaled_reps, write_artifact};
use platform::experiment::{
    detected_cores, plan_attack_campaign, run_campaign_cells, CampaignConfig, RunnerConfig, RunSpec,
};
use platform::{Harness, SimResult, TraceConfig};
use units::STEPS_PER_SIM;

/// One timed pass over the work list.
struct Pass {
    seconds: f64,
    sims_per_sec: f64,
    ticks_per_sec: f64,
}

/// Times `run` over the work list.
fn timed(
    specs: &[RunSpec],
    run: impl FnOnce(&[RunSpec]) -> Vec<SimResult>,
) -> (Pass, Vec<SimResult>) {
    let t0 = std::time::Instant::now();
    let results = run(specs);
    let seconds = t0.elapsed().as_secs_f64().max(1e-9);
    let sims = specs.len() as f64;
    let ticks = sims * STEPS_PER_SIM as f64;
    (
        Pass {
            seconds,
            sims_per_sec: sims / seconds,
            ticks_per_sec: ticks / seconds,
        },
        results,
    )
}

fn pass_json(p: &Pass) -> String {
    format!(
        "{{\"seconds\": {:.3}, \"sims_per_sec\": {:.2}, \"ticks_per_sec\": {:.0}}}",
        p.seconds, p.sims_per_sec, p.ticks_per_sec
    )
}

fn main() {
    let reps = scaled_reps();
    let mut cfg = CampaignConfig::paper(StrategyKind::ContextAware);
    cfg.reps = reps;
    let specs: Vec<_> = attack_core::AttackType::ALL
        .into_iter()
        .flat_map(|t| plan_attack_campaign(&cfg, t))
        .collect();
    println!(
        "throughput: Context-Aware campaign, {} sims x {} ticks (scale 1/{})",
        specs.len(),
        STEPS_PER_SIM,
        scale_divisor()
    );

    let cores = detected_cores();
    let workers = RunnerConfig::default().worker_count(specs.len());

    let (serial, serial_results) = timed(&specs, |specs| {
        specs
            .iter()
            .map(|s| Harness::new(s.harness_config(TraceConfig::disabled())).run())
            .collect()
    });
    println!(
        "  serial:   {:.2}s  {:.1} sims/s  {:.0} ticks/s",
        serial.seconds, serial.sims_per_sec, serial.ticks_per_sec
    );
    let (parallel, parallel_results) = timed(&specs, |specs| {
        run_campaign_cells(RunnerConfig::default(), specs.to_vec(), RunSpec::run)
    });
    println!(
        "  parallel: {:.2}s  {:.1} sims/s  {:.0} ticks/s  ({workers} workers, {cores} cores)",
        parallel.seconds, parallel.sims_per_sec, parallel.ticks_per_sec
    );

    let speedup = serial.seconds / parallel.seconds;
    let identical = serial_results == parallel_results;
    println!("  speedup: parallel {speedup:.2}x  results identical: {identical}");
    assert!(identical, "parallel results must match serial bit for bit");

    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"campaign\": \"context_aware_all_types\",\n  \
         \"scale_divisor\": {},\n  \"reps_per_cell\": {},\n  \"sims\": {},\n  \
         \"ticks_per_sim\": {},\n  \"cores\": {},\n  \"workers\": {},\n  \
         \"serial\": {},\n  \"parallel\": {},\n  \"speedup\": {:.2},\n  \
         \"results_identical\": {}\n}}\n",
        scale_divisor(),
        reps,
        specs.len(),
        STEPS_PER_SIM,
        cores,
        workers,
        pass_json(&serial),
        pass_json(&parallel),
        speedup,
        identical
    );

    // The tracked copy lives at the repo root (BENCH_throughput.json);
    // write_artifact drops a second copy under target/paper-artifacts/.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_throughput.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[artifact] {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    write_artifact("BENCH_throughput.json", &json);
}
