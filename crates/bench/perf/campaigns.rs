//! The three in-process campaign workloads. One iteration plans a
//! campaign, fans its cells out over the platform worker pool exactly as
//! the campaign runners do (`run_campaign_cells` over every core), and
//! renders its report; a run repeats iterations for the measured time.

use std::hint::black_box;
use std::time::Instant;

use attack_core::{AttackType, StrategyKind};
use driver_model::DriverConfig;
use platform::defense_campaign::{plan_defense_campaign, DefenseCampaignConfig, DefenseSpec};
use platform::experiment::{
    plan_attack_campaign, plan_no_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec,
    RunnerConfig,
};
use platform::metrics::StrategyAggregate;
use platform::resilience::{
    aggregate_resilience_results, plan_resilience_campaign, ResilienceConfig, ResilienceSpec,
};
use platform::{Harness, HarnessConfig, SimResult, TraceConfig};

use crate::measure::{self, median, percentile, Outcome};
use crate::stages::{self, SampleTrace};

/// Repetitions per scenario cell of one `paper_attack` iteration: Table IV
/// at 1/20 of the paper's 20 (948 sims, Random-ST+DUR keeping its 10×
/// draws).
const PAPER_REPS: u32 = 1;
/// Repetitions per cell of one `resilience_faults` iteration (432 sims).
const RESILIENCE_REPS: u32 = 2;
/// Repetitions per cell of one `defense_matrix` iteration (1,200 sims).
const DEFENSE_REPS: u32 = 1;
/// Iterations a run makes even when they outlast the measured time, so
/// every median has at least this many samples.
const MIN_ITERATIONS: usize = 3;
/// Set-ups timed before each iteration; `setup_s` is the median over the
/// run, so momentary interference on a shared host cannot own it.
const SETUPS_PER_ITERATION: usize = 3;
/// Every `SAMPLE_STRIDE`-th planned cell is replayed single-threaded (and
/// stage-traced under `--trace 1`).
pub const SAMPLE_STRIDE: usize = 16;

/// A planned cell of any campaign family.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    Run(RunSpec),
    Resilience(ResilienceSpec),
    Defense(DefenseSpec),
}

impl Cell {
    pub fn run(&self) -> SimResult {
        match self {
            Cell::Run(spec) => spec.run(),
            Cell::Resilience(spec) => spec.run(),
            Cell::Defense(spec) => spec.run(),
        }
    }

    pub fn harness_config(&self) -> HarnessConfig {
        match self {
            Cell::Run(spec) => spec.harness_config(TraceConfig::disabled()),
            Cell::Resilience(spec) => spec.harness_config(),
            Cell::Defense(spec) => spec.harness_config(),
        }
    }
}

/// The campaign workloads.
#[derive(Debug, Clone, Copy)]
pub enum Campaign {
    /// Table IV: the No-Attacks baseline, then each strategy's six-attack
    /// campaign, as five fan-outs in the order the table bench runs them.
    Paper,
    /// The fault × intensity × scenario sweep under the `Degrade` defense.
    Resilience,
    /// Four defense policies × 25 threats × 12 scenario cells.
    Defense,
}

/// One fan-out of a plan.
pub struct Group {
    label: String,
    cells: Vec<Cell>,
}

impl Campaign {
    /// The iteration's plan, through the platform's own planners.
    pub fn plan(self, seed: u64) -> Vec<Group> {
        match self {
            Campaign::Paper => {
                let mut groups = vec![Group {
                    label: "No Attacks".to_string(),
                    cells: plan_no_attack_campaign(PAPER_REPS, seed, DriverConfig::alert())
                        .into_iter()
                        .map(Cell::Run)
                        .collect(),
                }];
                for strategy in StrategyKind::ALL {
                    let cfg = CampaignConfig {
                        reps: PAPER_REPS,
                        base_seed: seed,
                        ..CampaignConfig::paper(strategy)
                    };
                    groups.push(Group {
                        label: strategy.label().to_string(),
                        cells: AttackType::ALL
                            .into_iter()
                            .flat_map(|t| plan_attack_campaign(&cfg, t))
                            .map(Cell::Run)
                            .collect(),
                    });
                }
                groups
            }
            Campaign::Resilience => vec![Group {
                label: "resilience".to_string(),
                cells: plan_resilience_campaign(&ResilienceConfig::new(seed, RESILIENCE_REPS))
                    .into_iter()
                    .map(Cell::Resilience)
                    .collect(),
            }],
            Campaign::Defense => vec![Group {
                label: "defense".to_string(),
                cells: plan_defense_campaign(&DefenseCampaignConfig::new(seed, DEFENSE_REPS))
                    .into_iter()
                    .map(Cell::Defense)
                    .collect(),
            }],
        }
    }

    /// The report a user of the campaign reads, through the platform's
    /// public renderers. The defense campaign's aggregation is internal
    /// to its runner, so its report here is the per-run CSV export.
    fn render(self, seed: u64, groups: &[Group], results: &[SimResult]) -> String {
        match self {
            Campaign::Paper => {
                let mut at = 0;
                let rows: Vec<StrategyAggregate> = groups
                    .iter()
                    .map(|g| {
                        let rows = &results[at..at + g.cells.len()];
                        at += g.cells.len();
                        StrategyAggregate::from_results(g.label.as_str(), rows)
                    })
                    .collect();
                platform::tables::render_table_iv(&rows)
            }
            Campaign::Resilience => {
                aggregate_resilience_results(&ResilienceConfig::new(seed, RESILIENCE_REPS), results)
                    .to_json()
            }
            Campaign::Defense => platform::report::sim_results_csv(results),
        }
    }
}

/// One campaign execution as its caller sees it.
pub struct Iteration {
    /// Every cell's result, in plan order.
    pub results: Vec<SimResult>,
    /// Plan, fan-out and report, end to end.
    pub wall_s: f64,
    pub plan_s: f64,
    pub fanout_s: f64,
    pub render_s: f64,
    pub workers: usize,
    /// Per-cell run time (timed iterations only).
    pub cell_s: Vec<f64>,
}

/// Fans `cells` out over the pool with every core, optionally timing each
/// cell inside its worker. Returns results, cell times and fan-out wall.
pub fn fan_out(cells: Vec<Cell>, time_cells: bool) -> (Vec<SimResult>, Vec<f64>, f64) {
    let started = Instant::now();
    if time_cells {
        let timed = run_campaign_cells(RunnerConfig::default(), cells, |cell: &Cell| {
            let t = Instant::now();
            let result = cell.run();
            (result, t.elapsed().as_secs_f64())
        });
        let wall = started.elapsed().as_secs_f64();
        let (results, secs) = timed.into_iter().unzip();
        (results, secs, wall)
    } else {
        let results = run_campaign_cells(RunnerConfig::default(), cells, Cell::run);
        (results, Vec::new(), started.elapsed().as_secs_f64())
    }
}

fn iterate(campaign: Campaign, seed: u64, time_cells: bool) -> Iteration {
    let started = Instant::now();
    let groups = campaign.plan(seed);
    let plan_s = started.elapsed().as_secs_f64();
    let mut results = Vec::new();
    let mut cell_s = Vec::new();
    let mut fanout_s = 0.0;
    let mut workers = 0;
    for group in &groups {
        workers = workers.max(RunnerConfig::default().worker_count(group.cells.len()));
        let (rs, secs, wall) = fan_out(group.cells.clone(), time_cells);
        results.extend(rs);
        cell_s.extend(secs);
        fanout_s += wall;
    }
    let rendered = Instant::now();
    black_box(campaign.render(seed, &groups, &results));
    let render_s = rendered.elapsed().as_secs_f64();
    Iteration {
        results,
        wall_s: started.elapsed().as_secs_f64(),
        plan_s,
        fanout_s,
        render_s,
        workers,
        cell_s,
    }
}

/// Checks every [`SAMPLE_STRIDE`]-th cell's single-threaded result against
/// the pooled one; under `trace` also runs the stage replica and the
/// batched engine on that sample. Returns the trace when one was taken.
pub fn check_sample(
    out: &mut Outcome,
    cells: &[Cell],
    pooled: &[SimResult],
    trace: bool,
) -> Option<SampleTrace> {
    let configs: Vec<HarnessConfig> = cells
        .iter()
        .step_by(SAMPLE_STRIDE)
        .map(Cell::harness_config)
        .collect();
    let traced = trace.then(|| stages::trace_sample(&configs));
    let replayed: Vec<SimResult>;
    let serial = match &traced {
        Some(t) => {
            for &lane in &t.mismatches {
                out.fail(format!(
                    "cell {}: stage replica or batch engine differs from Harness::run",
                    lane * SAMPLE_STRIDE
                ));
            }
            &t.harness
        }
        None => {
            replayed = configs.iter().map(|c| Harness::new(*c).run()).collect();
            &replayed
        }
    };
    out.attempted += serial.len() as u64;
    for (lane, result) in serial.iter().enumerate() {
        let at = lane * SAMPLE_STRIDE;
        if pooled.get(at) != Some(result) {
            out.fail(format!(
                "cell {at}: pooled result differs from a single-worker replay"
            ));
        }
    }
    traced
}

/// Per-layer metrics of the traced sample.
pub fn push_sample_metrics(out: &mut Outcome, t: &SampleTrace) {
    let per_tick = t.clock.per_tick_ns();
    for (name, ns) in stages::STAGE_METRICS.into_iter().zip(per_tick) {
        out.metric(name, ns, "ns");
    }
    let lanes = t.harness.len().max(1) as f64;
    out.metric("platform.tick_ns", per_tick.iter().sum(), "ns");
    out.metric("platform.clock_read_ns", t.clock_read_ns, "ns");
    out.metric(
        "platform.frozen_tick_ratio",
        t.clock.frozen_ratio(),
        "ratio",
    );
    out.metric(
        "platform.trace_overhead_ratio",
        t.replica_s / t.harness_s,
        "ratio",
    );
    out.metric("platform.harness_sims_per_s", lanes / t.harness_s, "sims/s");
    out.metric("platform.batch_sims_per_s", lanes / t.batch_s, "sims/s");
    out.metric(
        "platform.batch_fast_lane_ratio",
        t.fast_lanes as f64 / lanes,
        "ratio",
    );
}

/// Per-layer metrics of the campaign phases over timed iterations.
pub fn push_pool_metrics(out: &mut Outcome, iterations: &[Iteration]) {
    let ms = |s: f64| s * 1e3;
    let cells: Vec<f64> = iterations
        .iter()
        .flat_map(|it| it.cell_s.iter().copied())
        .collect();
    let busy: Vec<f64> = iterations
        .iter()
        .map(|it| it.cell_s.iter().sum::<f64>() / (it.workers.max(1) as f64 * it.fanout_s))
        .collect();
    let of = |f: fn(&Iteration) -> f64| iterations.iter().map(f).collect::<Vec<f64>>();
    out.metric("experiment.plan_ms", ms(median(&of(|it| it.plan_s))), "ms");
    out.metric("pool.fanout_s", median(&of(|it| it.fanout_s)), "s");
    out.metric("pool.workers", median(&of(|it| it.workers as f64)), "count");
    out.metric("pool.busy_ratio", median(&busy), "ratio");
    out.metric("pool.cell_p50_ms", ms(median(&cells)), "ms");
    out.metric(
        "pool.cell_p95_ms",
        ms(percentile(&cells, 95).unwrap_or(0.0)),
        "ms",
    );
    out.metric(
        "pool.cell_max_ms",
        ms(percentile(&cells, 100).unwrap_or(0.0)),
        "ms",
    );
    out.metric("report.render_ms", ms(median(&of(|it| it.render_s))), "ms");
}

/// One set-up: plan the iteration and wire every planned cell's
/// simulation stack (`Harness::new`), single-threaded — the construction
/// cost a change could move work into. Returns seconds.
fn set_up(campaign: Campaign, seed: u64) -> f64 {
    let started = Instant::now();
    for group in campaign.plan(seed) {
        for cell in &group.cells {
            black_box(Harness::new(cell.harness_config()));
        }
    }
    started.elapsed().as_secs_f64()
}

/// Runs one campaign workload for `seconds` and checks its output.
pub fn run(
    campaign: Campaign,
    name: &str,
    seed: u64,
    default_seed: u64,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let mut out = Outcome::default();
    // Iteration 0's results are the reference; every later iteration must
    // reproduce them bit for bit and is then dropped, so memory holds one
    // iteration however many fit in the measured time. The host's speed is
    // probed between iterations.
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut speeds = Vec::new();
    let mut speed_before = measure::host_speed();
    let mut reference: Vec<SimResult> = Vec::new();
    while iterations.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        let setups: Vec<f64> = (0..SETUPS_PER_ITERATION)
            .map(|_| set_up(campaign, seed))
            .collect();
        let mut it = iterate(campaign, seed, trace);
        let speed_after = measure::host_speed();
        let speed = (speed_before + speed_after) / 2.0;
        speed_before = speed_after;
        setup.extend(setups.iter().map(|s| s * speed));
        speeds.push(speed);
        let results = std::mem::take(&mut it.results);
        out.attempted += results.len() as u64;
        if iterations.is_empty() {
            reference = results;
        } else {
            let differing = results
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a != b)
                .count();
            if differing > 0 || results.len() != reference.len() {
                out.fail(format!(
                    "iteration {}: {differing} cells differ from iteration 0",
                    iterations.len()
                ));
            }
        }
        iterations.push(it);
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss = measure::peak_rss_mb(None).unwrap_or(0.0);

    // Correctness, after the timed section: iteration 0 matches its golden
    // digest, and sampled cells match a single-worker replay.
    if let Err(e) = measure::check_golden(
        measure::GOLDEN,
        name,
        seed,
        default_seed,
        "iteration",
        measure::digest(&reference),
    ) {
        out.fail(e);
    }
    let cells: Vec<Cell> = campaign
        .plan(seed)
        .into_iter()
        .flat_map(|g| g.cells)
        .collect();
    let traced = check_sample(&mut out, &cells, &reference, trace);

    match traced {
        Some(t) => {
            push_sample_metrics(&mut out, &t);
            push_pool_metrics(&mut out, &iterations);
            crate::service::push_idle_service_metrics(&mut out);
        }
        None => {
            // Every time is read at the reference host's speed, so a run
            // reads the same however busy other tenants keep the host.
            let walls: Vec<f64> = iterations
                .iter()
                .zip(&speeds)
                .map(|(it, speed)| it.wall_s * speed)
                .collect();
            let wall = median(&walls);
            out.metric("setup_s", median(&setup), "s");
            out.metric("sims_per_s", reference.len() as f64 / wall, "sims/s");
            out.metric("job_latency_p50_s", wall, "s");
            out.metric("peak_rss_mb", peak_rss, "MB");
        }
    }
    eprintln!(
        "{name}: {} iterations of {} cells in {measured_s:.1} s, walls [{}] s at host speeds [{}]",
        iterations.len(),
        reference.len(),
        measure::list(iterations.iter().map(|it| it.wall_s)),
        measure::list(speeds.iter().copied()),
    );
    out
}
