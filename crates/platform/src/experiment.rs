//! The experiment campaigns of §IV: scenario × initial-gap × repetition
//! matrices for each attack type and strategy, run in parallel.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use defense::DefensePolicy;
use driver_model::DriverConfig;
use driving_sim::Scenario;
use serde::{Deserialize, Serialize};

use crate::trace::{CampaignMetrics, TraceConfig, TraceRecorder};
use crate::{Harness, HarnessConfig, HazardParams, SimResult};

/// A full campaign: every attack type over the whole scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// The scheduling strategy.
    pub strategy: StrategyKind,
    /// The value-corruption mode.
    pub value_mode: ValueMode,
    /// Repetitions per (scenario, gap) cell. The paper uses 20
    /// (→ 60 sims per attack type per scenario behaviour, 1,440 total).
    pub reps: u32,
    /// Extra parameter draws per repetition (the paper runs Random-ST+DUR
    /// ten times as often, 14,400 sims, "to maximize coverage").
    pub draws: u32,
    /// The simulated driver.
    pub driver: DriverConfig,
    /// Whether Panda firmware checks are enforced.
    pub panda_enabled: bool,
    /// Base seed; all run seeds derive deterministically from it.
    pub base_seed: u64,
}

impl CampaignConfig {
    /// The paper's configuration for a given strategy (Table III): strategic
    /// values for Context-Aware, fixed for the baselines; 10× draws for
    /// Random-ST+DUR.
    pub fn paper(strategy: StrategyKind) -> Self {
        Self {
            strategy,
            value_mode: AttackConfig::canonical_value_mode(strategy),
            reps: 20,
            draws: if strategy == StrategyKind::RandomStDur {
                10
            } else {
                1
            },
            driver: DriverConfig::alert(),
            panda_enabled: false,
            base_seed: 0x5AFE,
        }
    }

    /// A reduced-size variant for tests and smoke runs.
    pub fn smoke(strategy: StrategyKind, reps: u32) -> Self {
        Self {
            reps,
            draws: 1,
            ..Self::paper(strategy)
        }
    }
}

/// Deterministic seed mixing (splitmix64) so campaigns are reproducible and
/// paired campaigns (alert vs. inattentive driver) share world seeds.
/// Re-exported from the canonical [`units::mix`] implementation; the golden
/// constants in `tests/trace.rs` pin that the hoist preserved every bit.
pub use units::mix::mix_seed;

/// One unit of work in a campaign.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The attack to run (None = attack-free baseline).
    pub attack: Option<AttackConfig>,
    /// Scenario.
    pub scenario: Scenario,
    /// World/sensor seed.
    pub seed: u64,
    /// Driver.
    pub driver: DriverConfig,
    /// Panda enforcement.
    pub panda_enabled: bool,
    /// Defense deployment for the run.
    pub defense: DefensePolicy,
}

impl RunSpec {
    /// The harness configuration of the run, with the given trace setting.
    pub fn harness_config(&self, trace: TraceConfig) -> HarnessConfig {
        HarnessConfig {
            scenario: self.scenario,
            seed: self.seed,
            attack: self.attack,
            driver: self.driver,
            panda_enabled: self.panda_enabled,
            defense: self.defense,
            hazard_params: HazardParams::default(),
            trace,
            faults: faultinj::FaultSchedule::empty(),
        }
    }

    /// Executes the run without tracing.
    pub fn run(&self) -> SimResult {
        Harness::new(self.harness_config(TraceConfig::disabled())).run()
    }

    /// Executes the run with a flight recorder attached.
    pub fn run_traced(&self, trace: TraceConfig) -> (SimResult, Option<TraceRecorder>) {
        Harness::new(self.harness_config(trace)).run_traced()
    }
}

/// Expands a campaign into its work list for one attack type.
pub fn plan_attack_campaign(cfg: &CampaignConfig, attack_type: AttackType) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
        for rep in 0..cfg.reps {
            for draw in 0..cfg.draws {
                let seed = mix_seed(
                    cfg.base_seed,
                    &[si as u64, rep as u64, draw as u64, attack_type.index() as u64],
                );
                specs.push(RunSpec {
                    attack: Some(AttackConfig {
                        attack_type,
                        strategy: cfg.strategy,
                        value_mode: cfg.value_mode,
                        seed,
                        ..AttackConfig::default()
                    }),
                    scenario,
                    seed,
                    driver: cfg.driver,
                    panda_enabled: cfg.panda_enabled,
                    defense: DefensePolicy::Off,
                });
            }
        }
    }
    specs
}

/// Expands the attack-free baseline campaign (the paper's "No Attacks" row).
pub fn plan_no_attack_campaign(reps: u32, base_seed: u64, driver: DriverConfig) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
        for rep in 0..reps {
            specs.push(RunSpec {
                attack: None,
                scenario,
                seed: mix_seed(base_seed, &[si as u64, rep as u64, 999]),
                driver,
                panda_enabled: false,
                defense: DefensePolicy::Off,
            });
        }
    }
    specs
}

/// Worker-pool configuration for the campaign runners.
///
/// # `REPRO_WORKERS`
///
/// With `workers: None`, the count resolves from the `REPRO_WORKERS`
/// environment variable. The accepted values, in the one place they are
/// defined:
///
/// * unset, empty, unparsable, or `0` — **auto**: every core
///   `std::thread::available_parallelism()` reports;
/// * `1` — serial on the calling thread (the reproducibility baseline);
/// * `k ≥ 2` — exactly `k` participants, the caller plus `k - 1` pool
///   workers.
///
/// The resolved count is always clamped to the job size, so small campaigns
/// never spawn idle workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker thread count. `None` resolves from the `REPRO_WORKERS`
    /// environment variable if set (and ≥ 1, `0` meaning auto), else all
    /// available cores.
    pub workers: Option<usize>,
}

impl RunnerConfig {
    /// A runner with an explicit worker count (`0` is clamped to `1`).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: Some(workers.max(1)),
        }
    }

    /// The worker count to use for a job of `n` items: the explicit setting,
    /// else `REPRO_WORKERS`, else every available core — never more than
    /// `n` and never less than one.
    pub fn worker_count(&self, n: usize) -> usize {
        let configured = self
            .workers
            .or_else(|| {
                std::env::var("REPRO_WORKERS")
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&w| w >= 1)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(4)
            });
        configured.max(1).min(n.max(1))
    }
}

/// The machine's core count as recorded in every `BENCH_*.json` header:
/// what `std::thread::available_parallelism()` reports, `1` if unknown.
/// Deliberately independent of the worker count actually used, so a
/// report stays byte-identical across the parallel-vs-single-worker
/// replay the benches assert.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Fans a planned campaign's cells out over the persistent worker pool,
/// preserving plan order: element `i` of the result is `run(&specs[i])`.
///
/// This is the one fan-out every campaign shares — the attack campaigns
/// here, the fault matrix in [`crate::resilience`], and the policy ladder
/// in [`crate::defense_campaign`] all pass their own spec type and a
/// `.run()`-shaped closure. The spec vector is moved into an `Arc<[S]>` so
/// the job satisfies the pool's `'static` bound (workers are detached
/// persistent threads; see [`crate::pool`]) without cloning a single spec.
pub fn run_campaign_cells<S, T, F>(cfg: RunnerConfig, specs: Vec<S>, run: F) -> Vec<T>
where
    S: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(&S) -> T + Send + Sync + 'static,
{
    let n = specs.len();
    let specs: std::sync::Arc<[S]> = specs.into();
    crate::pool::run_indexed(cfg.worker_count(n), n, move |i| run(&specs[i]))
}

/// [`run_campaign_cells`] with an incremental, **index-ordered**
/// `on_cell_complete` hook: `observe(i, &result)` is called exactly once
/// per cell, in plan order, as soon as cell `i` *and every cell before it*
/// have finished.
///
/// This is what lets a checkpoint writer or an NDJSON result streamer ride
/// a campaign without buffering it whole: the hook fires while later cells
/// are still running, and because invocations are index-ordered they are
/// deterministic across worker counts — a completion-order hook would leak
/// scheduling into whatever consumes it (the R14 merge rule, applied to
/// callbacks).
///
/// Mechanics: results land in pre-sized per-cell slots; whichever worker
/// completes a cell then advances a shared frontier cursor, draining every
/// consecutive ready slot through `observe`. The hot path allocates
/// nothing — slots and cursor are allocated once up front, and a cell
/// behind the frontier costs one slot store plus one cursor check. The
/// hook runs on worker threads under the frontier lock (that is what
/// serializes it into index order), so it should be cheap or amortized —
/// an append to an open file, a buffered socket write.
pub fn run_campaign_cells_observed<S, T, F, C>(
    cfg: RunnerConfig,
    specs: Vec<S>,
    run: F,
    observe: C,
) -> Vec<T>
where
    S: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(&S) -> T + Send + Sync + 'static,
    C: FnMut(usize, &T) + Send + 'static,
{
    use std::sync::{Arc, Mutex, PoisonError};

    let n = specs.len();
    let specs: Arc<[S]> = specs.into();
    let slots: Arc<Vec<Mutex<Option<T>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    // Frontier cursor: (next index to observe, the hook). One lock for
    // both so the index order is a lock-order fact, not a protocol.
    let cursor: Arc<Mutex<(usize, C)>> = Arc::new(Mutex::new((0, observe)));
    let sink = Arc::clone(&slots);
    // Lock poisoning policy: the slot and cursor guards only wrap plain
    // stores and the user hook; a poisoned guard means a sibling hook or
    // `run` panicked, which the pool latches and re-raises at the submit
    // site — recovering the guard here keeps the structurally consistent
    // state usable for the cells that still finish.
    crate::pool::run_indexed(cfg.worker_count(n), n, move |i| {
        let value = run(&specs[i]);
        {
            // Narrow scope: the slot guard is released before the cursor
            // is taken, so the only cross-lock order is cursor → slot.
            let mut slot = sink[i].lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Some(value);
        }
        // Advance the frontier over every consecutively ready slot. The
        // cursor guard is held while `observe` runs — that serialization
        // is the index-order guarantee.
        let mut cur = cursor.lock().unwrap_or_else(PoisonError::into_inner);
        while cur.0 < sink.len() {
            let at = cur.0;
            let slot = sink[at].lock().unwrap_or_else(PoisonError::into_inner);
            match slot.as_ref() {
                Some(value) => {
                    (cur.1)(at, value);
                    drop(slot);
                    cur.0 += 1;
                }
                None => break,
            }
        }
    });
    // Sole owner now: every worker finished and dropped its Arc clones.
    match Arc::try_unwrap(slots) {
        Ok(slots) => slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
        Err(slots) => slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).take())
            .collect(),
    }
}

/// [`run_campaign_cells`] with per-cell panic capture: a panicking cell
/// yields `Err(CellPanic)` in its slot instead of failing the whole
/// campaign. Thin campaign-shaped veneer over [`crate::pool::submit_catching`];
/// supervising services (campaignd) retry or quarantine individual cells
/// from this.
pub fn run_campaign_cells_catching<S, T, F>(
    cfg: RunnerConfig,
    specs: Vec<S>,
    run: F,
) -> Vec<Result<T, crate::pool::CellPanic>>
where
    S: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(&S) -> T + Send + Sync + 'static,
{
    let n = specs.len();
    let specs: std::sync::Arc<[S]> = specs.into();
    crate::pool::submit_catching(cfg.worker_count(n), n, move |i| run(&specs[i]))
}

/// Maps `f` over `0..n` in parallel, preserving order.
///
/// Unlike the campaign runners — which fan out over the persistent pool via
/// [`run_campaign_cells`] — this is a *scoped* map: `f` may borrow from the
/// calling stack frame, at the cost of spawning fresh threads per call. Use
/// it for one-shot generic maps (the lint crate's analysis fan-out); use
/// the pool for anything campaign-shaped. The worker count comes from
/// [`RunnerConfig::default`] (i.e. `REPRO_WORKERS` or all cores); use
/// [`run_parallel_map_with`] to pin it.
pub fn run_parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel_map_with(RunnerConfig::default(), n, f)
}

/// [`run_parallel_map`] with an explicit [`RunnerConfig`].
///
/// Each worker accumulates `(index, result)` pairs in a thread-local batch
/// that is merged once at join — no per-item `Mutex`, no per-item
/// allocation, and a single-worker job degenerates to a plain serial loop
/// on the calling thread.
pub fn run_parallel_map_with<T, F>(cfg: RunnerConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = cfg.worker_count(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut batch: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        batch.push((i, f(i)));
                    }
                    batch
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for batch in batches {
        for (i, value) in batch {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// Runs a work list on the persistent pool across all cores, preserving
/// order.
pub fn run_parallel(specs: &[RunSpec]) -> Vec<SimResult> {
    run_parallel_with(RunnerConfig::default(), specs)
}

/// [`run_parallel`] with an explicit [`RunnerConfig`].
pub fn run_parallel_with(cfg: RunnerConfig, specs: &[RunSpec]) -> Vec<SimResult> {
    run_campaign_cells(cfg, specs.to_vec(), RunSpec::run)
}

/// Runs a work list in parallel with a flight recorder on every run,
/// folding each run's metrics into one [`CampaignMetrics`] aggregate.
///
/// The per-run rings are dropped after aggregation (a campaign's worth of
/// full traces would be gigabytes); pass a small `trace.capacity` since only
/// the metrics survive.
pub fn run_parallel_traced(
    specs: &[RunSpec],
    trace: TraceConfig,
) -> (Vec<SimResult>, CampaignMetrics) {
    let runs = run_campaign_cells(RunnerConfig::default(), specs.to_vec(), move |s: &RunSpec| {
        s.run_traced(trace)
    });
    let mut campaign = CampaignMetrics::default();
    let mut results = Vec::with_capacity(runs.len());
    for (result, recorder) in runs {
        if let Some(rec) = recorder {
            campaign.absorb_run(rec.metrics(), &result);
        }
        results.push(result);
    }
    (results, campaign)
}

/// Runs one attack type across the campaign and returns the results.
pub fn run_attack_campaign(cfg: &CampaignConfig, attack_type: AttackType) -> Vec<SimResult> {
    run_parallel(&plan_attack_campaign(cfg, attack_type))
}

/// Runs all six attack types and returns the concatenated results
/// (the paper's 1,440-run — or 14,400-run — strategy campaigns).
pub fn run_full_campaign(cfg: &CampaignConfig) -> Vec<SimResult> {
    let specs: Vec<RunSpec> = AttackType::ALL
        .into_iter()
        .flat_map(|t| plan_attack_campaign(cfg, t))
        .collect();
    run_parallel(&specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_sizes_match() {
        let cfg = CampaignConfig::paper(StrategyKind::ContextAware);
        // 12 scenario cells x 20 reps = 240 per attack type; 1,440 total.
        assert_eq!(plan_attack_campaign(&cfg, AttackType::Acceleration).len(), 240);
        let total: usize = AttackType::ALL
            .iter()
            .map(|&t| plan_attack_campaign(&cfg, t).len())
            .sum();
        assert_eq!(total, 1_440);
        // Random-ST+DUR runs 10x as many.
        let cfg = CampaignConfig::paper(StrategyKind::RandomStDur);
        let total: usize = AttackType::ALL
            .iter()
            .map(|&t| plan_attack_campaign(&cfg, t).len())
            .sum();
        assert_eq!(total, 14_400);
    }

    #[test]
    fn seeds_are_unique_within_a_campaign() {
        let cfg = CampaignConfig::paper(StrategyKind::ContextAware);
        let mut seeds: Vec<u64> = AttackType::ALL
            .iter()
            .flat_map(|&t| plan_attack_campaign(&cfg, t))
            .map(|s| s.seed)
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "no seed collisions");
    }

    #[test]
    fn mix_seed_is_deterministic_and_sensitive() {
        assert_eq!(mix_seed(1, &[2, 3]), mix_seed(1, &[2, 3]));
        assert_ne!(mix_seed(1, &[2, 3]), mix_seed(1, &[3, 2]));
        assert_ne!(mix_seed(1, &[2, 3]), mix_seed(2, &[2, 3]));
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = CampaignConfig::smoke(StrategyKind::ContextAware, 1);
        let specs: Vec<RunSpec> = plan_attack_campaign(&cfg, AttackType::SteeringRight)
            .into_iter()
            .take(4)
            .collect();
        let parallel = run_parallel(&specs);
        let serial: Vec<SimResult> = specs.iter().map(RunSpec::run).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn no_attack_plan_has_no_attacks() {
        let specs = plan_no_attack_campaign(2, 7, DriverConfig::alert());
        assert_eq!(specs.len(), 24);
        assert!(specs.iter().all(|s| s.attack.is_none()));
    }

    #[test]
    fn parallel_map_empty_job_returns_empty() {
        let out = run_parallel_map(0, |i| i);
        assert!(out.is_empty());
        let out = run_parallel_map_with(RunnerConfig::with_workers(8), 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_with_fewer_items_than_workers() {
        let out = run_parallel_map_with(RunnerConfig::with_workers(16), 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn parallel_map_preserves_order_under_a_slow_first_item() {
        // Item 0 finishes last; its result must still come back first.
        let out = run_parallel_map_with(RunnerConfig::with_workers(4), 8, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i as u64
        });
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn single_worker_equals_serial() {
        let serial: Vec<usize> = (0..10).map(|i| i * i).collect();
        let one = run_parallel_map_with(RunnerConfig::with_workers(1), 10, |i| i * i);
        assert_eq!(one, serial);
        // An explicit 0 clamps to 1 rather than deadlocking.
        assert_eq!(RunnerConfig::with_workers(0).worker_count(10), 1);
    }

    #[test]
    fn worker_count_is_clamped_to_the_job() {
        let cfg = RunnerConfig::with_workers(64);
        assert_eq!(cfg.worker_count(3), 3);
        assert_eq!(cfg.worker_count(0), 1);
        assert_eq!(cfg.worker_count(1000), 64);
    }

    #[test]
    fn observed_runner_fires_hook_once_per_cell_in_index_order() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        // Cell 0 finishes last under 4 workers; the hook must still see it
        // first, and every later cell exactly once, in order.
        let specs: Vec<u64> = (0..16).collect();
        let out = run_campaign_cells_observed(
            RunnerConfig::with_workers(4),
            specs,
            |&s| {
                if s == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                s * 3
            },
            move |i, v| sink.lock().unwrap().push((i, *v)),
        );
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<u64>>());
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, (0..16).map(|i| (i as usize, i * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn observed_runner_matches_plain_runner_and_handles_empty() {
        use std::sync::{Arc, Mutex};
        let cfg = CampaignConfig::smoke(StrategyKind::RandomSt, 1);
        let specs: Vec<RunSpec> = plan_attack_campaign(&cfg, AttackType::SteeringRight)
            .into_iter()
            .take(6)
            .collect();
        let plain = run_campaign_cells(RunnerConfig::with_workers(3), specs.clone(), RunSpec::run);
        let count = Arc::new(Mutex::new(0usize));
        let sink = Arc::clone(&count);
        let observed = run_campaign_cells_observed(
            RunnerConfig::with_workers(3),
            specs,
            RunSpec::run,
            move |_, _| *sink.lock().unwrap() += 1,
        );
        assert_eq!(observed, plain);
        assert_eq!(*count.lock().unwrap(), 6);

        let none: Vec<u32> = Vec::new();
        let out =
            run_campaign_cells_observed(RunnerConfig::default(), none, |&x| x, |_, _| panic!());
        assert!(out.is_empty());
    }

    #[test]
    fn catching_runner_isolates_the_one_bad_cell() {
        let specs: Vec<u32> = (0..8).collect();
        let out = run_campaign_cells_catching(RunnerConfig::with_workers(4), specs, |&s| {
            assert!(s != 5, "cell 5 is cursed");
            s + 100
        });
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let err = r.as_ref().unwrap_err();
                assert!(err.message.contains("cell 5 is cursed"), "{err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 + 100);
            }
        }
    }
}
