//! The experiment campaigns of §IV: scenario × initial-gap × repetition
//! matrices for each attack type and strategy, run in parallel.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use defense::DefensePolicy;
use driver_model::DriverConfig;
use driving_sim::Scenario;

use crate::trace::{TraceConfig, TraceRecorder};
use crate::{Harness, HarnessConfig, HazardParams, SimResult};

/// A full campaign: every attack type over the whole scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// `.run()`-shaped closure; `campaignd` passes a job's missing cell
/// indices and a closure that checkpoints each result as it lands. The
/// spec vector is moved into an `Arc<[S]>` so
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

/// Maps `f` over `0..n` in parallel with `cfg`'s worker count, preserving
/// order.
///
/// Unlike the campaign runners — which fan out over the persistent pool via
/// [`run_campaign_cells`] — this is a *scoped* map: `f` may borrow from the
/// calling stack frame, at the cost of spawning fresh threads per call. Use
/// it for one-shot generic maps (the lint crate's analysis fan-out); use
/// the pool for anything campaign-shaped.
///
/// Each worker accumulates `(index, result)` pairs in a thread-local batch
/// that is merged once at join — no per-item `Mutex`, no per-item
/// allocation, and a single-worker job degenerates to a plain serial loop
/// on the calling thread.
pub fn run_parallel_map<T, F>(cfg: RunnerConfig, n: usize, f: F) -> Vec<T>
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
        let parallel = run_campaign_cells(RunnerConfig::default(), specs.clone(), RunSpec::run);
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
        let out = run_parallel_map(RunnerConfig::default(), 0, |i| i);
        assert!(out.is_empty());
        let out = run_parallel_map(RunnerConfig::with_workers(8), 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_with_fewer_items_than_workers() {
        let out = run_parallel_map(RunnerConfig::with_workers(16), 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn parallel_map_preserves_order_under_a_slow_first_item() {
        // Item 0 finishes last; its result must still come back first.
        let out = run_parallel_map(RunnerConfig::with_workers(4), 8, |i| {
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
        let one = run_parallel_map(RunnerConfig::with_workers(1), 10, |i| i * i);
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
}
