//! The experiment campaigns of §IV: scenario × initial-gap × repetition
//! matrices for each attack type and strategy, and [`run_campaign_cells`],
//! the one fan-out that runs every campaign's cells in parallel.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use defense::DefensePolicy;
use driver_model::DriverConfig;
use driving_sim::Scenario;

use std::collections::BTreeMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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
                    &[
                        si as u64,
                        rep as u64,
                        draw as u64,
                        attack_type.index() as u64,
                    ],
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

/// Worker count for [`run_campaign_cells`].
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
/// * `k ≥ 2` — exactly `k` workers: the caller plus `k − 1` scoped
///   threads.
///
/// The resolved count is always clamped to the job size, so small campaigns
/// never spawn idle threads.
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

/// Fans a planned campaign's cells out over scoped threads, preserving
/// plan order: element `i` of the result is `run(&specs[i])`.
///
/// This is the workspace's one fan-out. The attack campaigns here, the
/// fault matrix in [`crate::resilience`], the policy ladder in
/// [`crate::defense_campaign`] and the benches pass their own spec type and
/// a `.run()`-shaped closure; `campaignd` passes a job's missing cell
/// indices and a closure that checkpoints each result as it lands; adas-lint
/// passes its source files. The closure may borrow from the caller's stack.
///
/// The calling thread and `cfg.worker_count(n) - 1` scoped threads claim
/// cell indices from one atomic counter. Results join the output in plan
/// order: one that finishes ahead of its turn waits in a small reorder
/// buffer until every cell before it is in, so the output never depends on
/// which cell finished first (R14). The output is the one large buffer a
/// call allocates, reserved up front as the serial path's `collect` does:
/// a second per-cell buffer beside it fragments glibc's heap across
/// repeated calls, and a long-running caller's resident memory then grows
/// with every call. With one worker the cells run serially on the calling
/// thread. A thread the OS refuses to start is skipped; the caller's share
/// of the work grows instead.
///
/// # Panics
///
/// Re-raises a cell's panic with its original payload once every worker
/// has stopped.
pub fn run_campaign_cells<S, T, F>(cfg: RunnerConfig, specs: Vec<S>, run: F) -> Vec<T>
where
    S: Send + Sync,
    T: Send,
    F: Fn(&S) -> T + Send + Sync,
{
    let workers = cfg.worker_count(specs.len());
    if workers <= 1 {
        return specs.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    // The output so far, in plan order, and the results waiting for their
    // turn, by index.
    let merged = Mutex::new((Vec::with_capacity(specs.len()), BTreeMap::new()));
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(spec) = specs.get(i) else {
            break;
        };
        let result = run(spec);
        let mut guard = merged.lock().unwrap_or_else(PoisonError::into_inner);
        let (out, early) = &mut *guard;
        early.insert(i, result);
        while let Some(ready) = early.remove(&out.len()) {
            // adas-lint: allow(R14, reason = "appends only the result whose index is the output's length, so the output is in plan order whichever cell finished first")
            out.push(ready);
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map_while(|_| {
                std::thread::Builder::new()
                    .name("campaign-worker".into())
                    .spawn_scoped(scope, work)
                    .ok()
            })
            .collect();
        work();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                resume_unwind(payload);
            }
        }
    });
    // No cell panicked, so every result has joined the output.
    merged
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_sizes_match() {
        let cfg = CampaignConfig::paper(StrategyKind::ContextAware);
        // 12 scenario cells x 20 reps = 240 per attack type; 1,440 total.
        assert_eq!(
            plan_attack_campaign(&cfg, AttackType::Acceleration).len(),
            240
        );
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
    fn plan_order_survives_a_slowest_first_cell() {
        // Cell 0 finishes last; its result must still come back first.
        let out = run_campaign_cells(RunnerConfig::with_workers(4), (0..32u64).collect(), |&i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i * 3
        });
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single_cell_jobs() {
        for workers in [1, 8] {
            let cfg = RunnerConfig::with_workers(workers);
            assert!(run_campaign_cells(cfg, Vec::<u32>::new(), |&i| i).is_empty());
            assert_eq!(run_campaign_cells(cfg, vec![7u32], |&i| i + 1), vec![8]);
        }
        assert!(run_campaign_cells(RunnerConfig::default(), Vec::<u32>::new(), |&i| i).is_empty());
    }

    #[test]
    fn more_workers_than_cells() {
        let out = run_campaign_cells(RunnerConfig::with_workers(16), vec![0u32, 1, 2], |&i| {
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn one_worker_runs_serially_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let out = run_campaign_cells(
            RunnerConfig::with_workers(1),
            (0..10usize).collect(),
            |&i| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
                i * i
            },
        );
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
        // An explicit 0 clamps to 1 rather than starting no worker at all.
        assert_eq!(RunnerConfig::with_workers(0).worker_count(10), 1);
    }

    #[test]
    fn a_nested_fan_out_completes() {
        let out = run_campaign_cells(RunnerConfig::with_workers(3), (0..6usize).collect(), |&i| {
            let inner = run_campaign_cells(RunnerConfig::with_workers(2), (0..4).collect(), |&j| {
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_cell_panic_reaches_the_caller_with_its_payload() {
        let caller = std::thread::current().id();
        // One case panics on the calling thread, the other on a spawned
        // thread, whose payload crosses a join. The other thread's cells
        // wait for the panic, so each thread takes a cell.
        for on_caller in [true, false] {
            let panicked = std::sync::atomic::AtomicBool::new(false);
            let message = format!("cell exploded, on the caller: {on_caller}");
            let result = std::panic::catch_unwind(|| {
                run_campaign_cells(RunnerConfig::with_workers(2), (0..8usize).collect(), |&i| {
                    if (std::thread::current().id() == caller) == on_caller {
                        panicked.store(true, Ordering::SeqCst);
                        std::panic::panic_any(message.clone());
                    }
                    for _ in 0..10_000 {
                        if panicked.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i
                })
            });
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<String>(), Some(&message));
        }
    }

    #[test]
    fn the_closure_may_borrow_from_the_callers_stack() {
        let table = [5u64, 6, 7, 8];
        let calls = AtomicUsize::new(0);
        let out = run_campaign_cells(RunnerConfig::with_workers(2), vec![3usize, 0, 2], |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            table[i]
        });
        assert_eq!(out, vec![8, 5, 7]);
        assert_eq!(calls.into_inner(), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_the_job() {
        let cfg = RunnerConfig::with_workers(64);
        assert_eq!(cfg.worker_count(3), 3);
        assert_eq!(cfg.worker_count(0), 1);
        assert_eq!(cfg.worker_count(1000), 64);
    }
}
