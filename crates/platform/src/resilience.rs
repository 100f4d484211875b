//! Resilience campaigns: the robustness counterpart of the attack
//! experiments.
//!
//! Where [`experiment`](crate::experiment) asks *how strategically can the
//! system be attacked*, this module asks *how gracefully does it fail*: it
//! sweeps every [`FaultKind`] over the full S1–S4 scenario matrix at a small
//! intensity grid, runs the deterministic fault schedule through the
//! harness, and aggregates how the ADAS degradation ladder absorbed the
//! faults — hazard and accident rates, time spent degraded and in
//! fail-safe, spurious forward-collision warnings, and how quickly the
//! system recovers to nominal once the fault clears.
//!
//! Every run is seeded through [`mix_seed`], so a campaign is
//! bit-reproducible across runs and worker counts (asserted by the
//! `resilience` bench).

use defense::DefensePolicy;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};

use crate::experiment::{mix_seed, run_campaign_cells, RunnerConfig};
use crate::json::{self, Fixed, Layout, Writer};
use crate::metrics::Tally;
use crate::{Harness, HarnessConfig, SimResult};

/// Tick at which every campaign fault window opens (5 s into the run,
/// after cruise is established).
pub const FAULT_START: u64 = 500;
/// Length of every campaign fault window in ticks (20 s — long enough to
/// walk the whole degradation ladder and still leave room to recover).
pub const FAULT_DURATION: u64 = 2000;
/// Intensity grid swept per fault kind: a partial fault and a total one.
pub const INTENSITIES: [f64; 2] = [0.3, 1.0];

/// Configuration of a resilience campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Base seed mixed into every run's seed.
    pub base_seed: u64,
    /// Repetitions per (fault kind, intensity, scenario cell).
    pub reps: u32,
    /// Defense deployment for every run. Defaults to `Degrade`: the
    /// resilience question is how gracefully the *defended* system fails;
    /// use [`with_defense`](Self::with_defense) for the undefended baseline.
    pub defense: DefensePolicy,
}

impl ResilienceConfig {
    /// A campaign with the given base seed and repetition count, with the
    /// acting `Degrade` defense deployed.
    pub fn new(base_seed: u64, reps: u32) -> Self {
        Self {
            base_seed,
            reps,
            defense: DefensePolicy::Degrade,
        }
    }

    /// The same campaign under a different defense deployment.
    pub fn with_defense(self, defense: DefensePolicy) -> Self {
        Self { defense, ..self }
    }
}

/// One planned run of a resilience campaign.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceSpec {
    /// The fault kind under test.
    pub kind: FaultKind,
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// The scenario cell.
    pub scenario: Scenario,
    /// Run seed (drives sensor noise and the fault engine's draws).
    pub seed: u64,
    /// Defense deployment for the run.
    pub defense: DefensePolicy,
}

impl ResilienceSpec {
    /// The harness configuration of the run: attack-free, with a single
    /// fault window targeting every stream the kind can reach.
    pub fn harness_config(&self) -> HarnessConfig {
        let spec = FaultSpec::window(self.kind, FaultTarget::All, FAULT_START, FAULT_DURATION)
            .with_intensity(self.intensity);
        HarnessConfig::no_attack(self.scenario, self.seed)
            .with_faults(FaultSchedule::single(spec))
            .with_defense(self.defense)
    }

    /// Executes the run.
    pub fn run(&self) -> SimResult {
        Harness::new(self.harness_config()).run()
    }
}

/// Expands a campaign into its work list, kind-major then intensity then
/// scenario then repetition — the fixed order the aggregator relies on.
pub fn plan_resilience_campaign(cfg: &ResilienceConfig) -> Vec<ResilienceSpec> {
    let mut specs = Vec::new();
    for kind in FaultKind::ALL {
        for (ii, &intensity) in INTENSITIES.iter().enumerate() {
            for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
                for rep in 0..cfg.reps {
                    specs.push(ResilienceSpec {
                        kind,
                        intensity,
                        scenario,
                        seed: mix_seed(
                            cfg.base_seed,
                            &[kind.index() as u64, ii as u64, si as u64, rep as u64],
                        ),
                        defense: cfg.defense,
                    });
                }
            }
        }
    }
    specs
}

/// Aggregate outcome of one (fault kind, intensity) campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCell {
    /// Fault-kind label ([`FaultKind::label`]).
    pub fault: String,
    /// Intensity of the cell.
    pub intensity: f64,
    /// Runs aggregated.
    pub runs: u64,
    /// Runs with at least one hazard.
    pub hazardous_runs: u64,
    /// Runs ending in an accident.
    pub accident_runs: u64,
    /// Runs that reached the fail-safe state.
    pub failsafe_runs: u64,
    /// Runs with at least one FCW event. No attack is mounted, so every
    /// FCW raised under fault injection is spurious.
    pub false_fcw_runs: u64,
    /// Runs that left the nominal state at least once.
    pub degraded_runs: u64,
    /// Mean seconds per run spent in any degraded state.
    pub mean_degraded_s: f64,
    /// Mean seconds per run spent in the fail-safe state.
    pub mean_failsafe_s: f64,
    /// Runs that returned to nominal after their fault window closed.
    pub recovered_runs: u64,
    /// Mean recovery latency over the recovered runs (s). `None` when no
    /// run recovered — previously this rendered as `0.000`, which read as
    /// "instant recovery" when the truth was "never recovered" (or "never
    /// degraded at all").
    pub mean_recovery_s: Option<f64>,
    /// Total fault injections across the cell.
    pub faults_injected: u64,
}

impl ResilienceCell {
    fn from_results(kind: FaultKind, intensity: f64, results: &[SimResult]) -> Self {
        let t = Tally::of(results);
        // Without runs both totals are 0, and so are their means.
        let runs = t.runs.max(1) as f64;
        Self {
            fault: kind.label().to_string(),
            intensity,
            runs: t.runs,
            hazardous_runs: t.hazards,
            accident_runs: t.accidents,
            failsafe_runs: t.failsafe_runs,
            false_fcw_runs: t.fcw_runs,
            degraded_runs: t.degraded_runs,
            mean_degraded_s: t.degraded_s / runs,
            mean_failsafe_s: t.failsafe_s / runs,
            recovered_runs: t.recovery.n(),
            mean_recovery_s: t.recovery.mean(),
            faults_injected: t.faults_injected,
        }
    }

    fn write_json(&self, o: &mut Writer<'_>) {
        o.field("fault", &self.fault)
            .field("intensity", Fixed(self.intensity, 2))
            .field("runs", self.runs)
            .field("hazardous_runs", self.hazardous_runs)
            .field("accident_runs", self.accident_runs)
            .field("failsafe_runs", self.failsafe_runs)
            .field("false_fcw_runs", self.false_fcw_runs)
            .field("degraded_runs", self.degraded_runs)
            .field("mean_degraded_s", Fixed(self.mean_degraded_s, 3))
            .field("mean_failsafe_s", Fixed(self.mean_failsafe_s, 3))
            .field("recovered_runs", self.recovered_runs);
        // A cell where nothing ever degraded has no recovery story at all:
        // the field is omitted. A cell that degraded but never recovered
        // reports `null` — a finding, not a zero.
        if self.degraded_runs > 0 {
            o.field("mean_recovery_s", self.mean_recovery_s.map(|s| Fixed(s, 3)));
        }
        o.field("faults_injected", self.faults_injected);
    }
}

/// A full campaign's aggregate: one [`ResilienceCell`] per
/// (fault kind, intensity), in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Base seed of the campaign.
    pub base_seed: u64,
    /// Repetitions per cell the campaign was planned with.
    pub reps: u32,
    /// Defense deployment every run was executed under.
    pub defense: DefensePolicy,
    /// Total runs executed.
    pub total_runs: u64,
    /// Per-(fault, intensity) aggregates.
    pub cells: Vec<ResilienceCell>,
}

impl ResilienceReport {
    /// Renders the report as deterministic, fixed-precision JSON (the
    /// `BENCH_resilience.json` shape): indented, one cell per line.
    pub fn to_json(&self) -> String {
        let mut doc = json::object(Layout::Indented, |o| {
            o.field("bench", "resilience")
                .field("base_seed", self.base_seed)
                .field("reps_per_cell", self.reps)
                .field("cores", crate::experiment::detected_cores())
                .field("defense_policy", self.defense.label())
                .field("fault_start_tick", FAULT_START)
                .field("fault_duration_ticks", FAULT_DURATION)
                .field("total_runs", self.total_runs);
            o.key("cells").array(Layout::Indented, |a| {
                for cell in &self.cells {
                    a.object(Layout::Line, |c| cell.write_json(c));
                }
            });
        });
        doc.push('\n');
        doc
    }
}

/// Aggregates an already-executed campaign into its report: `results[i]`
/// must be the outcome of `plan_resilience_campaign(cfg)[i]`.
///
/// This is the aggregation half of [`run_resilience_campaign_with`], split
/// out so external runners that execute cells through their own supervision
/// — campaignd retries panicked cells and splices checkpointed results back
/// in by index — still produce the canonical byte-identical report.
pub fn aggregate_resilience_results(
    cfg: &ResilienceConfig,
    results: &[SimResult],
) -> ResilienceReport {
    let per_cell = Scenario::matrix().len() * cfg.reps.max(1) as usize;
    let cells = FaultKind::ALL
        .into_iter()
        .flat_map(|kind| INTENSITIES.map(|intensity| (kind, intensity)))
        .zip(results.chunks(per_cell))
        .map(|((kind, intensity), chunk)| ResilienceCell::from_results(kind, intensity, chunk))
        .collect();
    ResilienceReport {
        base_seed: cfg.base_seed,
        reps: cfg.reps,
        defense: cfg.defense,
        total_runs: results.len() as u64,
        cells,
    }
}

/// Runs a resilience campaign with an explicit runner configuration.
pub fn run_resilience_campaign_with(
    runner: RunnerConfig,
    cfg: &ResilienceConfig,
) -> ResilienceReport {
    let specs = plan_resilience_campaign(cfg);
    let results = run_campaign_cells(runner, specs, ResilienceSpec::run);
    aggregate_resilience_results(cfg, &results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_the_full_sweep_deterministically() {
        let cfg = ResilienceConfig::new(7, 2);
        let a = plan_resilience_campaign(&cfg);
        let b = plan_resilience_campaign(&cfg);
        assert_eq!(
            a.len(),
            FaultKind::ALL.len() * INTENSITIES.len() * Scenario::matrix().len() * 2
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.kind, y.kind);
        }
        // Seeds are unique across the plan.
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn spec_config_schedules_one_fault_window() {
        let cfg = ResilienceConfig::new(1, 1);
        let spec = plan_resilience_campaign(&cfg)[0];
        let hc = spec.harness_config();
        assert!(!hc.faults.is_empty());
        assert_eq!(hc.faults.len(), 1);
        assert!(hc.attack.is_none(), "resilience runs are attack-free");
        let fault = *hc.faults.iter().next().unwrap();
        assert_eq!(fault.start, FAULT_START);
        assert!(fault.active_at(FAULT_START + FAULT_DURATION - 1));
        assert!(!fault.active_at(FAULT_START + FAULT_DURATION));
    }

    #[test]
    fn report_json_is_deterministic_in_shape() {
        let cell = ResilienceCell::from_results(FaultKind::SensorDropout, 1.0, &[]);
        let report = ResilienceReport {
            base_seed: 7,
            reps: 0,
            defense: DefensePolicy::Degrade,
            total_runs: 0,
            cells: vec![cell],
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"resilience\""));
        assert!(json.contains("\"defense_policy\": \"degrade\""));
        assert!(json.contains("\"fault\": \"sensor_dropout\""));
        assert!(json.ends_with("}\n"));
    }

    fn cell_json(cell: &ResilienceCell) -> String {
        json::object(Layout::Line, |o| cell.write_json(o))
    }

    #[test]
    fn recovery_field_reflects_what_actually_happened() {
        // No run degraded: the cell has no recovery story, the field is
        // omitted entirely.
        let cell = ResilienceCell::from_results(FaultKind::SensorDropout, 0.3, &[]);
        assert_eq!(cell.degraded_runs, 0);
        assert_eq!(cell.mean_recovery_s, None);
        assert!(!cell_json(&cell).contains("mean_recovery_s"));

        // A run degraded but never recovered: `null`, not a fake 0.000.
        let cfg = crate::HarnessConfig::no_attack(Scenario::matrix()[0], 1);
        let mut result = crate::Harness::new(cfg).result_so_far();
        result.degraded_ticks = 40;
        result.recovery_latency = None;
        let cell = ResilienceCell::from_results(FaultKind::SensorDropout, 1.0, &[result.clone()]);
        assert_eq!(cell.degraded_runs, 1);
        assert_eq!(cell.mean_recovery_s, None);
        assert!(cell_json(&cell).contains("\"mean_recovery_s\": null"));

        // A recovered run reports the real mean.
        result.recovery_latency = Some(units::Seconds::new(1.5));
        let cell = ResilienceCell::from_results(FaultKind::SensorDropout, 1.0, &[result]);
        assert_eq!(cell.mean_recovery_s, Some(1.5));
        assert!(cell_json(&cell).contains("\"mean_recovery_s\": 1.500"));
    }
}
