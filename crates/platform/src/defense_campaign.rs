//! Defense-evaluation campaigns: every defense deployment against every
//! threat the platform can mount.
//!
//! Where [`experiment`](crate::experiment) measures the *undefended* attack
//! surface and [`resilience`](crate::resilience) measures graceful
//! degradation under a fixed deployment, this module crosses the two: each
//! [`DefensePolicy`] (off / observe / degrade / fail-safe) runs against a
//! clean baseline, the paper's stealthiest Context-Aware strategic attacker,
//! and the full fault matrix. The aggregate answers three questions per
//! (policy, threat) cell:
//!
//! 1. **Detection** — did any detector fire, which one, and how long after
//!    the threat's onset?
//! 2. **Outcome** — hazard/accident rates with the policy acting vs.
//!    observing, i.e. does acting on detections actually buy safety?
//! 3. **False positives** — on the clean threat every detection, gate
//!    rejection and forced degradation is spurious and must be zero.
//!
//! Every run is seeded through [`mix_seed`] with the policy *excluded* from
//! the seed, so the same (threat, scenario, rep) sees the same world and
//! noise under every policy — cells differ only by the defense. Campaigns
//! are bit-reproducible across worker counts (asserted by the `defense`
//! bench before `BENCH_defense.json` is written).

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use defense::DefensePolicy;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use units::Seconds;

use crate::experiment::{mix_seed, run_campaign_cells, RunnerConfig};
use crate::resilience::{FAULT_DURATION, FAULT_START, INTENSITIES};
use crate::{Harness, HarnessConfig, SimResult};

/// The defense deployments a campaign sweeps, weakest to strongest.
pub const POLICIES: [DefensePolicy; 4] = [
    DefensePolicy::Off,
    DefensePolicy::Observe,
    DefensePolicy::Degrade,
    DefensePolicy::FailSafe,
];

/// One threat a campaign mounts against each defense deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threat {
    /// No attack, no faults: the false-positive baseline.
    Clean,
    /// The paper's stealthiest case: a Context-Aware attack with strategic
    /// values.
    Attack(AttackType),
    /// One fault kind at one intensity over the standard resilience window.
    Fault(FaultKind, f64),
}

impl Threat {
    /// Stable snake-case label used in reports and `BENCH_defense.json`.
    pub fn label(&self) -> String {
        match self {
            Threat::Clean => "clean".to_string(),
            Threat::Attack(t) => format!("attack_{}", t.label()),
            Threat::Fault(k, i) => format!("fault_{}@{:.1}", k.label(), i),
        }
    }

    /// When the threat starts acting on the run, if it is scheduled (an
    /// attack's onset is context-dependent and read from the result
    /// instead).
    fn scheduled_onset(&self) -> Option<Seconds> {
        match self {
            Threat::Clean | Threat::Attack(_) => None,
            Threat::Fault(..) => Some(units::Tick::new(FAULT_START).time()),
        }
    }
}

/// The full threat list: clean, all six Context-Aware attack types, and the
/// complete fault matrix at the resilience intensities.
pub fn threat_matrix() -> Vec<Threat> {
    let mut threats = vec![Threat::Clean];
    threats.extend(AttackType::ALL.into_iter().map(Threat::Attack));
    for kind in FaultKind::ALL {
        for &intensity in &INTENSITIES {
            threats.push(Threat::Fault(kind, intensity));
        }
    }
    threats
}

/// Configuration of a defense campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseCampaignConfig {
    /// Base seed mixed into every run's seed.
    pub base_seed: u64,
    /// Repetitions per (policy, threat, scenario cell).
    pub reps: u32,
}

impl DefenseCampaignConfig {
    /// A campaign with the given base seed and repetition count.
    pub fn new(base_seed: u64, reps: u32) -> Self {
        Self { base_seed, reps }
    }
}

/// One planned run of a defense campaign.
#[derive(Debug, Clone, Copy)]
pub struct DefenseSpec {
    /// Defense deployment under test.
    pub policy: DefensePolicy,
    /// The threat mounted against it.
    pub threat: Threat,
    /// The scenario cell.
    pub scenario: Scenario,
    /// Run seed. Identical across policies for the same
    /// (threat, scenario, rep), so policy columns are directly comparable.
    pub seed: u64,
}

impl DefenseSpec {
    /// The harness configuration of the run.
    pub fn harness_config(&self) -> HarnessConfig {
        let base = match self.threat {
            Threat::Clean => HarnessConfig::no_attack(self.scenario, self.seed),
            Threat::Attack(attack_type) => HarnessConfig::with_attack(
                self.scenario,
                self.seed,
                AttackConfig {
                    attack_type,
                    strategy: StrategyKind::ContextAware,
                    value_mode: ValueMode::Strategic,
                    seed: self.seed,
                    ..AttackConfig::default()
                },
            ),
            Threat::Fault(kind, intensity) => {
                let spec = FaultSpec::window(kind, FaultTarget::All, FAULT_START, FAULT_DURATION)
                    .with_intensity(intensity);
                HarnessConfig::no_attack(self.scenario, self.seed)
                    .with_faults(FaultSchedule::single(spec))
            }
        };
        base.with_defense(self.policy)
    }

    /// Executes the run.
    pub fn run(&self) -> SimResult {
        Harness::new(self.harness_config()).run()
    }
}

/// Expands a campaign into its work list, policy-major then threat then
/// scenario then repetition — the fixed order the aggregator relies on.
pub fn plan_defense_campaign(cfg: &DefenseCampaignConfig) -> Vec<DefenseSpec> {
    let threats = threat_matrix();
    let mut specs = Vec::new();
    for &policy in &POLICIES {
        for (ti, &threat) in threats.iter().enumerate() {
            for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
                for rep in 0..cfg.reps {
                    specs.push(DefenseSpec {
                        policy,
                        threat,
                        scenario,
                        // The policy is deliberately NOT mixed in: paired
                        // cells share world seeds.
                        seed: mix_seed(cfg.base_seed, &[ti as u64, si as u64, rep as u64]),
                    });
                }
            }
        }
    }
    specs
}

/// Aggregate outcome of one (policy, threat) campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseCell {
    /// Policy label ([`DefensePolicy::label`]).
    pub policy: String,
    /// Threat label ([`Threat::label`]).
    pub threat: String,
    /// Runs aggregated.
    pub runs: u64,
    /// Runs with at least one hazard.
    pub hazardous_runs: u64,
    /// Runs ending in an accident.
    pub accident_runs: u64,
    /// Runs in which any detector (IDS, control-invariant, context
    /// monitor) alarmed.
    pub detected_runs: u64,
    /// Runs in which the CAN IDS alarmed.
    pub ids_detected_runs: u64,
    /// Runs in which the control-invariant detector alarmed.
    pub invariant_detected_runs: u64,
    /// Runs in which the context monitor alarmed.
    pub monitor_detected_runs: u64,
    /// Runs in which the plausibility gates rejected at least one reading.
    pub gate_rejection_runs: u64,
    /// Total readings the gates rejected (or flagged, under observe).
    pub gate_rejections: u64,
    /// Runs that left the nominal degradation state at least once.
    pub degraded_runs: u64,
    /// Runs with at least one spurious FCW (meaningful on fault/clean
    /// threats, which mount no attack).
    pub false_fcw_runs: u64,
    /// Mean seconds from threat onset to the earliest detection, over the
    /// runs where both are defined. `None` when no run was detected.
    pub mean_detection_s: Option<f64>,
}

impl DefenseCell {
    fn from_results(policy: DefensePolicy, threat: Threat, results: &[SimResult]) -> Self {
        let earliest = |r: &SimResult| -> Option<Seconds> {
            [r.ids_detected, r.invariant_detected, r.monitor_detected]
                .into_iter()
                .flatten()
                .reduce(Seconds::min)
        };
        let latencies: Vec<f64> = results
            .iter()
            .filter_map(|r| {
                let d = earliest(r)?;
                let onset = threat.scheduled_onset().or(r.attack_activated)?;
                (d >= onset).then(|| (d - onset).secs())
            })
            .collect();
        Self {
            policy: policy.label().to_string(),
            threat: threat.label(),
            runs: results.len() as u64,
            hazardous_runs: results.iter().filter(|r| r.hazardous()).count() as u64,
            accident_runs: results.iter().filter(|r| r.accident.is_some()).count() as u64,
            detected_runs: results.iter().filter(|r| earliest(r).is_some()).count() as u64,
            ids_detected_runs: results.iter().filter(|r| r.ids_detected.is_some()).count() as u64,
            invariant_detected_runs: results
                .iter()
                .filter(|r| r.invariant_detected.is_some())
                .count() as u64,
            monitor_detected_runs: results
                .iter()
                .filter(|r| r.monitor_detected.is_some())
                .count() as u64,
            gate_rejection_runs: results.iter().filter(|r| r.gate_rejections > 0).count() as u64,
            gate_rejections: results.iter().map(|r| r.gate_rejections).sum(),
            degraded_runs: results.iter().filter(|r| r.degraded_ticks > 0).count() as u64,
            false_fcw_runs: results.iter().filter(|r| r.fcw_events > 0).count() as u64,
            mean_detection_s: (!latencies.is_empty())
                .then(|| latencies.iter().sum::<f64>() / latencies.len() as f64),
        }
    }

    fn to_json(&self) -> String {
        let detection = match self.mean_detection_s {
            Some(s) => format!("{s:.3}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"policy\": \"{}\", \"threat\": \"{}\", \"runs\": {}, \
\"hazardous_runs\": {}, \"accident_runs\": {}, \"detected_runs\": {}, \
\"ids_detected_runs\": {}, \"invariant_detected_runs\": {}, \
\"monitor_detected_runs\": {}, \"gate_rejection_runs\": {}, \
\"gate_rejections\": {}, \"degraded_runs\": {}, \"false_fcw_runs\": {}, \
\"mean_detection_s\": {}}}",
            self.policy,
            self.threat,
            self.runs,
            self.hazardous_runs,
            self.accident_runs,
            self.detected_runs,
            self.ids_detected_runs,
            self.invariant_detected_runs,
            self.monitor_detected_runs,
            self.gate_rejection_runs,
            self.gate_rejections,
            self.degraded_runs,
            self.false_fcw_runs,
            detection,
        )
    }
}

/// A full campaign's aggregate: one [`DefenseCell`] per (policy, threat),
/// in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseReport {
    /// Base seed of the campaign.
    pub base_seed: u64,
    /// Repetitions per cell the campaign was planned with.
    pub reps: u32,
    /// Total runs executed.
    pub total_runs: u64,
    /// Per-(policy, threat) aggregates.
    pub cells: Vec<DefenseCell>,
}

impl DefenseReport {
    /// Renders the report as deterministic, fixed-precision JSON
    /// (hand-rolled: the workspace has no serialization dependency).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("    {}", c.to_json()))
            .collect();
        format!(
            "{{\n  \"bench\": \"defense\",\n  \"base_seed\": {},\n  \
\"reps_per_cell\": {},\n  \"cores\": {},\n  \"total_runs\": {},\n  \
\"cells\": [\n{}\n  ]\n}}\n",
            self.base_seed,
            self.reps,
            crate::experiment::detected_cores(),
            self.total_runs,
            cells.join(",\n"),
        )
    }

    /// The cell for a (policy, threat) pair, if the campaign ran it.
    pub fn cell(&self, policy: DefensePolicy, threat: &Threat) -> Option<&DefenseCell> {
        let (p, t) = (policy.label(), threat.label());
        self.cells.iter().find(|c| c.policy == p && c.threat == t)
    }
}

/// Runs a defense campaign with an explicit runner configuration.
pub fn run_defense_campaign_with(
    runner: RunnerConfig,
    cfg: &DefenseCampaignConfig,
) -> DefenseReport {
    let specs = plan_defense_campaign(cfg);
    let results = run_campaign_cells(runner, specs, DefenseSpec::run);
    let threats = threat_matrix();
    let per_cell = Scenario::matrix().len() * cfg.reps.max(1) as usize;
    let cells = POLICIES
        .into_iter()
        .flat_map(|policy| threats.iter().map(move |&threat| (policy, threat)))
        .zip(results.chunks(per_cell))
        .map(|((policy, threat), chunk)| DefenseCell::from_results(policy, threat, chunk))
        .collect();
    DefenseReport {
        base_seed: cfg.base_seed,
        reps: cfg.reps,
        total_runs: results.len() as u64,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_policy_threat_cell_deterministically() {
        let cfg = DefenseCampaignConfig::new(3, 2);
        let a = plan_defense_campaign(&cfg);
        let b = plan_defense_campaign(&cfg);
        let threats = threat_matrix();
        assert_eq!(
            a.len(),
            POLICIES.len() * threats.len() * Scenario::matrix().len() * 2
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.threat, y.threat);
        }
    }

    #[test]
    fn paired_policies_share_world_seeds() {
        let cfg = DefenseCampaignConfig::new(3, 1);
        let specs = plan_defense_campaign(&cfg);
        let per_policy = specs.len() / POLICIES.len();
        for i in 0..per_policy {
            let off = &specs[i];
            for p in 1..POLICIES.len() {
                let other = &specs[p * per_policy + i];
                assert_eq!(off.seed, other.seed, "policy must not perturb the seed");
                assert_eq!(off.threat, other.threat);
            }
        }
    }

    #[test]
    fn threat_labels_are_unique() {
        let threats = threat_matrix();
        let mut labels: Vec<String> = threats.iter().map(Threat::label).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
        assert!(labels.contains(&"clean".to_string()));
    }

    #[test]
    fn spec_config_carries_policy_and_threat() {
        let spec = DefenseSpec {
            policy: DefensePolicy::FailSafe,
            threat: Threat::Fault(FaultKind::CanBusOff, 1.0),
            scenario: Scenario::matrix()[0],
            seed: 5,
        };
        let hc = spec.harness_config();
        assert_eq!(hc.defense, DefensePolicy::FailSafe);
        assert!(hc.attack.is_none());
        assert!(!hc.faults.is_empty());

        let spec = DefenseSpec {
            threat: Threat::Attack(AttackType::Acceleration),
            ..spec
        };
        let hc = spec.harness_config();
        assert!(hc.attack.is_some());
        assert!(hc.faults.is_empty());
    }

    #[test]
    fn empty_cell_reports_null_detection() {
        let cell = DefenseCell::from_results(DefensePolicy::Off, Threat::Clean, &[]);
        assert_eq!(cell.mean_detection_s, None);
        assert!(cell.to_json().contains("\"mean_detection_s\": null"));
    }
}
