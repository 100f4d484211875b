//! Job payloads: the bench campaigns, re-expressed as service jobs.
//!
//! A job is a campaign the platform layer already knows how to plan — an
//! attack sweep ([`platform::experiment::plan_attack_campaign`]) or a
//! fault-resilience sweep ([`platform::resilience::plan_resilience_campaign`])
//! — plus the supervision-only chaos knobs the robustness tests use to
//! inject cell panics and delays. The knobs live in the *spec* (and its
//! canonical encoding, and thus the job id) because a resumed daemon must
//! re-apply them; they never change the simulation results, only how many
//! attempts it takes to produce them.

use attack_core::{AttackType, StrategyKind};
use defense::DefensePolicy;
use platform::experiment::{detected_cores, plan_attack_campaign, CampaignConfig, RunSpec};
use platform::json::{self, Fixed, Layout, Scalar, Writer};
use platform::metrics::Tally;
use platform::resilience::{
    aggregate_resilience_results, plan_resilience_campaign, ResilienceConfig, ResilienceSpec,
};
use platform::SimResult;

use crate::wire::{Object, Value};

/// The most cells one job may plan, about five times Table IV. A spec over
/// it is rejected from its `reps` before anything is planned or recorded,
/// so an oversized submission is a 400 rather than an allocation that
/// takes the daemon down (and, recorded, takes it down again on resume).
pub const MAX_JOB_CELLS: u64 = 100_000;

/// The most milliseconds one job's chaos delays may add up to: 60 s, 20×
/// what any test asks for. A cell sleeps its delay on every attempt and
/// does not watch for a drain or the deadline while it sleeps, so an
/// unbounded delay would hold up every later job and keep a drained daemon
/// from exiting.
pub const MAX_CHAOS_DELAY_MS: u64 = 60_000;

/// Which campaign family the job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One attack type under one scheduling strategy, no defense
    /// (the Table IV shape).
    Attack {
        /// Scheduling strategy.
        strategy: StrategyKind,
        /// The attack type swept over the scenario matrix.
        attack: AttackType,
    },
    /// The full fault × intensity × scenario sweep under one defense
    /// policy (the `BENCH_resilience.json` shape).
    Resilience {
        /// Defense deployment for every run.
        defense: DefensePolicy,
    },
}

/// Supervision-only fault injection, applied per cell index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosKnobs {
    /// `(cell index, k)`: the cell's first `k` attempts panic before the
    /// real simulation runs. Exercises retry and (for `k` past the
    /// attempt budget) quarantine.
    pub panic_cells: Vec<(usize, u32)>,
    /// `(cell index, milliseconds)`: every attempt at the cell sleeps
    /// first. Widens kill/overload windows in the chaos tests.
    pub delay_cells: Vec<(usize, u64)>,
}

impl ChaosKnobs {
    /// Panic budget for a cell (0 = never panics).
    pub fn panics_for(&self, idx: usize) -> u32 {
        self.panic_cells
            .iter()
            .find(|(i, _)| *i == idx)
            .map_or(0, |(_, k)| *k)
    }

    /// Injected delay for a cell, in milliseconds.
    pub fn delay_for(&self, idx: usize) -> u64 {
        self.delay_cells
            .iter()
            .find(|(i, _)| *i == idx)
            .map_or(0, |(_, ms)| *ms)
    }
}

/// A submitted job: campaign family, seeding, and chaos knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Campaign family and its parameters.
    pub kind: JobKind,
    /// Base seed every run seed derives from.
    pub base_seed: u64,
    /// Repetitions per campaign cell.
    pub reps: u32,
    /// Supervision-layer fault injection.
    pub chaos: ChaosKnobs,
}

/// One planned cell of a job.
#[derive(Debug, Clone, Copy)]
pub enum CellSpec {
    /// An attack-campaign run.
    Attack(RunSpec),
    /// A resilience-campaign run.
    Resilience(ResilienceSpec),
}

impl CellSpec {
    /// Executes the cell.
    pub fn run(&self) -> SimResult {
        match self {
            CellSpec::Attack(spec) => spec.run(),
            CellSpec::Resilience(spec) => spec.run(),
        }
    }
}

fn strategy_token(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::RandomStDur => "random_st_dur",
        StrategyKind::RandomSt => "random_st",
        StrategyKind::RandomDur => "random_dur",
        StrategyKind::ContextAware => "context_aware",
    }
}

fn parse_strategy(token: &str) -> Option<StrategyKind> {
    StrategyKind::ALL
        .into_iter()
        .find(|&s| strategy_token(s) == token)
}

fn attack_token(a: AttackType) -> &'static str {
    match a {
        AttackType::Acceleration => "acceleration",
        AttackType::Deceleration => "deceleration",
        AttackType::SteeringLeft => "steering_left",
        AttackType::SteeringRight => "steering_right",
        AttackType::AccelerationSteering => "acceleration_steering",
        AttackType::DecelerationSteering => "deceleration_steering",
    }
}

fn parse_attack(token: &str) -> Option<AttackType> {
    AttackType::ALL
        .into_iter()
        .find(|&a| attack_token(a) == token)
}

fn parse_defense(token: &str) -> Option<DefensePolicy> {
    [
        DefensePolicy::Off,
        DefensePolicy::Observe,
        DefensePolicy::Degrade,
        DefensePolicy::FailSafe,
    ]
    .into_iter()
    .find(|d| d.label() == token)
}

fn pairs_field(obj: &Object, key: &str) -> Result<Vec<(u64, u64)>, String> {
    match obj.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Pairs(pairs)) => Ok(pairs.clone()),
        Some(_) => Err(format!("'{key}' must be an array of [int, int] pairs")),
    }
}

fn uint_field(obj: &Object, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Value::UInt(n)) => Ok(*n),
        Some(_) => Err(format!("'{key}' must be a non-negative integer")),
    }
}

fn str_field<'a>(obj: &'a Object, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

impl JobSpec {
    /// Builds a spec from a parsed submission object and rejects one over
    /// [`MAX_JOB_CELLS`] or [`MAX_CHAOS_DELAY_MS`]; the error string is what
    /// the client sees in the 400 body.
    pub fn from_object(obj: &Object) -> Result<Self, String> {
        let spec = Self::from_recorded(obj)?;
        spec.check_size()?;
        Ok(spec)
    }

    /// Builds a spec from a manifest entry without the size cap. A resumed
    /// daemon rebuilds a finished job's report from its WAL without
    /// planning, so a job an older daemon accepted over the cap keeps its
    /// report; an unfinished one is planned again, so it is checked with
    /// [`check_size`](Self::check_size) first.
    pub(crate) fn from_recorded(obj: &Object) -> Result<Self, String> {
        let kind = match str_field(obj, "kind")? {
            Some("attack") => {
                let strategy = str_field(obj, "strategy")?.and_then(parse_strategy).ok_or(
                    "'strategy' must be one of random_st_dur|random_st|random_dur|context_aware",
                )?;
                let attack = str_field(obj, "attack")?
                    .and_then(parse_attack)
                    .ok_or("'attack' must name one of the six attack types")?;
                JobKind::Attack { strategy, attack }
            }
            Some("resilience") => {
                let defense = match str_field(obj, "defense")? {
                    None => DefensePolicy::Degrade,
                    Some(token) => parse_defense(token)
                        .ok_or("'defense' must be one of off|observe|degrade|fail_safe")?,
                };
                JobKind::Resilience { defense }
            }
            _ => return Err("'kind' must be \"attack\" or \"resilience\"".to_string()),
        };
        let reps = u32::try_from(uint_field(obj, "reps", 1)?.max(1)).map_err(|_| {
            format!("'reps' out of range: a job plans at most {MAX_JOB_CELLS} cells")
        })?;
        let chaos = ChaosKnobs {
            panic_cells: pairs_field(obj, "panic_cells")?
                .into_iter()
                .map(|(i, k)| (i as usize, k.min(u64::from(u32::MAX)) as u32))
                .collect(),
            delay_cells: pairs_field(obj, "delay_cells")?
                .into_iter()
                .map(|(i, ms)| (i as usize, ms))
                .collect(),
        };
        Ok(Self {
            kind,
            base_seed: uint_field(obj, "base_seed", 7)?,
            reps,
            chaos,
        })
    }

    /// Rejects a spec that would plan more than [`MAX_JOB_CELLS`] cells or
    /// whose chaos delays add up to more than [`MAX_CHAOS_DELAY_MS`].
    pub(crate) fn check_size(&self) -> Result<(), String> {
        let cells = self.cell_count();
        if cells > MAX_JOB_CELLS {
            return Err(format!(
                "job would plan {cells} cells, over the cap of {MAX_JOB_CELLS}; lower 'reps'"
            ));
        }
        let delay_ms =
            (self.chaos.delay_cells.iter()).fold(0u64, |sum, &(_, ms)| sum.saturating_add(ms));
        if delay_ms > MAX_CHAOS_DELAY_MS {
            return Err(format!(
                "chaos delays add up to {delay_ms} ms, over the cap of {MAX_CHAOS_DELAY_MS} ms; \
lower 'delay_cells'"
            ));
        }
        Ok(())
    }

    /// How many cells [`plan`](Self::plan) returns. Both plans are linear
    /// in `reps`, so this plans one rep (12 or 216 cells) and scales it.
    pub fn cell_count(&self) -> u64 {
        let one_rep = Self {
            kind: self.kind,
            base_seed: self.base_seed,
            reps: 1,
            chaos: ChaosKnobs::default(),
        };
        one_rep.plan().len() as u64 * u64::from(self.reps)
    }

    /// Canonical single-line encoding: deterministic field order, parses
    /// back via [`from_object`](Self::from_object). This string — not the
    /// client's original body — is what the manifest records and the job
    /// id hashes, so resubmitting a semantically identical job reproduces
    /// the same identity.
    pub fn canonical(&self) -> String {
        json::object(Layout::Line, |o| {
            match self.kind {
                JobKind::Attack { strategy, attack } => o
                    .field("kind", "attack")
                    .field("strategy", strategy_token(strategy))
                    .field("attack", attack_token(attack)),
                JobKind::Resilience { defense } => o
                    .field("kind", "resilience")
                    .field("defense", defense.label()),
            };
            o.field("base_seed", self.base_seed)
                .field("reps", self.reps);
            write_pairs(o, "panic_cells", &self.chaos.panic_cells);
            write_pairs(o, "delay_cells", &self.chaos.delay_cells);
        })
    }

    /// Expands the job into its plan-ordered cell list.
    pub fn plan(&self) -> Vec<CellSpec> {
        match self.kind {
            JobKind::Attack { strategy, attack } => {
                let cfg = CampaignConfig {
                    base_seed: self.base_seed,
                    ..CampaignConfig::smoke(strategy, self.reps)
                };
                plan_attack_campaign(&cfg, attack)
                    .into_iter()
                    .map(CellSpec::Attack)
                    .collect()
            }
            JobKind::Resilience { defense } => {
                let cfg = ResilienceConfig::new(self.base_seed, self.reps).with_defense(defense);
                plan_resilience_campaign(&cfg)
                    .into_iter()
                    .map(CellSpec::Resilience)
                    .collect()
            }
        }
    }

    /// Renders the final report from the complete plan-ordered results.
    ///
    /// Resilience jobs emit exactly [`platform::resilience::ResilienceReport::to_json`]
    /// — the `BENCH_resilience.json` shape the chaos test asserts
    /// byte-identity on. Attack jobs emit a compact Table IV-shaped
    /// aggregate.
    pub fn report(&self, results: &[SimResult]) -> String {
        match self.kind {
            JobKind::Resilience { defense } => {
                let cfg = ResilienceConfig::new(self.base_seed, self.reps).with_defense(defense);
                aggregate_resilience_results(&cfg, results).to_json()
            }
            JobKind::Attack { strategy, attack } => {
                let t = Tally::of(results);
                let mut doc = json::object(Layout::Indented, |o| {
                    o.field("bench", "campaign")
                        .field("kind", "attack")
                        .field("strategy", strategy.label())
                        .field("attack", attack.label())
                        .field("base_seed", self.base_seed)
                        .field("reps_per_cell", self.reps)
                        .field("cores", detected_cores())
                        .field("total_runs", t.runs)
                        .field("hazardous_runs", t.hazards)
                        .field("accident_runs", t.accidents)
                        .field("hazard_no_alert_runs", t.hazards_without_alert)
                        .field("mean_tth_s", t.tth.mean().map(|s| Fixed(s, 3)));
                });
                doc.push('\n');
                doc
            }
        }
    }
}

/// Writes `[[idx, value], …]` under `key`.
fn write_pairs(o: &mut Writer<'_>, key: &str, pairs: &[(usize, impl Scalar + Copy)]) {
    o.key(key).array(Layout::Line, |a| {
        for &(idx, value) in pairs {
            a.array(Layout::Line, |pair| {
                pair.value(idx).value(value);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_object;

    #[test]
    fn canonical_round_trips() {
        let obj = parse_object(
            br#"{"kind": "resilience", "defense": "fail_safe", "base_seed": 11,
                "reps": 2, "panic_cells": [[3, 1]], "delay_cells": [[0, 250]]}"#,
        )
        .unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let canonical = spec.canonical();
        let reparsed = JobSpec::from_object(&parse_object(canonical.as_bytes()).unwrap()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(canonical, reparsed.canonical());
    }

    #[test]
    fn defaults_and_errors() {
        let obj = parse_object(br#"{"kind": "resilience"}"#).unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        assert_eq!(spec.base_seed, 7);
        assert_eq!(spec.reps, 1);
        assert_eq!(
            spec.kind,
            JobKind::Resilience {
                defense: DefensePolicy::Degrade
            }
        );

        let bad = parse_object(br#"{"kind": "nope"}"#).unwrap();
        assert!(JobSpec::from_object(&bad).is_err());
        let bad = parse_object(br#"{"kind": "attack", "strategy": "x", "attack": "acceleration"}"#)
            .unwrap();
        assert!(JobSpec::from_object(&bad).is_err());
    }

    #[test]
    fn attack_plan_matches_platform_planner() {
        let obj = parse_object(
            br#"{"kind": "attack", "strategy": "context_aware",
                "attack": "steering_right", "base_seed": 5, "reps": 1}"#,
        )
        .unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let plan = spec.plan();
        let cfg = CampaignConfig {
            base_seed: 5,
            ..CampaignConfig::smoke(StrategyKind::ContextAware, 1)
        };
        let reference = plan_attack_campaign(&cfg, AttackType::SteeringRight);
        assert_eq!(plan.len(), reference.len());
        for (cell, want) in plan.iter().zip(&reference) {
            match cell {
                CellSpec::Attack(got) => assert_eq!(got.seed, want.seed),
                CellSpec::Resilience(_) => panic!("attack plan produced resilience cell"),
            }
        }
    }

    #[test]
    fn resilience_report_is_the_bench_shape() {
        let obj = parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap();
        let spec = JobSpec::from_object(&obj).unwrap();
        let results: Vec<SimResult> = spec.plan().iter().take(0).map(CellSpec::run).collect();
        let report = spec.report(&results);
        assert!(report.contains("\"bench\": \"resilience\""));
        assert!(report.ends_with("}\n"));
    }

    #[test]
    fn cell_count_matches_the_plan_and_caps_reps() {
        for body in [
            &br#"{"kind": "resilience", "reps": 2}"#[..],
            br#"{"kind": "attack", "strategy": "random_st", "attack": "acceleration", "reps": 3}"#,
        ] {
            let spec = JobSpec::from_object(&parse_object(body).unwrap()).unwrap();
            assert_eq!(spec.cell_count(), spec.plan().len() as u64);
        }
        let over = parse_object(br#"{"kind": "resilience", "reps": 100000}"#).unwrap();
        let err = JobSpec::from_object(&over).unwrap_err();
        assert!(err.contains(&MAX_JOB_CELLS.to_string()), "{err}");
    }

    #[test]
    fn a_chaos_delay_past_the_cap_is_rejected_naming_the_cap() {
        // Without the cap this body queues a job whose first cell sleeps
        // for 584 million years, holding up every later job and a drain.
        let wedge = parse_object(
            br#"{"kind": "attack", "strategy": "context_aware", "attack": "acceleration",
                "reps": 1, "delay_cells": [[0, 18446744073709551615]]}"#,
        )
        .unwrap();
        let err = JobSpec::from_object(&wedge).unwrap_err();
        assert!(err.contains(&MAX_CHAOS_DELAY_MS.to_string()), "{err}");
        // Resuming an unfinished job checks it the same way.
        assert!(JobSpec::from_recorded(&wedge)
            .unwrap()
            .check_size()
            .is_err());
        // Delays are summed: two that fit alone do not fit together.
        let half = MAX_CHAOS_DELAY_MS / 2 + 1;
        let body =
            format!(r#"{{"kind": "resilience", "delay_cells": [[0, {half}], [1, {half}]]}}"#);
        assert!(JobSpec::from_object(&parse_object(body.as_bytes()).unwrap()).is_err());
        let body = format!(r#"{{"kind": "resilience", "delay_cells": [[0, {half}]]}}"#);
        assert!(JobSpec::from_object(&parse_object(body.as_bytes()).unwrap()).is_ok());
    }

    #[test]
    fn chaos_knob_lookup() {
        let knobs = ChaosKnobs {
            panic_cells: vec![(3, 2)],
            delay_cells: vec![(0, 100)],
        };
        assert_eq!(knobs.panics_for(3), 2);
        assert_eq!(knobs.panics_for(4), 0);
        assert_eq!(knobs.delay_for(0), 100);
        assert_eq!(knobs.delay_for(3), 0);
    }
}
