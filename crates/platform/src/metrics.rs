//! Aggregation of [`SimResult`]s: one [`Tally`] behind every campaign
//! report, and the paper's table rows built from it.
//!
//! A tally counts each outcome of a run once, whichever report reads it,
//! and keeps each per-run time as [`Moments`]. Both merge by plain
//! addition, so a total row is the merge of its rows.

use units::Seconds;

use crate::{HazardKind, SimResult};

/// Count, sum and sum of squares of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    sum: f64,
    sum_sq: f64,
}

impl Moments {
    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// The samples of both.
    pub(crate) fn merge(self, other: &Self) -> Self {
        Self {
            n: self.n + other.n,
            sum: self.sum + other.sum,
            sum_sq: self.sum_sq + other.sum_sq,
        }
    }

    /// Sample count.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Σx/n, or `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Population standard deviation, √(Σx²/n − mean²) clamped at 0; 0
    /// without samples.
    pub fn spread(&self) -> f64 {
        self.mean().map_or(0.0, |mean| {
            (self.sum_sq / self.n as f64 - mean * mean).max(0.0).sqrt()
        })
    }

    fn once(x: Option<Seconds>) -> Self {
        let mut m = Self::default();
        if let Some(t) = x {
            m.record(t.secs());
        }
        m
    }
}

/// The outcomes of a campaign's runs, folded in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tally {
    /// Runs folded in.
    pub runs: u64,
    /// Runs with at least one hazard.
    pub hazards: u64,
    /// Runs with each hazard kind, in [`HazardKind::ALL`] order.
    pub hazard_kinds: [u64; 3],
    /// Runs ending in an accident.
    pub accidents: u64,
    /// Runs in which the ADAS raised at least one alert.
    pub alerted: u64,
    /// ADAS alert events.
    pub alert_events: u64,
    /// Runs with a hazard but no alert (the paper's "Hazards & no Alerts").
    pub hazards_without_alert: u64,
    /// Runs in which the driver took over.
    pub driver_engaged: u64,
    /// Runs with at least one FCW event.
    pub fcw_runs: u64,
    /// FCW events.
    pub fcw_events: u64,
    /// Lane-invasion events.
    pub lane_invasions: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Runs that left the nominal degradation state at least once.
    pub degraded_runs: u64,
    /// Seconds spent in any degraded state.
    pub degraded_s: f64,
    /// Runs that reached the fail-safe state.
    pub failsafe_runs: u64,
    /// Seconds spent in the fail-safe state.
    pub failsafe_s: f64,
    /// Runs in which any detector alarmed.
    pub detected: u64,
    /// Runs in which the CAN IDS alarmed.
    pub ids_detected: u64,
    /// Runs in which the control-invariant detector alarmed.
    pub invariant_detected: u64,
    /// Runs in which the context monitor alarmed.
    pub monitor_detected: u64,
    /// Runs in which the plausibility gates rejected at least one reading.
    pub gate_rejection_runs: u64,
    /// Readings the gates rejected (or flagged, under observe).
    pub gate_rejections: u64,
    /// Fault injections.
    pub faults_injected: u64,
    /// CAN frames the attack rewrote.
    pub frames_rewritten: u64,
    /// Frames the Panda checks blocked.
    pub panda_blocked: u64,
    /// Attack activation time, over the runs whose attack activated.
    pub activation: Moments,
    /// Time-to-hazard, over the hazardous runs whose attack activated
    /// first.
    pub tth: Moments,
    /// Recovery latency, over the runs that recovered.
    pub recovery: Moments,
}

impl Tally {
    /// Folds `results` in order.
    pub fn of(results: &[SimResult]) -> Self {
        results
            .iter()
            .fold(Self::default(), |t, r| t.merge(&Self::one(r)))
    }

    fn one(r: &SimResult) -> Self {
        let dt = units::DT.secs();
        let count = u64::from;
        Self {
            runs: 1,
            hazards: count(r.hazardous()),
            hazard_kinds: HazardKind::ALL.map(|k| count(r.has_hazard(k))),
            accidents: count(r.accident.is_some()),
            alerted: count(r.alerted()),
            alert_events: r.alert_events,
            hazards_without_alert: count(r.hazard_without_alert()),
            driver_engaged: count(r.driver_engaged.is_some()),
            fcw_runs: count(r.fcw_events > 0),
            fcw_events: r.fcw_events,
            lane_invasions: r.lane_invasions,
            sim_s: r.duration.secs(),
            degraded_runs: count(r.degraded_ticks > 0),
            degraded_s: r.degraded_ticks as f64 * dt,
            failsafe_runs: count(r.failsafe_ticks > 0),
            failsafe_s: r.failsafe_ticks as f64 * dt,
            detected: count(r.first_detection().is_some()),
            ids_detected: count(r.ids_detected.is_some()),
            invariant_detected: count(r.invariant_detected.is_some()),
            monitor_detected: count(r.monitor_detected.is_some()),
            gate_rejection_runs: count(r.gate_rejections > 0),
            gate_rejections: r.gate_rejections,
            faults_injected: r.faults_injected,
            frames_rewritten: r.frames_rewritten,
            panda_blocked: r.panda_blocked,
            activation: Moments::once(r.attack_activated),
            tth: Moments::once(r.tth),
            recovery: Moments::once(r.recovery_latency),
        }
    }

    /// The runs of both: every field added.
    pub(crate) fn merge(self, o: &Self) -> Self {
        let [h1, h2, h3] = self.hazard_kinds;
        let [o1, o2, o3] = o.hazard_kinds;
        Self {
            runs: self.runs + o.runs,
            hazards: self.hazards + o.hazards,
            hazard_kinds: [h1 + o1, h2 + o2, h3 + o3],
            accidents: self.accidents + o.accidents,
            alerted: self.alerted + o.alerted,
            alert_events: self.alert_events + o.alert_events,
            hazards_without_alert: self.hazards_without_alert + o.hazards_without_alert,
            driver_engaged: self.driver_engaged + o.driver_engaged,
            fcw_runs: self.fcw_runs + o.fcw_runs,
            fcw_events: self.fcw_events + o.fcw_events,
            lane_invasions: self.lane_invasions + o.lane_invasions,
            sim_s: self.sim_s + o.sim_s,
            degraded_runs: self.degraded_runs + o.degraded_runs,
            degraded_s: self.degraded_s + o.degraded_s,
            failsafe_runs: self.failsafe_runs + o.failsafe_runs,
            failsafe_s: self.failsafe_s + o.failsafe_s,
            detected: self.detected + o.detected,
            ids_detected: self.ids_detected + o.ids_detected,
            invariant_detected: self.invariant_detected + o.invariant_detected,
            monitor_detected: self.monitor_detected + o.monitor_detected,
            gate_rejection_runs: self.gate_rejection_runs + o.gate_rejection_runs,
            gate_rejections: self.gate_rejections + o.gate_rejections,
            faults_injected: self.faults_injected + o.faults_injected,
            frames_rewritten: self.frames_rewritten + o.frames_rewritten,
            panda_blocked: self.panda_blocked + o.panda_blocked,
            activation: self.activation.merge(&o.activation),
            tth: self.tth.merge(&o.tth),
            recovery: self.recovery.merge(&o.recovery),
        }
    }

    /// `count` as a percentage of the runs (0 without runs).
    pub fn pct(&self, count: u64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.runs as f64
        }
    }

    /// Lane-invasion events per simulated second (0 without time).
    pub fn invasions_per_s(&self) -> f64 {
        if self.sim_s > 0.0 {
            self.lane_invasions as f64 / self.sim_s
        } else {
            0.0
        }
    }
}

/// One row of the paper's Table IV: a strategy's campaign with an alert
/// driver.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyAggregate {
    /// Strategy label.
    pub label: String,
    /// The campaign's runs.
    pub tally: Tally,
}

impl StrategyAggregate {
    /// Aggregates a campaign.
    pub fn from_results(label: impl Into<String>, results: &[SimResult]) -> Self {
        Self {
            label: label.into(),
            tally: Tally::of(results),
        }
    }
}

/// One row of the paper's Table V: a per-attack-type comparison of paired
/// campaigns (with an alert driver vs. with an inattentive driver, same
/// seeds), used to attribute prevented and newly-introduced hazards to the
/// driver.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PairedAggregate {
    /// Attack-type label.
    pub label: String,
    /// The campaign with an alert driver.
    pub with_driver: Tally,
    /// The same seeds with an inattentive driver.
    pub no_driver: Tally,
    /// Pairs where the no-driver run was hazardous but the with-driver run
    /// avoided every hazard kind of the no-driver run.
    pub prevented_hazards: u64,
    /// Pairs where the with-driver run has a hazard kind the no-driver run
    /// did not (hazards introduced by the intervention itself).
    pub new_hazards: u64,
    /// Pairs where the no-driver run crashed and the with-driver run did not.
    pub prevented_accidents: u64,
}

impl PairedAggregate {
    /// Builds the paired aggregate. `with_driver[i]` and `no_driver[i]` must
    /// share a seed.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or mismatched seeds.
    pub fn from_pairs(
        label: impl Into<String>,
        with_driver: &[SimResult],
        no_driver: &[SimResult],
    ) -> Self {
        assert_eq!(with_driver.len(), no_driver.len(), "campaigns must pair up");
        let mut agg = Self {
            label: label.into(),
            with_driver: Tally::of(with_driver),
            no_driver: Tally::of(no_driver),
            ..Self::default()
        };
        let count = u64::from;
        for (w, n) in with_driver.iter().zip(no_driver) {
            assert_eq!(w.seed, n.seed, "pairs must share seeds");
            agg.prevented_hazards +=
                count(n.hazardous() && n.hazard_kinds.iter().all(|&k| !w.has_hazard(k)));
            agg.new_hazards += count(w.hazard_kinds.iter().any(|&k| !n.has_hazard(k)));
            agg.prevented_accidents += count(n.accident.is_some() && w.accident.is_none());
        }
        agg
    }

    /// The pairs of both, under `self`'s label: every count added.
    pub(crate) fn merge(self, o: &Self) -> Self {
        Self {
            label: self.label,
            with_driver: self.with_driver.merge(&o.with_driver),
            no_driver: self.no_driver.merge(&o.no_driver),
            prevented_hazards: self.prevented_hazards + o.prevented_hazards,
            new_hazards: self.new_hazards + o.new_hazards,
            prevented_accidents: self.prevented_accidents + o.prevented_accidents,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact sums of exactly representable values
pub(crate) mod tests {
    use super::*;
    use crate::AccidentKind;
    use units::Seconds;

    pub(crate) fn result(
        seed: u64,
        hazards: Vec<HazardKind>,
        accident: bool,
        alerts: u64,
        tth: Option<f64>,
    ) -> SimResult {
        SimResult {
            seed,
            first_hazard: hazards.first().map(|k| (Seconds::new(20.0), *k)),
            hazard_kinds: hazards,
            accident: accident.then_some((Seconds::new(25.0), AccidentKind::A1)),
            alert_events: alerts,
            fcw_events: 0,
            lane_invasions: 10,
            duration: Seconds::new(50.0),
            attack_activated: Some(Seconds::new(18.0)),
            tth: tth.map(Seconds::new),
            driver_noticed: None,
            driver_engaged: None,
            frames_rewritten: 100,
            panda_blocked: 0,
            invariant_detected: None,
            monitor_detected: None,
            degraded_ticks: 0,
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
            recovery_latency: None,
            faults_injected: 0,
            ids_detected: None,
            gate_rejections: 0,
        }
    }

    #[test]
    fn moments_basics() {
        let mut m = Moments::default();
        m.record(2.0);
        m.record(4.0);
        assert_eq!(m.n(), 2);
        assert_eq!(m.mean(), Some(3.0));
        assert!((m.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_sample_or_one_sample_has_no_spread_and_no_nan() {
        let empty = Moments::default();
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.spread(), 0.0);
        let mut one = Moments::default();
        one.record(2.7);
        assert_eq!(one.mean(), Some(2.7));
        assert_eq!(one.spread(), 0.0);
        // Σx²/n − mean² rounds below zero here; the spread is clamped.
        let mut same = Moments::default();
        for _ in 0..3 {
            same.record(0.1);
        }
        assert!(same.spread() >= 0.0 && same.spread() < 1e-9, "{same:?}");
    }

    #[test]
    fn strategy_aggregate_counts() {
        let results = vec![
            result(0, vec![HazardKind::H1], true, 0, Some(2.0)),
            result(1, vec![HazardKind::H3, HazardKind::H1], false, 2, Some(3.0)),
            result(2, vec![], false, 0, None),
        ];
        let t = StrategyAggregate::from_results("Test", &results).tally;
        assert_eq!(t.runs, 3);
        assert_eq!(t.hazards, 2);
        assert_eq!(t.hazard_kinds, [2, 0, 1]);
        assert_eq!(t.accidents, 1);
        assert_eq!(t.alerted, 1);
        assert_eq!(t.alert_events, 2);
        assert_eq!(t.hazards_without_alert, 1, "H1 run had no alert");
        assert_eq!(t.activation.n(), 3);
        assert_eq!(t.tth.n(), 2);
        assert_eq!(t.tth.mean(), Some(2.5));
        assert_eq!(t.frames_rewritten, 300);
        assert!((t.invasions_per_s() - 30.0 / 150.0).abs() < 1e-12);
        assert!((t.pct(2) - 66.66).abs() < 0.01);
    }

    #[test]
    fn tally_counts_defense_and_fault_outcomes() {
        let mut r = result(0, vec![], false, 0, None);
        r.degraded_ticks = 150;
        r.failsafe_ticks = 50;
        r.recovery_latency = Some(Seconds::new(1.5));
        r.monitor_detected = Some(Seconds::new(30.0));
        r.invariant_detected = Some(Seconds::new(21.0));
        r.gate_rejections = 4;
        r.faults_injected = 7;
        r.fcw_events = 1;
        let quiet = result(1, vec![], false, 0, None);
        let t = Tally::of(&[r.clone(), quiet]);
        assert_eq!(r.first_detection(), Some(Seconds::new(21.0)));
        assert_eq!((t.degraded_runs, t.failsafe_runs), (1, 1));
        assert_eq!(t.degraded_s, 150.0 * units::DT.secs());
        assert_eq!(t.failsafe_s, 50.0 * units::DT.secs());
        assert_eq!((t.recovery.n(), t.recovery.mean()), (1, Some(1.5)));
        assert_eq!(
            (
                t.detected,
                t.ids_detected,
                t.invariant_detected,
                t.monitor_detected
            ),
            (1, 0, 1, 1)
        );
        assert_eq!((t.gate_rejection_runs, t.gate_rejections), (1, 4));
        assert_eq!((t.faults_injected, t.fcw_runs, t.fcw_events), (7, 1, 1));
    }

    #[test]
    fn paired_aggregate_attributes_prevention_and_new_hazards() {
        // Pair 0: no-driver H1; with-driver nothing -> prevented.
        // Pair 1: no-driver H1 + crash; with-driver H2 only -> prevented
        //         (the H1 is gone), new hazard (H2 appeared), prevented
        //         accident.
        // Pair 2: both H3 -> neither prevented nor new.
        let with_driver = vec![
            result(0, vec![], false, 0, None),
            result(1, vec![HazardKind::H2], false, 0, Some(4.0)),
            result(2, vec![HazardKind::H3], true, 1, Some(1.5)),
        ];
        let no_driver = vec![
            result(0, vec![HazardKind::H1], false, 0, Some(2.0)),
            result(1, vec![HazardKind::H1], true, 0, Some(2.0)),
            result(2, vec![HazardKind::H3], true, 0, Some(1.5)),
        ];
        let agg = PairedAggregate::from_pairs("Acceleration", &with_driver, &no_driver);
        assert_eq!(agg.prevented_hazards, 2);
        assert_eq!(agg.new_hazards, 1);
        assert_eq!(agg.prevented_accidents, 1);
        assert_eq!(agg.with_driver.hazards, 2);
        assert_eq!(agg.no_driver.hazards, 3);
        assert_eq!(agg.with_driver.accidents, 1);
        assert_eq!(agg.no_driver.accidents, 2);
    }

    #[test]
    #[should_panic(expected = "pairs must share seeds")]
    fn paired_aggregate_rejects_mismatched_seeds() {
        let a = vec![result(0, vec![], false, 0, None)];
        let b = vec![result(1, vec![], false, 0, None)];
        let _ = PairedAggregate::from_pairs("x", &a, &b);
    }
}
