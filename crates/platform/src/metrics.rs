//! Aggregation of [`SimResult`]s into the paper's table rows.

use crate::{HazardKind, SimResult};

/// Mean and standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes mean ± std of a sample.
pub fn mean_std(samples: &[f64]) -> MeanStd {
    let n = samples.len();
    if n == 0 {
        return MeanStd::default();
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    MeanStd {
        mean,
        std: var.sqrt(),
        n,
    }
}

/// One row of the paper's Table IV: aggregate outcome of a strategy's
/// campaign with an alert driver.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyAggregate {
    /// Strategy label.
    pub label: String,
    /// Number of simulations.
    pub sims: usize,
    /// Simulations in which the ADAS raised at least one alert.
    pub alerted: usize,
    /// Simulations with at least one hazard.
    pub hazards: usize,
    /// Simulations ending in an accident.
    pub accidents: usize,
    /// Simulations with a hazard but no alert.
    pub hazards_no_alert: usize,
    /// Lane-invasion events per simulated second, across the campaign.
    pub invasions_per_sec: f64,
    /// Time-to-hazard over the hazardous, attack-activated simulations.
    pub tth: MeanStd,
    /// FCW events across the campaign (Observation 2 expects 0).
    pub fcw_events: u64,
}

impl StrategyAggregate {
    /// Aggregates a campaign.
    pub fn from_results(label: impl Into<String>, results: &[SimResult]) -> Self {
        let sims = results.len();
        let alerted = results.iter().filter(|r| r.alerted()).count();
        let hazards = results.iter().filter(|r| r.hazardous()).count();
        let accidents = results.iter().filter(|r| r.accident.is_some()).count();
        let hazards_no_alert = results.iter().filter(|r| r.hazard_without_alert()).count();
        let total_secs: f64 = results.iter().map(|r| r.duration.secs()).sum();
        let total_invasions: u64 = results.iter().map(|r| r.lane_invasions).sum();
        let tths: Vec<f64> = results
            .iter()
            .filter_map(|r| r.tth.map(|t| t.secs()))
            .collect();
        let fcw_events = results.iter().map(|r| r.fcw_events).sum();
        Self {
            label: label.into(),
            sims,
            alerted,
            hazards,
            accidents,
            hazards_no_alert,
            invasions_per_sec: if total_secs > 0.0 {
                total_invasions as f64 / total_secs
            } else {
                0.0
            },
            tth: mean_std(&tths),
            fcw_events,
        }
    }

    /// Percentage helper: `count / sims`.
    pub fn pct(&self, count: usize) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.sims as f64
        }
    }
}

/// One row of the paper's Table V: a per-attack-type comparison of paired
/// campaigns (with an alert driver vs. with an inattentive driver, same
/// seeds), used to attribute prevented and newly-introduced hazards to the
/// driver.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedAggregate {
    /// Attack-type label.
    pub label: String,
    /// Number of simulation pairs.
    pub sims: usize,
    /// With-driver campaign: alerted simulations.
    pub alerted: usize,
    /// With-driver campaign: hazardous simulations.
    pub hazards: usize,
    /// With-driver campaign: accidents.
    pub accidents: usize,
    /// With-driver TTH.
    pub tth: MeanStd,
    /// No-driver campaign: hazardous simulations.
    pub hazards_no_driver: usize,
    /// No-driver campaign: accidents.
    pub accidents_no_driver: usize,
    /// Pairs where the no-driver run was hazardous but the with-driver run
    /// avoided every hazard kind of the no-driver run.
    pub prevented_hazards: usize,
    /// Pairs where the with-driver run has a hazard kind the no-driver run
    /// did not (hazards introduced by the intervention itself).
    pub new_hazards: usize,
    /// Pairs where the no-driver run crashed and the with-driver run did not.
    pub prevented_accidents: usize,
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
        let mut prevented_hazards = 0;
        let mut new_hazards = 0;
        let mut prevented_accidents = 0;
        for (w, n) in with_driver.iter().zip(no_driver) {
            assert_eq!(w.seed, n.seed, "pairs must share seeds");
            let kinds_w: Vec<HazardKind> = w.hazard_kinds.clone();
            let kinds_n: Vec<HazardKind> = n.hazard_kinds.clone();
            if n.hazardous() && kinds_n.iter().all(|k| !kinds_w.contains(k)) {
                prevented_hazards += 1;
            }
            if kinds_w.iter().any(|k| !kinds_n.contains(k)) {
                new_hazards += 1;
            }
            if n.accident.is_some() && w.accident.is_none() {
                prevented_accidents += 1;
            }
        }
        let tths: Vec<f64> = with_driver
            .iter()
            .filter_map(|r| r.tth.map(|t| t.secs()))
            .collect();
        Self {
            label: label.into(),
            sims: with_driver.len(),
            alerted: with_driver.iter().filter(|r| r.alerted()).count(),
            hazards: with_driver.iter().filter(|r| r.hazardous()).count(),
            accidents: with_driver.iter().filter(|r| r.accident.is_some()).count(),
            tth: mean_std(&tths),
            hazards_no_driver: no_driver.iter().filter(|r| r.hazardous()).count(),
            accidents_no_driver: no_driver.iter().filter(|r| r.accident.is_some()).count(),
            prevented_hazards,
            new_hazards,
            prevented_accidents,
        }
    }

    /// Percentage helper.
    pub fn pct(&self, count: usize) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.sims as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccidentKind;
    use units::Seconds;

    fn result(
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
    fn mean_std_basics() {
        let ms = mean_std(&[2.0, 4.0]);
        assert!((ms.mean - 3.0).abs() < 1e-12);
        assert!((ms.std - 1.0).abs() < 1e-12);
        assert_eq!(ms.n, 2);
        assert_eq!(mean_std(&[]), MeanStd::default());
    }

    #[test]
    fn strategy_aggregate_counts() {
        let results = vec![
            result(0, vec![HazardKind::H1], true, 0, Some(2.0)),
            result(1, vec![HazardKind::H3], false, 2, Some(3.0)),
            result(2, vec![], false, 0, None),
        ];
        let agg = StrategyAggregate::from_results("Test", &results);
        assert_eq!(agg.sims, 3);
        assert_eq!(agg.hazards, 2);
        assert_eq!(agg.accidents, 1);
        assert_eq!(agg.alerted, 1);
        assert_eq!(agg.hazards_no_alert, 1, "H1 run had no alert");
        assert_eq!(agg.tth.n, 2);
        assert!((agg.tth.mean - 2.5).abs() < 1e-12);
        assert!((agg.invasions_per_sec - 30.0 / 150.0).abs() < 1e-12);
        assert!((agg.pct(2) - 66.66).abs() < 0.01);
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
        assert_eq!(agg.hazards, 2);
        assert_eq!(agg.hazards_no_driver, 3);
        assert_eq!(agg.accidents, 1);
        assert_eq!(agg.accidents_no_driver, 2);
    }

    #[test]
    #[should_panic(expected = "pairs must share seeds")]
    fn paired_aggregate_rejects_mismatched_seeds() {
        let a = vec![result(0, vec![], false, 0, None)];
        let b = vec![result(1, vec![], false, 0, None)];
        let _ = PairedAggregate::from_pairs("x", &a, &b);
    }
}
