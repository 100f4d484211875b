//! Data series for the paper's figures.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::{Scenario, ScenarioId};
use serde::{Deserialize, Serialize};
use units::{Distance, Seconds};

use crate::{Harness, HarnessConfig};

/// One sample of the ego trajectory (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySample {
    /// Simulated time.
    pub t: Seconds,
    /// Lateral offset from the lane centre (positive left).
    pub lateral: Distance,
    /// Left lane line position (constant, for plotting).
    pub left_line: Distance,
    /// Right lane line position.
    pub right_line: Distance,
    /// Whether the car is currently touching/over a lane line.
    pub invading: bool,
}

/// Fig. 7: the lateral trajectory of an attack-free run, sampled every
/// `stride` ticks, plus the total invasion count.
pub fn fig7_trajectory(seed: u64, stride: u64) -> (Vec<TrajectorySample>, u64) {
    let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
    let mut harness = Harness::new(HarnessConfig::no_attack(scenario, seed));
    let mut samples = Vec::new();
    while !harness.finished() {
        let tick = harness.step();
        if tick.index().is_multiple_of(stride) {
            let world = harness.world();
            samples.push(TrajectorySample {
                t: tick.time(),
                lateral: world.ego().d(),
                left_line: world.road().left_line(),
                right_line: world.road().right_line(),
                invading: world.is_invading_lane(),
            });
        }
    }
    let invasions = harness.world().lane_invasions();
    (samples, invasions)
}

/// One point of the Fig. 8 parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Attack start time.
    pub start: Seconds,
    /// Attack duration.
    pub duration: Seconds,
    /// Whether the run ended in a hazard (solid dot in the paper).
    pub hazardous: bool,
    /// Whether this point came from the Context-Aware strategy (orange
    /// diamonds in the paper) rather than the sweep grid.
    pub context_aware: bool,
}

/// Fig. 8: sweeps `start × duration` for the Acceleration attack on one
/// scenario, plus Context-Aware reference runs.
///
/// `starts` and `durations` are in seconds. The grid uses the same
/// strategic values as the Context-Aware reference runs, so the sweep
/// varies only the two parameters of interest. Note this reproduction's
/// vehicle needs longer injections than the paper's (its ACC recovers more
/// strongly), so sweep durations beyond the paper's 2.5 s to see the
/// critical-duration boundary (EXPERIMENTS.md discusses the scaling).
pub fn fig8_parameter_space(
    starts: &[f64],
    durations: &[f64],
    context_aware_runs: u64,
    seed: u64,
    driver: DriverConfig,
) -> Vec<Fig8Point> {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(100.0));
    let mut points = Vec::new();
    for &start in starts {
        for &duration in durations {
            let attack = AttackConfig {
                attack_type: AttackType::Acceleration,
                strategy: StrategyKind::RandomStDur,
                // Strategic values, like the Context-Aware runs: the sweep
                // varies only the start time and duration.
                value_mode: ValueMode::Strategic,
                seed,
                window_override: Some((Seconds::new(start), Seconds::new(duration))),
                ..AttackConfig::default()
            };
            let mut cfg = HarnessConfig::with_attack(scenario, seed, attack);
            cfg.driver = driver;
            let result = Harness::new(cfg).run();
            points.push(Fig8Point {
                start: Seconds::new(start),
                duration: Seconds::new(duration),
                hazardous: result.hazardous(),
                context_aware: false,
            });
        }
    }
    for rep in 0..context_aware_runs {
        let run_seed = crate::experiment::mix_seed(seed, &[rep, 0xCA]);
        let attack = AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            seed: run_seed,
            ..AttackConfig::default()
        };
        let mut cfg = HarnessConfig::with_attack(scenario, run_seed, attack);
        cfg.driver = driver;
        let result = Harness::new(cfg).run();
        if let Some(t_a) = result.attack_activated {
            points.push(Fig8Point {
                start: t_a,
                duration: result.tth.unwrap_or(Seconds::new(0.0)),
                hazardous: result.hazardous(),
                context_aware: true,
            });
        }
    }
    points
}

/// Renders Fig. 8 points as a TSV table (start, duration, hazard, source).
pub fn render_fig8(points: &[Fig8Point]) -> String {
    let mut out = String::from("start_s\tduration_s\thazard\tsource\n");
    for p in points {
        out.push_str(&format!(
            "{:.2}\t{:.2}\t{}\t{}\n",
            p.start.secs(),
            p.duration.secs(),
            if p.hazardous { 1 } else { 0 },
            if p.context_aware { "context-aware" } else { "grid" },
        ));
    }
    out
}

/// Renders Fig. 7 samples as a TSV table.
pub fn render_fig7(samples: &[TrajectorySample]) -> String {
    let mut out = String::from("t_s\tlateral_m\tleft_line_m\tright_line_m\tinvading\n");
    for s in samples {
        out.push_str(&format!(
            "{:.2}\t{:.3}\t{:.3}\t{:.3}\t{}\n",
            s.t.secs(),
            s.lateral.raw(),
            s.left_line.raw(),
            s.right_line.raw(),
            u8::from(s.invading),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_samples_cover_the_run() {
        let (samples, _invasions) = fig7_trajectory(11, 100);
        assert_eq!(samples.len(), 50, "one sample per second");
        assert!(samples.iter().all(|s| s.lateral.raw().abs() < 1.85),
            "attack-free run stays inside the lane bounds");
        let text = render_fig7(&samples);
        assert!(text.lines().count() == 51);
    }

    #[test]
    fn fig8_grid_is_complete() {
        let points =
            fig8_parameter_space(&[10.0, 30.0], &[0.5, 2.0], 0, 5, DriverConfig::inattentive());
        assert_eq!(points.len(), 4);
        let text = render_fig8(&points);
        assert!(text.contains("grid"));
    }
}
