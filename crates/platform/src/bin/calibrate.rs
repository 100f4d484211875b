//! Calibration probe: prints attack-free statistics (hazards, invasions,
//! alerts, lateral-offset distribution) and per-attack-type context trigger
//! rates, to tune noise/threshold parameters against the paper's
//! Observations 1–3.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::Scenario;
use platform::experiment::{
    mix_seed, plan_no_attack_campaign, run_campaign_cells, RunSpec, RunnerConfig,
};
use platform::{Harness, HarnessConfig};

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    // --- Attack-free campaign -------------------------------------------
    let specs = plan_no_attack_campaign(reps, 0xCA11B, DriverConfig::alert());
    let results = run_campaign_cells(RunnerConfig::default(), specs, RunSpec::run);
    let sims = results.len();
    let hazards = results.iter().filter(|r| r.hazardous()).count();
    let alerts: u64 = results.iter().map(|r| r.alert_events).sum();
    let invasions: u64 = results.iter().map(|r| r.lane_invasions).sum();
    let secs: f64 = results.iter().map(|r| r.duration.secs()).sum();
    let driver_engaged = results
        .iter()
        .filter(|r| r.driver_engaged.is_some())
        .count();
    println!("== attack-free ({sims} sims) ==");
    println!("hazards: {hazards}  (must be 0)");
    println!("alert events: {alerts}  (paper: ~2 per 1440)");
    println!("driver engagements: {driver_engaged}  (must be 0)");
    println!("invasions/s: {:.3}  (paper: 0.46)", invasions as f64 / secs);
    use platform::HazardKind;
    for kind in [HazardKind::H1, HazardKind::H2, HazardKind::H3] {
        let c = results.iter().filter(|r| r.has_hazard(kind)).count();
        if c > 0 {
            println!("  {kind:?}: {c}");
        }
    }
    let accidents = results.iter().filter(|r| r.accident.is_some()).count();
    println!("  accidents: {accidents}");

    // Offset distribution of one run.
    let scenario = Scenario::matrix()[4]; // S2 @ 70 m
    let mut h = Harness::new(HarnessConfig::no_attack(scenario, 42));
    let mut ds = Vec::new();
    while !h.finished() {
        h.step();
        ds.push(h.world().ego().d().raw());
    }
    let mean = ds.iter().sum::<f64>() / ds.len() as f64;
    let std = (ds.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / ds.len() as f64).sqrt();
    let max = ds.iter().cloned().fold(f64::MIN, f64::max);
    let min = ds.iter().cloned().fold(f64::MAX, f64::min);
    println!("offset: mean {mean:.3} std {std:.3} range [{min:.3}, {max:.3}]");

    // --- Context trigger rates per attack type ---------------------------
    println!(
        "\n== context-aware trigger rates ({} sims each) ==",
        reps as usize * 12
    );
    for attack_type in AttackType::ALL {
        let mut specs = Vec::new();
        for (si, scenario) in Scenario::matrix().into_iter().enumerate() {
            for rep in 0..reps {
                let seed = mix_seed(7, &[si as u64, rep as u64]);
                specs.push(RunSpec {
                    attack: Some(AttackConfig {
                        attack_type,
                        strategy: StrategyKind::ContextAware,
                        value_mode: ValueMode::Strategic,
                        seed,
                        ..AttackConfig::default()
                    }),
                    scenario,
                    seed,
                    driver: DriverConfig::alert(),
                    panda_enabled: false,
                    defense: defense::DefensePolicy::Off,
                });
            }
        }
        let results = run_campaign_cells(RunnerConfig::default(), specs, RunSpec::run);
        let n = results.len();
        let triggered = results
            .iter()
            .filter(|r| r.attack_activated.is_some())
            .count();
        let hazards = results.iter().filter(|r| r.hazardous()).count();
        let accidents = results.iter().filter(|r| r.accident.is_some()).count();
        let alerted = results.iter().filter(|r| r.alerted()).count();
        let tths: Vec<f64> = results
            .iter()
            .filter_map(|r| r.tth.map(|t| t.secs()))
            .collect();
        let tth_mean = if tths.is_empty() {
            f64::NAN
        } else {
            tths.iter().sum::<f64>() / tths.len() as f64
        };
        let mean_start: f64 = results
            .iter()
            .filter_map(|r| r.attack_activated.map(|t| t.secs()))
            .sum::<f64>()
            / triggered.max(1) as f64;
        println!(
            "{:<22} trig {:>3}/{n}  haz {:>3}  acc {:>3}  alert {:>2}  TTH {:>5.2}  t_a {:>5.1}",
            attack_type.label(),
            triggered,
            hazards,
            accidents,
            alerted,
            tth_mean,
            mean_start,
        );
    }
}
