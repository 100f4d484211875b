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
use platform::metrics::{Moments, Tally};
use platform::{Harness, HarnessConfig, HazardKind};

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    // --- Attack-free campaign -------------------------------------------
    let specs = plan_no_attack_campaign(reps, 0xCA11B, DriverConfig::alert());
    let results = run_campaign_cells(RunnerConfig::default(), specs, RunSpec::run);
    let t = Tally::of(&results);
    println!("== attack-free ({} sims) ==", t.runs);
    println!("hazards: {}  (must be 0)", t.hazards);
    println!("alert events: {}  (paper: ~2 per 1440)", t.alert_events);
    println!("driver engagements: {}  (must be 0)", t.driver_engaged);
    println!("invasions/s: {:.3}  (paper: 0.46)", t.invasions_per_s());
    for (kind, c) in HazardKind::ALL.into_iter().zip(t.hazard_kinds) {
        if c > 0 {
            println!("  {kind:?}: {c}");
        }
    }
    println!("  accidents: {}", t.accidents);

    // Offset distribution of one run.
    let scenario = Scenario::matrix()[4]; // S2 @ 70 m
    let mut h = Harness::new(HarnessConfig::no_attack(scenario, 42));
    let mut offsets = Moments::default();
    let (mut min, mut max) = (f64::MAX, f64::MIN);
    while !h.finished() {
        h.step();
        let d = h.world().ego().d().raw();
        offsets.record(d);
        (min, max) = (min.min(d), max.max(d));
    }
    println!(
        "offset: mean {:.3} std {:.3} range [{min:.3}, {max:.3}]",
        offsets.mean().unwrap_or(f64::NAN),
        offsets.spread()
    );

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
        let t = Tally::of(&results);
        println!(
            "{:<22} trig {:>3}/{}  haz {:>3}  acc {:>3}  alert {:>2}  TTH {:>5.2}  t_a {:>5.1}",
            attack_type.label(),
            t.activation.n(),
            t.runs,
            t.hazards,
            t.accidents,
            t.alerted,
            t.tth.mean().unwrap_or(f64::NAN),
            t.activation.mean().unwrap_or(0.0),
        );
    }
}
