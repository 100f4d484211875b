//! Regenerates the paper's **Table V**: "Context-aware attack with or
//! without strategic value corruption and with an alert driver" — per attack
//! type, with the driver-attribution columns (prevented / new hazards)
//! computed from seed-paired campaigns with and without an attentive driver.
//!
//! Paper reference values (240 sims per attack type per mode):
//!
//! *Without* strategic value corruption (fixed values at the software
//! limits): total alerts 9.9%, hazards 76.6%, accidents 55.0%, TTH
//! 2.04±1.10; the driver prevents 36.8% of hazards but introduces 16.4% new
//! ones.
//!
//! *With* strategic value corruption: total alerts 0.3%, hazards 83.4%,
//! accidents 44.5%, TTH 2.43±1.29, and essentially nothing is prevented —
//! the values evade the driver's anomaly perception entirely.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench times its own run; timings are reported beside the seeded results and never feed them"
)]

use attack_core::{AttackType, StrategyKind, ValueMode};
use bench::{scaled_reps, write_artifact};
use driver_model::DriverConfig;
use platform::experiment::{
    plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
use platform::metrics::PairedAggregate;
use platform::tables::{render_table_v, table_v_total};

fn run_mode(mode: ValueMode, reps: u32) -> Vec<PairedAggregate> {
    let mut rows = Vec::new();
    for attack_type in AttackType::ALL {
        let mut cfg = CampaignConfig::paper(StrategyKind::ContextAware);
        cfg.value_mode = mode;
        cfg.reps = reps;

        // With an alert driver…
        let with_specs = plan_attack_campaign(&cfg, attack_type);
        let with_driver =
            run_campaign_cells(RunnerConfig::default(), with_specs.clone(), RunSpec::run);

        // …and the seed-paired ablation without one.
        let mut no_driver_specs = with_specs;
        for s in &mut no_driver_specs {
            s.driver = DriverConfig::inattentive();
        }
        let no_driver = run_campaign_cells(RunnerConfig::default(), no_driver_specs, RunSpec::run);

        rows.push(PairedAggregate::from_pairs(
            attack_type.label(),
            &with_driver,
            &no_driver,
        ));
    }
    rows.push(table_v_total(&rows));
    rows
}

fn main() {
    let reps = scaled_reps();
    println!("Table V campaign: {reps} reps/cell, paired driver ablation\n");

    let t0 = std::time::Instant::now();
    let fixed = run_mode(ValueMode::Fixed, reps);
    let fixed_table = render_table_v("WITHOUT strategic value corruption (fixed limits)", &fixed);
    println!("{fixed_table}");

    let strategic = run_mode(ValueMode::Strategic, reps);
    let strategic_table = render_table_v("WITH strategic value corruption (Eq. 1-3)", &strategic);
    println!("{strategic_table}");

    for rows in [&fixed, &strategic] {
        let total = rows.last().expect("total row");
        println!(
            "  {}: hazards {}/{} with driver vs {} without; prevented {}, new {}",
            total.label,
            total.with_driver.hazards,
            total.with_driver.runs,
            total.no_driver.hazards,
            total.prevented_hazards,
            total.new_hazards,
        );
    }
    println!("\ntotal wall-clock {:.1?}", t0.elapsed());
    write_artifact("table_v.txt", &format!("{fixed_table}\n{strategic_table}"));
}
