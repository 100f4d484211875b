//! Regenerates the paper's **Table IV**: "Attack strategy comparisons with
//! an alert driver" — No-Attacks baseline plus the four strategies, each
//! over the full scenario × gap × repetition × attack-type matrix.
//!
//! Paper reference values (1,440 sims per strategy, 14,400 for
//! Random-ST+DUR):
//!
//! | Strategy      | Alerts | Hazards | Accidents | Haz&noAlert | Inv/s | TTH       |
//! |---------------|--------|---------|-----------|-------------|-------|-----------|
//! | No Attacks    | 0.1%   | 0       | 0         | 0           | 0.46  | –         |
//! | Random-ST+DUR | 22.6%  | 39.8%   | 22.9%     | 21.4%       | 1.03  | 1.61±1.96 |
//! | Random-ST     | 24.0%  | 53.5%   | 35.8%     | 32.9%       | 0.68  | 1.49±0.73 |
//! | Random-DUR    | 14.6%  | 26.9%   | 23.1%     | 15.9%       | 0.46  | 1.92±1.17 |
//! | Context-Aware | 0.3%   | 83.4%   | 44.5%     | 83.1%       | 0.66  | 2.43±1.29 |
//!
//! Run with `REPRO_SCALE=10` for a quick (≈ 1/10-size) pass.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench times its own run; timings are reported beside the seeded results and never feed them"
)]

use attack_core::{AttackType, StrategyKind};
use bench::{scale_divisor, scaled_reps, write_artifact};
use driver_model::DriverConfig;
use platform::experiment::{
    plan_attack_campaign, plan_no_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec,
    RunnerConfig,
};
use platform::metrics::StrategyAggregate;
use platform::tables::render_table_iv;

fn main() {
    let reps = scaled_reps();
    println!(
        "Table IV campaign: {} reps/cell (scale 1/{})",
        reps,
        scale_divisor()
    );

    let mut rows = Vec::new();

    // Baseline: no attacks.
    let t0 = std::time::Instant::now();
    let baseline = run_campaign_cells(
        RunnerConfig::default(),
        plan_no_attack_campaign(reps, 0x7AB1E4, DriverConfig::alert()),
        RunSpec::run,
    );
    rows.push(StrategyAggregate::from_results("No Attacks", &baseline));
    println!(
        "  no-attack campaign: {} sims in {:.1?}",
        baseline.len(),
        t0.elapsed()
    );

    for strategy in StrategyKind::ALL {
        let t0 = std::time::Instant::now();
        let mut cfg = CampaignConfig::paper(strategy);
        cfg.reps = reps;
        // All six attack types, concatenated: the paper's 1,440-run (or
        // 14,400-run) strategy campaign.
        let specs: Vec<RunSpec> = AttackType::ALL
            .into_iter()
            .flat_map(|t| plan_attack_campaign(&cfg, t))
            .collect();
        let results = run_campaign_cells(RunnerConfig::default(), specs, RunSpec::run);
        rows.push(StrategyAggregate::from_results(strategy.label(), &results));
        println!(
            "  {} campaign: {} sims in {:.1?}",
            strategy.label(),
            results.len(),
            t0.elapsed()
        );
    }

    let table = render_table_iv(&rows);
    println!("\n{table}");
    write_artifact("table_iv.txt", &table);
}
