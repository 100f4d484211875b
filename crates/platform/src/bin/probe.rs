//! Per-attack-type breakdown probe for the random baselines (a
//! calibration companion to the `calibrate` binary).

use attack_core::{AttackType, StrategyKind, ValueMode};
use platform::experiment::{
    plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
use platform::metrics::Tally;

fn main() {
    for strategy in [StrategyKind::RandomSt, StrategyKind::RandomStDur] {
        println!("== {} ==", strategy.label());
        for attack_type in AttackType::ALL {
            let mut cfg = CampaignConfig::smoke(strategy, 5);
            cfg.value_mode = ValueMode::Fixed;
            let results = run_campaign_cells(
                RunnerConfig::default(),
                plan_attack_campaign(&cfg, attack_type),
                RunSpec::run,
            );
            let t = Tally::of(&results);
            let [h1, h2, h3] = t.hazard_kinds;
            println!(
                "{:<22} haz {:>2}/{} acc {:>2} (H1 {h1} H2 {h2} H3 {h3})",
                attack_type.label(),
                t.hazards,
                t.runs,
                t.accidents
            );
        }
    }
}
