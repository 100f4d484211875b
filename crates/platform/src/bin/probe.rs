//! Per-attack-type breakdown probe for the random baselines (a
//! calibration companion to the `calibrate` binary).

use attack_core::{AttackType, StrategyKind, ValueMode};
use platform::experiment::{
    plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
fn main() {
    for strategy in [StrategyKind::RandomSt, StrategyKind::RandomStDur] {
        println!("== {} ==", strategy.label());
        for t in AttackType::ALL {
            let mut cfg = CampaignConfig::smoke(strategy, 5);
            cfg.value_mode = ValueMode::Fixed;
            let r = run_campaign_cells(
                RunnerConfig::default(),
                plan_attack_campaign(&cfg, t),
                RunSpec::run,
            );
            let haz = r.iter().filter(|x| x.hazardous()).count();
            let acc = r.iter().filter(|x| x.accident.is_some()).count();
            let h1 = r
                .iter()
                .filter(|x| x.has_hazard(platform::HazardKind::H1))
                .count();
            let h2 = r
                .iter()
                .filter(|x| x.has_hazard(platform::HazardKind::H2))
                .count();
            let h3 = r
                .iter()
                .filter(|x| x.has_hazard(platform::HazardKind::H3))
                .count();
            println!(
                "{:<22} haz {:>2}/60 acc {:>2} (H1 {h1} H2 {h2} H3 {h3})",
                t.label(),
                haz,
                acc
            );
        }
    }
}
