//! Campaign cells run through [`platform::simulate`], which picks the fused
//! lane engine for every eligible config. The scalar [`Harness`] stays the
//! definition: for a stride sample of every spec family, `spec.run()` must
//! equal `Harness::new(spec.harness_config(..)).run()` bit for bit.
//!
//! The sample is small enough for a debug `cargo test`: the No-Attacks
//! baseline plus one cell per strategy × attack type, the defense plan
//! across all four policies, and a slice of the resilience plan.

use attack_core::{AttackType, StrategyKind};
use driver_model::DriverConfig;
use platform::defense_campaign::{plan_defense_campaign, DefenseCampaignConfig, POLICIES};
use platform::experiment::{plan_attack_campaign, plan_no_attack_campaign, CampaignConfig};
use platform::resilience::{plan_resilience_campaign, ResilienceConfig};
use platform::{BatchHarness, Harness, HarnessConfig, SimResult, TraceConfig};

/// Asserts the cell's campaign result equals the scalar harness's.
fn assert_matches_scalar(label: &str, config: HarnessConfig, cell_result: SimResult) {
    assert_eq!(
        cell_result,
        Harness::new(config).run(),
        "{label}: campaign cell differs from the scalar harness"
    );
}

#[test]
fn attack_cells_match_the_scalar_harness() {
    let mut configs = Vec::new();
    let no_attack = plan_no_attack_campaign(1, 41, DriverConfig::alert());
    for spec in no_attack.iter().step_by(6) {
        let config = spec.harness_config(TraceConfig::disabled());
        assert_matches_scalar("no attack", config, spec.run());
        configs.push(config);
    }
    // One cell per strategy × attack type, rotating through the scenario
    // matrix so every scenario cell is visited.
    let mut k = 0;
    for strategy in StrategyKind::ALL {
        let cfg = CampaignConfig::smoke(strategy, 1);
        for attack_type in AttackType::ALL {
            let plan = plan_attack_campaign(&cfg, attack_type);
            let spec = plan[(5 * k) % plan.len()];
            k += 1;
            let config = spec.harness_config(TraceConfig::disabled());
            assert_matches_scalar(
                &format!("{} {}", strategy.label(), attack_type.label()),
                config,
                spec.run(),
            );
            configs.push(config);
        }
    }
    assert!(
        configs.iter().all(BatchHarness::fast_eligible),
        "undefended, fault-free attack cells all take the fused lane"
    );
}

#[test]
fn defense_cells_match_the_scalar_harness() {
    let plan = plan_defense_campaign(&DefenseCampaignConfig::new(54259, 1));
    let mut eligible = 0;
    let mut policies = Vec::new();
    for spec in plan.iter().step_by(29) {
        let config = spec.harness_config();
        eligible += usize::from(BatchHarness::fast_eligible(&config));
        if !policies.contains(&spec.policy) {
            policies.push(spec.policy);
        }
        assert_matches_scalar(
            &format!("{:?} {}", spec.policy, spec.threat.label()),
            config,
            spec.run(),
        );
    }
    assert_eq!(policies, POLICIES, "the sample spans every policy");
    // Only the Off policy's clean and attack threats are fused (84 of the
    // 1,200 cells); the stride starts inside them.
    assert!(eligible > 0, "the sample includes fused defense cells");
}

#[test]
fn resilience_cells_match_the_scalar_harness() {
    let plan = plan_resilience_campaign(&ResilienceConfig::new(7, 1));
    for spec in plan.iter().step_by(37) {
        let config = spec.harness_config();
        assert!(
            !BatchHarness::fast_eligible(&config),
            "faulted cells stay on the scalar harness"
        );
        assert_matches_scalar(spec.kind.label(), config, spec.run());
    }
}
