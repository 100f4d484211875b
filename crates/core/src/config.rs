//! Attack-engine configuration.

use units::Seconds;

use crate::{AttackType, RuleParams, StrategyKind};

/// How attack values are chosen (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueMode {
    /// Use the maximum limits defined in the ADAS software:
    /// `steer = 0.5°`, `brake = −4 m/s²`, `accel = 2.4 m/s²`. Passes the
    /// software checks but is noticeable to the driver and would be caught
    /// by Panda-style firmware checks.
    Fixed,
    /// Dynamically choose values per Eq. 1–3: `steer = 0.25°`,
    /// `brake = −3.5 m/s²`, `accel ≤ 2 m/s²` modulated to keep the predicted
    /// speed under `1.1 × v_cruise`. Evades the firmware checks *and* the
    /// driver's anomaly perception.
    Strategic,
}

/// Full configuration of one attack campaign run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Which output variables to corrupt (Table II).
    pub attack_type: AttackType,
    /// When to start and how long to run (Table III).
    pub strategy: StrategyKind,
    /// How to choose the injected values (Table III).
    pub value_mode: ValueMode,
    /// Seed for the strategy's random draws.
    pub seed: u64,
    /// Context-table thresholds.
    pub rule_params: RuleParams,
    /// Explicit `(start, duration)` window overriding the strategy's
    /// scheduling. Used for parameter-space sweeps (paper Fig. 8).
    pub window_override: Option<(Seconds, Seconds)>,
}

impl Default for AttackConfig {
    /// The paper's headline configuration: Context-Aware strategy with
    /// strategic value corruption.
    fn default() -> Self {
        Self {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            seed: 0,
            rule_params: RuleParams::default(),
            window_override: None,
        }
    }
}

impl AttackConfig {
    /// The value mode Table III prescribes for a strategy: strategic values
    /// for Context-Aware, fixed values for every random baseline.
    pub fn canonical_value_mode(strategy: StrategyKind) -> ValueMode {
        match strategy {
            StrategyKind::ContextAware => ValueMode::Strategic,
            StrategyKind::RandomStDur | StrategyKind::RandomSt | StrategyKind::RandomDur => {
                ValueMode::Fixed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_headline_attack() {
        let c = AttackConfig::default();
        assert_eq!(c.strategy, StrategyKind::ContextAware);
        assert_eq!(c.value_mode, ValueMode::Strategic);
    }

    #[test]
    fn canonical_modes_match_table_iii() {
        assert_eq!(
            AttackConfig::canonical_value_mode(StrategyKind::ContextAware),
            ValueMode::Strategic
        );
        for s in [
            StrategyKind::RandomStDur,
            StrategyKind::RandomSt,
            StrategyKind::RandomDur,
        ] {
            assert_eq!(AttackConfig::canonical_value_mode(s), ValueMode::Fixed);
        }
    }
}
