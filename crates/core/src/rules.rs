//! The safety context table (paper Table I): the STPA-derived mapping from
//! system context to unsafe control action.

use units::{Distance, Seconds, Speed};

use crate::{AttackAction, ContextState, SteerDirection};

/// The hazard a rule's unsafe action can lead to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PotentialHazard {
    /// H1: violating the safe following distance (→ forward collision A1).
    H1,
    /// H2: stopping/slowing with no lead present (→ rear-end collision A2).
    H2,
    /// H3: driving out of lane (→ road-side / neighbour-lane collision A3).
    H3,
}

/// Tunable thresholds of the context table. The paper gives ranges
/// (`t_safe ∈ [2,3] s`, `β₁, β₂ ∈ [20,35] mph`); the attacker fixes them from
/// domain knowledge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleParams {
    /// Safe headway-time threshold.
    pub t_safe: Seconds,
    /// Minimum speed for a Deceleration attack to be worthwhile.
    pub beta1: Speed,
    /// Minimum speed for a Steering attack to be worthwhile.
    pub beta2: Speed,
    /// Lane-edge proximity threshold. The paper's Table I uses 0.1 m
    /// against CARLA's geometry; our lane-perception drift is larger, so the
    /// attacker treats "within 0.3 m of the edge" as at-the-edge.
    pub edge_threshold: Distance,
}

impl Default for RuleParams {
    fn default() -> Self {
        Self {
            t_safe: Seconds::new(2.4),
            beta1: Speed::from_mph(20.0),
            beta2: Speed::from_mph(25.0),
            edge_threshold: Distance::meters(0.45),
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextRule {
    /// Row number (1–4), for display.
    pub id: u8,
    /// The unsafe control action the rule licenses.
    pub action: AttackAction,
    /// The hazard the action can cause in this context.
    pub hazard: PotentialHazard,
}

/// Slack added to the headway threshold while an acceleration attack holds.
const HOLD_HWT_SLACK: Seconds = Seconds::new(1.0);
/// RS may dip slightly negative (sensor dither) without aborting a running
/// acceleration attack.
const HOLD_RS_SLACK: Speed = Speed::from_mps(-0.5);
/// A running steering attack tolerates the edge distance re-growing to this
/// much (perception jitter) before giving up.
const HOLD_EDGE_SLACK: Distance = Distance::meters(0.6);

impl ContextRule {
    /// Whether the live context matches this rule.
    pub fn matches(&self, s: &ContextState, p: &RuleParams) -> bool {
        match self.action {
            // Rule 1: HWT <= t_safe ∧ RS > 0 — accelerating rams the lead.
            AttackAction::Accelerate => match (s.hwt, s.rs) {
                (Some(hwt), Some(rs)) => hwt <= p.t_safe && rs > Speed::ZERO,
                _ => false,
            },
            // Rule 2: (HWT > t_safe ∧ RS <= 0, or no lead at all) ∧ fast —
            // braking hard strands the car in traffic.
            AttackAction::Decelerate => {
                let no_threat = match (s.hwt, s.rs) {
                    (Some(hwt), Some(rs)) => hwt > p.t_safe && rs <= Speed::ZERO,
                    _ => !s.lead_present,
                };
                no_threat && s.v_ego > p.beta1
            }
            // Rules 3/4: already at a lane edge and fast — steering over the
            // edge leaves the lane before the ALC can respond.
            AttackAction::Steer(SteerDirection::Left) => {
                s.d_left <= p.edge_threshold && s.v_ego > p.beta2
            }
            AttackAction::Steer(SteerDirection::Right) => {
                s.d_right <= p.edge_threshold && s.v_ego > p.beta2
            }
        }
    }

    /// Whether a *running* attack on this rule's action should keep going —
    /// a relaxed version of [`ContextRule::matches`]. The paper's strategy
    /// selects the attack *duration* context-sensitively: once launched at
    /// the critical moment, the attack runs until the hazard goal becomes
    /// unreachable (target lost, car slowed below the useful range, car left
    /// the targeted lane edge), not until the first sensor-noise blip.
    pub fn holds(&self, s: &ContextState, p: &RuleParams) -> bool {
        match self.action {
            AttackAction::Accelerate => match (s.hwt, s.rs) {
                (Some(hwt), Some(rs)) => hwt <= p.t_safe + HOLD_HWT_SLACK && rs > HOLD_RS_SLACK,
                _ => false,
            },
            AttackAction::Decelerate => s.v_ego > p.beta1,
            AttackAction::Steer(SteerDirection::Left) => {
                s.d_left <= HOLD_EDGE_SLACK && s.v_ego > p.beta2
            }
            AttackAction::Steer(SteerDirection::Right) => {
                s.d_right <= HOLD_EDGE_SLACK && s.v_ego > p.beta2
            }
        }
    }
}

/// The full context table.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextTable {
    rules: Vec<ContextRule>,
    params: RuleParams,
}

impl Default for ContextTable {
    fn default() -> Self {
        Self::standard(RuleParams::default())
    }
}

impl ContextTable {
    /// Builds the paper's four-row table with the given thresholds.
    pub fn standard(params: RuleParams) -> Self {
        Self {
            rules: vec![
                ContextRule {
                    id: 1,
                    action: AttackAction::Accelerate,
                    hazard: PotentialHazard::H1,
                },
                ContextRule {
                    id: 2,
                    action: AttackAction::Decelerate,
                    hazard: PotentialHazard::H2,
                },
                ContextRule {
                    id: 3,
                    action: AttackAction::Steer(SteerDirection::Left),
                    hazard: PotentialHazard::H3,
                },
                ContextRule {
                    id: 4,
                    action: AttackAction::Steer(SteerDirection::Right),
                    hazard: PotentialHazard::H3,
                },
            ],
            params,
        }
    }

    /// The thresholds in use.
    pub fn params(&self) -> &RuleParams {
        &self.params
    }

    /// The rules.
    pub fn rules(&self) -> &[ContextRule] {
        &self.rules
    }

    /// All unsafe actions licensed by the current context.
    pub fn matching_actions(&self, state: &ContextState) -> Vec<AttackAction> {
        self.rules
            .iter()
            .filter(|r| r.matches(state, &self.params))
            .map(|r| r.action)
            .collect()
    }

    /// Whether a specific action is licensed by the current context.
    pub fn action_matches(&self, state: &ContextState, action: AttackAction) -> bool {
        self.rules
            .iter()
            .any(|r| r.action == action && r.matches(state, &self.params))
    }

    /// Whether a *running* attack on `action` should keep going (see
    /// [`ContextRule::holds`]).
    pub fn action_holds(&self, state: &ContextState, action: AttackAction) -> bool {
        self.rules
            .iter()
            .any(|r| r.action == action && r.holds(state, &self.params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ContextState {
        ContextState {
            v_ego: Speed::from_mph(60.0),
            v_cruise: Speed::from_mph(60.0),
            lead_present: true,
            hwt: Some(Seconds::new(2.0)),
            rs: Some(Speed::from_mph(25.0)),
            d_left: Distance::meters(0.5),
            d_right: Distance::meters(1.4),
        }
    }

    #[test]
    fn rule1_fires_when_closing_inside_t_safe() {
        let table = ContextTable::default();
        let s = state();
        assert!(table.action_matches(&s, AttackAction::Accelerate));
        // Not closing: no match.
        let mut s2 = s;
        s2.rs = Some(Speed::from_mph(-5.0));
        assert!(!table.action_matches(&s2, AttackAction::Accelerate));
        // Large headway: no match.
        let mut s3 = s;
        s3.hwt = Some(Seconds::new(3.0));
        assert!(!table.action_matches(&s3, AttackAction::Accelerate));
    }

    #[test]
    fn rule2_fires_without_a_threatening_lead() {
        let table = ContextTable::default();
        // Case A: lead far and pulling away.
        let mut s = state();
        s.hwt = Some(Seconds::new(4.0));
        s.rs = Some(Speed::from_mph(-2.0));
        assert!(table.action_matches(&s, AttackAction::Decelerate));
        // Case B: no lead at all.
        let mut s = state();
        s.lead_present = false;
        s.hwt = None;
        s.rs = None;
        assert!(table.action_matches(&s, AttackAction::Decelerate));
        // Too slow: pointless.
        s.v_ego = Speed::from_mph(20.0);
        assert!(!table.action_matches(&s, AttackAction::Decelerate));
    }

    #[test]
    fn rules_3_and_4_fire_at_the_matching_edge() {
        let table = ContextTable::default();
        let mut s = state();
        s.d_left = Distance::meters(0.05);
        assert!(table.action_matches(&s, AttackAction::Steer(SteerDirection::Left)));
        assert!(!table.action_matches(&s, AttackAction::Steer(SteerDirection::Right)));
        s.d_left = Distance::meters(0.5);
        s.d_right = Distance::meters(0.02);
        assert!(table.action_matches(&s, AttackAction::Steer(SteerDirection::Right)));
        // Slow car: no steering attack.
        s.v_ego = Speed::from_mph(20.0);
        assert!(!table.action_matches(&s, AttackAction::Steer(SteerDirection::Right)));
    }

    #[test]
    fn multiple_contexts_can_match_simultaneously() {
        let table = ContextTable::default();
        let mut s = state();
        s.d_right = Distance::meters(0.05);
        let actions = table.matching_actions(&s);
        assert!(actions.contains(&AttackAction::Accelerate));
        assert!(actions.contains(&AttackAction::Steer(SteerDirection::Right)));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn no_lead_means_no_acceleration_context() {
        let table = ContextTable::default();
        let mut s = state();
        s.lead_present = false;
        s.hwt = None;
        s.rs = None;
        assert!(!table.action_matches(&s, AttackAction::Accelerate));
    }

    #[test]
    fn table_has_four_rows_with_expected_hazards() {
        let table = ContextTable::default();
        let hazards: Vec<_> = table.rules().iter().map(|r| r.hazard).collect();
        assert_eq!(
            hazards,
            vec![
                PotentialHazard::H1,
                PotentialHazard::H2,
                PotentialHazard::H3,
                PotentialHazard::H3
            ]
        );
    }
}
