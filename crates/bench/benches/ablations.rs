//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Checksum repair on/off** — without recomputing the Honda checksum,
//!    every corrupted frame is dropped by the receiving ECU and the attack
//!    does nothing (the paper's Fig. 4 step is load-bearing).
//! 2. **Panda firmware checks on/off** — with the strict firmware envelope
//!    enforced, fixed-value attacks are filtered while strategic values
//!    still pass (§IV-E.4 / §V).
//! 3. **Driver attentiveness** — the alert driver prevents most fixed-value
//!    longitudinal attacks but none of the steering ones (Observations 4/5).
//! 4. **Context-gated vs random start** — the Random-DUR vs Context-Aware
//!    comparison at equal duration budgets.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use bench::{scaled_reps, write_artifact};
use canbus::{CanFrame, VirtualCarDbc};
use driver_model::DriverConfig;
use driving_sim::{Scenario, ScenarioId};
use platform::experiment::{
    plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
use platform::metrics::Tally;
use platform::{Harness, HarnessConfig};
use units::Distance;

/// Ablation 1: a naive attacker who flips signal bits *without* repairing
/// the checksum. Implemented as a harness-level experiment: we corrupt the
/// steering frame's data directly and count how many frames the actuator ECU
/// accepts.
fn checksum_ablation() -> String {
    let dbc = VirtualCarDbc::new();
    let mut enc = canbus::Encoder::new();
    let mut accepted_naive = 0;
    let mut accepted_repaired = 0;
    let n = 1000;
    for i in 0..n {
        let frame = enc
            .encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", 0.1)])
            .unwrap();
        // Naive: overwrite the angle bytes, leave the checksum alone.
        let mut naive = frame;
        naive.data_mut()[0] = (i % 256) as u8;
        if canbus::decode(dbc.steering_control(), &naive).is_ok() {
            accepted_naive += 1;
        }
        // Paper attacker: rewrite via the injector (checksum repaired).
        let repaired = canbus::rewrite_signal(
            dbc.steering_control(),
            &frame,
            &canbus::STEER_ANGLE_CMD,
            0.5,
        )
        .unwrap();
        if canbus::decode(dbc.steering_control(), &repaired).is_ok() {
            accepted_repaired += 1;
        }
    }
    let _ = CanFrame::MAX_ID;
    format!(
        "checksum repair ablation ({n} corrupted steering frames):\n  naive bit-flips accepted by ECU: {accepted_naive}\n  checksum-repaired rewrites accepted: {accepted_repaired}\n"
    )
}

/// Ablation 2: Panda firmware checks enabled.
fn panda_ablation(reps: u32) -> String {
    let mut out = String::from("Panda firmware-check ablation (Acceleration attacks):\n");
    for (mode, label) in [
        (ValueMode::Fixed, "fixed"),
        (ValueMode::Strategic, "strategic"),
    ] {
        for panda in [false, true] {
            let mut cfg = CampaignConfig::paper(StrategyKind::ContextAware);
            cfg.value_mode = mode;
            cfg.reps = reps;
            cfg.panda_enabled = panda;
            let mut specs = plan_attack_campaign(&cfg, AttackType::Acceleration);
            for s in &mut specs {
                s.panda_enabled = panda;
            }
            let results = run_campaign_cells(RunnerConfig::default(), specs, RunSpec::run);
            let t = Tally::of(&results);
            out.push_str(&format!(
                "  {label:>9} values, panda {}: hazards {}/{} (frames blocked: {})\n",
                if panda { "ON " } else { "off" },
                t.hazards,
                t.runs,
                t.panda_blocked,
            ));
        }
    }
    out
}

/// Ablation 3: driver attentiveness per attack type (strategic values).
fn driver_ablation(reps: u32) -> String {
    let mut out = String::from("driver-attentiveness ablation (fixed values, Context-Aware):\n");
    for attack_type in [
        AttackType::Acceleration,
        AttackType::Deceleration,
        AttackType::SteeringRight,
    ] {
        let mut cfg = CampaignConfig::paper(StrategyKind::ContextAware);
        cfg.value_mode = ValueMode::Fixed;
        cfg.reps = reps;
        let specs = plan_attack_campaign(&cfg, attack_type);
        let alert = run_campaign_cells(RunnerConfig::default(), specs.clone(), RunSpec::run);
        let mut inattentive = specs;
        for s in &mut inattentive {
            s.driver = DriverConfig::inattentive();
        }
        let absent = run_campaign_cells(RunnerConfig::default(), inattentive, RunSpec::run);
        let (alert, absent) = (Tally::of(&alert), Tally::of(&absent));
        out.push_str(&format!(
            "  {:<22} hazards with alert driver {}/{} vs inattentive {}/{}\n",
            attack_type.label(),
            alert.hazards,
            alert.runs,
            absent.hazards,
            absent.runs,
        ));
    }
    out
}

/// Ablation 4: one concrete run showing random start wasting the window.
fn start_time_ablation() -> String {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(100.0));
    let ctx = Harness::new(HarnessConfig::with_attack(
        scenario,
        9,
        AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            ..AttackConfig::default()
        },
    ))
    .run();
    let rnd = Harness::new(HarnessConfig::with_attack(
        scenario,
        9,
        AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::RandomDur,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        },
    ))
    .run();
    format!(
        "start/duration ablation (same seed, Acceleration, S1@100m):\n  Context-Aware: activated {:?}, hazard {:?}\n  Random-DUR:    activated {:?}, hazard {:?}\n",
        ctx.attack_activated.map(|t| t.secs()),
        ctx.first_hazard.map(|(t, k)| (t.secs(), k)),
        rnd.attack_activated.map(|t| t.secs()),
        rnd.first_hazard.map(|(t, k)| (t.secs(), k)),
    )
}

fn main() {
    let reps = scaled_reps().min(5);
    let mut report = String::new();
    report.push_str(&checksum_ablation());
    report.push('\n');
    report.push_str(&panda_ablation(reps));
    report.push('\n');
    report.push_str(&driver_ablation(reps));
    report.push('\n');
    report.push_str(&start_time_ablation());
    println!("{report}");
    write_artifact("ablations.txt", &report);
}
