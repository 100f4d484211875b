//! The counter-move: the defenses the paper's §V points to, watching the
//! paper's stealthiest attack.
//!
//! ```bash
//! cargo run --example defense_demo
//! ```
//!
//! A strategic Context-Aware attack evades the ADAS alerts and the human
//! driver completely — but it cannot evade a control-invariant check (the
//! car visibly does something different from what the ADAS commanded) or a
//! context-aware command monitor (the executed command is exactly the
//! unsafe-in-context action of Table I). Both alarm well inside the
//! time-to-hazard window.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use platform::{DefensePolicy, Harness, HarnessConfig};
use units::Distance;

fn main() {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let attack = AttackConfig {
        attack_type: AttackType::Acceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 7,
        ..AttackConfig::default()
    };
    let mut cfg = HarnessConfig::with_attack(scenario, 7, attack);
    cfg.defense = DefensePolicy::Observe;
    let result = Harness::new(cfg).run();

    let t_a = result.attack_activated.expect("attack triggers in S1");
    println!(
        "t_a  = {:>5.2} s  strategic acceleration attack activates",
        t_a.secs()
    );
    println!(
        "               ADAS alerts: {}   driver noticed: {}",
        result.alert_events,
        result
            .driver_noticed
            .map_or("never".into(), |t| format!("{:.2} s", t.secs())),
    );
    match result.invariant_detected {
        Some(t) => println!(
            "inv  = {:>5.2} s  control-invariant detector alarms (+{:.2} s after t_a)",
            t.secs(),
            (t - t_a).secs()
        ),
        None => println!("inv  =     —    control-invariant detector silent"),
    }
    match result.monitor_detected {
        Some(t) => println!(
            "mon  = {:>5.2} s  context-aware command monitor alarms (+{:.2} s after t_a)",
            t.secs(),
            (t - t_a).secs()
        ),
        None => println!("mon  =     —    context monitor silent"),
    }
    match result.first_hazard {
        Some((t, k)) => println!("t_h  = {:>5.2} s  hazard {k:?}", t.secs()),
        None => println!("t_h  =     —    no hazard"),
    }

    let first_detection = match (result.invariant_detected, result.monitor_detected) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    if let (Some(d), Some((h, _))) = (first_detection, result.first_hazard) {
        println!(
            "\nmitigation budget: {:.2} s between first detection and the hazard —\n\
             enough for an automated intervention, though not for the 2.5 s human.",
            (h - d).secs()
        );
    }
}
