//! Quickstart: run one Context-Aware attack end-to-end and narrate it.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! Builds the full platform of the paper's Fig. 5 — simulator, OpenPilot-style
//! ADAS, Cereal-style bus, CAN layer, driver reaction simulator — mounts the
//! Context-Aware attack engine as a CAN man-in-the-middle, and reports the
//! timeline of the paper's Fig. 2 (`t_a`, `t_d`, `t_ex`, `t_h`).

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use platform::{Harness, HarnessConfig};
use units::Distance;

fn main() {
    // Scenario S1: ego cruising at 60 mph approaches a 35 mph lead from 70 m.
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));

    // The paper's headline attack: Context-Aware scheduling with strategic
    // value corruption, targeting the gas output.
    let attack = AttackConfig {
        attack_type: AttackType::Acceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 7,
        ..AttackConfig::default()
    };

    let mut harness = Harness::new(HarnessConfig::with_attack(scenario, 7, attack));

    println!("running 50 s of simulated driving (10 ms control cycles)...\n");
    let mut announced_activation = false;
    while !harness.finished() {
        harness.step();
        if !announced_activation {
            if let Some(att) = harness.attacker() {
                if let Some(t_a) = att.timeline().activated_at() {
                    let ctx = att.context();
                    println!(
                        "t_a = {:>5.2} s  attack activated: HWT = {:.2} s, RS = {:+.1} m/s — rule 1 context",
                        t_a.time().secs(),
                        ctx.hwt.map_or(f64::NAN, |h| h.secs()),
                        ctx.rs.map_or(f64::NAN, |r| r.mps()),
                    );
                    announced_activation = true;
                }
            }
        }
    }

    let result = harness.result_so_far();
    if let Some(t) = result.driver_noticed {
        println!("t_d = {:>5.2} s  driver noticed an anomaly", t.secs());
    } else {
        println!("t_d =     —    driver never noticed anything (strategic values)");
    }
    if let Some(t) = result.driver_engaged {
        println!("t_ex= {:>5.2} s  driver physically took over", t.secs());
    }
    match result.first_hazard {
        Some((t, kind)) => println!("t_h = {:>5.2} s  hazard {kind:?} occurred", t.secs()),
        None => println!("t_h =     —    no hazard this run"),
    }
    if let Some((t, kind)) = result.accident {
        println!("      {:>5.2} s  accident: {kind:?}", t.secs());
    }

    println!("\nsummary:");
    println!(
        "  time-to-hazard (TTH):  {:?}",
        result.tth.map(|t| t.secs())
    );
    println!("  ADAS alerts raised:    {}", result.alert_events);
    println!(
        "  FCW warnings:          {} (the paper's Observation 2: none)",
        result.fcw_events
    );
    println!("  CAN frames rewritten:  {}", result.frames_rewritten);
    println!("  lane invasions:        {}", result.lane_invasions);
}
