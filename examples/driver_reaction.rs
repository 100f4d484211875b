//! The paper's Fig. 2 timeline, acted out: attack activation (`t_a`), driver
//! perception (`t_d`), physical engagement (`t_ex`), the Eq.-4 brake ramp,
//! and the race against the hazard (`t_h`).
//!
//! ```bash
//! cargo run --example driver_reaction
//! ```
//!
//! Runs the same fixed-value Deceleration attack twice — once with the alert
//! driver, once without — showing how the 2.5 s reaction time decides
//! whether the hazard is prevented.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::{brake_curve, DriverConfig};
use driving_sim::{Scenario, ScenarioId};
use platform::{Harness, HarnessConfig};
use units::{Distance, Seconds};

fn run(label: &str, driver: DriverConfig) {
    // S2 at 70 m: ego settles behind the 50 mph lead, and the fixed-value
    // brake attack (-4 m/s², beyond the -3.5 envelope) is an anomaly the
    // driver can feel.
    let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
    let attack = AttackConfig {
        attack_type: AttackType::Deceleration,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Fixed,
        seed: 5,
        ..AttackConfig::default()
    };
    let mut cfg = HarnessConfig::with_attack(scenario, 5, attack);
    cfg.driver = driver;
    let result = Harness::new(cfg).run();

    println!("== {label} ==");
    match result.attack_activated {
        Some(t) => println!(
            "  t_a  = {:>5.2} s  attack activates (brake -4 m/s²)",
            t.secs()
        ),
        None => {
            println!("  attack never triggered in this run");
            return;
        }
    }
    if let Some(t) = result.driver_noticed {
        println!(
            "  t_d  = {:>5.2} s  driver feels the phantom braking",
            t.secs()
        );
    }
    if let Some(t) = result.driver_engaged {
        println!(
            "  t_ex = {:>5.2} s  driver takes over (t_d + 2.5 s)",
            t.secs()
        );
    }
    match result.first_hazard {
        Some((t, k)) => println!("  t_h  = {:>5.2} s  hazard {k:?}", t.secs()),
        None => println!("  t_h  =     —    hazard prevented"),
    }
    println!();
}

fn main() {
    println!("Eq. 4 brake ramp (fraction of full braking vs seconds after t_ex):");
    for t in [0.0, 0.5, 1.0, 1.2, 1.5, 2.0] {
        let f = brake_curve(Seconds::new(t));
        let bar = "#".repeat((f * 40.0) as usize);
        println!("  {t:>3.1} s  {f:>5.3} {bar}");
    }
    println!();

    run(
        "alert driver (the paper's Table V right half)",
        DriverConfig::alert(),
    );
    run("inattentive driver (ablation)", DriverConfig::inattentive());

    println!("The alert driver turns a certain hazard into a race: whether the");
    println!("takeover at t_d + 2.5 s lands before or after t_h depends on the");
    println!("speed the attack started from — exactly the paper's Observation 4.");
}
