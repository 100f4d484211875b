//! The paper's Fig. 3: eavesdropping on the Cereal-style message bus.
//!
//! ```bash
//! cargo run --example eavesdrop
//! ```
//!
//! Anything running on the device can subscribe to any topic — there is no
//! authentication. This example attaches a passive subscriber next to the
//! ADAS, decodes `gpsLocationExternal` / `modelV2` / `radarState`, and shows
//! the safety-context variables (HWT, RS, d_left, d_right) the attack infers
//! from them.

use attack_core::{ContextInference, Eavesdropper};
use driving_sim::{Scenario, ScenarioId};
use platform::{Harness, HarnessConfig};
use units::Distance;

fn main() {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let mut harness = Harness::new(HarnessConfig::no_attack(scenario, 3));

    // The malicious subscriber: taps the same bus the ADAS modules use.
    let mut inference = ContextInference::new(Eavesdropper::new(harness.bus()));

    println!("eavesdropping on gpsLocationExternal / modelV2 / radarState / carState:\n");
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>8} {:>8}  matched rule",
        "t (s)", "v (mph)", "HWT", "RS", "d_left", "d_right"
    );

    let table = attack_core::ContextTable::default();
    while !harness.finished() {
        let tick = harness.step();
        let state = inference.update(tick);
        if tick.index().is_multiple_of(200) {
            let actions = table.matching_actions(&state);
            let rule = actions
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "{:>6.1} {:>9.1} {:>7} {:>7} {:>8.2} {:>8.2}  {}",
                tick.time().secs(),
                state.v_ego.mph(),
                state.hwt.map_or("-".into(), |h| format!("{:.2}", h.secs())),
                state.rs.map_or("-".into(), |r| format!("{:+.1}", r.mps())),
                state.d_left.raw(),
                state.d_right.raw(),
                if rule.is_empty() { "-".into() } else { rule },
            );
        }
    }

    println!("\nThe attacker never published a message and is indistinguishable");
    println!("from a legitimate subscriber: the bus has no access control.");
}
