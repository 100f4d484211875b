//! A miniature version of the paper's experiment campaign: every attack type
//! under the Context-Aware strategy across the scenario matrix, aggregated
//! the way Table V is.
//!
//! ```bash
//! cargo run --release --example attack_campaign [reps-per-cell]
//! ```
//!
//! (Use `--release`; each repetition is 12 × 50 s simulations per attack
//! type. The full paper campaign is regenerated by
//! `cargo bench -p bench --bench table_v`.)

use attack_core::{AttackType, StrategyKind};
use platform::experiment::{
    plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
use platform::metrics::Tally;

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let cfg = CampaignConfig::smoke(StrategyKind::ContextAware, reps);
    println!(
        "Context-Aware campaign, strategic values, {} sims per attack type\n",
        reps * 12
    );
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>8} {:>10}",
        "attack type", "hazards", "accidents", "no-alert", "TTH", "frames-rw"
    );

    for attack_type in AttackType::ALL {
        let results = run_campaign_cells(
            RunnerConfig::default(),
            plan_attack_campaign(&cfg, attack_type),
            RunSpec::run,
        );
        let t = Tally::of(&results);
        let tth = t.tth.mean().map_or("-".to_owned(), |s| format!("{s:.2}s"));
        println!(
            "{:<22} {:>7.1}% {:>9.1}% {:>9.1}% {:>8} {:>10}",
            attack_type.label(),
            t.pct(t.hazards),
            t.pct(t.accidents),
            t.pct(t.hazards_without_alert),
            tth,
            t.frames_rewritten,
        );
    }

    println!(
        "\nEvery hazard above was caused by rewriting CAN frames whose values\n\
         never left the ADAS safety envelope — the paper's core result."
    );
}
