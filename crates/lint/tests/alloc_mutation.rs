//! Mutation test for R13: the real `crates/platform/src/harness.rs` must
//! scan clean, and reintroducing a per-tick allocation into
//! `Harness::step` must produce exactly one R13 finding. This proves the
//! hot-path allocation analysis actually covers the tick every campaign
//! cell runs — a rule that stays silent when the regression it exists for
//! comes back is dead weight.

use std::path::Path;

use adas_lint::{scan_sources, Rule};

const HARNESS_REL: &str = "crates/platform/src/harness.rs";

/// The line the mutation is inserted after — the opening of the tick. If
/// `Harness::step`'s signature changes, update this anchor.
const ANCHOR: &str = "    pub fn step(&mut self) -> Tick {";

fn read_real_harness() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(HARNESS_REL);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn r13_findings(source: &str) -> Vec<adas_lint::Diagnostic> {
    let mut diags = scan_sources(&[(HARNESS_REL, source)]);
    diags.retain(|d| d.rule == Rule::AllocFreedom);
    diags
}

#[test]
fn real_harness_step_is_allocation_free() {
    let source = read_real_harness();
    assert!(
        source.contains(ANCHOR),
        "mutation anchor vanished from {HARNESS_REL} — update ANCHOR"
    );
    let diags = r13_findings(&source);
    assert!(
        diags.is_empty(),
        "the shipped tick must prove allocation-free, got: {:#?}",
        diags.iter().map(|d| d.render_human()).collect::<Vec<_>>()
    );
}

#[test]
fn reintroduced_per_tick_vec_is_caught() {
    let source = read_real_harness();
    let anchor_at = source
        .find(ANCHOR)
        .unwrap_or_else(|| panic!("mutation anchor vanished from {HARNESS_REL} — update ANCHOR"));
    // Reintroduce the pre-refactor shape: a scratch Vec built fresh
    // inside every tick.
    let mut mutated = String::with_capacity(source.len() + 64);
    mutated.push_str(&source[..anchor_at + ANCHOR.len()]);
    mutated.push_str("\n        let mut retire: Vec<usize> = Vec::new();\n        retire.clear();");
    mutated.push_str(&source[anchor_at + ANCHOR.len()..]);

    let diags = r13_findings(&mutated);
    assert_eq!(
        diags.len(),
        1,
        "exactly the injected Vec::new must fire, got: {:#?}",
        diags.iter().map(|d| d.render_human()).collect::<Vec<_>>()
    );
    let d = &diags[0];
    assert!(d.message.contains("Vec::new"), "{}", d.message);
    assert!(
        d.message.contains("call chain: Harness::step."),
        "chain must start (and, in one function, end) at the tick root: {}",
        d.message
    );
    // The finding lands on the injected line, right after the anchor.
    let anchor_line = source[..anchor_at].lines().count() + 1;
    assert_eq!(d.line, anchor_line + 1, "{}", d.render_human());
}
