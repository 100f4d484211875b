//! Panic-freedom on the steady-state paths is clippy's to prove: the tick
//! (`platform`) and the campaign daemon (`campaignd`) must degrade, not
//! die, so every workspace crate they reach through their manifests denies
//! the seven panicking constructs in its `lib.rs`. This test keeps that
//! list complete as the dependency graph grows, the transitive guarantee
//! adas-lint's retired R7 gave.

use adas_lint::{symbols::workspace_deps, tokenizer, workspace_root_from_manifest};
use std::collections::BTreeSet;

/// The crates whose loops must not panic: the tick and the daemon.
const ROOTS: [&str; 2] = ["platform", "campaignd"];

/// The clippy lints that together deny every panicking construct.
const PANIC_LINTS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// The lints named in the `#![deny(…)]` attributes of `source`, with
/// comments and string literals masked.
fn denied_lints(source: &str) -> BTreeSet<String> {
    let code: Vec<String> = tokenizer::tokenize(source)
        .lines
        .into_iter()
        .map(|l| l.code)
        .collect();
    let code = code.join("\n");
    let mut denied = BTreeSet::new();
    for attr in code.split("#![deny(").skip(1) {
        let list = attr.split(')').next().unwrap_or_default();
        denied.extend(
            list.split(',')
                .map(|lint| lint.split_whitespace().collect::<String>())
                .filter(|lint| !lint.is_empty()),
        );
    }
    denied
}

#[test]
fn every_crate_the_tick_and_the_daemon_reach_denies_panics() {
    let root = workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let deps = workspace_deps(&root);
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = ROOTS.to_vec();
    while let Some(krate) = stack.pop() {
        if reached.insert(krate) {
            stack.extend(deps.get(krate).into_iter().flatten().map(String::as_str));
        }
    }
    assert!(
        reached.len() > ROOTS.len(),
        "sanity: the manifests under {} name no dependency of {ROOTS:?}",
        root.display()
    );

    let mut missing: Vec<String> = Vec::new();
    for krate in &reached {
        let lib = format!("crates/{krate}/src/lib.rs");
        let text = std::fs::read_to_string(root.join(&lib)).expect("read lib.rs");
        let denied = denied_lints(&text);
        missing.extend(
            PANIC_LINTS
                .iter()
                .filter(|lint| !denied.contains(**lint))
                .map(|lint| format!("{lib} does not deny `{lint}`")),
        );
    }
    assert!(
        missing.is_empty(),
        "the crates the tick and the daemon reach ({reached:?}) must deny every \
         panicking construct; add the `#![deny(…)]` block the others carry:\n{}",
        missing.join("\n")
    );
}
