//! The build gate: `cargo test` fails if the workspace picks up a safety
//! violation that is neither fixed nor inline-allowed — and the gate itself
//! is tested by injecting the violations the paper's threat model cares
//! about and asserting the rules fire.

use adas_lint::{
    collect_files, parser, scan_source, scan_workspace, scope, tokenizer,
    workspace_root_from_manifest, FileKind, Rule,
};
use std::collections::HashSet;

fn workspace_root() -> std::path::PathBuf {
    workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_scan_is_clean() {
    let root = workspace_root();
    let report = scan_workspace(&root).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "sanity: scan found only {} files — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.active.iter().map(|d| d.render_human()).collect();
    assert!(
        report.active.is_empty(),
        "adas-lint found {} new violation(s); fix them or add an inline \
         `// adas-lint: allow(<rule>, reason = \"…\")`:\n\n{}",
        report.active.len(),
        rendered.join("\n")
    );
    assert!(
        report.dead_suppressions.is_empty(),
        "dead suppressions (the code they excused is gone — remove them): {:?}",
        report.dead_suppressions
    );
}

/// The rule tables match by name, so an entry naming code that does not
/// exist matches nothing until a function of that name appears anywhere,
/// which then silently becomes an R13 root, a fan-out boundary or an R13
/// exemption. Every entry must name a non-test function of library or
/// binary code, by qualified or bare name: the table counterpart of the
/// dead-suppression check.
#[test]
fn rule_tables_name_only_code_that_exists() {
    let root = workspace_root();
    let files = collect_files(&root).expect("workspace walk");
    let mut fns: HashSet<String> = HashSet::new();
    for rel in &files {
        let info = scope::classify(rel);
        if !matches!(info.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(rel)).expect("read source");
        let facts = parser::parse(&tokenizer::tokenize(&text));
        for f in facts.fns.into_iter().filter(|f| !f.is_test) {
            fns.insert(f.name);
            fns.insert(f.qual);
        }
    }
    let tables: [(&str, &[&str]); 3] = [
        ("allocpath::R13_ROOTS", &adas_lint::allocpath::R13_ROOTS),
        ("locks::BOUNDARY_FNS", &adas_lint::locks::BOUNDARY_FNS),
        (
            "allocpath::AMORTIZED_FNS",
            &adas_lint::allocpath::AMORTIZED_FNS,
        ),
    ];
    let mut missing: Vec<String> = Vec::new();
    for (table, entries) in tables {
        for entry in entries.iter().filter(|e| !fns.contains(**e)) {
            missing.push(format!("{table} entry `{entry}` names no function"));
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

/// Injecting a raw-f64 public API into a safety-path crate must fail with R1.
#[test]
fn injected_raw_float_api_fails_r1() {
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "/// Sets the cruise speed.\npub fn set_cruise_speed(&mut self, speed: f64) {}\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::UnitSafety && d.line == 2),
        "expected an R1 diagnostic at line 2, got: {diags:?}"
    );
}

/// An inline allow with a reason silences exactly its rule, nothing else.
#[test]
fn inline_allow_suppresses_only_named_rule() {
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) {}\n",
    );
    assert!(diags.is_empty(), "{diags:?}");
    // The allow names R1; an R14 violation on the same line still fires.
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) {} static mut GAIN: u8 = 0;\n",
    );
    assert!(
        diags.iter().all(|d| d.rule != Rule::UnitSafety),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::SharedStateDeterminism),
        "{diags:?}"
    );
}
