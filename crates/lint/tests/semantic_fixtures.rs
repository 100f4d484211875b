//! Golden fixtures for the semantic layer (R9/R10/R11): a seeded
//! violation file whose (rule, line) findings are pinned in
//! `semantic_violations.expected`, and a clean file proving the analyzer
//! can actually discharge every obligation it is asked to. Lexical
//! and call-graph findings (R1, R3, R6, R7) on the same sources are out of scope here — the
//! `fixtures.rs` suite owns those — so the assertions filter to the
//! semantic rules.

use std::path::Path;

use adas_lint::{sarif, scan_sources, Diagnostic, Rule};

const FIXTURE_SCAN_PATH: &str = "crates/openadas/src/fixture.rs";

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn semantic_findings(source: &str) -> Vec<Diagnostic> {
    let mut diags = scan_sources(&[(FIXTURE_SCAN_PATH, source)]);
    diags.retain(|d| {
        matches!(
            d.rule,
            Rule::EnvelopeSoundness | Rule::ThresholdConsistency | Rule::ClampHygiene
        )
    });
    diags
}

#[test]
fn violating_fixture_matches_expected_findings() {
    let source = read_fixture("semantic_violations.rs");
    let expected: Vec<(String, usize)> = read_fixture("semantic_violations.expected")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let rule = parts.next().expect("rule id").to_owned();
            let line = parts
                .next()
                .expect("line number")
                .parse()
                .expect("line number parses");
            (rule, line)
        })
        .collect();

    let mut actual: Vec<(String, usize)> = semantic_findings(&source)
        .into_iter()
        .map(|d| (d.rule.id().to_owned(), d.line))
        .collect();
    actual.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    let mut expected_sorted = expected;
    expected_sorted.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    assert_eq!(
        actual, expected_sorted,
        "semantic fixture findings drifted from semantic_violations.expected \
         — if the rule change is intentional, update the .expected file"
    );
}

#[test]
fn wide_clamp_diagnostic_carries_the_interval_chain() {
    let source = read_fixture("semantic_violations.rs");
    let diags = semantic_findings(&source);
    let wide = diags
        .iter()
        .find(|d| d.rule == Rule::EnvelopeSoundness && d.message.contains("[-20, 10]"))
        .unwrap_or_else(|| panic!("no R9 finding for the wide clamp: {diags:?}"));
    // The human-readable message walks the interval chain: where the
    // value was clamped, what interval resulted, and which physical
    // limits it fails to fit inside.
    assert!(wide.message.contains("clamp@"), "{}", wide.message);
    assert!(wide.message.contains("[-9.8, 5]"), "{}", wide.message);
    let human = wide.render_human();
    assert!(human.contains("R9"), "{human}");
    assert!(human.contains(FIXTURE_SCAN_PATH), "{human}");
}

#[test]
fn semantic_findings_render_to_valid_sarif() {
    let source = read_fixture("semantic_violations.rs");
    let diags = semantic_findings(&source);
    assert!(!diags.is_empty());
    let doc = sarif::emit(&diags);
    sarif::validate(&doc).expect("semantic findings must emit valid SARIF");
    for rule in ["R9", "R10", "R11"] {
        assert!(
            doc.contains(&format!("\"ruleId\": \"{rule}\""))
                || doc.contains(&format!("\"ruleId\":\"{rule}\"")),
            "SARIF document lost {rule} results"
        );
    }
    // The interval chain survives into the SARIF message text.
    assert!(doc.contains("clamp@"), "interval chain missing from SARIF");
}

#[test]
fn clean_fixture_discharges_every_obligation() {
    let source = read_fixture("semantic_clean.rs");
    let diags = semantic_findings(&source);
    assert!(
        diags.is_empty(),
        "the clean semantic fixture must prove out, got: {:#?}",
        diags
            .iter()
            .map(|d| d.render_human())
            .collect::<Vec<_>>()
    );
}
