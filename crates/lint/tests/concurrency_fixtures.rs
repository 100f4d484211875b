//! Golden fixtures for the concurrency/allocation layer (R12/R13/R14):
//! a seeded violation file whose (rule, line) findings are pinned in
//! `concurrency_violations.expected`, and a clean file proving the
//! analyzer can discharge every obligation it is asked to. Findings from
//! other layers on the same sources are out of scope here — `fixtures.rs`
//! owns the lexical rules — so the assertions filter to the concurrency
//! rules.

use std::path::Path;

use adas_lint::{sarif, scan_sources, Diagnostic, Rule};

/// The fixture is scanned as a platform lib file so the concurrency
/// scope (`scope::concurrency_applies`) covers it.
const FIXTURE_SCAN_PATH: &str = "crates/platform/src/fixture.rs";

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn concurrency_findings(source: &str) -> Vec<Diagnostic> {
    let mut diags = scan_sources(&[(FIXTURE_SCAN_PATH, source)]);
    diags.retain(|d| {
        matches!(
            d.rule,
            Rule::LockDiscipline | Rule::AllocFreedom | Rule::SharedStateDeterminism
        )
    });
    diags
}

#[test]
fn violating_fixture_matches_expected_findings() {
    let source = read_fixture("concurrency_violations.rs");
    let expected: Vec<(String, usize)> = read_fixture("concurrency_violations.expected")
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

    let mut actual: Vec<(String, usize)> = concurrency_findings(&source)
        .into_iter()
        .map(|d| (d.rule.id().to_owned(), d.line))
        .collect();
    actual.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    let mut expected_sorted = expected;
    expected_sorted.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    assert_eq!(
        actual, expected_sorted,
        "concurrency fixture findings drifted from concurrency_violations.expected \
         — if the rule change is intentional, update the .expected file"
    );
}

#[test]
fn r13_diagnostic_carries_the_call_chain() {
    let source = read_fixture("concurrency_violations.rs");
    let diags = concurrency_findings(&source);
    let alloc = diags
        .iter()
        .find(|d| d.rule == Rule::AllocFreedom)
        .unwrap_or_else(|| panic!("no R13 finding in the fixture: {diags:?}"));
    // The message names the hot-path root the allocation is reachable
    // from, so the reader can judge the chain without re-deriving it.
    assert!(alloc.message.contains("Harness::step"), "{}", alloc.message);
    let human = alloc.render_human();
    assert!(human.contains("R13"), "{human}");
    assert!(human.contains(FIXTURE_SCAN_PATH), "{human}");
}

#[test]
fn concurrency_findings_render_to_valid_sarif() {
    let source = read_fixture("concurrency_violations.rs");
    let diags = concurrency_findings(&source);
    assert!(!diags.is_empty());
    let doc = sarif::emit(&diags);
    sarif::validate(&doc).expect("concurrency findings must emit valid SARIF");
    for rule in ["R12", "R13", "R14"] {
        assert!(
            doc.contains(&format!("\"ruleId\": \"{rule}\""))
                || doc.contains(&format!("\"ruleId\":\"{rule}\"")),
            "SARIF document lost {rule} results"
        );
    }
}

#[test]
fn clean_fixture_discharges_every_obligation() {
    let source = read_fixture("concurrency_clean.rs");
    let diags = concurrency_findings(&source);
    assert!(
        diags.is_empty(),
        "the clean concurrency fixture must prove out, got: {:#?}",
        diags.iter().map(|d| d.render_human()).collect::<Vec<_>>()
    );
}
