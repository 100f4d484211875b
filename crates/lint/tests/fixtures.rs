//! Golden-fixture tests: known-violating and known-clean sources with
//! checked-in expectations. The fixtures live under `tests/fixtures/`,
//! which the workspace scanner skips, so they never pollute a real scan.

use std::path::Path;

use adas_lint::scan_source;

/// The fixture files are scanned as if they lived inside openadas — the
/// strictest scope (every per-file rule, R1 and the local halves of R12
/// and R14, applies).
const FIXTURE_SCAN_PATH: &str = "crates/openadas/src/fixture.rs";

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

#[test]
fn violating_fixture_matches_expected_findings() {
    let source = read_fixture("violations.rs");
    let expected: Vec<(String, usize)> = read_fixture("violations.expected")
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

    let mut actual: Vec<(String, usize)> = scan_source(FIXTURE_SCAN_PATH, &source)
        .into_iter()
        .map(|d| (d.rule.id().to_owned(), d.line))
        .collect();
    actual.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    let mut expected_sorted = expected;
    expected_sorted.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));

    assert_eq!(
        actual, expected_sorted,
        "fixture findings drifted from violations.expected — if the rule \
         change is intentional, update the .expected file"
    );
}

#[test]
fn tricky_clean_fixture_produces_no_findings() {
    let source = read_fixture("clean_tricky.rs");
    let diags = scan_source(FIXTURE_SCAN_PATH, &source);
    assert!(
        diags.is_empty(),
        "masked content leaked into the code view: {diags:#?}"
    );
}
