//! The gate's self-checks: dead suppressions and suppressions naming an id
//! that is no rule fail the build. Each test scans a tiny synthetic
//! workspace under `CARGO_TARGET_TMPDIR`.

use adas_lint::{scan_workspace, Rule, Severity};
use std::fs;
use std::path::PathBuf;

/// Creates a fresh workspace directory named after the calling test.
fn temp_ws(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/openadas/src")).expect("mkdir");
    dir
}

#[test]
fn dead_suppression_fails_the_gate_as_a_warning() {
    let ws = temp_ws("dead_suppression");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "// adas-lint: allow(R1, reason = \"the raw float this excused was removed\")\npub fn fine() {}\n",
    )
    .expect("write");

    let report = scan_workspace(&ws).expect("scan");
    assert!(report.active.is_empty(), "{:?}", report.active);
    assert_eq!(
        report.dead_suppressions.len(),
        1,
        "{:?}",
        report.dead_suppressions
    );
    let d = &report.dead_suppressions[0];
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(
        d.line, 2,
        "a standalone allow is anchored at the line it applies to"
    );
    assert!(d.message.contains("dead suppression"), "{d:?}");
    assert!(!report.is_clean(), "a dead allow must fail the gate");

    // A suppression that absorbs its finding is counted, not reported.
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) {}\n",
    )
    .expect("write");
    let report = scan_workspace(&ws).expect("scan");
    assert!(
        report.dead_suppressions.is_empty(),
        "{:?}",
        report.dead_suppressions
    );
    assert_eq!(report.suppressed, 1);
    assert!(report.is_clean());
}

#[test]
fn allow_naming_a_retired_rule_fails_the_gate() {
    let ws = temp_ws("retired_rule_allow");
    for id in ["R3", "R4", "R6", "R7", "R9", "R10", "R11"] {
        fs::write(
            ws.join("crates/openadas/src/lib.rs"),
            format!("// adas-lint: allow({id}, reason = \"retired\")\npub fn f(speed: f64) {{}}\n"),
        )
        .expect("write");
        let report = scan_workspace(&ws).expect("scan");
        // The retired id covers nothing, so the R1 finding below it survives…
        assert!(
            report.active.iter().any(|d| d.rule == Rule::UnitSafety
                && d.line == 2
                && d.message.contains("raw float")),
            "{id}: {:?}",
            report.active
        );
        // …and the stale id is an active error of its own, not a dead allow.
        let Some(stale) = report.active.iter().find(|d| {
            d.severity == Severity::Error && d.line == 2 && d.message.contains(&format!("`{id}`"))
        }) else {
            panic!("{id}: {:?}", report.active)
        };
        // The message says where the retired checks live now.
        let message = &stale.message;
        assert!(
            message.contains("R2, R4, R5, R7 and R8 are clippy lints"),
            "{id}: {message}"
        );
        assert!(
            message.contains("R3, R6 and R9–R11 are compiler checks")
                && message.contains("openadas::Enveloped")
                && message.contains("attack_core::AttackValues")
                && message.contains("units::limits"),
            "{id}: {message}"
        );
        assert_eq!(report.active.len(), 2, "{id}: {:?}", report.active);
        assert!(
            report.dead_suppressions.is_empty(),
            "{id}: {:?}",
            report.dead_suppressions
        );
        assert!(!report.is_clean(), "{id}");

        // Naming a live rule beside the retired id absorbs that rule's
        // finding, but never the report about the retired id.
        fs::write(
            ws.join("crates/openadas/src/lib.rs"),
            format!("pub fn f(speed: f64) {{}} // adas-lint: allow(R1, {id})\n"),
        )
        .expect("write");
        let report = scan_workspace(&ws).expect("scan");
        assert_eq!(report.active.len(), 1, "{id}: {:?}", report.active);
        assert!(
            report.active[0].message.contains(&format!("`{id}`")),
            "{id}: {:?}",
            report.active
        );
        assert_eq!(report.suppressed, 1, "{id}");
        assert!(!report.is_clean(), "{id}");
    }
}
