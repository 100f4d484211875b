//! The build gate: `cargo test` fails if the workspace picks up a safety
//! violation that is neither fixed, inline-allowed, nor baselined — and the
//! gate itself is tested by injecting the violations the paper's threat
//! model cares about and asserting the rules fire.

use adas_lint::{
    default_baseline_path, load_baseline, scan_source, scan_workspace,
    workspace_root_from_manifest, Rule,
};

fn workspace_root() -> std::path::PathBuf {
    workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_has_no_unacknowledged_findings() {
    let root = workspace_root();
    let baseline = load_baseline(&default_baseline_path(&root)).expect("baseline parses");
    let report = scan_workspace(&root, Some(baseline)).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "sanity: scan found only {} files — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.active.iter().map(|d| d.render_human()).collect();
    assert!(
        report.active.is_empty(),
        "adas-lint found {} new violation(s); fix them, add an inline \
         `// adas-lint: allow(<rule>, reason = \"…\")`, or (legacy code only) \
         re-run `cargo run -p adas-lint -- --write-baseline`:\n\n{}",
        report.active.len(),
        rendered.join("\n")
    );
}

#[test]
fn baseline_has_no_stale_entries() {
    let root = workspace_root();
    let baseline = load_baseline(&default_baseline_path(&root)).expect("baseline parses");
    let report = scan_workspace(&root, Some(baseline)).expect("workspace scan succeeds");
    assert!(
        report.unused_baseline.is_empty(),
        "stale baseline entries (the code they grandfathered is gone — \
         re-run `cargo run -p adas-lint -- --write-baseline`): {:?}",
        report.unused_baseline
    );
}

/// Injecting a raw-f64 public API into a safety-path crate must fail with R1.
#[test]
fn injected_raw_float_api_fails_r1() {
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "/// Sets the cruise speed.\npub fn set_cruise_speed(&mut self, speed: f64) {}\n",
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::UnitSafety && d.line == 2),
        "expected an R1 diagnostic at line 2, got: {diags:?}"
    );
}

/// Writing an actuator command field outside the designated modules is R3.
#[test]
fn actuator_write_outside_safety_layer_fails_r3() {
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "fn sneak(&mut self) {\n    self.control.accel_cmd = 9.0;\n}\n",
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::ActuatorContainment && d.line == 2),
        "expected an R3 diagnostic at line 2, got: {diags:?}"
    );
    // The identical write inside the safety layer is contained — no finding.
    let allowed = scan_source(
        "crates/openadas/src/safety.rs",
        "fn clamp(&mut self) {\n    self.control.accel_cmd = 9.0;\n}\n",
    );
    assert!(allowed.iter().all(|d| d.rule != Rule::ActuatorContainment));
}

/// An inline allow with a reason silences exactly its rule, nothing else.
#[test]
fn inline_allow_suppresses_only_named_rule() {
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) {}\n",
    );
    assert!(diags.is_empty(), "{diags:?}");
    // The allow names R1; an R3 violation on the same line still fires.
    let diags = scan_source(
        "crates/openadas/src/injected.rs",
        "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) { self.cmd.accel = gain; }\n",
    );
    assert!(diags.iter().all(|d| d.rule != Rule::UnitSafety), "{diags:?}");
    assert!(diags.iter().any(|d| d.rule == Rule::ActuatorContainment), "{diags:?}");
}
