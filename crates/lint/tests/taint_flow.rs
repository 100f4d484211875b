//! End-to-end R6/R7 coverage: the taint-flow gate must fail a workspace
//! that routes attack values around the Injector choke point — and must
//! pass the real workspace, whose safety envelope the rules exist to prove.

use adas_lint::{
    default_baseline_path, load_baseline, scan_sources, scan_workspace,
    workspace_root_from_manifest, Baseline, Rule,
};

/// A bypass route — attacker code writing CAN bytes directly — fails R6
/// with the full flow chain in the message.
#[test]
fn unclamped_bypass_path_fails_with_flow_chain() {
    let diags = scan_sources(&[
        (
            "crates/core/src/engine.rs",
            "impl AttackEngine {\n    pub fn emit(&mut self, enc: &mut CommandEncoder) {\n        exfiltrate(enc);\n    }\n}\npub fn exfiltrate(enc: &mut CommandEncoder) {\n    enc.encode();\n}\n",
        ),
        (
            "crates/canbus/src/encoder.rs",
            "pub struct CommandEncoder;\nimpl CommandEncoder {\n    pub fn encode(&mut self) {}\n}\n",
        ),
    ]);
    let r6: Vec<_> = diags.iter().filter(|d| d.rule == Rule::TaintFlow).collect();
    assert!(!r6.is_empty(), "expected an R6 finding, got: {diags:?}");
    assert!(
        r6.iter()
            .any(|d| d.message.contains("exfiltrate → CommandEncoder::encode")),
        "the report must print the full flow chain: {r6:?}"
    );
    assert!(
        r6.iter().all(|d| d.file == "crates/core/src/engine.rs"),
        "the finding anchors at the attack-side origin: {r6:?}"
    );
}

/// The same reach, routed through the audited `Injector` choke: clean.
#[test]
fn choked_path_passes() {
    let diags = scan_sources(&[
        (
            "crates/core/src/engine.rs",
            "impl AttackEngine {\n    pub fn emit(&mut self, inj: &mut Injector, enc: &mut CommandEncoder) {\n        inj.apply(enc);\n    }\n}\n",
        ),
        (
            "crates/core/src/injector.rs",
            "pub struct Injector;\nimpl Injector {\n    pub fn apply(&mut self, enc: &mut CommandEncoder) {\n        enc.encode();\n    }\n}\n",
        ),
        (
            "crates/canbus/src/encoder.rs",
            "pub struct CommandEncoder;\nimpl CommandEncoder {\n    pub fn encode(&mut self) {}\n}\n",
        ),
    ]);
    assert!(
        diags.iter().all(|d| d.rule != Rule::TaintFlow),
        "Injector::apply is the sanctioned route: {diags:?}"
    );
}

/// Minting unclamped attack values in the origin module is caught at the
/// definition, before any flow exists.
#[test]
fn unclamped_minting_fails_r6a() {
    let diags = scan_sources(&[(
        "crates/core/src/corruption.rs",
        "impl CorruptionPolicy {\n    pub fn values(&mut self) -> AttackValues {\n        AttackValues::saturated()\n    }\n}\n",
    )]);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::TaintFlow && d.message.contains("mints")),
        "{diags:?}"
    );
}

/// ADAS code consuming attacker APIs dissolves the trust boundary (R6c).
#[test]
fn adas_to_attack_backflow_fails() {
    let diags = scan_sources(&[
        (
            "crates/openadas/src/controls.rs",
            "impl Controls {\n    pub fn update(&mut self) {\n        attack_hint();\n    }\n}\n",
        ),
        ("crates/core/src/engine.rs", "pub fn attack_hint() {}\n"),
    ]);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::TaintFlow && d.message.contains("trust boundary")),
        "{diags:?}"
    );
}

/// A panic reachable from `Harness::step` is reported with its call chain
/// (R7); moving the panic behind a test gate clears it.
#[test]
fn panic_reachable_from_harness_step_fails_r7() {
    let diags = scan_sources(&[(
        "crates/platform/src/harness.rs",
        "impl Harness {\n    pub fn step(&mut self) {\n        helper();\n    }\n}\nfn helper() {\n    danger();\n}\nfn danger() {\n    maybe().unwrap();\n}\n",
    )]);
    let r7: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::TransitivePanic)
        .collect();
    assert!(!r7.is_empty(), "{diags:?}");
    assert!(
        r7.iter()
            .any(|d| d.message.contains("Harness::step → helper → danger")),
        "{r7:?}"
    );
}

/// The real workspace satisfies the invariant the rules encode: zero
/// active findings of any rule, with an *empty* baseline — every
/// acknowledged site is an inline allow with its reason next to the code.
#[test]
fn real_workspace_proves_the_envelope_with_empty_baseline() {
    let root = workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR"));
    let baseline_text =
        std::fs::read_to_string(default_baseline_path(&root)).expect("baseline file exists");
    let parsed = Baseline::parse(&baseline_text).expect("baseline parses");
    assert!(
        parsed.unused().is_empty(),
        "the baseline must ship empty after the R1 burn-down; found entries: {:?}",
        parsed.unused()
    );

    let baseline = load_baseline(&default_baseline_path(&root)).expect("baseline parses");
    let report = scan_workspace(&root, Some(baseline)).expect("workspace scan succeeds");
    assert!(
        report.active.is_empty() && report.dead_suppressions.is_empty(),
        "the workspace must prove every rule clean: {:?} {:?}",
        report.active,
        report.dead_suppressions
    );
    assert_eq!(report.baselined, 0, "nothing left to grandfather");
}
