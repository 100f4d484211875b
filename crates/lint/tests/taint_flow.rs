//! End-to-end R6 coverage: the taint-flow gate must fail a workspace that
//! routes attack values around the Injector choke point. That the real
//! workspace passes is `lint_clean.rs`' `workspace_scan_is_clean`.

use adas_lint::{scan_sources, Rule};

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
