//! Byte pins for adas-lint's machine-readable outputs, for fixed inputs:
//! the SARIF document [`sarif::emit`] writes for a fixed set of
//! diagnostics, and the binary's `--format json` report for a tiny
//! synthetic workspace with one finding and one dead suppression.
//!
//! Both documents changed layout when `platform::json` took them over: the
//! report gained spaces after `:` and `,`, and SARIF puts each rule and
//! each result on one line. Each test keeps the earlier text and checks
//! that it reads back to the same values as the new.

use adas_lint::sarif;
use adas_lint::{Diagnostic, Rule, Severity};
use platform::json;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic {
            rule: Rule::TaintFlow,
            severity: Severity::Error,
            file: "crates/core/src/engine.rs".into(),
            line: 42,
            snippet: "fn emit".into(),
            message: "flow chain: a → b \"quoted\" back\\slash\nsecond line".into(),
        },
        Diagnostic {
            rule: Rule::UnitSafety,
            severity: Severity::Warning,
            file: "crates/openadas/src/adas.rs".into(),
            line: 0,
            snippet: "pub fn x(v: f64)".into(),
            message: "bare f64".into(),
        },
    ]
}

#[test]
fn sarif_bytes() {
    assert_eq!(sarif::emit(&diagnostics()), SARIF);
    assert_eq!(
        json::parse(EARLIER_LAYOUT_SARIF.as_bytes()),
        json::parse(SARIF.as_bytes())
    );
    sarif::validate(SARIF).expect("the pinned document validates");
}

#[test]
fn json_report_bytes() {
    let ws = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("json_report_bytes");
    let _ = fs::remove_dir_all(&ws);
    fs::create_dir_all(ws.join("crates/openadas/src")).expect("mkdir");
    fs::write(
        ws.join("crates/openadas/src/lib.rs"),
        "pub fn f(speed: f64) -> &'static str { \"a\\\"b\\\\c\t\" }\n\
         // adas-lint: allow(R3, reason = \"the write this excused was removed\")\n\
         pub fn fine() {}\n",
    )
    .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_adas-lint"))
        .arg("--root")
        .arg(&ws)
        .args(["--format", "json"])
        .output()
        .expect("run adas-lint");
    assert_eq!(out.status.code(), Some(1), "findings fail the gate");
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8"), JSON_REPORT);
    assert_eq!(
        json::parse(COMPACT_JSON_REPORT.as_bytes()),
        json::parse(JSON_REPORT.as_bytes())
    );
}

/// The SARIF text before `platform::json` wrote it: other whitespace,
/// the same values.
const EARLIER_LAYOUT_SARIF: &str = r#"{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "adas-lint",
          "informationUri": "https://github.com/adas-attack-repro",
          "rules": [
            {
              "id": "R1",
              "name": "unit-safety",
              "shortDescription": { "text": "public APIs of safety-path crates take units:: newtypes, not raw f64" }
            },
            {
              "id": "R3",
              "name": "actuator-containment",
              "shortDescription": { "text": "gas/brake/steer command fields written only in designated modules" }
            },
            {
              "id": "R6",
              "name": "taint-flow",
              "shortDescription": { "text": "attack values clamped at birth and routed to CAN bytes only via the Injector choke point" }
            },
            {
              "id": "R12",
              "name": "lock-discipline",
              "shortDescription": { "text": "acyclic lock order, no locks across run_campaign_cells, Condvar::wait in predicate loops, documented poisoning policy" }
            },
            {
              "id": "R13",
              "name": "alloc-freedom",
              "shortDescription": { "text": "no call path from the steady-state tick roots reaches an allocating std API" }
            },
            {
              "id": "R14",
              "name": "shared-state-determinism",
              "shortDescription": { "text": "no mutable statics, env-reading OnceLock initializers, or completion-order campaign merges" }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "R6",
          "ruleIndex": 2,
          "level": "error",
          "message": { "text": "flow chain: a → b \"quoted\" back\\slash\nsecond line" },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": { "uri": "crates/core/src/engine.rs" },
                "region": { "startLine": 42 }
              }
            }
          ]
        },
        {
          "ruleId": "R1",
          "ruleIndex": 0,
          "level": "warning",
          "message": { "text": "bare f64" },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": { "uri": "crates/openadas/src/adas.rs" },
                "region": { "startLine": 1 }
              }
            }
          ]
        }
      ]
    }
  ]
}
"#;

/// The report before `platform::json` wrote it: no spaces after `:` and
/// `,`, the same values.
const COMPACT_JSON_REPORT: &str = r#"{"version":4,"diagnostics":[{"rule":"R1","name":"unit-safety","severity":"error","file":"crates/openadas/src/lib.rs","line":1,"snippet":"pub fn f(speed: f64) -> &'static str { \"a\\\"b\\\\c\t\" }","message":"public API passes a raw float; use a `units::` newtype (Speed, Distance, Angle, Accel, Seconds) or allow with a reason if genuinely dimensionless"},{"rule":"R3","name":"actuator-containment","severity":"warning","file":"crates/openadas/src/lib.rs","line":3,"snippet":"adas-lint: allow(R3)","message":"dead suppression: the inline allow for R3 absorbs no finding — the code it excused is gone; remove the comment"}],"summary":{"files_scanned":1,"active":1,"dead_suppressions":1,"suppressed":0}}
"#;

const SARIF: &str = r#"{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "adas-lint",
          "informationUri": "https://github.com/adas-attack-repro",
          "rules": [
            {"id": "R1", "name": "unit-safety", "shortDescription": {"text": "public APIs of safety-path crates take units:: newtypes, not raw f64"}},
            {"id": "R3", "name": "actuator-containment", "shortDescription": {"text": "gas/brake/steer command fields written only in designated modules"}},
            {"id": "R6", "name": "taint-flow", "shortDescription": {"text": "attack values clamped at birth and routed to CAN bytes only via the Injector choke point"}},
            {"id": "R12", "name": "lock-discipline", "shortDescription": {"text": "acyclic lock order, no locks across run_campaign_cells, Condvar::wait in predicate loops, documented poisoning policy"}},
            {"id": "R13", "name": "alloc-freedom", "shortDescription": {"text": "no call path from the steady-state tick roots reaches an allocating std API"}},
            {"id": "R14", "name": "shared-state-determinism", "shortDescription": {"text": "no mutable statics, env-reading OnceLock initializers, or completion-order campaign merges"}}
          ]
        }
      },
      "results": [
        {"ruleId": "R6", "ruleIndex": 2, "level": "error", "message": {"text": "flow chain: a → b \"quoted\" back\\slash\nsecond line"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "crates/core/src/engine.rs"}, "region": {"startLine": 42}}}]},
        {"ruleId": "R1", "ruleIndex": 0, "level": "warning", "message": {"text": "bare f64"}, "locations": [{"physicalLocation": {"artifactLocation": {"uri": "crates/openadas/src/adas.rs"}, "region": {"startLine": 1}}}]}
      ]
    }
  ]
}
"#;

const JSON_REPORT: &str = r#"{"version": 4, "diagnostics": [{"rule": "R1", "name": "unit-safety", "severity": "error", "file": "crates/openadas/src/lib.rs", "line": 1, "snippet": "pub fn f(speed: f64) -> &'static str { \"a\\\"b\\\\c\t\" }", "message": "public API passes a raw float; use a `units::` newtype (Speed, Distance, Angle, Accel, Seconds) or allow with a reason if genuinely dimensionless"}, {"rule": "R3", "name": "actuator-containment", "severity": "warning", "file": "crates/openadas/src/lib.rs", "line": 3, "snippet": "adas-lint: allow(R3)", "message": "dead suppression: the inline allow for R3 absorbs no finding — the code it excused is gone; remove the comment"}], "summary": {"files_scanned": 1, "active": 1, "dead_suppressions": 1, "suppressed": 0}}
"#;
