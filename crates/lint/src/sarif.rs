//! SARIF 2.1.0 emitter (and an offline structural validator).
//!
//! CI wants findings in a machine-ingestible interchange format so they
//! show up as code-scanning annotations; SARIF 2.1.0 is the lingua franca.
//! The emitter writes the minimal valid document through
//! [`platform::json`] — one run, the full rule catalog in
//! `tool.driver.rules`, one `result` per diagnostic with a
//! `physicalLocation`, each rule and each result on a line of its own.
//!
//! [`validate`] is a self-check: the workspace's one JSON reader plus
//! assertions over the subset of the 2.1.0 schema the emitter uses
//! (required properties, level vocabulary, rule-id cross-references,
//! 1-based line numbers). It runs in tests and behind `--format sarif` so
//! an emitter regression fails the lint itself rather than surfacing as a
//! cryptic upload error in CI.

use crate::diag::{Diagnostic, Severity, ALL_RULES};
use platform::json::{self, Json, Layout};

/// SARIF schema the document declares.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders all diagnostics as one SARIF 2.1.0 document.
pub fn emit(diags: &[Diagnostic]) -> String {
    let mut doc = json::object(Layout::Indented, |o| {
        o.field("$schema", SCHEMA_URI).field("version", "2.1.0");
        o.key("runs").array(Layout::Indented, |runs| {
            runs.object(Layout::Indented, |run| {
                run.key("tool").object(Layout::Indented, |tool| {
                    tool.key("driver").object(Layout::Indented, |driver| {
                        driver
                            .field("name", "adas-lint")
                            .field("informationUri", "https://github.com/adas-attack-repro");
                        driver.key("rules").array(Layout::Indented, |rules| {
                            for rule in ALL_RULES {
                                rules.object(Layout::Line, |r| {
                                    r.field("id", rule.id()).field("name", rule.name());
                                    r.key("shortDescription").object(Layout::Line, |d| {
                                        d.field("text", rule.summary());
                                    });
                                });
                            }
                        });
                    });
                });
                run.key("results").array(Layout::Indented, |results| {
                    for d in diags {
                        results.object(Layout::Line, |r| write_result(r, d));
                    }
                });
            });
        });
    });
    doc.push('\n');
    doc
}

fn write_result(r: &mut json::Writer<'_>, d: &Diagnostic) {
    let level = match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    r.field("ruleId", d.rule.id())
        .field(
            "ruleIndex",
            ALL_RULES.iter().position(|&rule| rule == d.rule),
        )
        .field("level", level);
    r.key("message").object(Layout::Line, |m| {
        m.field("text", &d.message);
    });
    r.key("locations").array(Layout::Line, |locations| {
        locations.object(Layout::Line, |location| {
            location.key("physicalLocation").object(Layout::Line, |p| {
                p.key("artifactLocation").object(Layout::Line, |a| {
                    a.field("uri", &d.file);
                });
                p.key("region").object(Layout::Line, |region| {
                    region.field("startLine", d.line.max(1));
                });
            });
        });
    });
}

/// Validates a SARIF document against the subset of the 2.1.0 schema the
/// emitter uses. Returns the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text.as_bytes())?;
    if str_at(&doc, &["version"])? != "2.1.0" {
        return Err("version must be \"2.1.0\"".to_string());
    }
    str_at(&doc, &["$schema"])?;
    let runs = array_at(&doc, &["runs"])?;
    if runs.is_empty() {
        return Err("runs must be non-empty".to_string());
    }
    for run in runs {
        str_at(run, &["tool", "driver", "name"])?;
        let mut rule_ids = Vec::new();
        for rule in array_at(run, &["tool", "driver", "rules"])? {
            let id = str_at(rule, &["id"])?;
            str_at(rule, &["shortDescription", "text"]).map_err(|e| format!("rule {id}: {e}"))?;
            rule_ids.push(id);
        }
        for (i, result) in array_at(run, &["results"])?.iter().enumerate() {
            let context = |e: String| format!("result {i}: {e}");
            let rule_id = str_at(result, &["ruleId"]).map_err(context)?;
            if !rule_ids.contains(&rule_id) {
                return Err(context(format!("ruleId {rule_id} not in rule catalog")));
            }
            let level = str_at(result, &["level"]).map_err(context)?;
            if !matches!(level, "error" | "warning" | "note" | "none") {
                return Err(context(format!("invalid level {level}")));
            }
            str_at(result, &["message", "text"]).map_err(context)?;
            for location in array_at(result, &["locations"]).map_err(context)? {
                let physical = ["physicalLocation", "artifactLocation", "uri"];
                str_at(location, &physical).map_err(context)?;
                let line = ["physicalLocation", "region", "startLine"];
                if !matches!(location.at(&line), Some(Json::UInt(1..))) {
                    return Err(context("region.startLine must be an integer >= 1".into()));
                }
            }
        }
    }
    Ok(())
}

/// The string at `path` in `v`, or an error naming the path.
fn str_at<'a>(v: &'a Json, path: &[&str]) -> Result<&'a str, String> {
    let found = v.at(path).and_then(Json::as_str);
    found.ok_or_else(|| format!("{} must be a string", path.join(".")))
}

/// The array at `path` in `v`, or an error naming the path.
fn array_at<'a>(v: &'a Json, path: &[&str]) -> Result<&'a [Json], String> {
    let found = v.at(path).and_then(Json::as_array);
    found.ok_or_else(|| format!("{} must be an array", path.join(".")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;

    fn sample_diags() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: Rule::TaintFlow,
                severity: Severity::Error,
                file: "crates/core/src/engine.rs".into(),
                line: 42,
                snippet: "fn emit".into(),
                message: "flow chain: a → b \"quoted\"\nsecond line".into(),
            },
            Diagnostic {
                rule: Rule::UnitSafety,
                severity: Severity::Warning,
                file: "crates/openadas/src/adas.rs".into(),
                line: 7,
                snippet: "pub fn x(v: f64)".into(),
                message: "bare f64".into(),
            },
        ]
    }

    #[test]
    fn emitted_document_validates() {
        let doc = emit(&sample_diags());
        validate(&doc).expect("emitted SARIF should satisfy the 2.1.0 subset");
    }

    #[test]
    fn empty_result_set_validates() {
        validate(&emit(&[])).expect("empty SARIF should validate");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let doc = emit(&sample_diags());
        assert!(validate(&doc.replace("\"2.1.0\"", "\"9.9\"")).is_err());
        assert!(validate(&doc.replace("startLine", "startLjne")).is_err());
        assert!(validate(&doc.replace("\"ruleId\": \"R6\"", "\"ruleId\": \"nope\"")).is_err());
    }

    #[test]
    fn escapes_survive_roundtrip() {
        let doc = emit(&sample_diags());
        let parsed = json::parse(doc.as_bytes()).unwrap();
        let msg = parsed
            .get("runs")
            .and_then(Json::as_array)
            .and_then(|r| r.first()?.get("results"))
            .and_then(Json::as_array)
            .and_then(|r| r.first()?.get("message"))
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str);
        assert_eq!(msg, Some("flow chain: a → b \"quoted\"\nsecond line"));
    }
}
