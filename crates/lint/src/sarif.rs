//! SARIF 2.1.0 emitter (and an offline structural validator).
//!
//! CI wants findings in a machine-ingestible interchange format so they
//! show up as code-scanning annotations; SARIF 2.1.0 is the lingua franca.
//! The emitter writes the minimal valid document by hand — one run, the
//! full rule catalog in `tool.driver.rules`, one `result` per
//! diagnostic with a `physicalLocation` — because the workspace has no
//! JSON serializer and vendoring one for this would be absurd.
//!
//! [`validate`] is a self-check: a ~hundred-line JSON parser plus
//! assertions over the subset of the 2.1.0 schema the emitter uses
//! (required properties, level vocabulary, rule-id cross-references,
//! 1-based line numbers). It runs in tests and behind `--format sarif` so
//! an emitter regression fails the lint itself rather than surfacing as a
//! cryptic upload error in CI.

use crate::diag::{json_escape, Diagnostic, Severity, ALL_RULES};
use std::collections::BTreeMap;

/// SARIF schema the document declares.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders all diagnostics as one SARIF 2.1.0 document.
pub fn emit(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096 + diags.len() * 256);
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": \"{SCHEMA_URI}\",\n"));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"adas-lint\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/adas-attack-repro\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        out.push_str("            {\n");
        out.push_str(&format!("              \"id\": \"{}\",\n", rule.id()));
        out.push_str(&format!("              \"name\": \"{}\",\n", rule.name()));
        out.push_str(&format!(
            "              \"shortDescription\": {{ \"text\": \"{}\" }}\n",
            json_escape(rule.summary())
        ));
        out.push_str(if i + 1 < ALL_RULES.len() {
            "            },\n"
        } else {
            "            }\n"
        });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let rule_index: BTreeMap<&str, usize> = ALL_RULES
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id(), i))
        .collect();
    for (i, d) in diags.iter().enumerate() {
        let level = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", d.rule.id()));
        out.push_str(&format!(
            "          \"ruleIndex\": {},\n",
            rule_index[d.rule.id()]
        ));
        out.push_str(&format!("          \"level\": \"{level}\",\n"));
        out.push_str(&format!(
            "          \"message\": {{ \"text\": \"{}\" }},\n",
            json_escape(&d.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": \"{}\" }},\n",
            json_escape(&d.file)
        ));
        out.push_str(&format!(
            "                \"region\": {{ \"startLine\": {} }}\n",
            d.line.max(1)
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str(if i + 1 < diags.len() {
            "        },\n"
        } else {
            "        }\n"
        });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// A parsed JSON value — just enough to validate what [`emit`] produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document (strict enough for validation purposes).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let v = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('b') => s.push('\u{8}'),
                            Some('f') => s.push('\u{c}'),
                            Some('u') => {
                                let hex: String =
                                    b.get(*pos + 1..*pos + 5).unwrap_or(&[]).iter().collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape: {hex}"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape: {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(c) => {
                        s.push(*c);
                        *pos += 1;
                    }
                }
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while b
                .get(*pos)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number: {text}"))
        }
        Some('t') if matches(b, *pos, "true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if matches(b, *pos, "false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if matches(b, *pos, "null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) => Err(format!("unexpected character {c:?} at offset {pos}")),
    }
}

fn matches(b: &[char], pos: usize, word: &str) -> bool {
    b.get(pos..pos + word.len())
        .is_some_and(|s| s.iter().collect::<String>() == word)
}

/// Validates a SARIF document against the subset of the 2.1.0 schema the
/// emitter uses. Returns the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version must be \"2.1.0\"".to_string());
    }
    if doc.get("$schema").and_then(Json::as_str).is_none() {
        return Err("$schema missing".to_string());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs must be non-empty".to_string());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("run.tool.driver missing")?;
        if driver.get("name").and_then(Json::as_str).is_none() {
            return Err("tool.driver.name missing".to_string());
        }
        let rules = driver
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("tool.driver.rules must be an array")?;
        let mut rule_ids: Vec<&str> = Vec::new();
        for rule in rules {
            let id = rule
                .get("id")
                .and_then(Json::as_str)
                .ok_or("rule.id missing")?;
            rule_ids.push(id);
            if rule
                .get("shortDescription")
                .and_then(|d| d.get("text"))
                .and_then(Json::as_str)
                .is_none()
            {
                return Err(format!("rule {id}: shortDescription.text missing"));
            }
        }
        let results = run
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("run.results must be an array")?;
        for (i, result) in results.iter().enumerate() {
            let rule_id = result
                .get("ruleId")
                .and_then(Json::as_str)
                .ok_or(format!("result {i}: ruleId missing"))?;
            if !rule_ids.contains(&rule_id) {
                return Err(format!("result {i}: ruleId {rule_id} not in rule catalog"));
            }
            let level = result
                .get("level")
                .and_then(Json::as_str)
                .ok_or(format!("result {i}: level missing"))?;
            if !matches!(level, "error" | "warning" | "note" | "none") {
                return Err(format!("result {i}: invalid level {level}"));
            }
            if result
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none()
            {
                return Err(format!("result {i}: message.text missing"));
            }
            let locations = result
                .get("locations")
                .and_then(Json::as_arr)
                .ok_or(format!("result {i}: locations missing"))?;
            for loc in locations {
                let phys = loc
                    .get("physicalLocation")
                    .ok_or(format!("result {i}: physicalLocation missing"))?;
                if phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str)
                    .is_none()
                {
                    return Err(format!("result {i}: artifactLocation.uri missing"));
                }
                let line = phys
                    .get("region")
                    .and_then(|r| r.get("startLine"))
                    .and_then(Json::as_num)
                    .ok_or(format!("result {i}: region.startLine missing"))?;
                if line < 1.0 {
                    return Err(format!("result {i}: startLine must be >= 1"));
                }
            }
        }
    }
    Ok(())
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
        let parsed = parse_json(&doc).unwrap();
        let msg = parsed
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|r| r[0].get("results"))
            .and_then(Json::as_arr)
            .and_then(|r| r[0].get("message"))
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(msg, "flow chain: a → b \"quoted\"\nsecond line");
    }
}
