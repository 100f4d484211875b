//! The grandfathered-findings baseline.
//!
//! The baseline is a checked-in text file (`lint-baseline.txt` at the
//! workspace root) holding one entry per accepted pre-existing finding:
//!
//! ```text
//! R3<TAB>crates/foo/src/bar.rs<TAB>normalized offending line
//! ```
//!
//! Matching is by `(rule, file, normalized snippet)` rather than line
//! number, so unrelated edits that shift lines do not invalidate the
//! baseline, while *changing* a grandfathered line forces a fresh look.
//! Duplicate identical lines in one file need one entry each (matching is
//! multiset-style).

use crate::diag::{Diagnostic, Rule};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One baseline entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Rule the grandfathered finding violates.
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// Whitespace-normalized offending line.
    pub snippet: String,
}

/// A parsed baseline with multiset matching.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: HashMap<BaselineEntry, usize>,
}

/// Collapses internal whitespace runs so formatting churn cannot break a
/// baseline match.
pub fn normalize(snippet: &str) -> String {
    snippet.split_whitespace().collect::<Vec<_>>().join(" ")
}

impl Baseline {
    /// Parses baseline text. Unknown rules and malformed lines are
    /// reported as errors — a typo must not silently un-baseline a site.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut counts: HashMap<BaselineEntry, usize> = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (Some(rule), Some(file), Some(snippet)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected `rule<TAB>file<TAB>snippet`",
                    i + 1
                ));
            };
            let Some(rule) = Rule::parse(rule) else {
                return Err(format!("baseline line {}: unknown rule `{rule}`", i + 1));
            };
            let entry = BaselineEntry {
                rule,
                file: file.trim().to_string(),
                snippet: normalize(snippet),
            };
            *counts.entry(entry).or_insert(0) += 1;
        }
        Ok(Self { counts })
    }

    /// Consumes one matching entry for `diag` if available.
    pub fn matches(&mut self, diag: &Diagnostic) -> bool {
        let key = BaselineEntry {
            rule: diag.rule,
            file: diag.file.clone(),
            snippet: normalize(&diag.snippet),
        };
        match self.counts.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Entries never consumed by a finding — stale sites that were fixed
    /// but not removed from the file.
    pub fn unused(&self) -> Vec<BaselineEntry> {
        let mut v: Vec<BaselineEntry> = self
            .counts
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(e, _)| e.clone())
            .collect();
        v.sort();
        v
    }
}

/// Serializes diagnostics as a fresh baseline file (`--write-baseline`).
pub fn render(diags: &[Diagnostic]) -> String {
    let mut entries: Vec<(String, String, String)> = diags
        .iter()
        .map(|d| (d.rule.id().to_string(), d.file.clone(), normalize(&d.snippet)))
        .collect();
    entries.sort();
    let mut out = String::from(
        "# adas-lint baseline — grandfathered findings, one per line:\n\
         # rule<TAB>file<TAB>normalized snippet\n\
         # Do not add entries for new code; fix it or use an inline\n\
         # `// adas-lint: allow(<rule>, reason = \"…\")` instead.\n",
    );
    for (rule, file, snippet) in entries {
        let _ = writeln!(out, "{rule}\t{file}\t{snippet}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn d(rule: Rule, file: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            file: file.into(),
            line: 1,
            snippet: snippet.into(),
            message: String::new(),
        }
    }

    #[test]
    fn roundtrip_and_multiset_matching() {
        let diags = vec![
            d(Rule::ActuatorContainment, "a.rs", "c.accel = a;"),
            d(Rule::ActuatorContainment, "a.rs", "c.accel = a;"),
        ];
        let text = render(&diags);
        let mut b = Baseline::parse(&text).unwrap();
        assert!(b.matches(&diags[0]));
        assert!(b.matches(&diags[1]));
        assert!(!b.matches(&diags[0]), "multiset exhausted");
        assert!(b.unused().is_empty());
    }

    #[test]
    fn whitespace_churn_still_matches() {
        let text = "R3\ta.rs\tc.accel   =  a;\n";
        let mut b = Baseline::parse(text).unwrap();
        assert!(b.matches(&d(Rule::ActuatorContainment, "a.rs", "c.accel = a;")));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        assert!(Baseline::parse("R99\ta.rs\tx\n").is_err());
        assert!(Baseline::parse("R2\ta.rs\tx.unwrap();\n").is_err(), "R2 is retired");
    }

    #[test]
    fn unused_entries_are_reported() {
        let b = Baseline::parse("R3\tgone.rs\tc.accel = a;\n").unwrap();
        assert_eq!(b.unused().len(), 1);
    }
}
