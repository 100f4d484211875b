//! The per-file rules: R1 as a lexical check over masked lines, plus the
//! local halves of R12 and R14.
//!
//! Every lexical rule receives lines that have already had comments and
//! string literals blanked out by the tokenizer, so the matching here can
//! stay simple without producing false positives from prose. The scoping
//! matrix (which crates / file kinds a rule applies to) lives in
//! [`crate::scope`].
//!
//! Rules here report *raw* findings: inline suppressions are applied by the
//! caller ([`crate::scan_workspace`] / [`crate::scan_source`]), which also
//! tracks which suppressions actually absorbed something — a dead
//! `allow(...)` is itself a finding.

use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::FileFacts;
use crate::scope::FileInfo;
use crate::tokenizer::SourceFile;

/// Runs every applicable per-file rule; returns raw findings with inline
/// suppressions NOT yet applied.
pub fn local_rules(info: &FileInfo, src: &SourceFile, facts: &FileFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if crate::scope::r1_applies(info) {
        r1_unit_safety(info, src, &mut out);
    }
    if crate::scope::concurrency_applies(info) {
        r12_expect_policy(info, src, facts, &mut out);
        r14_static_mut(info, src, &mut out);
    }
    out
}

/// One inline suppression site, as the workspace pass needs it.
#[derive(Debug)]
pub struct SuppressionSite {
    /// 1-based line the suppression applies to.
    pub line: usize,
    /// Covered rules; empty (with no `unknown` ids) means all.
    pub rules: Vec<Rule>,
    /// Named ids that are no rule; they cover nothing.
    pub unknown: Vec<String>,
}

impl SuppressionSite {
    /// Whether this site covers `rule`. A site that names no id at all
    /// covers every rule; an unknown id covers nothing.
    pub fn covers(&self, rule: Rule) -> bool {
        (self.rules.is_empty() && self.unknown.is_empty()) || self.rules.contains(&rule)
    }
}

/// The file's inline suppressions as sites, sorted by line.
pub fn suppression_sites(src: &SourceFile) -> Vec<SuppressionSite> {
    let mut sites: Vec<SuppressionSite> = src
        .suppressions
        .iter()
        .flat_map(|(&line, sups)| {
            sups.iter().map(move |s| SuppressionSite {
                line,
                rules: s.rules.clone(),
                unknown: s.unknown.clone(),
            })
        })
        .collect();
    sites.sort_by(|a, b| (a.line, &a.rules, &a.unknown).cmp(&(b.line, &b.rules, &b.unknown)));
    sites
}

fn diag(
    rule: Rule,
    info: &FileInfo,
    line_idx: usize,
    snippet: &str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: info.rel.clone(),
        line: line_idx + 1,
        snippet: snippet.trim().to_string(),
        message,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `hay` contains `needle` delimited by non-identifier characters.
fn has_token(hay: &str, needle: &str) -> bool {
    find_token(hay, needle).is_some()
}

/// Finds `needle` in `hay` at an identifier boundary.
fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

// ---------------------------------------------------------------- R1 ----

/// R1: scan `pub fn` signatures for raw `f64`/`f32` parameters or returns.
fn r1_unit_safety(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lines = &src.lines;
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.in_test || !is_pub_fn(&line.code) {
            i += 1;
            continue;
        }
        // Accumulate the signature until the body `{` or a trailing `;`.
        let mut sig = String::new();
        let mut end = i;
        for (j, l) in lines.iter().enumerate().skip(i).take(24) {
            let code = &l.code;
            let stop = code.find('{').map(|p| (p, true)).or_else(|| {
                // A `;` ends a trait-method declaration.
                code.rfind(';').map(|p| (p, false))
            });
            match stop {
                Some((p, _)) => {
                    sig.push_str(&code[..p]);
                    end = j;
                    break;
                }
                None => {
                    sig.push_str(code);
                    sig.push(' ');
                    end = j;
                }
            }
        }
        if has_token(&sig, "f64") || has_token(&sig, "f32") {
            out.push(diag(
                Rule::UnitSafety,
                info,
                i,
                &lines[i].raw,
                "public API passes a raw float; use a `units::` newtype (Speed, Distance, \
                 Angle, Accel, Seconds) or allow with a reason if genuinely dimensionless"
                    .to_string(),
            ));
        }
        i = end + 1;
    }
}

/// Whether the masked line starts a `pub fn` (not `pub(crate)`, which is
/// not public API).
fn is_pub_fn(code: &str) -> bool {
    let Some(pos) = find_token(code, "pub") else {
        return false;
    };
    let rest = code[pos + 3..].trim_start();
    if rest.starts_with('(') {
        return false; // pub(crate) / pub(super)
    }
    // Skip qualifiers between `pub` and `fn`.
    let mut rest = rest;
    for q in ["const", "async", "unsafe", "extern"] {
        if let Some(r) = rest.strip_prefix(q) {
            rest = r.trim_start();
        }
    }
    rest.starts_with("fn ") || rest == "fn"
}

// --------------------------------------------------- R12/R14 (local) ----

/// The marker a file's docs must carry for `.lock().expect(…)` to be
/// acceptable under R12: a paragraph starting `lock poisoning policy:`
/// explaining why dying on poison is the right failure mode here (or why
/// poison is unreachable). Files that instead recover via
/// `PoisonError::into_inner` never produce the finding in the first place.
pub const POISON_POLICY_MARKER: &str = "lock poisoning policy:";

/// R12 (local half): every `Mutex::lock` guard consumed by
/// `.expect(…)`/`.unwrap()` must be covered by a documented poisoning
/// policy in the same file. Without one, a panic in any other guard holder
/// turns every later lock attempt into a cascade of worker deaths.
fn r12_expect_policy(
    info: &FileInfo,
    src: &SourceFile,
    facts: &FileFacts,
    out: &mut Vec<Diagnostic>,
) {
    let documented = src
        .lines
        .iter()
        .any(|l| l.raw.contains(POISON_POLICY_MARKER));
    if documented {
        return;
    }
    for f in facts.fns.iter().filter(|f| !f.is_test) {
        for ev in &f.locks {
            if ev.op == crate::parser::LockOp::Acquire && ev.expect {
                let snippet = src
                    .lines
                    .get(ev.line.saturating_sub(1))
                    .map(|l| l.raw.trim().to_string())
                    .unwrap_or_default();
                out.push(diag(
                    Rule::LockDiscipline,
                    info,
                    ev.line.saturating_sub(1),
                    &snippet,
                    format!(
                        "`.lock()` guard on `{}` consumed by expect/unwrap with no \
                         documented poisoning policy; recover with \
                         `.unwrap_or_else(PoisonError::into_inner)` or document a \
                         `{POISON_POLICY_MARKER}` in this file",
                        ev.what
                    ),
                ));
            }
        }
    }
}

/// R14 (local half): `static mut` is shared mutable state with no
/// synchronization story at all — any access order is a data race the
/// compiler cannot see, and campaign results touching one are
/// scheduling-dependent by construction.
fn r14_static_mut(info: &FileInfo, src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(pos) = find_token(&line.code, "static") {
            if line.code[pos + "static".len()..]
                .trim_start()
                .starts_with("mut ")
            {
                out.push(diag(
                    Rule::SharedStateDeterminism,
                    info,
                    i,
                    &line.raw,
                    "`static mut` is unsynchronized shared mutable state; use an \
                     atomic, a `Mutex`, or thread-local state instead"
                        .into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_source;

    #[test]
    fn r1_flags_raw_f64_pub_fn() {
        let d = scan_source(
            "crates/openadas/src/x.rs",
            "pub fn set_speed(&mut self, speed: f64) {}\n",
        );
        assert!(d.iter().any(|d| d.rule == Rule::UnitSafety), "{d:?}");
    }

    #[test]
    fn r1_ignores_newtype_api_and_private_fn() {
        let d = scan_source(
            "crates/openadas/src/x.rs",
            "pub fn set_speed(&mut self, speed: Speed) {}\nfn helper(x: f64) {}\npub(crate) fn h2(x: f64) {}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::UnitSafety), "{d:?}");
    }

    #[test]
    fn suppression_silences_a_finding() {
        let d = scan_source(
            "crates/openadas/src/x.rs",
            "pub fn f(gain: f64) {} // adas-lint: allow(R1, reason = \"demo\")\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r12_expect_without_poisoning_policy_fires() {
        let d = scan_source(
            "crates/platform/src/pool.rs",
            "fn f(&self) { let g = self.state.lock().expect(\"pool lock\"); }\n",
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == Rule::LockDiscipline).count(),
            1,
            "{d:?}"
        );
        assert!(
            d[0].message.contains("poisoning policy"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn r12_documented_policy_or_recovery_is_silent() {
        // A `lock poisoning policy:` paragraph anywhere in the file covers
        // every expect-consumed guard in it.
        let d = scan_source(
            "crates/platform/src/pool.rs",
            "//! lock poisoning policy: workers never panic while holding these.\n\
             fn f(&self) { let g = self.state.lock().expect(\"pool lock\"); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
        // Recovery via `PoisonError::into_inner` never sets the expect flag.
        let d = scan_source(
            "crates/platform/src/pool.rs",
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
    }

    #[test]
    fn r12_is_scoped_to_concurrency_crates_and_skips_tests() {
        // The lint crate itself is outside the concurrency scope.
        let d = scan_source(
            "crates/lint/src/x.rs",
            "fn f(&self) { let g = self.state.lock().expect(\"x\"); }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
        let d = scan_source(
            "crates/platform/src/pool.rs",
            "#[cfg(test)]\nmod tests {\n  fn t(&self) { let g = self.state.lock().expect(\"x\"); }\n}\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::LockDiscipline), "{d:?}");
    }

    #[test]
    fn r14_static_mut_fires_outside_tests() {
        let d = scan_source("crates/platform/src/x.rs", "static mut COUNTER: u64 = 0;\n");
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == Rule::SharedStateDeterminism)
                .count(),
            1,
            "{d:?}"
        );
        // `static` without `mut` (and test code) stay silent.
        let d = scan_source(
            "crates/platform/src/x.rs",
            "static NAME: &str = \"pool\";\n#[cfg(test)]\nmod tests {\n  static mut T: u64 = 0;\n}\n",
        );
        assert!(
            d.iter().all(|d| d.rule != Rule::SharedStateDeterminism),
            "{d:?}"
        );
    }
}
