//! Per-file analysis cache under `target/adas-lint-cache`.
//!
//! Tokenizing + parsing dominates a scan, and both are pure functions of
//! one file's bytes — so each file's derived facts (raw local diagnostics,
//! suppression sites, function defs with their call/panic sites, enum
//! names) are cached keyed by an FNV-1a content hash. A warm run does no
//! parsing at all; the workspace-level rules (R6/R7) recompute from the
//! cached facts every time, which is graph traversal measured in
//! microseconds, not parsing.
//!
//! The format is a versioned, escaped, line-based text format written and
//! read with nothing but `std` — the lint keeps its zero-serde-dependency
//! property. Any read failure (missing file, version bump, hash mismatch,
//! corrupt line) falls back to recomputation; the cache can never change a
//! scan's *result*, only its wall-time.

use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::{Call, Callee, FnDef, LockEvent, LockOp, PanicSite};
use std::path::{Path, PathBuf};

/// Bumped whenever the cached shape or any rule logic that feeds it
/// changes; stale versions are recomputed, never migrated. (v2: doc
/// comments no longer parse as suppression sites. v3: entries are keyed by
/// [`scan_key`] — content hash mixed with the scan-configuration
/// fingerprint — so a cache written under one rule set is never served to
/// a scan running a different one. v4: fn entries carry macro and
/// lock-event facts for the concurrency/alloc layer, R12–R14. v5: the
/// campaignd crate joined the scan scope and the R7 root set — scope
/// tables are not part of the config fingerprint, so the version bump is
/// what invalidates verdicts computed under the old scope. v6: R2, R4, R5
/// and R8 moved to clippy, and suppression sites carry the ids they name
/// that are no rule.)
pub const FORMAT_VERSION: u32 = 6;

/// Flattened R12–R14 rule tables, folded into the config fingerprint:
/// editing a lock-boundary, merge-sink, or allocating-API table must
/// invalidate the warm cache exactly as toggling a rule does, or a table
/// edit would be served stale verdicts until the next unrelated content
/// change.
fn concurrency_tables() -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.extend(crate::locks::BOUNDARY_FNS.iter().map(|s| s.to_string()));
    parts.extend(crate::locks::MERGE_SINKS.iter().map(|s| s.to_string()));
    parts.extend(crate::allocpath::R13_ROOTS.iter().map(|s| s.to_string()));
    parts.extend(crate::allocpath::ALLOC_METHODS.iter().map(|s| s.to_string()));
    parts.extend(
        crate::allocpath::ALLOC_PATHS
            .iter()
            .map(|(t, m)| format!("{t}::{m}")),
    );
    parts.extend(crate::allocpath::ALLOC_MACROS.iter().map(|s| s.to_string()));
    parts.extend(crate::allocpath::AMORTIZED_FNS.iter().map(|s| s.to_string()));
    parts.join("|")
}

/// Fingerprint of everything *besides* file content that determines a
/// per-file analysis: the cache format version, the active rule set, and
/// the R12–R14 rule tables. Rule ids are sorted and deduplicated so
/// spelling order on the command line cannot split the cache.
pub fn config_fingerprint(rules: &[Rule]) -> u64 {
    let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    content_hash(format!("v{FORMAT_VERSION};{};{}", ids.join(","), concurrency_tables()).as_bytes())
}

/// The key a cache entry is stored and looked up under. Mixing (rather
/// than, say, XOR-ing) via SplitMix64 avalanches both inputs, so a content
/// edit and a compensating config change cannot collide.
pub fn scan_key(content: u64, config: u64) -> u64 {
    platform::experiment::mix_seed(content, &[config])
}

/// One inline suppression site, as the workspace pass needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SuppressionSite {
    /// 1-based line the suppression applies to.
    pub line: usize,
    /// Covered rules; empty (with no `unknown` ids) means all.
    pub rules: Vec<Rule>,
    /// Named ids that are no rule; they cover nothing.
    pub unknown: Vec<String>,
}

impl SuppressionSite {
    /// Whether this site covers `rule`.
    pub fn covers(&self, rule: Rule) -> bool {
        crate::tokenizer::allow_covers(&self.rules, &self.unknown, rule)
    }
}

/// Everything the workspace pass needs from one file — the unit of
/// caching.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Raw local findings (R1, R3 and the local halves of R12/R14), before
    /// suppression filtering.
    pub raw_diags: Vec<Diagnostic>,
    /// Inline suppression sites.
    pub suppressions: Vec<SuppressionSite>,
    /// Function definitions with call/panic/macro/lock facts (`fields`
    /// dropped — nothing downstream needs them; macros and lock events
    /// survive because the workspace concurrency layer consumes them).
    pub fns: Vec<FnDef>,
    /// Enum names declared in the file.
    pub enums: Vec<String>,
}

/// 64-bit FNV-1a over the file bytes.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache file path for a workspace-relative source path.
pub fn entry_path(cache_dir: &Path, rel: &str) -> PathBuf {
    cache_dir.join(format!("{}.facts", rel.replace('/', "__")))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Serializes one file's analysis.
pub fn serialize(rel: &str, hash: u64, a: &FileAnalysis) -> String {
    let mut out = String::new();
    out.push_str(&format!("adas-lint-cache {FORMAT_VERSION}\n"));
    out.push_str(&format!("file\t{}\n", esc(rel)));
    out.push_str(&format!("hash\t{hash:016x}\n"));
    for d in &a.raw_diags {
        out.push_str(&format!(
            "diag\t{}\t{}\t{}\t{}\t{}\t{}\n",
            d.rule.id(),
            d.severity.label(),
            d.line,
            esc(&d.snippet),
            esc(&d.message),
            esc(&d.file),
        ));
    }
    for s in &a.suppressions {
        let rules = if s.rules.is_empty() {
            "*".to_string()
        } else {
            s.rules.iter().map(|r| r.id()).collect::<Vec<_>>().join(",")
        };
        let unknown = if s.unknown.is_empty() {
            "-".to_string()
        } else {
            s.unknown.iter().map(|u| esc(u)).collect::<Vec<_>>().join(",")
        };
        out.push_str(&format!("supp\t{}\t{rules}\t{unknown}\n", s.line));
    }
    for f in &a.fns {
        out.push_str(&format!(
            "fn\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            esc(&f.name),
            esc(&f.qual),
            f.impl_type.as_deref().map_or("-".to_string(), esc),
            u8::from(f.is_pub),
            u8::from(f.is_test),
            f.line,
            esc(&f.ret),
        ));
        for c in &f.calls {
            let (kind, prefix, name) = match &c.callee {
                Callee::Free(n) => ("F", "-".to_string(), n.clone()),
                Callee::Method(n) => ("M", "-".to_string(), n.clone()),
                Callee::Path(p, n) => ("P", p.clone(), n.clone()),
            };
            out.push_str(&format!(
                "call\t{}\t{kind}\t{}\t{}\n",
                c.line,
                esc(&prefix),
                esc(&name)
            ));
        }
        for p in &f.panics {
            out.push_str(&format!("panic\t{}\t{}\n", p.line, esc(&p.what)));
        }
        for (line, name) in &f.macros {
            out.push_str(&format!("macro\t{line}\t{}\n", esc(name)));
        }
        for l in &f.locks {
            let op = match l.op {
                LockOp::Acquire => "A",
                LockOp::CondWait => "W",
                LockOp::GuardedCall => "C",
            };
            // Held names are identifiers, so a comma-joined list is
            // unambiguous; `-` marks the empty set.
            let held = if l.held.is_empty() {
                "-".to_string()
            } else {
                l.held.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
            };
            let flags = u8::from(l.expect) | (u8::from(l.in_loop) << 1) | (u8::from(l.method) << 2);
            out.push_str(&format!(
                "lockev\t{}\t{op}\t{}\t{held}\t{flags}\n",
                l.line,
                esc(&l.what)
            ));
        }
    }
    for e in &a.enums {
        out.push_str(&format!("enum\t{}\n", esc(e)));
    }
    out
}

/// Deserializes a cache entry, validating version, path, and hash.
/// Returns `None` on any mismatch or parse problem.
pub fn deserialize(text: &str, rel: &str, hash: u64) -> Option<FileAnalysis> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("adas-lint-cache {FORMAT_VERSION}") {
        return None;
    }
    let file_line = lines.next()?;
    if file_line.strip_prefix("file\t").map(unesc)? != rel {
        return None;
    }
    let hash_line = lines.next()?;
    let stored = u64::from_str_radix(hash_line.strip_prefix("hash\t")?, 16).ok()?;
    if stored != hash {
        return None;
    }

    let mut a = FileAnalysis::default();
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next()? {
            "diag" => {
                let rule = Rule::parse(parts.next()?)?;
                let severity = match parts.next()? {
                    "error" => Severity::Error,
                    "warning" => Severity::Warning,
                    _ => return None,
                };
                let line_no: usize = parts.next()?.parse().ok()?;
                let snippet = unesc(parts.next()?);
                let message = unesc(parts.next()?);
                let file = unesc(parts.next()?);
                a.raw_diags.push(Diagnostic {
                    rule,
                    severity,
                    file,
                    line: line_no,
                    snippet,
                    message,
                });
            }
            "supp" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let spec = parts.next()?;
                let rules = if spec == "*" {
                    Vec::new()
                } else {
                    spec.split(',').map(Rule::parse).collect::<Option<Vec<_>>>()?
                };
                let unknown = match parts.next()? {
                    "-" => Vec::new(),
                    ids => ids.split(',').map(unesc).collect(),
                };
                a.suppressions.push(SuppressionSite {
                    line: line_no,
                    rules,
                    unknown,
                });
            }
            "fn" => {
                let name = unesc(parts.next()?);
                let qual = unesc(parts.next()?);
                let impl_type = match parts.next()? {
                    "-" => None,
                    t => Some(unesc(t)),
                };
                let is_pub = parts.next()? == "1";
                let is_test = parts.next()? == "1";
                let line_no: usize = parts.next()?.parse().ok()?;
                let ret = unesc(parts.next()?);
                a.fns.push(FnDef {
                    name,
                    qual,
                    impl_type,
                    is_pub,
                    is_test,
                    line: line_no,
                    ret,
                    calls: Vec::new(),
                    panics: Vec::new(),
                    fields: Vec::new(),
                    macros: Vec::new(),
                    locks: Vec::new(),
                });
            }
            "call" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let kind = parts.next()?;
                let prefix = unesc(parts.next()?);
                let name = unesc(parts.next()?);
                let callee = match kind {
                    "F" => Callee::Free(name),
                    "M" => Callee::Method(name),
                    "P" => Callee::Path(prefix, name),
                    _ => return None,
                };
                a.fns.last_mut()?.calls.push(Call {
                    line: line_no,
                    callee,
                });
            }
            "panic" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let what = unesc(parts.next()?);
                a.fns.last_mut()?.panics.push(PanicSite {
                    line: line_no,
                    what,
                });
            }
            "macro" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let name = unesc(parts.next()?);
                a.fns.last_mut()?.macros.push((line_no, name));
            }
            "lockev" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let op = match parts.next()? {
                    "A" => LockOp::Acquire,
                    "W" => LockOp::CondWait,
                    "C" => LockOp::GuardedCall,
                    _ => return None,
                };
                let what = unesc(parts.next()?);
                let held_spec = parts.next()?;
                let held = if held_spec == "-" {
                    Vec::new()
                } else {
                    held_spec.split(',').map(unesc).collect()
                };
                let flags: u8 = parts.next()?.parse().ok()?;
                a.fns.last_mut()?.locks.push(LockEvent {
                    line: line_no,
                    op,
                    what,
                    held,
                    expect: flags & 1 != 0,
                    in_loop: flags & 2 != 0,
                    method: flags & 4 != 0,
                });
            }
            "enum" => {
                a.enums.push(unesc(parts.next()?));
            }
            _ => return None,
        }
    }
    Some(a)
}

/// Loads the cached analysis for `rel` if its stored hash matches `hash`.
pub fn load(cache_dir: &Path, rel: &str, hash: u64) -> Option<FileAnalysis> {
    let text = std::fs::read_to_string(entry_path(cache_dir, rel)).ok()?;
    deserialize(&text, rel, hash)
}

/// Stores the analysis; failures are silently ignored (the cache is an
/// optimization, never a requirement).
pub fn store(cache_dir: &Path, rel: &str, hash: u64, a: &FileAnalysis) {
    if std::fs::create_dir_all(cache_dir).is_err() {
        return;
    }
    let _ = std::fs::write(entry_path(cache_dir, rel), serialize(rel, hash, a));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileAnalysis {
        FileAnalysis {
            raw_diags: vec![Diagnostic {
                rule: Rule::ActuatorContainment,
                severity: Severity::Error,
                file: "crates/a/src/lib.rs".into(),
                line: 3,
                snippet: "c.accel = a;\twith tab".into(),
                message: "writes\nbadly".into(),
            }],
            suppressions: vec![
                SuppressionSite {
                    line: 7,
                    rules: vec![Rule::UnitSafety, Rule::ActuatorContainment],
                    unknown: vec!["R4".into()],
                },
                SuppressionSite {
                    line: 8,
                    rules: Vec::new(),
                    unknown: vec!["R2".into(), "typo\twith tab".into()],
                },
                SuppressionSite {
                    line: 9,
                    rules: Vec::new(),
                    unknown: Vec::new(),
                },
            ],
            fns: vec![FnDef {
                name: "step".into(),
                qual: "Harness::step".into(),
                impl_type: Some("Harness".into()),
                is_pub: true,
                is_test: false,
                line: 10,
                ret: "Result < ( ) , E >".into(),
                calls: vec![
                    Call {
                        line: 11,
                        callee: Callee::Method("observe".into()),
                    },
                    Call {
                        line: 12,
                        callee: Callee::Path("canbus".into(), "rewrite_signal".into()),
                    },
                ],
                panics: vec![PanicSite {
                    line: 13,
                    what: ".expect()".into(),
                }],
                fields: Vec::new(),
                macros: vec![(14, "format".into())],
                locks: vec![
                    LockEvent {
                        line: 15,
                        op: LockOp::Acquire,
                        what: "queues".into(),
                        held: Vec::new(),
                        expect: true,
                        in_loop: false,
                        method: true,
                    },
                    LockEvent {
                        line: 16,
                        op: LockOp::GuardedCall,
                        what: "steal".into(),
                        held: vec!["queues".into(), "state".into()],
                        expect: false,
                        in_loop: false,
                        method: true,
                    },
                    LockEvent {
                        line: 17,
                        op: LockOp::CondWait,
                        what: "done_cv".into(),
                        held: vec!["done".into()],
                        expect: false,
                        in_loop: true,
                        method: true,
                    },
                ],
            }],
            enums: vec!["AttackType".into()],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample();
        let text = serialize("crates/a/src/lib.rs", 0xdead_beef, &a);
        let b = deserialize(&text, "crates/a/src/lib.rs", 0xdead_beef).expect("roundtrip");
        assert_eq!(b.raw_diags.len(), 1);
        assert_eq!(b.raw_diags[0].snippet, "c.accel = a;\twith tab");
        assert_eq!(b.raw_diags[0].message, "writes\nbadly");
        assert_eq!(b.suppressions, a.suppressions);
        assert_eq!(b.fns.len(), 1);
        assert_eq!(b.fns[0].qual, "Harness::step");
        assert_eq!(b.fns[0].calls.len(), 2);
        assert_eq!(b.fns[0].panics[0].what, ".expect()");
        assert_eq!(b.fns[0].macros, vec![(14, "format".to_string())]);
        assert_eq!(b.fns[0].locks.len(), 3);
        assert_eq!(b.fns[0].locks[0].op, LockOp::Acquire);
        assert!(b.fns[0].locks[0].expect);
        assert_eq!(
            b.fns[0].locks[1].held,
            vec!["queues".to_string(), "state".to_string()]
        );
        assert_eq!(b.fns[0].locks[2].op, LockOp::CondWait);
        assert!(b.fns[0].locks[2].in_loop);
        assert_eq!(b.enums, vec!["AttackType".to_string()]);
    }

    #[test]
    fn mismatched_hash_or_version_rejected() {
        let a = sample();
        let text = serialize("crates/a/src/lib.rs", 1, &a);
        assert!(deserialize(&text, "crates/a/src/lib.rs", 2).is_none());
        assert!(deserialize(&text, "crates/b/src/lib.rs", 1).is_none());
        let bumped = text.replace(
            &format!("adas-lint-cache {FORMAT_VERSION}"),
            "adas-lint-cache 0",
        );
        assert!(deserialize(&bumped, "crates/a/src/lib.rs", 1).is_none());
    }

    #[test]
    fn corrupt_entry_rejected() {
        let a = sample();
        let mut text = serialize("crates/a/src/lib.rs", 1, &a);
        text.push_str("garbage line without a known tag\n");
        assert!(deserialize(&text, "crates/a/src/lib.rs", 1).is_none());
    }

    #[test]
    fn config_fingerprint_is_order_insensitive_but_set_sensitive() {
        let all = crate::diag::ALL_RULES.to_vec();
        let mut reversed = all.clone();
        reversed.reverse();
        assert_eq!(config_fingerprint(&all), config_fingerprint(&reversed));
        let subset = vec![Rule::UnitSafety, Rule::ActuatorContainment];
        assert_ne!(config_fingerprint(&all), config_fingerprint(&subset));
    }

    #[test]
    fn scan_key_separates_configs_for_same_content() {
        let content = content_hash(b"fn f() {}");
        let a = scan_key(content, config_fingerprint(&crate::diag::ALL_RULES));
        let b = scan_key(content, config_fingerprint(&[Rule::UnitSafety]));
        assert_ne!(a, b);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so a refactor cannot silently change hashing (which would
        // invalidate every cache entry without a version bump).
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
