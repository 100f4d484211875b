//! `adas-lint` — workspace-native safety-invariant static analysis.
//!
//! The paper this workspace reproduces (Zhou et al., DSN 2022) shows that
//! ADAS attacks succeed precisely by keeping corrupted values *inside* the
//! safety-check envelope, so the reproduction's own safety layer, unit
//! handling, and determinism guarantees are machine-checked rather than
//! convention-checked. Four rules run over every workspace `.rs` file:
//!
//! | Rule | Name                  | Invariant                                            |
//! |------|-----------------------|------------------------------------------------------|
//! | R1   | `unit-safety`         | public APIs use `units::` newtypes, not raw `f64`    |
//! | R12  | `lock-discipline`     | acyclic lock order, no guards across the fan-out,    |
//! |      |                       | condvar waits in predicate loops, poisoning policy   |
//! | R13  | `alloc-freedom`       | steady-state tick roots reach no allocating std API  |
//! | R14  | `shared-state-determinism` | no `static mut`, no env-latching `OnceLock`,    |
//! |      |                       | campaign merges by index, never completion order     |
//!
//! The IDs R2, R4, R5, R7 and R8 are retired. Clippy checks those
//! invariants (panic-freedom, float equality, wall-clock reads, wildcard
//! enum arms) from the lint configuration in the workspace `Cargo.toml`,
//! `clippy.toml` and a `#![deny(…)]` block in the `lib.rs` of every crate
//! the tick and the daemon reach, which is what R7's transitive
//! panic-freedom asked for. R3, R6 and R9–R11 are retired too: the
//! compiler proves the actuator envelope on both sides of the bus. The
//! encoder takes only an `openadas::Enveloped` command, whose constructor
//! rejects NaN and anything outside the physical limits; an
//! `attack_core::AttackValues` is clamped into the software envelope by
//! its constructor and read only by `Injector::apply`, its fields being
//! private; and neither `openadas` nor `attack-core` lists the other in
//! its manifest. The orderings between limits are `const` assertions in
//! `units::limits`.
//!
//! The analysis is layered: the **lexical** layer (R1) runs over masked
//! lines; the **concurrency/alloc** layer (R12–R14) builds a lock-order
//! graph and a may-allocate closure over a parsed symbol table and
//! cross-file call graph ([`parser`], [`symbols`], [`callgraph`],
//! [`locks`], [`allocpath`]). Every scan runs the whole pipeline,
//! uncached: per-file work fans out across cores, then the cross-file
//! layer runs over the merged facts. [`scan_workspace`] and
//! [`scan_sources`] share it.
//!
//! A finding is acknowledged one way: an inline
//! `// adas-lint: allow(<rule>, reason = "…")` comment at a site that is
//! correct by construction. The comments are themselves checked: one that
//! absorbs nothing, and one naming an id that is no rule, each fail the
//! gate. The `tests/lint_clean.rs` integration test runs the scan under
//! `cargo test`.

#![forbid(unsafe_code)]

pub mod allocpath;
pub mod callgraph;
pub mod diag;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod scope;
pub mod symbols;
pub mod tokenizer;

pub use diag::{Diagnostic, Rule, Severity, ALL_RULES};
pub use scope::{classify, FileInfo, FileKind};

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, vendored dep shims (not our
/// code), VCS internals, and the lint's own deliberately-violating test
/// fixtures.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", ".github", "fixtures"];

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Error findings that survived inline suppressions.
    pub active: Vec<Diagnostic>,
    /// Findings absorbed by inline `allow` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Inline suppressions that absorbed nothing (dead), as warnings.
    pub dead_suppressions: Vec<Diagnostic>,
    /// GraphViz rendering of the R12 lock-order graph.
    pub lock_order_dot: String,
}

impl ScanReport {
    /// Whether the scan should gate the build: any active finding or dead
    /// suppression fails.
    pub fn is_clean(&self) -> bool {
        self.active.is_empty() && self.dead_suppressions.is_empty()
    }
}

/// One file after the per-file step every scan shares.
struct FileScan {
    info: FileInfo,
    facts: parser::FileFacts,
    /// Per-file findings (R1 and the local halves of R12/R14), before
    /// suppressions are applied.
    local: Vec<Diagnostic>,
    sites: Vec<rules::SuppressionSite>,
}

/// The per-file step: tokenize, parse, run the per-file rules and collect
/// the suppression sites.
fn scan_file(rel: &str, text: &str) -> FileScan {
    let info = classify(rel);
    let src = tokenizer::tokenize(text);
    let facts = parser::parse(&src);
    let local = rules::local_rules(&info, &src, &facts);
    let sites = rules::suppression_sites(&src);
    FileScan {
        info,
        facts,
        local,
        sites,
    }
}

/// Scans one source text as if it lived at `rel_path`. Per-file rules only
/// (R1 and the local halves of R12/R14); inline suppressions are
/// honored. This is the entry point single-file tests use to prove rules
/// fire.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let file = scan_file(rel_path, source);
    let mut out = file.local;
    out.retain(|d| {
        !file
            .sites
            .iter()
            .any(|s| s.line == d.line && s.covers(d.rule))
    });
    out.extend(unknown_rule_findings(&file.info.rel, &file.sites));
    out
}

/// The rule a finding about a suppression comment is filed under: the
/// first rule the comment names, or R1, first in report order, for a
/// comment that names none.
fn filed_under(site: &rules::SuppressionSite) -> Rule {
    site.rules.first().copied().unwrap_or(ALL_RULES[0])
}

/// One active error per id a suppression names that is no rule (retired
/// or misspelled). Such an id covers nothing, and the finding itself is
/// never suppressible, so a stale id can neither widen an allow into a
/// blanket one nor hide behind it.
fn unknown_rule_findings(file: &str, sites: &[rules::SuppressionSite]) -> Vec<Diagnostic> {
    sites
        .iter()
        .flat_map(|site| {
            site.unknown.iter().map(move |id| Diagnostic {
                rule: filed_under(site),
                severity: Severity::Error,
                file: file.to_string(),
                line: site.line,
                snippet: format!("adas-lint: allow({id})"),
                message: format!(
                    "suppression names `{id}`, which is no adas-lint rule, so it \
                     suppresses nothing; name a rule from --list-rules or remove it \
                     (R2, R4, R5, R7 and R8 are clippy lints now: use `#[allow(clippy::…)]`; \
                     R3, R6 and R9–R11 are compiler checks now: the encoder takes only an \
                     `openadas::Enveloped` command, `attack_core::AttackValues` keeps its \
                     clamped fields private to the injector, `openadas` and `attack-core` \
                     cannot call each other, and the limit orderings are `const` \
                     assertions in `units::limits`)"
                ),
            })
        })
        .collect()
}

/// Scans an in-memory multi-file set through the same pipeline as
/// [`scan_workspace`], with the permissive crate closure (every crate sees
/// every other — there are no manifests to consult). Returns the active
/// findings. This is how the fixture tests drive the workspace rules
/// without a workspace on disk.
pub fn scan_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    scan(sources, None).active
}

/// Collects every scannable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic output.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans the whole workspace under `root`, with the crate closure read
/// from its manifests.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    let files = collect_files(root)?
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel))?;
            Ok((rel, text))
        })
        .collect::<io::Result<Vec<(String, String)>>>()?;
    let sources: Vec<(&str, &str)> = files
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str()))
        .collect();
    let deps = symbols::workspace_deps(root);
    Ok(scan(&sources, Some(&deps)))
}

/// The scan pipeline: the per-file step fanned out across cores, then the
/// cross-file rules (R12–R14) over the merged facts, then suppression
/// resolution with dead-suppression detection. `deps` is the crate closure
/// for [`symbols::SymbolTable::build`].
fn scan(sources: &[(&str, &str)], deps: Option<&HashMap<String, Vec<String>>>) -> ScanReport {
    // Phase 1: per-file work, in file order.
    let per_file = platform::experiment::run_campaign_cells(
        platform::experiment::RunnerConfig::default(),
        sources.to_vec(),
        |&(rel, text)| scan_file(rel, text),
    );

    let mut report = ScanReport {
        files_scanned: sources.len(),
        ..ScanReport::default()
    };
    let mut parsed: Vec<(FileInfo, parser::FileFacts)> = Vec::with_capacity(per_file.len());
    let mut candidates: Vec<Diagnostic> = Vec::new();
    // Every suppression site with whether it absorbed a finding.
    let mut sites: Vec<(String, rules::SuppressionSite, bool)> = Vec::new();
    let mut sites_by_file: HashMap<String, Vec<usize>> = HashMap::new();
    for file in per_file {
        report
            .active
            .extend(unknown_rule_findings(&file.info.rel, &file.sites));
        for site in file.sites {
            sites_by_file
                .entry(file.info.rel.clone())
                .or_default()
                .push(sites.len());
            sites.push((file.info.rel.clone(), site, false));
        }
        candidates.extend(file.local);
        parsed.push((file.info, file.facts));
    }

    // Phase 2: workspace rules over the merged facts.
    let table = symbols::SymbolTable::build(&parsed, deps);
    let graph = callgraph::CallGraph::build(&parsed, &table);
    let (conc, lock_graph) = locks::concurrency_rules(&parsed, &table, &graph);
    candidates.extend(conc);
    candidates.extend(allocpath::r13_alloc_freedom(&parsed, &table, &graph));
    report.lock_order_dot = lock_graph.to_dot();

    // Phase 3: suppression resolution, tracking which suppressions
    // actually earned their keep.
    for d in candidates {
        let mut absorbed = false;
        if let Some(idxs) = sites_by_file.get(&d.file) {
            for &i in idxs {
                let (_, site, used) = &mut sites[i];
                if site.line == d.line && site.covers(d.rule) {
                    *used = true;
                    absorbed = true;
                    break;
                }
            }
        }
        if absorbed {
            report.suppressed += 1;
        } else {
            report.active.push(d);
        }
    }

    for (file, site, used) in sites {
        // A site naming only unknown ids is reported above, not as dead.
        if used || (site.rules.is_empty() && !site.unknown.is_empty()) {
            continue;
        }
        let claimed = if site.rules.is_empty() {
            "all rules".to_string()
        } else {
            site.rules
                .iter()
                .map(|r| r.id())
                .collect::<Vec<_>>()
                .join(", ")
        };
        report.dead_suppressions.push(Diagnostic {
            rule: filed_under(&site),
            severity: Severity::Warning,
            file,
            line: site.line,
            snippet: format!("adas-lint: allow({claimed})"),
            message: format!(
                "dead suppression: the inline allow for {claimed} absorbs no \
                 finding — the code it excused is gone; remove the comment"
            ),
        });
    }

    report
        .active
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .dead_suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Locates the workspace root from the lint crate's own manifest dir —
/// used by the integration tests so `cargo test` works from any directory.
pub fn workspace_root_from_manifest(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir)
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_source_fires_on_injected_violation() {
        let d = scan_source(
            "crates/openadas/src/injected.rs",
            "pub fn set(&mut self, speed: f64) { self.cmd.steer = speed; }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnitSafety);
    }

    #[test]
    fn retired_rule_id_in_an_allow_is_a_finding_not_a_blanket_allow() {
        let d = scan_source(
            "crates/openadas/src/injected.rs",
            "// adas-lint: allow(R4, reason = \"float-hygiene is clippy's now\")\n\
             pub fn set(&mut self, speed: f64) {}\n",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .all(|d| d.line == 2 && d.severity == Severity::Error));
        assert!(d.iter().any(|d| d.message.contains("raw float")), "{d:?}");
        assert!(
            d.iter()
                .any(|d| d.message.contains("`R4`") && d.snippet.contains("allow(R4)")),
            "{d:?}"
        );
        // Naming the finding's own rule next to the unknown id absorbs the
        // finding, but not the report about the unknown id.
        let d = scan_source(
            "crates/openadas/src/injected.rs",
            "pub fn set(&mut self, speed: f64) {} // adas-lint: allow(R1, R8)\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`R8`"), "{d:?}");
    }

    #[test]
    fn workspace_root_resolution() {
        let root = workspace_root_from_manifest("/a/b/crates/lint");
        assert_eq!(root, Path::new("/a/b"));
    }
}
