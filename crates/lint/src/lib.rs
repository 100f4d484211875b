//! `adas-lint` — workspace-native safety-invariant static analysis.
//!
//! The paper this workspace reproduces (Zhou et al., DSN 2022) shows that
//! ADAS attacks succeed precisely by keeping corrupted values *inside* the
//! safety-check envelope, so the reproduction's own safety layer, unit
//! handling, and determinism guarantees are machine-checked rather than
//! convention-checked. Ten rules run over every workspace `.rs` file:
//!
//! | Rule | Name                  | Invariant                                            |
//! |------|-----------------------|------------------------------------------------------|
//! | R1   | `unit-safety`         | public APIs use `units::` newtypes, not raw `f64`    |
//! | R3   | `actuator-containment`| actuator command writes only in designated modules   |
//! | R6   | `taint-flow`          | attack values clamped at birth, sinks only via the   |
//! |      |                       | `Injector` choke point, no ADAS→attack back-flow     |
//! | R7   | `transitive-panic`    | no call path from `Harness::step` reaches a panic    |
//! | R9   | `envelope-soundness`  | values at actuator encode sinks provably inside the  |
//! |      |                       | physical limits (interval abstract interpretation)   |
//! | R10  | `threshold-consistency`| gate/IDS/escalation constants mutually consistent,  |
//! |      |                       | config constructors reproduce them bit-for-bit       |
//! | R11  | `clamp-hygiene`       | no inverted/dead clamps, no NaN reaching actuation   |
//! | R12  | `lock-discipline`     | acyclic lock order, no guards across pool boundaries,|
//! |      |                       | condvar waits in predicate loops, poisoning policy   |
//! | R13  | `alloc-freedom`       | steady-state tick roots reach no allocating std API  |
//! | R14  | `shared-state-determinism` | no `static mut`, no env-latching `OnceLock`,    |
//! |      |                       | campaign merges by index, never completion order     |
//!
//! The IDs R2, R4, R5 and R8 are retired. Clippy checks those invariants
//! (panic-freedom, float equality, wall-clock reads, wildcard enum arms)
//! from the lint configuration in the workspace `Cargo.toml` and
//! `clippy.toml`.
//!
//! The analysis is layered: the **lexical** layer (R1, R3) runs over
//! masked lines; the **taint/callgraph** layer (R6/R7) over a parsed
//! symbol table and cross-file call graph ([`parser`], [`symbols`],
//! [`callgraph`], [`taint`]); the **numeric** layer (R9–R11) does interval
//! abstract interpretation over a lowered IR ([`ir`], [`interval`],
//! [`absint`]); and the **concurrency/alloc** layer (R12–R14) builds a
//! lock-order graph and a may-allocate closure over the same call graph
//! ([`locks`], [`allocpath`]). Per-file work is cached, keyed by content
//! hash mixed with the scan-configuration fingerprint ([`cache`]), and
//! fanned out across cores, so warm runs are sub-second.
//!
//! Findings can be acknowledged two ways: an inline
//! `// adas-lint: allow(<rule>, reason = "…")` comment for sites that are
//! correct by construction, or the checked-in `lint-baseline.txt` for
//! grandfathered code. Both are themselves checked: a suppression that
//! absorbs nothing, a suppression naming an id that is no rule, and a
//! baseline entry whose site is gone each fail the gate. The
//! `tests/lint_clean.rs` integration test runs the scan under `cargo test`.

#![forbid(unsafe_code)]

pub mod absint;
pub mod allocpath;
pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod diag;
pub mod interval;
pub mod ir;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod scope;
pub mod symbols;
pub mod taint;
pub mod tokenizer;

pub use baseline::{Baseline, BaselineEntry};
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

/// Knobs for a workspace scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Whether to read/write the per-file facts cache.
    pub use_cache: bool,
    /// Cache directory; `None` means [`default_cache_dir`].
    pub cache_dir: Option<PathBuf>,
    /// Whether to analyze files across worker threads.
    pub parallel: bool,
    /// Active rules; findings for other rules are not computed or
    /// reported. Part of the cache key — see [`cache::scan_key`].
    pub rules: Vec<Rule>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            use_cache: true,
            cache_dir: None,
            parallel: true,
            rules: ALL_RULES.to_vec(),
        }
    }
}

impl ScanOptions {
    /// Whether every rule is active (subset scans skip the dead-suppression
    /// and stale-baseline checks, which only a full scan can judge).
    fn full_rule_set(&self) -> bool {
        cache::config_fingerprint(&self.rules) == cache::config_fingerprint(&ALL_RULES)
    }

    fn semantic_active(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r,
                Rule::EnvelopeSoundness | Rule::ThresholdConsistency | Rule::ClampHygiene
            )
        })
    }

    fn concurrency_active(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r,
                Rule::LockDiscipline | Rule::AllocFreedom | Rule::SharedStateDeterminism
            )
        })
    }
}

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Error findings that survived inline suppressions and the baseline.
    pub active: Vec<Diagnostic>,
    /// Findings absorbed by the baseline file.
    pub baselined: usize,
    /// Findings absorbed by inline `allow` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// How many files were served from the facts cache.
    pub cache_hits: usize,
    /// Baseline entries that matched nothing (stale).
    pub unused_baseline: Vec<BaselineEntry>,
    /// Inline suppressions that absorbed nothing (dead), as warnings.
    pub dead_suppressions: Vec<Diagnostic>,
    /// GraphViz rendering of the R12 lock-order graph (empty when the
    /// concurrency layer did not run).
    pub lock_order_dot: String,
}

impl ScanReport {
    /// Whether the scan should gate the build: any active finding, dead
    /// suppression, or stale baseline entry fails.
    pub fn is_clean(&self) -> bool {
        self.active.is_empty() && self.dead_suppressions.is_empty() && self.unused_baseline.is_empty()
    }
}

/// Scans one source text as if it lived at `rel_path`. Per-file rules only
/// (R1, R3, and the local halves of R12/R14); inline suppressions are
/// honored, no baseline. This is the entry point single-file tests use to
/// prove rules fire.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let info = classify(rel_path);
    let file = tokenizer::tokenize(source);
    let facts = parser::parse(&file);
    let mut out = rules::local_rules(&info, &file, &facts);
    out.retain(|d| !file.is_suppressed(d.line, d.rule));
    out.extend(unknown_rule_findings(&info.rel, &rules::suppression_sites(&file)));
    out
}

/// The rule a finding about a suppression comment is filed under: the
/// first rule the comment names, or R1, first in report order, for a
/// comment that names none.
fn filed_under(site: &cache::SuppressionSite) -> Rule {
    site.rules.first().copied().unwrap_or(ALL_RULES[0])
}

/// One active error per id a suppression names that is no rule (retired
/// or misspelled). Such an id covers nothing, and the finding itself is
/// never suppressible, so a stale id can neither widen an allow into a
/// blanket one nor hide behind it.
fn unknown_rule_findings(file: &str, sites: &[cache::SuppressionSite]) -> Vec<Diagnostic> {
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
                     (R2, R4, R5 and R8 are clippy lints now: use `#[allow(clippy::…)]`)"
                ),
            })
        })
        .collect()
}

/// Scans an in-memory multi-file set: per-file rules, the cross-file
/// R6/R7 analyses with the permissive crate closure (every crate sees
/// every other — there are no manifests to consult), and the semantic
/// R9–R11 layer over the files its scope covers. Inline suppressions are
/// honored, no baseline. This is how the fixture tests drive the
/// workspace rules without a workspace on disk.
pub fn scan_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut parsed: Vec<(FileInfo, parser::FileFacts)> = Vec::new();
    let mut tokenized: Vec<tokenizer::SourceFile> = Vec::new();
    let mut semfiles: Vec<absint::SemFile> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    for (rel, text) in sources {
        let info = classify(rel);
        let file = tokenizer::tokenize(text);
        let facts = parser::parse(&file);
        out.extend(
            rules::local_rules(&info, &file, &facts)
                .into_iter()
                .filter(|d| !file.is_suppressed(d.line, d.rule)),
        );
        out.extend(unknown_rule_findings(&info.rel, &rules::suppression_sites(&file)));
        if scope::needs_ir(&info) {
            semfiles.push(absint::SemFile::new(
                info.rel.clone(),
                tokenizer::tokenize(text),
                scope::r9_applies(&info),
                scope::r11_applies(&info),
            ));
        }
        parsed.push((info, facts));
        tokenized.push(file);
    }
    let table = symbols::SymbolTable::build(&parsed, None);
    let graph = callgraph::CallGraph::build(&parsed, &table);
    let mut ws = taint::r6_taint_flow(&table, &graph);
    ws.extend(callgraph::r7_transitive_panic_freedom(&table, &graph));
    ws.extend(absint::semantic_rules(&semfiles));
    let (conc, _lock_graph) = locks::concurrency_rules(&parsed, &table, &graph);
    ws.extend(conc);
    ws.extend(allocpath::r13_alloc_freedom(&parsed, &table, &graph));
    for d in ws {
        let suppressed = parsed
            .iter()
            .position(|(info, _)| info.rel == d.file)
            .is_some_and(|i| tokenized[i].is_suppressed(d.line, d.rule));
        if !suppressed {
            out.push(d);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
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

/// Default facts-cache location, under the Cargo target dir so `cargo
/// clean` clears it too.
pub fn default_cache_dir(root: &Path) -> PathBuf {
    root.join("target").join("adas-lint-cache")
}

/// Scans the whole workspace with default options (cache on, parallel).
pub fn scan_workspace(root: &Path, baseline: Option<Baseline>) -> io::Result<ScanReport> {
    scan_workspace_with(root, baseline, &ScanOptions::default())
}

/// Scans the whole workspace: per-file rules (cached, parallel), then the
/// cross-file R6/R7 analyses over the assembled symbol table and call
/// graph, then suppression/baseline resolution with dead-entry detection.
pub fn scan_workspace_with(
    root: &Path,
    mut baseline: Option<Baseline>,
    opts: &ScanOptions,
) -> io::Result<ScanReport> {
    let rels = collect_files(root)?;
    let cache_dir = opts
        .cache_dir
        .clone()
        .unwrap_or_else(|| default_cache_dir(root));
    let cfg = cache::config_fingerprint(&opts.rules);
    let sem_active = opts.semantic_active();

    // Phase 1: per-file analysis — tokenize/parse/local rules, or a cache
    // hit keyed by content hash mixed with the scan configuration. Pure
    // per-file work, so it fans out. Semantic IR lowering rides along here
    // (it is also pure per-file work) but is cache-*independent*: the IR
    // holds borrows-free trees that are cheap to rebuild and expensive to
    // serialize, and the whole-program phase re-reads them every run
    // anyway — caching them could only add a staleness channel.
    type PerFile = (FileInfo, cache::FileAnalysis, bool, Option<absint::SemFile>);
    let analyze = |i: usize| -> io::Result<PerFile> {
        let rel = &rels[i];
        let source = fs::read_to_string(root.join(rel))?;
        let info = classify(rel);
        let key = cache::scan_key(cache::content_hash(source.as_bytes()), cfg);
        let sem = (sem_active && scope::needs_ir(&info)).then(|| {
            absint::SemFile::new(
                rel.clone(),
                tokenizer::tokenize(&source),
                scope::r9_applies(&info),
                scope::r11_applies(&info),
            )
        });
        if opts.use_cache {
            if let Some(a) = cache::load(&cache_dir, rel, key) {
                return Ok((info, a, true, sem));
            }
        }
        let mut a = rules::analyze_file(&info, &source);
        a.raw_diags.retain(|d| opts.rules.contains(&d.rule));
        if opts.use_cache {
            cache::store(&cache_dir, rel, key, &a);
        }
        Ok((info, a, false, sem))
    };
    let results: Vec<io::Result<PerFile>> = if opts.parallel {
        platform::experiment::run_parallel_map(rels.len(), analyze)
    } else {
        (0..rels.len()).map(analyze).collect()
    };

    let mut report = ScanReport::default();
    let mut analyses: Vec<(FileInfo, cache::FileAnalysis)> = Vec::with_capacity(results.len());
    let mut semfiles: Vec<absint::SemFile> = Vec::new();
    for r in results {
        let (info, a, hit, sem) = r?;
        report.files_scanned += 1;
        if hit {
            report.cache_hits += 1;
        }
        if let Some(s) = sem {
            semfiles.push(s);
        }
        analyses.push((info, a));
    }

    // Phase 2: workspace rules over the merged facts. Cheap (graph walks),
    // so it always recomputes — the cache can never stale a cross-file
    // result.
    let files: Vec<(FileInfo, parser::FileFacts)> = analyses
        .iter()
        .map(|(info, a)| {
            (
                info.clone(),
                parser::FileFacts {
                    fns: a.fns.clone(),
                    ..parser::FileFacts::default()
                },
            )
        })
        .collect();
    let deps = symbols::workspace_deps(root);
    let table = symbols::SymbolTable::build(&files, Some(&deps));
    let graph = callgraph::CallGraph::build(&files, &table);
    let mut workspace_diags = taint::r6_taint_flow(&table, &graph);
    workspace_diags.extend(callgraph::r7_transitive_panic_freedom(&table, &graph));
    if sem_active {
        workspace_diags.extend(absint::semantic_rules(&semfiles));
    }
    if opts.concurrency_active() {
        let (conc, lock_graph) = locks::concurrency_rules(&files, &table, &graph);
        workspace_diags.extend(conc);
        workspace_diags.extend(allocpath::r13_alloc_freedom(&files, &table, &graph));
        report.lock_order_dot = lock_graph.to_dot();
    }
    workspace_diags.retain(|d| opts.rules.contains(&d.rule));

    // Phase 3: suppression and baseline resolution, tracking which
    // suppressions actually earned their keep.
    let mut sites: Vec<(String, cache::SuppressionSite, bool)> = Vec::new();
    let mut sites_by_file: HashMap<&str, Vec<usize>> = HashMap::new();
    for (info, a) in &analyses {
        report
            .active
            .extend(unknown_rule_findings(&info.rel, &a.suppressions));
        for s in &a.suppressions {
            sites_by_file
                .entry(info.rel.as_str())
                .or_default()
                .push(sites.len());
            sites.push((info.rel.clone(), s.clone(), false));
        }
    }

    let mut candidates: Vec<Diagnostic> = analyses
        .iter()
        .flat_map(|(_, a)| a.raw_diags.iter().cloned())
        .collect();
    candidates.extend(workspace_diags);
    for d in candidates {
        let mut absorbed = false;
        if let Some(idxs) = sites_by_file.get(d.file.as_str()) {
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
        } else if baseline.as_mut().is_some_and(|b| b.matches(&d)) {
            report.baselined += 1;
        } else {
            report.active.push(d);
        }
    }

    // Only a full scan can call a suppression dead or a baseline entry
    // stale: under `--rules` subsets, a finding the entry absorbs may
    // simply not have been computed this run.
    let full = opts.full_rule_set();
    for (file, site, used) in sites {
        // A site naming only unknown ids is reported above, not as dead.
        if used || !full || (site.rules.is_empty() && !site.unknown.is_empty()) {
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

    if let Some(b) = baseline {
        if full {
            report.unused_baseline = b.unused();
        }
    }
    report
        .active
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .dead_suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Default baseline location: `lint-baseline.txt` at the workspace root.
pub fn default_baseline_path(root: &Path) -> PathBuf {
    root.join("lint-baseline.txt")
}

/// Loads the baseline at `path`; a missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
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
        assert!(d.iter().any(|d| d.rule == Rule::UnitSafety));
        assert!(d.iter().any(|d| d.rule == Rule::ActuatorContainment));
    }

    #[test]
    fn retired_rule_id_in_an_allow_is_a_finding_not_a_blanket_allow() {
        let d = scan_source(
            "crates/openadas/src/injected.rs",
            "// adas-lint: allow(R4, reason = \"float-hygiene is clippy's now\")\n\
             pub fn set(&mut self, speed: f64) {}\n",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.line == 2 && d.severity == Severity::Error));
        assert!(d.iter().any(|d| d.message.contains("raw float")), "{d:?}");
        assert!(
            d.iter().any(|d| d.message.contains("`R4`") && d.snippet.contains("allow(R4)")),
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
    fn scan_sources_runs_cross_file_rules() {
        let d = scan_sources(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { helper(); } }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn helper() { danger(); }\npub fn danger() { panic!(\"boom\"); }\n",
            ),
        ]);
        assert!(
            d.iter().any(|d| d.rule == Rule::TransitivePanic
                && d.message.contains("Harness::step → helper → danger")),
            "{d:?}"
        );
    }

    #[test]
    fn workspace_root_resolution() {
        let root = workspace_root_from_manifest("/a/b/crates/lint");
        assert_eq!(root, Path::new("/a/b"));
    }
}
