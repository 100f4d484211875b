//! The cross-file call graph and R7: transitive panic freedom.
//!
//! Clippy's `unwrap_used`/`expect_used`/`panic` lints prove "no panic
//! *token* in this file" for the safety-path crates; R7 upgrades that to
//! "no call *path* from a steady-state root ([`R7_ROOTS`]: the tick and
//! the daemon's loops) reaches a panicking function",
//! whatever crate the function lives in. The graph is name-based and
//! crate-closure-filtered (see [`crate::symbols`]), which
//! over-approximates reachability: a reported chain might not be
//! executable, but an *absent* chain is a real guarantee, which is the
//! direction a safety gate must err in. Calls that resolve to nothing
//! (std, vendored shims) are assumed non-panicking — the documented
//! trade-off of an offline, zero-dependency analysis.

use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::{Callee, FileFacts, PanicSite};
use crate::scope::FileInfo;
use crate::symbols::SymbolTable;
use std::collections::{HashMap, VecDeque};

/// The fully-qualified roots the R7 walk starts from: one tick of the
/// closed loop, and the campaign daemon's two long-running service loops
/// (a panic in either kills the service, not just one request). The
/// supervisor loop reaches the campaign fan-out, `run_campaign_cells`.
/// Everything the steady state can execute hangs off these.
pub const R7_ROOTS: [&str; 3] = ["Harness::step", "accept_loop", "supervisor_loop"];

/// A call graph over symbol ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Adjacency: caller id → callee ids (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Panic primitives per symbol id.
    pub panics: Vec<Vec<PanicSite>>,
    /// Bare callee names per symbol, resolved or not — the taint rules
    /// need to see calls into types the table cannot resolve (e.g.
    /// `f64::clamp`).
    pub raw_calls: Vec<Vec<String>>,
}

impl CallGraph {
    /// Builds the graph by resolving every call site of every function.
    /// `files` must be the exact set [`SymbolTable::build`] consumed, in
    /// the same order — symbol ids are positional.
    pub fn build(files: &[(FileInfo, FileFacts)], table: &SymbolTable) -> Self {
        let n = table.symbols.len();
        let mut g = CallGraph {
            edges: vec![Vec::new(); n],
            panics: vec![Vec::new(); n],
            raw_calls: vec![Vec::new(); n],
        };
        let mut id = 0usize;
        for (info, facts) in files {
            for f in &facts.fns {
                debug_assert_eq!(table.symbols[id].name, f.name);
                g.panics[id] = f.panics.clone();
                g.raw_calls[id] = f.calls.iter().map(|c| c.callee.name().to_string()).collect();
                let mut targets: Vec<usize> = Vec::new();
                for call in &f.calls {
                    match &call.callee {
                        Callee::Free(name) => {
                            targets.extend(
                                table
                                    .resolve_name(&info.crate_name, name)
                                    .into_iter()
                                    .filter(|&t| table.symbols[t].impl_type.is_none()),
                            );
                        }
                        Callee::Method(name) => {
                            targets.extend(
                                table
                                    .resolve_name(&info.crate_name, name)
                                    .into_iter()
                                    .filter(|&t| table.symbols[t].impl_type.is_some()),
                            );
                        }
                        Callee::Path(prefix, name) => {
                            targets.extend(table.resolve_path(&info.crate_name, prefix, name));
                        }
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                // A function trivially "reaches" itself; self-loops only
                // add noise to chain reconstruction.
                targets.retain(|&t| t != id);
                g.edges[id] = targets;
                id += 1;
            }
        }
        g
    }

    /// BFS from `roots`, skipping test-only symbols. Returns the parent
    /// map: reached id → the id it was first reached from (roots map to
    /// themselves).
    pub fn reach(&self, table: &SymbolTable, roots: &[usize]) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &next in &self.edges[cur] {
                if table.symbols[next].is_test {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(cur);
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// Reconstructs the root→target chain of qualified names.
    pub fn chain(&self, table: &SymbolTable, parent: &HashMap<usize, usize>, target: usize) -> Vec<String> {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter()
            .map(|id| table.symbols[id].qual.clone())
            .collect()
    }
}

/// R7: every panic primitive inside a function reachable from one of
/// [`R7_ROOTS`] is a finding, reported with the full call chain.
pub fn r7_transitive_panic_freedom(table: &SymbolTable, graph: &CallGraph) -> Vec<Diagnostic> {
    let roots: Vec<usize> = table
        .symbols
        .iter()
        .filter(|s| R7_ROOTS.contains(&s.qual.as_str()) && !s.is_test)
        .map(|s| s.id)
        .collect();
    let mut out = Vec::new();
    if roots.is_empty() {
        // No harness in the scanned set (e.g. a fixture scan): R7 has
        // nothing to prove.
        return out;
    }
    let parent = graph.reach(table, &roots);
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();
    for id in reached {
        let sym = &table.symbols[id];
        if sym.is_test {
            continue;
        }
        for p in &graph.panics[id] {
            let chain = graph.chain(table, &parent, id).join(" → ");
            out.push(Diagnostic {
                rule: Rule::TransitivePanic,
                severity: Severity::Error,
                file: sym.file.clone(),
                line: p.line,
                snippet: format!("{} in {}", p.what, sym.qual),
                message: format!(
                    "`{}` panics and is reachable from a steady-state root \
                     (tick loop or service loop); call chain: {chain}. Degrade \
                     (fail-closed) instead of dying, or allow with a reason \
                     proving the invariant",
                    p.what
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{parse_files, SymbolTable};

    fn analyze(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files = parse_files(sources);
        let table = SymbolTable::build(&files, None);
        let graph = CallGraph::build(&files, &table);
        r7_transitive_panic_freedom(&table, &graph)
    }

    #[test]
    fn flags_transitive_panic_with_chain() {
        let d = analyze(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { middle(); } }\n",
            ),
            (
                "crates/platform/src/mid.rs",
                "pub fn middle() { deep_helper(); }\n",
            ),
            (
                "crates/core/src/deep.rs",
                "pub fn deep_helper() { let x: Option<u8> = None; x.expect(\"boom\"); }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::TransitivePanic);
        assert!(
            d[0].message
                .contains("Harness::step → middle → deep_helper"),
            "{}",
            d[0].message
        );
        assert_eq!(d[0].file, "crates/core/src/deep.rs");
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let d = analyze(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { safe(); } }\npub fn safe() {}\n",
            ),
            (
                "crates/platform/src/driver.rs",
                "pub fn campaign_only() { panic!(\"not on the tick path\"); }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_functions_do_not_contribute_edges_or_sites() {
        let d = analyze(&[(
            "crates/platform/src/harness.rs",
            "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { helper(); } }\n\
             pub fn helper() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
