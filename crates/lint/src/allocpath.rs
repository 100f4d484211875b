//! R13: hot-path allocation freedom.
//!
//! The throughput claims rest on the steady-state tick never touching the
//! allocator — the runtime witness is the counting-allocator test in
//! `platform/tests/alloc.rs`, but that test exercises exactly one
//! configuration. R13 turns the property into a whole-hot-path build gate:
//! a transitive "may-allocate" walk from the tick roots ([`R13_ROOTS`])
//! over a curated table of allocating std APIs. Workspace calls that the
//! symbol table *can* resolve are descended into rather than matched
//! against the table (their bodies are analyzed directly); only calls that
//! resolve to nothing — std and core APIs — are judged by name. The escape
//! hatch for provably-amortized buffer reuse ([`AMORTIZED_FNS`], the
//! `drain_into` family) is what the runtime alloc test exists to justify:
//! those functions append into caller-owned buffers whose capacity the
//! warmup ticks saturate, which the counting allocator confirms end-to-end.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::{Callee, FileFacts, FnDef};
use crate::scope::{concurrency_applies, FileInfo};
use crate::symbols::SymbolTable;
use std::collections::{HashMap, HashSet, VecDeque};

/// Qualified names of the steady-state tick entry points: every campaign
/// cell calls `Harness::step` in a loop.
pub const R13_ROOTS: [&str; 1] = ["Harness::step"];

/// Method names that allocate when they resolve to nothing in the
/// workspace (i.e. are std container/string APIs). `push` beyond capacity,
/// the owning conversions, and `collect` are the big ones.
pub const ALLOC_METHODS: [&str; 12] = [
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "reserve",
];

/// `Type::fn` paths that construct heap-backed values. `Vec::new` does not
/// allocate by itself, but a fresh container per tick is exactly the
/// capacity-amortization bug the rule exists to catch — construction in
/// the hot path is the finding, wherever the first `push` lands.
pub const ALLOC_PATHS: [(&str, &str); 10] = [
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("String", "new"),
    ("String", "from"),
    ("HashMap", "new"),
    ("BTreeMap", "new"),
    ("Arc", "new"),
];

/// Macros that allocate.
pub const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Functions whose interior allocation is provably amortized: they append
/// into caller-owned, capacity-retaining buffers (`clear()` + reuse), so
/// after warmup the steady state never grows them. The BFS neither
/// descends into nor reports inside these; the runtime counting-allocator
/// gate (`platform/tests/alloc.rs`) is the end-to-end witness that the
/// exemption is sound.
pub const AMORTIZED_FNS: [&str; 2] = ["drain_into", "drain_frames_into"];

/// Whether a call site resolves to at least one workspace symbol, under
/// the same rules [`CallGraph::build`] uses.
fn resolves(table: &SymbolTable, from_crate: &str, callee: &Callee) -> bool {
    match callee {
        Callee::Free(name) => table
            .resolve_name(from_crate, name)
            .into_iter()
            .any(|t| table.symbols[t].impl_type.is_none()),
        Callee::Method(name) => table
            .resolve_name(from_crate, name)
            .into_iter()
            .any(|t| table.symbols[t].impl_type.is_some()),
        Callee::Path(prefix, name) => !table.resolve_path(from_crate, prefix, name).is_empty(),
    }
}

/// R13: walk the call graph from the tick roots and report every
/// allocating site reached, with the root→site call chain.
pub fn r13_alloc_freedom(
    files: &[(FileInfo, FileFacts)],
    table: &SymbolTable,
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    let mut defs: Vec<(&FileInfo, &FnDef)> = Vec::with_capacity(table.symbols.len());
    for (info, facts) in files {
        for f in &facts.fns {
            defs.push((info, f));
        }
    }
    debug_assert_eq!(defs.len(), table.symbols.len());

    let roots: Vec<usize> = table
        .symbols
        .iter()
        .filter(|s| R13_ROOTS.contains(&s.qual.as_str()) && !s.is_test)
        .map(|s| s.id)
        .collect();
    let mut out = Vec::new();
    if roots.is_empty() {
        // No harness in the scanned set (e.g. a fixture scan): nothing to
        // prove.
        return out;
    }

    // BFS with a parent map for chain reconstruction, refusing to enter
    // test code and amortized-exempt functions.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if parent.insert(r, r).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &next in &graph.edges[cur] {
            let s = &table.symbols[next];
            if s.is_test
                || AMORTIZED_FNS.contains(&s.name.as_str())
                || AMORTIZED_FNS.contains(&s.qual.as_str())
            {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(cur);
                queue.push_back(next);
            }
        }
    }

    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();
    let mut seen_sites: HashSet<(String, usize, String)> = HashSet::new();
    for id in reached {
        let (info, f) = defs[id];
        let sym = &table.symbols[id];
        if sym.is_test || !concurrency_applies(info) {
            continue;
        }
        let mut hits: Vec<(usize, String)> = Vec::new();
        for c in &f.calls {
            let flagged = match &c.callee {
                Callee::Method(name) => ALLOC_METHODS.contains(&name.as_str()),
                Callee::Path(prefix, name) => {
                    ALLOC_PATHS.contains(&(prefix.as_str(), name.as_str()))
                }
                Callee::Free(_) => false,
            };
            if flagged && !resolves(table, &info.crate_name, &c.callee) {
                let label = match &c.callee {
                    Callee::Method(name) => format!(".{name}(…)"),
                    Callee::Path(prefix, name) => format!("{prefix}::{name}(…)"),
                    Callee::Free(name) => format!("{name}(…)"),
                };
                hits.push((c.line, label));
            }
        }
        for (line, name) in &f.macros {
            if ALLOC_MACROS.contains(&name.as_str()) {
                hits.push((*line, format!("{name}!(…)")));
            }
        }
        for (line, label) in hits {
            if !seen_sites.insert((info.rel.clone(), line, label.clone())) {
                continue;
            }
            let chain = graph.chain(table, &parent, id).join(" → ");
            out.push(Diagnostic {
                rule: Rule::AllocFreedom,
                severity: Severity::Error,
                file: info.rel.clone(),
                line,
                snippet: format!("{label} in {}", sym.qual),
                message: format!(
                    "`{label}` allocates and is reachable from the steady-state tick; \
                     call chain: {chain}. Reuse a cleared, capacity-retaining buffer \
                     (drain_into-style), or allow with a reason proving amortization",
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::parse_files;

    fn analyze(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files = parse_files(sources);
        let table = SymbolTable::build(&files, None);
        let graph = CallGraph::build(&files, &table);
        r13_alloc_freedom(&files, &table, &graph)
    }

    #[test]
    fn flags_transitive_allocation_with_chain() {
        let d = analyze(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { helper(); } }\n",
            ),
            (
                "crates/core/src/helper.rs",
                "pub fn helper() -> Vec<u8> { let mut v = Vec::new(); v.push(1); v }\n",
            ),
        ]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("Harness::step → helper"), "{}", d[0].message);
        assert!(d.iter().any(|x| x.snippet.contains("Vec::new")), "{d:?}");
        assert!(d.iter().any(|x| x.snippet.contains(".push(…)")), "{d:?}");
    }

    #[test]
    fn unreached_allocation_is_not_flagged() {
        let d = analyze(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self) {} }\n",
            ),
            (
                "crates/core/src/campaign.rs",
                "pub fn plan() -> Vec<u8> { vec![1, 2, 3] }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn amortized_fns_are_exempt_and_not_descended() {
        let d = analyze(&[
            (
                "crates/platform/src/harness.rs",
                "pub struct Harness;\nimpl Harness { pub fn step(&mut self, out: &mut Vec<u8>) { self.bus.drain_into(out); } }\n",
            ),
            (
                "crates/msgbus/src/bus.rs",
                "pub struct Bus;\nimpl Bus { pub fn drain_into(&mut self, out: &mut Vec<u8>) { out.extend(self.q.iter()); } }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn resolved_workspace_calls_are_descended_not_matched() {
        // `.push(…)` that resolves to a workspace method is not a std
        // allocation; the callee's own body is what gets judged.
        let d = analyze(&[(
            "crates/platform/src/harness.rs",
            "pub struct Harness;\n\
             impl Harness { pub fn step(&mut self) { self.ring.push(1); } }\n\
             pub struct Ring;\n\
             impl Ring { pub fn push(&mut self, v: u8) { self.buf[self.head] = v; } }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn format_macro_in_hot_path_flagged() {
        let d = analyze(&[(
            "crates/platform/src/harness.rs",
            "pub struct Harness;\nimpl Harness { pub fn step(&mut self) { let s = format!(\"tick\"); } }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::AllocFreedom);
        assert!(d[0].snippet.contains("format!"), "{}", d[0].snippet);
    }

    #[test]
    fn no_roots_means_nothing_to_prove() {
        let d = analyze(&[(
            "crates/core/src/helper.rs",
            "pub fn helper() -> Vec<u8> { vec![1] }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
