//! R12 lock discipline and the workspace half of R14 shared-state
//! determinism.
//!
//! The campaign fan-out makes correctness depend on invariants no type
//! system checks: locks must be acquired in a consistent global order, no
//! guard may be held across the fan-out (a cell cannot make progress while
//! the caller holds what it needs),
//! `Condvar::wait` must sit in a predicate loop (spurious wakeups are
//! legal), and campaign results must merge by *index*, never by completion
//! order (completion order is scheduling-dependent, and a
//! scheduling-dependent merge silently invalidates every BENCH_*.json
//! artifact the paper reproduction rests on).
//!
//! The input is the per-fn [`LockEvent`](crate::parser::LockEvent) stream
//! the parser extracts under its token-tree guard-lifetime model, stitched
//! cross-function through the call graph: a call made under a guard
//! contributes lock-order edges to every lock the callee may transitively
//! acquire. Like the call graph the analysis is name-based and over-approximate — a
//! reported cycle might not be executable, but an *absent* cycle over the
//! modeled lifetimes is a real guarantee, which is the direction a
//! deadlock gate must err in.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Rule, Severity};
use crate::parser::{Callee, FileFacts, FnDef, LockOp};
use crate::scope::{concurrency_applies, FileInfo};
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Fan-out boundary functions: while one of these runs, the caller waits on
/// cells running on *other* threads, so holding any caller-side guard
/// across it stalls every cell that needs the lock, a deadlock recipe even
/// without a lock-order cycle. Matched against qualified and bare symbol
/// names of the transitive callee set.
pub const BOUNDARY_FNS: [&str; 1] = ["run_campaign_cells"];

/// Accumulator methods that, invoked under a guard, indicate a
/// merge-by-completion-order reduction (R14): whichever thread finishes
/// first writes first. Index-addressed merges (`slots[i] = …`,
/// `VecDeque::push_back` on a claim-ordered scheduling deque) are the
/// sanctioned alternatives and are deliberately absent from this table.
pub const MERGE_SINKS: [&str; 3] = ["push", "extend", "append"];

/// The workspace lock-order graph: `a → b` means lock `b` is (possibly
/// transitively) acquired while `a` is held, with one witness site per
/// edge.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// from-lock → to-lock → (file, line, via-fn) of the first witness.
    pub edges: BTreeMap<String, BTreeMap<String, (String, usize, String)>>,
}

impl LockGraph {
    fn add_edge(&mut self, from: &str, to: &str, file: &str, line: usize, via: &str) {
        self.edges
            .entry(from.to_string())
            .or_default()
            .entry(to.to_string())
            .or_insert_with(|| (file.to_string(), line, via.to_string()));
    }

    /// GraphViz rendering, uploaded as a CI artifact so a reviewer can see
    /// the whole order at a glance.
    pub fn to_dot(&self) -> String {
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for (a, tos) in &self.edges {
            nodes.insert(a);
            for b in tos.keys() {
                nodes.insert(b);
            }
        }
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
        for n in nodes {
            out.push_str(&format!("  \"{n}\";\n"));
        }
        for (a, tos) in &self.edges {
            for (b, (file, line, via)) in tos {
                out.push_str(&format!(
                    "  \"{a}\" -> \"{b}\" [label=\"{via} ({file}:{line})\"];\n"
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Strongly connected components with ≥ 2 nodes, plus self-loop nodes:
    /// exactly the node sets witnessing a lock-order cycle.
    fn cycles(&self) -> Vec<Vec<String>> {
        // Kosaraju over the (small) name graph.
        let mut nodes: Vec<String> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (a, tos) in &self.edges {
            for n in std::iter::once(a).chain(tos.keys()) {
                if !index.contains_key(n.as_str()) {
                    index.insert(n.as_str(), nodes.len());
                    nodes.push(n.clone());
                }
            }
        }
        let n = nodes.len();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut self_loop = vec![false; n];
        for (a, tos) in &self.edges {
            let ia = index[a.as_str()];
            for b in tos.keys() {
                let ib = index[b.as_str()];
                if ia == ib {
                    self_loop[ia] = true;
                } else {
                    fwd[ia].push(ib);
                    rev[ib].push(ia);
                }
            }
        }
        // Pass 1: finish order via iterative DFS.
        let mut seen = vec![false; n];
        let mut order: Vec<usize> = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut stack = vec![(s, 0usize)];
            seen[s] = true;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < fwd[v].len() {
                    let w = fwd[v][*next];
                    *next += 1;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: components on the transpose, in reverse finish order.
        let mut comp = vec![usize::MAX; n];
        let mut c = 0usize;
        for &s in order.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut queue = VecDeque::from([s]);
            comp[s] = c;
            while let Some(v) = queue.pop_front() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = c;
                        queue.push_back(w);
                    }
                }
            }
            c += 1;
        }
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); c];
        for (i, &ci) in comp.iter().enumerate() {
            groups[ci].push(nodes[i].clone());
        }
        let mut out: Vec<Vec<String>> = Vec::new();
        for (i, &looped) in self_loop.iter().enumerate() {
            if looped && groups[comp[i]].len() == 1 {
                out.push(vec![nodes[i].clone()]);
            }
        }
        out.extend(groups.into_iter().filter(|g| g.len() >= 2).map(|mut g| {
            g.sort();
            g
        }));
        out.sort();
        out
    }
}

/// Per-symbol view the analysis walks: which fns are in concurrency scope,
/// and where each symbol's definition lives.
struct Ctx<'a> {
    /// Symbol id → (file info, fn def) for every symbol, scoped or not.
    defs: Vec<(&'a FileInfo, &'a FnDef)>,
    /// Symbol ids of in-scope, non-test fns, in id order.
    scoped: Vec<usize>,
}

fn build_ctx<'a>(files: &'a [(FileInfo, FileFacts)], table: &SymbolTable) -> Ctx<'a> {
    let mut defs = Vec::with_capacity(table.symbols.len());
    let mut scoped = Vec::new();
    for (info, facts) in files {
        let in_scope = concurrency_applies(info);
        for f in &facts.fns {
            if in_scope && !f.is_test {
                scoped.push(defs.len());
            }
            defs.push((info, f));
        }
    }
    debug_assert_eq!(defs.len(), table.symbols.len());
    Ctx { defs, scoped }
}

/// Resolves one guarded call the way the call graph would, honouring the
/// method/free distinction the parser recorded.
fn resolve_guarded(table: &SymbolTable, from_crate: &str, name: &str, method: bool) -> Vec<usize> {
    table
        .resolve_name(from_crate, name)
        .into_iter()
        .filter(|&t| table.symbols[t].impl_type.is_some() == method)
        .collect()
}

/// Locks a symbol may acquire transitively (its own `Acquire` events plus
/// everything reachable through the call graph), memoized across queries.
fn acquire_closure(
    start: usize,
    ctx: &Ctx<'_>,
    table: &SymbolTable,
    graph: &CallGraph,
    memo: &mut HashMap<usize, BTreeSet<String>>,
) -> BTreeSet<String> {
    if let Some(hit) = memo.get(&start) {
        return hit.clone();
    }
    let mut acquired = BTreeSet::new();
    let mut seen = HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        let (info, f) = ctx.defs[cur];
        if concurrency_applies(info) && !f.is_test {
            for ev in &f.locks {
                if ev.op == LockOp::Acquire {
                    acquired.insert(ev.what.clone());
                }
            }
        }
        for &next in &graph.edges[cur] {
            if !table.symbols[next].is_test && seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    memo.insert(start, acquired.clone());
    acquired
}

/// Whether a symbol may transitively enter a fan-out boundary fn; returns the
/// first boundary's qualified name.
fn boundary_closure(start: usize, table: &SymbolTable, graph: &CallGraph) -> Option<String> {
    let mut seen = HashSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        let s = &table.symbols[cur];
        if BOUNDARY_FNS.contains(&s.qual.as_str()) || BOUNDARY_FNS.contains(&s.name.as_str()) {
            return Some(s.qual.clone());
        }
        for &next in &graph.edges[cur] {
            if !table.symbols[next].is_test && seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    None
}

/// R12 + R14 workspace analysis. Returns the diagnostics and the
/// lock-order graph (for `--lock-graph-dot`).
pub fn concurrency_rules(
    files: &[(FileInfo, FileFacts)],
    table: &SymbolTable,
    graph: &CallGraph,
) -> (Vec<Diagnostic>, LockGraph) {
    let ctx = build_ctx(files, table);
    let mut lock_graph = LockGraph::default();
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut closures: HashMap<usize, BTreeSet<String>> = HashMap::new();

    for &id in &ctx.scoped {
        let (info, f) = ctx.defs[id];
        let sym = &table.symbols[id];
        for ev in &f.locks {
            match ev.op {
                LockOp::Acquire => {
                    for h in &ev.held {
                        lock_graph.add_edge(h, &ev.what, &info.rel, ev.line, &sym.qual);
                    }
                }
                LockOp::CondWait => {
                    if !ev.in_loop {
                        out.push(Diagnostic {
                            rule: Rule::LockDiscipline,
                            severity: Severity::Error,
                            file: info.rel.clone(),
                            line: ev.line,
                            snippet: format!("{}.wait(…) in {}", ev.what, sym.qual),
                            message: format!(
                                "`Condvar::wait` on `{}` outside a predicate loop: spurious \
                                 wakeups are legal, so the condition must be re-checked in a \
                                 `while` around the wait",
                                ev.what
                            ),
                        });
                    }
                    if ev.held.len() > 1 {
                        out.push(Diagnostic {
                            rule: Rule::LockDiscipline,
                            severity: Severity::Error,
                            file: info.rel.clone(),
                            line: ev.line,
                            snippet: format!("{}.wait(…) in {}", ev.what, sym.qual),
                            message: format!(
                                "`Condvar::wait` on `{}` while also holding `{}`: the wait \
                                 releases only its own mutex, so every other guard blocks the \
                                 thread that must signal",
                                ev.what,
                                ev.held[..ev.held.len() - 1].join("`, `"),
                            ),
                        });
                    }
                }
                LockOp::GuardedCall => {
                    if ev.held.is_empty() {
                        continue;
                    }
                    if ev.method && MERGE_SINKS.contains(&ev.what.as_str()) {
                        out.push(Diagnostic {
                            rule: Rule::SharedStateDeterminism,
                            severity: Severity::Error,
                            file: info.rel.clone(),
                            line: ev.line,
                            snippet: format!(
                                ".{}(…) under `{}` in {}",
                                ev.what,
                                ev.held.join("`+`"),
                                sym.qual
                            ),
                            message: format!(
                                "`.{}(…)` into shared state under a lock merges results in \
                                 completion order, which is scheduling-dependent; merge by \
                                 index into pre-sized slots instead",
                                ev.what
                            ),
                        });
                    }
                    for t in resolve_guarded(table, &info.crate_name, &ev.what, ev.method) {
                        if table.symbols[t].is_test {
                            continue;
                        }
                        for l in acquire_closure(t, &ctx, table, graph, &mut closures) {
                            for h in &ev.held {
                                lock_graph.add_edge(h, &l, &info.rel, ev.line, &sym.qual);
                            }
                        }
                        if let Some(boundary) = boundary_closure(t, table, graph) {
                            out.push(Diagnostic {
                                rule: Rule::LockDiscipline,
                                severity: Severity::Error,
                                file: info.rel.clone(),
                                line: ev.line,
                                snippet: format!(
                                    "{}(…) under `{}` in {}",
                                    ev.what,
                                    ev.held.join("`+`"),
                                    sym.qual
                                ),
                                message: format!(
                                    "lock `{}` held across the fan-out boundary `{boundary}`: \
                                     its cells run on other threads and may need the lock, \
                                     so drop every guard before fanning out",
                                    ev.held.join("`, `"),
                                ),
                            });
                        }
                    }
                }
            }
        }

        // R14: an env-reading `OnceLock` initializer latches first-caller
        // environment for the whole process — a replay with a different
        // environment silently diverges.
        let inits: Vec<usize> = f
            .calls
            .iter()
            .filter(|c| matches!(c.callee.name(), "get_or_init" | "get_or_try_init"))
            .map(|c| c.line)
            .collect();
        let reads_env = f.calls.iter().any(|c| match &c.callee {
            Callee::Path(prefix, name) => {
                prefix == "env" && matches!(name.as_str(), "var" | "var_os" | "vars")
            }
            _ => false,
        });
        if reads_env {
            for line in inits {
                out.push(Diagnostic {
                    rule: Rule::SharedStateDeterminism,
                    severity: Severity::Error,
                    file: info.rel.clone(),
                    line,
                    snippet: format!("get_or_init with env read in {}", sym.qual),
                    message: "`OnceLock` initializer reads the environment: the value latches \
                              whatever the first caller saw, so replays under a different \
                              environment silently diverge; read the environment per call or \
                              inject the config explicitly"
                        .into(),
                });
            }
        }
    }

    for cycle in lock_graph.cycles() {
        // Witness: the lexicographically first edge inside the cycle.
        let members: BTreeSet<&str> = cycle.iter().map(|s| s.as_str()).collect();
        let witness = lock_graph
            .edges
            .iter()
            .filter(|(a, _)| members.contains(a.as_str()))
            .flat_map(|(_, tos)| tos.iter())
            .filter(|(b, _)| members.contains(b.as_str()))
            .map(|(_, site)| site)
            .min_by_key(|(file, line, _)| (file.clone(), *line));
        let (file, line, via) = match witness {
            Some(w) => w.clone(),
            None => continue,
        };
        let ring = if cycle.len() == 1 {
            format!("{0} → {0}", cycle[0])
        } else {
            format!("{} → {}", cycle.join(" → "), cycle[0])
        };
        out.push(Diagnostic {
            rule: Rule::LockDiscipline,
            severity: Severity::Error,
            file,
            line,
            snippet: format!("lock-order cycle via {via}"),
            message: format!(
                "lock-order cycle {ring}: two threads interleaving these acquisitions can \
                 deadlock; impose one global order (or narrow a guard so the inner \
                 acquisition happens after release)"
            ),
        });
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    (out, lock_graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::parse_files;

    fn analyze(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, LockGraph) {
        let files = parse_files(sources);
        let table = SymbolTable::build(&files, None);
        let graph = CallGraph::build(&files, &table);
        concurrency_rules(&files, &table, &graph)
    }

    #[test]
    fn guarded_steal_self_cycle_is_reported() {
        // The shape of the real pool bug: a temporary guard on the own
        // queue is still held while `steal` locks a victim's queue — the
        // same lock name, so the order graph gets a self-edge.
        let (d, g) = analyze(&[(
            "crates/platform/src/pool.rs",
            "pub struct Job;\n\
             impl Job {\n\
               fn participate(&self) { let t = self.queues[0].lock().unwrap().pop_front().or_else(|| self.steal(0)); }\n\
               fn steal(&self, s: usize) -> Option<usize> { self.queues[1].lock().unwrap().pop_back() }\n\
             }\n",
        )]);
        assert!(
            g.edges
                .get("queues")
                .is_some_and(|t| t.contains_key("queues")),
            "{g:?}"
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::LockDiscipline);
        assert!(d[0].message.contains("cycle"), "{}", d[0].message);
    }

    #[test]
    fn two_lock_cycle_across_fns() {
        let (d, _) = analyze(&[(
            "crates/platform/src/pool.rs",
            "pub struct S;\n\
             impl S {\n\
               fn ab(&self) { let a = self.alpha.lock().unwrap(); self.take_beta(); }\n\
               fn take_beta(&self) { let b = self.beta.lock().unwrap(); }\n\
               fn ba(&self) { let b = self.beta.lock().unwrap(); self.take_alpha(); }\n\
               fn take_alpha(&self) { let a = self.alpha.lock().unwrap(); }\n\
             }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("alpha → beta → alpha"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn ordered_nesting_is_clean() {
        let (d, g) = analyze(&[(
            "crates/platform/src/pool.rs",
            "pub struct S;\n\
             impl S {\n\
               fn outer(&self) { let a = self.alpha.lock().unwrap(); self.inner(); }\n\
               fn inner(&self) { let b = self.beta.lock().unwrap(); }\n\
             }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
        assert!(g.edges.get("alpha").is_some_and(|t| t.contains_key("beta")));
    }

    #[test]
    fn condvar_wait_outside_loop_and_extra_guard() {
        let (d, _) = analyze(&[(
            "crates/platform/src/pool.rs",
            "pub struct S;\n\
             impl S {\n\
               fn bad(&self) { let extra = self.other.lock().unwrap(); let g = self.m.lock().unwrap(); let g = self.cv.wait(g).unwrap(); }\n\
               fn good(&self) { let mut g = self.m.lock().unwrap(); while !*g { g = self.cv.wait(g).unwrap(); } }\n\
             }\n",
        )]);
        let msgs: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("outside a predicate loop")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("releases only its own mutex")),
            "{msgs:?}"
        );
        assert!(!d.iter().any(|x| x.snippet.contains("in S::good")), "{d:?}");
    }

    #[test]
    fn lock_held_across_the_fan_out() {
        let (d, _) = analyze(&[(
            "crates/platform/src/experiment.rs",
            "pub fn run_campaign_cells(cells: Vec<u32>) -> Vec<u32> { cells }\n\
             pub fn fan_out_under_guard(m: &std::sync::Mutex<u32>) {\n\
               let g = m.lock().unwrap();\n\
               run_campaign_cells(Vec::new());\n\
             }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4, "{d:?}");
        assert!(
            d[0].message
                .contains("fan-out boundary `run_campaign_cells`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn completion_order_merge_flagged_index_merge_clean() {
        let (d, _) = analyze(&[(
            "crates/platform/src/experiment.rs",
            "pub fn merge_bad(out: &std::sync::Mutex<Vec<u32>>, v: u32) {\n\
               let mut g = out.lock().unwrap();\n\
               g.push(v);\n\
             }\n\
             pub fn merge_good(out: &std::sync::Mutex<Vec<Option<u32>>>, i: usize, v: u32) {\n\
               let mut g = out.lock().unwrap();\n\
               g[i] = Some(v);\n\
             }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::SharedStateDeterminism);
        assert!(
            d[0].message.contains("completion order"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn env_reading_oncelock_initializer_flagged() {
        let (d, _) = analyze(&[(
            "crates/platform/src/config.rs",
            "pub fn workers() -> usize {\n\
               static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();\n\
               *N.get_or_init(|| std::env::var(\"WORKERS\").ok().and_then(|s| s.parse().ok()).unwrap_or(1))\n\
             }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::SharedStateDeterminism);
        assert!(d[0].message.contains("latches"), "{}", d[0].message);
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let (d, g) = analyze(&[(
            "crates/lint/src/worker.rs",
            "pub fn own_pool(m: &std::sync::Mutex<u32>) { let g = m.lock().unwrap(); let h = m.lock().unwrap(); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
        assert!(g.edges.is_empty(), "{g:?}");
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let (_, g) = analyze(&[(
            "crates/platform/src/pool.rs",
            "pub struct S;\n\
             impl S {\n\
               fn outer(&self) { let a = self.alpha.lock().unwrap(); self.inner(); }\n\
               fn inner(&self) { let b = self.beta.lock().unwrap(); }\n\
             }\n",
        )]);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph lock_order {"), "{dot}");
        assert!(dot.contains("\"alpha\" -> \"beta\""), "{dot}");
        assert!(dot.contains("S::outer"), "{dot}");
    }
}
