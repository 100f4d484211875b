//! R6: taint flow — the static proof of the paper's safety-envelope
//! invariant.
//!
//! The paper's attack works because corrupted actuator values stay
//! *inside* the ADAS safety checks (Eq. 1's acceleration envelope, the
//! steering-angle limit). The runtime system enforces that envelope in
//! three places; R6 proves statically that no refactor can route around
//! them. It decomposes into three obligations over the call graph:
//!
//! * **R6a — clamped at birth.** Every function defined in the taint
//!   origin module (`crates/core/src/corruption.rs`) whose return type
//!   mentions [`ATTACK_VALUES_TYPE`] must itself call a clamp from
//!   [`CLAMP_FNS`]. Attack values must be inside the envelope from the
//!   moment they exist — this is the lint-shaped form of the paper's
//!   "strategic values satisfy the safety check" precondition.
//!
//! * **R6b — audited choke point.** Every call path from attack-core
//!   library code to a CAN-bytes sink ([`SINK_FNS`]) must pass through the
//!   injector choke set ([`CHOKE_FNS`]). Concretely: after deleting the
//!   choke functions from the graph, no attack function may still reach a
//!   sink. Violations are reported with the full flow chain.
//!
//! * **R6c — no back-flow.** The ADAS side (`openadas`) must never call
//!   into attack-core: the victim consuming attacker APIs would dissolve
//!   the trust boundary the whole reproduction measures. Checked both at
//!   the manifest level (dependency edge) and the call-graph level.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Rule, Severity};
use crate::symbols::SymbolTable;
use std::collections::{HashMap, VecDeque};

/// Module whose functions mint attack values.
pub const TAINT_ORIGIN_FILE: &str = "crates/core/src/corruption.rs";
/// The type carrying corrupted actuator commands.
pub const ATTACK_VALUES_TYPE: &str = "AttackValues";
/// Safety-layer clamps that bound a value into the envelope. The bare
/// `clamp` covers `f64::clamp` against the strategic-value constants.
pub const CLAMP_FNS: [&str; 3] = ["clamp", "clamp_accel", "clamp_steer"];
/// Functions that turn values into CAN frame bytes (the actuator bus).
pub const SINK_FNS: [(&str, &str); 4] = [
    ("CommandEncoder", "encode"),
    ("CommandEncoder", "encode_into"),
    ("Encoder", "encode"),
    ("", "rewrite_signal"),
];
/// The audited injection choke point: the only sanctioned route from
/// attack values to frame bytes.
pub const CHOKE_FNS: [(&str, &str); 3] = [
    ("Injector", "apply"),
    ("Injector", "apply_all"),
    ("Injector", "apply_in_place"),
];
/// The attacker crate (directory name) whose flows R6b polices.
pub const ATTACK_CRATE: &str = "core";
/// The victim crate R6c protects from back-flow.
pub const ADAS_CRATE: &str = "openadas";

/// Whether a symbol is one of the configured sinks.
fn is_sink(table: &SymbolTable, id: usize) -> bool {
    let s = &table.symbols[id];
    SINK_FNS.iter().any(|(ty, name)| {
        s.name == *name
            && (ty.is_empty() && s.impl_type.is_none() || s.impl_type.as_deref() == Some(*ty))
    })
}

/// Whether a symbol is part of the injection choke set.
fn is_choke(table: &SymbolTable, id: usize) -> bool {
    let s = &table.symbols[id];
    CHOKE_FNS
        .iter()
        .any(|(ty, name)| s.name == *name && s.impl_type.as_deref() == Some(*ty))
}

/// Runs all three R6 obligations.
pub fn r6_taint_flow(table: &SymbolTable, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    r6a_clamped_at_birth(table, graph, &mut out);
    r6b_choke_point(table, graph, &mut out);
    r6c_no_backflow(table, graph, &mut out);
    out
}

/// R6a: taint-origin functions returning attack values must clamp.
fn r6a_clamped_at_birth(table: &SymbolTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    for s in &table.symbols {
        if s.is_test || s.file != TAINT_ORIGIN_FILE || !s.ret.contains(ATTACK_VALUES_TYPE) {
            continue;
        }
        // Direct containment: the minting function itself must clamp —
        // "somewhere downstream" is not a proof that the value was bounded
        // before it escaped.
        let clamps = calls_any_clamp(table, graph, s.id);
        if !clamps {
            out.push(Diagnostic {
                rule: Rule::TaintFlow,
                severity: Severity::Error,
                file: s.file.clone(),
                line: s.line,
                snippet: format!("fn {} -> {}", s.qual, s.ret),
                message: format!(
                    "`{}` mints `{ATTACK_VALUES_TYPE}` without calling a safety clamp \
                     ({}); strategic attack values must be inside the paper's Eq. 1 \
                     envelope from birth",
                    s.qual,
                    CLAMP_FNS.join("/"),
                ),
            });
        }
    }
}

/// Whether symbol `id`'s body contains a call to any clamp function.
fn calls_any_clamp(table: &SymbolTable, graph: &CallGraph, id: usize) -> bool {
    // The graph stores resolved edges; clamp calls on `f64` resolve to
    // nothing, so consult the raw call list kept alongside the edges.
    graph.raw_calls[id]
        .iter()
        .any(|name| CLAMP_FNS.contains(&name.as_str()))
        || graph.edges[id]
            .iter()
            .any(|&t| CLAMP_FNS.contains(&table.symbols[t].name.as_str()))
}

/// R6b: with the choke set deleted, no attack-core function may reach a
/// sink.
fn r6b_choke_point(table: &SymbolTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    // BFS over the graph minus choke nodes, from every non-test
    // attack-core function that is not itself part of the choke set.
    let sources: Vec<usize> = table
        .symbols
        .iter()
        .filter(|s| {
            s.crate_name == ATTACK_CRATE
                && !s.is_test
                && !is_choke(table, s.id)
                && s.file.contains("/src/")
        })
        .map(|s| s.id)
        .collect();
    if sources.is_empty() {
        return;
    }

    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in &sources {
        if parent.insert(s, s).is_none() {
            queue.push_back(s);
        }
    }
    let mut hits: Vec<usize> = Vec::new();
    while let Some(cur) = queue.pop_front() {
        // Sinks are terminal for the walk; a root cannot be a sink because
        // sinks live outside attack-core.
        if is_sink(table, cur) {
            hits.push(cur);
            continue;
        }
        for &next in &graph.edges[cur] {
            if table.symbols[next].is_test || is_choke(table, next) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(cur);
                queue.push_back(next);
            }
        }
    }
    hits.sort_unstable();
    hits.dedup();
    for sink in hits {
        let chain = graph.chain(table, &parent, sink).join(" → ");
        let origin = {
            // Walk back to the originating attack-core function.
            let mut cur = sink;
            while let Some(&p) = parent.get(&cur) {
                if p == cur {
                    break;
                }
                cur = p;
            }
            cur
        };
        let o = &table.symbols[origin];
        out.push(Diagnostic {
            rule: Rule::TaintFlow,
            severity: Severity::Error,
            file: o.file.clone(),
            line: o.line,
            snippet: format!("fn {}", o.qual),
            message: format!(
                "attack value can reach CAN bytes without passing the audited \
                 `Injector` choke point; flow chain: {chain}. Route the write \
                 through Injector::apply/apply_all/apply_in_place",
            ),
        });
    }
}

/// R6c: `openadas` must not call into attack-core (manifest edge or
/// resolved call edge).
fn r6c_no_backflow(table: &SymbolTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    for s in &table.symbols {
        if s.crate_name != ADAS_CRATE || s.is_test {
            continue;
        }
        for &t in &graph.edges[s.id] {
            let target = &table.symbols[t];
            if target.crate_name == ATTACK_CRATE {
                out.push(Diagnostic {
                    rule: Rule::TaintFlow,
                    severity: Severity::Error,
                    file: s.file.clone(),
                    line: s.line,
                    snippet: format!("fn {} calls {}", s.qual, target.qual),
                    message: format!(
                        "ADAS code calls into the attack crate (`{}` → `{}`); the \
                         victim consuming attacker APIs dissolves the trust boundary \
                         the reproduction measures",
                        s.qual, target.qual
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::{parse_files, SymbolTable};

    fn analyze(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files = parse_files(sources);
        let table = SymbolTable::build(&files, None);
        let graph = CallGraph::build(&files, &table);
        r6_taint_flow(&table, &graph)
    }

    #[test]
    fn r6a_unclamped_minting_fires_and_clamped_passes() {
        let bad = analyze(&[(
            "crates/core/src/corruption.rs",
            "impl CorruptionPolicy { pub fn values(&self) -> AttackValues { AttackValues::max() } }\n",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("mints"));

        let good = analyze(&[(
            "crates/core/src/corruption.rs",
            "impl CorruptionPolicy { pub fn values(&self) -> AttackValues { let h = x.clamp(0.0, cap); AttackValues::from(h) } }\n",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r6b_bypass_fires_with_chain_and_choked_path_passes() {
        // Direct attack→encoder path without the Injector choke.
        let bad = analyze(&[
            (
                "crates/core/src/engine.rs",
                "impl AttackEngine { pub fn emit(&mut self) { shortcut(); } }\npub fn shortcut() { rewrite_signal(1, 2); }\n",
            ),
            (
                "crates/canbus/src/codec.rs",
                "pub fn rewrite_signal(a: u8, b: u8) {}\n",
            ),
        ]);
        assert!(!bad.is_empty(), "{bad:?}");
        assert!(
            bad[0]
                .message
                .contains("AttackEngine::emit → shortcut → rewrite_signal")
                || bad
                    .iter()
                    .any(|d| d.message.contains("shortcut → rewrite_signal")),
            "{bad:?}"
        );

        // Same reach, but through Injector::apply: clean.
        let good = analyze(&[
            (
                "crates/core/src/engine.rs",
                "impl AttackEngine { pub fn emit(&mut self, inj: &mut Injector) { inj.apply_all(frames, &values); } }\n",
            ),
            (
                "crates/core/src/injector.rs",
                "impl Injector { pub fn apply_all(&mut self) { self.apply(); } pub fn apply(&mut self) { rewrite_signal(1, 2); } }\n",
            ),
            (
                "crates/canbus/src/codec.rs",
                "pub fn rewrite_signal(a: u8, b: u8) {}\n",
            ),
        ]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r6c_backflow_fires() {
        let d = analyze(&[
            (
                "crates/openadas/src/adas.rs",
                "impl Adas { pub fn step(&mut self) { attack_helper(); } }\n",
            ),
            ("crates/core/src/engine.rs", "pub fn attack_helper() {}\n"),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("trust boundary"));
    }
}
