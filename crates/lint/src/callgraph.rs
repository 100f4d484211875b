//! The cross-file call graph the reachability rules walk: R12 (lock
//! discipline) and R13 (allocation freedom).
//!
//! The graph is name-based and crate-closure-filtered (see
//! [`crate::symbols`]), which over-approximates reachability: a reported
//! chain might not be executable, but an *absent* chain is a real
//! guarantee, which is the direction a safety gate must err in. Calls that
//! resolve to nothing (std, vendored shims) have no edge — the documented
//! trade-off of an offline, zero-dependency analysis.

use crate::parser::{Callee, FileFacts};
use crate::scope::FileInfo;
use crate::symbols::SymbolTable;
use std::collections::HashMap;

/// A call graph over symbol ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Adjacency: caller id → callee ids (deduplicated).
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph by resolving every call site of every function.
    /// `files` must be the exact set [`SymbolTable::build`] consumed, in
    /// the same order — symbol ids are positional.
    pub fn build(files: &[(FileInfo, FileFacts)], table: &SymbolTable) -> Self {
        let n = table.symbols.len();
        let mut g = CallGraph {
            edges: vec![Vec::new(); n],
        };
        let mut id = 0usize;
        for (info, facts) in files {
            for f in &facts.fns {
                debug_assert_eq!(table.symbols[id].name, f.name);
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

    /// Reconstructs the root→target chain of qualified names from a BFS
    /// `parent` map: each reached id → the id it was first reached from,
    /// each root → itself.
    pub fn chain(
        &self,
        table: &SymbolTable,
        parent: &HashMap<usize, usize>,
        target: usize,
    ) -> Vec<String> {
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
