//! Per-crate symbol table and the crate-dependency closure.
//!
//! Call resolution is name-based (no type inference), so the one lever
//! that keeps it honest is *crate reachability*: a call written in crate
//! `X` can only resolve to functions defined in `X` or in crates `X`
//! depends on (transitively). Without this, `.update(…)` in the attack
//! engine would "reach" `Kalman1D::update` in `openadas` — a crate the
//! attack core cannot even link against — and every cross-file rule would
//! drown in phantom edges. The dependency graph is parsed straight out of
//! the workspace `Cargo.toml`s; in-memory scans (tests) fall back to a
//! permissive closure where every crate sees every other.

use crate::parser::FileFacts;
use crate::scope::{classify, FileInfo};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// A function known to the workspace, with enough location data to report
/// findings and rebuild call chains.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Index into the flat symbol vector — the node id used by the call
    /// graph.
    pub id: usize,
    /// Bare name (`step`).
    pub name: String,
    /// Qualified name (`Harness::step` or the bare name).
    pub qual: String,
    /// `impl` type, if the function is a method.
    pub impl_type: Option<String>,
    /// Defining crate (directory name under `crates/`, or the root
    /// package placeholder).
    pub crate_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the definition is test-only.
    pub is_test: bool,
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All function symbols, id-indexed.
    pub symbols: Vec<Symbol>,
    /// name → symbol ids (free fns and methods alike).
    by_name: HashMap<String, Vec<usize>>,
    /// (impl type, method name) → symbol ids.
    by_type_method: HashMap<(String, String), Vec<usize>>,
    /// crate → set of crates it can see (itself + transitive deps).
    closure: HashMap<String, HashSet<String>>,
    /// Whether an explicit dependency graph was supplied; without one the
    /// closure is permissive (every crate sees every crate).
    has_graph: bool,
}

impl SymbolTable {
    /// Builds the table from per-file facts. `deps` maps a crate to its
    /// *direct* workspace dependencies; pass `None` for the permissive
    /// closure.
    pub fn build(
        files: &[(FileInfo, FileFacts)],
        deps: Option<&HashMap<String, Vec<String>>>,
    ) -> Self {
        let mut t = SymbolTable {
            has_graph: deps.is_some(),
            ..SymbolTable::default()
        };
        for (info, facts) in files {
            for f in &facts.fns {
                let id = t.symbols.len();
                t.by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(ty) = &f.impl_type {
                    t.by_type_method
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                t.symbols.push(Symbol {
                    id,
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    impl_type: f.impl_type.clone(),
                    crate_name: info.crate_name.clone(),
                    file: info.rel.clone(),
                    line: f.line,
                    is_test: f.is_test,
                });
            }
        }
        if let Some(deps) = deps {
            t.closure = transitive_closure(deps);
        }
        t
    }

    /// Whether `from` can call into `to` (same crate or dependency).
    pub fn crate_reaches(&self, from: &str, to: &str) -> bool {
        if from == to || !self.has_graph {
            return true;
        }
        self.closure.get(from).is_some_and(|s| s.contains(to))
    }

    /// Symbols a bare-name call from `from_crate` may target.
    pub fn resolve_name(&self, from_crate: &str, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.crate_reaches(from_crate, &self.symbols[id].crate_name))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Symbols a `Prefix::name(…)` call from `from_crate` may target: impl
    /// methods of `Prefix`, or — when the prefix is a module path like
    /// `canbus` — free functions named `name`.
    pub fn resolve_path(&self, from_crate: &str, prefix: &str, name: &str) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .by_type_method
            .get(&(prefix.to_string(), name.to_string()))
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.crate_reaches(from_crate, &self.symbols[id].crate_name))
                    .collect()
            })
            .unwrap_or_default();
        if out.is_empty() {
            // Module-qualified free fn (`canbus::rewrite_signal`): resolve
            // to free fns named `name`, preferring ones defined in the
            // crate the prefix names.
            out = self
                .resolve_name(from_crate, name)
                .into_iter()
                .filter(|&id| self.symbols[id].impl_type.is_none())
                .filter(|&id| {
                    let s = &self.symbols[id];
                    s.crate_name == prefix
                        || s.crate_name == prefix.replace('_', "-")
                        || !self.has_graph
                        || self.crate_reaches(from_crate, &s.crate_name)
                })
                .collect();
        }
        out
    }
}

/// Expands direct dependencies into the full reachability sets.
fn transitive_closure(deps: &HashMap<String, Vec<String>>) -> HashMap<String, HashSet<String>> {
    let mut out: HashMap<String, HashSet<String>> = HashMap::new();
    for name in deps.keys() {
        let mut seen: HashSet<String> = HashSet::new();
        let mut stack: Vec<&String> = vec![name];
        while let Some(cur) = stack.pop() {
            if let Some(ds) = deps.get(cur) {
                for d in ds {
                    if seen.insert(d.clone()) {
                        stack.push(d);
                    }
                }
            }
        }
        out.insert(name.clone(), seen);
    }
    out
}

/// Parses the workspace crate-dependency graph from `crates/*/Cargo.toml`
/// plus the root manifest. Keys and values are *directory* crate names
/// (`core`, not `attack-core`) so they line up with [`classify`]'s
/// `crate_name`; package-name aliases are translated.
pub fn workspace_deps(root: &Path) -> HashMap<String, Vec<String>> {
    let mut package_to_dir: HashMap<String, String> = HashMap::new();
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();

    let mut manifests: Vec<(String, std::path::PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path().join("Cargo.toml");
            if p.is_file() {
                manifests.push((e.file_name().to_string_lossy().into_owned(), p));
            }
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        manifests.push((crate::scope::ROOT_CRATE.to_string(), root_manifest));
    }

    for (dir, path) in &manifests {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let (package, deps) = parse_manifest(&text);
        if let Some(pkg) = package {
            package_to_dir.insert(pkg, dir.clone());
        }
        package_to_dir
            .entry(dir.clone())
            .or_insert_with(|| dir.clone());
        raw.push((dir.clone(), deps));
    }

    raw.into_iter()
        .map(|(dir, deps)| {
            let mapped = deps
                .into_iter()
                .filter_map(|d| package_to_dir.get(&d).cloned())
                .collect();
            (dir, mapped)
        })
        .collect()
}

/// Minimal TOML scrape: the `[package] name` and the keys of
/// `[dependencies]`. Good enough for this workspace's manifests, which are
/// all `name.workspace = true` style.
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut package = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    package = Some(v.trim().trim_matches('"').to_string());
                }
            }
        } else if section == "dependencies" {
            let key = line
                .split(['=', '.'])
                .next()
                .unwrap_or("")
                .trim()
                .trim_matches('"');
            if !key.is_empty() {
                deps.push(key.to_string());
            }
        }
    }
    (package, deps)
}

/// Parses and classifies an in-memory file set into the shape
/// [`SymbolTable::build`] wants.
pub fn parse_files(sources: &[(&str, &str)]) -> Vec<(FileInfo, FileFacts)> {
    sources
        .iter()
        .map(|(rel, src)| {
            let info = classify(rel);
            let facts = crate::parser::parse(&crate::tokenizer::tokenize(src));
            (info, facts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_scrape() {
        let (pkg, deps) = parse_manifest(
            "[package]\nname = \"attack-core\"\n\n[dependencies]\nunits.workspace = true\nmsgbus.workspace = true\n\n[dev-dependencies]\nproptest.workspace = true\n",
        );
        assert_eq!(pkg.as_deref(), Some("attack-core"));
        assert_eq!(deps, vec!["units", "msgbus"]);
    }

    #[test]
    fn closure_blocks_unrelated_crates() {
        let files = parse_files(&[
            ("crates/a/src/lib.rs", "pub fn fa() {}\n"),
            ("crates/b/src/lib.rs", "pub fn fb() {}\n"),
            ("crates/c/src/lib.rs", "pub fn fb() {}\n"),
        ]);
        let mut deps = HashMap::new();
        deps.insert("a".to_string(), vec!["b".to_string()]);
        deps.insert("b".to_string(), Vec::new());
        deps.insert("c".to_string(), Vec::new());
        let t = SymbolTable::build(&files, Some(&deps));
        // `a` sees fb in b, but not the one in c.
        let ids = t.resolve_name("a", "fb");
        assert_eq!(ids.len(), 1);
        assert_eq!(t.symbols[ids[0]].crate_name, "b");
        // `b` cannot see back into a.
        assert!(t.resolve_name("b", "fa").is_empty());
    }

    #[test]
    fn path_resolution_prefers_impl_methods() {
        let files = parse_files(&[(
            "crates/a/src/lib.rs",
            "pub struct T;\nimpl T { pub fn go(&self) {} }\npub fn go() {}\n",
        )]);
        let t = SymbolTable::build(&files, None);
        let ids = t.resolve_path("a", "T", "go");
        assert_eq!(ids.len(), 1);
        assert_eq!(t.symbols[ids[0]].qual, "T::go");
    }
}
