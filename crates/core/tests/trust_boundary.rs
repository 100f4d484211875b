//! The trust boundary between the victim and the attacker is Cargo's:
//! `openadas` (the ADAS, whose `CommandEncoder` turns commands into CAN
//! bytes) and `attack-core` (the attacker) list no dependency on each
//! other, directly or through another workspace crate. So the ADAS cannot
//! call attacker code, and attack values reach CAN bytes only through
//! `attack_core::Injector`, which rewrites frames the ADAS encoded.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One manifest: its package name and, per dependency table
/// (`dependencies`, `dev-dependencies`, …), the packages the table names.
struct Manifest {
    package: String,
    tables: Vec<(String, String)>,
}

fn parse(text: &str) -> Manifest {
    let mut package = String::new();
    let mut tables = Vec::new();
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_string();
            // `[dependencies.foo]` names `foo` in the section header.
            if let Some((table, dep)) = section.split_once("dependencies.") {
                tables.push((format!("{table}dependencies"), dep.to_string()));
            }
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        let key = key.trim_matches('"');
        if line.is_empty() || line.starts_with('#') || key.is_empty() {
            continue;
        }
        if section == "package" && key == "name" {
            let value = line.split_once('=').map_or("", |(_, v)| v);
            package = value.trim().trim_matches('"').to_string();
        } else if section.ends_with("dependencies") {
            tables.push((section.clone(), key.to_string()));
        }
    }
    Manifest { package, tables }
}

/// Every workspace crate's manifest, by package name.
fn workspace() -> BTreeMap<String, Manifest> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates directory");
    std::fs::read_dir(crates)
        .expect("read crates directory")
        .filter_map(|entry| {
            let path = entry.expect("directory entry").path().join("Cargo.toml");
            let text = std::fs::read_to_string(path).ok()?;
            let manifest = parse(&text);
            Some((manifest.package.clone(), manifest))
        })
        .collect()
}

/// The packages `package` links against: its `[dependencies]`, and
/// theirs, transitively.
fn reachable(workspace: &BTreeMap<String, Manifest>, package: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![package.to_string()];
    while let Some(current) = stack.pop() {
        let Some(manifest) = workspace.get(&current) else {
            continue;
        };
        for (table, dep) in &manifest.tables {
            if table == "dependencies" && seen.insert(dep.clone()) {
                stack.push(dep.clone());
            }
        }
    }
    seen
}

#[test]
fn openadas_and_attack_core_cannot_reach_each_other() {
    let workspace = workspace();
    for (from, to) in [("openadas", "attack-core"), ("attack-core", "openadas")] {
        let manifest = &workspace[from];
        let listed: Vec<&(String, String)> = manifest
            .tables
            .iter()
            .filter(|(_, dep)| dep == to)
            .collect();
        assert!(listed.is_empty(), "{from} lists {to}: {listed:?}");
        let reached = reachable(&workspace, from);
        assert!(
            !reached.contains(to),
            "{from} reaches {to} through its dependencies {reached:?}"
        );
        // The walk saw the real graph: both link `canbus`, the CAN codec.
        assert!(reached.contains("canbus"), "{from}: {reached:?}");
    }
}
