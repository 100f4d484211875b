//! The scoping matrix: which crates and file kinds each rule covers.

/// What a `.rs` file is for, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/`.
    Lib,
    /// Binary source under `src/bin/`.
    Bin,
    /// Integration test under `tests/`.
    Test,
    /// Benchmark under `benches/`.
    Bench,
    /// Example under `examples/`.
    Example,
}

/// A classified workspace file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Owning crate (directory name under `crates/`, or the root package).
    pub crate_name: String,
    /// Role of the file.
    pub kind: FileKind,
}

/// Name used for files belonging to the root package.
pub const ROOT_CRATE: &str = "adas-attack-repro";

/// Crates whose public APIs R1 holds to `units::` newtypes.
pub const R1_CRATES: [&str; 4] = ["openadas", "driving-sim", "canbus", "driver-model"];

/// Crates the concurrency/allocation layer (R12–R14) analyzes: the
/// platform crate owns the campaign fan-out and the campaign runners, the
/// daemon's locks live in `campaignd`, and the hot-path reachability
/// closure for R13 extends into the crates the tick roots call into.
pub const CONCURRENCY_CRATES: [&str; 10] = [
    "platform",
    "openadas",
    "canbus",
    "driving-sim",
    "driver-model",
    "units",
    "msgbus",
    "core",
    "defense",
    "campaignd",
];

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileInfo {
    let rel = rel.replace('\\', "/");
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(ROOT_CRATE)
        .to_string();
    let kind = if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileKind::Bench
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/src/bin/") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileInfo {
        rel,
        crate_name,
        kind,
    }
}

/// R1 covers library code of the unit-bearing crates.
pub fn r1_applies(info: &FileInfo) -> bool {
    info.kind == FileKind::Lib && R1_CRATES.contains(&info.crate_name.as_str())
}

/// Whether the concurrency/allocation layer (R12–R14) analyzes this file.
/// Library code only: tests and benches lock and allocate by design.
pub fn concurrency_applies(info: &FileInfo) -> bool {
    info.kind == FileKind::Lib && CONCURRENCY_CRATES.contains(&info.crate_name.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let f = classify("crates/openadas/src/adas.rs");
        assert_eq!(f.crate_name, "openadas");
        assert_eq!(f.kind, FileKind::Lib);

        let f = classify("crates/canbus/tests/properties.rs");
        assert_eq!(f.kind, FileKind::Test);

        let f = classify("crates/platform/src/bin/trace.rs");
        assert_eq!(f.kind, FileKind::Bin);

        let f = classify("src/lib.rs");
        assert_eq!(f.crate_name, ROOT_CRATE);
        assert_eq!(f.kind, FileKind::Lib);

        let f = classify("examples/quickstart.rs");
        assert_eq!(f.kind, FileKind::Example);
    }

    #[test]
    fn scope_matrix() {
        assert!(r1_applies(&classify("crates/openadas/src/acc.rs")));
        assert!(!r1_applies(&classify("crates/platform/src/harness.rs")));
        assert!(!r1_applies(&classify(
            "crates/openadas/tests/properties.rs"
        )));
        assert!(!r1_applies(&classify("examples/quickstart.rs")));
    }

    #[test]
    fn concurrency_scope() {
        assert!(concurrency_applies(&classify(
            "crates/platform/src/pool.rs"
        )));
        assert!(concurrency_applies(&classify(
            "crates/openadas/src/adas.rs"
        )));
        assert!(!concurrency_applies(&classify("crates/lint/src/locks.rs")));
        assert!(!concurrency_applies(&classify(
            "crates/platform/tests/alloc.rs"
        )));
        assert!(!concurrency_applies(&classify(
            "crates/bench/benches/micro.rs"
        )));
    }
}
