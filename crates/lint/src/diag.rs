//! The diagnostic model: rules, severities, and machine-readable output.

use std::fmt;

use platform::json::Writer;

/// The safety invariants adas-lint enforces. Retired IDs are never reused.
/// R2, R4, R5, R7 and R8 (panic-freedom, float equality, wall-clock types,
/// transitive panic-freedom and wildcard enum arms) are clippy lints
/// configured in the workspace `Cargo.toml`, `clippy.toml` and the `lib.rs`
/// of every crate the tick and the daemon reach. R3, R6 and R9–R11 (the
/// actuator envelope on both sides of the bus and the limit orderings) are
/// proved by the compiler: `openadas::Enveloped` gates the encoder,
/// `attack_core::AttackValues` is clamped at construction and read only by
/// `Injector::apply`, `openadas` and `attack-core` list no dependency on
/// each other, and `const` assertions sit in `units::limits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — public APIs of the safety-path crates must pass speeds,
    /// distances, angles, and accelerations as `units::` newtypes, not raw
    /// `f64`/`f32`.
    UnitSafety,
    /// R12 — lock discipline: the lock-order graph built from every
    /// `Mutex`/`Condvar` acquisition site reached via the call graph must
    /// be acyclic; no lock may be held across the campaign fan-out;
    /// `Condvar::wait` only inside a predicate loop; every
    /// `.lock().expect(...)` covered by a documented poisoning policy.
    LockDiscipline,
    /// R13 — hot-path allocation freedom: no call path from the
    /// steady-state tick root (`Harness::step`) reaches an allocating std
    /// API, except provably-amortized buffer-reuse sites
    /// (`drain_into`-style).
    AllocFreedom,
    /// R14 — shared-state determinism: no shared mutable statics, no
    /// `OnceLock` initializers that read the environment, and campaign
    /// results merged by index, never by completion order.
    SharedStateDeterminism,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 4] = [
    Rule::UnitSafety,
    Rule::LockDiscipline,
    Rule::AllocFreedom,
    Rule::SharedStateDeterminism,
];

impl Rule {
    /// Short identifier (`R1`…`R14`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnitSafety => "R1",
            Rule::LockDiscipline => "R12",
            Rule::AllocFreedom => "R13",
            Rule::SharedStateDeterminism => "R14",
        }
    }

    /// Long kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AllocFreedom => "alloc-freedom",
            Rule::SharedStateDeterminism => "shared-state-determinism",
        }
    }

    /// One-line description, shown by `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnitSafety => {
                "public APIs of safety-path crates take units:: newtypes, not raw f64"
            }
            Rule::LockDiscipline => {
                "acyclic lock order, no locks across run_campaign_cells, Condvar::wait in predicate loops, documented poisoning policy"
            }
            Rule::AllocFreedom => {
                "no call path from the steady-state tick roots reaches an allocating std API"
            }
            Rule::SharedStateDeterminism => {
                "no mutable statics, env-reading OnceLock initializers, or completion-order campaign merges"
            }
        }
    }

    /// Parses `R12` / `r12` / `lock-discipline` style names.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        ALL_RULES
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Gate-failing finding.
    Error,
    /// Hygiene finding (a dead suppression). Also fails the gate — rot in
    /// the suppression machinery is how real findings get hidden — but is
    /// reported under a distinct label so the two failure classes are
    /// distinguishable in output.
    Warning,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding at one site.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Violated rule.
    pub rule: Rule,
    /// Finding severity.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human explanation of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the compiler-style human form.
    pub fn render_human(&self) -> String {
        format!(
            "{}[{}/{}]: {}\n  --> {}:{}\n   | {}\n",
            self.severity.label(),
            self.rule.id(),
            self.rule.name(),
            self.message,
            self.file,
            self.line,
            self.snippet,
        )
    }

    /// Writes the finding as the members of one JSON object.
    pub fn write_json(&self, o: &mut Writer<'_>) {
        o.field("rule", self.rule.id())
            .field("name", self.rule.name())
            .field("severity", self.severity.label())
            .field("file", &self.file)
            .field("line", self.line)
            .field("snippet", &self.snippet)
            .field("message", &self.message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_roundtrip() {
        for r in ALL_RULES {
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert_eq!(Rule::parse(r.name()), Some(r));
            assert_eq!(Rule::parse(&r.id().to_lowercase()), Some(r));
        }
        // R2, R4, R5, R7 and R8 moved to clippy and R3, R6 and R9–R11 to
        // the compiler; their IDs and names are not reused.
        for retired in [
            "R2",
            "R3",
            "R4",
            "R5",
            "R6",
            "R7",
            "R8",
            "R9",
            "R10",
            "R11",
            "R15",
            "panic-freedom",
            "actuator-containment",
            "taint-flow",
            "transitive-panic",
            "envelope-soundness",
            "threshold-consistency",
            "clamp-hygiene",
        ] {
            assert_eq!(Rule::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn human_render_contains_location() {
        let d = Diagnostic {
            rule: Rule::UnitSafety,
            severity: Severity::Error,
            file: "crates/openadas/src/adas.rs".into(),
            line: 42,
            snippet: "pub fn set(&mut self, speed: f64)".into(),
            message: "public API passes a raw float".into(),
        };
        let h = d.render_human();
        assert!(h.contains("error[R1/unit-safety]"));
        assert!(h.contains("crates/openadas/src/adas.rs:42"));
    }
}
