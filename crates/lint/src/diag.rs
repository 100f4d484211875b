//! The diagnostic model: rules, severities, and machine-readable output.

use std::fmt;

/// The safety invariants adas-lint enforces. Retired IDs are never reused.
/// R2, R4, R5, R7 and R8 (panic-freedom, float equality, wall-clock types,
/// transitive panic-freedom and wildcard enum arms) are clippy lints
/// configured in the workspace `Cargo.toml`, `clippy.toml` and the `lib.rs`
/// of every crate the tick and the daemon reach. R9–R11 (the actuator
/// envelope and the limit orderings) are proved by the compiler:
/// `openadas::Enveloped` gates the encoder and `const` assertions sit in
/// `units::limits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — public APIs of the safety-path crates must pass speeds,
    /// distances, angles, and accelerations as `units::` newtypes, not raw
    /// `f64`/`f32`.
    UnitSafety,
    /// R3 — direct writes to gas/brake/steer command fields only inside
    /// `openadas::safety`, `openadas::controls`, and the attack engine's
    /// designated mutation points.
    ActuatorContainment,
    /// R6 — cross-file taint flow: attack values are clamped at birth,
    /// reach CAN bytes only through the audited `Injector` choke point,
    /// and the ADAS side never calls back into the attack crate.
    TaintFlow,
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
pub const ALL_RULES: [Rule; 6] = [
    Rule::UnitSafety,
    Rule::ActuatorContainment,
    Rule::TaintFlow,
    Rule::LockDiscipline,
    Rule::AllocFreedom,
    Rule::SharedStateDeterminism,
];

impl Rule {
    /// Short identifier (`R1`…`R14`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnitSafety => "R1",
            Rule::ActuatorContainment => "R3",
            Rule::TaintFlow => "R6",
            Rule::LockDiscipline => "R12",
            Rule::AllocFreedom => "R13",
            Rule::SharedStateDeterminism => "R14",
        }
    }

    /// Long kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::ActuatorContainment => "actuator-containment",
            Rule::TaintFlow => "taint-flow",
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
            Rule::ActuatorContainment => {
                "gas/brake/steer command fields written only in designated modules"
            }
            Rule::TaintFlow => {
                "attack values clamped at birth and routed to CAN bytes only via the Injector choke point"
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

    /// Parses `R3` / `r3` / `actuator-containment` style names.
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

    /// Renders one JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}",
            self.rule.id(),
            self.rule.name(),
            self.severity.label(),
            json_escape(&self.file),
            self.line,
            json_escape(&self.snippet),
            json_escape(&self.message),
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
        // R2, R4, R5, R7 and R8 moved to clippy and R9–R11 to the
        // compiler; their IDs and names are not reused.
        for retired in [
            "R2",
            "R4",
            "R5",
            "R7",
            "R8",
            "R9",
            "R10",
            "R11",
            "R15",
            "panic-freedom",
            "transitive-panic",
            "envelope-soundness",
            "threshold-consistency",
            "clamp-hygiene",
        ] {
            assert_eq!(Rule::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn human_render_contains_location() {
        let d = Diagnostic {
            rule: Rule::ActuatorContainment,
            severity: Severity::Error,
            file: "crates/openadas/src/adas.rs".into(),
            line: 42,
            snippet: "self.cmd.steer_cmd = 400.0;".into(),
            message: "write to actuator command field `.steer_cmd`".into(),
        };
        let h = d.render_human();
        assert!(h.contains("error[R3/actuator-containment]"));
        assert!(h.contains("crates/openadas/src/adas.rs:42"));
    }
}
