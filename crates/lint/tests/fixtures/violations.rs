//! Golden fixture: deliberately violating code, scanned as if it lived at
//! `crates/openadas/src/fixture.rs`. Expected findings (rule + 1-based
//! line) live in `violations.expected`; the `fixtures` integration test
//! compares them exactly. This file is never compiled — the `fixtures`
//! directory is excluded from both the cargo build and the workspace scan.

// R1: raw f64 crossing a public API boundary of a safety-path crate.
pub fn set_target_speed(&mut self, speed: f64) {
    self.target = speed;
}

// R14: unsynchronized shared mutable state.
static mut LAST_TARGET: u64 = 0;

// Suppressed: the allow comment acknowledges the raw float with a reason.
// adas-lint: allow(R1, reason = "fixture demonstrates suppression")
pub fn set_gain(&mut self, gain: f64) {
    self.gain = gain;
}

#[cfg(test)]
mod tests {
    // Exempt: test code may pass raw floats freely.
    pub fn in_tests(speed: f64) {
        let _ = speed;
    }
}
