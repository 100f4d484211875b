//! Golden fixture: deliberately violating code, scanned as if it lived at
//! `crates/openadas/src/fixture.rs`. Expected findings (rule + 1-based
//! line) live in `violations.expected`; the `fixtures` integration test
//! compares them exactly. This file is never compiled — the `fixtures`
//! directory is excluded from both the cargo build and the workspace scan.

// R1: raw f64 crossing a public API boundary of a safety-path crate.
pub fn set_target_speed(&mut self, speed: f64) {
    self.target = speed;
}

// R3: actuator command write outside the safety/controls modules.
fn hijack(&mut self) {
    self.cmd.steer_cmd = 400.0;
}

// Suppressed: the allow comment acknowledges the write with a reason.
fn acknowledged(&mut self) {
    // adas-lint: allow(R3, reason = "fixture demonstrates suppression")
    self.cmd.accel_cmd = 0.0;
}

#[cfg(test)]
mod tests {
    // Exempt: test code may write actuator fields freely.
    fn in_tests(&mut self) {
        self.cmd.brake_cmd = 1.0;
    }
}
