//! Seeded violations for the concurrency/allocation layer (R12/R13/R14).
//!
//! Scanned as `crates/platform/src/fixture.rs` so the concurrency scope
//! applies. Every finding is pinned by (rule, line) in
//! `concurrency_violations.expected`; drift in either direction fails the
//! `concurrency_fixtures` suite.

use std::sync::{Condvar, Mutex, PoisonError};

pub struct Harness {
    scratch: Vec<u64>,
}

impl Harness {
    /// R13 root: the steady-state tick must be allocation-free, yet this
    /// one stages a fresh buffer and grows a Vec every call.
    pub fn step(&mut self) {
        let staged: Vec<u64> = Vec::with_capacity(8);
        self.scratch.push(1);
        drop(staged);
    }
}

/// Stands in for the campaign fan-out, `experiment::run_campaign_cells`:
/// its cells run on other threads while the caller waits.
pub fn run_campaign_cells(cells: Vec<u32>) -> Vec<u32> {
    cells
}

pub struct Pool {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
    gate: Mutex<bool>,
    cv: Condvar,
}

impl Pool {
    /// R12: takes `alpha` then `beta`, while `ba` takes them in the
    /// opposite order — a lock-order cycle.
    pub fn ab(&self) {
        let _a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);
        self.take_beta();
    }

    fn take_beta(&self) {
        let _b = self.beta.lock().unwrap_or_else(PoisonError::into_inner);
    }

    pub fn ba(&self) {
        let _b = self.beta.lock().unwrap_or_else(PoisonError::into_inner);
        self.take_alpha();
    }

    fn take_alpha(&self) {
        let _a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);
    }

    /// R12: the guard is consumed by `expect` and this file documents no
    /// poisoning policy.
    pub fn peek(&self) -> u32 {
        *self.alpha.lock().expect("alpha poisoned")
    }

    /// R12: waits without re-checking the predicate in a loop — wakeups
    /// are allowed to be spurious.
    pub fn await_gate(&self) {
        let g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }

    /// R12: a guard is still held across the fan-out `run_campaign_cells`,
    /// so every cell that needs the lock stalls behind this caller.
    pub fn fan_out_under_guard(&self, cells: Vec<u32>) {
        let _a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);
        run_campaign_cells(cells);
    }

    /// R14: results merged in arrival order under the lock — the output
    /// depends on thread scheduling, not on lane index.
    pub fn merge(&self, out: &Mutex<Vec<u32>>, v: u32) {
        let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
        g.push(v);
    }
}

/// R14: unsynchronized shared mutable state.
pub static mut TICKS: u64 = 0;
