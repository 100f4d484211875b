//! Deterministic, seedable fault injection for the simulation platform.
//!
//! The attack engine (`crates/core`) models an *adversary* corrupting
//! actuator frames at the worst moment; this crate models the *mundane*
//! failures every real ADAS must degrade through — sensor dropout, stuck
//! readings, noise bursts, stale data, CAN errors and IPC message loss.
//! Keeping both in the same harness lets a resilience campaign separate
//! attack impact from plain fragility: a safety claim about the degradation
//! layer is only credible if benign faults are part of the test matrix.
//!
//! Design constraints, shared with the rest of the workspace:
//!
//! * **Deterministic**: every draw is a stateless hash of
//!   `(seed, tick, slot, salt)` — no RNG state, no wall clock, so the same
//!   seed reproduces the same faulted run bit for bit, and fault draws never
//!   perturb the simulation's own RNG streams.
//! * **Allocation-free after construction**: the engine allocates its
//!   history ring once in [`FaultEngine::new`], and only for a schedule
//!   with a latency-class fault; `apply_sensors` / `apply_can` never touch
//!   the heap, preserving the zero-allocation warm-tick invariant.
//! * **Idle outside its windows**: with no window open, `apply_sensors`
//!   returns the sample stamped at the current tick and `apply_can`
//!   returns at once, so the harness encodes actuator frames only while
//!   [`FaultEngine::can_active`] (or something else reads them).
//! * **Panic-free**: the per-tick path is reachable from `Harness::step`,
//!   so the crate uses no indexing, `unwrap` or panicking macros (clippy's
//!   panic lints, denied below).
//!
//! See `EXPERIMENTS.md` ("Resilience campaigns") for the fault grammar.

#![forbid(unsafe_code)]
// Panic-freedom on the safety path (sensors → ADAS → CAN): library code
// degrades, never aborts the control loop. `clippy.toml` exempts tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#![warn(missing_docs)]

mod engine;
mod spec;

pub use engine::FaultEngine;
pub use spec::{FaultKind, FaultSchedule, FaultSpec, FaultTarget, MAX_FAULTS};
