//! The simulation platform of the paper's Fig. 5: OpenPilot-style ADAS +
//! CARLA-substitute simulator + driver reaction simulator + attack engine,
//! wired together in lock-step, plus the experiment campaigns that
//! regenerate every table and figure of the evaluation.
//!
//! * [`Harness`] — one simulation run (5,000 × 10 ms ticks); every
//!   campaign cell is `Harness::new(config).run()`.
//! * [`HazardDetector`] — the hazards H1–H3 and accidents A1/A3 of §III-A.
//! * [`SimResult`] / [`metrics`] — per-run outcomes and aggregation.
//! * [`experiment`] — the 1,440/14,400-run campaigns (Tables IV and V).
//! * [`tables`]/[`figures`] — formatting that matches the paper's rows.
//!
//! # Examples
//!
//! ```
//! use platform::{Harness, HarnessConfig};
//! use driving_sim::{Scenario, ScenarioId};
//! use units::Distance;
//!
//! // One attack-free run (shortened to 200 ticks for the doctest).
//! let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
//! let mut harness = Harness::new(HarnessConfig::no_attack(scenario, 1));
//! for _ in 0..200 {
//!     harness.step();
//! }
//! assert!(harness.result_so_far().first_hazard.is_none());
//! ```

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

pub mod defense_campaign;
pub mod experiment;
pub mod figures;
mod harness;
mod hazard;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod resilience;
pub mod tables;
pub mod trace;

pub use defense::DefensePolicy;
pub use harness::{BatchHarness, Harness, HarnessConfig, SimResult};
pub use hazard::{AccidentKind, HazardDetector, HazardKind, HazardParams};
pub use trace::{TraceConfig, TraceRecorder};

/// Asserts a condition, attaching the newest flight-recorder ticks of a
/// [`Harness`] to the panic message so a failing integration test shows
/// *what the simulation was doing* when the expectation broke.
///
/// ```should_panic
/// use driving_sim::{Scenario, ScenarioId};
/// use platform::{trace_assert, Harness, HarnessConfig, TraceConfig};
/// use units::Distance;
///
/// let scenario = Scenario::new(ScenarioId::S2, Distance::meters(70.0));
/// let cfg = HarnessConfig::no_attack(scenario, 1).traced(TraceConfig::enabled(64));
/// let mut harness = Harness::new(cfg);
/// harness.step();
/// trace_assert!(harness, false, "always fails, printing the trace tail");
/// ```
#[macro_export]
macro_rules! trace_assert {
    ($harness:expr, $cond:expr $(,)?) => {
        $crate::trace_assert!($harness, $cond, "assertion failed: {}", stringify!($cond))
    };
    ($harness:expr, $cond:expr, $($arg:tt)+) => {
        if !$cond {
            panic!(
                "{}\nlast trace ticks:\n{}",
                format!($($arg)+),
                $harness.trace_tail(12)
            );
        }
    };
}
