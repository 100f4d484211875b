//! An OpenPilot-style Advanced Driver Assistance System.
//!
//! Implements the functional specification the paper attacks (§II-A):
//! Automated Lane Centering (ALC) and Adaptive Cruise Control (ACC) built
//! from Cereal-style sensor messages, with the ISO-22179-inspired safety
//! principles OpenPilot documents:
//!
//! * longitudinal commands clamped to `[-3.5, +2.0] m/s²` (software limits
//!   `[-4.0, +2.4]`, see [`SafetyLimits`]),
//! * steering limited so the car cannot deviate from its path faster than a
//!   driver can react,
//! * a *steer saturated* alert when the lateral controller wants more
//!   steering than the limit allows,
//! * a Forward Collision Warning tied to the brake output exceeding the
//!   safety threshold — which, as the paper observes, never fires during the
//!   attacks because the corrupted brake command is kept inside the envelope,
//! * a Panda-style CAN safety model ([`PandaSafety`]) that can gate outgoing
//!   actuator frames.
//!
//! The top-level [`Adas`] consumes one [`msgbus::schema::SensorFeed`] of
//! sensor messages per 10 ms tick — drained from the bus or handed over
//! directly — and emits a [`msgbus::schema::CarControl`] plus the
//! corresponding CAN frames.

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

mod acc;
mod adas;
mod alc;
mod alerts;
mod controls;
mod degradation;
mod kalman;
mod panda;
mod perception;
mod plausibility;
mod radar;
mod safety;
mod state;

pub use acc::{AccController, AccOutput};
pub use adas::{Adas, AdasOutput};
pub use alc::{AlcController, AlcOutput};
pub use alerts::AlertManager;
pub use controls::{CommandEncoder, QuantizedCycle};
pub use degradation::{
    DegradationMonitor, DegradationState, DEGRADE_AFTER, FAILSAFE_AFTER, FAILSAFE_BRAKE,
    GENTLE_BRAKE, RECOVERY_TICKS,
};
pub use kalman::Kalman1D;
pub use panda::{PandaSafety, PandaVerdict};
pub use perception::{LaneEstimate, LaneProcessor};
pub use plausibility::{GateConfig, PerceptionGates, STALE_AFTER_TICKS};
pub use radar::{LeadEstimate, LeadTracker};
pub use safety::{Enveloped, SafetyLimits};
pub use state::CarStateEstimator;
