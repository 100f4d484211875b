//! Defenses against strategic actuator-command attacks — the directions the
//! paper's threats-to-validity section (§V) points to:
//!
//! * [`ControlInvariantDetector`] — control-invariant checking in the style
//!   of Choi et al. (CCS'18): predict the vehicle's response from the
//!   *commands the ADAS issued* and raise an alarm when the measured
//!   response deviates persistently (CUSUM). A man-in-the-middle that
//!   replaces commands after the controller necessarily breaks this
//!   invariant, no matter how well its values respect the safety envelopes.
//! * [`ContextMonitor`] — context-aware command monitoring in the style of
//!   the paper's own reference [31]: the *defensive mirror* of the attack's
//!   Table I. It watches the executed actuator commands and flags any that
//!   are unsafe in the current driving context — precisely the
//!   (context, action) pairs the attack must use to cause hazards.
//! * [`CanIds`] — CAN intrusion detection over the delivered actuator
//!   frames: per-message timing, rolling-counter continuity and checksum
//!   history. The paper's attacker repairs counters and checksums after
//!   rewriting a frame, so this detector targets what that discipline
//!   cannot hide — a bus that drops, duplicates or corrupts frames (the
//!   fault-injection campaigns), complementing the two attack-facing
//!   detectors above.
//!
//! All defenses sit at the last computational stage, after the attack's
//! injection point, which is where the paper concludes robust checks
//! belong. How their verdicts act on the vehicle is the harness's
//! [`DefensePolicy`].
//!
//! # Examples
//!
//! ```
//! use defense::{ContextMonitor, MonitorVerdict};
//! use units::{Accel, Angle, Distance, Seconds, Speed, Tick};
//!
//! let mut monitor = ContextMonitor::default();
//! let obs = defense::ContextObservation {
//!     v_ego: Speed::from_mph(60.0),
//!     hwt: Some(Seconds::new(1.8)),
//!     rs: Some(Speed::from_mph(10.0)),
//!     d_left: Distance::meters(1.0),
//!     d_right: Distance::meters(0.9),
//! };
//! // Accelerating while closing inside the safe headway: unsafe-in-context.
//! let verdict = monitor.check(
//!     Tick::ZERO,
//!     &obs,
//!     Accel::from_mps2(2.0),
//!     Angle::ZERO,
//! );
//! assert_eq!(verdict, MonitorVerdict::Suspicious);
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

mod ids;
mod invariant;
mod monitor;

pub use ids::{CanIds, DefensePolicy, IdsConfig, IdsVerdict};
pub use invariant::{ControlInvariantDetector, InvariantConfig};
pub use monitor::{ContextMonitor, ContextObservation, MonitorConfig, MonitorVerdict};
