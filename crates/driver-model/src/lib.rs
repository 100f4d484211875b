//! The human-driver reaction simulator of the paper's §IV-B.
//!
//! The simulated driver is *alerted* when the ADAS raises any safety alarm or
//! when an anomaly in vehicle behaviour is observable — a hard brake
//! (`|brake| > 3.5 m/s²`), an unexpected acceleration (`> 2 m/s²`), excessive
//! steering, or the speed exceeding the cruise set-speed by more than 10%.
//! Anomalies lasting even a single 10 ms step attract attention (the paper's
//! conservative choice, to make the attack harder). The driver then takes
//! 2.5 s — the average perception-plus-reaction time from the AV literature —
//! before physically acting, and brakes along the exponential curve of Eq. 4:
//!
//! ```text
//! brake(t) = e^(10 t − 12) / (1 + e^(10 t − 12))
//! ```
//!
//! while steering back toward the lane centre. The attack engine is expected
//! to stop injecting as soon as the driver engages.
//!
//! # Examples
//!
//! ```
//! use driver_model::{Driver, DriverConfig, Observation};
//! use units::{Accel, Angle, Distance, Speed, Tick};
//!
//! let mut driver = Driver::new(DriverConfig::alert());
//! let anomalous = Observation {
//!     speed: Speed::from_mph(60.0),
//!     v_cruise: Speed::from_mph(60.0),
//!     accel_cmd: Accel::from_mps2(2.4), // above the 2.0 threshold
//!     steer_cmd: Angle::ZERO,
//!     adas_alert: false,
//!     lane_offset: Distance::ZERO,
//!     lead_gap: None,
//! };
//! assert!(driver.step(Tick::ZERO, &anomalous).is_none());
//! assert!(driver.noticed_at().is_some(), "single-step anomaly noticed");
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

mod config;
mod driver;
mod reaction;

pub use config::DriverConfig;
pub use driver::{AnomalyKind, Driver, DriverCommand, DriverPhase, Observation};
pub use reaction::brake_curve;
