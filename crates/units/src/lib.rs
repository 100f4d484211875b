//! Physical-quantity newtypes and the simulation clock shared by every crate
//! in the ADAS attack reproduction workspace.
//!
//! The paper (Zhou et al., DSN 2022) mixes imperial and metric units freely:
//! cruise speeds are given in mph, accelerations in m/s², steering limits in
//! degrees, and the simulation advances in 10 ms control cycles. Mixing those
//! up silently is exactly the kind of bug that would invalidate a
//! reproduction, so each quantity gets its own newtype with explicit
//! conversions ([`Speed::from_mph`], [`Angle::from_degrees`], …).
//!
//! # Examples
//!
//! ```
//! use units::{Speed, Angle, DT};
//!
//! let cruise = Speed::from_mph(60.0);
//! assert!((cruise.mps() - 26.8224).abs() < 1e-4);
//!
//! let steer = Angle::from_degrees(0.5);
//! assert!((steer.radians() - 0.00872665).abs() < 1e-6);
//!
//! // One control cycle is 10 ms.
//! assert_eq!(DT.secs(), 0.01);
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

mod angle;
mod clock;
pub mod limits;
pub mod mix;
mod quantity;

pub use angle::Angle;
pub use clock::{SimClock, Tick, DT, SIM_DURATION, STEPS_PER_SIM};
pub use mix::{mix_seed, splitmix64};
pub use quantity::{Accel, Distance, Seconds, Speed};
