//! A Cereal-style typed publisher/subscriber message bus.
//!
//! OpenPilot's internal processes exchange state over
//! [Cereal](https://github.com/commaai/cereal), a pub/sub messaging layer in
//! which sensing and perception modules publish events (`gpsLocationExternal`,
//! `modelV2`, `radarState`, …) that control modules — *and any malicious
//! software that manages to run on the device* — can subscribe to (paper
//! §III-C, Fig. 3). This crate reproduces those semantics in-process:
//!
//! * [`schema`] defines the typed message payloads (the `log.capnp`
//!   equivalent),
//! * [`Topic`] names the event streams,
//! * [`Bus`] delivers every published [`Envelope`] to all matching
//!   [`Subscriber`]s, with no access control — which is precisely the
//!   vulnerability the attack's eavesdropping step exploits.
//!
//! # Examples
//!
//! ```
//! use msgbus::{Bus, Topic, Payload};
//! use msgbus::schema::GpsLocation;
//! use units::{Speed, Angle, Tick};
//!
//! let bus = Bus::new();
//! // A (possibly malicious) subscriber taps the GPS stream.
//! let mut eavesdropper = bus.subscribe(&[Topic::GpsLocationExternal]);
//!
//! bus.publish(Tick::ZERO, Payload::GpsLocationExternal(GpsLocation {
//!     speed: Speed::from_mph(60.0),
//!     bearing: Angle::ZERO,
//! }));
//!
//! let messages = eavesdropper.drain();
//! assert_eq!(messages.len(), 1);
//! assert_eq!(messages[0].topic(), Topic::GpsLocationExternal);
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

mod bus;
mod envelope;
pub mod schema;
mod topic;

pub use bus::{Bus, Subscriber};
pub use envelope::Envelope;
pub use schema::Payload;
pub use topic::Topic;
