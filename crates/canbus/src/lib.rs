//! A virtual Controller Area Network with DBC-style signal codecs.
//!
//! OpenPilot controls the car by writing actuator commands onto the CAN bus
//! (steering torque on message `0xE4` for Hondas, gas/brake on companion
//! messages), encoded per the open-source
//! [opendbc](https://github.com/commaai/opendbc) database and protected by a
//! nibble-sum checksum and a 2-bit rolling counter. The paper's attack
//! corrupts exactly these frames: it decodes the target signal, overwrites it
//! with a strategic value, *recomputes the checksum* so the frame still
//! verifies, and forwards it (§III-C, Fig. 4).
//!
//! This crate provides every piece of that path:
//!
//! * [`CanFrame`] — a raw frame (11-bit id + up to 8 data bytes),
//! * [`Signal`]/[`MessageSpec`] — DBC-style signal layout with scaling,
//! * [`checksum`] — the Honda-style nibble checksum and rolling counter,
//! * [`VirtualCarDbc`] — the message database of the simulated vehicle,
//!   compile-time data: every signal (such as [`STEER_ANGLE_CMD`]) and
//!   message is a `const`, and building the database costs nothing,
//! * [`Encoder`]/[`decode`] — codecs that maintain counters and verify
//!   checksums (receivers drop frames that fail verification),
//! * [`CanBus`] — a frame queue with a man-in-the-middle [`Interceptor`]
//!   hook (the attack's injection point) and a [`Capture`] log.
//!
//! # Examples
//!
//! ```
//! use canbus::{VirtualCarDbc, Encoder, decode};
//!
//! // The database is `const` data: no allocation, no lookup table.
//! const DBC: VirtualCarDbc = VirtualCarDbc::new();
//! let steer = DBC.steering_control();
//! let mut enc = Encoder::new();
//!
//! // Encode a 0.25 degree steering command...
//! let frame = enc.encode(steer, &[("STEER_ANGLE_CMD", 0.25), ("STEER_REQ", 1.0)])?;
//! assert_eq!(frame.id(), 0xE4);
//!
//! // ...and decode it back, verifying the checksum.
//! let signals = decode(steer, &frame)?;
//! assert!((signals["STEER_ANGLE_CMD"] - 0.25).abs() < 1e-9);
//! # Ok::<(), canbus::CanError>(())
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
pub mod checksum;
mod codec;
mod dbc;
mod error;
mod frame;
mod signal;

pub use bus::{BusStats, CanBus, Capture, Interceptor};
pub use codec::{decode, decode_signal, decode_unchecked, rewrite_signal, Encoder};
pub use dbc::{
    VirtualCarDbc, ACCEL_CMD, BRAKE_CMD, BRAKE_COMMAND_ID, BRAKE_REQ, GAS_COMMAND_ID, GAS_REQ,
    STEERING_CONTROL_ID, STEER_ANGLE_CMD, STEER_REQ, STEER_STATUS_ID, WHEEL_SPEEDS_ID,
};
pub use error::CanError;
pub use frame::CanFrame;
pub use signal::{ByteOrder, MessageSpec, Signal};
