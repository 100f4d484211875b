//! A control-level urban driving simulator — the CARLA substitute of this
//! reproduction.
//!
//! The paper evaluates its attacks inside CARLA, but everything the attack
//! and the ADAS observe is *control-level* state: ego speed, lane-line
//! positions, the gap and relative speed to a lead vehicle. This crate
//! simulates exactly that state:
//!
//! * [`Road`] — lane geometry in road-aligned (Frenet) coordinates with a
//!   gentle left curve and guardrails, matching the paper's track (the ego
//!   "travels on a left-curved road" initialised "closer to the right
//!   guardrail", which is why Steering-Right attacks out-perform
//!   Steering-Left ones);
//! * [`Vehicle`] — a kinematic bicycle model with first-order actuator lag;
//! * [`LeadBehavior`]/[`Scenario`] — the paper's driving scenarios S1–S4 at
//!   initial gaps of 50/70/100 m;
//! * [`SensorSuite`] — GPS / radar / lane-perception models with seeded
//!   noise, whose samples become Cereal-style messages
//!   ([`msgbus::schema::SensorFeed`]);
//! * [`World`] — the lock-step simulation (10 ms per tick), plus collision
//!   and lane-invasion detection.
//!
//! # Examples
//!
//! ```
//! use driving_sim::{Scenario, ScenarioId, World, ActuatorCommand};
//! use units::{Accel, Angle, Distance};
//!
//! // Lead cruising at 35 mph, 70 m ahead (scenario S1).
//! let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
//! let mut world = World::new(scenario, 42);
//!
//! // Coast for one second.
//! for _ in 0..100 {
//!     world.step(ActuatorCommand { accel: Accel::ZERO, steer: Angle::ZERO });
//! }
//! assert!(world.ego().speed().mph() > 50.0);
//! assert!(world.gap().raw() < 70.0, "ego is faster, so the gap closes");
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

mod collision;
mod lead;
mod neighbor;
mod noise;
mod road;
mod scenario;
mod sensors;
mod vehicle;
mod world;

pub use collision::{CollisionKind, LaneInvasionTracker};
pub use lead::{LeadBehavior, LeadVehicle};
pub use neighbor::NeighborTraffic;
pub use noise::OrnsteinUhlenbeck;
pub use road::Road;
pub use scenario::{Scenario, ScenarioId, INITIAL_GAPS};
pub use sensors::{SensorFrame, SensorSuite, RADAR_RANGE};
pub use vehicle::{ActuatorCommand, Vehicle, VehicleParams};
pub use world::World;
