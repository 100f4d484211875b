//! Meta-crate for the ADAS attack reproduction workspace.
//!
//! This package hosts the runnable [examples](https://github.com/example/adas-attack-repro)
//! and cross-crate integration tests. The substance lives in the member
//! crates; the most useful entry points are re-exported here.

#![forbid(unsafe_code)]

pub use attack_core;
pub use canbus;
pub use driver_model;
pub use driving_sim;
pub use msgbus;
pub use openadas;
pub use platform;
pub use units;
