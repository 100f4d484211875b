//! The Context-Aware safety-critical attack engine — the primary
//! contribution of *Strategic Safety-Critical Attacks Against an Advanced
//! Driver Assistance System* (Zhou et al., DSN 2022).
//!
//! The engine executes the four-step procedure of the paper's §III-C:
//!
//! 1. **Eavesdropping** ([`Eavesdropper`]) — subscribe to the ADAS's pub/sub
//!    messaging (`gpsLocationExternal`, `modelV2`, `radarState`, …) exactly
//!    like a legitimate module would; there is no authentication.
//! 2. **Safety context inference** ([`ContextInference`]) — derive the
//!    human-interpretable state variables of the safety specification:
//!    headway time `HWT`, relative speed `RS`, distances to the lane edges
//!    `d_left` / `d_right`.
//! 3. **Attack type and activation-time selection** ([`ContextTable`],
//!    [`AttackScheduler`]) — match the live state against the STPA-style
//!    context table (Table I) and activate the attack in the most critical
//!    context; or, for the baselines, at a random time.
//! 4. **Strategic value corruption** ([`CorruptionPolicy`], [`Injector`]) —
//!    translate the attack action into actuator values that stay inside the
//!    ADAS safety envelope (Eq. 1–3, with a Kalman-style speed predictor
//!    keeping `v ≤ 1.1 v_cruise`), rewrite the target CAN frames and repair
//!    their checksums.
//!
//! [`AttackEngine`] glues the steps together and records an
//! [`AttackTimeline`] (`t_a`, `t_d`, …) for evaluation.
//!
//! # Examples
//!
//! ```
//! use attack_core::{AttackConfig, AttackEngine, AttackType, StrategyKind, ValueMode};
//! use msgbus::Bus;
//!
//! let bus = Bus::new();
//! let config = AttackConfig {
//!     attack_type: AttackType::Acceleration,
//!     strategy: StrategyKind::ContextAware,
//!     value_mode: ValueMode::Strategic,
//!     seed: 7,
//!     ..AttackConfig::default()
//! };
//! let engine = AttackEngine::new(&bus, config);
//! assert!(!engine.is_active(), "waits for a critical context");
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

mod attack_type;
mod config;
mod context;
mod corruption;
mod eavesdrop;
mod engine;
mod injector;
pub mod recon;
mod rules;
mod scheduler;
mod timeline;

pub use attack_type::{AttackAction, AttackType, SteerDirection};
pub use config::{AttackConfig, ValueMode};
pub use context::{ContextInference, ContextState};
pub use corruption::{CorruptionPolicy, SpeedPredictor};
pub use eavesdrop::{Eavesdropper, Observations};
pub use engine::AttackEngine;
pub use injector::{AttackValues, Injector};
pub use rules::{ContextRule, ContextTable, PotentialHazard, RuleParams};
pub use scheduler::{AttackScheduler, StrategyKind};
pub use timeline::AttackTimeline;
