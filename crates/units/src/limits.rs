//! Canonical numeric safety limits — the single source of truth for every
//! envelope, gate threshold and escalation constant in the workspace.
//!
//! The paper's safety argument is numeric: a strategic attack succeeds
//! exactly when a corrupted value slips past a bound the stack assumed but
//! never proved. Before this module existed, those bounds lived as literals
//! scattered across `openadas/safety.rs`, `openadas/plausibility.rs`,
//! `openadas/degradation.rs`, `defense/ids.rs` and `core/corruption.rs`,
//! free to drift independently. Now each constant is declared once, here,
//! and the compiler checks how they relate:
//!
//! * every ordering the stack relies on is a `const` assertion beside the
//!   constants it names (envelopes nest strict ⊆ software ⊆ physical, and
//!   the simulated plant saturates between software and physical; the
//!   plausibility gates' [`GATE_MAX_SPEED_JUMP_MPS`] exceeds the per-tick
//!   speed change the envelope lets the controller command; the escalation
//!   ticks are ordered), so a retuned constant that breaks one fails
//!   `cargo build` with E0080;
//! * no clamp pair built from these constants is inverted (the same
//!   assertions), so `f64::clamp` can never panic on them;
//! * the physical envelope bounds `openadas::Enveloped`, the only command
//!   type the CAN encoder accepts.
//!
//! All values are plain numerics (unit suffix in the name); the newtype
//! wrappers are applied at the use site.

/// Physical envelope: max forward acceleration command (m/s²) that may go
/// on the bus at all, the bound `openadas::Enveloped` admits. Every other
/// acceleration limit here sits inside it.
pub const PHYS_ACCEL_MAX_MPS2: f64 = 5.0;

/// Physical envelope: max braking command (m/s², negative) that may go on
/// the bus at all — roughly 1 g, the tyre friction ceiling.
pub const PHYS_BRAKE_MIN_MPS2: f64 = -9.8;

/// The simulated plant's acceleration saturation (m/s²): the strongest
/// acceleration `driving_sim`'s vehicle model executes, whatever it is
/// commanded. A command between it and [`PHYS_ACCEL_MAX_MPS2`] goes on
/// the bus as sent and is clipped by the plant.
pub const PLANT_ACCEL_MAX_MPS2: f64 = 3.0;

/// The simulated plant's braking saturation (m/s², negative): the hardest
/// deceleration the vehicle model executes. A command between it and
/// [`PHYS_BRAKE_MIN_MPS2`] goes on the bus as sent and is clipped by the
/// plant.
pub const PLANT_BRAKE_MIN_MPS2: f64 = -8.0;

/// Hard physical plant limit: max steering-angle command magnitude
/// (degrees) the EPS rack accepts at speed.
pub const PHYS_STEER_MAX_DEG: f64 = 5.0;

/// ADAS software envelope (Table III footnote 1): max acceleration command
/// (m/s²).
pub const SW_ACCEL_MAX_MPS2: f64 = 2.4;

/// ADAS software envelope: max braking command (m/s², negative).
pub const SW_BRAKE_MIN_MPS2: f64 = -4.0;

/// ADAS software envelope: max steering-angle command magnitude (degrees).
pub const SW_STEER_MAX_DEG: f64 = 0.5;

/// ADAS software envelope: overspeed tolerance as a factor of the cruise
/// set-point.
pub const SW_OVERSPEED_FACTOR: f64 = 1.15;

/// Strict (firmware/Panda-shaped) envelope (Table III footnote 2): max
/// acceleration command (m/s²).
pub const STRICT_ACCEL_MAX_MPS2: f64 = 2.0;

/// Strict envelope: max braking command (m/s², negative).
pub const STRICT_BRAKE_MIN_MPS2: f64 = -3.5;

/// Strict envelope: max steering-angle command magnitude (degrees).
pub const STRICT_STEER_MAX_DEG: f64 = 0.25;

/// Strict envelope: overspeed ceiling factor (the paper's Eq. 1).
pub const STRICT_OVERSPEED_FACTOR: f64 = 1.1;

const _: () = assert!(
    STRICT_ACCEL_MAX_MPS2 <= SW_ACCEL_MAX_MPS2 && SW_ACCEL_MAX_MPS2 <= PHYS_ACCEL_MAX_MPS2,
    "acceleration envelopes must nest: strict <= software <= physical"
);
const _: () = assert!(
    STRICT_BRAKE_MIN_MPS2 >= SW_BRAKE_MIN_MPS2 && SW_BRAKE_MIN_MPS2 >= PHYS_BRAKE_MIN_MPS2,
    "braking envelopes must nest: strict >= software >= physical (all negative)"
);
const _: () = assert!(
    SW_ACCEL_MAX_MPS2 <= PLANT_ACCEL_MAX_MPS2 && PLANT_ACCEL_MAX_MPS2 <= PHYS_ACCEL_MAX_MPS2,
    "the plant's acceleration saturation must lie inside the physical envelope and \
     execute every command the software envelope allows"
);
const _: () = assert!(
    SW_BRAKE_MIN_MPS2 >= PLANT_BRAKE_MIN_MPS2 && PLANT_BRAKE_MIN_MPS2 >= PHYS_BRAKE_MIN_MPS2,
    "the plant's braking saturation must lie inside the physical envelope and execute \
     every command the software envelope allows (all negative)"
);
const _: () = assert!(
    STRICT_STEER_MAX_DEG <= SW_STEER_MAX_DEG && SW_STEER_MAX_DEG <= PHYS_STEER_MAX_DEG,
    "steering envelopes must nest: strict <= software <= physical"
);
const _: () = assert!(
    1.0 < STRICT_OVERSPEED_FACTOR && STRICT_OVERSPEED_FACTOR <= SW_OVERSPEED_FACTOR,
    "overspeed factors must satisfy 1 < strict <= software; a factor at or below 1 \
     rejects the cruise set-point itself"
);
// The envelopes' clamp pairs (`[BRAKE_MIN, ACCEL_MAX]`, `[-STEER_MAX,
// STEER_MAX]`, and the strategic corruption's `[0, STRICT_ACCEL_MAX]`) are
// ordered for the innermost envelope, so by the nesting above for every one.
const _: () = assert!(
    STRICT_BRAKE_MIN_MPS2 < 0.0 && 0.0 < STRICT_ACCEL_MAX_MPS2 && 0.0 < STRICT_STEER_MAX_DEG,
    "no clamp pair built from the envelopes may be inverted: f64::clamp panics on one"
);

/// Graceful-degradation ladder: gentle controlled-stop deceleration (m/s²)
/// commanded in `DegradedAccOff`.
pub const GENTLE_BRAKE_MPS2: f64 = -1.0;

/// Graceful-degradation ladder: fail-safe controlled-stop deceleration
/// (m/s²). Stronger than [`GENTLE_BRAKE_MPS2`], still well inside
/// [`SW_BRAKE_MIN_MPS2`] so the stop itself never violates the envelope.
pub const FAILSAFE_BRAKE_MPS2: f64 = -2.5;

const _: () = assert!(
    SW_BRAKE_MIN_MPS2 <= FAILSAFE_BRAKE_MPS2
        && FAILSAFE_BRAKE_MPS2 <= GENTLE_BRAKE_MPS2
        && GENTLE_BRAKE_MPS2 < 0.0,
    "controlled stops must order SW_BRAKE_MIN <= FAILSAFE_BRAKE <= GENTLE_BRAKE < 0, \
     so the stop itself never violates the envelope it enforces"
);

/// Ticks of continuous stream trouble before the ladder leaves `Nominal`.
pub const DEGRADE_AFTER_TICKS: u32 = 25;

/// Ticks of continuous stream trouble before the ladder enters `FailSafe`.
pub const FAILSAFE_AFTER_TICKS: u32 = 150;

const _: () = assert!(
    DEGRADE_AFTER_TICKS < FAILSAFE_AFTER_TICKS,
    "the degradation ladder must pass through the degraded rungs before fail-safe"
);

/// Ticks of clean data required before the ladder steps back down
/// (hysteresis).
pub const RECOVERY_TICKS: u32 = 100;

/// Max age, in ticks, of a sensor payload's sample timestamp before the
/// stream counts as stale even though the message arrived this tick.
pub const STALE_AFTER_TICKS: u64 = 5;

const _: () = assert!(
    STALE_AFTER_TICKS < DEGRADE_AFTER_TICKS as u64,
    "staleness must be detected before the degradation ladder escalates, else the \
     ladder escalates on data it never classified as stale"
);

/// Plausibility gates: normalized-innovation threshold in sigmas.
pub const GATE_INNOVATION_SIGMA: f64 = 6.0;

/// Plausibility gates: max ego-speed change per tick (m/s) between
/// accepted readings. Must exceed the largest per-tick speed change the
/// envelope allows the controller to command (`SW_ACCEL_MAX_MPS2 × DT`
/// and `−SW_BRAKE_MIN_MPS2 × DT`, asserted below).
pub const GATE_MAX_SPEED_JUMP_MPS: f64 = 1.0;

const _: () = assert!(
    GATE_MAX_SPEED_JUMP_MPS > SW_ACCEL_MAX_MPS2 * crate::DT.secs(),
    "the gate's per-tick speed allowance must exceed the speed change the software \
     envelope lets the controller command in one tick, else legitimate control \
     authority is rejected as implausible"
);
const _: () = assert!(
    GATE_MAX_SPEED_JUMP_MPS > -SW_BRAKE_MIN_MPS2 * crate::DT.secs(),
    "the gate's per-tick speed allowance must exceed the per-tick speed change of a \
     maximal envelope brake"
);

/// Plausibility gates: max lead-distance change per tick (m).
pub const GATE_MAX_DIST_JUMP_M: f64 = 4.0;

/// Plausibility gates: max lead-speed change per tick (m/s).
pub const GATE_MAX_LEAD_SPEED_JUMP_MPS: f64 = 3.0;

/// Plausibility gates: max lane-offset change per tick (m), reduced modulo
/// the lane width.
pub const GATE_MAX_OFFSET_JUMP_M: f64 = 0.5;

/// Plausibility gates: bit-identical consecutive readings before a stream
/// is stuck.
pub const GATE_STUCK_AFTER: u32 = 5;

/// Plausibility gates: self-consistent ticks before a bound-violating
/// stream re-anchors. Must stay below [`DEGRADE_AFTER_TICKS`] so a
/// legitimate discontinuity is re-acquired before the ladder escalates
/// (asserted below).
pub const GATE_REACQUIRE_AFTER: u32 = 15;

const _: () = assert!(
    GATE_REACQUIRE_AFTER < DEGRADE_AFTER_TICKS,
    "a bound-violating stream must re-anchor before the degradation ladder \
     escalates, else a legitimate discontinuity degrades the stack"
);

/// Plausibility gates: ego-speed reading (m/s) below which the stuck
/// detector disarms.
pub const GATE_MIN_MOVING_SPEED_MPS: f64 = 0.5;

/// Plausibility gates: cap, in ticks, on the rejected-stream jump
/// allowance growth.
pub const GATE_ELAPSED_CAP: u32 = 10;

/// CAN IDS: consecutive missing cycles before timing events accrue.
pub const IDS_MISS_AFTER: u32 = 10;

/// CAN IDS: leaky-score threshold for timing events.
pub const IDS_TIMING_THRESHOLD: u32 = 10;

const _: () = assert!(
    IDS_MISS_AFTER + IDS_TIMING_THRESHOLD < DEGRADE_AFTER_TICKS,
    "the CAN IDS must be able to raise a timing alert before the degradation ladder \
     escalates"
);

/// CAN IDS: leaky-score threshold for rolling-counter discontinuities.
pub const IDS_COUNTER_THRESHOLD: u32 = 5;

/// CAN IDS: leaky-score threshold for checksum failures.
pub const IDS_CHECKSUM_THRESHOLD: u32 = 4;
