//! Plausibility gates: content-level vetting of sensor readings.
//!
//! The staleness watchdogs in [`degradation`](crate::degradation) notice a
//! stream that goes *silent*; these gates notice a stream that keeps
//! talking but stops making sense. Three checks run on every reading
//! before the estimators fuse it:
//!
//! * **Innovation bound** — a measurement whose normalized Kalman
//!   innovation exceeds a chi-square-style sigma threshold is implausible
//!   against everything the filter has learned.
//! * **Rate limit** — lead distance, relative speed, ego speed and lane
//!   position cannot physically jump more than a bounded amount per tick.
//!   The lane limit is wrap-aware: a re-anchoring jump of exactly one lane
//!   width (the perception model snapping to the next lane's centre) is a
//!   legitimate discontinuity, not corruption.
//! * **Stuck detector** — N bit-identical consecutive readings from a
//!   noisy sensor while the ego is moving cannot occur naturally; the
//!   stream is frozen even though messages keep arriving.
//!
//! A rejected reading is withheld from the estimators and the stream is
//! reported *not ok* to the degradation ladder, so fresh-but-wrong data
//! escalates exactly like absent data. To keep a rejected stream from
//! starving forever (e.g. truth readings after a stuck window are wildly
//! implausible against the frozen estimate), a stream **re-anchors**: once
//! the incoming readings have been self-consistent for
//! [`GateConfig::reacquire_after`] ticks, the next reading is accepted
//! even though it violates the bounds, and the filters re-converge.
//! `reacquire_after` is deliberately shorter than
//! [`DEGRADE_AFTER`](crate::DEGRADE_AFTER), so a legitimate discontinuity
//! (a radar track switch) is re-acquired before the ladder escalates.
//!
//! Known limitation: a stream frozen at a *near-zero* speed is
//! indistinguishable from a legitimate standstill (the GPS clamps noise at
//! exactly 0.0 when stopped), so the stuck detector only arms above
//! [`GateConfig::min_moving_speed`]. Spoofed-but-smooth values below every
//! bound are the §V detectors' problem (context monitor, control
//! invariants), not the gates'.

use msgbus::schema::{GpsLocation, LaneModel, RadarState};
use units::mix::splitmix64;
use units::{limits, Tick};

use crate::{CarStateEstimator, LeadTracker};

/// Maximum age, in ticks, of a sensor payload's sample timestamp before
/// the stream counts as stale even though the message *arrived* this tick.
/// Closes the replayed-history blind spot: a latency or bus-delay fault
/// republishes old readings whose envelope tick lags the publish tick.
/// Generous against legitimate jitter (the lock-step harness publishes at
/// age 0), tight against the fault grammar's 10-tick default delay.
pub const STALE_AFTER_TICKS: u64 = limits::STALE_AFTER_TICKS;

/// Thresholds of the plausibility gates. All defaults are calibrated to
/// never fire on the clean S1–S4 matrix (asserted by the false-positive
/// budget test in `platform/tests/defense.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Whether rejections are enforced (reading withheld, stream reported
    /// not-ok) or merely counted (observe mode).
    pub enforce: bool,
    /// Normalized-innovation threshold in sigmas.
    pub innovation_sigma: f64,
    /// Max ego-speed change per tick (m/s) between accepted readings.
    pub max_speed_jump: f64,
    /// Max lead-distance change per tick (m) between accepted readings.
    pub max_dist_jump: f64,
    /// Max lead-speed change per tick (m/s) between accepted readings.
    pub max_lead_speed_jump: f64,
    /// Max lane-offset change per tick (m), reduced modulo the lane width
    /// so re-anchoring jumps pass.
    pub max_offset_jump: f64,
    /// Bit-identical consecutive readings before a stream is stuck.
    pub stuck_after: u32,
    /// Self-consistent incoming ticks before a bound-violating stream
    /// re-anchors. Must stay below `DEGRADE_AFTER` so legitimate
    /// discontinuities never walk the ladder.
    pub reacquire_after: u32,
    /// Ego-speed reading (m/s) below which the stuck detector disarms
    /// (standstill readings legitimately repeat bit-for-bit).
    pub min_moving_speed: f64,
    /// Cap, in ticks, on how far the jump allowance grows while a stream
    /// is being rejected (allowance = per-tick limit × elapsed, capped).
    pub elapsed_cap: u32,
}

impl GateConfig {
    /// Gates that reject implausible readings (the `Degrade`/`FailSafe`
    /// policies).
    pub fn enforcing() -> Self {
        Self {
            enforce: true,
            innovation_sigma: limits::GATE_INNOVATION_SIGMA,
            max_speed_jump: limits::GATE_MAX_SPEED_JUMP_MPS,
            max_dist_jump: limits::GATE_MAX_DIST_JUMP_M,
            max_lead_speed_jump: limits::GATE_MAX_LEAD_SPEED_JUMP_MPS,
            max_offset_jump: limits::GATE_MAX_OFFSET_JUMP_M,
            stuck_after: limits::GATE_STUCK_AFTER,
            reacquire_after: limits::GATE_REACQUIRE_AFTER,
            min_moving_speed: limits::GATE_MIN_MOVING_SPEED_MPS,
            elapsed_cap: limits::GATE_ELAPSED_CAP,
        }
    }

    /// Gates that only count implausible readings (the `Observe` policy).
    pub fn observing() -> Self {
        Self {
            enforce: false,
            ..Self::enforcing()
        }
    }
}

impl Default for GateConfig {
    fn default() -> Self {
        Self::enforcing()
    }
}

/// Per-stream gate machinery shared by GPS, lane and radar: stuck
/// fingerprinting, re-anchor bookkeeping and the accept/reject verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StreamGate {
    /// Fingerprint of the previous incoming reading.
    last_fp: Option<u64>,
    /// Consecutive bit-identical incoming readings.
    identical_streak: u32,
    /// Consecutive self-consistent incoming readings (within the per-tick
    /// jump allowance of each other).
    consistent_streak: u32,
    /// Tick of the last accepted reading.
    last_accept: Option<u64>,
}

impl StreamGate {
    /// Updates the stuck fingerprint; returns whether this reading is
    /// bit-identical to the previous one.
    fn observe_fp(&mut self, fp: u64) -> bool {
        let identical = self.last_fp == Some(fp);
        self.identical_streak = if identical {
            self.identical_streak.saturating_add(1)
        } else {
            0
        };
        self.last_fp = Some(fp);
        identical
    }

    /// Ticks since the last accepted reading, capped; the jump allowance
    /// scales with this so a briefly-rejected stream can still re-join.
    fn elapsed(&self, tick: u64, cap: u32) -> f64 {
        match self.last_accept {
            Some(at) => (tick.saturating_sub(at)).clamp(1, u64::from(cap)) as f64,
            None => 1.0,
        }
    }

    /// Folds this tick's verdict inputs into the final accept decision and
    /// updates the re-anchor state. `stuck` and `violation` are the gate's
    /// findings for the reading; `consistent` is whether the reading sits
    /// within one tick's allowance of the *previous incoming* reading.
    fn decide(
        &mut self,
        cfg: &GateConfig,
        tick: u64,
        stuck: bool,
        violation: bool,
        consistent: bool,
    ) -> bool {
        self.consistent_streak = if consistent {
            self.consistent_streak.saturating_add(1)
        } else {
            0
        };
        let accept = if stuck {
            false
        } else if violation {
            self.consistent_streak >= cfg.reacquire_after
        } else {
            true
        };
        if accept {
            self.last_accept = Some(tick);
        }
        accept
    }
}

/// The assembled per-stream gates plus the rejection counter surfaced in
/// `SimResult`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerceptionGates {
    cfg: GateConfig,
    gps: StreamGate,
    lane: StreamGate,
    radar: StreamGate,
    /// Previous incoming values for the consistency checks.
    prev_gps_speed: Option<f64>,
    prev_lane_offset: Option<f64>,
    prev_radar: Option<(f64, f64)>,
    /// Last accepted values for the jump limits.
    accepted_gps_speed: Option<f64>,
    accepted_lane_offset: Option<f64>,
    accepted_radar: Option<(f64, f64)>,
    rejections: u64,
}

impl PerceptionGates {
    /// Creates gates with the given thresholds.
    pub fn new(cfg: GateConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Whether rejections are enforced (vs. merely counted).
    pub fn enforcing(&self) -> bool {
        self.cfg.enforce
    }

    /// Total readings flagged implausible so far (counted in both modes).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Vets one GPS reading against the speed filter. Returns whether the
    /// reading should be fused and the stream counted healthy.
    pub fn admit_gps(&mut self, tick: Tick, gps: &GpsLocation, est: &CarStateEstimator) -> bool {
        let t = tick.index();
        let z = gps.speed.mps();
        let identical = self.gps.observe_fp(splitmix64(z.to_bits()));
        let moving = z >= self.cfg.min_moving_speed;
        let stuck = moving && identical && self.gps.identical_streak >= self.cfg.stuck_after;

        let allowance = self.cfg.max_speed_jump * self.gps.elapsed(t, self.cfg.elapsed_cap);
        let jump = self
            .accepted_gps_speed
            .is_some_and(|prev| (z - prev).abs() > allowance);
        let innovation = est
            .speed_innovation(gps)
            .is_some_and(|nu| nu > self.cfg.innovation_sigma);
        let violation = jump || innovation || !z.is_finite();

        let consistent = self
            .prev_gps_speed
            .is_some_and(|prev| (z - prev).abs() <= self.cfg.max_speed_jump);
        self.prev_gps_speed = Some(z);

        let accept = self.gps.decide(&self.cfg, t, stuck, violation, consistent);
        if accept {
            self.accepted_gps_speed = Some(z);
        } else {
            self.rejections += 1;
        }
        accept || !self.cfg.enforce
    }

    /// Vets one lane-model reading. Rate-limits the lateral offset with a
    /// wrap-aware allowance (a ±lane-width re-anchor jump is legitimate)
    /// and watches for a frozen camera (lane jitter never repeats
    /// bit-for-bit on a live sensor).
    pub fn admit_lane(&mut self, tick: Tick, lane: &LaneModel) -> bool {
        let t = tick.index();
        let offset = lane.lateral_offset().raw();
        let fp = splitmix64(lane.left_line.raw().to_bits())
            ^ splitmix64(lane.right_line.raw().to_bits().rotate_left(1))
            ^ splitmix64(lane.curvature.to_bits().rotate_left(2));
        let identical = self.lane.observe_fp(fp);
        let stuck = identical && self.lane.identical_streak >= self.cfg.stuck_after;

        let width = lane.lane_width.raw().abs().max(1e-6);
        let wrap_jump = |a: f64, b: f64| {
            let d = (a - b).abs() % width;
            d.min(width - d)
        };
        let allowance = self.cfg.max_offset_jump * self.lane.elapsed(t, self.cfg.elapsed_cap);
        let jump = self
            .accepted_lane_offset
            .is_some_and(|prev| wrap_jump(offset, prev) > allowance);
        let violation = jump || !offset.is_finite();

        let consistent = self
            .prev_lane_offset
            .is_some_and(|prev| wrap_jump(offset, prev) <= self.cfg.max_offset_jump);
        self.prev_lane_offset = Some(offset);

        let accept = self.lane.decide(&self.cfg, t, stuck, violation, consistent);
        if accept {
            self.accepted_lane_offset = Some(offset);
        } else {
            self.rejections += 1;
        }
        accept || !self.cfg.enforce
    }

    /// Vets one radar reading against the lead track. A `lead: None`
    /// message is always admitted (an empty road is not corruption, and
    /// identical `None`s repeat legitimately).
    pub fn admit_radar(&mut self, tick: Tick, radar: &RadarState, tracker: &LeadTracker) -> bool {
        let Some(lead) = radar.lead else {
            // No detection: nothing to vet. Reset the stuck fingerprint so
            // a Some–None–Some alternation never counts as identical.
            self.radar.last_fp = None;
            self.radar.identical_streak = 0;
            self.prev_radar = None;
            self.radar.last_accept = Some(tick.index());
            return true;
        };
        let t = tick.index();
        let d = lead.d_rel.raw();
        let v = lead.v_lead.mps();
        let fp = splitmix64(d.to_bits())
            ^ splitmix64(v.to_bits().rotate_left(1))
            ^ splitmix64(lead.a_lead.mps2().to_bits().rotate_left(2));
        let identical = self.radar.observe_fp(fp);
        let stuck = identical && self.radar.identical_streak >= self.cfg.stuck_after;

        let elapsed = self.radar.elapsed(t, self.cfg.elapsed_cap);
        let jump = self.accepted_radar.is_some_and(|(pd, pv)| {
            (d - pd).abs() > self.cfg.max_dist_jump * elapsed
                || (v - pv).abs() > self.cfg.max_lead_speed_jump * elapsed
        });
        let innovation = tracker.innovations(&lead).is_some_and(|(nd, nv)| {
            nd > self.cfg.innovation_sigma || nv > self.cfg.innovation_sigma
        });
        let violation = jump || innovation || !d.is_finite() || !v.is_finite();

        let consistent = self.prev_radar.is_some_and(|(pd, pv)| {
            (d - pd).abs() <= self.cfg.max_dist_jump
                && (v - pv).abs() <= self.cfg.max_lead_speed_jump
        });
        self.prev_radar = Some((d, v));

        let accept = self
            .radar
            .decide(&self.cfg, t, stuck, violation, consistent);
        if accept {
            self.accepted_radar = Some((d, v));
        } else {
            self.rejections += 1;
        }
        accept || !self.cfg.enforce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgbus::schema::LeadTrack;
    use units::{Accel, Angle, Distance, Speed};

    #[test]
    fn enforcing_reproduces_the_canonical_limits() {
        // Destructured, so a new field cannot be left out of the check.
        let GateConfig {
            enforce,
            innovation_sigma,
            max_speed_jump,
            max_dist_jump,
            max_lead_speed_jump,
            max_offset_jump,
            stuck_after,
            reacquire_after,
            min_moving_speed,
            elapsed_cap,
        } = GateConfig::enforcing();
        assert!(enforce);
        for (field, got, want) in [
            (
                "innovation_sigma",
                innovation_sigma,
                limits::GATE_INNOVATION_SIGMA,
            ),
            (
                "max_speed_jump",
                max_speed_jump,
                limits::GATE_MAX_SPEED_JUMP_MPS,
            ),
            ("max_dist_jump", max_dist_jump, limits::GATE_MAX_DIST_JUMP_M),
            (
                "max_lead_speed_jump",
                max_lead_speed_jump,
                limits::GATE_MAX_LEAD_SPEED_JUMP_MPS,
            ),
            (
                "max_offset_jump",
                max_offset_jump,
                limits::GATE_MAX_OFFSET_JUMP_M,
            ),
            (
                "min_moving_speed",
                min_moving_speed,
                limits::GATE_MIN_MOVING_SPEED_MPS,
            ),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{field}: {got} != {want}");
        }
        assert_eq!(stuck_after, limits::GATE_STUCK_AFTER);
        assert_eq!(reacquire_after, limits::GATE_REACQUIRE_AFTER);
        assert_eq!(elapsed_cap, limits::GATE_ELAPSED_CAP);
    }

    fn gps(v: f64) -> GpsLocation {
        GpsLocation {
            speed: Speed::from_mps(v),
            bearing: Angle::ZERO,
        }
    }

    fn lane(offset: f64, jitter: f64) -> LaneModel {
        LaneModel {
            left_line: Distance::meters(1.85 - offset + jitter),
            right_line: Distance::meters(1.85 + offset + jitter),
            lane_width: Distance::meters(3.7),
            curvature: 0.0,
        }
    }

    fn radar(d: f64, v: f64) -> RadarState {
        RadarState {
            lead: Some(LeadTrack {
                d_rel: Distance::meters(d),
                v_lead: Speed::from_mps(v),
                a_lead: Accel::ZERO,
            }),
        }
    }

    /// A warmed-up estimator pair tracking ~26.8 m/s and a 40 m lead.
    fn warmed() -> (CarStateEstimator, LeadTracker) {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        let mut tracker = LeadTracker::new();
        for i in 0..100 {
            let wob = if i % 2 == 0 { 0.02 } else { -0.02 };
            est.update(&gps(26.8 + wob), Angle::ZERO);
            tracker.update(&radar(40.0 + wob, 20.0 - wob));
        }
        (est, tracker)
    }

    #[test]
    fn noisy_nominal_readings_pass() {
        let (est, tracker) = warmed();
        let mut g = PerceptionGates::new(GateConfig::enforcing());
        for i in 0..200u64 {
            let wob = ((i % 7) as f64 - 3.0) * 0.01;
            assert!(
                g.admit_gps(Tick::new(i), &gps(26.8 + wob), &est),
                "gps tick {i}"
            );
            assert!(
                g.admit_lane(Tick::new(i), &lane(0.1 + wob, wob)),
                "lane tick {i}"
            );
            assert!(
                g.admit_radar(Tick::new(i), &radar(40.0 + wob, 20.0 - wob), &tracker),
                "radar tick {i}"
            );
        }
        assert_eq!(g.rejections(), 0);
    }

    #[test]
    fn stuck_speed_rejected_after_threshold_then_reacquires() {
        let (est, _) = warmed();
        let cfg = GateConfig::enforcing();
        let mut g = PerceptionGates::new(cfg);
        let mut first_reject = None;
        for i in 0..100u64 {
            if !g.admit_gps(Tick::new(i), &gps(26.8), &est) && first_reject.is_none() {
                first_reject = Some(i);
            }
        }
        assert_eq!(
            first_reject,
            Some(u64::from(cfg.stuck_after)),
            "bit-identical readings rejected once the streak arms"
        );
        // The window ends: readings change again (near the estimate) and
        // are accepted immediately — the stuck streak resets.
        assert!(g.admit_gps(Tick::new(100), &gps(26.75), &est));
    }

    #[test]
    fn standstill_zero_readings_are_not_stuck() {
        let mut est = CarStateEstimator::new(Speed::from_mph(60.0));
        for _ in 0..50 {
            est.update(&gps(0.0), Angle::ZERO);
        }
        let mut g = PerceptionGates::new(GateConfig::enforcing());
        for i in 0..200u64 {
            assert!(g.admit_gps(Tick::new(i), &gps(0.0), &est), "tick {i}");
        }
        assert_eq!(
            g.rejections(),
            0,
            "exact 0.0 repeats at standstill are legitimate"
        );
    }

    #[test]
    fn wild_speed_jump_rejected_then_reacquired_on_consistency() {
        let (est, _) = warmed();
        let cfg = GateConfig::enforcing();
        let mut g = PerceptionGates::new(cfg);
        for i in 0..10u64 {
            assert!(g.admit_gps(Tick::new(i), &gps(26.8 + (i % 2) as f64 * 0.01), &est));
        }
        // A 15 m/s teleport: innovation and jump both fire.
        assert!(!g.admit_gps(Tick::new(10), &gps(41.8), &est));
        // Consistent readings around the new value re-anchor the stream
        // after `reacquire_after` ticks.
        let mut accepted_at = None;
        for i in 11..60u64 {
            let z = 41.8 + (i % 2) as f64 * 0.01;
            if g.admit_gps(Tick::new(i), &gps(z), &est) {
                accepted_at = Some(i);
                break;
            }
        }
        let at = accepted_at.expect("stream re-anchors");
        assert!(
            at <= 11 + u64::from(cfg.reacquire_after),
            "re-anchored at {at}, within the reacquire window"
        );
    }

    #[test]
    fn lane_reanchor_jump_of_one_width_passes() {
        let mut g = PerceptionGates::new(GateConfig::enforcing());
        for i in 0..20u64 {
            let wob = ((i % 3) as f64 - 1.0) * 0.01;
            assert!(g.admit_lane(Tick::new(i), &lane(1.8 + wob, wob)));
        }
        // Crossing the lane boundary re-anchors perception: the offset
        // wraps by one full lane width. Wrap-aware limit: accepted.
        assert!(g.admit_lane(Tick::new(20), &lane(1.8 - 3.7, 0.01)));
        // A half-width teleport is NOT a legitimate re-anchor: rejected.
        assert!(!g.admit_lane(Tick::new(21), &lane(1.8 - 3.7 + 1.6, 0.02)));
    }

    #[test]
    fn frozen_lane_model_is_stuck() {
        let cfg = GateConfig::enforcing();
        let mut g = PerceptionGates::new(cfg);
        let frozen = lane(0.2, 0.005);
        let mut rejected = 0;
        for i in 0..60u64 {
            if !g.admit_lane(Tick::new(i), &frozen) {
                rejected += 1;
            }
        }
        // Reading i carries identical_streak == i, so rejection starts at
        // i == stuck_after and covers every later reading.
        assert_eq!(rejected, 60 - u64::from(cfg.stuck_after));
    }

    #[test]
    fn radar_none_messages_always_pass() {
        let (_, tracker) = warmed();
        let mut g = PerceptionGates::new(GateConfig::enforcing());
        for i in 0..100u64 {
            assert!(g.admit_radar(Tick::new(i), &RadarState { lead: None }, &tracker));
        }
        assert_eq!(g.rejections(), 0);
    }

    #[test]
    fn frozen_radar_track_is_stuck_while_none_is_not() {
        let (_, tracker) = warmed();
        let cfg = GateConfig::enforcing();
        let mut g = PerceptionGates::new(cfg);
        let frozen = radar(40.0, 20.0);
        let mut first_reject = None;
        for i in 0..100u64 {
            if !g.admit_radar(Tick::new(i), &frozen, &tracker) && first_reject.is_none() {
                first_reject = Some(i);
            }
        }
        assert_eq!(first_reject, Some(u64::from(cfg.stuck_after)));
    }

    #[test]
    fn radar_track_switch_reacquires_within_window() {
        let (_, mut tracker) = warmed();
        let cfg = GateConfig::enforcing();
        let mut g = PerceptionGates::new(cfg);
        for i in 0..10u64 {
            let wob = (i % 2) as f64 * 0.01;
            assert!(g.admit_radar(Tick::new(i), &radar(40.0 + wob, 20.0 - wob), &tracker));
        }
        // The radar switches to a different physical target 30 m further
        // out: a legitimate discontinuity. Rejected first...
        assert!(!g.admit_radar(Tick::new(10), &radar(70.0, 22.0), &tracker));
        // ...then re-anchored once the new track proves self-consistent,
        // well before the degradation ladder would escalate.
        let mut accepted_at = None;
        for i in 11..60u64 {
            tracker.coast();
            let wob = (i % 2) as f64 * 0.01;
            if g.admit_radar(Tick::new(i), &radar(70.0 + wob, 22.0 - wob), &tracker) {
                accepted_at = Some(i);
                break;
            }
        }
        let at = accepted_at.expect("new track re-anchors");
        assert!(at <= 11 + u64::from(cfg.reacquire_after));
    }

    #[test]
    fn observe_mode_counts_but_admits() {
        let (est, _) = warmed();
        let mut g = PerceptionGates::new(GateConfig::observing());
        for i in 0..60u64 {
            assert!(
                g.admit_gps(Tick::new(i), &gps(26.8), &est),
                "observe mode never withholds"
            );
        }
        assert!(g.rejections() > 0, "but the flags are still counted");
    }
}
