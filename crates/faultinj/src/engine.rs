//! The per-tick fault applicator.

use canbus::CanFrame;
use driving_sim::SensorFrame;
use msgbus::schema::SensorFeed;
use units::mix::splitmix64;
use units::{Distance, Speed, Tick};

use crate::spec::{FaultKind, FaultSchedule, FaultSpec, FaultTarget, MAX_FAULTS};

/// Length of the pristine-frame history ring. Latency/delay faults can look
/// back at most `HISTORY_LEN - 1` ticks; a delay equal to the ring length
/// would alias the slot just written for the *current* tick, so delays are
/// clamped to `1..=HISTORY_LEN - 1`.
const HISTORY_LEN: usize = 256;

/// Deterministic fault applicator for one simulation run.
///
/// Construct once per run with the run seed and a [`FaultSchedule`]; call
/// [`FaultEngine::apply_sensors`] after sampling the sensors (before
/// publishing) and [`FaultEngine::apply_can`] on the encoded actuator
/// frames (after MITM/attack processing, before the Panda safety check —
/// physical bus errors hit everything in flight).
///
/// Outside its windows the engine is idle: `apply_sensors` hands the
/// sample through stamped at the current tick and `apply_can` returns at
/// once, so a caller may skip encoding frames whenever
/// [`FaultEngine::can_active`] is false.
///
/// All stochastic choices are stateless hashes of
/// `(seed, tick, slot, salt)`, so fault draws are reproducible and do not
/// perturb any other seeded stream in the simulation.
#[derive(Debug)]
pub struct FaultEngine {
    seed: u64,
    schedule: FaultSchedule,
    /// Pristine sampled frames for the last [`HISTORY_LEN`] ticks, indexed
    /// by `tick % HISTORY_LEN`; written before any mutation each tick.
    /// Empty unless the schedule holds a kind that replays it
    /// ([`FaultKind::SensorLatency`], [`FaultKind::BusDelay`]).
    history: Vec<SensorFrame>,
    /// Frame captured at each spec's onset tick, keyed by the spec's dense
    /// schedule index; feeds [`FaultKind::SensorStuckAt`] and is cleared
    /// when the spec goes inactive.
    held: [Option<SensorFrame>; MAX_FAULTS],
    active_mask: u16,
    faults_injected: u64,
}

impl FaultEngine {
    /// Creates an engine for one run. The history ring, allocated here when
    /// the schedule replays history, is the only allocation the engine
    /// ever performs.
    pub fn new(seed: u64, schedule: FaultSchedule) -> Self {
        let replays = schedule.iter().any(|spec| spec.kind.replays_history());
        Self {
            seed,
            schedule,
            history: if replays {
                vec![SensorFrame::default(); HISTORY_LEN]
            } else {
                Vec::new()
            },
            held: [None; MAX_FAULTS],
            active_mask: 0,
            faults_injected: 0,
        }
    }

    /// Bitmask of [`FaultKind`]s active on the most recent tick
    /// (bit = [`FaultKind::index`]).
    pub fn active_mask(&self) -> u16 {
        self.active_mask
    }

    /// Total corruption events injected so far: one per corrupted or
    /// suppressed sensor stream per tick, one per dropped/flipped CAN frame.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Whether a CAN-side fault window ([`FaultKind::is_can`]) is open at
    /// `tick`: the only ticks [`apply_can`](Self::apply_can) alters frames.
    pub fn can_active(&self, tick: Tick) -> bool {
        let t = tick.index();
        self.schedule
            .iter()
            .any(|spec| spec.kind.is_can() && spec.active_at(t))
    }

    /// First tick after the last scheduled fault window closes, if any —
    /// the reference point for recovery-latency measurement.
    pub fn last_fault_end(&self) -> Option<u64> {
        self.schedule.last_end()
    }

    /// Applies sensor- and bus-side faults for `tick`.
    ///
    /// `frame` is mutated in place to the *module-level* view (stuck,
    /// noisy or stale readings); the returned publish plan additionally
    /// reflects IPC-level loss and lag. `None` on a stream means the
    /// message is lost ([`FaultKind::SensorDropout`],
    /// [`FaultKind::BusPublishDrop`]); `Some` carries the *sample tick* and
    /// the (possibly corrupted or delayed) payload — a latency or delay
    /// fault replays an old reading *with its old timestamp*, the way a
    /// real delayed message still carries the time it was sampled. With no
    /// active fault the plan is the sampled frame stamped at the current
    /// tick ([`SensorFrame::stamped`]), so a fault-free engine is
    /// behaviorally invisible. The harness feeds the ADAS from the plan.
    pub fn apply_sensors(&mut self, tick: Tick, frame: &mut SensorFrame) -> SensorFeed {
        let t = tick.index();
        self.active_mask = 0;

        // Record the pristine sample before anything corrupts it, so
        // latency faults replay truth, not previously-faulted frames.
        let slot = (t % HISTORY_LEN as u64) as usize;
        if let Some(cell) = self.history.get_mut(slot) {
            *cell = *frame;
        }

        // Idle outside every window: the sample goes through as taken, and
        // no stuck-at hold outlives its window.
        if !self.schedule.iter().any(|spec| spec.active_at(t)) {
            self.held = [None; MAX_FAULTS];
            return frame.stamped(tick);
        }

        let schedule = self.schedule;

        // Per-stream sample-tick stamps: start at the current tick and get
        // backdated by latency-class faults, so a replayed reading carries
        // the timestamp it was actually sampled at. Stuck-at and noise keep
        // the current stamp — the module is alive and publishing on time,
        // its *content* is wrong, which is the plausibility gates' problem.
        let mut gps_stamp = tick;
        let mut lane_stamp = tick;
        let mut radar_stamp = tick;

        // Pass 1: module-level corruption (affects `frame` itself).
        for (i, spec) in schedule.iter().enumerate() {
            if !spec.active_at(t) {
                if let Some(h) = self.held.get_mut(i) {
                    *h = None;
                }
                continue;
            }
            self.active_mask |= 1 << spec.kind.index();
            match spec.kind {
                FaultKind::SensorStuckAt => {
                    let held = match self.held.get_mut(i) {
                        Some(h) => h.get_or_insert(*frame),
                        None => continue,
                    };
                    let src = *held;
                    self.faults_injected += overwrite(frame, &src, spec.target);
                }
                FaultKind::SensorNoiseBurst => {
                    self.faults_injected += self.perturb(t, i as u64, frame, spec);
                }
                FaultKind::SensorLatency => {
                    if let Some((src_t, src)) = self.stale_frame(t, spec.delay) {
                        self.faults_injected += overwrite(frame, &src, spec.target);
                        backdate(
                            &mut gps_stamp,
                            &mut lane_stamp,
                            &mut radar_stamp,
                            Tick::new(src_t),
                            spec.target,
                        );
                    }
                }
                FaultKind::SensorDropout
                | FaultKind::BusPublishDrop
                | FaultKind::BusDelay
                | FaultKind::CanFrameDrop
                | FaultKind::CanBitFlip
                | FaultKind::CanBusOff => {}
            }
        }

        // Pass 2: IPC-level faults (affect the publish plan, not the frame).
        let mut plan = SensorFeed {
            gps: Some((gps_stamp, frame.gps)),
            lane: Some((lane_stamp, frame.lane)),
            radar: Some((radar_stamp, frame.radar)),
        };
        for (i, spec) in schedule.iter().enumerate() {
            if !spec.active_at(t) {
                continue;
            }
            let slot_salt = i as u64;
            match spec.kind {
                FaultKind::BusDelay => {
                    if let Some((src_t, src)) = self.stale_frame(t, spec.delay) {
                        if plan.gps.is_some() && spec.target.hits_gps() {
                            plan.gps = Some((Tick::new(src_t), src.gps));
                            self.faults_injected += 1;
                        }
                        if plan.lane.is_some() && spec.target.hits_camera() {
                            plan.lane = Some((Tick::new(src_t), src.lane));
                            self.faults_injected += 1;
                        }
                        if plan.radar.is_some() && spec.target.hits_radar() {
                            plan.radar = Some((Tick::new(src_t), src.radar));
                            self.faults_injected += 1;
                        }
                    }
                }
                FaultKind::SensorDropout | FaultKind::BusPublishDrop => {
                    let p = spec.intensity;
                    if spec.target.hits_gps()
                        && plan.gps.is_some()
                        && draw01(self.seed, t, slot_salt, SALT_DROP_GPS) < p
                    {
                        plan.gps = None;
                        self.faults_injected += 1;
                    }
                    if spec.target.hits_camera()
                        && plan.lane.is_some()
                        && draw01(self.seed, t, slot_salt, SALT_DROP_CAM) < p
                    {
                        plan.lane = None;
                        self.faults_injected += 1;
                    }
                    if spec.target.hits_radar()
                        && plan.radar.is_some()
                        && draw01(self.seed, t, slot_salt, SALT_DROP_RADAR) < p
                    {
                        plan.radar = None;
                        self.faults_injected += 1;
                    }
                }
                FaultKind::SensorStuckAt
                | FaultKind::SensorNoiseBurst
                | FaultKind::SensorLatency
                | FaultKind::CanFrameDrop
                | FaultKind::CanBitFlip
                | FaultKind::CanBusOff => {}
            }
        }

        plan
    }

    /// Applies CAN-side faults to the encoded actuator frames in flight.
    /// Does nothing unless [`can_active`](Self::can_active).
    pub fn apply_can(&mut self, tick: Tick, frames: &mut Vec<CanFrame>) {
        if !self.can_active(tick) {
            return;
        }
        let t = tick.index();
        let schedule = self.schedule;
        for (i, spec) in schedule.iter().enumerate() {
            if !spec.active_at(t) || !spec.kind.is_can() {
                continue;
            }
            self.active_mask |= 1 << spec.kind.index();
            let slot_salt = i as u64;
            match spec.kind {
                FaultKind::CanBusOff => {
                    self.faults_injected += frames.len() as u64;
                    frames.clear();
                }
                FaultKind::CanFrameDrop => {
                    let mut idx = 0u64;
                    let seed = self.seed;
                    let mut dropped = 0u64;
                    frames.retain(|_| {
                        let keep =
                            draw01(seed, t, slot_salt, SALT_CAN_DROP ^ idx) >= spec.intensity;
                        idx += 1;
                        if !keep {
                            dropped += 1;
                        }
                        keep
                    });
                    self.faults_injected += dropped;
                }
                FaultKind::CanBitFlip => {
                    for (j, frame) in frames.iter_mut().enumerate() {
                        let j = j as u64;
                        if draw01(self.seed, t, slot_salt, SALT_CAN_FLIP ^ j) >= spec.intensity {
                            continue;
                        }
                        let bits = frame.dlc() as u64 * 8;
                        if bits == 0 {
                            continue;
                        }
                        let bit = splitmix64(
                            self.seed ^ splitmix64(t ^ splitmix64(slot_salt ^ SALT_CAN_BIT ^ j)),
                        ) % bits;
                        let byte = (bit / 8) as usize;
                        if let Some(b) = frame.data_mut().get_mut(byte) {
                            // The checksum is deliberately NOT repaired:
                            // receivers reject the frame and hold their last
                            // value, like real ECUs do on a corrupted frame.
                            *b ^= 1 << (bit % 8);
                            self.faults_injected += 1;
                        }
                    }
                }
                FaultKind::SensorDropout
                | FaultKind::SensorStuckAt
                | FaultKind::SensorNoiseBurst
                | FaultKind::SensorLatency
                | FaultKind::BusPublishDrop
                | FaultKind::BusDelay => {}
            }
        }
    }

    /// The pristine frame from `delay` ticks ago (clamped to the ring) and
    /// the tick it was sampled at, or `None` when the run is younger than
    /// the requested delay.
    fn stale_frame(&self, t: u64, delay: u32) -> Option<(u64, SensorFrame)> {
        let delay = (delay as u64).clamp(1, HISTORY_LEN as u64 - 1);
        let src = t.checked_sub(delay)?;
        let frame = self
            .history
            .get((src % HISTORY_LEN as u64) as usize)
            .copied()?;
        Some((src, frame))
    }

    /// Adds bounded, seeded noise to the targeted streams; returns the
    /// number of streams perturbed.
    fn perturb(&self, t: u64, slot_salt: u64, frame: &mut SensorFrame, spec: &FaultSpec) -> u64 {
        let scale = spec.intensity;
        let mut n = 0;
        let u = |salt: u64| 2.0 * draw01(self.seed, t, slot_salt, salt) - 1.0;
        if spec.target.hits_gps() {
            frame.gps.speed =
                Speed::from_mps((frame.gps.speed.mps() + 2.0 * scale * u(SALT_NOISE_GPS)).max(0.0));
            n += 1;
        }
        if spec.target.hits_camera() {
            frame.lane.left_line =
                Distance::meters(frame.lane.left_line.raw() + 0.5 * scale * u(SALT_NOISE_LEFT));
            frame.lane.right_line =
                Distance::meters(frame.lane.right_line.raw() + 0.5 * scale * u(SALT_NOISE_RIGHT));
            frame.lane.curvature += 1e-3 * scale * u(SALT_NOISE_CURV);
            n += 1;
        }
        if spec.target.hits_radar() {
            if let Some(lead) = frame.radar.lead.as_mut() {
                lead.d_rel = Distance::meters(
                    (lead.d_rel.raw() + 5.0 * scale * u(SALT_NOISE_DREL)).max(0.0),
                );
                lead.v_lead = Speed::from_mps(
                    (lead.v_lead.mps() + 2.0 * scale * u(SALT_NOISE_VLEAD)).max(0.0),
                );
                n += 1;
            }
        }
        n
    }
}

const SALT_DROP_GPS: u64 = 0x01;
const SALT_DROP_CAM: u64 = 0x02;
const SALT_DROP_RADAR: u64 = 0x03;
const SALT_NOISE_GPS: u64 = 0x10;
const SALT_NOISE_LEFT: u64 = 0x11;
const SALT_NOISE_RIGHT: u64 = 0x12;
const SALT_NOISE_CURV: u64 = 0x13;
const SALT_NOISE_DREL: u64 = 0x14;
const SALT_NOISE_VLEAD: u64 = 0x15;
const SALT_CAN_DROP: u64 = 0x2000;
const SALT_CAN_FLIP: u64 = 0x4000;
const SALT_CAN_BIT: u64 = 0x8000;

/// Rewinds the stamp of each targeted stream to `src` (keeping the earliest
/// stamp if several latency faults stack).
fn backdate(gps: &mut Tick, lane: &mut Tick, radar: &mut Tick, src: Tick, target: FaultTarget) {
    if target.hits_gps() {
        *gps = (*gps).min(src);
    }
    if target.hits_camera() {
        *lane = (*lane).min(src);
    }
    if target.hits_radar() {
        *radar = (*radar).min(src);
    }
}

/// Copies the targeted streams of `src` over `frame`; returns the number of
/// streams overwritten.
fn overwrite(frame: &mut SensorFrame, src: &SensorFrame, target: FaultTarget) -> u64 {
    let mut n = 0;
    if target.hits_gps() {
        frame.gps = src.gps;
        n += 1;
    }
    if target.hits_camera() {
        frame.lane = src.lane;
        n += 1;
    }
    if target.hits_radar() {
        frame.radar = src.radar;
        n += 1;
    }
    n
}

/// Stateless draw in `[0, 1)` from `(seed, tick, slot, salt)` — 53 mantissa
/// bits, uniform, reproducible, and independent of call order.
fn draw01(seed: u64, tick: u64, slot: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(tick ^ splitmix64(slot ^ splitmix64(salt))));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use msgbus::schema::{GpsLocation, LaneModel, LeadTrack, RadarState};
    use units::Accel;

    fn frame(speed: f64, d_rel: f64) -> SensorFrame {
        SensorFrame {
            gps: GpsLocation {
                speed: Speed::from_mps(speed),
                ..GpsLocation::default()
            },
            lane: LaneModel {
                left_line: Distance::meters(1.85),
                right_line: Distance::meters(1.85),
                lane_width: Distance::meters(3.7),
                curvature: 0.0,
            },
            radar: RadarState {
                lead: Some(LeadTrack {
                    d_rel: Distance::meters(d_rel),
                    v_lead: Speed::from_mps(15.0),
                    a_lead: Accel::ZERO,
                }),
            },
        }
    }

    #[test]
    fn no_schedule_is_invisible() {
        let mut eng = FaultEngine::new(7, FaultSchedule::empty());
        let mut f = frame(25.0, 60.0);
        let pristine = f;
        let plan = eng.apply_sensors(Tick::new(10), &mut f);
        assert_eq!(f, pristine);
        assert_eq!(plan, pristine.stamped(Tick::new(10)));
        assert_eq!(eng.active_mask(), 0);
        assert_eq!(eng.faults_injected(), 0);
    }

    #[test]
    fn dropout_full_intensity_suppresses_target_only() {
        let spec = FaultSpec::window(FaultKind::SensorDropout, FaultTarget::Radar, 5, 10);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut f = frame(25.0, 60.0);
        let plan = eng.apply_sensors(Tick::new(7), &mut f);
        assert!(plan.radar.is_none(), "radar message lost");
        assert!(plan.gps.is_some() && plan.lane.is_some(), "others survive");
        assert_eq!(eng.active_mask(), 1 << FaultKind::SensorDropout.index());
    }

    #[test]
    fn fault_window_respected() {
        let spec = FaultSpec::window(FaultKind::SensorDropout, FaultTarget::All, 5, 10);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut f = frame(25.0, 60.0);
        let before = eng.apply_sensors(Tick::new(4), &mut f);
        assert_eq!(before, f.stamped(Tick::new(4)));
        let after = eng.apply_sensors(Tick::new(15), &mut f);
        assert_eq!(after, f.stamped(Tick::new(15)));
        assert_eq!(eng.active_mask(), 0);
    }

    #[test]
    fn stuck_at_holds_onset_frame_and_releases() {
        let spec = FaultSpec::window(FaultKind::SensorStuckAt, FaultTarget::Gps, 10, 5);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut f0 = frame(20.0, 60.0);
        eng.apply_sensors(Tick::new(10), &mut f0);
        assert!((f0.gps.speed.mps() - 20.0).abs() < 1e-12);
        let mut f1 = frame(30.0, 60.0);
        eng.apply_sensors(Tick::new(12), &mut f1);
        assert!(
            (f1.gps.speed.mps() - 20.0).abs() < 1e-12,
            "stuck at the onset reading"
        );
        assert!(
            (f1.radar.lead.unwrap().d_rel.raw() - 60.0).abs() < 1e-12,
            "radar untouched"
        );
        // After the window the hold is released; a later window would re-capture.
        let mut f2 = frame(40.0, 60.0);
        eng.apply_sensors(Tick::new(20), &mut f2);
        assert!((f2.gps.speed.mps() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn latency_replays_history() {
        let spec =
            FaultSpec::window(FaultKind::SensorLatency, FaultTarget::Gps, 50, 10).with_delay(3);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        for t in 0..60u64 {
            let mut f = frame(t as f64, 60.0);
            let plan = eng.apply_sensors(Tick::new(t), &mut f);
            if t >= 50 {
                assert!(
                    (f.gps.speed.mps() - (t - 3) as f64).abs() < 1e-12,
                    "tick {t} sees the reading from 3 ticks ago"
                );
                let (stamp, _) = plan.gps.unwrap();
                assert_eq!(
                    stamp,
                    Tick::new(t - 3),
                    "the replayed reading carries its original sample tick"
                );
                let (lane_stamp, _) = plan.lane.unwrap();
                assert_eq!(lane_stamp, Tick::new(t), "untargeted stream stays current");
            }
        }
    }

    #[test]
    fn latency_before_history_exists_uses_current() {
        let spec =
            FaultSpec::window(FaultKind::SensorLatency, FaultTarget::Gps, 0, 10).with_delay(5);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut f = frame(22.0, 60.0);
        eng.apply_sensors(Tick::new(2), &mut f);
        assert!((f.gps.speed.mps() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn noise_burst_is_bounded_and_seeded() {
        let spec = FaultSpec::window(FaultKind::SensorNoiseBurst, FaultTarget::All, 0, 100)
            .with_intensity(1.0);
        let run = |seed| {
            let mut eng = FaultEngine::new(seed, FaultSchedule::single(spec));
            (0..100u64)
                .map(|t| {
                    let mut f = frame(25.0, 60.0);
                    eng.apply_sensors(Tick::new(t), &mut f);
                    assert!((f.gps.speed.mps() - 25.0).abs() <= 2.0 + 1e-12);
                    let lead = f.radar.lead.unwrap();
                    assert!((lead.d_rel.raw() - 60.0).abs() <= 5.0 + 1e-12);
                    f.gps.speed.mps()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "same seed, same noise");
        assert_ne!(run(3), run(4), "different seed, different noise");
    }

    #[test]
    fn bus_delay_lags_plan_but_not_frame() {
        let spec = FaultSpec::window(FaultKind::BusDelay, FaultTarget::Gps, 20, 10).with_delay(4);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut last_plan = None;
        for t in 0..30u64 {
            let mut f = frame(t as f64, 60.0);
            eng.apply_sensors(Tick::new(t), &mut f);
            assert!(
                (f.gps.speed.mps() - t as f64).abs() < 1e-12,
                "frame is current"
            );
            last_plan = Some(eng.apply_sensors(Tick::new(t), &mut f));
        }
        let (stamp, gps) = last_plan.and_then(|p| p.gps).unwrap();
        assert!(
            (gps.speed.mps() - 25.0).abs() < 1e-12,
            "plan is 4 ticks stale"
        );
        assert_eq!(
            stamp,
            Tick::new(25),
            "stamped at the sample tick, not delivery"
        );
    }

    #[test]
    fn bus_off_clears_all_frames() {
        let spec = FaultSpec::window(FaultKind::CanBusOff, FaultTarget::All, 0, 10);
        let mut eng = FaultEngine::new(1, FaultSchedule::single(spec));
        let mut frames = vec![
            CanFrame::new(0x1FA, &[0u8; 8]).unwrap(),
            CanFrame::new(0x30C, &[0u8; 5]).unwrap(),
        ];
        eng.apply_can(Tick::new(3), &mut frames);
        assert!(frames.is_empty());
        assert_eq!(eng.faults_injected(), 2);
        assert_eq!(
            eng.active_mask() & (1 << FaultKind::CanBusOff.index()),
            1 << 6
        );
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let spec = FaultSpec::window(FaultKind::CanBitFlip, FaultTarget::All, 0, 10);
        let mut eng = FaultEngine::new(9, FaultSchedule::single(spec));
        let pristine = CanFrame::new(0x1FA, &[0xA5; 8]).unwrap();
        let mut frames = vec![pristine];
        eng.apply_can(Tick::new(1), &mut frames);
        let flipped = frames.first().copied().unwrap();
        let diff: u32 = pristine
            .data()
            .iter()
            .zip(flipped.data())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one payload bit flipped");
    }

    #[test]
    fn can_faults_are_reproducible() {
        let spec = FaultSpec::window(FaultKind::CanFrameDrop, FaultTarget::All, 0, 100)
            .with_intensity(0.5);
        let run = |seed| {
            let mut eng = FaultEngine::new(seed, FaultSchedule::single(spec));
            let mut survivors = Vec::new();
            for t in 0..100u64 {
                let mut frames = vec![
                    CanFrame::new(0x1FA, &[1; 8]).unwrap(),
                    CanFrame::new(0x30C, &[2; 5]).unwrap(),
                ];
                eng.apply_can(Tick::new(t), &mut frames);
                survivors.push(frames.len());
            }
            (survivors, eng.faults_injected())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).1, 0, "half intensity drops something in 100 ticks");
    }

    #[test]
    fn only_latency_class_schedules_keep_a_history() {
        let of = |kind| {
            FaultEngine::new(
                1,
                FaultSchedule::single(FaultSpec::window(kind, FaultTarget::All, 0, 10)),
            )
        };
        for kind in FaultKind::ALL {
            assert_eq!(
                !of(kind).history.is_empty(),
                kind.replays_history(),
                "{kind:?}"
            );
        }
        assert!(FaultEngine::new(1, FaultSchedule::empty())
            .history
            .is_empty());
    }

    #[test]
    fn can_active_sees_only_open_can_windows() {
        let mut schedule = FaultSchedule::single(FaultSpec::window(
            FaultKind::SensorDropout,
            FaultTarget::All,
            0,
            100,
        ));
        let _ = schedule.add(FaultSpec::window(
            FaultKind::CanBitFlip,
            FaultTarget::All,
            50,
            10,
        ));
        let eng = FaultEngine::new(1, schedule);
        let open: Vec<u64> = (0..100).filter(|&t| eng.can_active(Tick::new(t))).collect();
        assert_eq!(open, (50..60).collect::<Vec<_>>());
    }

    #[test]
    fn draw01_is_uniform_enough() {
        let mut acc = 0.0;
        for i in 0..10_000u64 {
            let d = draw01(42, i, 0, 0);
            assert!((0.0..1.0).contains(&d));
            acc += d;
        }
        assert!((acc / 10_000.0 - 0.5).abs() < 0.02, "mean near 0.5");
    }
}
