//! CAN intrusion detection: timing, counter-continuity and checksum-history
//! checks over the actuator message stream.
//!
//! The IDS watches the three actuator messages the ADAS emits every control
//! cycle (`STEERING_CONTROL`, `GAS_COMMAND`, `BRAKE_COMMAND`) at the point
//! where the bus delivers them — after any man-in-the-middle or bus fault,
//! before the receivers. It is the *fault*-facing detector of the defense
//! stack: the paper's attacker repairs checksums and rolling counters after
//! rewriting a frame (§III-C), so those checks are blind to the MITM by
//! design — the control-invariant and context monitors cover that threat.
//! What the repair discipline cannot hide is a *broken bus*: dropped or
//! duplicated frames break the per-cycle timing and counter continuity, and
//! random corruption breaks the checksum, because a fault engine (unlike
//! the attacker) does not patch up after itself.
//!
//! Each check feeds a leaky per-category score (+1 per offending tick, −1
//! per clean tick) so a single glitch never alarms but a persistent fault
//! does, within tens of milliseconds.

use canbus::checksum::verify_honda_checksum;
use canbus::{CanFrame, BRAKE_COMMAND_ID, GAS_COMMAND_ID, STEERING_CONTROL_ID};
use units::{limits, Tick};

/// How the harness acts on what the defense stack reports.
///
/// Deliberately *exhaustive* (clippy's `wildcard_enum_match_arm`): every
/// consumer must name every policy — a new policy silently lumped into a
/// `_ =>` arm would change what "defended" means without anyone noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DefensePolicy {
    /// No detectors run at all (the paper's baseline ADAS).
    #[default]
    Off,
    /// Detectors run and their verdicts are recorded, but nothing acts on
    /// them — the record-only mode previous experiments called
    /// `defenses_enabled`.
    Observe,
    /// Plausibility gates withhold implausible readings and a CAN-IDS alarm
    /// forces the degradation ladder to `DegradedAccOff` (gentle brake).
    Degrade,
    /// Like `Degrade`, but any acting detector forces a full
    /// `FailSafe` controlled stop.
    FailSafe,
}

impl DefensePolicy {
    /// Snake-case name used in reports and `BENCH_defense.json`.
    pub fn label(self) -> &'static str {
        match self {
            DefensePolicy::Off => "off",
            DefensePolicy::Observe => "observe",
            DefensePolicy::Degrade => "degrade",
            DefensePolicy::FailSafe => "fail_safe",
        }
    }

    /// Whether any detector state is created at all.
    pub fn detectors_attached(self) -> bool {
        match self {
            DefensePolicy::Off => false,
            DefensePolicy::Observe | DefensePolicy::Degrade | DefensePolicy::FailSafe => true,
        }
    }

    /// Whether detectors act on the vehicle (vs. record-only).
    pub fn acts(self) -> bool {
        match self {
            DefensePolicy::Off | DefensePolicy::Observe => false,
            DefensePolicy::Degrade | DefensePolicy::FailSafe => true,
        }
    }
}

/// What the IDS currently believes about the bus.
///
/// Deliberately *exhaustive* (clippy's `wildcard_enum_match_arm`): a
/// consumer that lumps `Alarm` into a wildcard arm is ignoring the one
/// verdict that must trigger mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IdsVerdict {
    /// Every watched message is arriving on schedule with valid integrity
    /// fields.
    #[default]
    Nominal,
    /// At least one check has a non-zero score but no threshold is crossed.
    Suspicious,
    /// A score crossed its threshold: the bus is faulted.
    Alarm,
}

impl IdsVerdict {
    /// Snake-case name used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            IdsVerdict::Nominal => "nominal",
            IdsVerdict::Suspicious => "suspicious",
            IdsVerdict::Alarm => "alarm",
        }
    }
}

/// IDS tuning. The thresholds trade detection latency against tolerance of
/// isolated glitches; at the defaults a total bus loss alarms in ~0.2 s and
/// persistent corruption in ~40 ms, while any isolated single-frame event
/// decays away without alarming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdsConfig {
    /// Consecutive missing cycles of a watched message before each further
    /// cycle counts as a timing event (absorbs scheduling jitter).
    pub miss_after: u32,
    /// Leaky-score threshold for timing events (missing/duplicated frames).
    pub timing_threshold: u32,
    /// Leaky-score threshold for rolling-counter discontinuities.
    pub counter_threshold: u32,
    /// Leaky-score threshold for checksum failures.
    pub checksum_threshold: u32,
}

impl Default for IdsConfig {
    fn default() -> Self {
        Self {
            miss_after: limits::IDS_MISS_AFTER,
            timing_threshold: limits::IDS_TIMING_THRESHOLD,
            counter_threshold: limits::IDS_COUNTER_THRESHOLD,
            checksum_threshold: limits::IDS_CHECKSUM_THRESHOLD,
        }
    }
}

/// Per-message-ID bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IdState {
    /// Consecutive cycles with no frame for this id.
    miss_streak: u32,
    /// Rolling counter of the last integrity-valid frame.
    last_counter: Option<u8>,
}

impl IdState {
    /// Records the rolling counter of an integrity-valid frame; whether it
    /// broke continuity with the previous one.
    fn advance_counter(&mut self, counter: u8) -> bool {
        let broke = self
            .last_counter
            .is_some_and(|prev| counter != (prev + 1) & 0x3);
        self.last_counter = Some(counter);
        broke
    }
}

/// The three actuator messages every engaged control cycle must carry.
const WATCHED: [u16; 3] = [STEERING_CONTROL_ID, GAS_COMMAND_ID, BRAKE_COMMAND_ID];

/// The CAN intrusion detector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanIds {
    config: IdsConfig,
    ids: [IdState; WATCHED.len()],
    timing_score: u32,
    counter_score: u32,
    checksum_score: u32,
    detected_at: Option<Tick>,
    /// Events observed over the whole run, per category
    /// `(timing, counter, checksum)` — for reports.
    events: (u64, u64, u64),
}

impl CanIds {
    /// Creates an IDS.
    pub fn new(config: IdsConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// First tick the IDS alarmed, if any.
    pub fn detected_at(&self) -> Option<Tick> {
        self.detected_at
    }

    /// Total events observed per category `(timing, counter, checksum)`.
    pub fn event_counts(&self) -> (u64, u64, u64) {
        self.events
    }

    /// The verdict the current scores imply.
    pub fn verdict(&self) -> IdsVerdict {
        if self.timing_score >= self.config.timing_threshold
            || self.counter_score >= self.config.counter_threshold
            || self.checksum_score >= self.config.checksum_threshold
        {
            IdsVerdict::Alarm
        } else if self.timing_score > 0 || self.counter_score > 0 || self.checksum_score > 0 {
            IdsVerdict::Suspicious
        } else {
            IdsVerdict::Nominal
        }
    }

    /// Feeds one control cycle's worth of delivered actuator frames.
    ///
    /// `engaged` is whether the ADAS commanded the actuators this cycle: a
    /// disengaged ADAS legitimately sends nothing, so the timing expectation
    /// is suspended (and per-id state reset) rather than treated as a bus
    /// fault. Scores still decay while disengaged, so a verdict never
    /// latches past its evidence.
    pub fn observe(&mut self, tick: Tick, frames: &[CanFrame], engaged: bool) -> IdsVerdict {
        let mut timing_event = false;
        let mut counter_event = false;
        let mut checksum_event = false;

        if engaged {
            for (slot, &id) in WATCHED.iter().enumerate() {
                let state = &mut self.ids[slot];
                let count = frames.iter().filter(|f| f.id() == id).count();
                if count == 0 {
                    state.miss_streak = state.miss_streak.saturating_add(1);
                    if state.miss_streak >= self.config.miss_after {
                        timing_event = true;
                    }
                    continue;
                }
                state.miss_streak = 0;
                if count > 1 {
                    // A duplicated command frame within one cycle: replay or
                    // injection at the bus level.
                    timing_event = true;
                }
                for frame in frames.iter().filter(|f| f.id() == id) {
                    if !verify_honda_checksum(frame.id(), frame.data()) {
                        // Integrity fields are unreliable: flag, and skip the
                        // counter check for this frame.
                        checksum_event = true;
                        continue;
                    }
                    let counter = frame
                        .data()
                        .last()
                        .map_or(0, |last| (last >> 4) & 0x3);
                    counter_event |= state.advance_counter(counter);
                }
            }
        } else {
            // Disengaged: silence is legitimate, and the counter sequence
            // restarts when frames resume.
            self.ids = [IdState::default(); WATCHED.len()];
        }

        self.settle(tick, timing_event, counter_event, checksum_event)
    }

    /// Feeds one engaged control cycle whose frames reached the bus as the
    /// encoder produced them: one frame per watched id, valid checksums,
    /// and the rolling `counters` (steering, gas, brake) the encoder drew.
    /// Returns the verdict [`observe`](Self::observe) gives for those
    /// frames, without the frames: nothing is missing, duplicated or
    /// corrupted, but the counter-continuity check still runs, so the
    /// first clean cycle after a frame-drop window raises its counter
    /// event here too.
    pub fn observe_clean(&mut self, tick: Tick, counters: [u8; 3]) -> IdsVerdict {
        let mut counter_event = false;
        for (state, counter) in self.ids.iter_mut().zip(counters) {
            state.miss_streak = 0;
            counter_event |= state.advance_counter(counter & 0x3);
        }
        self.settle(tick, false, counter_event, false)
    }

    /// The tail of every cycle: leaks the per-category scores, counts the
    /// events, latches the first alarm and returns the verdict.
    fn settle(&mut self, tick: Tick, timing: bool, counter: bool, checksum: bool) -> IdsVerdict {
        self.timing_score = leak(self.timing_score, timing);
        self.counter_score = leak(self.counter_score, counter);
        self.checksum_score = leak(self.checksum_score, checksum);
        self.events.0 += u64::from(timing);
        self.events.1 += u64::from(counter);
        self.events.2 += u64::from(checksum);

        let verdict = self.verdict();
        if verdict == IdsVerdict::Alarm && self.detected_at.is_none() {
            self.detected_at = Some(tick);
        }
        verdict
    }
}

/// Leaky integrator: +1 on an offending tick, −1 on a clean one.
fn leak(score: u32, event: bool) -> u32 {
    if event {
        score.saturating_add(1)
    } else {
        score.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canbus::checksum::apply_honda_checksum;

    /// Builds the three actuator frames for one cycle with valid checksums
    /// and the given rolling counter value.
    fn cycle_frames(counter: u8) -> Vec<CanFrame> {
        WATCHED
            .iter()
            .map(|&id| {
                let mut data = [0x12, 0x34, 0x01, 0x00, 0x00, (counter & 0x3) << 4];
                apply_honda_checksum(id, &mut data);
                CanFrame::new(id, &data).unwrap()
            })
            .collect()
    }

    #[test]
    fn healthy_bus_stays_nominal() {
        let mut ids = CanIds::default();
        for t in 0..1000u64 {
            let v = ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
            assert_eq!(v, IdsVerdict::Nominal, "tick {t}");
        }
        assert_eq!(ids.detected_at(), None);
        assert_eq!(ids.event_counts(), (0, 0, 0));
    }

    #[test]
    fn disengaged_silence_is_not_a_fault() {
        let mut ids = CanIds::default();
        for t in 0..100u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        // Driver takes over: no frames for a long stretch.
        for t in 100..1000u64 {
            let v = ids.observe(Tick::new(t), &[], false);
            assert_eq!(v, IdsVerdict::Nominal, "tick {t}");
        }
        // The ADAS resumes mid-sequence: the counter expectation was reset,
        // so resumption is clean.
        for t in 1000..1100u64 {
            let v = ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
            assert_eq!(v, IdsVerdict::Nominal, "tick {t}");
        }
    }

    #[test]
    fn total_frame_loss_alarms_within_a_quarter_second() {
        let mut ids = CanIds::default();
        for t in 0..50u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        let mut alarmed_at = None;
        for t in 50..200u64 {
            if ids.observe(Tick::new(t), &[], true) == IdsVerdict::Alarm {
                alarmed_at = Some(t);
                break;
            }
        }
        let cfg = IdsConfig::default();
        // The streak reaches miss_after on the 10th silent tick (events
        // start there), and the score reaches the threshold 9 ticks later.
        let expected = 50 + u64::from(cfg.miss_after - 1) + u64::from(cfg.timing_threshold - 1);
        assert_eq!(alarmed_at, Some(expected), "miss grace + score ramp");
        assert_eq!(ids.detected_at(), Some(Tick::new(expected)));
    }

    #[test]
    fn persistent_checksum_corruption_alarms_fast() {
        let mut ids = CanIds::default();
        for t in 0..50u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        let mut alarmed_at = None;
        for t in 50..100u64 {
            let mut frames = cycle_frames((t % 4) as u8);
            for f in &mut frames {
                f.data_mut()[1] ^= 0x08; // single bit, checksum not repaired
            }
            if ids.observe(Tick::new(t), &frames, true) == IdsVerdict::Alarm {
                alarmed_at = Some(t);
                break;
            }
        }
        let expected = 50 + u64::from(IdsConfig::default().checksum_threshold) - 1;
        assert_eq!(alarmed_at, Some(expected));
    }

    #[test]
    fn counter_discontinuity_from_sustained_drops_alarms() {
        let mut ids = CanIds::default();
        let mut counter = 0u8;
        for t in 0..50u64 {
            ids.observe(Tick::new(t), &cycle_frames(counter), true);
            counter = (counter + 1) & 0x3;
        }
        // A lossy bus delivers frames every cycle but the transmitter's
        // counter has advanced twice in between (one transmission was
        // lost): the timing check never fires, the counter check does.
        let mut alarmed = false;
        for t in 50..200u64 {
            counter = (counter + 2) & 0x3; // one transmission lost en route
            let frames = cycle_frames(counter);
            if ids.observe(Tick::new(t), &frames, true) == IdsVerdict::Alarm {
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "sustained counter skips must alarm");
    }

    #[test]
    fn duplicated_frames_are_a_timing_event() {
        let mut ids = CanIds::default();
        for t in 0..50u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        let mut alarmed = false;
        for t in 50..200u64 {
            let mut frames = cycle_frames((t % 4) as u8);
            frames.extend(cycle_frames((t % 4) as u8)); // every frame twice
            if ids.observe(Tick::new(t), &frames, true) == IdsVerdict::Alarm {
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "persistent duplication must alarm");
    }

    #[test]
    fn isolated_glitch_decays_without_alarm() {
        let mut ids = CanIds::default();
        for t in 0..50u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        // One corrupted cycle.
        let mut frames = cycle_frames(2);
        frames[0].data_mut()[0] ^= 0x01;
        let v = ids.observe(Tick::new(50), &frames, true);
        assert_eq!(v, IdsVerdict::Suspicious, "flagged but below threshold");
        // Healthy traffic resumes; the score leaks away.
        let mut back_to_nominal = false;
        for t in 51..60u64 {
            if ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true) == IdsVerdict::Nominal
            {
                back_to_nominal = true;
                break;
            }
        }
        assert!(back_to_nominal);
        assert_eq!(ids.detected_at(), None);
    }

    #[test]
    fn verdict_decays_after_the_fault_window() {
        let mut ids = CanIds::default();
        for t in 0..20u64 {
            ids.observe(Tick::new(t), &[], true); // bus dead from the start
        }
        assert_eq!(ids.verdict(), IdsVerdict::Alarm);
        // Bus restored: the alarm decays, the first-detection latch stays.
        for t in 20..60u64 {
            ids.observe(Tick::new(t), &cycle_frames((t % 4) as u8), true);
        }
        assert_eq!(ids.verdict(), IdsVerdict::Nominal);
        assert!(ids.detected_at().is_some());
    }

    #[test]
    fn clean_cycles_after_a_drop_still_break_the_counter_sequence() {
        let mut ids = CanIds::default();
        for t in 0..10u64 {
            ids.observe_clean(Tick::new(t), [(t % 4) as u8; 3]);
        }
        // The gas frame of tick 10 is lost; the encoder's counters advance
        // regardless, so tick 11's clean cycle arrives one count ahead.
        let mut frames = cycle_frames(2);
        frames.remove(1);
        ids.observe(Tick::new(10), &frames, true);
        assert_eq!(ids.event_counts(), (0, 0, 0), "one missed cycle is jitter");
        let v = ids.observe_clean(Tick::new(11), [3; 3]);
        assert_eq!(v, IdsVerdict::Suspicious);
        assert_eq!(ids.event_counts(), (0, 1, 0));
    }

    #[test]
    fn policy_labels_and_modes() {
        assert_eq!(DefensePolicy::Off.label(), "off");
        assert_eq!(DefensePolicy::FailSafe.label(), "fail_safe");
        assert!(!DefensePolicy::Off.detectors_attached());
        assert!(DefensePolicy::Observe.detectors_attached());
        assert!(!DefensePolicy::Observe.acts());
        assert!(DefensePolicy::Degrade.acts());
        assert!(DefensePolicy::FailSafe.acts());
        assert_eq!(IdsVerdict::Alarm.label(), "alarm");
    }
}
