//! The fault grammar: what can fail, where, when, and how hard.

/// Maximum number of concurrent fault specs in one [`FaultSchedule`].
///
/// A fixed capacity keeps the schedule `Copy`, which keeps
/// `HarnessConfig` `Copy` — campaign plans stay plain-old-data.
pub const MAX_FAULTS: usize = 8;

/// The failure modes the engine can inject.
///
/// Deliberately *exhaustive* for consumers (clippy's
/// `wildcard_enum_match_arm`): adding a fault kind must be a compile-time
/// event at every match, never absorbed by a `_ =>` arm — a new failure
/// mode silently ignored by the degradation layer or the resilience report
/// is exactly the bug that lint exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The targeted sensor module goes silent: its message stream stops
    /// entirely for the tick (per-tick probability = `intensity`).
    SensorDropout,
    /// The targeted sensor repeats the reading captured at fault onset
    /// (`intensity` is ignored: a stuck sensor is stuck).
    SensorStuckAt,
    /// Bounded deterministic noise is added to the targeted readings,
    /// scaled by `intensity` (1.0 ≈ an order of magnitude above the
    /// nominal sensor noise).
    SensorNoiseBurst,
    /// The targeted sensor reports the reading from `delay` ticks ago.
    SensorLatency,
    /// Each actuator CAN frame is dropped with probability `intensity`.
    CanFrameDrop,
    /// With probability `intensity` per frame, one payload bit is flipped
    /// *without* repairing the checksum — receivers reject the frame and
    /// hold their last value (contrast the attack engine, which repairs).
    CanBitFlip,
    /// Bus-off window: every actuator frame is lost while active.
    CanBusOff,
    /// IPC loss: each sensor message publish is independently dropped with
    /// probability `intensity` (the sensor itself read correctly).
    BusPublishDrop,
    /// IPC lag: published sensor messages carry the readings from `delay`
    /// ticks ago while the sensors themselves are current.
    BusDelay,
}

impl FaultKind {
    /// Every fault kind, in [`Self::index`] order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::SensorDropout,
        FaultKind::SensorStuckAt,
        FaultKind::SensorNoiseBurst,
        FaultKind::SensorLatency,
        FaultKind::CanFrameDrop,
        FaultKind::CanBitFlip,
        FaultKind::CanBusOff,
        FaultKind::BusPublishDrop,
        FaultKind::BusDelay,
    ];

    /// Stable dense index (also the bit position in the active-fault mask).
    pub fn index(self) -> usize {
        match self {
            FaultKind::SensorDropout => 0,
            FaultKind::SensorStuckAt => 1,
            FaultKind::SensorNoiseBurst => 2,
            FaultKind::SensorLatency => 3,
            FaultKind::CanFrameDrop => 4,
            FaultKind::CanBitFlip => 5,
            FaultKind::CanBusOff => 6,
            FaultKind::BusPublishDrop => 7,
            FaultKind::BusDelay => 8,
        }
    }

    /// Snake-case name used in reports and `BENCH_resilience.json`.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::SensorDropout => "sensor_dropout",
            FaultKind::SensorStuckAt => "sensor_stuck_at",
            FaultKind::SensorNoiseBurst => "sensor_noise_burst",
            FaultKind::SensorLatency => "sensor_latency",
            FaultKind::CanFrameDrop => "can_frame_drop",
            FaultKind::CanBitFlip => "can_bit_flip",
            FaultKind::CanBusOff => "can_bus_off",
            FaultKind::BusPublishDrop => "bus_publish_drop",
            FaultKind::BusDelay => "bus_delay",
        }
    }

    /// Whether the kind acts on the CAN actuator path (vs. the sensor/bus
    /// side).
    pub fn is_can(self) -> bool {
        match self {
            FaultKind::CanFrameDrop | FaultKind::CanBitFlip | FaultKind::CanBusOff => true,
            FaultKind::SensorDropout
            | FaultKind::SensorStuckAt
            | FaultKind::SensorNoiseBurst
            | FaultKind::SensorLatency
            | FaultKind::BusPublishDrop
            | FaultKind::BusDelay => false,
        }
    }

    /// Whether the kind replays pristine samples from earlier ticks, the
    /// only reason the engine keeps a history of them.
    pub(crate) fn replays_history(self) -> bool {
        match self {
            FaultKind::SensorLatency | FaultKind::BusDelay => true,
            FaultKind::SensorDropout
            | FaultKind::SensorStuckAt
            | FaultKind::SensorNoiseBurst
            | FaultKind::CanFrameDrop
            | FaultKind::CanBitFlip
            | FaultKind::CanBusOff
            | FaultKind::BusPublishDrop => false,
        }
    }
}

/// Which sensor stream(s) a sensor/bus-side fault hits. CAN-side faults
/// ignore the target (there is one actuator bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// `gpsLocationExternal` only.
    Gps,
    /// `modelV2` (lane perception) only.
    Camera,
    /// `radarState` only.
    Radar,
    /// Every sensor stream.
    All,
}

impl FaultTarget {
    /// Whether the GPS stream is targeted.
    pub fn hits_gps(self) -> bool {
        matches!(self, FaultTarget::Gps | FaultTarget::All)
    }

    /// Whether the lane-perception stream is targeted.
    pub fn hits_camera(self) -> bool {
        matches!(self, FaultTarget::Camera | FaultTarget::All)
    }

    /// Whether the radar stream is targeted.
    pub fn hits_radar(self) -> bool {
        matches!(self, FaultTarget::Radar | FaultTarget::All)
    }
}

/// One scheduled fault: a kind, a target, an activity window and knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What fails.
    pub kind: FaultKind,
    /// Which sensor stream(s), for sensor/bus-side kinds.
    pub target: FaultTarget,
    /// First active tick.
    pub start: u64,
    /// Window length in ticks; the fault is active on
    /// `start..start + duration`.
    pub duration: u64,
    /// Kind-specific severity in `[0, 1]` (usually a per-tick or per-frame
    /// probability); see [`FaultKind`] for each kind's reading of it.
    pub intensity: f64,
    /// Staleness in ticks for [`FaultKind::SensorLatency`] /
    /// [`FaultKind::BusDelay`]; clamped to the engine's history window.
    pub delay: u32,
}

impl FaultSpec {
    /// A full-intensity fault over `start..start + duration` with a 10-tick
    /// delay parameter (only read by the latency/delay kinds).
    pub fn window(kind: FaultKind, target: FaultTarget, start: u64, duration: u64) -> Self {
        Self {
            kind,
            target,
            start,
            duration,
            intensity: 1.0,
            delay: 10,
        }
    }

    /// The same spec with a different intensity.
    pub fn with_intensity(self, intensity: f64) -> Self {
        Self { intensity, ..self }
    }

    /// The same spec with a different delay.
    pub fn with_delay(self, delay: u32) -> Self {
        Self { delay, ..self }
    }

    /// Whether the fault is active at `tick`.
    pub fn active_at(&self, tick: u64) -> bool {
        tick >= self.start && tick - self.start < self.duration
    }

    /// First tick *after* the activity window.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }
}

/// Up to [`MAX_FAULTS`] fault specs, `Copy` so it can ride inside
/// `HarnessConfig` and campaign plans.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSchedule {
    slots: [Option<FaultSpec>; MAX_FAULTS],
}

impl FaultSchedule {
    /// A schedule with no faults (the harness attaches no engine for it).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A schedule holding exactly one fault.
    pub fn single(spec: FaultSpec) -> Self {
        let mut s = Self::default();
        let _ = s.add(spec);
        s
    }

    /// Adds a spec; returns `false` (schedule unchanged) when all
    /// [`MAX_FAULTS`] slots are occupied.
    pub fn add(&mut self, spec: FaultSpec) -> bool {
        for slot in self.slots.iter_mut() {
            if slot.is_none() {
                *slot = Some(spec);
                return true;
            }
        }
        false
    }

    /// Whether no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The scheduled specs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultSpec> {
        self.slots.iter().flatten()
    }

    /// First tick after the last fault window closes (`None` when empty).
    /// The recovery-latency clock starts here.
    pub fn last_end(&self) -> Option<u64> {
        self.iter().map(FaultSpec::end).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_matches_all_order() {
        for (i, k) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn kind_labels_are_distinct() {
        let labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn spec_window_bounds() {
        let s = FaultSpec::window(FaultKind::SensorDropout, FaultTarget::Radar, 100, 50);
        assert!(!s.active_at(99));
        assert!(s.active_at(100));
        assert!(s.active_at(149));
        assert!(!s.active_at(150));
        assert_eq!(s.end(), 150);
    }

    #[test]
    fn schedule_push_and_capacity() {
        let mut s = FaultSchedule::empty();
        assert!(s.is_empty());
        let spec = FaultSpec::window(FaultKind::CanBusOff, FaultTarget::All, 0, 10);
        for _ in 0..MAX_FAULTS {
            assert!(s.add(spec));
        }
        assert!(!s.add(spec), "ninth spec is rejected");
        assert_eq!(s.len(), MAX_FAULTS);
        assert_eq!(s.last_end(), Some(10));
    }

    #[test]
    fn target_coverage() {
        assert!(FaultTarget::All.hits_gps());
        assert!(FaultTarget::All.hits_camera());
        assert!(FaultTarget::All.hits_radar());
        assert!(FaultTarget::Radar.hits_radar());
        assert!(!FaultTarget::Radar.hits_gps());
        assert!(!FaultTarget::Gps.hits_camera());
    }
}
