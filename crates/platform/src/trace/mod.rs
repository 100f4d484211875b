//! Flight recorder: a zero-cost-when-disabled per-tick observability layer.
//!
//! The recorder snapshots the full Fig. 5 pipeline once per tick — ego and
//! lead kinematics, per-topic bus traffic, CAN rewrites, attack-engine and
//! driver-model state, hazard-detector internals — into a bounded
//! [`TraceRing`], folds each tick into [`RunMetrics`], and derives discrete
//! [`TraceEvent`]s (attack on/off, alerts, driver takeover, hazards,
//! collision) by edge-comparing consecutive records.
//!
//! When [`TraceConfig::enabled`] is false the harness holds no recorder at
//! all; the only per-tick cost is a single `Option` branch. The recorder
//! never consumes simulation RNG and never subscribes to the bus, so a run
//! is bit-identical with tracing on or off (asserted in `tests/trace.rs`).

mod counters;
mod export;
mod record;
mod ring;

pub use counters::{Histogram, RunMetrics};
pub use export::{diff, to_csv, to_json, TraceDiff, CSV_HEADER};
pub use record::{
    DegradationCode, DriverPhaseCode, IdsCode, TickRecord, TraceEvent, TraceEventKind,
};
pub use ring::TraceRing;

use crate::HazardKind;

/// Whether and how much a [`Harness`](crate::Harness) records.
///
/// `Copy` so it can live inside the `Copy` `HarnessConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to attach a recorder at all.
    pub enabled: bool,
    /// Ring capacity in ticks; older records are overwritten.
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default): no recorder is allocated.
    pub const fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 0,
        }
    }

    /// Tracing on with a ring of `capacity` ticks.
    pub const fn enabled(capacity: usize) -> Self {
        Self {
            enabled: true,
            capacity,
        }
    }

    /// Tracing on with room for every tick of a full run.
    pub const fn full_run() -> Self {
        Self::enabled(units::STEPS_PER_SIM as usize)
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The per-run flight recorder owned by a tracing [`Harness`](crate::Harness).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    ring: TraceRing,
    metrics: RunMetrics,
    events: Vec<TraceEvent>,
    prev: Option<TickRecord>,
}

impl TraceRecorder {
    /// Creates an empty recorder for the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            ring: TraceRing::new(config.capacity),
            metrics: RunMetrics::default(),
            events: Vec::new(),
            prev: None,
        }
    }

    /// Ingests one end-of-tick record: pushes it into the ring, folds it
    /// into the run metrics, and emits events for every edge relative to
    /// the previous record.
    pub fn record(&mut self, r: TickRecord) {
        self.derive_events(&r);
        self.metrics.observe(&r);
        self.ring.record(r);
        self.prev = Some(r);
    }

    fn derive_events(&mut self, r: &TickRecord) {
        let tick = r.tick;
        let prev = self.prev;
        let was = move |f: fn(&TickRecord) -> bool| prev.as_ref().map(f).unwrap_or(false);
        let prev_count = move |f: fn(&TickRecord) -> u64| prev.as_ref().map(f).unwrap_or(0);
        let prev_mask = prev.map(|p| p.hazard_mask).unwrap_or(0);

        if r.attack_active && !was(|p| p.attack_active) {
            self.push_event(tick, TraceEventKind::AttackActivated);
        }
        if !r.attack_active && was(|p| p.attack_active) {
            self.push_event(tick, TraceEventKind::AttackDeactivated);
        }
        if r.alert_events > prev_count(|p| p.alert_events) {
            self.push_event(tick, TraceEventKind::AlertRaised);
        }
        let phase_rank = |c: DriverPhaseCode| match c {
            DriverPhaseCode::Monitoring => 0,
            DriverPhaseCode::Reacting => 1,
            DriverPhaseCode::Engaged => 2,
        };
        let prev_rank = prev.map(|p| phase_rank(p.driver_phase)).unwrap_or(0);
        if phase_rank(r.driver_phase) > prev_rank {
            if r.driver_phase == DriverPhaseCode::Reacting {
                self.push_event(tick, TraceEventKind::DriverNoticed);
            } else {
                if prev_rank == 0 {
                    self.push_event(tick, TraceEventKind::DriverNoticed);
                }
                self.push_event(tick, TraceEventKind::DriverEngaged);
            }
        }
        let new_bits = r.hazard_mask & !prev_mask;
        for (bit, kind) in [
            (1u8, HazardKind::H1),
            (2, HazardKind::H2),
            (4, HazardKind::H3),
        ] {
            if new_bits & bit != 0 {
                self.push_event(tick, TraceEventKind::Hazard(kind));
            }
        }
        if r.collided && !was(|p| p.collided) {
            self.push_event(tick, TraceEventKind::Collision);
        }
        let prev_degradation = prev
            .map(|p| p.degradation)
            .unwrap_or(DegradationCode::Nominal);
        if r.degradation != prev_degradation {
            self.push_event(tick, TraceEventKind::DegradationChanged(r.degradation));
        }
        let prev_ids = prev.map(|p| p.ids).unwrap_or(IdsCode::Nominal);
        if r.ids == IdsCode::Alarm && prev_ids != IdsCode::Alarm {
            self.push_event(tick, TraceEventKind::IdsAlarm);
        }
    }

    fn push_event(&mut self, tick: u64, kind: TraceEventKind) {
        // adas-lint: allow(R13, reason = "events are rare edge-triggered transitions (engage, collide, degrade), not per-tick appends; the steady-state alloc gate runs with tracing attached and stays at zero")
        self.events.push(TraceEvent { tick, kind });
    }

    /// The retained per-tick records.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The running per-run metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The derived state-transition events, in tick order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the newest `n` retained ticks as an aligned text table,
    /// suitable for inclusion in a panic message.
    pub fn tail_table(&self, n: usize) -> String {
        let mut out = String::from(
            "  tick   t(s)    ego_s   ego_v   ego_a    gap     hwt  acc_cmd  appl_a  \
d(m)   drv hz\n",
        );
        let opt = |x: f64| {
            if x.is_nan() {
                "     --".to_string()
            } else {
                format!("{x:7.2}")
            }
        };
        for r in self.ring.tail(n) {
            out.push_str(&format!(
                "{:>6} {:6.2} {:8.2} {:7.2} {:7.2} {} {} {:8.2} {:7.2} {:5.2}   {}  {:03b}{}\n",
                r.tick,
                r.time_secs(),
                r.ego_s,
                r.ego_v,
                r.ego_a,
                opt(r.gap),
                opt(r.hwt),
                r.acc_cmd,
                r.applied_accel,
                r.ego_d,
                r.driver_phase.as_char(),
                r.hazard_mask,
                if r.collided { " COLLIDED" } else { "" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_record(tick: u64) -> TickRecord {
        TickRecord {
            tick,
            ego_s: 0.0,
            ego_d: 0.0,
            ego_v: 29.0,
            ego_a: 0.0,
            ego_steer_deg: 0.0,
            lead_s: 100.0,
            lead_v: 29.0,
            gap: 95.0,
            hwt: 3.2,
            engaged: true,
            acc_desired: 0.0,
            acc_cmd: 0.0,
            alc_desired_deg: 0.0,
            alc_cmd_deg: 0.0,
            alc_saturated: false,
            cmd_accel: 0.0,
            cmd_steer_deg: 0.0,
            applied_accel: 0.0,
            applied_steer_deg: 0.0,
            bus_published: [tick + 1; msgbus::Topic::COUNT],
            attack_active: false,
            frames_rewritten: 0,
            panda_blocked: 0,
            alert_events: 0,
            driver_phase: DriverPhaseCode::Monitoring,
            hazard_mask: 0,
            h3_streak: 0,
            collided: false,
            fault_mask: 0,
            faults_injected: 0,
            degradation: DegradationCode::Nominal,
            gate_rejections: 0,
            ids: IdsCode::Nominal,
        }
    }

    #[test]
    fn edges_become_events_exactly_once() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled(16));
        rec.record(base_record(0));
        let mut r1 = base_record(1);
        r1.attack_active = true;
        rec.record(r1);
        let mut r2 = base_record(2);
        r2.attack_active = true;
        rec.record(r2);
        let mut r3 = base_record(3);
        r3.attack_active = false;
        r3.hazard_mask = 0b100;
        rec.record(r3);
        let kinds: Vec<TraceEventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::AttackActivated,
                TraceEventKind::AttackDeactivated,
                TraceEventKind::Hazard(HazardKind::H3),
            ]
        );
        assert_eq!(rec.events()[0].tick, 1);
        assert_eq!(rec.events()[2].tick, 3);
    }

    #[test]
    fn driver_phase_jump_emits_both_transitions() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled(4));
        rec.record(base_record(0));
        let mut r1 = base_record(1);
        r1.driver_phase = DriverPhaseCode::Engaged;
        rec.record(r1);
        let kinds: Vec<TraceEventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceEventKind::DriverNoticed, TraceEventKind::DriverEngaged],
            "a Monitoring->Engaged jump implies the driver noticed too"
        );
    }

    #[test]
    fn ids_alarm_edge_is_one_event_until_it_clears() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled(8));
        rec.record(base_record(0));
        for t in 1..4u64 {
            let mut r = base_record(t);
            r.ids = IdsCode::Alarm;
            rec.record(r);
        }
        let mut r4 = base_record(4);
        r4.ids = IdsCode::Suspicious;
        rec.record(r4);
        let mut r5 = base_record(5);
        r5.ids = IdsCode::Alarm;
        rec.record(r5);
        let alarms: Vec<u64> = rec
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::IdsAlarm)
            .map(|e| e.tick)
            .collect();
        assert_eq!(alarms, vec![1, 5], "one event per entry into Alarm");
    }

    #[test]
    fn metrics_track_active_ticks_and_latest_totals() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled(4));
        for t in 0..10u64 {
            let mut r = base_record(t);
            r.attack_active = t >= 5;
            r.frames_rewritten = if t >= 5 { (t - 4) * 3 } else { 0 };
            rec.record(r);
        }
        assert_eq!(rec.metrics().ticks, 10);
        assert_eq!(rec.metrics().attack_active_ticks, 5);
        assert_eq!(rec.metrics().frames_rewritten, 15, "cumulative, not sum");
        assert_eq!(rec.ring().len(), 4, "ring bounded independently of metrics");
    }

    #[test]
    fn tail_table_renders_nan_as_dashes() {
        let mut rec = TraceRecorder::new(TraceConfig::enabled(4));
        let mut r = base_record(0);
        r.gap = f64::NAN;
        r.hwt = f64::NAN;
        rec.record(r);
        let table = rec.tail_table(4);
        assert!(table.contains("--"), "NaN cells: {table}");
        assert!(table.lines().count() >= 2);
    }
}
