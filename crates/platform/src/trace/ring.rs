//! Fixed-capacity ring buffer of [`TickRecord`]s.

use super::record::TickRecord;

/// A bounded, overwrite-oldest buffer of per-tick records.
///
/// The capacity bounds a run's trace memory regardless of length; a
/// full-run trace needs `units::STEPS_PER_SIM` slots. Iteration is always
/// chronological, starting from the oldest retained record.
#[derive(Debug, Clone)]
pub struct TraceRing {
    slots: Vec<TickRecord>,
    capacity: usize,
    /// Index of the next slot to overwrite once the ring is full.
    head: usize,
}

impl TraceRing {
    /// Creates an empty ring holding at most `capacity` records.
    ///
    /// A zero capacity is clamped to 1 so `push` is always well-defined.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// Appends a record, overwriting the oldest once full.
    pub fn record(&mut self, record: TickRecord) {
        if self.slots.len() < self.capacity {
            // adas-lint: allow(R13, reason = "fills a fixed-capacity ring pre-reserved by new(); push never reallocates, and once full every record overwrites in place")
            self.slots.push(record);
        } else if let Some(slot) = self.slots.get_mut(self.head) {
            *slot = record;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no records have been retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&TickRecord> {
        if self.slots.is_empty() {
            None
        } else if self.slots.len() < self.capacity {
            self.slots.last()
        } else {
            self.slots
                .get((self.head + self.capacity - 1) % self.capacity)
        }
    }

    /// Iterates over retained records in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TickRecord> + '_ {
        let (wrapped, fresh) = self.slots.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// The last `n` records in chronological order.
    pub fn tail(&self, n: usize) -> Vec<&TickRecord> {
        let len = self.len();
        self.iter().skip(len.saturating_sub(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::record::{DegradationCode, DriverPhaseCode};

    fn record(tick: u64) -> TickRecord {
        TickRecord {
            tick,
            ego_s: tick as f64,
            ego_d: 0.0,
            ego_v: 0.0,
            ego_a: 0.0,
            ego_steer_deg: 0.0,
            lead_s: 0.0,
            lead_v: 0.0,
            gap: f64::NAN,
            hwt: f64::NAN,
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
            bus_published: [tick; msgbus::Topic::COUNT],
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
            ids: crate::trace::IdsCode::Nominal,
        }
    }

    #[test]
    fn fills_then_wraps_keeping_the_newest() {
        let mut ring = TraceRing::new(8);
        for t in 0..20 {
            ring.record(record(t));
        }
        assert_eq!(ring.len(), 8);
        let ticks: Vec<u64> = ring.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, (12..20).collect::<Vec<_>>(), "oldest overwritten");
        assert_eq!(ring.last().unwrap().tick, 19);
    }

    #[test]
    fn chronological_before_wrap() {
        let mut ring = TraceRing::new(8);
        for t in 0..5 {
            ring.record(record(t));
        }
        let ticks: Vec<u64> = ring.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.last().unwrap().tick, 4);
    }

    #[test]
    fn tail_returns_newest_in_order() {
        let mut ring = TraceRing::new(4);
        for t in 0..11 {
            ring.record(record(t));
        }
        let tail: Vec<u64> = ring.tail(2).iter().map(|r| r.tick).collect();
        assert_eq!(tail, vec![9, 10]);
        let all: Vec<u64> = ring.tail(100).iter().map(|r| r.tick).collect();
        assert_eq!(all, vec![7, 8, 9, 10], "tail larger than ring is the ring");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = TraceRing::new(0);
        ring.record(record(1));
        ring.record(record(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.last().unwrap().tick, 2);
    }
}
