//! Run-level aggregation: counters and fixed-bin histograms.

use msgbus::Topic;

/// A fixed-range linear-bin histogram with saturating under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one sample; `NaN` samples are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            if let Some(bin) = self.bins.get_mut(i) {
                *bin += 1;
            }
        }
    }

    /// Number of recorded (non-NaN) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The bin counts, plus under/overflow totals.
    pub fn bins(&self) -> (&[u64], u64, u64) {
        (&self.bins, self.underflow, self.overflow)
    }

    /// A compact one-line ASCII sparkline of the distribution.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.bins.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return "∅".to_string();
        }
        self.bins
            .iter()
            .filter_map(|&b| GLYPHS.get(((b * (GLYPHS.len() as u64 - 1)) / max) as usize))
            .collect()
    }
}

/// Per-run counters and distributions maintained by the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Ticks recorded.
    pub ticks: u64,
    /// Bus publishes per topic, indexed by [`Topic::index`].
    pub bus_published: [u64; Topic::COUNT],
    /// CAN frames rewritten by the attack.
    pub frames_rewritten: u64,
    /// Frames blocked by Panda firmware checks.
    pub panda_blocked: u64,
    /// ADAS alert events.
    pub alert_events: u64,
    /// Ticks the attack spent actively injecting.
    pub attack_active_ticks: u64,
    /// Ticks the driver spent in physical control.
    pub driver_engaged_ticks: u64,
    /// Ticks the ADAS spent in any degraded (non-nominal) state.
    pub degraded_ticks: u64,
    /// Ticks the ADAS spent in the fail-safe state.
    pub failsafe_ticks: u64,
    /// Fault injections performed by the fault engine.
    pub faults_injected: u64,
    /// Headway-time distribution (s), 0–10 s in 40 bins.
    pub headway: Histogram,
    /// Applied-acceleration distribution (m/s²), −5–3 in 40 bins.
    pub applied_accel: Histogram,
    /// Lane-offset distribution (m), −2–2 in 40 bins.
    pub lane_offset: Histogram,
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self {
            ticks: 0,
            bus_published: [0; Topic::COUNT],
            frames_rewritten: 0,
            panda_blocked: 0,
            alert_events: 0,
            attack_active_ticks: 0,
            driver_engaged_ticks: 0,
            degraded_ticks: 0,
            failsafe_ticks: 0,
            faults_injected: 0,
            headway: Histogram::new(0.0, 10.0, 40),
            applied_accel: Histogram::new(-5.0, 3.0, 40),
            lane_offset: Histogram::new(-2.0, 2.0, 40),
        }
    }
}

impl RunMetrics {
    /// Folds one tick record into the running totals.
    pub(crate) fn observe(&mut self, r: &super::record::TickRecord) {
        self.ticks += 1;
        // Counters in the record are cumulative; keep the latest totals.
        self.bus_published = r.bus_published;
        self.frames_rewritten = r.frames_rewritten;
        self.panda_blocked = r.panda_blocked;
        self.alert_events = r.alert_events;
        self.attack_active_ticks += u64::from(r.attack_active);
        self.driver_engaged_ticks +=
            u64::from(r.driver_phase == super::record::DriverPhaseCode::Engaged);
        self.degraded_ticks += u64::from(r.degradation != super::record::DegradationCode::Nominal);
        self.failsafe_ticks += u64::from(r.degradation == super::record::DegradationCode::FailSafe);
        self.faults_injected = r.faults_injected;
        self.headway.record(r.hwt);
        self.applied_accel.record(r.applied_accel);
        self.lane_offset.record(r.ego_d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_moments() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.99, -1.0, 10.0, f64::NAN] {
            h.record(x);
        }
        let (bins, under, over) = h.bins();
        assert_eq!(bins[0], 1);
        assert_eq!(bins[1], 2);
        assert_eq!(bins[9], 1);
        assert_eq!(under, 1);
        assert_eq!(over, 1);
        assert_eq!(h.count(), 6, "NaN ignored");
    }
}
