//! Attack timeline bookkeeping (paper Fig. 2).

use units::{Seconds, Tick};

/// The timestamps of the attack-propagation timeline: activation `t_a`,
/// halting (driver engagement `t_ex`), plus activity counters. The hazard
/// time `t_h` — and hence TTH — is recorded by the platform's hazard
/// detector, which owns ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackTimeline {
    activated_at: Option<Tick>,
    halted_at: Option<Tick>,
    active_ticks: u64,
    last_active: Option<Tick>,
}

impl AttackTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one tick of attack activity.
    pub fn record_active(&mut self, tick: Tick) {
        if self.activated_at.is_none() {
            self.activated_at = Some(tick);
        }
        self.active_ticks += 1;
        self.last_active = Some(tick);
    }

    /// Records the halt (driver engagement).
    pub fn record_halt(&mut self, tick: Tick) {
        if self.halted_at.is_none() {
            self.halted_at = Some(tick);
        }
    }

    /// First activation (`t_a`), if the attack ever fired.
    pub fn activated_at(&self) -> Option<Tick> {
        self.activated_at
    }

    /// When the attack was halted by driver engagement, if it was.
    pub fn halted_at(&self) -> Option<Tick> {
        self.halted_at
    }

    /// Total ticks the attack was actively injecting.
    pub fn active_ticks(&self) -> u64 {
        self.active_ticks
    }

    /// The last tick the attack injected on.
    pub fn last_active(&self) -> Option<Tick> {
        self.last_active
    }

    /// Time-to-hazard for a hazard at `t_h`: `t_h − t_a`. `None` if the
    /// attack never activated or the hazard predates it.
    pub fn tth(&self, hazard_at: Tick) -> Option<Seconds> {
        let t_a = self.activated_at?;
        (hazard_at >= t_a).then(|| hazard_at.since(t_a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_first_activation_only() {
        let mut t = AttackTimeline::new();
        t.record_active(Tick::new(100));
        t.record_active(Tick::new(101));
        t.record_active(Tick::new(500)); // re-activation after a gap
        assert_eq!(t.activated_at(), Some(Tick::new(100)));
        assert_eq!(t.active_ticks(), 3);
        assert_eq!(t.last_active(), Some(Tick::new(500)));
    }

    #[test]
    fn tth_measures_from_activation() {
        let mut t = AttackTimeline::new();
        t.record_active(Tick::new(2000));
        assert_eq!(t.tth(Tick::new(2250)), Some(Seconds::new(2.5)));
        assert_eq!(t.tth(Tick::new(1999)), None, "hazard before activation");
    }

    #[test]
    fn tth_without_activation_is_none() {
        let t = AttackTimeline::new();
        assert_eq!(t.tth(Tick::new(100)), None);
    }

    #[test]
    fn halt_is_latched() {
        let mut t = AttackTimeline::new();
        t.record_halt(Tick::new(300));
        t.record_halt(Tick::new(400));
        assert_eq!(t.halted_at(), Some(Tick::new(300)));
    }
}
