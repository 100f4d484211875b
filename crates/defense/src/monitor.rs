//! Context-aware command monitoring — the defensive mirror of the attack's
//! Table I, in the spirit of the paper's reference [31] (Zhou et al.,
//! DSN'21): a monitor at the actuation boundary that flags control actions
//! which are unsafe *in the current driving context*, whoever issued them.

use units::{Accel, Angle, Distance, Seconds, Speed, Tick};

/// The context variables the monitor evaluates commands against (the same
/// quantities the attacker infers — defence and attack read one table).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContextObservation {
    /// Ego speed.
    pub v_ego: Speed,
    /// Headway time to the lead, if one is tracked.
    pub hwt: Option<Seconds>,
    /// Relative speed (ego − lead), if a lead is tracked.
    pub rs: Option<Speed>,
    /// Distance from the car's left side to the left lane line.
    pub d_left: Distance,
    /// Distance from the car's right side to the right lane line.
    pub d_right: Distance,
}

/// Verdict for one cycle's command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Command is consistent with the context.
    Safe,
    /// Command matches an unsafe (context, action) pair this cycle.
    Suspicious,
    /// Suspicious sustained past the confirmation window: alarm.
    Alarm,
}

/// Monitor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Headway threshold below which acceleration is unsafe.
    pub t_safe: Seconds,
    /// Acceleration considered an "accelerate" action.
    pub accel_on: Accel,
    /// Deceleration considered a "brake hard" action.
    pub brake_on: Accel,
    /// Speed below which hard braking is no longer suspicious.
    pub beta: Speed,
    /// Edge distance below which steering further outward is unsafe.
    pub edge: Distance,
    /// Steering magnitude considered an outward "steer" action.
    pub steer_on: Angle,
    /// Consecutive suspicious cycles before the alarm latches.
    pub confirm: Seconds,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            t_safe: Seconds::new(2.0),
            accel_on: Accel::from_mps2(0.8),
            brake_on: Accel::from_mps2(-2.0),
            beta: Speed::from_mph(25.0),
            edge: Distance::meters(0.25),
            steer_on: Angle::from_degrees(0.12),
            confirm: Seconds::new(0.4),
        }
    }
}

/// The monitor: stateless per-cycle rule evaluation plus a confirmation
/// window so transient controller behaviour never alarms.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextMonitor {
    config: MonitorConfig,
    streak: u32,
    detected_at: Option<Tick>,
}

impl Default for ContextMonitor {
    fn default() -> Self {
        Self::new(MonitorConfig::default())
    }
}

impl ContextMonitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        Self {
            config,
            streak: 0,
            detected_at: None,
        }
    }

    /// First alarm tick, if any.
    pub fn detected_at(&self) -> Option<Tick> {
        self.detected_at
    }

    /// Whether a single cycle's command is unsafe in context (rule match,
    /// before confirmation).
    pub fn unsafe_in_context(&self, obs: &ContextObservation, accel: Accel, steer: Angle) -> bool {
        let c = &self.config;
        // Rule 1 mirror: accelerating while close and closing.
        let r1 = matches!((obs.hwt, obs.rs), (Some(hwt), Some(rs))
            if hwt <= c.t_safe && rs > Speed::ZERO && accel > c.accel_on);
        // Rule 2 mirror: braking hard at speed with nothing ahead.
        let clear = match (obs.hwt, obs.rs) {
            (Some(hwt), _) => hwt > c.t_safe * 1.4,
            (None, _) => true,
        };
        let r2 = clear && obs.v_ego > c.beta && accel < c.brake_on;
        // Rules 3/4 mirror: steering outward while already at that edge.
        let r3 = obs.d_left <= c.edge && steer > c.steer_on && obs.v_ego > c.beta;
        let r4 = obs.d_right <= c.edge && steer < -c.steer_on && obs.v_ego > c.beta;
        r1 || r2 || r3 || r4
    }

    /// Feeds one cycle's *executed* command (decoded at the actuator side,
    /// i.e. after any man-in-the-middle).
    pub fn check(
        &mut self,
        tick: Tick,
        obs: &ContextObservation,
        accel: Accel,
        steer: Angle,
    ) -> MonitorVerdict {
        if self.unsafe_in_context(obs, accel, steer) {
            self.streak += 1;
            let needed = (self.config.confirm.secs() / units::DT.secs()).round() as u32;
            if self.streak >= needed {
                if self.detected_at.is_none() {
                    self.detected_at = Some(tick);
                }
                MonitorVerdict::Alarm
            } else {
                MonitorVerdict::Suspicious
            }
        } else {
            self.streak = 0;
            MonitorVerdict::Safe
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(hwt: Option<f64>, rs: f64, d_left: f64, d_right: f64) -> ContextObservation {
        ContextObservation {
            v_ego: Speed::from_mph(60.0),
            hwt: hwt.map(Seconds::new),
            rs: hwt.map(|_| Speed::from_mps(rs)),
            d_left: Distance::meters(d_left),
            d_right: Distance::meters(d_right),
        }
    }

    #[test]
    fn accelerating_at_a_close_lead_is_unsafe() {
        let m = ContextMonitor::default();
        assert!(m.unsafe_in_context(
            &obs(Some(1.5), 5.0, 1.0, 1.0),
            Accel::from_mps2(2.0),
            Angle::ZERO
        ));
        // Same command with plenty of headway: fine.
        assert!(!m.unsafe_in_context(
            &obs(Some(4.0), 5.0, 1.0, 1.0),
            Accel::from_mps2(2.0),
            Angle::ZERO
        ));
    }

    #[test]
    fn hard_braking_on_a_clear_road_is_unsafe() {
        let m = ContextMonitor::default();
        assert!(m.unsafe_in_context(
            &obs(None, 0.0, 1.0, 1.0),
            Accel::from_mps2(-3.5),
            Angle::ZERO
        ));
        // Hard braking toward a close lead is what brakes are for.
        assert!(!m.unsafe_in_context(
            &obs(Some(1.2), 8.0, 1.0, 1.0),
            Accel::from_mps2(-3.5),
            Angle::ZERO
        ));
    }

    #[test]
    fn steering_over_the_edge_is_unsafe() {
        let m = ContextMonitor::default();
        assert!(m.unsafe_in_context(
            &obs(None, 0.0, 1.0, 0.1),
            Accel::ZERO,
            Angle::from_degrees(-0.25)
        ));
        // Steering *away* from the edge is the correct reaction.
        assert!(!m.unsafe_in_context(
            &obs(None, 0.0, 1.0, 0.1),
            Accel::ZERO,
            Angle::from_degrees(0.25)
        ));
    }

    #[test]
    fn alarm_needs_confirmation() {
        let mut m = ContextMonitor::default();
        let o = obs(Some(1.5), 5.0, 1.0, 1.0);
        let a = Accel::from_mps2(2.0);
        for i in 0..39 {
            assert_ne!(
                m.check(Tick::new(i), &o, a, Angle::ZERO),
                MonitorVerdict::Alarm
            );
        }
        assert_eq!(
            m.check(Tick::new(39), &o, a, Angle::ZERO),
            MonitorVerdict::Alarm
        );
        assert_eq!(m.detected_at(), Some(Tick::new(39)));
    }

    #[test]
    fn transients_reset_the_streak() {
        let mut m = ContextMonitor::default();
        let bad = obs(Some(1.5), 5.0, 1.0, 1.0);
        let good = obs(Some(4.0), 5.0, 1.0, 1.0);
        let a = Accel::from_mps2(2.0);
        for i in 0..30 {
            m.check(Tick::new(i), &bad, a, Angle::ZERO);
        }
        m.check(Tick::new(30), &good, a, Angle::ZERO);
        for i in 31..60 {
            assert_ne!(
                m.check(Tick::new(i), &bad, a, Angle::ZERO),
                MonitorVerdict::Alarm
            );
        }
        assert_eq!(m.detected_at(), None);
    }
}
