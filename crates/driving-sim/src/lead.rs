//! The lead vehicle and its scripted behaviours.

use rand::rngs::StdRng;
use rand::SeedableRng;
use units::{Accel, Distance, Seconds, Speed, Tick, DT};

use crate::OrnsteinUhlenbeck;

/// Scripted longitudinal behaviour of the lead vehicle, matching the paper's
/// driving scenarios (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeadBehavior {
    /// Cruise at a constant speed (S1: 35 mph, S2: 50 mph).
    Cruise(Speed),
    /// Cruise at `from`, then from `at` change speed toward `to` with a
    /// comfortable 1 m/s² ramp (S3: 50→35 mph, S4: 35→50 mph).
    ChangeSpeed {
        /// Initial speed.
        from: Speed,
        /// Final speed.
        to: Speed,
        /// Time at which the speed change begins.
        at: Seconds,
    },
}

impl LeadBehavior {
    /// The speed the behaviour starts at.
    pub fn initial_speed(&self) -> Speed {
        match self {
            LeadBehavior::Cruise(v) => *v,
            LeadBehavior::ChangeSpeed { from, .. } => *from,
        }
    }

    /// The target speed at simulated time `t`.
    pub fn target_speed(&self, t: Seconds) -> Speed {
        match self {
            LeadBehavior::Cruise(v) => *v,
            LeadBehavior::ChangeSpeed { from, to, at } => {
                if t < *at {
                    *from
                } else {
                    let ramp = Accel::from_mps2(1.0) * (t - *at);
                    if to > from {
                        (*from + ramp).min(*to)
                    } else {
                        (*from - ramp).max(*to)
                    }
                }
            }
        }
    }
}

/// The lead vehicle: lane-centred, following its scripted behaviour plus a
/// small natural speed dither (±0.5 m/s-ish), the way a human driver holds a
/// speed. The dither makes the ego's headway time oscillate around its
/// set-point — visiting both the "too close and closing" (rule 1) and
/// "comfortably clear" (rule 2) contexts of the attack's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadVehicle {
    behavior: LeadBehavior,
    s: Distance,
    /// Scripted (behaviour-following) speed, before dither.
    base_speed: Speed,
    /// Actual speed including the dither.
    speed: Speed,
    length: Distance,
    dither: OrnsteinUhlenbeck,
    rng: StdRng,
}

impl LeadVehicle {
    /// Creates a lead vehicle with its rear bumper `gap` ahead of position
    /// zero and no speed dither (exact scripted behaviour).
    pub fn new(behavior: LeadBehavior, gap: Distance) -> Self {
        let mut lead = Self::new_seeded(behavior, gap, 0);
        lead.dither = OrnsteinUhlenbeck::new(1.0, 0.0, DT.secs());
        lead
    }

    /// Creates a lead vehicle with a seeded natural speed dither.
    pub fn new_seeded(behavior: LeadBehavior, gap: Distance, seed: u64) -> Self {
        Self {
            behavior,
            s: gap,
            base_speed: behavior.initial_speed(),
            speed: behavior.initial_speed(),
            length: Distance::meters(4.7),
            // Stationary std ~0.5 m/s, ~5 s correlation time.
            dither: OrnsteinUhlenbeck::new(0.2, 0.32, DT.secs()),
            rng: StdRng::seed_from_u64(seed ^ 0x1EAD),
        }
    }

    /// Longitudinal position of the rear bumper.
    pub fn s(&self) -> Distance {
        self.s
    }

    /// Current speed.
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// Current acceleration implied by the behaviour at time `t`.
    pub fn accel(&self, t: Seconds) -> Accel {
        let target = self.behavior.target_speed(t);
        if (target.mps() - self.base_speed.mps()).abs() < 1e-9 {
            Accel::ZERO
        } else if target > self.base_speed {
            Accel::from_mps2(1.0)
        } else {
            Accel::from_mps2(-1.0)
        }
    }

    /// Vehicle length.
    pub fn length(&self) -> Distance {
        self.length
    }

    /// Advances one control cycle.
    pub fn step(&mut self, now: Tick) {
        let t = now.time();
        let a = self.accel(t);
        let target = self.behavior.target_speed(t);
        let mut v = self.base_speed.mps() + a.mps2() * DT.secs();
        // Do not overshoot the (scripted) target.
        if (a.mps2() > 0.0 && v > target.mps()) || (a.mps2() < 0.0 && v < target.mps()) {
            v = target.mps();
        }
        self.base_speed = Speed::from_mps(v.max(0.0));
        let dither = self.dither.step(&mut self.rng);
        self.speed = Speed::from_mps((v + dither).max(0.0));
        self.s += self.speed * DT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cruise_holds_speed() {
        let mut lead = LeadVehicle::new(
            LeadBehavior::Cruise(Speed::from_mph(35.0)),
            Distance::meters(50.0),
        );
        for i in 0..500 {
            lead.step(Tick::new(i));
        }
        assert!((lead.speed().mph() - 35.0).abs() < 1e-9);
        // 35 mph = 15.6464 m/s; 5 s of travel from 50 m.
        assert!((lead.s().raw() - (50.0 + 15.6464 * 5.0)).abs() < 0.01);
    }

    #[test]
    fn slow_down_reaches_target_without_overshoot() {
        // S3: 50 -> 35 mph starting at t = 10 s.
        let behavior = LeadBehavior::ChangeSpeed {
            from: Speed::from_mph(50.0),
            to: Speed::from_mph(35.0),
            at: Seconds::new(10.0),
        };
        let mut lead = LeadVehicle::new(behavior, Distance::meters(100.0));
        for i in 0..2500 {
            lead.step(Tick::new(i));
            assert!(lead.speed().mph() >= 35.0 - 1e-9);
            assert!(lead.speed().mph() <= 50.0 + 1e-9);
        }
        assert!(
            (lead.speed().mph() - 35.0).abs() < 1e-6,
            "converged by 25 s"
        );
    }

    #[test]
    fn speed_up_ramps_at_one_mps2() {
        let behavior = LeadBehavior::ChangeSpeed {
            from: Speed::from_mph(35.0),
            to: Speed::from_mph(50.0),
            at: Seconds::new(5.0),
        };
        let mut lead = LeadVehicle::new(behavior, Distance::meters(70.0));
        // At t = 6 s (one second into the ramp) speed rose by ~1 m/s.
        for i in 0..600 {
            lead.step(Tick::new(i));
        }
        let expected = Speed::from_mph(35.0).mps() + 1.0;
        assert!((lead.speed().mps() - expected).abs() < 0.05);
    }

    #[test]
    fn accel_reports_behaviour_phase() {
        let behavior = LeadBehavior::ChangeSpeed {
            from: Speed::from_mph(50.0),
            to: Speed::from_mph(35.0),
            at: Seconds::new(10.0),
        };
        let lead = LeadVehicle::new(behavior, Distance::meters(50.0));
        assert_eq!(lead.accel(Seconds::new(0.0)), Accel::ZERO);
        assert_eq!(lead.accel(Seconds::new(10.5)), Accel::from_mps2(-1.0));
    }
}
