//! The driver state machine: monitoring → reacting → engaged.

use units::{Accel, Angle, Distance, Speed, Tick};

use crate::{brake_curve, DriverConfig};

/// What the driver can perceive in one control cycle: the vehicle's realised
/// behaviour plus any ADAS alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Current vehicle speed (from the speedometer).
    pub speed: Speed,
    /// The cruise set-speed the driver selected.
    pub v_cruise: Speed,
    /// The longitudinal command reaching the actuators (felt as jolt).
    pub accel_cmd: Accel,
    /// The steering command reaching the actuators.
    pub steer_cmd: Angle,
    /// Whether the ADAS raised an alert this cycle.
    pub adas_alert: bool,
    /// Lateral offset from the lane centre (used to steer back once engaged).
    pub lane_offset: Distance,
    /// Visible gap to a lead vehicle, if one is ahead (drivers can judge
    /// following distance by eye).
    pub lead_gap: Option<Distance>,
}

/// What kind of anomaly the driver noticed — it shapes the response: a
/// phantom hard brake is answered by releasing the pedals and resuming,
/// everything else by a panic brake along Eq. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Braking harder than the ADAS envelope allows.
    UnexpectedBrake,
    /// Accelerating harder than the envelope allows.
    UnexpectedAccel,
    /// Steering beyond the envelope.
    UnexpectedSteer,
    /// Speed above 1.1 × the cruise set-speed.
    Overspeed,
    /// The ADAS raised an alert.
    AdasAlert,
}

/// The command issued by an engaged driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverCommand {
    /// Longitudinal command (panic brake per Eq. 4).
    pub accel: Accel,
    /// Steering command (back toward the lane centre).
    pub steer: Angle,
}

/// Where the driver is in the perceive–react–act pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverPhase {
    /// Hands off, monitoring.
    Monitoring,
    /// Noticed something; the 2.5 s reaction clock is running.
    Reacting {
        /// When the anomaly/alert was perceived (the timeline's `t_d`).
        noticed_at: Tick,
        /// What was noticed.
        anomaly: AnomalyKind,
    },
    /// Physically controlling the car (the timeline's `t_ex` onward).
    Engaged {
        /// When the driver took over.
        engaged_at: Tick,
        /// What was noticed.
        anomaly: AnomalyKind,
    },
}

/// The simulated human driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Driver {
    config: DriverConfig,
    phase: DriverPhase,
    /// Last observed lane offset, for the damping term of the steering
    /// correction (humans anticipate lateral motion).
    prev_offset: Option<Distance>,
    /// The panic-brake phase has completed; the driver now just drives.
    released: bool,
}

impl Driver {
    /// Creates a driver in the monitoring phase.
    pub fn new(config: DriverConfig) -> Self {
        Self {
            config,
            phase: DriverPhase::Monitoring,
            prev_offset: None,
            released: false,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> DriverPhase {
        self.phase
    }

    /// When the driver first noticed an anomaly or alert (`t_d`), if ever.
    pub fn noticed_at(&self) -> Option<Tick> {
        match self.phase {
            DriverPhase::Monitoring => None,
            DriverPhase::Reacting { noticed_at, .. } => Some(noticed_at),
            DriverPhase::Engaged { engaged_at, .. } => {
                // Reconstruct: engagement happens exactly reaction_time later.
                let delay = Tick::from_time(self.config.reaction_time).index();
                Some(Tick::new(engaged_at.index().saturating_sub(delay)))
            }
        }
    }

    /// When the driver physically took over (`t_ex`), if they have.
    pub fn engaged_at(&self) -> Option<Tick> {
        match self.phase {
            DriverPhase::Engaged { engaged_at, .. } => Some(engaged_at),
            DriverPhase::Monitoring | DriverPhase::Reacting { .. } => None,
        }
    }

    /// What the driver noticed, if anything.
    pub fn anomaly(&self) -> Option<AnomalyKind> {
        match self.phase {
            DriverPhase::Monitoring => None,
            DriverPhase::Reacting { anomaly, .. } | DriverPhase::Engaged { anomaly, .. } => {
                Some(anomaly)
            }
        }
    }

    /// Classifies the first anomaly in an observation, if any.
    pub fn classify(&self, obs: &Observation) -> Option<AnomalyKind> {
        if obs.adas_alert {
            Some(AnomalyKind::AdasAlert)
        } else if obs.accel_cmd > self.config.accel_threshold {
            Some(AnomalyKind::UnexpectedAccel)
        } else if obs.accel_cmd < self.config.brake_threshold {
            Some(AnomalyKind::UnexpectedBrake)
        } else if obs.steer_cmd.abs() > self.config.steer_threshold {
            Some(AnomalyKind::UnexpectedSteer)
        } else if obs.speed.mps() > obs.v_cruise.mps() * self.config.overspeed_factor {
            Some(AnomalyKind::Overspeed)
        } else {
            None
        }
    }

    /// Advances the driver one control cycle. Returns the driver's command
    /// while engaged, `None` while the ADAS is still in charge.
    pub fn step(&mut self, now: Tick, obs: &Observation) -> Option<DriverCommand> {
        if !self.config.attentive {
            return None;
        }
        match self.phase {
            DriverPhase::Monitoring => {
                if let Some(anomaly) = self.classify(obs) {
                    self.phase = DriverPhase::Reacting {
                        noticed_at: now,
                        anomaly,
                    };
                }
                None
            }
            DriverPhase::Reacting {
                noticed_at,
                anomaly,
            } => {
                if now.since(noticed_at) >= self.config.reaction_time {
                    self.phase = DriverPhase::Engaged {
                        engaged_at: now,
                        anomaly,
                    };
                    Some(self.command(now, obs))
                } else {
                    None
                }
            }
            DriverPhase::Engaged { .. } => Some(self.command(now, obs)),
        }
    }

    /// Whether a lead vehicle is uncomfortably close (within ~1.8 s of
    /// headway) — the situation in which a human commits to a full stop.
    fn forward_threat(obs: &Observation) -> bool {
        obs.lead_gap
            .is_some_and(|g| g.raw() < 1.8 * obs.speed.mps().max(5.0))
    }

    /// The engaged driver's "manual driving": hold a safe following
    /// distance, otherwise recover toward the cruise speed.
    fn manual_drive(&self, obs: &Observation) -> Accel {
        if Self::forward_threat(obs) {
            Accel::from_mps2(-1.5)
        } else {
            let err = obs.v_cruise.mps() - obs.speed.mps();
            Accel::from_mps2((0.3 * err).clamp(-2.0, 1.5))
        }
    }

    fn command(&mut self, now: Tick, obs: &Observation) -> DriverCommand {
        let rate = match self.prev_offset {
            Some(prev) => (obs.lane_offset - prev).raw() / units::DT.secs(),
            None => 0.0,
        };
        self.prev_offset = Some(obs.lane_offset);
        let (engaged_at, anomaly) = match self.phase {
            DriverPhase::Engaged {
                engaged_at,
                anomaly,
            } => (engaged_at, anomaly),
            DriverPhase::Monitoring | DriverPhase::Reacting { .. } => (now, AnomalyKind::AdasAlert),
        };
        // A phantom hard brake is answered by releasing the brake and
        // resuming normal driving. Everything else starts with a panic
        // brake along Eq. 4, held until the situation is back under
        // control — the gap safe again and the speed below cruise — and to
        // a complete stop if the threat never clears (the paper's driver
        // "stops in the middle of a lane", its source of new hazards).
        let accel = match anomaly {
            AnomalyKind::UnexpectedBrake => self.manual_drive(obs),
            AnomalyKind::UnexpectedAccel
            | AnomalyKind::UnexpectedSteer
            | AnomalyKind::Overspeed
            | AnomalyKind::AdasAlert => {
                if self.released {
                    self.manual_drive(obs)
                } else {
                    let v = obs.speed.mps();
                    let gap_safe = obs.lead_gap.is_none_or(|g| g.raw() >= 1.5 * v.max(5.0));
                    if gap_safe && v <= obs.v_cruise.mps() * 0.9 {
                        self.released = true;
                        self.manual_drive(obs)
                    } else if v < 0.5 {
                        Accel::ZERO // blocked: stopped in lane
                    } else {
                        self.config.max_brake * brake_curve(now.since(engaged_at))
                    }
                }
            }
        };
        // Steer gently back toward the lane centre, with anticipation of
        // the car's lateral motion (damping).
        let steer = Angle::from_radians(-0.006 * obs.lane_offset.raw() - 0.012 * rate)
            .clamp(Angle::from_degrees(-2.0), Angle::from_degrees(2.0));
        DriverCommand { accel, steer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> Observation {
        Observation {
            speed: Speed::from_mph(60.0),
            v_cruise: Speed::from_mph(60.0),
            accel_cmd: Accel::from_mps2(0.5),
            steer_cmd: Angle::from_degrees(0.2),
            adas_alert: false,
            lane_offset: Distance::meters(0.1),
            lead_gap: None,
        }
    }

    #[test]
    fn nominal_behaviour_never_engages() {
        let mut d = Driver::new(DriverConfig::alert());
        for i in 0..5000 {
            assert!(d.step(Tick::new(i), &nominal()).is_none());
        }
        assert_eq!(d.phase(), DriverPhase::Monitoring);
    }

    #[test]
    fn anomaly_thresholds_are_strict_inequalities() {
        let d = Driver::new(DriverConfig::alert());
        // Exactly at the limits (the strategic attack values): not anomalous.
        let mut obs = nominal();
        obs.accel_cmd = Accel::from_mps2(2.0);
        assert_eq!(d.classify(&obs), None);
        obs.accel_cmd = Accel::from_mps2(-3.5);
        assert_eq!(d.classify(&obs), None);
        obs.speed = Speed::from_mps(Speed::from_mph(60.0).mps() * 1.1);
        assert_eq!(d.classify(&obs), None);
        // Just beyond (the fixed attack values): anomalous.
        obs = nominal();
        obs.accel_cmd = Accel::from_mps2(2.4);
        assert_eq!(d.classify(&obs), Some(AnomalyKind::UnexpectedAccel));
        obs.accel_cmd = Accel::from_mps2(-4.0);
        assert_eq!(d.classify(&obs), Some(AnomalyKind::UnexpectedBrake));
    }

    #[test]
    fn engages_exactly_after_reaction_time() {
        let mut d = Driver::new(DriverConfig::alert());
        let mut obs = nominal();
        obs.accel_cmd = Accel::from_mps2(2.4);
        assert!(d.step(Tick::new(100), &obs).is_none());
        assert_eq!(d.noticed_at(), Some(Tick::new(100)));
        // Anomaly stops (attack value back in range) but the clock still runs.
        let calm = nominal();
        for i in 101..350 {
            assert!(d.step(Tick::new(i), &calm).is_none(), "tick {i}");
        }
        let cmd = d.step(Tick::new(350), &calm).expect("2.5 s after noticing");
        assert_eq!(d.engaged_at(), Some(Tick::new(350)));
        assert!(cmd.accel.mps2() <= 0.0, "driver brakes");
    }

    #[test]
    fn adas_alert_triggers_reaction() {
        let mut d = Driver::new(DriverConfig::alert());
        let mut obs = nominal();
        obs.adas_alert = true;
        d.step(Tick::ZERO, &obs);
        assert!(matches!(d.phase(), DriverPhase::Reacting { .. }));
    }

    #[test]
    fn brake_builds_along_eq4() {
        let mut d = Driver::new(DriverConfig::alert());
        let mut obs = nominal();
        obs.accel_cmd = Accel::from_mps2(2.4);
        d.step(Tick::ZERO, &obs);
        let calm = nominal();
        for i in 1..=250 {
            d.step(Tick::new(i), &calm);
        }
        // Engaged at tick 250; brake is tiny at first...
        let early = d.step(Tick::new(260), &calm).unwrap();
        assert!(early.accel.mps2().abs() < 0.1);
        // ...and near max 1.5 s later.
        let late = d.step(Tick::new(250 + 150), &calm).unwrap();
        assert!(late.accel.mps2() < -7.0, "got {}", late.accel);
    }

    #[test]
    fn engaged_driver_steers_toward_centre() {
        let mut d = Driver::new(DriverConfig::alert());
        let mut obs = nominal();
        obs.adas_alert = true;
        d.step(Tick::ZERO, &obs);
        let mut left_of_centre = nominal();
        left_of_centre.lane_offset = Distance::meters(1.0);
        for i in 1..=251 {
            d.step(Tick::new(i), &left_of_centre);
        }
        let cmd = d.step(Tick::new(252), &left_of_centre).unwrap();
        assert!(
            cmd.steer.radians() < 0.0,
            "steers right when left of centre"
        );
    }

    #[test]
    fn inattentive_driver_ignores_everything() {
        let mut d = Driver::new(DriverConfig::inattentive());
        let mut obs = nominal();
        obs.accel_cmd = Accel::from_mps2(5.0);
        obs.adas_alert = true;
        for i in 0..1000 {
            assert!(d.step(Tick::new(i), &obs).is_none());
        }
        assert_eq!(d.phase(), DriverPhase::Monitoring);
        assert_eq!(d.noticed_at(), None);
    }

    #[test]
    fn overspeed_is_noticed() {
        let mut d = Driver::new(DriverConfig::alert());
        let mut obs = nominal();
        obs.speed = Speed::from_mph(67.0); // > 66 = 1.1 * 60
        d.step(Tick::ZERO, &obs);
        assert!(matches!(d.phase(), DriverPhase::Reacting { .. }));
    }
}
