//! Hazard and accident detection (paper §III-A).
//!
//! * **H1** — the AV violates the safe following-distance constraint.
//! * **H2** — the AV decelerates toward a stop although no lead vehicle
//!   justifies it (blocking traffic).
//! * **H3** — the AV drives out of its lane.
//! * **A1** — collision with the lead vehicle; **A3** — collision with
//!   road-side objects (the guardrails). A2 (being rear-ended) needs
//!   following traffic, which the paper's scenarios do not include; like the
//!   paper's accident counts, ours only contain A1/A3.

use driving_sim::{CollisionKind, World, RADAR_RANGE};
use units::{Distance, Seconds, Speed, Tick};

/// Hazardous system states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// Safe following distance violated.
    H1,
    /// Unjustified (near-)stop in traffic.
    H2,
    /// Out of lane.
    H3,
}

/// Accidents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccidentKind {
    /// Collision with the lead vehicle.
    A1,
    /// Collision with a road-side object (guardrail).
    A3,
}

impl From<CollisionKind> for AccidentKind {
    fn from(c: CollisionKind) -> Self {
        match c {
            CollisionKind::LeadVehicle => AccidentKind::A1,
            CollisionKind::Guardrail | CollisionKind::NeighborVehicle => AccidentKind::A3,
        }
    }
}

/// Detection thresholds. Defaults are chosen so that *no* hazard fires in
/// attack-free operation (validated by the no-attack campaign) while every
/// attack-induced unsafe state is caught.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardParams {
    /// H1 fires when headway time drops below this (or the gap below
    /// [`HazardParams::h1_min_gap`]).
    pub h1_headway: Seconds,
    /// H1 minimum absolute gap.
    pub h1_min_gap: Distance,
    /// H2 fires when speed drops below this while no close lead justifies
    /// slowing and the driver intended much faster cruise.
    pub h2_speed: Speed,
    /// A lead within this multiple of the ACC desired gap justifies slowing.
    pub h2_gap_factor: f64,
    /// H3 fires when a car edge is beyond a lane line by more than this…
    pub h3_margin: Distance,
    /// …sustained for this long.
    pub h3_sustain: Seconds,
}

impl Default for HazardParams {
    fn default() -> Self {
        Self {
            h1_headway: Seconds::new(0.65),
            h1_min_gap: Distance::meters(6.0),
            h2_speed: Speed::from_mps(9.2),
            h2_gap_factor: 1.5,
            h3_margin: Distance::meters(0.35),
            h3_sustain: Seconds::new(0.2),
        }
    }
}

/// Watches ground truth and records the first occurrence of each hazard and
/// of the accident.
#[derive(Debug, Clone, PartialEq)]
pub struct HazardDetector {
    params: HazardParams,
    first_h1: Option<Tick>,
    first_h2: Option<Tick>,
    first_h3: Option<Tick>,
    accident: Option<(Tick, AccidentKind)>,
    h3_streak: u32,
}

impl Default for HazardDetector {
    fn default() -> Self {
        Self::new(HazardParams::default())
    }
}

impl HazardDetector {
    /// Creates a detector.
    pub fn new(params: HazardParams) -> Self {
        Self {
            params,
            first_h1: None,
            first_h2: None,
            first_h3: None,
            accident: None,
            h3_streak: 0,
        }
    }

    /// First occurrence of a given hazard.
    pub fn first(&self, kind: HazardKind) -> Option<Tick> {
        match kind {
            HazardKind::H1 => self.first_h1,
            HazardKind::H2 => self.first_h2,
            HazardKind::H3 => self.first_h3,
        }
    }

    /// The earliest hazard of any kind.
    pub fn first_any(&self) -> Option<(Tick, HazardKind)> {
        let mut best: Option<(Tick, HazardKind)> = None;
        for (tick, kind) in [
            (self.first_h1, HazardKind::H1),
            (self.first_h2, HazardKind::H2),
            (self.first_h3, HazardKind::H3),
        ]
        .iter()
        .filter_map(|(t, k)| t.map(|t| (t, *k)))
        {
            if best.is_none_or(|(bt, _)| tick < bt) {
                best = Some((tick, kind));
            }
        }
        best
    }

    /// The accident, if one occurred.
    pub fn accident(&self) -> Option<(Tick, AccidentKind)> {
        self.accident
    }

    /// Consecutive ticks the ego has spent beyond the lane edge so far —
    /// the internal counter behind H3's sustained-excursion requirement,
    /// exposed for the flight recorder.
    pub fn h3_streak(&self) -> u32 {
        self.h3_streak
    }

    /// A compact cumulative mask of the hazards seen so far (bit 0 = H1,
    /// bit 1 = H2, bit 2 = H3), for per-tick trace records.
    pub fn mask(&self) -> u8 {
        u8::from(self.first_h1.is_some())
            | u8::from(self.first_h2.is_some()) << 1
            | u8::from(self.first_h3.is_some()) << 2
    }

    /// All hazard kinds that occurred.
    pub fn kinds(&self) -> Vec<HazardKind> {
        [
            (self.first_h1, HazardKind::H1),
            (self.first_h2, HazardKind::H2),
            (self.first_h3, HazardKind::H3),
        ]
        .into_iter()
        .filter_map(|(t, k)| t.map(|_| k))
        .collect()
    }

    /// Inspects the world after a step. Call once per tick.
    pub fn step(&mut self, world: &World) {
        let tick = world.now();
        let ego = world.ego();
        let v = ego.speed();
        let gap = world.gap();
        let lead_visible = gap > Distance::ZERO && gap < RADAR_RANGE;

        // H1: too close to the lead.
        if self.first_h1.is_none()
            && lead_visible
            && v.mps() > 1.0
            && (gap < self.params.h1_min_gap || gap / v < self.params.h1_headway)
        {
            self.first_h1 = Some(tick);
        }

        // H2: slowed below the threshold although the road ahead is clear
        // (no lead within 1.5x the ACC's desired following gap) while the
        // cruise intent is much faster.
        if self.first_h2.is_none() && v < self.params.h2_speed {
            let desired_gap = 4.0 + 2.2 * v.mps();
            let road_clear = !lead_visible || gap.raw() > self.params.h2_gap_factor * desired_gap;
            let intent_fast =
                world.scenario().cruise_speed.mps() > 2.0 * self.params.h2_speed.mps();
            if road_clear && intent_fast {
                self.first_h2 = Some(tick);
            }
        }

        // H3: an edge beyond a lane line by the margin, sustained.
        let road = world.road();
        let beyond_left = ego.left_edge() - road.left_line();
        let beyond_right = road.right_line() - ego.right_edge();
        let out = beyond_left > self.params.h3_margin || beyond_right > self.params.h3_margin;
        if out {
            self.h3_streak += 1;
            let needed = (self.params.h3_sustain.secs() / units::DT.secs()).round() as u32;
            if self.first_h3.is_none() && self.h3_streak >= needed {
                self.first_h3 = Some(tick);
            }
        } else {
            self.h3_streak = 0;
        }

        // Accidents come straight from the world's collision detection.
        if self.accident.is_none() {
            if let Some((t, kind)) = world.collision() {
                self.accident = Some((t, kind.into()));
                // A guardrail strike implies the lane was left, even if the
                // sustain window had not elapsed yet: a hazard always
                // precedes (or coincides with) its accident.
                let lateral_crash = matches!(
                    kind,
                    CollisionKind::Guardrail | CollisionKind::NeighborVehicle
                );
                if lateral_crash && self.first_h3.is_none() {
                    self.first_h3 = Some(t);
                }
                if kind == CollisionKind::LeadVehicle && self.first_h1.is_none() {
                    self.first_h1 = Some(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use driving_sim::{ActuatorCommand, Scenario, ScenarioId};
    use units::{Accel, Angle};

    fn world(id: ScenarioId, gap: f64) -> World {
        World::new(Scenario::new(id, Distance::meters(gap)), 7)
    }

    /// Steering that holds the paper's curve.
    fn curve_hold() -> ActuatorCommand {
        ActuatorCommand {
            accel: Accel::ZERO,
            steer: Angle::from_radians(2.0 * 2.7 / 2500.0),
        }
    }

    #[test]
    fn h1_fires_before_collision_when_ramming_lead() {
        let mut w = world(ScenarioId::S1, 50.0);
        let mut det = HazardDetector::default();
        let mut h1_at = None;
        for _ in 0..1000 {
            w.step(curve_hold());
            det.step(&w);
            if h1_at.is_none() {
                h1_at = det.first(HazardKind::H1);
            }
            if det.accident().is_some() {
                break;
            }
        }
        let h1 = h1_at.expect("H1 occurs");
        let (crash, kind) = det.accident().expect("A1 follows");
        assert_eq!(kind, AccidentKind::A1);
        assert!(h1 < crash, "hazard strictly precedes the accident");
        assert_eq!(det.first_any().unwrap().1, HazardKind::H1);
    }

    #[test]
    fn h2_fires_when_braking_to_stop_on_clear_road() {
        let mut w = world(ScenarioId::S2, 100.0);
        let mut det = HazardDetector::default();
        // Hard brake from 60 mph; the lead pulls away.
        for _ in 0..3000 {
            w.step(ActuatorCommand {
                accel: Accel::from_mps2(-3.5),
                steer: Angle::from_radians(2.0 * 2.7 / 2500.0),
            });
            det.step(&w);
        }
        let h2 = det.first(HazardKind::H2).expect("H2 fires");
        // From 26.8 m/s at -3.5 m/s^2, 10 m/s is reached around 4.8 s
        // (first-order actuator lag included).
        let t = h2.time().secs();
        assert!((3.0..7.0).contains(&t), "H2 at {t}");
    }

    #[test]
    fn h2_does_not_fire_when_following_a_slow_lead() {
        // Ego slows to a crawl behind a close, slow lead: justified.
        let mut w = world(ScenarioId::S1, 30.0);
        let mut det = HazardDetector::default();
        for _ in 0..2000 {
            let cmd = if w.gap().raw() < 25.0 {
                ActuatorCommand {
                    accel: Accel::from_mps2(-2.0),
                    steer: Angle::from_radians(2.0 * 2.7 / 2500.0),
                }
            } else {
                curve_hold()
            };
            w.step(cmd);
            det.step(&w);
        }
        assert!(det.first(HazardKind::H2).is_none());
    }

    #[test]
    fn h3_fires_on_sustained_lane_departure() {
        let mut w = world(ScenarioId::S2, 200.0);
        let mut det = HazardDetector::default();
        for _ in 0..400 {
            w.step(ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(-0.5),
            });
            det.step(&w);
            if det.accident().is_some() {
                break;
            }
        }
        let h3 = det.first(HazardKind::H3).expect("H3 fires");
        let (crash, kind) = det.accident().expect("A3 follows at the rail");
        assert_eq!(kind, AccidentKind::A3);
        assert!(h3 <= crash);
    }

    #[test]
    fn h3_needs_sustained_excursion() {
        let mut det = HazardDetector::new(HazardParams {
            h3_sustain: Seconds::new(0.2),
            ..HazardParams::default()
        });
        let mut w = world(ScenarioId::S2, 200.0);
        // A brief clip over the line (fewer than 20 ticks) must not fire:
        // drive out for 10 ticks' worth, then straighten. Simulated directly
        // on the streak logic by feeding a world that is only momentarily out.
        for _ in 0..5 {
            w.step(ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(-0.5),
            });
            det.step(&w);
        }
        assert!(
            det.first(HazardKind::H3).is_none(),
            "5 ticks is not sustained"
        );
    }

    #[test]
    fn nominal_following_produces_no_hazards() {
        let mut w = world(ScenarioId::S2, 70.0);
        let mut det = HazardDetector::default();
        let mut prev_d = w.ego().d().raw();
        for _ in 0..units::STEPS_PER_SIM {
            // Simple safe policy: lane-keep against the disturbance, brake
            // in proportion to closing speed when nearer than 55 m.
            let d = w.ego().d().raw();
            let d_rate = (d - prev_d) / units::DT.secs();
            prev_d = d;
            let steer = Angle::from_radians(2.7 / 800.0 - 0.004 * d - 0.008 * d_rate);
            let closing = w.relative_speed().mps();
            let accel = if w.gap().raw() < 55.0 && closing > -1.0 {
                Accel::from_mps2(-1.2 * (closing + 1.0).clamp(0.0, 3.0))
            } else {
                Accel::ZERO
            };
            w.step(ActuatorCommand { accel, steer });
            det.step(&w);
        }
        assert_eq!(det.first_any(), None);
        assert_eq!(det.accident(), None);
        assert!(det.kinds().is_empty());
    }
}
