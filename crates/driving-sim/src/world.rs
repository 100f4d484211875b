//! The lock-step simulation world.

use rand::rngs::StdRng;
use rand::SeedableRng;
use units::{Distance, SimClock, Tick, DT};

use crate::{
    ActuatorCommand, CollisionKind, LaneInvasionTracker, LeadVehicle, NeighborTraffic,
    OrnsteinUhlenbeck, Road, Scenario, Vehicle, VehicleParams,
};

/// The complete simulated world: road, ego vehicle, lead vehicle, clock and
/// event trackers. Advanced one 10 ms tick at a time by [`World::step`].
///
/// Besides the vehicles, the world applies a seeded lateral disturbance to
/// the ego (crosswind, road crown, surface irregularities). The ALC fights
/// it with soft gains, which produces the lane wander — and the occasional
/// attack-free lane invasion — that the paper reports (Fig. 7,
/// Observation 1).
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    road: Road,
    ego: Vehicle,
    lead: LeadVehicle,
    clock: SimClock,
    scenario: Scenario,
    invasions: LaneInvasionTracker,
    collision: Option<(Tick, CollisionKind)>,
    /// Lateral disturbance velocity process (m/s).
    disturbance: OrnsteinUhlenbeck,
    /// Convoy in the left neighbour lane.
    neighbors: NeighborTraffic,
    rng: StdRng,
    /// Seed identifying this run (recorded for reproducibility).
    seed: u64,
}

impl World {
    /// Creates the world for a scenario. The `seed` only identifies the run
    /// here; stochastic behaviour lives in the sensor suite, which should be
    /// constructed from the same seed.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        let road = Road::default();
        let ego = Vehicle::new(
            VehicleParams::default(),
            Distance::ZERO,
            scenario.initial_lateral_offset,
            scenario.cruise_speed,
        );
        let lead = LeadVehicle::new_seeded(scenario.id.lead_behavior(), scenario.initial_gap, seed);
        Self {
            road,
            ego,
            lead,
            clock: SimClock::new(),
            scenario,
            invasions: LaneInvasionTracker::new(),
            collision: None,
            // Stationary std ~0.40 m/s of lateral drift velocity with a ~3 s
            // correlation time.
            disturbance: OrnsteinUhlenbeck::new(0.33, 0.38, DT.secs()),
            neighbors: NeighborTraffic::standard(seed),
            rng: StdRng::seed_from_u64(seed ^ 0xD157u64),
            seed,
        }
    }

    /// The road geometry.
    pub fn road(&self) -> &Road {
        &self.road
    }

    /// The ego vehicle.
    pub fn ego(&self) -> &Vehicle {
        &self.ego
    }

    /// The lead vehicle.
    pub fn lead(&self) -> &LeadVehicle {
        &self.lead
    }

    /// The scenario this world runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The current tick.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Longitudinal gap from the ego front bumper to the lead rear bumper.
    pub fn gap(&self) -> Distance {
        self.lead.s() - self.ego.s()
    }

    /// Relative speed, ego minus lead (positive = closing); the paper's `RS`.
    pub fn relative_speed(&self) -> units::Speed {
        self.ego.speed() - self.lead.speed()
    }

    /// The neighbour-lane convoy.
    pub fn neighbors(&self) -> &NeighborTraffic {
        &self.neighbors
    }

    /// The collision, if one has occurred, with the tick it happened at.
    pub fn collision(&self) -> Option<(Tick, CollisionKind)> {
        self.collision
    }

    /// Total lane-invasion events so far.
    pub fn lane_invasions(&self) -> u64 {
        self.invasions.events()
    }

    /// Whether the car is currently touching/over a lane line.
    pub fn is_invading_lane(&self) -> bool {
        self.invasions.is_invading()
    }

    /// Whether the standard 50 s run has completed.
    pub fn finished(&self) -> bool {
        self.clock.finished()
    }

    /// Advances the world by one control cycle under the given actuator
    /// command. After a collision the world freezes (vehicles stop moving),
    /// matching how the paper terminates accident runs.
    ///
    /// Returns the new tick.
    pub fn step(&mut self, cmd: ActuatorCommand) -> Tick {
        if self.collision.is_some() {
            return self.clock.step();
        }
        self.ego.step(cmd, &self.road);
        // Lateral disturbance scales with speed: crosswind and road crown
        // displace a fast car more per second than a crawling one. Gusts are
        // physically bounded, so the process is clamped.
        let speed_frac = (self.ego.speed().mps() / 26.8).max(0.0);
        let drift_mps =
            self.disturbance.step(&mut self.rng).clamp(-0.8, 0.8) * speed_frac.powf(1.5);
        self.ego
            .nudge_lateral(Distance::meters(drift_mps * DT.secs()));
        self.lead.step(self.clock.now());
        let tick = self.clock.step();

        // Lane-invasion tracking.
        self.invasions
            .step(self.ego.left_edge(), self.ego.right_edge(), &self.road);

        // Collision with the lead: longitudinal contact plus lateral overlap.
        let lateral_overlap =
            self.ego.d().abs() < (self.ego.params().width + Distance::meters(1.82)) / 2.0;
        if self.gap() <= Distance::ZERO && lateral_overlap {
            self.collision = Some((tick, CollisionKind::LeadVehicle));
        } else if self
            .road
            .guardrail_clearance(self.ego.left_edge(), self.ego.right_edge())
            < Distance::ZERO
        {
            self.collision = Some((tick, CollisionKind::Guardrail));
        } else {
            // A convoy member is only hit when the ego enters the lane
            // dangerously: convoy drivers accommodate slow, shallow merges
            // but cannot react to a fast cut-in or a large speed differential.
            // Convoy drivers yield to slow, shallow merges; only a genuine
            // cut-across (high lateral rate) cannot be avoided.
            let lateral_rate = self.ego.speed().mps() * self.ego.heading().sin();
            let dangerous = lateral_rate.abs() > 1.5;
            if dangerous
                && self.neighbors.collides(
                    tick.time(),
                    self.ego.s(),
                    self.ego.d(),
                    self.ego.params().length,
                    self.ego.params().width,
                )
            {
                self.collision = Some((tick, CollisionKind::NeighborVehicle));
            }
        }
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioId;
    use units::{Accel, Angle};

    fn world(id: ScenarioId, gap: f64) -> World {
        World::new(Scenario::new(id, Distance::meters(gap)), 0)
    }

    #[test]
    fn initial_conditions_match_scenario() {
        let w = world(ScenarioId::S2, 70.0);
        assert_eq!(w.gap(), Distance::meters(70.0));
        assert!((w.ego().speed().mph() - 60.0).abs() < 1e-9);
        assert!((w.lead().speed().mph() - 50.0).abs() < 1e-9);
        assert!((w.relative_speed().mph() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn coasting_into_slow_lead_collides() {
        let mut w = world(ScenarioId::S1, 50.0);
        // Steer just enough to track the curve (wheel angle = ratio x
        // road-wheel angle), but nobody brakes: 60 mph ego vs 35 mph lead,
        // 50 m gap -> closing at 11.2 m/s, impact in ~4.5 s.
        let curve_steer = Angle::from_radians(2.0 * 2.7 / 2500.0);
        let mut collided_at = None;
        for _ in 0..1000 {
            w.step(ActuatorCommand {
                accel: Accel::ZERO,
                steer: curve_steer,
            });
            if let Some((tick, kind)) = w.collision() {
                collided_at = Some((tick, kind));
                break;
            }
        }
        let (tick, kind) = collided_at.expect("must collide");
        assert_eq!(kind, CollisionKind::LeadVehicle);
        let t = tick.time().secs();
        assert!((3.5..6.0).contains(&t), "impact around 4.5 s, got {t}");
    }

    #[test]
    fn world_freezes_after_collision() {
        let mut w = world(ScenarioId::S1, 50.0);
        for _ in 0..1000 {
            w.step(ActuatorCommand::default());
        }
        let (tick, _) = w.collision().unwrap();
        let s_at_crash = w.ego().s();
        w.step(ActuatorCommand {
            accel: Accel::from_mps2(2.0),
            steer: Angle::ZERO,
        });
        assert_eq!(w.ego().s(), s_at_crash, "frozen after crash");
        assert!(w.now() > tick);
    }

    #[test]
    fn hard_steer_right_hits_guardrail() {
        let mut w = world(ScenarioId::S2, 100.0);
        let cmd = ActuatorCommand {
            accel: Accel::ZERO,
            steer: Angle::from_degrees(-0.5),
        };
        let mut hit = None;
        for _ in 0..500 {
            w.step(cmd);
            if let Some((tick, kind)) = w.collision() {
                hit = Some((tick, kind));
                break;
            }
        }
        let (tick, kind) = hit.expect("steering attack reaches the rail");
        assert_eq!(kind, CollisionKind::Guardrail);
        // The paper reports steering hazards within ~1.1-1.6 s; the rail is a
        // little farther than the lane line.
        let t = tick.time().secs();
        assert!((0.8..3.0).contains(&t), "rail contact at {t} s");
    }

    #[test]
    fn steering_left_takes_longer_than_right() {
        // The asymmetry behind the paper's Observation 5 details: the ego
        // starts right of centre, so the right rail is much closer.
        let time_to_rail = |steer_deg: f64| {
            let mut w = world(ScenarioId::S2, 200.0);
            let cmd = ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(steer_deg),
            };
            for _ in 0..3000 {
                w.step(cmd);
                if let Some((tick, _)) = w.collision() {
                    return tick.time().secs();
                }
            }
            f64::INFINITY
        };
        let right = time_to_rail(-0.5);
        let left = time_to_rail(0.5);
        assert!(right < left, "right rail closer: {right} vs {left}");
    }

    #[test]
    fn lane_invasions_counted_via_world() {
        let mut w = world(ScenarioId::S2, 200.0);
        assert_eq!(w.lane_invasions(), 0);
        // Steer left until across the line.
        for _ in 0..250 {
            w.step(ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(0.4),
            });
        }
        assert!(w.lane_invasions() >= 1);
    }

    #[test]
    fn run_to_completion() {
        let mut w = world(ScenarioId::S2, 100.0);
        // Mild braking keeps the ego behind the lead for the whole run.
        while !w.finished() {
            let cmd = if w.gap().raw() < 30.0 {
                ActuatorCommand {
                    accel: Accel::from_mps2(-1.0),
                    steer: Angle::ZERO,
                }
            } else {
                ActuatorCommand::default()
            };
            w.step(cmd);
        }
        assert_eq!(w.now().index(), units::STEPS_PER_SIM);
    }
}
