//! Sensor models: GPS, radar and the camera/lane-perception proxy.
//!
//! Each sensor samples the ground-truth [`World`] state and perturbs it with
//! seeded noise; [`SensorFrame::stamped`] turns a sample into the
//! Cereal-style messages the paper's attacker eavesdrops on
//! (`gpsLocationExternal`, `modelV2`, `radarState`).

use msgbus::schema::{GpsLocation, LaneModel, LeadTrack, RadarState, SensorFeed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use units::{Accel, Distance, Speed, Tick, DT};

use crate::noise::{gaussian, OrnsteinUhlenbeck};
use crate::World;

/// Radar detection range — and, by construction, the lead-visibility window
/// shared by every consumer of the perception stack: the sensor suite drops
/// leads beyond it, the driver model ignores them, and the hazard detector
/// and flight recorder treat them as "no lead". One constant, one truth.
pub const RADAR_RANGE: Distance = Distance::meters(150.0);

/// One synchronized reading of all sensors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SensorFrame {
    /// GPS sample.
    pub gps: GpsLocation,
    /// Lane-perception sample.
    pub lane: LaneModel,
    /// Radar sample.
    pub radar: RadarState,
}

impl SensorFrame {
    /// The frame as one cycle's sensor traffic, every stream sampled at
    /// `tick` and delivered.
    pub fn stamped(&self, tick: Tick) -> SensorFeed {
        SensorFeed {
            gps: Some((tick, self.gps)),
            lane: Some((tick, self.lane)),
            radar: Some((tick, self.radar)),
        }
    }
}

/// The ego vehicle's sensor suite with per-run seeded noise.
#[derive(Debug)]
pub struct SensorSuite {
    rng: StdRng,
    /// Slow wander in the perceived lateral position — the dominant cause of
    /// the attack-free lane invasions of the paper's Fig. 7.
    lane_drift: OrnsteinUhlenbeck,
    gps_speed_sigma: f64,
    radar_dist_sigma: f64,
    radar_speed_sigma: f64,
    lane_line_sigma: f64,
}

impl SensorSuite {
    /// Creates a sensor suite seeded for one simulation run.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            lane_drift: OrnsteinUhlenbeck::new(0.3, 0.05, DT.secs()),
            gps_speed_sigma: 0.05,
            radar_dist_sigma: 0.25,
            radar_speed_sigma: 0.15,
            lane_line_sigma: 0.02,
        }
    }

    /// Samples every sensor against the current world state.
    pub fn sample(&mut self, world: &World) -> SensorFrame {
        let ego = world.ego();
        let road = world.road();

        let gps = GpsLocation {
            speed: Speed::from_mps(
                (ego.speed().mps() + self.gps_speed_sigma * gaussian(&mut self.rng)).max(0.0),
            ),
            bearing: ego.heading(),
        };

        // Perceived lateral position = truth + drift, measured against the
        // lane the camera currently sees the car in: once the car crosses
        // into the left neighbour lane, perception re-anchors to that lane
        // (a camera tracks the lines around the car, not the lane the trip
        // started in). This re-anchoring is what ends a steering attack's
        // edge context after a lane change.
        let drift = self.lane_drift.step(&mut self.rng);
        let width = road.lane_width().raw();
        let lane_index = (ego.d().raw() / width).round().clamp(0.0, 2.0);
        let d_perceived = ego.d().raw() - lane_index * width + drift;
        let half = width / 2.0;
        let jitter = self.lane_line_sigma * gaussian(&mut self.rng);
        let lane = LaneModel {
            left_line: Distance::meters(half - d_perceived + jitter),
            right_line: Distance::meters(half + d_perceived + jitter),
            lane_width: road.lane_width(),
            curvature: road.curvature(ego.s()) + 2e-5 * gaussian(&mut self.rng),
        };

        // The radar tracks the nearest in-path vehicle of the lane the ego
        // currently occupies: the scenario lead in its own lane, or the
        // convoy member ahead once the ego has moved into the left lane.
        let in_left_lane = (ego.d().raw() - 3.7).abs() < 1.85;
        let radar = if in_left_lane {
            let member = world.neighbors().member_ahead(world.now().time(), ego.s());
            let gap = member - ego.s();
            RadarState {
                lead: (gap < RADAR_RANGE).then(|| LeadTrack {
                    d_rel: Distance::meters(
                        (gap.raw() + self.radar_dist_sigma * gaussian(&mut self.rng)).max(0.0),
                    ),
                    v_lead: Speed::from_mps(
                        (world.neighbors().speed.mps()
                            + self.radar_speed_sigma * gaussian(&mut self.rng))
                        .max(0.0),
                    ),
                    a_lead: Accel::ZERO,
                }),
            }
        } else {
            let gap = world.gap();
            let lead_visible =
                gap > Distance::ZERO && gap < RADAR_RANGE && ego.d().abs() < Distance::meters(2.5);
            RadarState {
                lead: lead_visible.then(|| LeadTrack {
                    d_rel: Distance::meters(
                        (gap.raw() + self.radar_dist_sigma * gaussian(&mut self.rng)).max(0.0),
                    ),
                    v_lead: Speed::from_mps(
                        (world.lead().speed().mps()
                            + self.radar_speed_sigma * gaussian(&mut self.rng))
                        .max(0.0),
                    ),
                    a_lead: world.lead().accel(world.now().time()),
                }),
            }
        };

        SensorFrame { gps, lane, radar }
    }
}

/// Ground-truth lead acceleration is exposed through the radar message; keep
/// the type here so `World` stays the single source of truth.
#[allow(dead_code)]
fn _type_assertions(a: Accel) -> Accel {
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActuatorCommand, Scenario, ScenarioId};
    use msgbus::Topic;

    fn world(gap: f64) -> World {
        World::new(Scenario::new(ScenarioId::S1, Distance::meters(gap)), 1234)
    }

    #[test]
    fn gps_tracks_true_speed() {
        let w = world(70.0);
        let mut sensors = SensorSuite::new(1);
        let mut err_acc = 0.0;
        for _ in 0..200 {
            let f = sensors.sample(&w);
            err_acc += f.gps.speed.mps() - w.ego().speed().mps();
        }
        assert!((err_acc / 200.0).abs() < 0.02, "unbiased speed estimate");
    }

    #[test]
    fn radar_sees_lead_within_range() {
        let w = world(70.0);
        let mut sensors = SensorSuite::new(2);
        let f = sensors.sample(&w);
        let lead = f.radar.lead.expect("lead at 70 m is visible");
        assert!((lead.d_rel.raw() - 70.0).abs() < 2.0);
        assert!((lead.v_lead.mph() - 35.0).abs() < 2.0);
    }

    #[test]
    fn radar_blind_beyond_range() {
        let w = world(200.0);
        let mut sensors = SensorSuite::new(3);
        assert!(sensors.sample(&w).radar.lead.is_none());
    }

    #[test]
    fn lane_lines_are_consistent_with_offset() {
        let mut w = world(70.0);
        // Drive a bit so the ego keeps its initial right offset.
        for _ in 0..10 {
            w.step(ActuatorCommand::default());
        }
        let mut sensors = SensorSuite::new(4);
        let mut sum_width = 0.0;
        let mut sum_offset = 0.0;
        for _ in 0..500 {
            let f = sensors.sample(&w);
            sum_width += (f.lane.left_line + f.lane.right_line).raw();
            sum_offset += f.lane.lateral_offset().raw();
        }
        assert!(
            (sum_width / 500.0 - 3.7).abs() < 0.05,
            "line distances sum to lane width"
        );
        assert!(
            (sum_offset / 500.0 - w.ego().d().raw()).abs() < 1.0,
            "perceived offset tracks truth within drift bounds (stationary
             drift std is ~0.35 m and 5 s is about one correlation time)"
        );
    }

    #[test]
    fn stamped_frame_publishes_three_topics() {
        let w = world(70.0);
        let bus = msgbus::Bus::new();
        let mut gps = bus.subscribe(&[Topic::GpsLocationExternal]);
        let mut model = bus.subscribe(&[Topic::ModelV2]);
        let mut radar = bus.subscribe(&[Topic::RadarState]);
        let mut sensors = SensorSuite::new(5);
        sensors.sample(&w).stamped(Tick::new(3)).publish(&bus);
        for sub in [&mut gps, &mut model, &mut radar] {
            let msgs = sub.drain();
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0].tick(), Tick::new(3));
        }
    }

    #[test]
    fn same_seed_same_readings() {
        let w = world(70.0);
        let sample = |seed| {
            let mut s = SensorSuite::new(seed);
            (0..50)
                .map(|_| s.sample(&w).gps.speed.mps())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }
}
