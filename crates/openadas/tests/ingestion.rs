//! One ingestion path, two ways in: an ADAS draining a `Bus` through
//! `step_into` and one handed the same traffic through `step_with` must
//! be indistinguishable, tick for tick.
//!
//! Both carry plausibility gates, and the seeded stamped feed is built to
//! exercise everything ingestion decides: dropped streams (coasting),
//! backdated stamps past the staleness bound, value jumps and frozen
//! readings that trip the gates, and the re-anchoring that follows.

use msgbus::schema::{CarState, GpsLocation, LaneModel, LeadTrack, RadarState, SensorFeed};
use msgbus::{Bus, Payload, Topic};
use openadas::{Adas, AdasOutput, DegradationState, GateConfig, STALE_AFTER_TICKS};
use units::mix::splitmix64;
use units::{Accel, Angle, Distance, Speed, Tick};

const TICKS: u64 = 3_000;

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// What every stream reports at `tick` before any fault: a car cruising
/// near 25 m/s behind a lead, wandering gently in its lane.
fn truth(tick: u64, rng: &mut Rng) -> (GpsLocation, LaneModel, RadarState) {
    let t = tick as f64 * 0.01;
    let gps = GpsLocation {
        speed: Speed::from_mps(25.0 + 2.0 * (t / 7.0).sin() + 0.05 * rng.unit()),
        bearing: Angle::ZERO,
    };
    let offset = 0.3 * (t / 3.0).sin() + 0.01 * rng.unit();
    let lane = LaneModel {
        left_line: Distance::meters(1.85 - offset),
        right_line: Distance::meters(1.85 + offset),
        lane_width: Distance::meters(3.7),
        curvature: 1.0 / 800.0,
    };
    let radar = RadarState {
        lead: (tick % 1_000 < 900).then(|| LeadTrack {
            d_rel: Distance::meters(45.0 + 5.0 * (t / 5.0).cos() + 0.1 * rng.unit()),
            v_lead: Speed::from_mps(24.0 + 0.05 * rng.unit()),
            a_lead: Accel::ZERO,
        }),
    };
    (gps, lane, radar)
}

/// The stamped feed for `tick`: the truth, perturbed by the fault the
/// tick's draws select.
fn feed(
    tick: u64,
    rng: &mut Rng,
    frozen: &mut Option<(GpsLocation, LaneModel, RadarState)>,
) -> SensorFeed {
    let (mut gps, mut lane, mut radar) = truth(tick, rng);
    let now = Tick::new(tick);
    // A frozen window: every stream repeats one reading bit for bit.
    if (1_200..1_400).contains(&tick) {
        let held = *frozen.get_or_insert((gps, lane, radar));
        (gps, lane, radar) = held;
    }
    // Jumps no physical car makes in 10 ms.
    if rng.chance(0.02) {
        gps.speed = Speed::from_mps(gps.speed.mps() + 12.0);
    }
    if rng.chance(0.02) {
        lane.left_line = Distance::meters(lane.left_line.raw() - 1.2);
        lane.right_line = Distance::meters(lane.right_line.raw() + 1.2);
    }
    if rng.chance(0.02) {
        if let Some(lead) = radar.lead.as_mut() {
            lead.d_rel = Distance::meters(lead.d_rel.raw() + 40.0);
        }
    }
    // Each stream may be lost, or delivered with a backdated stamp (some
    // within the staleness bound, some past it).
    let stamp = |rng: &mut Rng| -> Option<Tick> {
        match rng.next() % 10 {
            0 => None,
            1 => Some(Tick::new(
                tick.saturating_sub(1 + rng.next() % (3 * STALE_AFTER_TICKS)),
            )),
            _ => Some(now),
        }
    };
    // Long outages on one stream walk the degradation ladder.
    let radar_out = (2_000..2_150).contains(&tick);
    SensorFeed {
        gps: stamp(rng).map(|s| (s, gps)),
        lane: stamp(rng).map(|s| (s, lane)),
        radar: stamp(rng).filter(|_| !radar_out).map(|s| (s, radar)),
    }
}

fn drive(gates: GateConfig, seed: u64) {
    let v_cruise = Speed::from_mph(60.0);
    let bus = Bus::new();
    let mut state_tap = bus.subscribe(&[Topic::CarState]);
    let mut via_bus = Adas::with_gates(&bus, v_cruise, gates);
    let mut direct = Adas::direct(v_cruise, Some(gates));
    let (mut out_bus, mut out_direct) = (AdasOutput::default(), AdasOutput::default());
    let mut rng = Rng(seed);
    let mut frozen = None;
    let (mut degraded, mut stale, mut dropped) = (false, false, false);
    for tick in 0..TICKS {
        let now = Tick::new(tick);
        let feed = feed(tick, &mut rng, &mut frozen);
        stale |= [
            feed.gps.map(|g| g.0),
            feed.lane.map(|l| l.0),
            feed.radar.map(|r| r.0),
        ]
        .into_iter()
        .flatten()
        .any(|s| now - s > STALE_AFTER_TICKS);
        dropped |= feed.gps.is_none() || feed.lane.is_none() || feed.radar.is_none();
        // An external detector's escalation request lands on both.
        if tick % 700 == 350 {
            via_bus.request_degradation(DegradationState::DegradedAccOff);
            direct.request_degradation(DegradationState::DegradedAccOff);
        }

        feed.publish(&bus);
        via_bus.step_into(now, &mut out_bus);
        let quantized = direct.step_with(now, &feed, true, &mut out_direct);

        assert_eq!(out_bus, out_direct, "tick {tick}: outputs diverge");
        assert_eq!(quantized, None, "frames were encoded");
        assert_eq!(
            via_bus.gate_rejections(),
            direct.gate_rejections(),
            "tick {tick}: gate rejections diverge"
        );
        let published: Vec<CarState> = state_tap
            .drain()
            .iter()
            .filter_map(|env| {
                if let Payload::CarState(car) = env.payload() {
                    Some(*car)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(published, [out_direct.car], "tick {tick}: carState");
        degraded |= out_direct.degradation != DegradationState::Nominal;
    }
    assert!(stale && dropped, "the feed exercised staleness and drops");
    assert!(direct.gate_rejections() > 0, "the feed tripped the gates");
    assert!(degraded, "the ladder moved");
}

#[test]
fn bus_drain_and_direct_feed_agree_with_enforcing_gates() {
    drive(GateConfig::enforcing(), 0x1A6E_5700);
}

#[test]
fn bus_drain_and_direct_feed_agree_with_observing_gates() {
    drive(GateConfig::observing(), 0x0B5E_47E5);
}
