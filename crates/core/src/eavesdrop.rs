//! Step 1 of the attack: eavesdropping on the pub/sub messaging.
//!
//! Cereal-style buses have no access control — anything on the device can
//! subscribe (paper Fig. 3). The eavesdropper taps the four streams the
//! attack needs and exposes the latest sample of each.

use msgbus::schema::{CarState, GpsLocation, LaneModel, RadarState};
use msgbus::{Bus, Envelope, Payload, Subscriber, Topic};

/// The latest samples drained in one tick (fields are `None` when no new
/// message arrived on that stream).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Observations {
    /// Latest `gpsLocationExternal`.
    pub gps: Option<GpsLocation>,
    /// Latest `modelV2`.
    pub lane: Option<LaneModel>,
    /// Latest `radarState`.
    pub radar: Option<RadarState>,
    /// Latest `carState`.
    pub car_state: Option<CarState>,
}

/// Passive subscriptions to the sensor and state topics.
#[derive(Debug)]
pub struct Eavesdropper {
    sub: Subscriber,
    messages_seen: u64,
    /// Drain scratch, reused every tick so steady-state taps stay
    /// allocation-free.
    scratch: Vec<Envelope>,
}

impl Eavesdropper {
    /// Subscribes to the four streams the context inference needs.
    pub fn new(bus: &Bus) -> Self {
        Self {
            sub: bus.subscribe(&[
                Topic::GpsLocationExternal,
                Topic::ModelV2,
                Topic::RadarState,
                Topic::CarState,
            ]),
            messages_seen: 0,
            scratch: Vec::new(),
        }
    }

    /// Total messages intercepted so far.
    pub fn messages_seen(&self) -> u64 {
        self.messages_seen
    }

    /// Drains queued traffic, keeping the newest sample per stream.
    pub fn drain(&mut self) -> Observations {
        let mut obs = Observations::default();
        self.sub.drain_into(&mut self.scratch);
        for env in self.scratch.drain(..) {
            self.messages_seen += 1;
            match env.into_payload() {
                Payload::GpsLocationExternal(g) => obs.gps = Some(g),
                Payload::ModelV2(m) => obs.lane = Some(m),
                Payload::RadarState(r) => obs.radar = Some(r),
                Payload::CarState(c) => obs.car_state = Some(c),
                // `Payload` is `#[non_exhaustive]`, so a wildcard must
                // follow the named variants.
                Payload::CarControl(_) | Payload::ControlsState(_) | _ => {}
            }
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{Angle, Speed, Tick};

    #[test]
    fn taps_all_four_streams() {
        let bus = Bus::new();
        let mut tap = Eavesdropper::new(&bus);
        bus.publish(
            Tick::ZERO,
            Payload::GpsLocationExternal(GpsLocation {
                speed: Speed::from_mph(60.0),
                bearing: Angle::ZERO,
            }),
        );
        bus.publish(Tick::ZERO, Payload::ModelV2(LaneModel::default()));
        bus.publish(Tick::ZERO, Payload::RadarState(RadarState::default()));
        bus.publish(Tick::ZERO, Payload::CarState(CarState::default()));
        let obs = tap.drain();
        assert!(obs.gps.is_some());
        assert!(obs.lane.is_some());
        assert!(obs.radar.is_some());
        assert!(obs.car_state.is_some());
        assert_eq!(tap.messages_seen(), 4);
    }

    #[test]
    fn newest_sample_wins() {
        let bus = Bus::new();
        let mut tap = Eavesdropper::new(&bus);
        for mph in [10.0, 20.0, 30.0] {
            bus.publish(
                Tick::ZERO,
                Payload::GpsLocationExternal(GpsLocation {
                    speed: Speed::from_mph(mph),
                    bearing: Angle::ZERO,
                }),
            );
        }
        let obs = tap.drain();
        assert!((obs.gps.unwrap().speed.mph() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn control_topics_are_ignored() {
        let bus = Bus::new();
        let mut tap = Eavesdropper::new(&bus);
        bus.publish(
            Tick::ZERO,
            Payload::CarControl(msgbus::schema::CarControl::default()),
        );
        let obs = tap.drain();
        assert_eq!(obs, Observations::default());
        assert_eq!(tap.messages_seen(), 0, "not even subscribed");
    }

    #[test]
    fn empty_drain_is_default() {
        let bus = Bus::new();
        let mut tap = Eavesdropper::new(&bus);
        assert_eq!(tap.drain(), Observations::default());
    }
}
