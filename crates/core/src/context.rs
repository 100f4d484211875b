//! Safety context inference: turning eavesdropped messages into the
//! human-interpretable state variables of the safety specification.

use units::{Distance, Seconds, Speed, Tick};

use crate::eavesdrop::Eavesdropper;

/// Half the car's width. The attacker knows the target platform; 1.82 m is
/// the width of the simulated sedan.
const HALF_WIDTH: Distance = Distance::meters(0.91);

/// The inferred system context at one instant — the variables of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContextState {
    /// Ego speed (from GPS).
    pub v_ego: Speed,
    /// Cruise set-speed (from `carState`).
    pub v_cruise: Speed,
    /// Whether a lead vehicle is currently tracked by the radar.
    pub lead_present: bool,
    /// Headway time `HWT = relative distance / current speed`.
    pub hwt: Option<Seconds>,
    /// Relative speed `RS = v_ego − v_lead` (positive = closing).
    pub rs: Option<Speed>,
    /// Distance from the car's left side to the left lane line.
    pub d_left: Distance,
    /// Distance from the car's right side to the right lane line.
    pub d_right: Distance,
}

/// Maintains a [`ContextState`] from live bus traffic.
#[derive(Debug)]
pub struct ContextInference {
    /// The bus taps [`update`](Self::update) drains; `None` for an
    /// inference fed through [`absorb`](Self::absorb) only.
    taps: Option<Eavesdropper>,
    state: ContextState,
    /// Ticks since the last radar message carrying a lead.
    lead_age: u32,
}

/// A lead older than this (0.3 s) is considered lost.
const LEAD_STALE_TICKS: u32 = 30;

impl ContextInference {
    /// Creates an inference engine over an existing set of taps.
    pub fn new(taps: Eavesdropper) -> Self {
        Self::with_taps(Some(taps))
    }

    /// Creates an inference engine with no bus taps, fed only through
    /// [`absorb`](Self::absorb).
    pub fn direct() -> Self {
        Self::with_taps(None)
    }

    fn with_taps(taps: Option<Eavesdropper>) -> Self {
        Self {
            taps,
            state: ContextState {
                d_left: Distance::meters(0.94),
                d_right: Distance::meters(0.94),
                ..ContextState::default()
            },
            lead_age: LEAD_STALE_TICKS,
        }
    }

    /// The current inferred context.
    pub fn state(&self) -> ContextState {
        self.state
    }

    /// Drains fresh messages and refreshes the context. Call once per tick.
    pub fn update(&mut self, _tick: Tick) -> ContextState {
        let obs = self
            .taps
            .as_mut()
            .map_or_else(crate::Observations::default, Eavesdropper::drain);
        self.absorb(&obs)
    }

    /// Folds one tick's observations into the context — the bus-free core
    /// of [`update`](Self::update). A batched lane that synthesizes its
    /// [`Observations`](crate::Observations) directly (no pub/sub hop)
    /// calls this instead; the math is the shared code path, so the two
    /// entry points cannot drift apart.
    pub fn absorb(&mut self, obs: &crate::Observations) -> ContextState {
        if let Some(gps) = obs.gps {
            self.state.v_ego = gps.speed;
        }
        if let Some(car) = obs.car_state {
            self.state.v_cruise = car.v_cruise;
        }
        if let Some(model) = obs.lane {
            self.state.d_left = model.left_line - HALF_WIDTH;
            self.state.d_right = model.right_line - HALF_WIDTH;
        }
        match obs.radar {
            Some(radar) => match radar.lead {
                Some(lead) => {
                    self.lead_age = 0;
                    self.state.lead_present = true;
                    self.state.rs = Some(self.state.v_ego - lead.v_lead);
                    self.state.hwt =
                        (self.state.v_ego.mps() > 0.5).then(|| lead.d_rel / self.state.v_ego);
                }
                None => {
                    self.lead_age = self.lead_age.saturating_add(1);
                }
            },
            None => {
                self.lead_age = self.lead_age.saturating_add(1);
            }
        }
        if self.lead_age >= LEAD_STALE_TICKS {
            self.state.lead_present = false;
            self.state.rs = None;
            self.state.hwt = None;
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgbus::schema::{CarState, GpsLocation, LaneModel, LeadTrack, RadarState};
    use msgbus::{Bus, Payload};
    use units::{Accel, Angle};

    fn setup() -> (Bus, ContextInference) {
        let bus = Bus::new();
        let taps = Eavesdropper::new(&bus);
        (bus, ContextInference::new(taps))
    }

    fn publish_full(bus: &Bus, v_ego: f64, gap: f64, v_lead: f64, offset: f64) {
        bus.publish(
            Tick::ZERO,
            Payload::GpsLocationExternal(GpsLocation {
                speed: Speed::from_mps(v_ego),
                bearing: Angle::ZERO,
            }),
        );
        bus.publish(
            Tick::ZERO,
            Payload::CarState(CarState {
                v_ego: Speed::from_mps(v_ego),
                a_ego: Accel::ZERO,
                steering_angle: Angle::ZERO,
                v_cruise: Speed::from_mph(60.0),
                cruise_enabled: true,
            }),
        );
        bus.publish(
            Tick::ZERO,
            Payload::ModelV2(LaneModel {
                left_line: Distance::meters(1.85 - offset),
                right_line: Distance::meters(1.85 + offset),
                lane_width: Distance::meters(3.7),
                curvature: 0.0,
            }),
        );
        bus.publish(
            Tick::ZERO,
            Payload::RadarState(RadarState {
                lead: Some(LeadTrack {
                    d_rel: Distance::meters(gap),
                    v_lead: Speed::from_mps(v_lead),
                    a_lead: Accel::ZERO,
                }),
            }),
        );
    }

    #[test]
    fn derives_hwt_and_rs() {
        let (bus, mut inf) = setup();
        publish_full(&bus, 26.8224, 53.6448, 15.0, 0.0);
        let s = inf.update(Tick::ZERO);
        assert!(s.lead_present);
        assert!((s.hwt.unwrap().secs() - 2.0).abs() < 1e-9, "HWT = d/v");
        assert!(
            (s.rs.unwrap().mps() - 11.8224).abs() < 1e-9,
            "RS = v - v_lead"
        );
        assert!((s.v_cruise.mph() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn derives_edge_distances() {
        let (bus, mut inf) = setup();
        // Car 0.5 m left of centre.
        publish_full(&bus, 26.8, 60.0, 15.0, 0.5);
        let s = inf.update(Tick::ZERO);
        // left line at 1.35 from centreline; minus half width 0.91.
        assert!((s.d_left.raw() - 0.44).abs() < 1e-9);
        assert!((s.d_right.raw() - 1.44).abs() < 1e-9);
    }

    #[test]
    fn hwt_undefined_at_standstill() {
        let (bus, mut inf) = setup();
        publish_full(&bus, 0.0, 60.0, 15.0, 0.0);
        let s = inf.update(Tick::ZERO);
        assert!(s.hwt.is_none(), "no division by ~zero speed");
        assert!(s.lead_present);
    }

    #[test]
    fn lead_goes_stale_without_detections() {
        let (bus, mut inf) = setup();
        publish_full(&bus, 26.8, 60.0, 15.0, 0.0);
        inf.update(Tick::ZERO);
        assert!(inf.state().lead_present);
        for i in 0..LEAD_STALE_TICKS {
            bus.publish(
                Tick::new(i as u64),
                Payload::RadarState(RadarState { lead: None }),
            );
            inf.update(Tick::new(i as u64));
        }
        let s = inf.state();
        assert!(!s.lead_present);
        assert!(s.hwt.is_none());
        assert!(s.rs.is_none());
    }

    #[test]
    fn state_persists_between_sparse_messages() {
        let (bus, mut inf) = setup();
        publish_full(&bus, 20.0, 60.0, 15.0, 0.0);
        inf.update(Tick::ZERO);
        // No new messages this tick: speed estimate retained.
        let s = inf.update(Tick::new(1));
        assert_eq!(s.v_ego, Speed::from_mps(20.0));
    }
}
