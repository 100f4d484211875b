//! Typed message payloads — the `log.capnp` equivalent of this reproduction.
//!
//! Sign conventions used throughout the workspace:
//!
//! * Lateral positions are positive **to the left** of the lane centre
//!   (ISO 8855 vehicle frame).
//! * Longitudinal acceleration is positive for gas, negative for brake.
//! * Road curvature is positive for a left-hand curve.

use units::{Accel, Angle, Distance, Speed, Tick};

use crate::{Bus, Topic};

/// Ego position fix published by the GPS module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpsLocation {
    /// Ground speed of the ego vehicle.
    pub speed: Speed,
    /// Heading relative to the road tangent.
    pub bearing: Angle,
}

/// Lane-line estimate published by the perception model (`modelV2`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneModel {
    /// Lateral distance from the ego centreline to the left lane line
    /// (positive when the line is to the left, i.e. normally).
    pub left_line: Distance,
    /// Lateral distance from the ego centreline to the right lane line
    /// (positive when the line is to the right, i.e. normally).
    pub right_line: Distance,
    /// Estimated lane width.
    pub lane_width: Distance,
    /// Estimated road curvature ahead, in 1/m; positive curves left.
    pub curvature: f64,
}

impl LaneModel {
    /// Lateral offset of the ego centreline from the lane centre
    /// (positive to the left).
    ///
    /// # Examples
    ///
    /// ```
    /// use msgbus::schema::LaneModel;
    /// use units::Distance;
    ///
    /// let m = LaneModel {
    ///     left_line: Distance::meters(2.2),
    ///     right_line: Distance::meters(1.5),
    ///     lane_width: Distance::meters(3.7),
    ///     curvature: 0.0,
    /// };
    /// // The car sits 0.35 m right of centre.
    /// assert!((m.lateral_offset().raw() + 0.35).abs() < 1e-9);
    /// ```
    pub fn lateral_offset(&self) -> Distance {
        (self.right_line - self.left_line) / 2.0
    }
}

/// A tracked lead vehicle, as published in `radarState`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadTrack {
    /// Longitudinal gap to the lead's rear bumper.
    pub d_rel: Distance,
    /// Absolute speed of the lead vehicle.
    pub v_lead: Speed,
    /// Acceleration of the lead vehicle.
    pub a_lead: Accel,
}

/// Radar module output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RadarState {
    /// The primary lead track, if one is detected.
    pub lead: Option<LeadTrack>,
}

/// One control cycle's sensor traffic: per stream, the *sample tick* and
/// payload of the message that arrived, or `None` when none did (the module
/// went silent or the publish was lost). The sample tick is the envelope
/// timestamp: a delayed or replayed reading keeps the tick it was sampled
/// at, which is what lets a consumer's staleness watchdog see its age.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SensorFeed {
    /// `gpsLocationExternal` sample tick and payload.
    pub gps: Option<(Tick, GpsLocation)>,
    /// `modelV2` sample tick and payload.
    pub lane: Option<(Tick, LaneModel)>,
    /// `radarState` sample tick and payload.
    pub radar: Option<(Tick, RadarState)>,
}

impl SensorFeed {
    /// Publishes each delivered message stamped with its sample tick, in
    /// stream order: `gpsLocationExternal`, `modelV2`, `radarState`.
    pub fn publish(&self, bus: &Bus) {
        if let Some((stamp, gps)) = self.gps {
            bus.publish(stamp, Payload::GpsLocationExternal(gps));
        }
        if let Some((stamp, lane)) = self.lane {
            bus.publish(stamp, Payload::ModelV2(lane));
        }
        if let Some((stamp, radar)) = self.radar {
            bus.publish(stamp, Payload::RadarState(radar));
        }
    }
}

/// Fused vehicle state (`carState`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CarState {
    /// Ego speed.
    pub v_ego: Speed,
    /// Ego longitudinal acceleration.
    pub a_ego: Accel,
    /// Current road-wheel steering angle.
    pub steering_angle: Angle,
    /// Cruise set-speed selected by the (simulated) driver.
    pub v_cruise: Speed,
    /// Whether the ADAS is engaged.
    pub cruise_enabled: bool,
}

/// High-level actuator command issued by the controller (`carControl`).
///
/// This is the quantity the paper's attack engine corrupts: it is translated
/// into gas/brake/steering CAN messages just before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CarControl {
    /// Desired longitudinal acceleration (positive = gas, negative = brake).
    pub accel: Accel,
    /// Desired road-wheel steering angle.
    pub steer: Angle,
}

/// Alerts the ADAS can raise to the driver.
///
/// Deliberately *exhaustive* (unlike [`Payload`]): alert kinds are a
/// safety-critical vocabulary, and clippy's `wildcard_enum_match_arm`
/// requires every consumer to name each variant — adding an alert must be
/// a compile-time event at every match, never absorbed by a `_ =>` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// The lateral controller wants more steering than the safety limit
    /// allows (`steerSaturated`). The only alert the paper observed during
    /// its attacks.
    SteerSaturated,
    /// Forward collision warning. The paper found it is *never* raised during
    /// the attacks because the corrupted brake command stays below the
    /// trigger threshold (Observation 2).
    ForwardCollisionWarning,
    /// Driver-monitoring distraction warning.
    DriverDistracted,
    /// The ADAS has degraded (lost a required sensor stream) and switched
    /// off part of its functionality; the driver should prepare to take
    /// over.
    AdasDegraded,
    /// Persistent input loss: the ADAS is executing a controlled fail-safe
    /// stop and the driver must take over immediately.
    FailSafeStop,
}

impl AlertKind {
    /// Human-readable alert name as OpenPilot would display it.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::SteerSaturated => "steer saturated",
            AlertKind::ForwardCollisionWarning => "forward collision warning",
            AlertKind::DriverDistracted => "driver distracted",
            AlertKind::AdasDegraded => "ADAS degraded",
            AlertKind::FailSafeStop => "fail-safe stop",
        }
    }
}

/// Controller status published every cycle (`controlsState`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlsState {
    /// Whether lateral+longitudinal control is active.
    pub engaged: bool,
    /// Alerts raised this control cycle.
    pub alerts: Vec<AlertKind>,
}

/// A typed message body; each variant corresponds to one [`Topic`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Payload {
    /// See [`GpsLocation`].
    GpsLocationExternal(GpsLocation),
    /// See [`LaneModel`].
    ModelV2(LaneModel),
    /// See [`RadarState`].
    RadarState(RadarState),
    /// See [`CarState`].
    CarState(CarState),
    /// See [`CarControl`].
    CarControl(CarControl),
    /// See [`ControlsState`].
    ControlsState(ControlsState),
}

impl Payload {
    /// The topic this payload is published on.
    pub fn topic(&self) -> Topic {
        match self {
            Payload::GpsLocationExternal(_) => Topic::GpsLocationExternal,
            Payload::ModelV2(_) => Topic::ModelV2,
            Payload::RadarState(_) => Topic::RadarState,
            Payload::CarState(_) => Topic::CarState,
            Payload::CarControl(_) => Topic::CarControl,
            Payload::ControlsState(_) => Topic::ControlsState,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_topic_mapping_is_total() {
        let samples: Vec<Payload> = vec![
            Payload::GpsLocationExternal(GpsLocation::default()),
            Payload::ModelV2(LaneModel::default()),
            Payload::RadarState(RadarState::default()),
            Payload::CarState(CarState::default()),
            Payload::CarControl(CarControl::default()),
            Payload::ControlsState(ControlsState::default()),
        ];
        let mut topics: Vec<Topic> = samples.iter().map(Payload::topic).collect();
        topics.sort_by_key(|t| t.service_name());
        let mut all = Topic::ALL.to_vec();
        all.sort_by_key(|t| t.service_name());
        assert_eq!(topics, all, "every topic has exactly one payload variant");
    }

    #[test]
    fn lateral_offset_sign_convention() {
        // Car shifted 0.5 m to the left: left line is closer.
        let m = LaneModel {
            left_line: Distance::meters(1.35),
            right_line: Distance::meters(2.35),
            lane_width: Distance::meters(3.7),
            curvature: 0.0,
        };
        assert!((m.lateral_offset().raw() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn alert_labels_are_distinct() {
        let labels = [
            AlertKind::SteerSaturated.label(),
            AlertKind::ForwardCollisionWarning.label(),
            AlertKind::DriverDistracted.label(),
            AlertKind::AdasDegraded.label(),
            AlertKind::FailSafeStop.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn debug_output_names_the_fields() {
        let p = Payload::RadarState(RadarState {
            lead: Some(LeadTrack {
                d_rel: Distance::meters(50.0),
                v_lead: Speed::from_mph(35.0),
                a_lead: Accel::ZERO,
            }),
        });
        let shown = format!("{p:?}");
        assert!(shown.contains("d_rel"), "{shown}");
    }
}
