//! The ego vehicle: a kinematic bicycle model with first-order actuator lag.

use units::limits::{PLANT_ACCEL_MAX_MPS2, PLANT_BRAKE_MIN_MPS2};
use units::{Accel, Angle, Distance, Seconds, Speed, DT};

use crate::Road;

/// Physical parameters of the simulated car (roughly a mid-size sedan, the
/// class OpenPilot most commonly runs on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Wheelbase.
    pub wheelbase: Distance,
    /// Overall width (used for lane-invasion and guardrail contact).
    pub width: Distance,
    /// Overall length (used for gap computation).
    pub length: Distance,
    /// Time constant of the longitudinal actuator (engine/brake) response.
    pub accel_tau: Seconds,
    /// Maximum slew rate of the steering actuator, per second (in
    /// steering-wheel degrees, like the commands).
    pub steer_rate_limit: Angle,
    /// Steering-column ratio: steering-wheel angle / road-wheel angle.
    /// Commands on the CAN bus are steering-wheel degrees (as on real
    /// angle-controlled cars); the tires see `cmd / ratio`.
    pub steering_ratio: f64,
    /// Hardest physically possible deceleration (panic braking); by
    /// default `units::limits::PLANT_BRAKE_MIN_MPS2`.
    pub max_brake: Accel,
    /// Strongest physically possible acceleration; by default
    /// `units::limits::PLANT_ACCEL_MAX_MPS2`.
    pub max_accel: Accel,
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self {
            wheelbase: Distance::meters(2.7),
            width: Distance::meters(1.82),
            length: Distance::meters(4.7),
            accel_tau: Seconds::new(0.25),
            steer_rate_limit: Angle::from_degrees(5.0),
            steering_ratio: 2.0,
            max_brake: Accel::from_mps2(PLANT_BRAKE_MIN_MPS2),
            max_accel: Accel::from_mps2(PLANT_ACCEL_MAX_MPS2),
        }
    }
}

/// The command applied to the actuators each control cycle: a net
/// longitudinal acceleration request (positive gas, negative brake) and a
/// road-wheel steering angle request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActuatorCommand {
    /// Longitudinal acceleration request.
    pub accel: Accel,
    /// Road-wheel steering angle request.
    pub steer: Angle,
}

/// Ego vehicle state in road-aligned coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Vehicle {
    params: VehicleParams,
    /// Longitudinal position along the road.
    s: Distance,
    /// Lateral offset from the ego-lane centre (positive left).
    d: Distance,
    /// Heading error relative to the road tangent.
    heading: Angle,
    /// Current speed (never negative).
    speed: Speed,
    /// Realised longitudinal acceleration.
    accel: Accel,
    /// Realised road-wheel steering angle.
    steer: Angle,
}

impl Vehicle {
    /// Creates a vehicle at longitudinal position `s`, lateral offset `d`,
    /// travelling at `speed` along the road.
    pub fn new(params: VehicleParams, s: Distance, d: Distance, speed: Speed) -> Self {
        Self {
            params,
            s,
            d,
            heading: Angle::ZERO,
            speed,
            accel: Accel::ZERO,
            steer: Angle::ZERO,
        }
    }

    /// Vehicle parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Longitudinal position.
    pub fn s(&self) -> Distance {
        self.s
    }

    /// Lateral offset from the ego-lane centre (positive left).
    pub fn d(&self) -> Distance {
        self.d
    }

    /// Heading error relative to the road tangent.
    pub fn heading(&self) -> Angle {
        self.heading
    }

    /// Current speed.
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// Realised longitudinal acceleration.
    pub fn accel(&self) -> Accel {
        self.accel
    }

    /// Realised road-wheel steering angle.
    pub fn steer(&self) -> Angle {
        self.steer
    }

    /// Lateral position of the car's left edge.
    pub fn left_edge(&self) -> Distance {
        self.d + self.params.width / 2.0
    }

    /// Lateral position of the car's right edge.
    pub fn right_edge(&self) -> Distance {
        self.d - self.params.width / 2.0
    }

    /// Applies an external lateral displacement (crosswind / road crown
    /// disturbance). Called by the world each tick.
    pub fn nudge_lateral(&mut self, delta: Distance) {
        self.d += delta;
    }

    /// Advances the vehicle by one 10 ms control cycle under `cmd`.
    ///
    /// The longitudinal actuator follows the request with a first-order lag
    /// and is clamped to the physical envelope; the steering actuator is
    /// slew-rate limited. Speed never goes negative (no reversing).
    pub fn step(&mut self, cmd: ActuatorCommand, road: &Road) {
        let dt = DT.secs();

        // Longitudinal: first-order lag toward the request.
        let target = cmd
            .accel
            .clamp(self.params.max_brake, self.params.max_accel);
        let alpha = dt / (self.params.accel_tau.secs() + dt);
        self.accel = self.accel + (target - self.accel) * alpha;
        let mut v = self.speed.mps() + self.accel.mps2() * dt;
        if v < 0.0 {
            v = 0.0;
            self.accel = Accel::ZERO;
        }

        // Steering: slew-rate limited toward the request.
        let max_delta = self.params.steer_rate_limit * dt;
        let err = cmd.steer - self.steer;
        let delta = err.clamp(-max_delta, max_delta);
        self.steer += delta;

        // Bicycle-model kinematics in Frenet coordinates. The commanded
        // angle is at the steering wheel; the road wheels see it through
        // the column ratio.
        let kappa = road.curvature(self.s);
        let road_wheel = self.steer / self.params.steering_ratio;
        let yaw_rate = v * (road_wheel.tan() / self.params.wheelbase.raw() - kappa);
        self.heading += Angle::from_radians(yaw_rate * dt);
        self.d += Distance::meters(v * self.heading.sin() * dt);
        self.s += Distance::meters(v * self.heading.cos() * dt);
        self.speed = Speed::from_mps(v);
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;

    fn vehicle(speed_mph: f64) -> Vehicle {
        Vehicle::new(
            VehicleParams::default(),
            Distance::ZERO,
            Distance::ZERO,
            units::Speed::from_mph(speed_mph),
        )
    }

    fn run(v: &mut Vehicle, cmd: ActuatorCommand, road: &Road, steps: usize) {
        for _ in 0..steps {
            v.step(cmd, road);
        }
    }

    #[test]
    fn coasting_straight_stays_in_lane() {
        let road = Road::straight();
        let mut v = vehicle(60.0);
        run(&mut v, ActuatorCommand::default(), &road, 1000);
        assert!(v.d().raw().abs() < 1e-9, "no lateral drift when straight");
        assert!((v.s().raw() - 26.8224 * 10.0).abs() < 0.5);
    }

    #[test]
    fn uncorrected_curve_drifts_right() {
        // On a left curve with zero steering, the car departs toward the
        // outside (right side) of the lane — the reason ALC must steer left.
        let road = Road::default();
        let mut v = vehicle(60.0);
        run(&mut v, ActuatorCommand::default(), &road, 300);
        assert!(v.d().raw() < -0.1, "drifted right, d = {}", v.d());
    }

    #[test]
    fn acceleration_has_first_order_lag() {
        let road = Road::straight();
        let mut v = vehicle(30.0);
        let cmd = ActuatorCommand {
            accel: Accel::from_mps2(2.0),
            steer: Angle::ZERO,
        };
        v.step(cmd, &road);
        assert!(
            v.accel().mps2() > 0.0 && v.accel().mps2() < 2.0,
            "lagging toward the request"
        );
        run(&mut v, cmd, &road, 200);
        assert!((v.accel().mps2() - 2.0).abs() < 0.01, "converged");
    }

    #[test]
    fn physical_envelope_clamps_requests() {
        let road = Road::straight();
        let mut v = vehicle(60.0);
        run(
            &mut v,
            ActuatorCommand {
                accel: Accel::from_mps2(-50.0),
                steer: Angle::ZERO,
            },
            &road,
            200,
        );
        // Even a -50 m/s^2 request cannot exceed max_brake of -8.
        assert!(v.accel().mps2() >= -8.0 - 1e-9);
    }

    #[test]
    fn speed_never_negative() {
        let road = Road::straight();
        let mut v = vehicle(5.0);
        run(
            &mut v,
            ActuatorCommand {
                accel: Accel::from_mps2(-8.0),
                steer: Angle::ZERO,
            },
            &road,
            2000,
        );
        assert_eq!(v.speed().mps(), 0.0);
        assert_eq!(v.accel(), Accel::ZERO, "no residual decel at standstill");
    }

    #[test]
    fn steering_is_rate_limited() {
        let road = Road::straight();
        let mut v = vehicle(60.0);
        v.step(
            ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(1.0),
            },
            &road,
        );
        // 5 deg/s limit * 10 ms = 0.05 deg per step.
        assert!((v.steer().degrees() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn steady_steer_produces_lateral_motion() {
        let road = Road::straight();
        let mut v = vehicle(60.0);
        run(
            &mut v,
            ActuatorCommand {
                accel: Accel::ZERO,
                steer: Angle::from_degrees(0.5),
            },
            &road,
            150, // 1.5 s
        );
        // The paper's steering attacks cause lane departure in ~1.1-1.6 s.
        assert!(
            v.d().raw() > 0.8,
            "0.5 deg at 60 mph departs the lane quickly; d = {}",
            v.d()
        );
    }

    #[test]
    fn edges_follow_width() {
        let v = vehicle(0.0);
        assert!((v.left_edge().raw() - 0.91).abs() < 1e-12);
        assert!((v.right_edge().raw() + 0.91).abs() < 1e-12);
    }
}
