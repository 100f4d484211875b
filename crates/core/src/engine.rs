//! The assembled attack engine.

use canbus::CanFrame;
use msgbus::Bus;
use units::Tick;

use crate::{
    AttackAction, AttackConfig, AttackScheduler, AttackTimeline, AttackValues, ContextInference,
    ContextState, ContextTable, CorruptionPolicy, Eavesdropper, Injector, SteerDirection,
};

/// The Context-Aware attack engine: eavesdrop → infer → schedule → corrupt.
///
/// Drive it with two calls per control cycle: [`AttackEngine::observe`]
/// right after the sensors publish (or [`AttackEngine::observe_with`] with
/// the same traffic handed over directly), and
/// [`AttackEngine::process_frames`] on the actuator frames in flight. Call [`AttackEngine::halt`] the moment the
/// driver engages — the paper's engine stops injecting immediately to avoid
/// a tug-of-war the driver would certainly notice.
#[derive(Debug)]
pub struct AttackEngine {
    config: AttackConfig,
    inference: ContextInference,
    table: ContextTable,
    scheduler: AttackScheduler,
    policy: CorruptionPolicy,
    injector: Injector,
    timeline: AttackTimeline,
    active: bool,
    values: AttackValues,
    /// Direction chosen for combined attacks; sticky for the whole run so
    /// the attack does not flip-flop between edges.
    steer_direction: Option<SteerDirection>,
    /// Whether the longitudinal action is currently running (match-or-hold).
    long_running: bool,
    /// The steering action currently running, if any (match-or-hold).
    steer_running: Option<SteerDirection>,
}

impl AttackEngine {
    /// Creates an engine subscribed to the bus's sensor/state topics.
    pub fn new(bus: &Bus, config: AttackConfig) -> Self {
        Self::with_inference(ContextInference::new(Eavesdropper::new(bus)), config)
    }

    /// Creates an engine with no bus subscription, fed through
    /// [`observe_with`](Self::observe_with) — for a host that hands it the
    /// traffic directly instead of publishing it.
    pub fn direct(config: AttackConfig) -> Self {
        Self::with_inference(ContextInference::direct(), config)
    }

    fn with_inference(inference: ContextInference, config: AttackConfig) -> Self {
        Self {
            config,
            inference,
            table: ContextTable::standard(config.rule_params),
            scheduler: match config.window_override {
                Some((start, duration)) => AttackScheduler::fixed_window(start, duration),
                None => AttackScheduler::new(config.strategy, config.seed),
            },
            policy: CorruptionPolicy::new(config.value_mode),
            injector: Injector::new(),
            timeline: AttackTimeline::new(),
            active: false,
            values: AttackValues::default(),
            steer_direction: None,
            long_running: false,
            steer_running: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The most recently inferred context.
    pub fn context(&self) -> ContextState {
        self.inference.state()
    }

    /// Whether the attack is injecting this cycle.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The values currently being injected.
    pub fn values(&self) -> AttackValues {
        self.values
    }

    /// The attack timeline (activation, halt, activity).
    pub fn timeline(&self) -> &AttackTimeline {
        &self.timeline
    }

    /// Total CAN frames rewritten so far.
    pub fn frames_rewritten(&self) -> u64 {
        self.injector.rewritten()
    }

    /// Stops the attack permanently (driver engagement).
    pub fn halt(&mut self, tick: Tick) {
        self.scheduler.halt();
        self.timeline.record_halt(tick);
        self.active = false;
        self.values = AttackValues::default();
    }

    /// Consumes fresh bus traffic, refreshes the context, and decides
    /// whether — and with which values — to inject this cycle.
    pub fn observe(&mut self, tick: Tick) {
        let state = self.inference.update(tick);
        self.decide(tick, state);
    }

    /// Whether the engine can never inject again at or after `tick`: the
    /// driver halted it, the Context-Aware burst completed, or the random
    /// window is wholly in the past. A dormant engine's observe/decide
    /// cycle mutates nothing an inactive engine exposes, so hot loops may
    /// skip [`observe`](Self::observe)/[`observe_with`](Self::observe_with)
    /// entirely once this returns true.
    pub fn dormant(&self, tick: Tick) -> bool {
        self.scheduler.exhausted(tick)
    }

    /// Bus-free variant of [`observe`](Self::observe): the caller hands the
    /// tick's eavesdropped samples directly instead of draining a
    /// subscriber. The harness uses this — at most one message per stream
    /// per tick would be published, so newest-wins draining and a direct
    /// feed see identical traffic.
    pub fn observe_with(&mut self, tick: Tick, obs: &crate::Observations) {
        let state = self.inference.absorb(obs);
        self.decide(tick, state);
    }

    /// The schedule/corrupt decision shared by both observe entry points.
    fn decide(&mut self, tick: Tick, state: ContextState) {
        self.policy.observe_speed(state.v_ego);

        // Per-action activity with match-or-hold semantics: the attack's
        // *primary* action starts when its Table-I context matches and keeps
        // running while the relaxed hold condition is true — the paper's
        // context-aware *duration* selection. For combined attack types the
        // longitudinal action is primary and the steering corruption rides
        // along whenever the attack is live ("both control actions are
        // activated", §III-C); a pure steering type is gated by its own
        // edge context.
        let long_now = self
            .config
            .attack_type
            .longitudinal()
            .is_some_and(|action| {
                self.table.action_matches(&state, action)
                    || (self.long_running && self.table.action_holds(&state, action))
            });
        let steer_context: Option<SteerDirection> = match self.config.attack_type.steering() {
            Some(Some(dir)) => {
                // Pure steering type: gated by its own context, with hold.
                let running = self.steer_running.is_some()
                    && self.table.action_holds(&state, AttackAction::Steer(dir));
                (running || self.table.action_matches(&state, AttackAction::Steer(dir)))
                    .then_some(dir)
            }
            _ => None,
        };

        let context_active = if self.config.attack_type.longitudinal().is_some() {
            long_now
        } else {
            steer_context.is_some()
        };
        self.active = self.scheduler.update(tick, context_active);

        if self.active {
            let longitudinal = self.config.attack_type.longitudinal();
            let direction = match self.config.attack_type.steering() {
                None => None,
                Some(Some(d)) => Some(d),
                // Combined type: steering rider toward the nearest edge,
                // sticky for the rest of the run.
                Some(None) => Some(self.steer_direction.unwrap_or_else(|| nearest_edge(&state))),
            };
            self.long_running = long_now && longitudinal.is_some();
            self.steer_running = steer_context;
            self.steer_direction = direction.or(self.steer_direction);
            self.values = self.policy.values(longitudinal, direction, state.v_cruise);
            self.timeline.record_active(tick);
        } else {
            self.long_running = false;
            self.steer_running = None;
            self.values = AttackValues::default();
        }
    }

    /// Rewrites in-flight actuator frames while the attack is active.
    pub fn process_frames(&mut self, _tick: Tick, frames: Vec<CanFrame>) -> Vec<CanFrame> {
        if self.active {
            self.injector.apply_all(frames, &self.values)
        } else {
            frames
        }
    }

    /// In-place variant of [`process_frames`](Self::process_frames): rewrites
    /// the frames where they sit instead of consuming and reallocating the
    /// batch — the harness hot path calls this once per tick.
    pub fn process_frames_in_place(&mut self, _tick: Tick, frames: &mut [CanFrame]) {
        if self.active {
            self.injector.apply_in_place(frames, &self.values);
        }
    }
}

/// The lane edge the car is currently closer to.
fn nearest_edge(state: &ContextState) -> SteerDirection {
    if state.d_right <= state.d_left {
        SteerDirection::Right
    } else {
        SteerDirection::Left
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;
    use crate::{AttackType, StrategyKind, ValueMode};
    use canbus::{decode, Encoder, VirtualCarDbc};
    use msgbus::schema::{CarState, GpsLocation, LaneModel, LeadTrack, RadarState};
    use msgbus::Payload;
    use units::{Accel, Angle, Distance, Seconds, Speed};

    fn publish(bus: &Bus, tick: Tick, v_mph: f64, gap: f64, v_lead_mph: f64, offset: f64) {
        bus.publish(
            tick,
            Payload::GpsLocationExternal(GpsLocation {
                speed: Speed::from_mph(v_mph),
                bearing: Angle::ZERO,
            }),
        );
        bus.publish(
            tick,
            Payload::CarState(CarState {
                v_ego: Speed::from_mph(v_mph),
                v_cruise: Speed::from_mph(60.0),
                cruise_enabled: true,
                ..CarState::default()
            }),
        );
        bus.publish(
            tick,
            Payload::ModelV2(LaneModel {
                left_line: Distance::meters(1.85 - offset),
                right_line: Distance::meters(1.85 + offset),
                lane_width: Distance::meters(3.7),
                curvature: 0.0,
            }),
        );
        bus.publish(
            tick,
            Payload::RadarState(RadarState {
                lead: Some(LeadTrack {
                    d_rel: Distance::meters(gap),
                    v_lead: Speed::from_mph(v_lead_mph),
                    a_lead: Accel::ZERO,
                }),
            }),
        );
    }

    fn engine(
        attack_type: AttackType,
        strategy: StrategyKind,
        mode: ValueMode,
        bus: &Bus,
    ) -> AttackEngine {
        AttackEngine::new(
            bus,
            AttackConfig {
                attack_type,
                strategy,
                value_mode: mode,
                seed: 11,
                ..AttackConfig::default()
            },
        )
    }

    #[test]
    fn context_aware_acceleration_waits_for_rule_1() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::Acceleration,
            StrategyKind::ContextAware,
            ValueMode::Strategic,
            &bus,
        );
        // Far lead: HWT = 100 / 26.8 = 3.7 s > t_safe, no trigger.
        publish(&bus, Tick::ZERO, 60.0, 100.0, 35.0, 0.0);
        eng.observe(Tick::ZERO);
        assert!(!eng.is_active());
        // Closing inside t_safe: trigger.
        publish(&bus, Tick::new(1), 60.0, 50.0, 35.0, 0.0);
        eng.observe(Tick::new(1));
        assert!(eng.is_active());
        assert_eq!(eng.timeline().activated_at(), Some(Tick::new(1)));
        assert_eq!(
            eng.values(),
            AttackValues::new(Some(Accel::from_mps2(2.0)), Some(Accel::ZERO), None),
            "strategic limit"
        );
    }

    #[test]
    fn injection_rewrites_frames_with_valid_checksums() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::Acceleration,
            StrategyKind::ContextAware,
            ValueMode::Fixed,
            &bus,
        );
        publish(&bus, Tick::ZERO, 60.0, 50.0, 35.0, 0.0);
        eng.observe(Tick::ZERO);
        assert!(eng.is_active());

        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let frames = vec![
            enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 0.4)])
                .unwrap(),
            enc.encode(dbc.brake_command(), &[("BRAKE_CMD", -1.0)])
                .unwrap(),
        ];
        let out = eng.process_frames(Tick::ZERO, frames);
        let gas = decode(dbc.gas_command(), &out[0]).unwrap();
        let brake = decode(dbc.brake_command(), &out[1]).unwrap();
        assert!(
            (gas["ACCEL_CMD"] - 2.4).abs() < 1e-9,
            "fixed value injected"
        );
        assert_eq!(brake["BRAKE_CMD"], 0.0, "brake zeroed");
        assert_eq!(eng.frames_rewritten(), 2);
    }

    #[test]
    fn steering_right_triggers_at_right_edge_only() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::SteeringRight,
            StrategyKind::ContextAware,
            ValueMode::Strategic,
            &bus,
        );
        // Centred: right edge distance = 1.85 - 0.91 = 0.94 m, no trigger.
        publish(&bus, Tick::ZERO, 60.0, 100.0, 35.0, 0.0);
        eng.observe(Tick::ZERO);
        assert!(!eng.is_active());
        // Hugging the right line (offset -0.9): d_right = 0.04 <= 0.1.
        publish(&bus, Tick::new(1), 60.0, 100.0, 35.0, -0.9);
        eng.observe(Tick::new(1));
        assert!(eng.is_active());
        assert_eq!(
            eng.values(),
            AttackValues::new(None, None, Some(Angle::from_degrees(-0.25)))
        );
    }

    #[test]
    fn combined_attack_rides_steering_on_the_primary_context() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::AccelerationSteering,
            StrategyKind::ContextAware,
            ValueMode::Fixed,
            &bus,
        );
        // The acceleration (primary) context matches: both control actions
        // are activated (paper §III-C), steering toward the nearest edge —
        // the right one, since the car sits right of centre.
        publish(&bus, Tick::ZERO, 60.0, 50.0, 35.0, -0.25);
        eng.observe(Tick::ZERO);
        assert!(eng.is_active());
        let fixed_right = AttackValues::new(
            Some(Accel::from_mps2(2.4)),
            Some(Accel::ZERO),
            Some(Angle::from_degrees(-0.5)),
        );
        assert_eq!(eng.values(), fixed_right, "nearest edge");
        // The direction stays sticky even if the car is later pushed left.
        publish(&bus, Tick::new(1), 60.0, 45.0, 35.0, 0.4);
        eng.observe(Tick::new(1));
        assert_eq!(eng.values(), fixed_right);
    }

    #[test]
    fn combined_attack_waits_for_the_primary_context() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::DecelerationSteering,
            StrategyKind::ContextAware,
            ValueMode::Strategic,
            &bus,
        );
        // Closing on a slow lead: the deceleration context (rule 2) does NOT
        // match even though the car hugs the right edge — the combined
        // attack stays quiet.
        publish(&bus, Tick::ZERO, 60.0, 50.0, 35.0, -0.9);
        eng.observe(Tick::ZERO);
        assert!(
            !eng.is_active(),
            "steering context alone must not launch it"
        );
        // Lead pulling away with a big gap: rule 2 matches, both actions go.
        publish(&bus, Tick::new(1), 60.0, 120.0, 65.0, -0.9);
        eng.observe(Tick::new(1));
        assert!(eng.is_active());
        assert_eq!(
            eng.values(),
            AttackValues::new(
                Some(Accel::ZERO),
                Some(Accel::from_mps2(-3.5)),
                Some(Angle::from_degrees(-0.25))
            )
        );
    }

    #[test]
    fn combined_attack_under_random_strategy_injects_everything() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::AccelerationSteering,
            StrategyKind::RandomSt,
            ValueMode::Fixed,
            &bus,
        );
        // Benign context, car slightly right of centre; advance into the
        // random window.
        let mut saw_both = false;
        for i in 0..units::STEPS_PER_SIM {
            publish(&bus, Tick::new(i), 60.0, 200.0, 60.0, -0.25);
            eng.observe(Tick::new(i));
            if eng.is_active() {
                assert_eq!(
                    eng.values(),
                    AttackValues::new(
                        Some(Accel::from_mps2(2.4)),
                        Some(Accel::ZERO),
                        Some(Angle::from_degrees(-0.5))
                    ),
                    "nearest edge is the right one"
                );
                saw_both = true;
            }
        }
        assert!(saw_both);
    }

    #[test]
    fn halt_stops_injection_permanently() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::Acceleration,
            StrategyKind::ContextAware,
            ValueMode::Strategic,
            &bus,
        );
        publish(&bus, Tick::ZERO, 60.0, 50.0, 35.0, 0.0);
        eng.observe(Tick::ZERO);
        assert!(eng.is_active());
        eng.halt(Tick::new(1));
        publish(&bus, Tick::new(2), 60.0, 45.0, 35.0, 0.0);
        eng.observe(Tick::new(2));
        assert!(!eng.is_active());
        assert_eq!(eng.timeline().halted_at(), Some(Tick::new(1)));
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let frame = enc
            .encode(dbc.gas_command(), &[("ACCEL_CMD", 0.4)])
            .unwrap();
        let out = eng.process_frames(Tick::new(2), vec![frame]);
        assert_eq!(out[0], frame, "no tampering after halt");
    }

    #[test]
    fn random_strategy_ignores_context() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::Deceleration,
            StrategyKind::RandomSt,
            ValueMode::Fixed,
            &bus,
        );
        // Benign context the whole time; the attack still fires in its
        // random window.
        let mut fired = 0u64;
        for i in 0..units::STEPS_PER_SIM {
            publish(&bus, Tick::new(i), 60.0, 50.0, 35.0, 0.0);
            eng.observe(Tick::new(i));
            if eng.is_active() {
                fired += 1;
                assert_eq!(
                    eng.values(),
                    AttackValues::new(Some(Accel::ZERO), Some(Accel::from_mps2(-4.0)), None)
                );
            }
        }
        assert_eq!(fired, 250, "2.5 s window");
        let start = eng.timeline().activated_at().unwrap().time();
        assert!(start >= Seconds::new(5.0) && start <= Seconds::new(40.0));
    }

    #[test]
    fn context_aware_deceleration_stops_below_beta1() {
        let bus = Bus::new();
        let mut eng = engine(
            AttackType::Deceleration,
            StrategyKind::ContextAware,
            ValueMode::Strategic,
            &bus,
        );
        // Lead pulling away with large headway: rule 2 matches at 60 mph.
        publish(&bus, Tick::ZERO, 60.0, 90.0, 65.0, 0.0);
        eng.observe(Tick::ZERO);
        assert!(eng.is_active());
        // Speed has dropped below beta1 (25 mph): context exits, attack ends.
        publish(&bus, Tick::new(1), 20.0, 150.0, 65.0, 0.0);
        eng.observe(Tick::new(1));
        assert!(!eng.is_active());
    }
}
