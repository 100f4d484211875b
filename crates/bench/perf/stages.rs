//! The traced tick: a stage-timed copy of `platform::Harness::step`, built
//! only from the layer crates' public calls, with one chained clock read
//! at every stage boundary.
//!
//! The copy exists so the benchmark can time each layer from outside the
//! program. It is held to the real harness: every traced lane's
//! `SimResult` must equal `Harness::run`'s for the same config, so the
//! stage split describes the program the campaigns run. Every stage is
//! lapped on every live tick, present or not, so each tick pays the same
//! number of clock reads; a stage a lane does not carry (no attacker, no
//! fault engine, no detectors) reads as one clock read.

use std::time::Instant;

use attack_core::AttackEngine;
use defense::{
    CanIds, ContextMonitor, ContextObservation, ControlInvariantDetector, DefensePolicy, IdsConfig,
    IdsVerdict,
};
use driver_model::{Driver, Observation};
use driving_sim::{ActuatorCommand, SensorSuite, World, RADAR_RANGE};
use faultinj::FaultEngine;
use msgbus::schema::CarControl;
use msgbus::{Bus, Payload};
use openadas::{Adas, AdasOutput, CommandEncoder, DegradationState, GateConfig, PandaSafety};
use platform::{BatchHarness, Harness, HarnessConfig, HazardDetector, SimResult};
use units::Tick;

/// Pipeline stages in tick order, named `<layer crate>.<stage>_ns`.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    SensorSample,
    FaultSensors,
    Publish,
    Eavesdrop,
    Adas,
    Mitm,
    FaultCan,
    Ids,
    Actuator,
    Monitors,
    Driver,
    World,
    Hazard,
}

/// Per-layer metric name of each [`Stage`], in discriminant order.
pub const STAGE_METRICS: [&str; 13] = [
    "driving_sim.sensor_sample_ns",
    "faultinj.sensor_ns",
    "msgbus.publish_ns",
    "core.eavesdrop_ns",
    "openadas.adas_ns",
    "core.mitm_ns",
    "faultinj.can_ns",
    "defense.ids_ns",
    "openadas.actuator_ns",
    "defense.monitors_ns",
    "driver_model.driver_ns",
    "driving_sim.world_ns",
    "platform.hazard_ns",
];

/// Accumulated stage time over every traced tick.
pub struct StageClock {
    last: Instant,
    ns: [u128; STAGE_METRICS.len()],
    ticks: u64,
    frozen_ticks: u64,
}

impl StageClock {
    pub fn new() -> Self {
        Self {
            last: Instant::now(),
            ns: [0; STAGE_METRICS.len()],
            ticks: 0,
            frozen_ticks: 0,
        }
    }

    /// Charges the time since the previous read to `stage`.
    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.ns[stage as usize] += now.duration_since(self.last).as_nanos();
        self.last = now;
    }

    /// Mean nanoseconds per executed tick of each stage.
    pub fn per_tick_ns(&self) -> [f64; STAGE_METRICS.len()] {
        let ticks = self.ticks.max(1) as f64;
        self.ns.map(|ns| ns as f64 / ticks)
    }

    /// Post-collision ticks, which only advance the clock, over all ticks.
    pub fn frozen_ratio(&self) -> f64 {
        self.frozen_ticks as f64 / self.ticks.max(1) as f64
    }
}

/// One simulation, wired exactly as `Harness::new` wires it.
pub struct Replica {
    config: HarnessConfig,
    bus: Bus,
    world: World,
    sensors: SensorSuite,
    adas: Adas,
    attacker: Option<AttackEngine>,
    driver: Driver,
    panda: PandaSafety,
    actuator_side: CommandEncoder,
    hazards: HazardDetector,
    invariant: Option<ControlInvariantDetector>,
    monitor: Option<ContextMonitor>,
    ids: Option<CanIds>,
    last_cmd: CarControl,
    alert_events: u64,
    ever_disengaged: bool,
    faults: Option<FaultEngine>,
    degraded_ticks: u64,
    failsafe_ticks: u64,
    first_degraded: Option<Tick>,
    first_failsafe: Option<Tick>,
    recovered_at: Option<Tick>,
    adas_out: AdasOutput,
}

impl Replica {
    pub fn new(config: HarnessConfig) -> Self {
        let bus = Bus::new();
        let attacker = config.attack.map(|mut a| {
            a.seed = a.seed.wrapping_add(config.seed);
            AttackEngine::new(&bus, a)
        });
        let detectors = config.defense.detectors_attached();
        let adas = if detectors {
            let gates = if config.defense.acts() {
                GateConfig::enforcing()
            } else {
                GateConfig::observing()
            };
            Adas::with_gates(&bus, config.scenario.cruise_speed, gates)
        } else {
            Adas::new(&bus, config.scenario.cruise_speed)
        };
        Self {
            world: World::new(config.scenario, config.seed),
            sensors: SensorSuite::new(config.seed),
            adas,
            attacker,
            driver: Driver::new(config.driver),
            panda: PandaSafety::new(config.panda_enabled),
            actuator_side: CommandEncoder::new(),
            hazards: HazardDetector::new(config.hazard_params),
            invariant: detectors.then(ControlInvariantDetector::default),
            monitor: detectors.then(ContextMonitor::default),
            ids: detectors.then(|| CanIds::new(IdsConfig::default())),
            last_cmd: CarControl::default(),
            alert_events: 0,
            ever_disengaged: false,
            faults: (!config.faults.is_empty())
                .then(|| FaultEngine::new(config.seed, config.faults)),
            degraded_ticks: 0,
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
            recovered_at: None,
            adas_out: AdasOutput::default(),
            bus,
            config,
        }
    }

    /// Runs to completion, charging every stage to `clock`.
    pub fn run_staged(mut self, clock: &mut StageClock) -> SimResult {
        clock.last = Instant::now();
        while !self.world.finished() {
            self.advance(clock);
        }
        self.result()
    }

    /// One control cycle, stage for stage as `Harness::step`.
    fn advance(&mut self, clock: &mut StageClock) {
        let tick = self.world.now();
        clock.ticks += 1;
        if self.world.collision().is_some() {
            self.world.step(ActuatorCommand::default());
            clock.frozen_ticks += 1;
            clock.lap(Stage::World);
            return;
        }

        let mut frame = self.sensors.sample(&self.world);
        clock.lap(Stage::SensorSample);
        let plan = self
            .faults
            .as_mut()
            .map(|eng| eng.apply_sensors(tick, &mut frame));
        clock.lap(Stage::FaultSensors);
        match plan {
            Some(plan) => {
                if let Some((stamp, gps)) = plan.gps {
                    self.bus.publish(stamp, Payload::GpsLocationExternal(gps));
                }
                if let Some((stamp, lane)) = plan.lane {
                    self.bus.publish(stamp, Payload::ModelV2(lane));
                }
                if let Some((stamp, radar)) = plan.radar {
                    self.bus.publish(stamp, Payload::RadarState(radar));
                }
            }
            None => {
                self.bus
                    .publish(tick, Payload::GpsLocationExternal(frame.gps));
                self.bus.publish(tick, Payload::ModelV2(frame.lane));
                self.bus.publish(tick, Payload::RadarState(frame.radar));
            }
        }
        clock.lap(Stage::Publish);

        if let Some(att) = self.attacker.as_mut() {
            att.observe(tick);
        }
        clock.lap(Stage::Eavesdrop);

        let mut out = std::mem::take(&mut self.adas_out);
        self.adas.step_into(tick, &mut out);
        self.alert_events += out.new_alerts.len() as u64;
        self.track_degradation(tick, out.degradation);
        clock.lap(Stage::Adas);

        if let Some(att) = self.attacker.as_mut() {
            att.process_frames_in_place(tick, &mut out.frames);
        }
        clock.lap(Stage::Mitm);

        if let Some(eng) = self.faults.as_mut() {
            eng.apply_can(tick, &mut out.frames);
        }
        clock.lap(Stage::FaultCan);

        let verdict = match self.ids.as_mut() {
            Some(ids) => ids.observe(tick, &out.frames, out.engaged),
            None => IdsVerdict::Nominal,
        };
        match self.config.defense {
            DefensePolicy::Off | DefensePolicy::Observe => {}
            DefensePolicy::Degrade => {
                if verdict == IdsVerdict::Alarm {
                    self.adas
                        .request_degradation(DegradationState::DegradedAccOff);
                }
            }
            DefensePolicy::FailSafe => {
                if verdict == IdsVerdict::Alarm || out.degradation != DegradationState::Nominal {
                    self.adas.request_degradation(DegradationState::FailSafe);
                }
            }
        }
        clock.lap(Stage::Ids);

        out.frames.retain(|f| self.panda.check(f).passed());
        let cmd = self
            .actuator_side
            .decode_actuators(&out.frames, self.last_cmd);
        self.last_cmd = cmd;
        clock.lap(Stage::Actuator);

        if let Some(inv) = self.invariant.as_mut() {
            inv.step(
                tick,
                out.control.accel,
                out.control.steer,
                frame.gps.speed,
                frame.lane.lateral_offset().raw(),
            );
        }
        if let Some(mon) = self.monitor.as_mut() {
            let half_width = self.world.ego().params().width / 2.0;
            let v = frame.gps.speed;
            let obs = ContextObservation {
                v_ego: v,
                hwt: frame
                    .radar
                    .lead
                    .and_then(|l| (v.mps() > 0.5).then(|| l.d_rel / v)),
                rs: frame.radar.lead.map(|l| v - l.v_lead),
                d_left: frame.lane.left_line - half_width,
                d_right: frame.lane.right_line - half_width,
            };
            mon.check(tick, &obs, cmd.accel, cmd.steer);
        }
        clock.lap(Stage::Monitors);

        let obs = Observation {
            speed: self.world.ego().speed(),
            v_cruise: self.config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            adas_alert: !out.new_alerts.is_empty(),
            lane_offset: self.world.ego().d(),
            lead_gap: {
                let gap = self.world.gap();
                (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap)
            },
        };
        let final_cmd = match self.driver.step(tick, &obs) {
            Some(d) => {
                if !self.ever_disengaged {
                    self.adas.disengage();
                    if let Some(att) = self.attacker.as_mut() {
                        att.halt(tick);
                    }
                    self.ever_disengaged = true;
                }
                ActuatorCommand {
                    accel: d.accel,
                    steer: d.steer,
                }
            }
            None => ActuatorCommand {
                accel: cmd.accel,
                steer: cmd.steer,
            },
        };
        clock.lap(Stage::Driver);

        self.world.step(final_cmd);
        clock.lap(Stage::World);
        self.hazards.step(&self.world);
        clock.lap(Stage::Hazard);

        self.adas_out = out;
    }

    /// The harness's resilience bookkeeping for one cycle's ladder state.
    fn track_degradation(&mut self, tick: Tick, state: DegradationState) {
        match state {
            DegradationState::Nominal => {
                if self.recovered_at.is_none() && self.first_degraded.is_some() {
                    let fault_over = self
                        .faults
                        .as_ref()
                        .and_then(FaultEngine::last_fault_end)
                        .is_some_and(|end| tick.index() >= end);
                    if fault_over {
                        self.recovered_at = Some(tick);
                    }
                }
            }
            DegradationState::FailSafe => {
                self.degraded_ticks += 1;
                self.failsafe_ticks += 1;
                self.first_degraded.get_or_insert(tick);
                self.first_failsafe.get_or_insert(tick);
            }
            DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                self.degraded_ticks += 1;
                self.first_degraded.get_or_insert(tick);
            }
        }
    }

    fn result(&self) -> SimResult {
        let first_any = self.hazards.first_any();
        let timeline = self.attacker.as_ref().map(AttackEngine::timeline);
        let attack_activated = timeline.and_then(|t| t.activated_at());
        let tth = match (attack_activated, first_any) {
            (Some(_), Some((h, _))) => timeline.and_then(|t| t.tth(h)),
            _ => None,
        };
        SimResult {
            seed: self.config.seed,
            first_hazard: first_any.map(|(t, k)| (t.time(), k)),
            hazard_kinds: self.hazards.kinds(),
            accident: self.hazards.accident().map(|(t, k)| (t.time(), k)),
            alert_events: self.alert_events,
            fcw_events: self.adas.fcw_events(),
            lane_invasions: self.world.lane_invasions(),
            duration: self.world.now().time(),
            attack_activated: attack_activated.map(Tick::time),
            tth,
            driver_noticed: self.driver.noticed_at().map(Tick::time),
            driver_engaged: self.driver.engaged_at().map(Tick::time),
            frames_rewritten: self
                .attacker
                .as_ref()
                .map_or(0, AttackEngine::frames_rewritten),
            panda_blocked: self.panda.blocked_count(),
            invariant_detected: self
                .invariant
                .as_ref()
                .and_then(ControlInvariantDetector::detected_at)
                .map(Tick::time),
            monitor_detected: self
                .monitor
                .as_ref()
                .and_then(ContextMonitor::detected_at)
                .map(Tick::time),
            degraded_ticks: self.degraded_ticks,
            failsafe_ticks: self.failsafe_ticks,
            first_degraded: self.first_degraded.map(Tick::time),
            first_failsafe: self.first_failsafe.map(Tick::time),
            recovery_latency: self.recovered_at.and_then(|at| {
                self.faults
                    .as_ref()
                    .and_then(FaultEngine::last_fault_end)
                    .map(|end| Tick::new(at.index().saturating_sub(end)).time())
            }),
            faults_injected: self.faults.as_ref().map_or(0, FaultEngine::faults_injected),
            ids_detected: self
                .ids
                .as_ref()
                .and_then(CanIds::detected_at)
                .map(Tick::time),
            gate_rejections: self.adas.gate_rejections(),
        }
    }
}

/// What tracing a sample of lanes measured.
pub struct SampleTrace {
    /// `Harness::run` per lane, single-threaded: the replay reference.
    pub harness: Vec<SimResult>,
    pub clock: StageClock,
    pub harness_s: f64,
    pub replica_s: f64,
    pub batch_s: f64,
    pub fast_lanes: usize,
    /// Cost of one chained clock read: what an absent stage reads as.
    pub clock_read_ns: f64,
    /// Lanes whose replica or batched result differs from the harness.
    pub mismatches: Vec<usize>,
}

/// Mean cost of one [`StageClock::lap`], from a run of back-to-back laps.
fn clock_read_ns() -> f64 {
    const LAPS: u32 = 100_000;
    let mut clock = StageClock::new();
    let started = Instant::now();
    for _ in 0..LAPS {
        clock.lap(Stage::Hazard);
    }
    started.elapsed().as_nanos() as f64 / f64::from(LAPS)
}

/// Runs a sample single-threaded three ways — the scalar harness, the
/// stage-timed replica, and one `BatchHarness` over all lanes — and checks
/// the latter two against the first.
pub fn trace_sample(configs: &[HarnessConfig]) -> SampleTrace {
    let started = Instant::now();
    let harness: Vec<SimResult> = configs.iter().map(|c| Harness::new(*c).run()).collect();
    let harness_s = started.elapsed().as_secs_f64();

    let mut clock = StageClock::new();
    let started = Instant::now();
    let replica: Vec<SimResult> = configs
        .iter()
        .map(|c| Replica::new(*c).run_staged(&mut clock))
        .collect();
    let replica_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut batch = BatchHarness::new();
    for c in configs {
        batch.admit(*c);
    }
    let fast_lanes = batch.fast_lanes();
    let batched = batch.run();
    let batch_s = started.elapsed().as_secs_f64();

    let mismatches = (0..configs.len())
        .filter(|&i| replica.get(i) != harness.get(i) || batched.get(i) != harness.get(i))
        .collect();
    SampleTrace {
        harness,
        clock,
        harness_s,
        replica_s,
        batch_s,
        fast_lanes,
        clock_read_ns: clock_read_ns(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
    use driver_model::DriverConfig;
    use driving_sim::{Scenario, ScenarioId};
    use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
    use units::Distance;

    fn attack(attack_type: AttackType, value_mode: ValueMode) -> AttackConfig {
        AttackConfig {
            attack_type,
            strategy: StrategyKind::ContextAware,
            value_mode,
            ..AttackConfig::default()
        }
    }

    fn faulted(kind: FaultKind, policy: DefensePolicy, seed: u64) -> HarnessConfig {
        let spec = FaultSpec::window(kind, FaultTarget::All, 500, 2000).with_intensity(1.0);
        HarnessConfig::no_attack(Scenario::matrix()[seed as usize % 12], seed)
            .with_faults(FaultSchedule::single(spec))
            .with_defense(policy)
    }

    /// Covers every stage: a Context-Aware attack, every fault family,
    /// every defense policy, Panda, an inattentive driver, and runs that
    /// end in a collision (frozen ticks).
    fn configs() -> Vec<HarnessConfig> {
        let s1 = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
        let s2 = Scenario::new(ScenarioId::S2, Distance::meters(100.0));
        let mut panda =
            HarnessConfig::with_attack(s1, 5, attack(AttackType::Acceleration, ValueMode::Fixed));
        panda.panda_enabled = true;
        let mut inattentive =
            HarnessConfig::with_attack(s2, 3, attack(AttackType::SteeringRight, ValueMode::Fixed));
        inattentive.driver = DriverConfig::inattentive();
        let mut cfgs = vec![
            HarnessConfig::with_attack(
                s1,
                5,
                attack(AttackType::Acceleration, ValueMode::Strategic),
            ),
            HarnessConfig::with_attack(s1, 8, attack(AttackType::Deceleration, ValueMode::Fixed))
                .with_defense(DefensePolicy::Observe),
            HarnessConfig::with_attack(
                s2,
                2,
                attack(AttackType::SteeringLeft, ValueMode::Strategic),
            )
            .with_defense(DefensePolicy::FailSafe),
            panda,
            inattentive,
        ];
        let policies = [
            DefensePolicy::Off,
            DefensePolicy::Observe,
            DefensePolicy::Degrade,
            DefensePolicy::FailSafe,
        ];
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            cfgs.push(faulted(kind, policies[i % policies.len()], 11 + i as u64));
        }
        cfgs
    }

    #[test]
    fn replica_equals_harness_on_every_stage() {
        let cfgs = configs();
        let trace = trace_sample(&cfgs);
        assert!(
            trace.mismatches.is_empty(),
            "lanes {:?} diverge",
            trace.mismatches
        );
        assert!(
            trace.harness.iter().any(|r| r.accident.is_some()),
            "the sample must include a collision run"
        );
        assert!(trace.clock.frozen_ratio() > 0.0);
        assert!(trace.harness.iter().any(|r| r.panda_blocked > 0));
        assert!(trace.harness.iter().any(|r| r.faults_injected > 0));
        assert!(trace.harness.iter().any(|r| r.ids_detected.is_some()));
        assert!(trace.harness.iter().any(|r| r.frames_rewritten > 0));
        let per_tick = trace.clock.per_tick_ns();
        assert!(per_tick.iter().all(|&ns| ns > 0.0), "{per_tick:?}");
        assert_eq!(trace.clock.ticks, cfgs.len() as u64 * units::STEPS_PER_SIM);
    }
}
