//! Lockstep batched simulation: N lanes stepped stage-major over
//! structure-of-arrays state.
//!
//! [`BatchHarness`] owns B scalar-equivalent lanes and steps them in
//! lockstep: every pipeline stage (sample → attacker → ADAS → actuation →
//! physics) runs as one loop across all lanes before the next stage
//! starts. Per-lane math is the scalar component code, bit for bit — the
//! scalar [`Harness`] is the oracle and batched results must equal it
//! exactly (`SimResult` for `SimResult`). Most of the speed over the
//! scalar harness comes from the work a fused lane skips (below), not from
//! the lockstep: on one thread a one-lane batch runs about 1.3× the
//! scalar harness, and 72 lanes in lockstep add about 10% (DESIGN.md,
//! "Where the speed comes from").
//!
//! # Lane lifecycle
//!
//! A lane that qualifies for the fused fast path (untraced, no fault
//! schedule, no detectors attached, Panda off) moves through three
//! regimes, each provably bit-equivalent to the scalar tick:
//!
//! - **Full**: the whole pipeline runs, fused — sensors feed the ADAS and
//!   the attacker directly, as in the scalar harness, and actuator frames
//!   are only materialized on ticks the attacker actively rewrites; other
//!   ticks advance the CAN rolling counters and quantize the command
//!   through the same DBC round trip the wire would apply.
//! - **Disengaged**: the driver has taken over (permanent — the driver
//!   model never hands back control), the attack is halted (latched off),
//!   and the disengaged ADAS emits a default command, no alerts and no
//!   frames, so sensing and control are dead computation; only the
//!   driver, physics and hazard bookkeeping still run.
//! - **Retired**: a collision froze the world; a scalar run spends its
//!   remaining ticks advancing only the clock, which the batch fast-
//!   forwards in one burst at the moment of collision.
//!
//! A lane that does not qualify wraps a scalar [`Harness`] stepped in
//! lockstep with the batch — still batched from the caller's point of
//! view, and trivially bit-exact.
//!
//! [`simulate`] is the single-run entry every campaign cell goes through:
//! a qualifying config runs as a one-lane fused batch, any other through
//! the scalar harness.

use attack_core::{AttackEngine, Observations};
use driver_model::{Driver, Observation};
use driving_sim::batch::{SensorColumn, WorldColumn};
use driving_sim::{ActuatorCommand, RADAR_RANGE};
use msgbus::schema::{CarControl, CarState, GpsLocation, LaneModel, RadarState};
use openadas::batch::AdasColumn;
use openadas::{AdasOutput, CommandEncoder, DegradationState};
use units::{Tick, STEPS_PER_SIM};

use crate::trace::TraceRecorder;
use crate::{Harness, HarnessConfig, HazardDetector, SimResult};

/// Where a fast lane is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Pre-takeover, pre-collision: the whole pipeline runs.
    Full,
    /// The driver took over: sensing and control are dead computation.
    Disengaged,
    /// Collision: the world has been fast-forwarded to the end of the run.
    Retired,
}

/// Per-lane bookkeeping mirroring the scalar harness fields.
#[derive(Debug)]
struct FastLane {
    config: HarnessConfig,
    regime: Regime,
    last_cmd: CarControl,
    alert_events: u64,
    ever_disengaged: bool,
    degraded_ticks: u64,
    failsafe_ticks: u64,
    first_degraded: Option<Tick>,
    first_failsafe: Option<Tick>,
}

/// The fused lanes, stored as parallel lane-indexed columns.
#[derive(Debug, Default)]
struct FastBatch {
    meta: Vec<FastLane>,
    sensors: SensorColumn,
    worlds: WorldColumn,
    gps: Vec<GpsLocation>,
    lane_models: Vec<LaneModel>,
    radars: Vec<RadarState>,
    /// Previous tick's `carState` per lane — what the attacker's
    /// eavesdropper would have drained this tick (`None` before tick 1).
    cars: Vec<Option<CarState>>,
    adas: AdasColumn,
    attackers: Vec<Option<AttackEngine>>,
    drivers: Vec<Driver>,
    hazards: Vec<HazardDetector>,
    actuators: Vec<CommandEncoder>,
    outs: Vec<AdasOutput>,
    /// The command each lane's actuator side decodes on a tick its frames
    /// were skipped (`None`: hold the last command).
    quantized: Vec<Option<CarControl>>,
    /// Stage masks and per-lane world commands, recomputed every tick.
    live: Vec<bool>,
    encode: Vec<bool>,
    step_world: Vec<bool>,
    cmds: Vec<ActuatorCommand>,
}

impl FastBatch {
    fn admit(&mut self, config: HarnessConfig) -> usize {
        let lane = self.meta.len();
        self.worlds.admit(config.scenario, config.seed);
        self.sensors.admit(config.seed);
        self.adas.admit(config.scenario.cruise_speed);
        // Same seed derivation as the scalar harness.
        self.attackers.push(config.attack.map(|mut a| {
            a.seed = a.seed.wrapping_add(config.seed);
            AttackEngine::direct(a)
        }));
        self.drivers.push(Driver::new(config.driver));
        self.hazards.push(HazardDetector::new(config.hazard_params));
        self.actuators.push(CommandEncoder::new());
        self.gps.push(GpsLocation::default());
        self.lane_models.push(LaneModel::default());
        self.radars.push(RadarState::default());
        self.cars.push(None);
        self.outs.push(AdasOutput::default());
        self.quantized.push(None);
        self.live.push(false);
        self.encode.push(false);
        self.step_world.push(false);
        self.cmds.push(ActuatorCommand::default());
        self.meta.push(FastLane {
            config,
            regime: Regime::Full,
            last_cmd: CarControl::default(),
            alert_events: 0,
            ever_disengaged: false,
            degraded_ticks: 0,
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
        });
        lane
    }

    /// Whether any lane still has work before the shared clock runs out.
    fn any_active(&self) -> bool {
        self.meta.iter().any(|m| m.regime != Regime::Retired)
    }

    /// One lockstep tick across all fast lanes.
    fn step(&mut self, tick: Tick) {
        for ((live, step), meta) in self.live.iter_mut().zip(&mut self.step_world).zip(&self.meta) {
            *live = meta.regime == Regime::Full;
            *step = meta.regime != Regime::Retired;
        }

        // Stage 1: sensors sample ground truth (full-regime lanes only; a
        // disengaged lane's samples feed a disengaged ADAS and a halted
        // attacker — dead computation, and the sensor RNG is never read
        // again, so skipping the draws is unobservable).
        self.sensors.sample_batch(
            &self.worlds,
            &self.live,
            &mut self.gps,
            &mut self.lane_models,
            &mut self.radars,
        );

        // Stage 2: the attacker eavesdrops and matches contexts. The
        // synthesized observations are exactly what its bus taps would
        // drain: this tick's sensor samples plus the previous tick's
        // `carState`.
        for i in 0..self.meta.len() {
            if !self.live[i] {
                continue;
            }
            self.encode[i] = match self.attackers[i].as_mut() {
                // A dormant engine can never inject again; skipping its
                // observe/decide cycle is unobservable.
                Some(att) if !att.dormant(tick) => {
                    let obs = Observations {
                        gps: Some(self.gps[i]),
                        lane: Some(self.lane_models[i]),
                        radar: Some(self.radars[i]),
                        car_state: self.cars[i],
                    };
                    att.observe_with(tick, &obs);
                    att.is_active()
                }
                _ => false,
            };
        }

        // Stage 3: the ADAS control cycle, bus-free. Frames are only
        // materialized on lanes whose attacker injects this tick.
        self.adas.step_batch(
            tick,
            &self.gps,
            &self.lane_models,
            &self.radars,
            &self.encode,
            &self.live,
            &mut self.outs,
            &mut self.quantized,
        );

        // Stage 4: bookkeeping, man-in-the-middle, actuation and the
        // driver — the control-flow-heavy per-lane tail of the tick.
        for i in 0..self.meta.len() {
            match self.meta[i].regime {
                Regime::Retired => {}
                Regime::Disengaged => self.step_disengaged_lane(i, tick),
                Regime::Full => self.step_full_lane(i, tick),
            }
        }

        // Stage 5: physics, then hazards over the stepped worlds.
        self.worlds.step_batch(&self.cmds, &self.step_world);
        for ((meta, world), hazard) in self
            .meta
            .iter_mut()
            .zip(self.worlds.as_slice())
            .zip(&mut self.hazards)
        {
            if meta.regime == Regime::Retired {
                continue;
            }
            hazard.step(world);
            if world.collision().is_some() {
                // A collision ends the run physically; the lane is
                // fast-forwarded through its remaining clock-only ticks
                // below.
                meta.regime = Regime::Retired;
            } else if meta.ever_disengaged {
                meta.regime = Regime::Disengaged;
            }
        }
        // Lanes retired *this* tick are exactly those whose `step_world`
        // mask (written at tick start, before any regime change) is still
        // set — no scratch list, so the steady-state tick stays
        // allocation-free (R13).
        for i in 0..self.meta.len() {
            if self.meta[i].regime == Regime::Retired && self.step_world[i] {
                self.worlds.run_out(i);
            }
        }
    }

    /// The post-ADAS tail of a full-pipeline tick for one lane — the same
    /// sequence as scalar [`Harness::step`] stages 3b–7.
    fn step_full_lane(&mut self, i: usize, tick: Tick) {
        let meta = &mut self.meta[i];
        let out = &mut self.outs[i];
        meta.alert_events += out.new_alerts.len() as u64;

        // Degradation bookkeeping. Without faults or detectors the ladder
        // never leaves Nominal, but the accounting is kept identical to
        // the scalar harness rather than assumed away.
        match out.degradation {
            DegradationState::Nominal => {}
            DegradationState::FailSafe => {
                meta.degraded_ticks += 1;
                meta.failsafe_ticks += 1;
                if meta.first_degraded.is_none() {
                    meta.first_degraded = Some(tick);
                }
                if meta.first_failsafe.is_none() {
                    meta.first_failsafe = Some(tick);
                }
            }
            DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                meta.degraded_ticks += 1;
                if meta.first_degraded.is_none() {
                    meta.first_degraded = Some(tick);
                }
            }
        }

        // Man-in-the-middle and actuator-side decode. On injection ticks
        // the real frames were encoded and the attack rewrites them in
        // flight; otherwise the quantized command is exactly what the
        // decoder would have produced (`None` holds the last command, the
        // empty-batch behaviour).
        let cmd = if self.encode[i] {
            if let Some(att) = self.attackers[i].as_mut() {
                att.process_frames_in_place(tick, &mut out.frames);
            }
            self.actuators[i].decode_actuators(&out.frames, meta.last_cmd)
        } else {
            self.quantized[i].unwrap_or(meta.last_cmd)
        };
        meta.last_cmd = cmd;
        self.cars[i] = Some(out.car);

        // The driver watches the executed behaviour and any alert.
        let Some(world) = self.worlds.as_slice().get(i) else {
            return;
        };
        let obs = Observation {
            speed: world.ego().speed(),
            v_cruise: meta.config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            adas_alert: !out.new_alerts.is_empty(),
            lane_offset: world.ego().d(),
            lead_gap: {
                let gap = world.gap();
                (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap)
            },
        };
        let driver_cmd = self.drivers[i].step(tick, &obs);
        self.cmds[i] = match driver_cmd {
            Some(d) => {
                if !meta.ever_disengaged {
                    self.adas.disengage(i);
                    if let Some(att) = self.attackers[i].as_mut() {
                        att.halt(tick);
                    }
                    self.meta[i].ever_disengaged = true;
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
    }

    /// A post-takeover tick: the held actuator command and the world's
    /// truth feed the engaged driver; everything upstream is skipped.
    fn step_disengaged_lane(&mut self, i: usize, tick: Tick) {
        let Some(world) = self.worlds.as_slice().get(i) else {
            return;
        };
        let cmd = self.meta[i].last_cmd;
        let obs = Observation {
            speed: world.ego().speed(),
            v_cruise: self.meta[i].config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            // The disengaged ADAS commands a clamped default: saturation
            // and FCW alerts cannot fire, and without faults the ladder
            // stays Nominal — no alert ticks.
            adas_alert: false,
            lane_offset: world.ego().d(),
            lead_gap: {
                let gap = world.gap();
                (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap)
            },
        };
        self.cmds[i] = match self.drivers[i].step(tick, &obs) {
            Some(d) => ActuatorCommand {
                accel: d.accel,
                steer: d.steer,
            },
            None => ActuatorCommand {
                accel: cmd.accel,
                steer: cmd.steer,
            },
        };
    }

    /// The finished lane's [`SimResult`], mirroring the scalar
    /// `Harness::result_so_far` field for field (fast lanes carry no
    /// fault engine, detectors or Panda, so those fields are their
    /// constructor values).
    fn result(&self, i: usize) -> Option<SimResult> {
        let meta = self.meta.get(i)?;
        let hazards = self.hazards.get(i)?;
        let world = self.worlds.as_slice().get(i)?;
        let driver = self.drivers.get(i)?;
        let attacker = self.attackers.get(i)?.as_ref();
        let adas = self.adas.get(i)?;
        let first_hazard = hazards.first_any().map(|(t, k)| (t.time(), k));
        let attack_activated = attacker.and_then(|a| a.timeline().activated_at());
        let tth = match (attack_activated, hazards.first_any()) {
            (Some(_), Some((h, _))) => attacker.and_then(|a| a.timeline().tth(h)),
            _ => None,
        };
        Some(SimResult {
            seed: meta.config.seed,
            first_hazard,
            hazard_kinds: hazards.kinds(),
            accident: hazards.accident().map(|(t, k)| (t.time(), k)),
            alert_events: meta.alert_events,
            fcw_events: adas.fcw_events(),
            lane_invasions: world.lane_invasions(),
            duration: world.now().time(),
            attack_activated: attack_activated.map(Tick::time),
            tth,
            driver_noticed: driver.noticed_at().map(Tick::time),
            driver_engaged: driver.engaged_at().map(Tick::time),
            frames_rewritten: attacker.map_or(0, AttackEngine::frames_rewritten),
            panda_blocked: 0,
            invariant_detected: None,
            monitor_detected: None,
            degraded_ticks: meta.degraded_ticks,
            failsafe_ticks: meta.failsafe_ticks,
            first_degraded: meta.first_degraded.map(Tick::time),
            first_failsafe: meta.first_failsafe.map(Tick::time),
            recovery_latency: None,
            faults_injected: 0,
            ids_detected: None,
            gate_rejections: adas.gate_rejections(),
        })
    }
}

/// Runs one simulation on the fastest engine that reproduces it.
///
/// A config that qualifies for the fused path
/// ([`BatchHarness::fast_eligible`]) steps as a one-lane fused batch; any
/// other goes through `Harness::new(config).run()`, which stays the
/// semantic definition and the oracle. The result is bit-identical to the
/// scalar harness either way.
pub fn simulate(config: HarnessConfig) -> SimResult {
    if BatchHarness::fast_eligible(&config) {
        let mut lane = FastBatch::default();
        lane.admit(config);
        let mut tick = 0;
        while tick < STEPS_PER_SIM && lane.any_active() {
            lane.step(Tick::new(tick));
            tick += 1;
        }
        if let Some(result) = lane.result(0) {
            return result;
        }
    }
    Harness::new(config).run()
}

/// Which kind of lane sits at one caller-visible index.
#[derive(Debug, Clone, Copy)]
enum LaneRef {
    Fast(usize),
    Exact(usize),
}

/// B scalar-equivalent simulation lanes stepped in lockstep.
///
/// Push each run's [`HarnessConfig`]; lanes that qualify take the fused
/// fast path, the rest wrap a scalar [`Harness`]. [`run`](Self::run)
/// returns one [`SimResult`] per lane in push order, bit-identical to
/// running each config through the scalar harness.
#[derive(Default)]
pub struct BatchHarness {
    fast: FastBatch,
    exact: Vec<Harness>,
    order: Vec<LaneRef>,
    ticks: u64,
}

impl BatchHarness {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a config qualifies for the fused fast path. Traced runs,
    /// fault schedules, attached detectors and Panda checks take the
    /// scalar-wrapping lane instead.
    pub fn fast_eligible(config: &HarnessConfig) -> bool {
        !config.trace.enabled
            && config.faults.is_empty()
            && !config.defense.detectors_attached()
            && !config.panda_enabled
    }

    /// Adds one lane. (Named `admit`, not `push`: workspace convention
    /// reserves std container method names for std semantics so the
    /// lint's name-based call graph stays precise.)
    pub fn admit(&mut self, config: HarnessConfig) {
        if Self::fast_eligible(&config) {
            let i = self.fast.admit(config);
            self.order.push(LaneRef::Fast(i));
        } else {
            self.order.push(LaneRef::Exact(self.exact.len()));
            self.exact.push(Harness::new(config));
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Lanes on the fused fast path.
    pub fn fast_lanes(&self) -> usize {
        self.fast.meta.len()
    }

    /// Lanes wrapping a scalar harness.
    pub fn exact_lanes(&self) -> usize {
        self.exact.len()
    }

    /// Whether every lane has completed its run.
    pub fn finished(&self) -> bool {
        (self.ticks >= STEPS_PER_SIM || !self.fast.any_active())
            && self.exact.iter().all(Harness::finished)
    }

    /// Advances every unfinished lane one lockstep tick.
    pub fn step(&mut self) {
        let tick = Tick::new(self.ticks);
        if self.ticks < STEPS_PER_SIM && self.fast.any_active() {
            self.fast.step(tick);
        }
        for h in &mut self.exact {
            if !h.finished() {
                h.step();
            }
        }
        self.ticks += 1;
    }

    /// Runs every lane to completion; results are in push order.
    pub fn run(mut self) -> Vec<SimResult> {
        while !self.finished() {
            self.step();
        }
        self.results()
    }

    /// Runs every lane to completion, handing back each lane's flight
    /// recorder too (always `None` on fast lanes — tracing routes a lane
    /// to the scalar path).
    pub fn run_traced(mut self) -> Vec<(SimResult, Option<TraceRecorder>)> {
        while !self.finished() {
            self.step();
        }
        let results = self.results();
        results
            .into_iter()
            .zip(self.order.iter())
            .map(|(r, lane)| match lane {
                LaneRef::Exact(j) => (r, self.exact.get_mut(*j).and_then(Harness::take_recorder)),
                LaneRef::Fast(_) => (r, None),
            })
            .collect()
    }

    /// The per-lane results in push order.
    fn results(&self) -> Vec<SimResult> {
        self.order
            .iter()
            .filter_map(|lane| match lane {
                LaneRef::Fast(i) => self.fast.result(*i),
                LaneRef::Exact(j) => self.exact.get(*j).map(Harness::result_so_far),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
    use driving_sim::{Scenario, ScenarioId};
    use units::Distance;

    fn scenario(id: ScenarioId, gap: f64) -> Scenario {
        Scenario::new(id, Distance::meters(gap))
    }

    fn attack(attack_type: AttackType, strategy: StrategyKind, value_mode: ValueMode) -> AttackConfig {
        AttackConfig {
            attack_type,
            strategy,
            value_mode,
            ..AttackConfig::default()
        }
    }

    #[test]
    fn batched_matches_scalar_attack_free() {
        let mut batch = BatchHarness::new();
        let mut scalar = Vec::new();
        for (s, gap, seed) in [
            (ScenarioId::S1, 70.0, 3),
            (ScenarioId::S2, 100.0, 4),
            (ScenarioId::S4, 50.0, 5),
        ] {
            let cfg = HarnessConfig::no_attack(scenario(s, gap), seed);
            batch.admit(cfg);
            scalar.push(Harness::new(cfg).run());
        }
        assert_eq!(batch.fast_lanes(), 3);
        assert_eq!(batch.run(), scalar);
    }

    #[test]
    fn batched_matches_scalar_under_attack() {
        let mut batch = BatchHarness::new();
        let mut scalar = Vec::new();
        for (i, (t, v)) in [
            (AttackType::Acceleration, ValueMode::Strategic),
            (AttackType::Deceleration, ValueMode::Fixed),
            (AttackType::SteeringRight, ValueMode::Fixed),
            (AttackType::AccelerationSteering, ValueMode::Strategic),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = HarnessConfig::with_attack(
                scenario(ScenarioId::S1, 70.0),
                5 + i as u64,
                attack(t, StrategyKind::ContextAware, v),
            );
            batch.admit(cfg);
            scalar.push(Harness::new(cfg).run());
        }
        assert_eq!(batch.fast_lanes(), 4);
        let results = batch.run();
        assert_eq!(results, scalar);
        assert!(
            results.iter().any(|r| r.frames_rewritten > 0),
            "at least one lane saw live injection"
        );
    }

    #[test]
    fn ineligible_configs_take_the_exact_lane() {
        let mut batch = BatchHarness::new();
        let mut cfg = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 9);
        cfg.panda_enabled = true;
        batch.admit(cfg);
        assert_eq!(batch.fast_lanes(), 0);
        assert_eq!(batch.exact_lanes(), 1);
        assert_eq!(batch.run(), vec![Harness::new(cfg).run()]);
    }

    #[test]
    fn mixed_batch_keeps_push_order() {
        let fast = HarnessConfig::no_attack(scenario(ScenarioId::S2, 100.0), 11);
        let mut exact = HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 12);
        exact.defense = crate::DefensePolicy::Observe;
        let mut batch = BatchHarness::new();
        batch.admit(fast);
        batch.admit(exact);
        batch.admit(fast);
        assert_eq!(batch.fast_lanes(), 2);
        assert_eq!(batch.exact_lanes(), 1);
        let expected = vec![
            Harness::new(fast).run(),
            Harness::new(exact).run(),
            Harness::new(fast).run(),
        ];
        assert_eq!(batch.run(), expected);
    }
}
