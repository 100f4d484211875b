//! One lock-step simulation run: ADAS + simulator + driver + attack engine.
//!
//! The data flow per 10 ms tick mirrors the paper's Fig. 5:
//!
//! ```text
//! sensors ──publish──▶ msgbus ──▶ ADAS ──CAN frames──▶ [attack engine MITM]
//!                        ▲                                    │
//!                        └── attacker eavesdrops        [Panda checks]
//!                                                             ▼
//! hazard detector ◀── world.step(cmd) ◀── driver override? ◀── actuators
//! ```
//!
//! The harness hands the ADAS and the attacker their traffic directly
//! instead of routing it through the bus: each stream carries at most one
//! message per tick, so a newest-wins drain and a direct feed see the same
//! samples. The bus carries the tick's traffic, in the pub/sub order
//! above, only while someone observes it — an outside subscriber or the
//! flight recorder — and is otherwise never touched.
//!
//! A tick skips the work nothing reads, through four predicates on
//! [`Harness`]:
//!
//! * actuator frames are encoded only on ticks something reads their
//!   bytes (`frames_read`): an injecting attacker, an open CAN-fault
//!   window or Panda. Otherwise the actuator side takes the quantized
//!   command and the CAN IDS the encoder's rolling counters;
//! * a dormant attacker is not stepped (`attacker_dormant`);
//! * after a driver takeover only the driver, the world and the hazard
//!   detector run (`disengaged`);
//! * the invariant detector and the context monitor stop stepping once
//!   their first-detection latch is set (`detector_latched`).
//!
//! The fault engine is idle outside its windows on its own. Every skip is
//! off while the bus is observed, so a traced run executes the whole
//! pipeline and is the oracle for the untraced one.

use attack_core::{AttackConfig, AttackEngine, Observations};
use defense::{
    CanIds, ContextMonitor, ContextObservation, ControlInvariantDetector, DefensePolicy, IdsConfig,
    IdsVerdict,
};
use driver_model::{Driver, DriverConfig, DriverPhase, Observation};
use driving_sim::{ActuatorCommand, Scenario, SensorSuite, World, RADAR_RANGE};
use faultinj::{FaultEngine, FaultSchedule};
use msgbus::schema::{CarControl, CarState};
use msgbus::Bus;
use openadas::{Adas, AdasOutput, CommandEncoder, DegradationState, GateConfig, PandaSafety};
use units::{Seconds, Tick};

use crate::trace::{
    DegradationCode, DriverPhaseCode, IdsCode, TickRecord, TraceConfig, TraceRecorder,
};
use crate::{AccidentKind, HazardDetector, HazardKind, HazardParams};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// The driving scenario.
    pub scenario: Scenario,
    /// Seed for sensor noise and the attack's random draws.
    pub seed: u64,
    /// The attack to mount, if any.
    pub attack: Option<AttackConfig>,
    /// The simulated driver.
    pub driver: DriverConfig,
    /// Whether Panda-style firmware checks gate the actuator frames. The
    /// paper's CARLA setup leaves them disabled.
    pub panda_enabled: bool,
    /// How the defense stack is deployed: which detectors attach
    /// (control-invariant, context monitor, plausibility gates, CAN IDS)
    /// and whether their verdicts act on the vehicle. `Off` reproduces the
    /// paper's undefended ADAS; `Observe` is the old record-only
    /// `defenses_enabled` mode; `Degrade`/`FailSafe` make detections force
    /// the degradation ladder.
    pub defense: DefensePolicy,
    /// Hazard detection thresholds.
    pub hazard_params: HazardParams,
    /// Flight-recorder settings. Disabled by default; when disabled the
    /// harness allocates no recorder and pays only one branch per tick.
    pub trace: TraceConfig,
    /// Deterministic fault schedule. Empty by default; when empty the
    /// harness attaches no fault engine and the sensor/CAN paths are
    /// bit-identical to a fault-free build.
    pub faults: FaultSchedule,
}

impl HarnessConfig {
    /// An attack-free run with an alert driver.
    pub fn no_attack(scenario: Scenario, seed: u64) -> Self {
        Self {
            scenario,
            seed,
            attack: None,
            driver: DriverConfig::alert(),
            panda_enabled: false,
            defense: DefensePolicy::Off,
            hazard_params: HazardParams::default(),
            trace: TraceConfig::disabled(),
            faults: FaultSchedule::empty(),
        }
    }

    /// An attacked run with an alert driver.
    pub fn with_attack(scenario: Scenario, seed: u64, attack: AttackConfig) -> Self {
        Self {
            attack: Some(attack),
            ..Self::no_attack(scenario, seed)
        }
    }

    /// The same run with the flight recorder attached.
    pub fn traced(self, trace: TraceConfig) -> Self {
        Self { trace, ..self }
    }

    /// The same run with a fault schedule attached.
    pub fn with_faults(self, faults: FaultSchedule) -> Self {
        Self { faults, ..self }
    }

    /// The same run with the given defense policy.
    pub fn with_defense(self, defense: DefensePolicy) -> Self {
        Self { defense, ..self }
    }

    /// Whether the run is built with a stage that still reads sensing or
    /// the control stack after a driver takeover — a fault engine, the
    /// detectors, Panda — or with the flight recorder, which turns every
    /// skip off.
    fn reads_after_takeover(&self) -> bool {
        self.trace.enabled
            || !self.faults.is_empty()
            || self.defense.detectors_attached()
            || self.panda_enabled
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Seed of the run.
    pub seed: u64,
    /// First hazard (time and kind), if any.
    pub first_hazard: Option<(Seconds, HazardKind)>,
    /// All hazard kinds that occurred.
    pub hazard_kinds: Vec<HazardKind>,
    /// The accident, if one occurred.
    pub accident: Option<(Seconds, AccidentKind)>,
    /// ADAS alert events raised during the run.
    pub alert_events: u64,
    /// Forward-collision-warning events (Observation 2 expects zero).
    pub fcw_events: u64,
    /// Lane-invasion events.
    pub lane_invasions: u64,
    /// Simulated duration.
    pub duration: Seconds,
    /// When the attack first injected (`t_a`), if it did.
    pub attack_activated: Option<Seconds>,
    /// Time-to-hazard: first hazard − activation.
    pub tth: Option<Seconds>,
    /// When the driver noticed an anomaly/alert (`t_d`).
    pub driver_noticed: Option<Seconds>,
    /// When the driver took over (`t_ex`).
    pub driver_engaged: Option<Seconds>,
    /// CAN frames rewritten by the attack.
    pub frames_rewritten: u64,
    /// Frames blocked by Panda checks (when enabled).
    pub panda_blocked: u64,
    /// When the control-invariant detector alarmed (defenses enabled only).
    pub invariant_detected: Option<Seconds>,
    /// When the context-aware command monitor alarmed (defenses enabled
    /// only).
    pub monitor_detected: Option<Seconds>,
    /// Ticks the ADAS spent in any degraded (non-nominal) state.
    pub degraded_ticks: u64,
    /// Ticks the ADAS spent in the fail-safe state.
    pub failsafe_ticks: u64,
    /// When the ADAS first left the nominal state.
    pub first_degraded: Option<Seconds>,
    /// When the ADAS first entered the fail-safe state.
    pub first_failsafe: Option<Seconds>,
    /// Time from the scheduled end of the last fault to the return to
    /// nominal (None: never degraded, never recovered, or no schedule).
    pub recovery_latency: Option<Seconds>,
    /// Fault injections performed by the fault engine.
    pub faults_injected: u64,
    /// When the CAN IDS first alarmed (detectors attached only).
    pub ids_detected: Option<Seconds>,
    /// Readings withheld (or, under `Observe`, merely flagged) by the
    /// perception plausibility gates over the whole run.
    pub gate_rejections: u64,
}

impl SimResult {
    /// Whether any hazard occurred.
    pub fn hazardous(&self) -> bool {
        self.first_hazard.is_some()
    }

    /// Whether any ADAS alert was raised.
    pub fn alerted(&self) -> bool {
        self.alert_events > 0
    }

    /// The paper's "Hazards & no Alerts" criterion.
    pub fn hazard_without_alert(&self) -> bool {
        self.hazardous() && !self.alerted()
    }

    /// Whether a specific hazard kind occurred.
    pub fn has_hazard(&self, kind: HazardKind) -> bool {
        self.hazard_kinds.contains(&kind)
    }

    /// When the first detector (CAN IDS, control invariant or context
    /// monitor) alarmed, if any did.
    pub(crate) fn first_detection(&self) -> Option<Seconds> {
        [
            self.ids_detected,
            self.invariant_detected,
            self.monitor_detected,
        ]
        .into_iter()
        .flatten()
        .reduce(Seconds::min)
    }
}

/// A single assembled simulation.
pub struct Harness {
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
    recorder: Option<TraceRecorder>,
    /// [`HarnessConfig::reads_after_takeover`], fixed at construction.
    reads_after_takeover: bool,
    /// ADAS output buffers, handed to [`Adas::step_with`] and taken back
    /// every tick so the steady-state loop never touches the heap.
    adas_out: AdasOutput,
    /// The `carState` the ADAS produced last tick — what the attacker's
    /// eavesdropper would drain this tick (`None` before the first).
    last_car: Option<CarState>,
}

impl Harness {
    /// Wires up a run.
    pub fn new(config: HarnessConfig) -> Self {
        let attacker = config.attack.map(|mut a| {
            a.seed = a.seed.wrapping_add(config.seed);
            AttackEngine::direct(a)
        });
        // With detectors attached the ADAS carries plausibility gates; the
        // gates only *withhold* readings under an acting policy, otherwise
        // they observe and count. With `Off` the construction is exactly
        // the undefended baseline, bit for bit.
        let gates = config.defense.detectors_attached().then(|| {
            if config.defense.acts() {
                GateConfig::enforcing()
            } else {
                GateConfig::observing()
            }
        });
        Self {
            bus: Bus::new(),
            world: World::new(config.scenario, config.seed),
            sensors: SensorSuite::new(config.seed),
            adas: Adas::direct(config.scenario.cruise_speed, gates),
            attacker,
            driver: Driver::new(config.driver),
            panda: PandaSafety::new(config.panda_enabled),
            actuator_side: CommandEncoder::new(),
            hazards: HazardDetector::new(config.hazard_params),
            invariant: config
                .defense
                .detectors_attached()
                .then(ControlInvariantDetector::default),
            monitor: config
                .defense
                .detectors_attached()
                .then(ContextMonitor::default),
            ids: config
                .defense
                .detectors_attached()
                .then(|| CanIds::new(IdsConfig::default())),
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
            recorder: config
                .trace
                .enabled
                .then(|| TraceRecorder::new(config.trace)),
            reads_after_takeover: config.reads_after_takeover(),
            adas_out: AdasOutput::default(),
            last_car: None,
            config,
        }
    }

    /// The world (ground truth), for inspection.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The message bus (e.g. to attach extra eavesdroppers). It carries a
    /// tick's traffic only while it has a subscriber or the flight recorder
    /// is attached.
    ///
    /// Attach taps before the first [`step`](Self::step). An unobserved run
    /// stops sampling the sensors and stepping the ADAS once the driver has
    /// taken over, so a tap attached later would see that state resume
    /// from where it stopped rather than from where a fully observed run
    /// would be.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The attack engine, if one is mounted. In an unobserved run a
    /// dormant engine is no longer stepped, so once it can never inject
    /// again its `is_active`, `values` and `context` keep the last values
    /// it computed.
    pub fn attacker(&self) -> Option<&AttackEngine> {
        self.attacker.as_ref()
    }

    /// Whether the run has completed its 5,000 ticks.
    pub fn finished(&self) -> bool {
        self.world.finished()
    }

    /// Frames when read: whether anything but an injecting attacker reads
    /// this tick's actuator frames as bytes, or the run is observed. The
    /// frames' readers are the attack MITM (an injecting tick encodes
    /// regardless), the fault engine's CAN pass (only while a CAN-fault
    /// window is open), Panda, the CAN IDS and the actuator-side decoder.
    /// The last two only need to know the frames arrived as encoded: when
    /// nothing else reads them, the ADAS skips the frame bytes and hands
    /// over the command the decoder would have read and the rolling
    /// counters the IDS would have seen (the counters advance either way).
    fn frames_read(&self, tick: Tick, observed: bool) -> bool {
        observed
            || self.config.panda_enabled
            || self.faults.as_ref().is_some_and(|eng| eng.can_active(tick))
    }

    /// Dormant attacker: whether this tick may skip the attacker's
    /// observe/decide cycle and its MITM — it can never inject again
    /// ([`AttackEngine::dormant`]). The skipped cycle would only refresh
    /// state nothing else reads: its context inference and its
    /// `is_active`/`values` latch, read by the MITM (gated on this tick's
    /// decision, never on the latch), by the recorder's `attack_active`
    /// column (off while observed) and through [`attacker`](Self::attacker).
    fn attacker_dormant(&self, tick: Tick, observed: bool) -> bool {
        !observed && self.attacker.as_ref().is_some_and(|att| att.dormant(tick))
    }

    /// Disengaged: whether this tick runs only the driver, the world and
    /// the hazard detector. After a takeover the ADAS is disengaged for
    /// good and the attacker halted, so sensing, the attacker and the
    /// control stack feed nothing the run reports: the driver sees the
    /// held `last_cmd` (what an empty frame batch decodes to) and no alert
    /// (a disengaged ADAS commands zero, and without faults or gates its
    /// degradation ladder stays `Nominal`, so alert and degradation counts
    /// stand still). The frozen state's other readers — the bus, the
    /// recorder, the fault engine, the detectors and Panda — are absent
    /// whenever [`HarnessConfig::reads_after_takeover`] is false and the run
    /// is unobserved. The sensor RNG is not drawn on these ticks.
    fn disengaged(&self, observed: bool) -> bool {
        self.ever_disengaged && !observed && !self.reads_after_takeover
    }

    /// Latched detectors: whether a detector whose first alarm was at
    /// `detected_at` may skip this tick's step. The invariant detector's
    /// and the context monitor's only readers are
    /// `SimResult::{invariant,monitor}_detected`, which read that latch and
    /// nothing else, so once it is set a further step changes nothing the
    /// run reports.
    fn detector_latched(detected_at: Option<Tick>, observed: bool) -> bool {
        !observed && detected_at.is_some()
    }

    /// Advances one control cycle; returns the tick that was executed.
    pub fn step(&mut self) -> Tick {
        let tick = self.world.now();

        // A collision ends the run physically: the world is frozen and the
        // control stack no longer does anything meaningful, so only the
        // clock advances (keeping run durations comparable).
        if self.world.collision().is_some() {
            self.world.step(ActuatorCommand::default());
            self.capture_tick(tick, false, ActuatorCommand::default());
            return tick;
        }

        // Publish only while someone observes the bus; the ADAS and the
        // attacker are fed directly either way. Every skip is off while
        // the bus is observed, so an observed run executes the whole
        // pipeline.
        let observed = self.recorder.is_some() || self.bus.has_subscribers();
        if self.disengaged(observed) {
            let final_cmd = self.drive(tick, self.last_cmd, false);
            self.world.step(final_cmd);
            self.hazards.step(&self.world);
            return tick;
        }

        // 1. Sensors sample ground truth. With a fault engine attached the
        // sample is mutated first (stuck-at, noise, latency) and the IPC
        // stage can drop or delay each stream's message; without one every
        // stream delivers this tick's sample. Each message carries its
        // *sample* stamp: a latency or bus-delay replay arrives stamped with
        // the tick it was sampled at, so the ADAS staleness watchdog sees
        // its true age instead of a forged fresh timestamp.
        let mut frame = self.sensors.sample(&self.world);
        let feed = match self.faults.as_mut() {
            Some(eng) => eng.apply_sensors(tick, &mut frame),
            None => frame.stamped(tick),
        };
        if observed {
            feed.publish(&self.bus);
        }

        // 2. The attacker eavesdrops and matches contexts: this tick's
        // sensor messages and the `carState` published last tick.
        let dormant = self.attacker_dormant(tick, observed);
        let injecting = match self.attacker.as_mut() {
            Some(att) if !dormant => {
                let obs = Observations {
                    gps: feed.gps.map(|(_, gps)| gps),
                    lane: feed.lane.map(|(_, lane)| lane),
                    radar: feed.radar.map(|(_, radar)| radar),
                    car_state: self.last_car,
                };
                att.observe_with(tick, &obs);
                att.is_active()
            }
            _ => false,
        };

        // 3. The ADAS runs its control cycle and emits actuator frames when
        // something reads them, else the quantized command and counters.
        // The output buffers are owned by the harness, reused every tick
        // and borrowed in place through the decode stage.
        let frames_read = self.frames_read(tick, observed);
        let out = &mut self.adas_out;
        let quantized = self
            .adas
            .step_with(tick, &feed, injecting || frames_read, out);
        if observed {
            out.publish(&self.bus, tick);
        }
        self.last_car = Some(out.car);
        self.alert_events += out.new_alerts.len() as u64;

        // 3b. Degradation bookkeeping for the resilience metrics.
        match out.degradation {
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
                if self.first_degraded.is_none() {
                    self.first_degraded = Some(tick);
                }
                if self.first_failsafe.is_none() {
                    self.first_failsafe = Some(tick);
                }
            }
            DegradationState::DegradedAlcOff | DegradationState::DegradedAccOff => {
                self.degraded_ticks += 1;
                if self.first_degraded.is_none() {
                    self.first_degraded = Some(tick);
                }
            }
        }

        // 4. Man-in-the-middle: the attack rewrites frames in flight.
        if injecting {
            if let Some(att) = self.attacker.as_mut() {
                att.process_frames_in_place(tick, &mut out.frames);
            }
        }

        // 4b. Fault injection at the CAN layer: bus-off, frame drops and
        // un-repaired bit flips (a flipped frame fails its checksum at the
        // actuator and is rejected there — unlike the attack engine, the
        // fault engine does not forge valid frames).
        if let Some(eng) = self.faults.as_mut() {
            eng.apply_can(tick, &mut out.frames);
        }

        // 4c. CAN IDS watches the frames as delivered — after the MITM and
        // any bus fault, before the receivers; a tick whose frames were
        // skipped delivered them as encoded, so the IDS sees their counters.
        // Under an acting policy an alarm forces the degradation ladder;
        // the request lands at the top of the *next* control cycle
        // (one-tick actuation delay, like a real supervisor task).
        let ids_verdict = match (self.ids.as_mut(), quantized) {
            (Some(ids), Some(clean)) => ids.observe_clean(tick, clean.counters),
            (Some(ids), None) => ids.observe(tick, &out.frames, out.engaged),
            (None, _) => IdsVerdict::Nominal,
        };
        match self.config.defense {
            DefensePolicy::Off | DefensePolicy::Observe => {}
            DefensePolicy::Degrade => {
                if ids_verdict == IdsVerdict::Alarm {
                    self.adas
                        .request_degradation(DegradationState::DegradedAccOff);
                }
            }
            DefensePolicy::FailSafe => {
                if ids_verdict == IdsVerdict::Alarm || out.degradation != DegradationState::Nominal
                {
                    self.adas.request_degradation(DegradationState::FailSafe);
                }
            }
        }

        // 5. Firmware safety checks (disabled in the paper's setup).
        out.frames.retain(|f| self.panda.check(f).passed());

        // 6. Actuator-side decode; invalid/missing frames hold last values.
        // A tick whose frames were skipped carries the quantized command.
        let cmd = match quantized {
            Some(clean) => clean.command,
            None => self
                .actuator_side
                .decode_actuators(&out.frames, self.last_cmd),
        };
        self.last_cmd = cmd;

        // 6b. §V defenses observe the boundary: the invariant detector
        // compares the *issued* command with the measured response; the
        // context monitor judges the *executed* command in context. A
        // latched detector is not stepped.
        if let Some(inv) = self
            .invariant
            .as_mut()
            .filter(|inv| !Self::detector_latched(inv.detected_at(), observed))
        {
            inv.step(
                tick,
                out.control.accel,
                out.control.steer,
                frame.gps.speed,
                frame.lane.lateral_offset().raw(),
            );
        }
        if let Some(mon) = self
            .monitor
            .as_mut()
            .filter(|mon| !Self::detector_latched(mon.detected_at(), observed))
        {
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

        // 7. The driver watches the executed behaviour and any alert.
        let alerted = !out.new_alerts.is_empty();
        let final_cmd = self.drive(tick, cmd, alerted);

        // 8. Physics + hazard bookkeeping.
        self.world.step(final_cmd);
        self.hazards.step(&self.world);

        // 9. Flight recorder: snapshot the executed cycle (no-op when off).
        self.capture_tick(tick, true, final_cmd);
        tick
    }

    /// The driver's part of a tick: it watches the executed command and
    /// whether the ADAS raised an alert, and may take over — which
    /// disengages the ADAS and halts the attack for good. Returns the
    /// command the world executes.
    fn drive(&mut self, tick: Tick, cmd: CarControl, adas_alert: bool) -> ActuatorCommand {
        let obs = Observation {
            speed: self.world.ego().speed(),
            v_cruise: self.config.scenario.cruise_speed,
            accel_cmd: cmd.accel,
            steer_cmd: cmd.steer,
            adas_alert,
            lane_offset: self.world.ego().d(),
            lead_gap: {
                let gap = self.world.gap();
                (gap.raw() > 0.0 && gap < RADAR_RANGE).then_some(gap)
            },
        };
        match self.driver.step(tick, &obs) {
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
        }
    }

    /// Snapshots the tick that just executed into the recorder, if one is
    /// attached. `cycled` says whether the ADAS ran this tick, leaving its
    /// output in `adas_out`; it is `false` on post-collision frozen ticks.
    fn capture_tick(&mut self, tick: Tick, cycled: bool, applied: ActuatorCommand) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let out = cycled.then_some(&self.adas_out);
        let ego = self.world.ego();
        let lead = self.world.lead();
        let v = ego.speed().mps();
        let raw_gap = self.world.gap().raw();
        // Same visibility window the driver model uses: a lead beyond
        // [`RADAR_RANGE`] (or behind) is "no lead".
        let gap = if raw_gap > 0.0 && raw_gap < RADAR_RANGE.raw() {
            raw_gap
        } else {
            f64::NAN
        };
        let hwt = if v > 0.5 { gap / v } else { f64::NAN };
        rec.record(TickRecord {
            tick: tick.index(),
            ego_s: ego.s().raw(),
            ego_d: ego.d().raw(),
            ego_v: v,
            ego_a: ego.accel().raw(),
            ego_steer_deg: ego.steer().degrees(),
            lead_s: lead.s().raw(),
            lead_v: lead.speed().mps(),
            gap,
            hwt,
            engaged: out.is_some_and(|o| o.engaged),
            acc_desired: out.map_or(0.0, |o| o.acc.desired.raw()),
            acc_cmd: out.map_or(0.0, |o| o.acc.command.raw()),
            alc_desired_deg: out.map_or(0.0, |o| o.alc.desired.degrees()),
            alc_cmd_deg: out.map_or(0.0, |o| o.alc.command.degrees()),
            alc_saturated: out.is_some_and(|o| o.alc.saturated),
            cmd_accel: self.last_cmd.accel.raw(),
            cmd_steer_deg: self.last_cmd.steer.degrees(),
            applied_accel: applied.accel.raw(),
            applied_steer_deg: applied.steer.degrees(),
            bus_published: self.bus.published_by_topic(),
            attack_active: self.attacker.as_ref().is_some_and(AttackEngine::is_active),
            frames_rewritten: self
                .attacker
                .as_ref()
                .map_or(0, AttackEngine::frames_rewritten),
            panda_blocked: self.panda.blocked_count(),
            alert_events: self.alert_events,
            driver_phase: match self.driver.phase() {
                DriverPhase::Monitoring => DriverPhaseCode::Monitoring,
                DriverPhase::Reacting { .. } => DriverPhaseCode::Reacting,
                DriverPhase::Engaged { .. } => DriverPhaseCode::Engaged,
            },
            hazard_mask: self.hazards.mask(),
            h3_streak: self.hazards.h3_streak(),
            collided: self.world.collision().is_some(),
            fault_mask: self.faults.as_ref().map_or(0, FaultEngine::active_mask),
            faults_injected: self.faults.as_ref().map_or(0, FaultEngine::faults_injected),
            degradation: match self.adas.degradation() {
                DegradationState::Nominal => DegradationCode::Nominal,
                DegradationState::DegradedAlcOff => DegradationCode::AlcOff,
                DegradationState::DegradedAccOff => DegradationCode::AccOff,
                DegradationState::FailSafe => DegradationCode::FailSafe,
            },
            gate_rejections: self.adas.gate_rejections(),
            ids: match self
                .ids
                .as_ref()
                .map_or(IdsVerdict::Nominal, CanIds::verdict)
            {
                IdsVerdict::Nominal => IdsCode::Nominal,
                IdsVerdict::Suspicious => IdsCode::Suspicious,
                IdsVerdict::Alarm => IdsCode::Alarm,
            },
        });
    }

    /// Runs to completion and returns the result.
    pub fn run(mut self) -> SimResult {
        while !self.finished() {
            self.step();
        }
        self.result_so_far()
    }

    /// Runs to completion and returns the result together with the flight
    /// recorder (None when tracing was disabled).
    pub fn run_traced(mut self) -> (SimResult, Option<TraceRecorder>) {
        while !self.finished() {
            self.step();
        }
        let result = self.result_so_far();
        (result, self.recorder)
    }

    /// The flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// The newest `n` trace ticks as an aligned table, for diagnostics and
    /// assertion messages. Explains itself when tracing is off.
    pub fn trace_tail(&self, n: usize) -> String {
        match self.recorder.as_ref() {
            Some(rec) => rec.tail_table(n),
            None => {
                "(trace recorder disabled; enable HarnessConfig.trace to capture ticks)".to_string()
            }
        }
    }

    /// Snapshot of the result at the current point in the run.
    pub fn result_so_far(&self) -> SimResult {
        let first_hazard = self.hazards.first_any().map(|(t, k)| (t.time(), k));
        let attack_activated = self
            .attacker
            .as_ref()
            .and_then(|a| a.timeline().activated_at());
        let tth = match (attack_activated, self.hazards.first_any()) {
            (Some(_), Some((h, _))) => self.attacker.as_ref().and_then(|a| a.timeline().tth(h)),
            _ => None,
        };
        SimResult {
            seed: self.config.seed,
            first_hazard,
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
                .and_then(|d| d.detected_at())
                .map(Tick::time),
            monitor_detected: self
                .monitor
                .as_ref()
                .and_then(|m| m.detected_at())
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

/// Runs executed one after another, in push order. Its last caller is the
/// benchmark's stage trace (`crates/bench/perf/stages.rs`); it goes when
/// that file next changes.
#[derive(Default)]
pub struct BatchHarness {
    configs: Vec<HarnessConfig>,
}

impl BatchHarness {
    /// An empty list of runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one run.
    pub fn admit(&mut self, config: HarnessConfig) {
        self.configs.push(config);
    }

    /// Runs whose wire nothing reads from construction: no recorder, fault
    /// schedule, detectors or Panda.
    pub fn fast_lanes(&self) -> usize {
        self.configs
            .iter()
            .filter(|c| !c.reads_after_takeover())
            .count()
    }

    /// `Harness::new(config).run()` for every run, in push order.
    pub fn run(self) -> Vec<SimResult> {
        self.configs
            .into_iter()
            .map(|c| Harness::new(c).run())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::{AttackType, StrategyKind, ValueMode};
    use driving_sim::ScenarioId;
    use units::Distance;

    fn scenario(id: ScenarioId, gap: f64) -> Scenario {
        Scenario::new(id, Distance::meters(gap))
    }

    #[test]
    fn attack_free_run_is_hazard_free() {
        let result =
            Harness::new(HarnessConfig::no_attack(scenario(ScenarioId::S1, 70.0), 3)).run();
        assert!(!result.hazardous(), "got {:?}", result.first_hazard);
        assert!(result.accident.is_none());
        assert_eq!(result.fcw_events, 0);
        assert!(result.driver_engaged.is_none(), "driver never takes over");
        assert_eq!(result.duration, units::SIM_DURATION);
    }

    #[test]
    fn context_aware_acceleration_attack_causes_forward_hazard() {
        let attack = AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            ..AttackConfig::default()
        };
        let result = Harness::new(HarnessConfig::with_attack(
            scenario(ScenarioId::S1, 70.0),
            5,
            attack,
        ))
        .run();
        assert!(result.attack_activated.is_some(), "context arises in S1");
        assert!(
            result.has_hazard(HazardKind::H1),
            "got {:?}",
            result.hazard_kinds
        );
        assert!(result.tth.is_some());
        assert!(result.frames_rewritten > 0);
    }

    #[test]
    fn strategic_attack_is_not_noticed_by_driver() {
        let attack = AttackConfig {
            attack_type: AttackType::Deceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Strategic,
            ..AttackConfig::default()
        };
        let result = Harness::new(HarnessConfig::with_attack(
            scenario(ScenarioId::S1, 70.0),
            8,
            attack,
        ))
        .run();
        if result.attack_activated.is_some() {
            assert!(
                result.driver_engaged.is_none(),
                "strategic values stay inside the driver's thresholds"
            );
        }
    }

    #[test]
    fn fixed_deceleration_attack_is_noticed() {
        let attack = AttackConfig {
            attack_type: AttackType::Deceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let result = Harness::new(HarnessConfig::with_attack(
            scenario(ScenarioId::S1, 70.0),
            8,
            attack,
        ))
        .run();
        if let Some(t_a) = result.attack_activated {
            let noticed = result.driver_noticed.expect("-4 m/s^2 is an anomaly");
            assert!(noticed >= t_a);
            let engaged = result.driver_engaged.expect("engages 2.5 s later");
            assert!((engaged.secs() - noticed.secs() - 2.5).abs() < 0.02);
        }
    }

    #[test]
    fn steering_right_attack_reaches_the_guardrail() {
        let attack = AttackConfig {
            attack_type: AttackType::SteeringRight,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        // Try a few seeds: the trigger needs the wander to reach the right
        // edge, which is the common case but not guaranteed per-run.
        let mut hazardous = 0;
        for seed in 0..5 {
            let result = Harness::new(HarnessConfig::with_attack(
                scenario(ScenarioId::S2, 100.0),
                seed,
                attack,
            ))
            .run();
            // A trigger late in the run may not have time to finish; count
            // the ones that do (the campaign-level rate is ~99%).
            if result.attack_activated.is_some() && result.hazardous() {
                assert!(
                    result.has_hazard(HazardKind::H3),
                    "{:?}",
                    result.hazard_kinds
                );
                hazardous += 1;
            }
        }
        assert!(
            hazardous > 0,
            "right-edge attacks cause H3 in some of 5 runs"
        );
    }

    #[test]
    fn panda_blocks_fixed_attack_values() {
        let attack = AttackConfig {
            attack_type: AttackType::Acceleration,
            strategy: StrategyKind::ContextAware,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let mut cfg = HarnessConfig::with_attack(scenario(ScenarioId::S1, 70.0), 5, attack);
        cfg.panda_enabled = true;
        let result = Harness::new(cfg).run();
        if result.attack_activated.is_some() {
            assert!(
                result.panda_blocked > 0,
                "2.4 m/s^2 exceeds the firmware limit"
            );
        }
    }

    #[test]
    fn same_seed_reproduces_identical_results() {
        let attack = AttackConfig {
            attack_type: AttackType::AccelerationSteering,
            strategy: StrategyKind::RandomSt,
            value_mode: ValueMode::Fixed,
            ..AttackConfig::default()
        };
        let cfg = HarnessConfig::with_attack(scenario(ScenarioId::S3, 50.0), 99, attack);
        let a = Harness::new(cfg).run();
        let b = Harness::new(cfg).run();
        assert_eq!(a, b);
    }
}
