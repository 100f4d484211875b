//! The assembled ADAS: one object consuming sensor messages and producing
//! actuator CAN frames each 10 ms control cycle.

use canbus::CanFrame;
use msgbus::schema::{AlertKind, CarControl, CarState, ControlsState, SensorFeed};
use msgbus::{Bus, Envelope, Payload, Subscriber, Topic};
use units::{Accel, Speed, Tick};

use crate::acc::AccOutput;
use crate::alc::AlcOutput;
use crate::degradation::{FAILSAFE_BRAKE, GENTLE_BRAKE};
use crate::plausibility::STALE_AFTER_TICKS;
use crate::safety;
use crate::{
    AccController, AlcController, AlertManager, CarStateEstimator, CommandEncoder,
    DegradationMonitor, DegradationState, GateConfig, LaneProcessor, LeadTracker, PerceptionGates,
    QuantizedCycle,
};

/// Everything the ADAS produced in one control cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct AdasOutput {
    /// The fused vehicle state (published as `carState`).
    pub car: CarState,
    /// The high-level command (also published as `carControl`).
    pub control: CarControl,
    /// The actuator CAN frames (empty when disengaged).
    pub frames: Vec<CanFrame>,
    /// Alerts newly raised this cycle.
    pub new_alerts: Vec<AlertKind>,
    /// Whether the ADAS is engaged.
    pub engaged: bool,
    /// Longitudinal controller internals (desired vs. commanded).
    pub acc: AccOutput,
    /// Lateral controller internals (desired vs. commanded, saturation).
    pub alc: AlcOutput,
    /// Where the ADAS sits on the degradation ladder this cycle.
    pub degradation: DegradationState,
}

impl Default for AdasOutput {
    fn default() -> Self {
        Self {
            car: CarState::default(),
            control: CarControl::default(),
            // adas-lint: allow(R13, reason = "capacity-0 placeholder — Vec::new never touches the heap; live outputs recycle their buffers through step_into")
            frames: Vec::new(),
            // adas-lint: allow(R13, reason = "capacity-0 placeholder — Vec::new never touches the heap; live outputs recycle their buffers through step_into")
            new_alerts: Vec::new(),
            engaged: false,
            acc: AccOutput {
                desired: Accel::ZERO,
                command: Accel::ZERO,
            },
            alc: AlcOutput {
                desired: units::Angle::ZERO,
                command: units::Angle::ZERO,
                saturated: false,
            },
            degradation: DegradationState::Nominal,
        }
    }
}

impl AdasOutput {
    /// Publishes the cycle's internal state — `carState`, `carControl`,
    /// `controlsState`, in that order — the surface the paper's attacker
    /// eavesdrops on. Cloning an empty alert list is allocation-free, and
    /// alert ticks are rare.
    pub fn publish(&self, bus: &Bus, tick: Tick) {
        bus.publish(tick, Payload::CarState(self.car));
        bus.publish(tick, Payload::CarControl(self.control));
        bus.publish(
            tick,
            Payload::ControlsState(ControlsState {
                engaged: self.engaged,
                alerts: self.new_alerts.clone(),
            }),
        );
    }
}

/// A bus-fed ADAS's sensor subscriptions.
#[derive(Debug)]
struct BusTaps {
    bus: Bus,
    gps: Subscriber,
    model: Subscriber,
    radar: Subscriber,
    /// Drain scratch, reused every cycle so steady-state ticks stay
    /// allocation-free.
    scratch: Vec<Envelope>,
}

impl BusTaps {
    fn new(bus: &Bus) -> Self {
        Self {
            bus: bus.clone(),
            gps: bus.subscribe(&[Topic::GpsLocationExternal]),
            model: bus.subscribe(&[Topic::ModelV2]),
            radar: bus.subscribe(&[Topic::RadarState]),
            scratch: Vec::new(),
        }
    }

    /// Drains every stream, keeping its newest message (latest sample
    /// wins, like a real 100 Hz control loop) with its sample stamp.
    fn drain(&mut self) -> SensorFeed {
        let scratch = &mut self.scratch;
        self.gps.drain_into(scratch);
        let gps = scratch.iter().rev().find_map(|env| {
            let Payload::GpsLocationExternal(gps) = env.payload() else {
                return None;
            };
            Some((env.tick(), *gps))
        });
        self.model.drain_into(scratch);
        let lane = scratch.iter().rev().find_map(|env| {
            let Payload::ModelV2(lane) = env.payload() else {
                return None;
            };
            Some((env.tick(), *lane))
        });
        self.radar.drain_into(scratch);
        let radar = scratch.iter().rev().find_map(|env| {
            let Payload::RadarState(radar) = env.payload() else {
                return None;
            };
            Some((env.tick(), *radar))
        });
        SensorFeed { gps, lane, radar }
    }
}

/// Which streams delivered a fresh, admitted sample this cycle — the
/// degradation watchdog's input.
#[derive(Debug, Clone, Copy)]
struct Freshness {
    gps: bool,
    cam: bool,
    radar: bool,
}

/// The OpenPilot-style ADAS process.
///
/// A bus-fed ADAS ([`Adas::new`], [`Adas::with_gates`]) subscribes to the
/// sensor topics on construction, consumes the latest sample of each per
/// [`Adas::step`], and publishes `carState`, `carControl` and
/// `controlsState` back onto the bus — the exact surface the paper's
/// attacker eavesdrops on. A directly fed one ([`Adas::direct`]) takes each
/// cycle's samples from its caller through [`Adas::step_with`] and
/// publishes nothing. Both run the same ingestion and control code.
#[derive(Debug)]
pub struct Adas {
    /// The bus a bus-fed ADAS drains and publishes on; `None` when fed
    /// directly.
    taps: Option<BusTaps>,
    state: CarStateEstimator,
    lanes: LaneProcessor,
    leads: LeadTracker,
    acc: AccController,
    alc: AlcController,
    alerts: AlertManager,
    degradation: DegradationMonitor,
    encoder: CommandEncoder,
    last_control: CarControl,
    /// Plausibility gates vetting each reading before fusion; `None` for
    /// the legacy watchdog-only configuration.
    gates: Option<PerceptionGates>,
    /// A rung an external detector asked to force before the next cycle.
    pending_force: Option<DegradationState>,
}

impl Adas {
    /// Creates an ADAS engaged at the given cruise set-speed, subscribed to
    /// the sensor topics of `bus`.
    pub fn new(bus: &Bus, v_cruise: Speed) -> Self {
        Self::build(Some(BusTaps::new(bus)), v_cruise, None)
    }

    /// Like [`Adas::new`], but with plausibility gates vetting every sensor
    /// reading before the estimators fuse it (the `Observe`/`Degrade`/
    /// `FailSafe` defense policies).
    pub fn with_gates(bus: &Bus, v_cruise: Speed, cfg: GateConfig) -> Self {
        Self::build(Some(BusTaps::new(bus)), v_cruise, Some(cfg))
    }

    /// An ADAS engaged at the given cruise set-speed that holds no bus: its
    /// caller hands it each cycle's sensor traffic through
    /// [`step_with`](Self::step_with), and it publishes nothing. `gates`
    /// attaches plausibility gates as [`with_gates`](Self::with_gates) does.
    pub fn direct(v_cruise: Speed, gates: Option<GateConfig>) -> Self {
        Self::build(None, v_cruise, gates)
    }

    fn build(taps: Option<BusTaps>, v_cruise: Speed, gates: Option<GateConfig>) -> Self {
        Self {
            taps,
            state: CarStateEstimator::new(v_cruise),
            lanes: LaneProcessor::new(),
            leads: LeadTracker::new(),
            acc: AccController::new(),
            alc: AlcController::new(),
            alerts: AlertManager::new(),
            degradation: DegradationMonitor::new(),
            encoder: CommandEncoder::new(),
            last_control: CarControl::default(),
            gates: gates.map(PerceptionGates::new),
            pending_force: None,
        }
    }

    /// Asks the degradation ladder to escalate to at least `target` at the
    /// start of the next cycle (e.g. on a CAN-IDS alarm). Escalate-only and
    /// edge-triggered; the caller re-requests each tick while the evidence
    /// persists, and recovery runs through the normal hysteresis.
    pub fn request_degradation(&mut self, target: DegradationState) {
        self.pending_force = Some(match self.pending_force.take() {
            Some(prev) if prev.rank() >= target.rank() => prev,
            _ => target,
        });
    }

    /// Total sensor readings the plausibility gates flagged implausible
    /// (counted in observe mode too; 0 without gates).
    pub fn gate_rejections(&self) -> u64 {
        self.gates.as_ref().map_or(0, PerceptionGates::rejections)
    }

    /// Whether the ADAS is engaged.
    pub fn engaged(&self) -> bool {
        self.state.engaged()
    }

    /// Disengages lateral and longitudinal control (driver override). The
    /// ADAS keeps publishing state but stops commanding the actuators.
    pub fn disengage(&mut self) {
        self.state.disengage();
    }

    /// Total alert events raised so far.
    pub fn alert_events(&self) -> u64 {
        self.alerts.total_events()
    }

    /// Total FCW events raised so far (expected to remain zero, Observation 2).
    pub fn fcw_events(&self) -> u64 {
        self.alerts.fcw_events()
    }

    /// Where the ADAS currently sits on the degradation ladder.
    pub fn degradation(&self) -> DegradationState {
        self.degradation.state()
    }

    /// Runs one control cycle: drains sensor messages, updates estimators,
    /// computes ACC + ALC, raises alerts, publishes state and returns the
    /// actuator frames.
    pub fn step(&mut self, tick: Tick) -> AdasOutput {
        let mut out = AdasOutput::default();
        self.step_into(tick, &mut out);
        out
    }

    /// Allocation-free variant of [`step`](Self::step): overwrites `out`,
    /// reusing its `frames` and `new_alerts` buffers. A caller that hands the
    /// same [`AdasOutput`] back every cycle pays for the buffers once and
    /// then runs the whole control loop without touching the heap.
    ///
    /// A directly fed ADAS has no bus to drain, so this cycle sees silence
    /// on every stream.
    pub fn step_into(&mut self, tick: Tick, out: &mut AdasOutput) {
        let feed = self
            .taps
            .as_mut()
            .map_or_else(SensorFeed::default, BusTaps::drain);
        self.step_with(tick, &feed, true, out);
        if let Some(taps) = &self.taps {
            out.publish(&taps.bus, tick);
        }
    }

    /// Runs one control cycle on sensor traffic its caller hands over
    /// directly, publishing nothing: the same ingestion (gates, staleness,
    /// coasting) and control code as [`step_into`](Self::step_into)'s bus
    /// drain. With `encode_frames` the actuator frames are produced as
    /// usual (a man-in-the-middle or a receiver wants real bytes); without
    /// it the encoder's rolling counters still advance and the return value
    /// carries the command the actuator side would have decoded and the
    /// counters the frames would have carried (`None`: frames were encoded,
    /// the ADAS is disengaged, or the encode path errored — hold the last
    /// command, exactly what an empty frame batch decodes to).
    pub fn step_with(
        &mut self,
        tick: Tick,
        feed: &SensorFeed,
        encode_frames: bool,
        out: &mut AdasOutput,
    ) -> Option<QuantizedCycle> {
        let fresh = self.ingest(tick, feed);
        self.control_cycle(fresh, encode_frames, out)
    }

    /// Folds one cycle's sensor traffic into the estimators. A sample must
    /// pass its plausibility gate (when gates are attached) to update its
    /// estimator. An admitted sample whose stamp lags `tick` by more than
    /// [`STALE_AFTER_TICKS`] is replayed history: it still updates (it is
    /// the freshest content available) but does not count as fresh, so the
    /// watchdog sees through a latency fault. A missing stream is a
    /// module-level outage, distinct from a message reporting "no
    /// detection"; a missing or rejected camera or radar sample coasts its
    /// estimator (lane confidence decays, the lead track holds, then
    /// invalidates).
    fn ingest(&mut self, tick: Tick, feed: &SensorFeed) -> Freshness {
        let mut fresh = Freshness {
            gps: false,
            cam: false,
            radar: false,
        };
        if let Some((stamp, gps)) = &feed.gps {
            let admitted = match self.gates.as_mut() {
                Some(g) => g.admit_gps(tick, gps, &self.state),
                None => true,
            };
            if admitted {
                self.state.update(gps, self.last_control.steer);
                fresh.gps = tick - *stamp <= STALE_AFTER_TICKS;
            }
        }
        let mut cam_updated = false;
        if let Some((stamp, lane)) = &feed.lane {
            let admitted = match self.gates.as_mut() {
                Some(g) => g.admit_lane(tick, lane),
                None => true,
            };
            if admitted {
                self.lanes.update(lane);
                cam_updated = true;
                fresh.cam = tick - *stamp <= STALE_AFTER_TICKS;
            }
        }
        let mut radar_updated = false;
        if let Some((stamp, radar)) = &feed.radar {
            let admitted = match self.gates.as_mut() {
                Some(g) => g.admit_radar(tick, radar, &self.leads),
                None => true,
            };
            if admitted {
                self.leads.update(radar);
                radar_updated = true;
                fresh.radar = tick - *stamp <= STALE_AFTER_TICKS;
            }
        }
        // A gate-rejected reading coasts like silence; a stale-but-admitted
        // reading already updated the estimator and must not double-advance.
        if !cam_updated {
            self.lanes.coast();
        }
        if !radar_updated {
            self.leads.coast();
        }
        fresh
    }

    /// Everything downstream of sensor ingestion: the degradation ladder,
    /// ACC + ALC, the envelope clamp, alerts and the actuator encode.
    fn control_cycle(
        &mut self,
        fresh: Freshness,
        encode_frames: bool,
        out: &mut AdasOutput,
    ) -> Option<QuantizedCycle> {
        // An externally requested rung (CAN IDS alarm under an acting
        // policy) lands before the watchdogs step, so this cycle's control
        // authority already reflects it.
        let forced_alert = self
            .pending_force
            .take()
            .and_then(|target| self.degradation.force(target));
        let degradation_alert = self.degradation.step(fresh.gps, fresh.cam, fresh.radar);
        let degradation = self.degradation.state();

        let car = self.state.state();
        let lead = self.leads.lead();
        let engaged = self.state.engaged();

        let acc_out = self.acc.control(&car, lead.as_ref());
        let lane_est = self.lanes.estimate();
        let alc_out = self.alc.control(&lane_est);

        let control = if engaged {
            // Fail-closed authority: ACC output is replaced by a fixed
            // brake on the degraded rungs, and steering authority scales
            // with lane confidence (exactly 1.0 while the camera is
            // healthy, so nominal runs are bit-identical).
            let accel = match degradation {
                DegradationState::Nominal | DegradationState::DegradedAlcOff => acc_out.command,
                DegradationState::DegradedAccOff => GENTLE_BRAKE,
                DegradationState::FailSafe => FAILSAFE_BRAKE,
            };
            CarControl {
                accel,
                steer: alc_out.command * lane_est.confidence,
            }
        } else {
            CarControl::default()
        };
        // Terminal envelope: every path into the encoder passes this clamp
        // (the invariant adas-lint R9 proves). No-op on the nominal path —
        // ACC and ALC outputs are already clamped tighter upstream.
        let control = safety::envelope_clamp(control);
        self.last_control = control;

        let brake = control.accel.min(Accel::ZERO);
        self.alerts
            .step_into(engaged && alc_out.saturated, brake, &mut out.new_alerts);
        if let Some(kind) = forced_alert {
            // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining output buffer (≤1 per cycle) — amortized after the first cycles")
            out.new_alerts.push(kind);
        }
        if let Some(kind) = degradation_alert {
            // adas-lint: allow(R13, reason = "append into the caller's cleared, capacity-retaining output buffer (≤1 per cycle) — amortized after the first cycles")
            out.new_alerts.push(kind);
        }

        let mut quantized = None;
        if encode_frames {
            // Fail safe: if a command somehow escapes its clamp, send no
            // frames at all (actuators hold/coast) rather than panicking
            // mid-drive.
            if !engaged || self.encoder.encode_into(&control, &mut out.frames).is_err() {
                out.frames.clear();
            }
        } else {
            // No one inspects the wire this cycle: skip the frame bytes but
            // keep counter parity and quantization, so the actuator sees
            // bit-identical commands either way. An encode-path error maps
            // to `None`, like an empty frame batch.
            out.frames.clear();
            if engaged {
                quantized = self.encoder.quantize_cycle(&control).ok();
            }
        }

        out.car = car;
        out.control = control;
        out.engaged = engaged;
        out.acc = acc_out;
        out.alc = alc_out;
        out.degradation = degradation;
        quantized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgbus::schema::{GpsLocation, LaneModel, LeadTrack, RadarState};
    use units::{Angle, Distance};

    fn publish_sensors(bus: &Bus, tick: Tick, v: f64, offset: f64, lead: Option<(f64, f64)>) {
        bus.publish(
            tick,
            Payload::GpsLocationExternal(GpsLocation {
                speed: Speed::from_mps(v),
                bearing: Angle::ZERO,
            }),
        );
        let half = 1.85;
        bus.publish(
            tick,
            Payload::ModelV2(LaneModel {
                left_line: Distance::meters(half - offset),
                right_line: Distance::meters(half + offset),
                lane_width: Distance::meters(3.7),
                curvature: 1.0 / 800.0,
            }),
        );
        bus.publish(
            tick,
            Payload::RadarState(RadarState {
                lead: lead.map(|(d, vl)| LeadTrack {
                    d_rel: Distance::meters(d),
                    v_lead: Speed::from_mps(vl),
                    a_lead: Accel::ZERO,
                }),
            }),
        );
    }

    #[test]
    fn cruise_without_lead_accelerates_to_set_speed() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        let mut out = None;
        for i in 0..50 {
            publish_sensors(&bus, Tick::new(i), 20.0, 0.0, None);
            out = Some(adas.step(Tick::new(i)));
        }
        let out = out.unwrap();
        assert!(out.engaged);
        assert!(out.control.accel.mps2() > 1.0, "well below set speed");
        assert_eq!(out.frames.len(), 3);
    }

    #[test]
    fn brakes_for_slow_lead() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        for i in 0..50 {
            publish_sensors(&bus, Tick::new(i), 26.8, 0.0, Some((25.0, 15.6)));
            adas.step(Tick::new(i));
        }
        publish_sensors(&bus, Tick::new(50), 26.8, 0.0, Some((25.0, 15.6)));
        let out = adas.step(Tick::new(50));
        assert!(out.control.accel.mps2() < -1.0, "got {}", out.control.accel);
    }

    #[test]
    fn steers_back_toward_centre() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        for i in 0..100 {
            publish_sensors(&bus, Tick::new(i), 26.8, -0.5, None);
            adas.step(Tick::new(i));
        }
        publish_sensors(&bus, Tick::new(100), 26.8, -0.5, None);
        let out = adas.step(Tick::new(100));
        // Right of centre on a left curve: definitely steering left.
        assert!(out.control.steer.degrees() > 0.2, "got {}", out.control.steer);
    }

    #[test]
    fn disengage_stops_frames_but_not_state() {
        let bus = Bus::new();
        let mut state_sub = bus.subscribe(&[Topic::CarState]);
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        publish_sensors(&bus, Tick::ZERO, 26.8, 0.0, None);
        adas.disengage();
        let out = adas.step(Tick::ZERO);
        assert!(!out.engaged);
        assert!(out.frames.is_empty());
        assert_eq!(out.control, CarControl::default());
        assert_eq!(state_sub.drain().len(), 1, "state still published");
    }

    #[test]
    fn publishes_control_topics_every_cycle() {
        let bus = Bus::new();
        let mut sub = bus.subscribe(&[Topic::CarControl, Topic::ControlsState]);
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        publish_sensors(&bus, Tick::ZERO, 26.8, 0.0, None);
        adas.step(Tick::ZERO);
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn sustained_offset_saturates_and_alerts() {
        let bus = Bus::new();
        let mut adas = Adas::new(&bus, Speed::from_mph(60.0));
        let mut alerted = false;
        for i in 0..500 {
            // A 6 m offset (two lanes out) demands far more steering than
            // the limit, sustained well past the alert debounce.
            publish_sensors(&bus, Tick::new(i), 26.8, 6.0, None);
            let out = adas.step(Tick::new(i));
            if out.new_alerts.contains(&AlertKind::SteerSaturated) {
                alerted = true;
            }
        }
        assert!(alerted, "steerSaturated raised for a large sustained offset");
        assert_eq!(adas.fcw_events(), 0);
    }
}
