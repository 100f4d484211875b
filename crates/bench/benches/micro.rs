//! Criterion micro-benchmarks of the reproduction's building blocks:
//! simulation stepping, CAN encode/decode + checksum repair, the
//! actuator-command codec, the CAN IDS, bus pub/sub, context matching, and
//! a full harness tick — attacked, faulted and defended, defended and
//! attacked, and faulted with an outside subscriber observing the bus.

use attack_core::{
    AttackAction, AttackConfig, AttackEngine, ContextState, ContextTable, SteerDirection,
};
use canbus::{decode, rewrite_signal, CanFrame, Encoder, VirtualCarDbc};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use defense::{CanIds, IdsConfig};
use driving_sim::{ActuatorCommand, Scenario, ScenarioId, SensorSuite, World};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use msgbus::schema::{CarControl, GpsLocation};
use msgbus::{Bus, Payload, Topic};
use openadas::CommandEncoder;
use platform::{DefensePolicy, Harness, HarnessConfig, TraceConfig};
use units::{Accel, Angle, Distance, Seconds, Speed, Tick};

fn bench_world_step(c: &mut Criterion) {
    c.bench_function("world_step", |b| {
        let mut world = World::new(
            Scenario::new(ScenarioId::S2, Distance::meters(200.0)),
            1,
        );
        b.iter(|| {
            world.step(black_box(ActuatorCommand::default()));
        });
    });
}

fn bench_sensor_sample(c: &mut Criterion) {
    c.bench_function("sensor_sample", |b| {
        let world = World::new(Scenario::new(ScenarioId::S1, Distance::meters(70.0)), 2);
        let mut sensors = SensorSuite::new(2);
        b.iter(|| black_box(sensors.sample(&world)));
    });
}

fn bench_can_roundtrip(c: &mut Criterion) {
    c.bench_function("can_encode_decode", |b| {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        b.iter(|| {
            let frame = enc
                .encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", 0.25)])
                .unwrap();
            black_box(decode(dbc.steering_control(), &frame).unwrap())
        });
    });

    c.bench_function("can_mitm_rewrite", |b| {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let frame = enc
            .encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", 0.1)])
            .unwrap();
        b.iter(|| {
            black_box(
                rewrite_signal(dbc.steering_control(), &frame, "STEER_ANGLE_CMD", 0.5).unwrap(),
            )
        });
    });
}

/// One control cycle's actuator codec: the ADAS encodes a command into its
/// three frames, the actuator side decodes them back.
fn bench_command_codec(c: &mut Criterion) {
    let control = CarControl {
        accel: Accel::from_mps2(1.2),
        steer: Angle::from_degrees(-0.3),
    };
    c.bench_function("command_encode_into", |b| {
        let mut enc = CommandEncoder::new();
        let mut frames = Vec::with_capacity(3);
        b.iter(|| {
            let ok = enc.encode_into(black_box(&control), &mut frames).is_ok();
            black_box((ok, frames.len()))
        });
    });
    c.bench_function("decode_actuators", |b| {
        let mut enc = CommandEncoder::new();
        let frames = enc.encode(&control).unwrap();
        b.iter(|| black_box(enc.decode_actuators(black_box(&frames), CarControl::default())));
    });
}

/// The CAN IDS alone, one engaged control cycle per iteration: checking
/// the three encoded frames, and taking the encoder's rolling counters
/// for a cycle whose frames nothing altered.
fn bench_ids(c: &mut Criterion) {
    let control = CarControl {
        accel: Accel::from_mps2(1.2),
        steer: Angle::from_degrees(-0.3),
    };
    c.bench_function("ids_observe", |b| {
        // One encoded cycle per rolling-counter value, replayed in order,
        // so the counter sequence stays continuous and the IDS nominal.
        let mut enc = CommandEncoder::new();
        let cycles: Vec<Vec<CanFrame>> = (0..4).map(|_| enc.encode(&control).unwrap()).collect();
        let mut ids = CanIds::new(IdsConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            let frames = &cycles[(t % 4) as usize];
            let verdict = ids.observe(Tick::new(t), black_box(frames), true);
            t += 1;
            black_box(verdict)
        });
    });
    c.bench_function("ids_observe_clean", |b| {
        let mut ids = CanIds::new(IdsConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            let counters = [(t % 4) as u8; 3];
            let verdict = ids.observe_clean(Tick::new(t), black_box(counters));
            t += 1;
            black_box(verdict)
        });
    });
}

fn bench_bus(c: &mut Criterion) {
    c.bench_function("bus_publish_fanout3", |b| {
        let bus = Bus::new();
        let _a = bus.subscribe(&[Topic::GpsLocationExternal]);
        let _b = bus.subscribe(&[Topic::GpsLocationExternal]);
        let _c = bus.subscribe(&[Topic::GpsLocationExternal]);
        b.iter(|| {
            bus.publish(
                Tick::ZERO,
                Payload::GpsLocationExternal(GpsLocation::default()),
            )
        });
    });
}

fn bench_context_matching(c: &mut Criterion) {
    c.bench_function("context_table_match", |b| {
        let table = ContextTable::default();
        let state = ContextState {
            v_ego: Speed::from_mph(60.0),
            v_cruise: Speed::from_mph(60.0),
            lead_present: true,
            hwt: Some(Seconds::new(2.0)),
            rs: Some(Speed::from_mph(10.0)),
            d_left: Distance::meters(0.5),
            d_right: Distance::meters(1.4),
        };
        b.iter(|| {
            black_box(table.action_matches(&state, AttackAction::Accelerate));
            black_box(table.action_matches(&state, AttackAction::Steer(SteerDirection::Right)))
        });
    });
}

fn bench_attack_engine_observe(c: &mut Criterion) {
    c.bench_function("attack_engine_observe", |b| {
        let bus = Bus::new();
        let mut engine = AttackEngine::new(&bus, AttackConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            bus.publish(
                Tick::new(i),
                Payload::GpsLocationExternal(GpsLocation {
                    speed: Speed::from_mph(60.0),
                    bearing: units::Angle::ZERO,
                }),
            );
            engine.observe(Tick::new(i));
            i += 1;
        });
    });
}

fn bench_harness_tick(c: &mut Criterion) {
    c.bench_function("harness_full_tick", |b| {
        let mut harness = Harness::new(HarnessConfig::with_attack(
            Scenario::new(ScenarioId::S2, Distance::meters(200.0)),
            3,
            AttackConfig::default(),
        ));
        b.iter(|| {
            black_box(harness.step());
        });
    });

    // A `resilience_faults` cell: a sensor-noise window under the Degrade
    // defense, no attacker. Unobserved, the tick never touches the bus;
    // the observed variant drains every topic each tick, which puts the
    // pub/sub hop back (six publishes and a drain per tick).
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let faulted = HarnessConfig::no_attack(scenario, 5)
        .with_faults(FaultSchedule::single(
            FaultSpec::window(FaultKind::SensorNoiseBurst, FaultTarget::All, 1_000, 2_000)
                .with_intensity(0.5),
        ))
        .with_defense(DefensePolicy::Degrade);
    c.bench_function("harness_faulted_tick", |b| {
        let mut harness = Harness::new(faulted);
        b.iter(|| {
            if harness.finished() {
                harness = Harness::new(faulted);
            }
            black_box(harness.step());
        });
    });
    // A `defense_matrix` cell: `harness_full_tick`'s Context-Aware attack
    // against the Observe policy, no faults. The detectors and the IDS run
    // on every tick; frames are encoded only while the attack injects.
    let defended = HarnessConfig::with_attack(
        Scenario::new(ScenarioId::S2, Distance::meters(200.0)),
        3,
        AttackConfig::default(),
    )
    .with_defense(DefensePolicy::Observe);
    c.bench_function("harness_defended_tick", |b| {
        let mut harness = Harness::new(defended);
        b.iter(|| {
            if harness.finished() {
                harness = Harness::new(defended);
            }
            black_box(harness.step());
        });
    });
    c.bench_function("harness_faulted_tick_observed", |b| {
        let mut harness = Harness::new(faulted);
        let mut tap = harness.bus().subscribe(&Topic::ALL);
        let mut seen = Vec::new();
        b.iter(|| {
            if harness.finished() {
                harness = Harness::new(faulted);
                tap = harness.bus().subscribe(&Topic::ALL);
            }
            black_box(harness.step());
            tap.drain_into(&mut seen)
        });
    });

    // Same tick with the flight recorder attached: the acceptance bar is
    // that the *disabled* path above pays <2% for the instrumentation, and
    // this shows what enabling it costs.
    c.bench_function("harness_full_tick_traced", |b| {
        let mut harness = Harness::new(
            HarnessConfig::with_attack(
                Scenario::new(ScenarioId::S2, Distance::meters(200.0)),
                3,
                AttackConfig::default(),
            )
            .traced(TraceConfig::enabled(256)),
        );
        b.iter(|| {
            black_box(harness.step());
        });
    });
}

criterion_group!(
    benches,
    bench_world_step,
    bench_sensor_sample,
    bench_can_roundtrip,
    bench_command_codec,
    bench_ids,
    bench_bus,
    bench_context_matching,
    bench_attack_engine_observe,
    bench_harness_tick
);
criterion_main!(benches);
