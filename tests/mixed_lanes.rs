//! Frozen-bytes oracles for two lane samples, each run's `SimResult`
//! digested and compared with a golden file.
//!
//! * **Mixed** (`tests/golden/mixed_lanes.txt`): the lane mix no campaign
//!   runs — an attack, a fault schedule, a defense policy and Panda checks
//!   in one simulation. The resilience campaign has faults but no
//!   attacker, the defense campaign has attacks but no Panda, and the
//!   paper campaigns have neither, so no committed report pins what these
//!   stages do together.
//! * **Attacked** (`tests/golden/attacked_lanes.txt`): the paper's lanes —
//!   attacked, undefended, fault-free, Panda off — over every strategy,
//!   attack type and value mode, with both driver kinds. Nothing reads
//!   their wire, so these are the lanes on which `Harness::step` skips
//!   frame encoding, a dormant attacker and a disengaged control stack.
//!
//! Regenerate both (only for an intended behaviour change) with
//! `REGEN_MIXED_GOLDEN=1 cargo test --test mixed_lanes`.
//!
//! The same configs check the harness's bus contract: an unobserved run
//! publishes nothing, and observing the bus changes nothing.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::Scenario;
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use msgbus::{Envelope, Topic};
use platform::{DefensePolicy, Harness, HarnessConfig, SimResult};
use units::mix::splitmix64;
use units::{Tick, STEPS_PER_SIM};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mixed_lanes.txt");
const ATTACKED_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/attacked_lanes.txt");

/// Configs in the mixed sample; each defense policy gets a quarter of them.
const SAMPLE: u64 = 24;

/// Configs in the attacked sample: one per strategy × attack type × value
/// mode.
const ATTACKED_SAMPLE: u64 = 48;

const POLICIES: [DefensePolicy; 4] = [
    DefensePolicy::Off,
    DefensePolicy::Observe,
    DefensePolicy::Degrade,
    DefensePolicy::FailSafe,
];
const TARGETS: [FaultTarget; 4] = [
    FaultTarget::Gps,
    FaultTarget::Camera,
    FaultTarget::Radar,
    FaultTarget::All,
];
const INTENSITIES: [f64; 4] = [0.05, 0.2, 0.5, 1.0];

/// A splitmix64 stream, drawn with a bound.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

fn fault(d: &mut Draws) -> FaultSpec {
    FaultSpec::window(
        d.pick(&FaultKind::ALL),
        d.pick(&TARGETS),
        d.below(4_000),
        100 + d.below(1_500),
    )
    .with_intensity(d.pick(&INTENSITIES))
    .with_delay(1 + d.below(40) as u32)
}

/// The `i`-th config of the sample: every one attacked, faulted, defended
/// and Panda-checked.
fn config(i: u64) -> HarnessConfig {
    let mut d = Draws(i.wrapping_mul(0x5DEE_CE66));
    let scenario = d.pick(&Scenario::matrix());
    let seed = d.below(1 << 32);
    let attack = AttackConfig {
        attack_type: d.pick(&AttackType::ALL),
        strategy: d.pick(&StrategyKind::ALL),
        value_mode: d.pick(&[ValueMode::Fixed, ValueMode::Strategic]),
        seed: d.below(1 << 32),
        ..AttackConfig::default()
    };
    let mut faults = FaultSchedule::single(fault(&mut d));
    if d.below(2) == 0 {
        faults.add(fault(&mut d));
    }
    let mut config = HarnessConfig::with_attack(scenario, seed, attack)
        .with_faults(faults)
        .with_defense(POLICIES[(i % 4) as usize]);
    config.panda_enabled = true;
    if d.below(3) == 0 {
        config.driver = DriverConfig::inattentive();
    }
    config
}

/// The `i`-th config of the attacked sample: undefended, fault-free and
/// Panda-off. Strategy, attack type and value mode walk their cross
/// product; scenario, seeds and the driver are drawn.
fn attacked_config(i: u64) -> HarnessConfig {
    let mut d = Draws(i.wrapping_mul(0x2545_F491) ^ 0xA77A_C4ED);
    let scenario = d.pick(&Scenario::matrix());
    let seed = d.below(1 << 32);
    let i = i as usize;
    let attack = AttackConfig {
        attack_type: AttackType::ALL[i / 2 % AttackType::ALL.len()],
        strategy: StrategyKind::ALL[i / (2 * AttackType::ALL.len()) % StrategyKind::ALL.len()],
        value_mode: [ValueMode::Fixed, ValueMode::Strategic][i % 2],
        seed: d.below(1 << 32),
        ..AttackConfig::default()
    };
    let mut config = HarnessConfig::with_attack(scenario, seed, attack);
    if d.below(2) == 0 {
        config.driver = DriverConfig::inattentive();
    }
    config
}

/// FNV-1a-64 over the result's `Debug` rendering, which prints every
/// float in its shortest round-trip form.
fn digest(result: &SimResult) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Compares each result's digest with the golden file's line, or rewrites
/// the file under `REGEN_MIXED_GOLDEN`.
fn assert_matches_golden(path: &str, results: &[SimResult]) {
    let lines: String = results
        .iter()
        .enumerate()
        .map(|(i, r)| format!("{i:02} {:016x}\n", digest(r)))
        .collect();
    if std::env::var_os("REGEN_MIXED_GOLDEN").is_some() {
        std::fs::write(path, &lines).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("read golden");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want, "{path}: result drifted (index digest)");
    }
    assert_eq!(lines.lines().count(), golden.lines().count());
}

#[test]
fn mixed_lane_results_match_the_frozen_digests() {
    let results: Vec<SimResult> = (0..SAMPLE).map(|i| Harness::new(config(i)).run()).collect();
    assert_matches_golden(GOLDEN, &results);

    // The sample must exercise every stage it claims to mix.
    assert!(
        results.iter().any(|r| r.frames_rewritten > 0),
        "attack injected"
    );
    assert!(
        results.iter().any(|r| r.faults_injected > 0),
        "faults injected"
    );
    assert!(results.iter().any(|r| r.panda_blocked > 0), "Panda blocked");
    assert!(
        results.iter().any(|r| r.gate_rejections > 0),
        "gates rejected"
    );
    assert!(results.iter().any(|r| r.degraded_ticks > 0), "ladder moved");
}

#[test]
fn attacked_lane_results_match_the_frozen_digests() {
    let mut results = Vec::new();
    let mut dormant_unhalted = false;
    for i in 0..ATTACKED_SAMPLE {
        let mut h = Harness::new(attacked_config(i));
        while !h.finished() {
            h.step();
        }
        let att = h.attacker().expect("every lane is attacked");
        dormant_unhalted |=
            att.timeline().halted_at().is_none() && att.dormant(Tick::new(STEPS_PER_SIM - 1));
        results.push(h.result_so_far());
    }
    assert_matches_golden(ATTACKED_GOLDEN, &results);

    // The sample must reach every regime the harness skips work in.
    let configs: Vec<HarnessConfig> = (0..ATTACKED_SAMPLE).map(attacked_config).collect();
    assert!(
        configs.iter().any(|c| c.driver == DriverConfig::alert())
            && configs.iter().any(|c| c.driver == DriverConfig::inattentive()),
        "both driver kinds"
    );
    assert!(
        results.iter().any(|r| r.driver_engaged.is_some()),
        "a driver takes over"
    );
    assert!(results.iter().any(|r| r.accident.is_some()), "a collision");
    assert!(dormant_unhalted, "an attacker goes dormant before the last tick");
    assert!(
        results.iter().any(|r| r.frames_rewritten > 0),
        "attack injected"
    );
}

#[test]
fn unobserved_runs_leave_the_bus_untouched() {
    for i in (0..SAMPLE).step_by(3) {
        let mut h = Harness::new(config(i));
        while !h.finished() {
            h.step();
        }
        assert_eq!(h.bus().published_count(), 0, "config {i}");
    }
}

#[test]
fn observing_the_bus_leaves_results_unchanged() {
    let mixed = (1..SAMPLE).step_by(4).map(config);
    let attacked = (0..ATTACKED_SAMPLE).step_by(5).map(attacked_config);
    for (i, cfg) in mixed.chain(attacked).enumerate() {
        let mut h = Harness::new(cfg);
        let mut tap = h.bus().subscribe(&Topic::ALL);
        let mut seen = Vec::<Envelope>::new();
        let mut delivered = 0;
        while !h.finished() {
            h.step();
            delivered += tap.drain_into(&mut seen);
        }
        assert_eq!(h.result_so_far(), Harness::new(cfg).run(), "config {i}");
        assert!(delivered > 0, "config {i}: the subscriber saw traffic");
        assert_eq!(delivered as u64, h.bus().published_count());
    }
}
