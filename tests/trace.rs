//! Flight-recorder integration tests: non-perturbation, per-topic counts,
//! campaign determinism/pairing, golden CSV, and panic-message trace tails.

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::{Scenario, ScenarioId};
use msgbus::Topic;
use platform::experiment::{
    mix_seed, plan_attack_campaign, run_campaign_cells, CampaignConfig, RunSpec, RunnerConfig,
};
use platform::trace::{to_csv, CampaignMetrics};
use platform::{trace_assert, Harness, HarnessConfig, TraceConfig};
use units::Distance;

fn scenario() -> Scenario {
    Scenario::new(ScenarioId::S2, Distance::meters(70.0))
}

/// The recorder must be a pure observer: a run with tracing on is
/// bit-identical to the same run with tracing off (it consumes no RNG and
/// publishes nothing on the bus).
#[test]
fn recorder_does_not_perturb_the_run() {
    let attack = AttackConfig {
        attack_type: AttackType::DecelerationSteering,
        strategy: StrategyKind::ContextAware,
        value_mode: ValueMode::Strategic,
        seed: 9,
        ..AttackConfig::default()
    };
    let cfg = HarnessConfig::with_attack(scenario(), 9, attack);
    let plain = Harness::new(cfg).run();
    let (traced, recorder) = Harness::new(cfg.traced(TraceConfig::enabled(128))).run_traced();
    assert_eq!(plain, traced, "tracing must not change the simulation");
    let rec = recorder.expect("tracing was enabled");
    assert_eq!(rec.metrics().ticks, units::STEPS_PER_SIM);
    assert_eq!(rec.ring().len(), 128, "ring stays bounded");
}

/// The recorder's per-topic bus counters agree with what an actual bus
/// subscriber sees: every topic publishes exactly once per cycle, so after
/// 100 ticks each counter reads 100 and the total reads 600 (mirroring
/// `bus_carries_all_topics_every_cycle` in tests/pipeline.rs).
#[test]
fn recorder_per_topic_counts_match_the_bus() {
    let mut h =
        Harness::new(HarnessConfig::no_attack(scenario(), 4).traced(TraceConfig::enabled(128)));
    let mut sub = h.bus().subscribe(&Topic::ALL);
    for _ in 0..100 {
        h.step();
    }
    let msgs = sub.drain();
    let rec = h.recorder().expect("tracing enabled");
    let last = rec.ring().last().expect("100 records");
    assert_eq!(last.bus_published, [100; Topic::COUNT]);
    assert_eq!(last.bus_published_total(), 600);
    assert_eq!(msgs.len() as u64, last.bus_published_total());
    for topic in Topic::ALL {
        assert_eq!(
            msgs.iter().filter(|m| m.topic() == topic).count() as u64,
            last.bus_published[topic.index()],
            "{topic} counter matches subscriber"
        );
    }
}

/// Paired campaigns (alert vs. inattentive driver) must share world seeds so
/// per-run outcomes are comparable pairwise — the construction Observation 4
/// relies on.
#[test]
fn paired_campaigns_share_world_seeds() {
    let mut cfg = CampaignConfig::smoke(StrategyKind::ContextAware, 2);
    cfg.value_mode = ValueMode::Fixed;
    let alert = plan_attack_campaign(&cfg, AttackType::Deceleration);
    let mut inattentive = alert.clone();
    for s in &mut inattentive {
        s.driver = DriverConfig::inattentive();
    }
    assert_eq!(alert.len(), inattentive.len());
    for (a, b) in alert.iter().zip(&inattentive) {
        assert_eq!(a.seed, b.seed, "world seeds must pair up");
        assert_eq!(
            a.attack.map(|x| x.seed),
            b.attack.map(|x| x.seed),
            "attack seeds must pair up"
        );
        assert_eq!(a.scenario, b.scenario);
    }
}

/// `mix_seed` is part of the reproducibility contract: these constants pin
/// the exact splitmix64 chain so a refactor cannot silently re-seed every
/// published campaign.
#[test]
fn mix_seed_golden_constants() {
    assert_eq!(mix_seed(0, &[0]), GOLDEN_MIX_0_0);
    assert_eq!(mix_seed(0x5AFE, &[0, 0, 0, 0]), GOLDEN_MIX_5AFE);
    assert_eq!(mix_seed(1, &[2, 3]), GOLDEN_MIX_1_2_3);
}

const GOLDEN_MIX_0_0: u64 = 16294208416658607535;
const GOLDEN_MIX_5AFE: u64 = 14808799381432573625;
const GOLDEN_MIX_1_2_3: u64 = 652428288534806038;

/// The traced campaign runner aggregates exactly one `RunMetrics` per run
/// and matches the untraced runner's results (order included).
#[test]
fn traced_campaign_aggregates_and_matches_untraced() {
    let cfg = CampaignConfig::smoke(StrategyKind::ContextAware, 1);
    let specs: Vec<_> = plan_attack_campaign(&cfg, AttackType::Acceleration)
        .into_iter()
        .take(4)
        .collect();
    let untraced = run_campaign_cells(RunnerConfig::default(), specs.clone(), RunSpec::run);
    // Each run's ring is dropped once its metrics are folded in; only the
    // aggregate survives.
    let runs = run_campaign_cells(RunnerConfig::default(), specs, |s: &RunSpec| {
        s.run_traced(TraceConfig::enabled(32))
    });
    let mut campaign = CampaignMetrics::default();
    let mut traced = Vec::with_capacity(runs.len());
    for (result, recorder) in runs {
        let rec = recorder.expect("a traced run returns its recorder");
        campaign.absorb_run(rec.metrics(), &result);
        traced.push(result);
    }
    assert_eq!(
        untraced, traced,
        "recorder is invisible to campaign results"
    );
    assert_eq!(campaign.runs, 4);
    assert_eq!(campaign.totals.ticks, 4 * units::STEPS_PER_SIM);
    assert_eq!(
        campaign.hazardous_runs,
        traced.iter().filter(|r| r.hazardous()).count() as u64
    );
    assert!(
        campaign.totals.bus_published.iter().sum::<u64>() > 0,
        "bus totals aggregated"
    );
}

/// A failing `trace_assert!` must attach the last trace ticks to the panic
/// message — the whole point of the flight recorder for test diagnosis.
#[test]
fn failing_trace_assert_attaches_trace_tail() {
    let result = std::panic::catch_unwind(|| {
        let mut h =
            Harness::new(HarnessConfig::no_attack(scenario(), 7).traced(TraceConfig::enabled(16)));
        for _ in 0..50 {
            h.step();
        }
        trace_assert!(h, false, "deliberate failure for the diagnostics test");
    });
    let err = result.expect_err("the assert must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(
        msg.contains("deliberate failure"),
        "carries the caller's message: {msg}"
    );
    assert!(
        msg.contains("last trace ticks"),
        "carries the trace header: {msg}"
    );
    assert!(msg.contains("tick"), "carries the table: {msg}");
    // The newest retained tick (49) must appear in the table.
    assert!(msg.contains("    49"), "shows the final tick: {msg}");
}

/// Golden-file check: the CSV export of the first 10 ticks of an attack-free
/// S2 run is byte-stable. Regenerate with
/// `REGEN_TRACE_GOLDEN=1 cargo test --test trace golden_csv`.
#[test]
fn golden_csv_for_a_short_s2_run() {
    let mut h =
        Harness::new(HarnessConfig::no_attack(scenario(), 4).traced(TraceConfig::enabled(16)));
    for _ in 0..10 {
        h.step();
    }
    let csv = to_csv(h.recorder().expect("tracing enabled").ring().iter());
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/s2_seed4_first10.csv"
            ),
            &csv,
        )
        .expect("write golden");
        return;
    }
    let golden = include_str!("golden/s2_seed4_first10.csv");
    assert_eq!(
        csv, golden,
        "trace CSV drifted; regenerate with REGEN_TRACE_GOLDEN=1 if intended"
    );
}
