//! Flight-recorder CLI: replay a seeded run with the recorder attached and
//! dump its trace — or diff two runs to find where they diverge.
//!
//! ```text
//! cargo run --release --bin trace -- --scenario S2 --gap 100 --seed 3 \
//!     --attack steer-right --mode fixed --last 20 --csv /tmp/run.csv
//! cargo run --release --bin trace -- --scenario S1 --gap 70 --seed 5 \
//!     --attack accel --diff-seed 6
//! ```

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driver_model::DriverConfig;
use driving_sim::{Scenario, ScenarioId};
use platform::trace::{diff, to_csv, to_json, TraceConfig, TraceRecorder};
use platform::{Harness, HarnessConfig, SimResult};
use units::Distance;

struct Args {
    scenario: ScenarioId,
    gap: f64,
    seed: u64,
    attack: Option<AttackType>,
    strategy: StrategyKind,
    mode: ValueMode,
    driver: DriverConfig,
    panda: bool,
    last: usize,
    csv: Option<String>,
    json: Option<String>,
    diff_seed: Option<u64>,
}

const USAGE: &str = "usage: trace [options]
  --scenario S1|S2|S3|S4   lead behaviour (default S1)
  --gap METERS             initial gap (default 70)
  --seed N                 world/sensor seed (default 0)
  --attack KIND            accel|decel|steer-left|steer-right|
                           accel-steer|decel-steer|none (default none)
  --strategy KIND          context-aware|random-st|random-dur|random-st-dur
                           (default context-aware)
  --mode fixed|strategic   value-corruption mode (default strategic)
  --driver alert|inattentive   simulated driver (default alert)
  --panda                  enable Panda firmware checks
  --last N                 trace-tail rows to print (default 15)
  --csv PATH               write the full trace as CSV
  --json PATH              write the full trace as JSON
  --diff-seed M            run again with seed M and report the divergence";

fn fail(msg: &str) -> ! {
    eprintln!("trace: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: ScenarioId::S1,
        gap: 70.0,
        seed: 0,
        attack: None,
        strategy: StrategyKind::ContextAware,
        mode: ValueMode::Strategic,
        driver: DriverConfig::alert(),
        panda: false,
        last: 15,
        csv: None,
        json: None,
        diff_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--scenario" => {
                args.scenario = match value("--scenario").as_str() {
                    "S1" | "s1" => ScenarioId::S1,
                    "S2" | "s2" => ScenarioId::S2,
                    "S3" | "s3" => ScenarioId::S3,
                    "S4" | "s4" => ScenarioId::S4,
                    other => fail(&format!("unknown scenario {other:?}")),
                }
            }
            "--gap" => {
                args.gap = value("--gap")
                    .parse()
                    .unwrap_or_else(|_| fail("--gap needs a number"))
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"))
            }
            "--attack" => {
                args.attack = match value("--attack").as_str() {
                    "none" => None,
                    "accel" => Some(AttackType::Acceleration),
                    "decel" => Some(AttackType::Deceleration),
                    "steer-left" => Some(AttackType::SteeringLeft),
                    "steer-right" => Some(AttackType::SteeringRight),
                    "accel-steer" => Some(AttackType::AccelerationSteering),
                    "decel-steer" => Some(AttackType::DecelerationSteering),
                    other => fail(&format!("unknown attack {other:?}")),
                }
            }
            "--strategy" => {
                args.strategy = match value("--strategy").as_str() {
                    "context-aware" => StrategyKind::ContextAware,
                    "random-st" => StrategyKind::RandomSt,
                    "random-dur" => StrategyKind::RandomDur,
                    "random-st-dur" => StrategyKind::RandomStDur,
                    other => fail(&format!("unknown strategy {other:?}")),
                }
            }
            "--mode" => {
                args.mode = match value("--mode").as_str() {
                    "fixed" => ValueMode::Fixed,
                    "strategic" => ValueMode::Strategic,
                    other => fail(&format!("unknown mode {other:?}")),
                }
            }
            "--driver" => {
                args.driver = match value("--driver").as_str() {
                    "alert" => DriverConfig::alert(),
                    "inattentive" => DriverConfig::inattentive(),
                    other => fail(&format!("unknown driver {other:?}")),
                }
            }
            "--panda" => args.panda = true,
            "--last" => {
                args.last = value("--last")
                    .parse()
                    .unwrap_or_else(|_| fail("--last needs an integer"))
            }
            "--csv" => args.csv = Some(value("--csv")),
            "--json" => args.json = Some(value("--json")),
            "--diff-seed" => {
                args.diff_seed = Some(
                    value("--diff-seed")
                        .parse()
                        .unwrap_or_else(|_| fail("--diff-seed needs an integer")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn config_for(args: &Args, seed: u64) -> HarnessConfig {
    let scenario = Scenario::new(args.scenario, Distance::meters(args.gap));
    let mut cfg = match args.attack {
        Some(attack_type) => HarnessConfig::with_attack(
            scenario,
            seed,
            AttackConfig {
                attack_type,
                strategy: args.strategy,
                value_mode: args.mode,
                ..AttackConfig::default()
            },
        ),
        None => HarnessConfig::no_attack(scenario, seed),
    };
    cfg.driver = args.driver;
    cfg.panda_enabled = args.panda;
    cfg.traced(TraceConfig::full_run())
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("trace: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn replay(args: &Args, seed: u64) -> (SimResult, TraceRecorder) {
    let (result, recorder) = Harness::new(config_for(args, seed)).run_traced();
    (
        result,
        recorder.expect("tracing is always on in this binary"),
    )
}

fn opt_time(t: Option<units::Seconds>) -> String {
    t.map_or("-".to_string(), |s| format!("{:.2}s", s.secs()))
}

fn print_summary(args: &Args, seed: u64, result: &SimResult, rec: &TraceRecorder) {
    println!(
        "run: scenario {} gap {:.0} m seed {} attack {}",
        args.scenario.label(),
        args.gap,
        seed,
        args.attack.map_or("none", AttackType::label),
    );
    println!(
        "outcome: hazards {:?}  accident {}  alerts {}  attack t_a {}  driver t_d {} t_ex {}",
        result.hazard_kinds,
        result
            .accident
            .map_or("-".to_string(), |(t, k)| format!("{k:?}@{:.2}s", t.secs())),
        result.alert_events,
        opt_time(result.attack_activated),
        opt_time(result.driver_noticed),
        opt_time(result.driver_engaged),
    );
    let m = rec.metrics();
    println!(
        "metrics: {} ticks  bus {:?}  rewritten {}  panda-blocked {}  attack-active {}  driver-engaged {}",
        m.ticks,
        m.bus_published,
        m.frames_rewritten,
        m.panda_blocked,
        m.attack_active_ticks,
        m.driver_engaged_ticks,
    );
    println!(
        "distributions: hwt mean {:.2}s {}  accel mean {:+.2} {}  lane-offset mean {:+.2} m {}",
        m.headway.mean(),
        m.headway.sparkline(),
        m.applied_accel.mean(),
        m.applied_accel.sparkline(),
        m.lane_offset.mean(),
        m.lane_offset.sparkline(),
    );
    if rec.events().is_empty() {
        println!("events: none");
    } else {
        println!("events:");
        for e in rec.events() {
            println!("  {e}");
        }
    }
    println!("last {} ticks:\n{}", args.last, rec.tail_table(args.last));
}

fn main() {
    let args = parse_args();
    let (result, rec) = replay(&args, args.seed);
    print_summary(&args, args.seed, &result, &rec);

    if let Some(path) = &args.csv {
        write_or_die(path, &to_csv(rec.ring().iter()));
        println!("wrote {} ticks of CSV to {path}", rec.ring().len());
    }
    if let Some(path) = &args.json {
        write_or_die(path, &to_json(rec.ring().iter()));
        println!("wrote {} ticks of JSON to {path}", rec.ring().len());
    }

    if let Some(other_seed) = args.diff_seed {
        println!("\n=== diff against seed {other_seed} ===");
        let (other_result, other_rec) = replay(&args, other_seed);
        print_summary(&args, other_seed, &other_result, &other_rec);
        let d = diff(rec.ring().iter(), other_rec.ring().iter());
        println!("{d}");
    }
}
