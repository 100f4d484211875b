//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload in this process for `S` seconds and prints every
//! metric as `name value unit`, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones (set-up time,
//! throughput, job latency, peak memory); with `--trace 1` the same
//! workload runs instrumented and the metrics are per layer. Outputs are
//! checked after the timed section; any mismatch is counted in `failed`
//! and the exit code is 1. See README.md for the workloads and metrics.

mod campaigns;
mod measure;
mod service;
mod stages;

use std::process::ExitCode;

use campaigns::Campaign;

/// A named workload and the seed its golden digests are recorded at.
struct Workload {
    name: &'static str,
    default_seed: u64,
    campaign: Option<Campaign>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_attack",
        default_seed: 0x5AFE,
        campaign: Some(Campaign::Paper),
    },
    Workload {
        name: "resilience_faults",
        default_seed: 7,
        campaign: Some(Campaign::Resilience),
    },
    Workload {
        name: "defense_matrix",
        default_seed: 0xD3F3,
        campaign: Some(Campaign::Defense),
    },
    Workload {
        name: "service_jobs",
        default_seed: 0x5E41CE,
        campaign: None,
    },
];

const USAGE: &str =
    "usage: perf --workload paper_attack|resilience_faults|defense_matrix|service_jobs \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--campaignd") {
        return service::daemon_main(&argv[1..]);
    }
    // Size comes only from the workload and the worker count is every
    // core: the knobs the campaign runners read are cleared before any
    // thread starts.
    std::env::remove_var("REPRO_SCALE");
    std::env::remove_var("REPRO_WORKERS");
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = match w.campaign {
        Some(campaign) => campaigns::run(
            campaign,
            w.name,
            args.seed,
            w.default_seed,
            args.seconds,
            args.trace,
        ),
        None => service::run(w.name, args.seed, w.default_seed, args.seconds, args.trace),
    };
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        eprintln!("perf: FAILED: {failure}");
    }
    println!("{}", outcome.to_json());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_default() {
        let a = args("--workload service_jobs --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("service_jobs", 3, 2.5, true)
        );
        let a = args("--workload resilience_faults").unwrap();
        assert_eq!((a.seed, a.trace), (7, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload paper_attack --trace").is_err());
        assert!(args("--workload paper_attack --trace yes").is_err());
        assert!(args("--workload paper_attack --seconds 0").is_err());
    }
}
