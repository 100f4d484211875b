//! Measurement helpers shared by every workload: nearest-rank percentiles,
//! the host-speed probe, peak resident memory, result digests checked
//! against `golden.txt`, and the output format.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use platform::SimResult;
use units::Seconds;

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of all samples at or below it. `pct` is a whole percent so the
/// rank is exact integer arithmetic; 0 and empty input give `None`.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let rank = (pct.min(100) * samples.len()).div_ceil(100);
    if rank == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// Median (nearest-rank p50); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).unwrap_or(0.0)
}

/// The tail percentiles a timing may be reported at, highest first.
const TAILS: [usize; 4] = [99, 95, 90, 75];

/// The highest tail percentile that leaves at least ten of `n` samples
/// beyond its nearest rank — the tail a sample count can support. At 200
/// samples that is p95 (rank 190, ten beyond); at 199 it falls to p90.
pub fn supported_tail(n: usize) -> Option<usize> {
    TAILS
        .into_iter()
        .find(|&pct| n - (pct * n).div_ceil(100) >= 10)
}

/// Draws per thread in one host-speed probe.
const PROBE_DRAWS: u64 = 1_000_000;
/// Wall time of one probe on the reference host: the 2-vCPU machine of
/// README.md's baseline at the fastest its other tenants let it run.
const PROBE_REF_S: f64 = 0.027;

/// The probe's work: splitmix64 draws fed through `ln`, `sqrt` and `cos`,
/// the float mix of the simulation's sensor noise. It calls no code of the
/// repository, so no change to the program can move its time; only the
/// host can.
fn probe_work(seed: u64) -> f64 {
    let mut x = seed;
    let mut acc = 0.0_f64;
    for _ in 0..PROBE_DRAWS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1_u64 << 53) as f64;
        acc += (u + 1.0).ln().sqrt() * (u * std::f64::consts::TAU).cos();
    }
    acc
}

/// The host's speed now, as a share of the reference host's: the probe
/// run on every core at once, [`PROBE_REF_S`] over its wall time. Other
/// tenants of a shared host slow the guest by up to half for minutes at a
/// time, and the guest sees it nowhere else (it reports no steal time).
/// Call it between timed sections, while the workload is idle: a time
/// measured between two probes, times their mean speed, reads as the
/// time the reference host would take.
pub fn host_speed() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || black_box(probe_work(black_box(t as u64))));
        }
    });
    PROBE_REF_S / started.elapsed().as_secs_f64()
}

/// `values` to three decimals, comma-separated, for the run's stderr
/// summary.
pub fn list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| format!("{v:.3}")).collect();
    items.join(", ")
}

/// Parses `VmHWM` (peak resident set) in kB from a `/proc/<pid>/status`
/// document.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Peak resident memory of a process (`None`: this one) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn secs(t: Seconds) -> String {
    format!("{:016x}", t.secs().to_bits())
}

fn opt<T>(value: Option<T>, render: impl FnOnce(T) -> String) -> String {
    value.map_or_else(|| "-".to_string(), render)
}

/// One run rendered from `SimResult`'s public fields, in declaration
/// order: floats as their IEEE bit patterns (so NaN and -0.0 stay
/// distinct), `None` as `-`. Nothing machine-dependent enters the line.
pub fn canonical_line(r: &SimResult) -> String {
    let kinds: Vec<String> = r.hazard_kinds.iter().map(|k| format!("{k:?}")).collect();
    let mut line = String::with_capacity(320);
    let _ = write!(
        line,
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        r.seed,
        opt(r.first_hazard, |(t, k)| format!("{}:{k:?}", secs(t))),
        if kinds.is_empty() {
            "-".to_string()
        } else {
            kinds.join(",")
        },
        opt(r.accident, |(t, k)| format!("{}:{k:?}", secs(t))),
        r.alert_events,
        r.fcw_events,
        r.lane_invasions,
        secs(r.duration),
        opt(r.attack_activated, secs),
        opt(r.tth, secs),
        opt(r.driver_noticed, secs),
        opt(r.driver_engaged, secs),
        r.frames_rewritten,
        r.panda_blocked,
        opt(r.invariant_detected, secs),
        opt(r.monitor_detected, secs),
        r.degraded_ticks,
        r.failsafe_ticks,
        opt(r.first_degraded, secs),
        opt(r.first_failsafe, secs),
        opt(r.recovery_latency, secs),
        r.faults_injected,
        opt(r.ids_detected, secs),
        r.gate_rejections,
    );
    line
}

/// FNV-1a-64 over every run's canonical line, newline-terminated.
pub fn digest(results: &[SimResult]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for &b in canonical_line(r).as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The committed digests: `<workload> <seed> <key> <hex>` per line.
pub const GOLDEN: &str = include_str!("golden.txt");

/// Checks `actual` against the golden entry for `(workload, seed, key)`.
/// An entry that exists must match; at a workload's default seed the
/// entry must exist. Prints the digest to stderr so a regenerated golden
/// line can be copied from any run.
pub fn check_golden(
    golden: &str,
    workload: &str,
    seed: u64,
    default_seed: u64,
    key: &str,
    actual: u64,
) -> Result<(), String> {
    eprintln!("digest {workload} {seed} {key} {actual:016x}");
    let expected = golden.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload)
            && fields.next() == Some(seed.to_string().as_str())
            && fields.next() == Some(key);
        matches
            .then(|| {
                fields
                    .next()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            })
            .flatten()
    });
    match expected {
        Some(want) if want == actual => Ok(()),
        Some(want) => Err(format!(
            "{workload} seed {seed} {key}: digest {actual:016x}, golden {want:016x}"
        )),
        None if seed == default_seed => Err(format!(
            "{workload} seed {seed} {key}: no golden digest for the default seed"
        )),
        None => Ok(()),
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells for the campaigns, requests for the
    /// service.
    pub attempted: u64,
    /// Failures found by the correctness checks, one message each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// The machine-readable last line. Non-finite values (which JSON
    /// cannot carry) are written as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{Harness, HarnessConfig};

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Some(5.0));
        assert_eq!(percentile(&samples, 51), Some(6.0));
        assert_eq!(percentile(&samples, 100), Some(10.0));
        assert_eq!(percentile(&samples, 1), Some(1.0));
        assert_eq!(percentile(&samples, 0), None);
        assert_eq!(percentile(&[], 50), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95), Some(95.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), Some(99));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn host_speed_is_a_positive_share() {
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
        assert_eq!(list([0.5, 1.25]), "0.500, 1.250");
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status = "Name:\tperf\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kb("Name:\tperf\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn canonical_line_renders_none_and_nan_by_bits() {
        let cfg = HarnessConfig::no_attack(driving_sim::Scenario::matrix()[0], 1);
        let mut r = Harness::new(cfg).result_so_far();
        r.tth = None;
        r.recovery_latency = Some(Seconds::new(f64::NAN));
        let line = canonical_line(&r);
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 24);
        assert_eq!(fields[9], "-", "tth None");
        assert_eq!(fields[20], format!("{:016x}", f64::NAN.to_bits()));
        // Negative zero and zero differ, as bit patterns must.
        r.recovery_latency = Some(Seconds::new(-0.0));
        let neg = canonical_line(&r);
        r.recovery_latency = Some(Seconds::new(0.0));
        assert_ne!(neg, canonical_line(&r));
        assert_ne!(digest(&[r.clone()]), digest(&[r.clone(), r]));
    }

    #[test]
    fn golden_mismatch_is_a_failure() {
        let golden = "# comment\nresilience_faults 7 iteration 00000000000000ff\n";
        assert!(check_golden(golden, "resilience_faults", 7, 7, "iteration", 0xff).is_ok());
        // One flipped bit in the digest.
        let err = check_golden(golden, "resilience_faults", 7, 7, "iteration", 0xfe).unwrap_err();
        assert!(err.contains("golden 00000000000000ff"), "{err}");
        // The default seed must have an entry; other seeds need not.
        assert!(check_golden(golden, "resilience_faults", 7, 7, "other", 1).is_err());
        assert!(check_golden(golden, "resilience_faults", 8, 7, "iteration", 1).is_ok());
    }

    #[test]
    fn committed_golden_entries_parse() {
        for line in GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "{line}");
            assert!(fields[1].parse::<u64>().is_ok(), "{line}");
            assert!(u64::from_str_radix(fields[3], 16).is_ok(), "{line}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        out.metric("bad", f64::NAN, "s");
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        out.fail("x".to_string());
        assert!(out
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
