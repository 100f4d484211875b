//! The `service_jobs` workload: a `campaignd` daemon in its own process,
//! driven over HTTP by closed-loop clients.
//!
//! Two client threads each keep one job in flight and at most one
//! connection open: `POST /jobs`, then `GET /jobs/<id>/stream` to EOF,
//! then `GET /jobs/<id>/report`, then the next job. Jobs are small
//! Context-Aware attack campaigns cycling through the six attack types,
//! so the per-request costs of the service show next to the cells. A run
//! repeats *rounds* of the same jobs, as a campaign run repeats
//! iterations: every round does the same work, so rounds differ only by
//! what the host does to them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use attack_core::{AttackType, StrategyKind};
use campaignd::server::{DaemonConfig, Server};
use campaignd::spec::{CellSpec, ChaosKnobs, JobKind, JobSpec};
use platform::experiment::mix_seed;
use platform::SimResult;

use crate::campaigns::{self, Cell, Iteration};
use crate::measure::{self, median, percentile, Outcome};

/// Closed-loop clients, each with one job in flight: one per core of the
/// two-core reference machine.
const CLIENTS: usize = 2;
/// Repetitions per scenario cell of each job (24 cells).
const JOB_REPS: u32 = 2;
/// Jobs per round: each attack type twice (288 cells).
const ROUND_JOBS: usize = 12;
/// Rounds a run makes even when they outlast the measured time.
const MIN_ROUNDS: usize = 3;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// `/healthz` probes timed before the load under `--trace 1`.
const HEALTH_PROBES: usize = 50;
/// Daemon state directories live here, relative to the working directory.
const STATE_ROOT: &str = ".perf-state";

/// Service metrics the campaign workloads report as 0: no daemon runs.
const SERVICE_METRICS: [(&str, &str); 14] = [
    ("campaignd.healthz_p50_ms", "ms"),
    ("campaignd.submit_p50_ms", "ms"),
    ("campaignd.submit_p95_ms", "ms"),
    ("campaignd.wait_p50_ms", "ms"),
    ("campaignd.wait_p95_ms", "ms"),
    ("campaignd.report_fetch_p50_ms", "ms"),
    ("campaignd.report_fetch_p95_ms", "ms"),
    ("campaignd.job_latency_p95_s", "s"),
    ("campaignd.inprocess_ratio", "ratio"),
    ("campaignd.cell_mean_ms", "ms"),
    ("campaignd.retries", "count"),
    ("campaignd.shed", "count"),
    ("campaignd.quarantined", "count"),
    ("campaignd.report_polls", "count"),
];

pub fn push_idle_service_metrics(out: &mut Outcome) {
    for (name, unit) in SERVICE_METRICS {
        out.metric(name, 0.0, unit);
    }
}

/// Serves as the daemon: `perf --campaignd --state-dir DIR`, the
/// `campaignd` binary's default configuration on an ephemeral port.
pub fn daemon_main(argv: &[String]) -> ExitCode {
    let Some(state_dir) = argv
        .windows(2)
        .find(|w| w[0] == "--state-dir")
        .map(|w| PathBuf::from(&w[1]))
    else {
        eprintln!("perf --campaignd: --state-dir DIR is required");
        return ExitCode::FAILURE;
    };
    let cfg = DaemonConfig {
        state_dir,
        ..DaemonConfig::default()
    };
    let server = match Server::bind("127.0.0.1:0", cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perf --campaignd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("perf --campaignd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = io::stdout();
    let _ = writeln!(stdout, "campaignd listening on {addr}");
    let _ = stdout.flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf --campaignd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response: the head, then exactly `Content-Length` body
/// bytes, or everything up to EOF when the head carries no length (the
/// NDJSON event streams).
pub fn read_response<R: Read>(reader: &mut R) -> io::Result<Response> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return Err(invalid("response head too long"));
        }
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let length = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())
            .flatten()
    });
    let mut body = buf.split_off(head_end);
    match length {
        Some(len) => {
            while body.len() < len {
                let n = reader.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    Ok(Response { status, body })
}

/// One request on a fresh connection, closed once the response is read.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    read_response(&mut stream)
}

/// The raw token after `"key": ` in a flat JSON document.
fn json_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let rest = &doc[doc.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn json_u64(doc: &str, key: &str) -> Option<u64> {
    json_field(doc, key).and_then(|v| v.parse().ok())
}

/// A daemon process; dropping it stops the process and removes its state.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    state_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh state directory and waits until
    /// `/healthz` answers 200.
    fn start(state_dir: PathBuf) -> io::Result<Self> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let child = Command::new(std::env::current_exe()?)
            .arg("--campaignd")
            .arg("--state-dir")
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        // From here on `Drop` stops the child on every error path.
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            state_dir,
        };
        let mut line = String::new();
        if let Some(stdout) = daemon.child.stdout.take() {
            BufReader::new(stdout).read_line(&mut line)?;
        }
        daemon.addr = line
            .trim()
            .strip_prefix("campaignd listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(r) = request(daemon.addr, "GET", "/healthz", b"") {
                if r.status == 200 {
                    return Ok(daemon);
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to exit.
    fn shutdown(mut self) {
        let _ = request(self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// The `i`-th job of every round: attack types in turn, seeds derived
/// from the workload seed.
fn job_spec(seed: u64, i: usize) -> JobSpec {
    JobSpec {
        kind: JobKind::Attack {
            strategy: StrategyKind::ContextAware,
            attack: AttackType::ALL[i % AttackType::ALL.len()],
        },
        base_seed: mix_seed(seed, &[i as u64]),
        reps: JOB_REPS,
        chaos: ChaosKnobs::default(),
    }
}

/// What one client saw of one job.
struct JobSample {
    index: usize,
    sent: Instant,
    done: Instant,
    submit_s: f64,
    wait_s: f64,
    report_s: f64,
    report_polls: u64,
    report: String,
}

fn run_job(addr: SocketAddr, seed: u64, index: usize) -> Result<JobSample, String> {
    let io_err = |what: &'static str| move |e: io::Error| format!("job {index}: {what}: {e}");
    let sent = Instant::now();
    let posted = request(
        addr,
        "POST",
        "/jobs",
        job_spec(seed, index).canonical().as_bytes(),
    )
    .map_err(io_err("POST /jobs"))?;
    let accepted = Instant::now();
    let text = posted.text();
    if posted.status != 202 {
        return Err(format!(
            "job {index}: POST /jobs answered {}: {text}",
            posted.status
        ));
    }
    let id = json_field(&text, "id").ok_or(format!("job {index}: no id in {text}"))?;

    let stream =
        request(addr, "GET", &format!("/jobs/{id}/stream"), b"").map_err(io_err("GET stream"))?;
    let streamed = Instant::now();
    let events = stream.text();
    let last = events
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if stream.status != 200 || !last.contains("\"status\": \"completed\"") {
        return Err(format!("job {index}: stream ended with {last:?}"));
    }

    // The stream closes when the job finishes, a moment before the
    // supervisor publishes the report: poll while the daemon says 409.
    let mut report_polls = 0;
    let report = loop {
        let r = request(addr, "GET", &format!("/jobs/{id}/report"), b"")
            .map_err(io_err("GET report"))?;
        match r.status {
            200 => break r.text(),
            409 if streamed.elapsed() < Duration::from_secs(10) => {
                report_polls += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            status => return Err(format!("job {index}: report answered {status}")),
        }
    };
    let done = Instant::now();
    Ok(JobSample {
        index,
        sent,
        done,
        submit_s: accepted.duration_since(sent).as_secs_f64(),
        wait_s: streamed.duration_since(accepted).as_secs_f64(),
        report_s: done.duration_since(streamed).as_secs_f64(),
        report_polls,
        report,
    })
}

/// One round: the [`ROUND_JOBS`] jobs, taken in turn by the clients.
struct Round {
    /// One sample per job, in job order.
    jobs: Vec<JobSample>,
    /// From the first `POST` to the last report.
    wall_s: f64,
    /// The host's speed over the round (see [`measure::host_speed`]).
    speed: f64,
}

/// Runs one round with [`CLIENTS`] closed-loop clients: its samples in
/// job order and its wall time, or the failures when any job failed.
fn run_round(addr: SocketAddr, seed: u64) -> Result<(Vec<JobSample>, f64), Vec<String>> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(ROUND_JOBS));
    let failures = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= ROUND_JOBS {
                    break;
                }
                // Lock poisoning policy: the guarded vectors are only
                // pushed to, so a poisoned guard still holds valid data.
                match run_job(addr, seed, index) {
                    Ok(sample) => samples
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(sample),
                    Err(e) => {
                        failures
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(e);
                        break;
                    }
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let failures = failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut jobs = samples
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    jobs.sort_by_key(|s| s.index);
    Ok((jobs, wall_s))
}

/// Runs rounds until `seconds` have passed, at least [`MIN_ROUNDS`],
/// probing the host's speed between them while the daemon is idle; stops
/// at the first round with a failed job.
fn drive(addr: SocketAddr, seed: u64, seconds: f64) -> (Vec<Round>, Vec<String>) {
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut speed_before = measure::host_speed();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let (jobs, wall_s) = match run_round(addr, seed) {
            Ok(round) => round,
            Err(failures) => return (rounds, failures),
        };
        let speed_after = measure::host_speed();
        rounds.push(Round {
            jobs,
            wall_s,
            speed: (speed_before + speed_after) / 2.0,
        });
        speed_before = speed_after;
    }
    (rounds, Vec::new())
}

/// A round's job as recomputed in process.
struct CheckedJob {
    index: usize,
    results: Vec<SimResult>,
    report: String,
}

/// Recomputes a round's jobs in process: their cells fanned out in one
/// campaign-style iteration (returned with its planned cells), each
/// report rendered by the same `JobSpec` the daemon uses.
fn recompute(seed: u64, time_cells: bool) -> (Iteration, Vec<Cell>, Vec<CheckedJob>) {
    let started = Instant::now();
    let specs: Vec<JobSpec> = (0..ROUND_JOBS).map(|i| job_spec(seed, i)).collect();
    let plans: Vec<Vec<CellSpec>> = specs.iter().map(JobSpec::plan).collect();
    let cells: Vec<Cell> = plans
        .iter()
        .flatten()
        .map(|c| match *c {
            CellSpec::Attack(s) => Cell::Run(s),
            CellSpec::Resilience(s) => Cell::Resilience(s),
        })
        .collect();
    let plan_s = started.elapsed().as_secs_f64();
    let workers = platform::experiment::RunnerConfig::default().worker_count(cells.len());
    let (results, cell_s, fanout_s) = campaigns::fan_out(cells.clone(), time_cells);
    let rendered = Instant::now();
    let mut rest = results.as_slice();
    let mut jobs = Vec::with_capacity(specs.len());
    for (index, (spec, plan)) in specs.iter().zip(&plans).enumerate() {
        let (rs, tail) = rest.split_at(plan.len());
        rest = tail;
        jobs.push(CheckedJob {
            index,
            results: rs.to_vec(),
            report: spec.report(rs),
        });
    }
    let render_s = rendered.elapsed().as_secs_f64();
    let iteration = Iteration {
        results,
        wall_s: started.elapsed().as_secs_f64(),
        plan_s,
        fanout_s,
        render_s,
        workers,
        cell_s,
    };
    (iteration, cells, jobs)
}

/// The counts a job report states, recomputed from results.
fn report_counts(results: &[SimResult]) -> [u64; 4] {
    [
        results.len() as u64,
        results.iter().filter(|r| r.hazardous()).count() as u64,
        results.iter().filter(|r| r.accident.is_some()).count() as u64,
        results.iter().filter(|r| r.hazard_without_alert()).count() as u64,
    ]
}

const COUNT_FIELDS: [&str; 4] = [
    "total_runs",
    "hazardous_runs",
    "accident_runs",
    "hazard_no_alert_runs",
];

pub fn run(name: &str, seed: u64, default_seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let state_root = PathBuf::from(STATE_ROOT);
    let mut setup = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        match Daemon::start(state_root.join(format!("{}-{k}", std::process::id()))) {
            Ok(d) => {
                setup.push(started.elapsed().as_secs_f64());
                daemon = Some(d);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("daemon start: {e}"));
                return out;
            }
        }
    }
    let Some(daemon) = daemon else {
        return out;
    };

    let mut healthz = Vec::new();
    if trace {
        for _ in 0..HEALTH_PROBES {
            let started = Instant::now();
            match request(daemon.addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => healthz.push(started.elapsed().as_secs_f64()),
                other => out.fail(format!("healthz probe: {other:?}")),
            }
        }
    }

    let started = Instant::now();
    let (rounds, failures) = drive(daemon.addr, seed, seconds);
    let measured_s = started.elapsed().as_secs_f64();
    let stats = request(daemon.addr, "GET", "/stats", b"").map(|r| r.text());
    let daemon_rss = measure::peak_rss_mb(Some(daemon.child.id()));
    daemon.shutdown();
    let _ = std::fs::remove_dir(&state_root);

    let samples: Vec<&JobSample> = rounds.iter().flat_map(|r| &r.jobs).collect();
    out.attempted += 3 * (samples.len() + failures.len()) as u64;
    for e in failures {
        out.fail(e);
    }
    let stats = stats.unwrap_or_else(|e| {
        out.fail(format!("GET /stats: {e}"));
        String::new()
    });

    // Correctness: round 0's reports equal the in-process reports byte
    // for byte and state the recomputed counts, and every later round's
    // equal round 0's; job 0 also matches its golden digest, and sampled
    // cells a single-worker replay.
    let (iteration, cells, jobs) = recompute(seed, trace);
    match rounds.first() {
        Some(first) => {
            for (job, got) in jobs.iter().zip(&first.jobs) {
                out.attempted += 1;
                let report = got.report.as_str();
                let stated: Vec<Option<u64>> =
                    COUNT_FIELDS.iter().map(|k| json_u64(report, k)).collect();
                let counts: Vec<Option<u64>> = report_counts(&job.results).map(Some).to_vec();
                if report != job.report || stated != counts {
                    out.fail(format!(
                        "job {}: report differs from the in-process recomputation",
                        job.index
                    ));
                }
            }
            for (r, round) in rounds.iter().enumerate().skip(1) {
                for (got, want) in round.jobs.iter().zip(&first.jobs) {
                    if got.report != want.report {
                        out.fail(format!(
                            "round {r} job {}: report differs from round 0",
                            got.index
                        ));
                    }
                }
            }
        }
        None => out.fail("no round completed".to_string()),
    }
    let digest = measure::digest(&jobs[0].results);
    if let Err(e) = measure::check_golden(measure::GOLDEN, name, seed, default_seed, "job-0", digest)
    {
        out.fail(e);
    }
    let traced = campaigns::check_sample(&mut out, &cells, &iteration.results, trace);

    let round_cells = cells.len();
    let raw_walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let of = |f: fn(&JobSample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let totals = of(|s| s.done.duration_since(s.sent).as_secs_f64());
    let tail =
        measure::supported_tail(samples.len()).map_or("none".to_string(), |p| format!("p{p}"));
    eprintln!(
        "{name}: {} rounds of {ROUND_JOBS} jobs ({round_cells} cells) in {measured_s:.1} s, \
walls [{}] s at host speeds [{}]; highest latency tail the sample supports: {tail}",
        rounds.len(),
        measure::list(raw_walls.iter().copied()),
        measure::list(rounds.iter().map(|r| r.speed)),
    );

    match traced {
        Some(t) => {
            let ms = |s: f64| s * 1e3;
            let p95 = |v: &[f64]| percentile(v, 95).unwrap_or(0.0);
            let (submit, wait, fetch) = (of(|s| s.submit_s), of(|s| s.wait_s), of(|s| s.report_s));
            campaigns::push_sample_metrics(&mut out, &t);
            campaigns::push_pool_metrics(&mut out, std::slice::from_ref(&iteration));
            let inprocess_rate = iteration.results.len() as f64 / iteration.fanout_s;
            let stat = |key: &str| json_u64(&stats, key).unwrap_or(0) as f64;
            let cell_mean_s = stats
                .find("\"cell_seconds\"")
                .and_then(|at| json_field(&stats[at..], "mean"))
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0);
            let values = [
                ms(median(&healthz)),
                ms(median(&submit)),
                ms(p95(&submit)),
                ms(median(&wait)),
                ms(p95(&wait)),
                ms(median(&fetch)),
                ms(p95(&fetch)),
                p95(&totals),
                inprocess_rate * median(&raw_walls) / round_cells as f64,
                ms(cell_mean_s),
                stat("retries"),
                stat("shed"),
                stat("quarantined"),
                samples.iter().map(|s| s.report_polls).sum::<u64>() as f64,
            ];
            for ((name, unit), value) in SERVICE_METRICS.into_iter().zip(values) {
                out.metric(name, value, unit);
            }
        }
        None => {
            // Round walls and job latencies are read at the reference
            // host's speed over their round, as the campaigns' times are.
            // The daemon's start-up is mostly its 10 ms accept poll, a
            // sleep the host's speed does not scale, so it is not.
            let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s * r.speed).collect();
            let latencies: Vec<f64> = rounds
                .iter()
                .flat_map(|r| {
                    r.jobs
                        .iter()
                        .map(|s| s.done.duration_since(s.sent).as_secs_f64() * r.speed)
                })
                .collect();
            out.metric("setup_s", median(&setup), "s");
            out.metric("sims_per_s", round_cells as f64 / median(&walls), "sims/s");
            out.metric("job_latency_p50_s", median(&latencies), "s");
            out.metric("peak_rss_mb", daemon_rss.unwrap_or(0.0), "MB");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Hands out one byte per `read`, like a slow socket.
    struct Trickle<R>(R);

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn content_length_frames_the_body() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\ncontent-length: 5\r\n\r\nhelloNEXT";
        let r = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (202, &b"hello"[..]));
        let r = read_response(&mut Trickle(Cursor::new(&raw[..]))).unwrap();
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn no_length_reads_to_eof() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n{\"a\": 1}\n{\"b\": 2}\n";
        let r = read_response(&mut Trickle(Cursor::new(&raw[..]))).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"a\": 1}\n{\"b\": 2}\n");
    }

    #[test]
    fn short_bodies_and_heads_are_errors() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        let err = read_response(&mut Cursor::new(&short[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let headless = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n";
        assert!(read_response(&mut Cursor::new(&headless[..])).is_err());
        assert!(read_response(&mut Cursor::new(&b"garbage\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn json_fields_from_daemon_bodies() {
        let accepted = "{\"id\": \"job-0003-0a1b2c3d\", \"cells_total\": 24, \"queue_depth\": 1}";
        assert_eq!(json_field(accepted, "id"), Some("job-0003-0a1b2c3d"));
        assert_eq!(json_u64(accepted, "cells_total"), Some(24));
        assert_eq!(json_u64(accepted, "queue_depth"), Some(1));
        assert_eq!(json_u64(accepted, "missing"), None);
    }

    #[test]
    fn job_specs_cycle_attacks_and_round_trip() {
        let a = job_spec(9, 0);
        let b = job_spec(9, AttackType::ALL.len());
        assert_eq!(a.kind, b.kind);
        assert_ne!(a.base_seed, b.base_seed);
        assert_eq!(a.plan().len(), 24);
        let obj = campaignd::wire::parse_object(a.canonical().as_bytes()).unwrap();
        assert_eq!(JobSpec::from_object(&obj).unwrap(), a);
    }
}
