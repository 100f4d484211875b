//! The daemon: bounded job queue, hardened connection handling, routing,
//! and the supervisor loop that drains the queue through [`crate::supervisor`].
//!
//! Threading model — deliberately boring:
//!
//! * one accept loop ([`accept_loop`]) polling a non-blocking listener so
//!   drain can interrupt it without a self-connection trick;
//! * one connection thread per client, capped at
//!   [`DaemonConfig::max_connections`] (over the cap → immediate 503),
//!   each with read/write timeouts and a per-request wall-clock budget so
//!   a Slowloris peer costs one bounded thread, never the daemon;
//! * one supervisor loop ([`supervisor_loop`]) running queued jobs
//!   sequentially — the *cells* of a job are the parallelism, fanned out
//!   over the platform worker pool, so a second concurrent job would only
//!   fight the first for the same cores.
//!
//! Lock discipline: every lock here (`queue`, `jobs`, `manifest`, and the
//! supervisor's WAL/event locks) is acquired alone — taken, used, dropped
//! before the next — so the lock-order graph stays edge-free by
//! construction (adas-lint R12 audits this).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::{fnv64, load_manifest, load_wal, wal_path, Manifest};
use crate::http::{parse_request, response, stream_head, Parse, Request};
use crate::spec::JobSpec;
use crate::supervisor::{run_job, DaemonStats, Event, JobOutcome, JobProgress, SupervisorConfig};
use crate::wire::{escape, parse_object};

/// Daemon-level configuration (the CLI flags, resolved).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Durable state directory (manifest + WALs).
    pub state_dir: PathBuf,
    /// Maximum queued (not yet running) jobs before `POST /jobs` sheds
    /// with 429.
    pub queue_cap: usize,
    /// Replay the manifest and resume unfinished jobs on startup.
    pub resume: bool,
    /// Supervision policy for every job.
    pub supervisor: SupervisorConfig,
    /// Per-read socket timeout in milliseconds.
    pub read_timeout_ms: u64,
    /// Wall-clock budget for one request to arrive in full (the
    /// Slowloris bound), also the keep-alive idle timeout.
    pub request_deadline_ms: u64,
    /// Maximum concurrent connection threads.
    pub max_connections: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            state_dir: PathBuf::from("campaignd-state"),
            queue_cap: 16,
            resume: false,
            supervisor: SupervisorConfig::default(),
            read_timeout_ms: 250,
            request_deadline_ms: 5_000,
            max_connections: 32,
        }
    }
}

/// Lifecycle of a job inside the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting in the queue.
    Queued,
    /// The supervisor is executing it.
    Running,
    /// Finished; the report is available.
    Completed,
    /// Terminally failed (quarantine, deadline, or I/O), with the reason.
    Failed(String),
    /// Stopped by drain with progress checkpointed; `--resume` continues.
    Interrupted,
}

impl JobStatus {
    fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed(_) => "failed",
            JobStatus::Interrupted => "interrupted",
        }
    }
}

/// One job's full state, shared between connection threads and the
/// supervisor.
#[derive(Debug)]
pub struct JobState {
    /// Job id (`job-<ordinal>-<hash>`).
    pub id: String,
    /// The parsed spec.
    pub spec: JobSpec,
    /// Lifecycle status.
    pub status: Mutex<JobStatus>,
    /// Live counters and the NDJSON event log.
    pub progress: Arc<JobProgress>,
    /// The rendered report, once completed.
    pub report: Mutex<Option<String>>,
}

/// Shared daemon state.
pub struct ServerState {
    cfg: DaemonConfig,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<String, Arc<JobState>>>,
    manifest: Mutex<Manifest>,
    next_ordinal: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    connections: AtomicU64,
    stats: Arc<DaemonStats>,
    draining: AtomicBool,
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr`, opens the state directory, and (with `cfg.resume`)
    /// replays the manifest: finished jobs get their status, counters,
    /// report and terminal stream event rebuilt from checkpoints,
    /// unfinished ones are re-enqueued.
    pub fn bind(addr: &str, cfg: DaemonConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let manifest = Manifest::open(&cfg.state_dir)?;
        let entries = load_manifest(&cfg.state_dir)?;

        let state = Arc::new(ServerState {
            next_ordinal: AtomicU64::new(entries.len() as u64),
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            manifest: Mutex::new(manifest),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            stats: Arc::new(DaemonStats::default()),
            draining: AtomicBool::new(false),
        });

        if cfg.resume {
            for entry in entries {
                let spec = match parse_object(entry.canonical.as_bytes())
                    .and_then(|obj| JobSpec::from_recorded(&obj))
                {
                    Ok(spec) => spec,
                    Err(err) => {
                        eprintln!("campaignd: job {}: not resumed: {err}", entry.id);
                        continue;
                    }
                };
                let total = spec.cell_count() as usize;
                let progress = Arc::new(JobProgress::new(total as u64));
                let Some(done) = entry.done.as_deref() else {
                    // Unfinished: the supervisor resumes it from its WAL,
                    // planning it again, so the size cap applies.
                    if let Err(err) = spec.check_size() {
                        eprintln!("campaignd: job {}: not resumed: {err}", entry.id);
                        continue;
                    }
                    let job = Arc::new(JobState {
                        id: entry.id.clone(),
                        spec,
                        status: Mutex::new(JobStatus::Queued),
                        progress,
                        report: Mutex::new(None),
                    });
                    insert_job(&state, job);
                    let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    queue.push_back(entry.id);
                    drop(queue);
                    continue;
                };
                // Finished in an earlier run: rebuild the report from the
                // WAL without re-simulating, and close the job's stream
                // with its terminal event. An unreadable WAL is logged and
                // counted, and the job fails as an incomplete checkpoint.
                let cells = match load_wal(&wal_path(&cfg.state_dir, &entry.id), &entry.id) {
                    Ok(cells) => cells,
                    Err(e) => {
                        count_io_error(&state, &entry.id, "cannot load the checkpoint", &e);
                        BTreeMap::new()
                    }
                };
                progress
                    .cells_done
                    .store(cells.len() as u64, Ordering::SeqCst);
                let (status, report, event) = if done == "completed" && cells.len() == total {
                    let results: Vec<_> = cells.into_values().collect();
                    (
                        JobStatus::Completed,
                        Some(spec.report(&results)),
                        Event::Completed { cells_total: total },
                    )
                } else {
                    let reason = if done == "completed" {
                        "completed in a previous run but checkpoint is incomplete"
                    } else {
                        "failed in a previous run"
                    };
                    (
                        JobStatus::Failed(reason.to_string()),
                        None,
                        Event::Failed {
                            reason: reason.to_string(),
                        },
                    )
                };
                progress.push_event(event);
                progress.mark_finished();
                let job = Arc::new(JobState {
                    id: entry.id,
                    spec,
                    status: Mutex::new(status),
                    progress,
                    report: Mutex::new(report),
                });
                insert_job(&state, job);
            }
        }
        Ok(Self { listener, state })
    }

    /// The bound local address (the test harness parses this).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained: runs the supervisor loop on its own thread
    /// and the accept loop on this one, then waits for in-flight
    /// connections to finish.
    pub fn run(self) -> std::io::Result<()> {
        let supervisor_state = Arc::clone(&self.state);
        let supervisor = std::thread::Builder::new()
            .name("campaignd-supervisor".to_string())
            .spawn(move || supervisor_loop(&supervisor_state))?;
        accept_loop(&self.listener, &self.state);
        self.state.queue_cv.notify_all();
        let _ = supervisor.join();
        // Graceful drain: give in-flight connection threads a bounded
        // window to flush their responses.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.state.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

fn insert_job(state: &Arc<ServerState>, job: Arc<JobState>) {
    let mut jobs = state.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    jobs.insert(job.id.clone(), job);
}

fn lookup_job(state: &Arc<ServerState>, id: &str) -> Option<Arc<JobState>> {
    let jobs = state.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    jobs.get(id).cloned()
}

/// Accepts connections until drain. Non-blocking accept + sleep keeps the
/// loop interruptible without signals or a wakeup socket.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if state.connections.load(Ordering::SeqCst) >= state.cfg.max_connections {
                    // Over the connection cap: shed immediately rather
                    // than queueing unbounded handler threads.
                    let _ = write_all(&stream, &response(
                        503,
                        "Service Unavailable",
                        "application/json",
                        b"{\"error\": \"connection limit\"}",
                        &[("Retry-After", "1")],
                        false,
                    ));
                    continue;
                }
                state.connections.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                let spawned = std::thread::Builder::new()
                    .name("campaignd-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_state);
                        conn_state.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    state.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn write_all(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)
}

/// Reads requests off one connection until it closes, times out, or a
/// response demands closing. Incremental parsing with a per-request
/// wall-clock budget: a peer dribbling header bytes gets 408, not a
/// parked thread forever.
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let read_timeout = Duration::from_millis(state.cfg.read_timeout_ms.max(1));
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
    let mut buf: Vec<u8> = Vec::new();
    let mut request_started = Instant::now();
    loop {
        let req = match parse_request(&buf) {
            Parse::Complete(req, used) => {
                buf.drain(..used);
                req
            }
            Parse::Reject(status, reason) => {
                let body = format!("{{\"error\": \"{}\"}}", escape(reason));
                let _ = write_all(
                    &stream,
                    &response(status, reason, "application/json", body.as_bytes(), &[], false),
                );
                return;
            }
            Parse::NeedMore => {
                if request_started.elapsed().as_millis() as u64
                    >= state.cfg.request_deadline_ms.max(1)
                {
                    if !buf.is_empty() {
                        let _ = write_all(
                            &stream,
                            &response(
                                408,
                                "Request Timeout",
                                "application/json",
                                b"{\"error\": \"request timeout\"}",
                                &[],
                                false,
                            ),
                        );
                    }
                    return;
                }
                let mut chunk = [0u8; 4096];
                match (&stream).read(&mut chunk) {
                    Ok(0) => return, // peer closed
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => return,
                }
                continue;
            }
        };
        let keep_alive = route(&req, &stream, state);
        if !keep_alive {
            return;
        }
        request_started = Instant::now();
    }
}

fn json_response(status: u16, reason: &'static str, body: String) -> Vec<u8> {
    response(status, reason, "application/json", body.as_bytes(), &[], true)
}

/// Dispatches one request; returns whether to keep the connection alive.
fn route(req: &Request, stream: &TcpStream, state: &Arc<ServerState>) -> bool {
    let path = req.target.split('?').next().unwrap_or("");
    let reply = match (req.method.as_str(), path) {
        ("GET", "/healthz") => json_response(
            200,
            "OK",
            format!(
                "{{\"ok\": true, \"draining\": {}}}",
                state.draining.load(Ordering::SeqCst)
            ),
        ),
        ("GET", "/stats") => json_response(200, "OK", stats_body(state)),
        ("POST", "/jobs") => submit_job(req, state),
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            state.queue_cv.notify_all();
            let bytes = response(
                202,
                "Accepted",
                "application/json",
                b"{\"ok\": true, \"draining\": true}",
                &[],
                false,
            );
            let _ = write_all(stream, &bytes);
            return false;
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                match rest.split_once('/') {
                    None => job_status_body(state, rest),
                    Some((id, "report")) => job_report_body(state, id),
                    Some((id, "stream")) => {
                        stream_job(stream, state, id);
                        return false; // streams always close
                    }
                    Some(_) => not_found(),
                }
            } else {
                not_found()
            }
        }
        (_, "/healthz" | "/stats" | "/jobs" | "/shutdown") => response(
            405,
            "Method Not Allowed",
            "application/json",
            b"{\"error\": \"method not allowed\"}",
            &[],
            true,
        ),
        _ => not_found(),
    };
    write_all(stream, &reply).is_ok()
}

fn not_found() -> Vec<u8> {
    json_response(404, "Not Found", "{\"error\": \"not found\"}".to_string())
}

fn stats_body(state: &Arc<ServerState>) -> String {
    let queue_depth = {
        let queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.len()
    };
    let (queued, running, completed, failed, interrupted) = {
        let jobs = state.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut counts = (0u64, 0u64, 0u64, 0u64, 0u64);
        for job in jobs.values() {
            let status = job.status.lock().unwrap_or_else(PoisonError::into_inner);
            match *status {
                JobStatus::Queued => counts.0 += 1,
                JobStatus::Running => counts.1 += 1,
                JobStatus::Completed => counts.2 += 1,
                JobStatus::Failed(_) => counts.3 += 1,
                JobStatus::Interrupted => counts.4 += 1,
            }
        }
        counts
    };
    let (cell_count, cell_mean, spark) = state.stats.cell_seconds_summary();
    format!(
        "{{\"queue_depth\": {queue_depth}, \"queue_cap\": {}, \"accepted\": {}, \
\"shed\": {}, \"in_flight_cells\": {}, \"cells_done\": {}, \"retries\": {}, \
\"quarantined\": {}, \"io_errors\": {}, \"jobs\": {{\"queued\": {queued}, \"running\": {running}, \
\"completed\": {completed}, \"failed\": {failed}, \"interrupted\": {interrupted}}}, \
\"cell_seconds\": {{\"count\": {cell_count}, \"mean\": {cell_mean:.6}, \
\"sparkline\": \"{}\"}}, \"draining\": {}}}",
        state.cfg.queue_cap,
        state.accepted.load(Ordering::SeqCst),
        state.shed.load(Ordering::SeqCst),
        state.stats.in_flight.load(Ordering::SeqCst),
        state.stats.cells_done.load(Ordering::SeqCst),
        state.stats.retries.load(Ordering::SeqCst),
        state.stats.quarantined.load(Ordering::SeqCst),
        state.stats.io_errors.load(Ordering::SeqCst),
        escape(&spark),
        state.draining.load(Ordering::SeqCst),
    )
}

fn submit_job(req: &Request, state: &Arc<ServerState>) -> Vec<u8> {
    if state.draining.load(Ordering::SeqCst) {
        return response(
            503,
            "Service Unavailable",
            "application/json",
            b"{\"error\": \"draining\"}",
            &[],
            true,
        );
    }
    let spec = match parse_object(&req.body).and_then(|obj| JobSpec::from_object(&obj)) {
        Ok(spec) => spec,
        Err(message) => {
            return json_response(
                400,
                "Bad Request",
                format!("{{\"error\": \"{}\"}}", escape(&message)),
            )
        }
    };
    let canonical = spec.canonical();
    let ordinal = state.next_ordinal.fetch_add(1, Ordering::SeqCst);
    let id = format!(
        "job-{ordinal:04}-{:08x}",
        fnv64(canonical.as_bytes()) & 0xffff_ffff
    );

    // Backpressure: reserve a queue slot or shed, in one lock hold.
    {
        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= state.cfg.queue_cap {
            drop(queue);
            state.shed.fetch_add(1, Ordering::SeqCst);
            return response(
                429,
                "Too Many Requests",
                "application/json",
                b"{\"error\": \"queue full\"}",
                &[("Retry-After", "1")],
                true,
            );
        }
        queue.push_back(id.clone());
    }

    // Durability before acknowledgement: the 202 must survive a crash.
    {
        let mut manifest = state.manifest.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = manifest.record_job(&id, &canonical) {
            drop(manifest);
            let what = "cannot record the accepted job in the manifest";
            count_io_error(state, &id, what, &e);
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.retain(|queued| queued != &id);
            drop(queue);
            return json_response(
                500,
                "Internal Server Error",
                "{\"error\": \"manifest write failed\"}".to_string(),
            );
        }
    }

    let total = spec.cell_count();
    let job = Arc::new(JobState {
        id: id.clone(),
        spec,
        status: Mutex::new(JobStatus::Queued),
        progress: Arc::new(JobProgress::new(total)),
        report: Mutex::new(None),
    });
    insert_job(state, job);
    state.accepted.fetch_add(1, Ordering::SeqCst);
    state.queue_cv.notify_all();
    let queue_depth = {
        let queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.len()
    };
    json_response(
        202,
        "Accepted",
        format!(
            "{{\"id\": \"{id}\", \"cells_total\": {total}, \"queue_depth\": {queue_depth}}}"
        ),
    )
}

fn job_status_body(state: &Arc<ServerState>, id: &str) -> Vec<u8> {
    let Some(job) = lookup_job(state, id) else {
        return not_found();
    };
    let (label, reason) = {
        let status = job.status.lock().unwrap_or_else(PoisonError::into_inner);
        let reason = match &*status {
            JobStatus::Failed(reason) => format!(", \"reason\": \"{}\"", escape(reason)),
            JobStatus::Queued
            | JobStatus::Running
            | JobStatus::Completed
            | JobStatus::Interrupted => String::new(),
        };
        (status.label(), reason)
    };
    let quarantined = {
        let held = job
            .progress
            .quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let listed: Vec<String> = held.iter().map(usize::to_string).collect();
        listed.join(", ")
    };
    json_response(
        200,
        "OK",
        format!(
            "{{\"id\": \"{id}\", \"status\": \"{label}\", \"cells_total\": {}, \
\"cells_done\": {}, \"retries\": {}, \"quarantined\": [{quarantined}]{reason}}}",
            job.progress.cells_total,
            job.progress.cells_done.load(Ordering::SeqCst),
            job.progress.retries.load(Ordering::SeqCst),
        ),
    )
}

fn job_report_body(state: &Arc<ServerState>, id: &str) -> Vec<u8> {
    let Some(job) = lookup_job(state, id) else {
        return not_found();
    };
    let status = {
        let held = job.status.lock().unwrap_or_else(PoisonError::into_inner);
        held.clone()
    };
    match status {
        JobStatus::Completed => {
            let report = {
                let held = job.report.lock().unwrap_or_else(PoisonError::into_inner);
                held.clone()
            };
            match report {
                Some(report) => json_response(200, "OK", report),
                None => json_response(
                    500,
                    "Internal Server Error",
                    "{\"error\": \"report missing\"}".to_string(),
                ),
            }
        }
        JobStatus::Failed(reason) => json_response(
            410,
            "Gone",
            format!("{{\"error\": \"{}\"}}", escape(&reason)),
        ),
        JobStatus::Queued | JobStatus::Running | JobStatus::Interrupted => response(
            409,
            "Conflict",
            "application/json",
            b"{\"error\": \"job not finished\"}",
            &[("Retry-After", "1")],
            true,
        ),
    }
}

/// Streams a job's event journal as NDJSON, then live events until the
/// job finishes. A dead or slow client hits the write timeout and only
/// its own thread unwinds.
fn stream_job(stream: &TcpStream, state: &Arc<ServerState>, id: &str) {
    let Some(job) = lookup_job(state, id) else {
        let _ = write_all(stream, &not_found());
        return;
    };
    if write_all(stream, &stream_head("application/x-ndjson")).is_err() {
        return;
    }
    let mut seen = 0usize;
    loop {
        let (fresh, finished) = job
            .progress
            .wait_events(seen, Duration::from_millis(200));
        if write_events(stream, &job.id, &fresh).is_err() {
            return; // client went away; the campaign does not care
        }
        seen += fresh.len();
        if finished {
            let (rest, _) = job.progress.wait_events(seen, Duration::from_millis(0));
            let _ = write_events(stream, &job.id, &rest);
            return;
        }
    }
}

/// Renders `events` as NDJSON lines and writes them in one call.
fn write_events(stream: &TcpStream, job_id: &str, events: &[Event]) -> std::io::Result<()> {
    if events.is_empty() {
        return Ok(());
    }
    let mut lines = String::new();
    for event in events {
        lines.push_str(&event.render(job_id));
        lines.push('\n');
    }
    write_all(stream, lines.as_bytes())
}

/// Pops and runs queued jobs until drain. One job at a time: cell-level
/// parallelism comes from the worker pool underneath.
fn supervisor_loop(state: &Arc<ServerState>) {
    loop {
        let next = {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                // Drain check before the pop: queued-but-unstarted jobs
                // stay queued (and un-`done` in the manifest) so a
                // `--resume` picks them up; only the in-flight job gets
                // its in-flight cells finished.
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(id) = queue.pop_front() {
                    break Some(id);
                }
                let (reacquired, _) = state
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = reacquired;
            }
        };
        let Some(id) = next else { return };

        // The submit path publishes to the jobs map right after the queue
        // reservation; tolerate the tiny in-between window.
        let job = loop {
            if let Some(job) = lookup_job(state, &id) {
                break job;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        set_status(&job, JobStatus::Running);
        let outcome = run_job(
            &state.cfg.supervisor,
            &id,
            &job.spec,
            &state.cfg.state_dir,
            &job.progress,
            &state.stats,
            &state.draining,
        );
        match outcome {
            Ok(JobOutcome::Completed { report }) => {
                {
                    let mut held = job.report.lock().unwrap_or_else(PoisonError::into_inner);
                    *held = Some(report);
                }
                set_status(&job, JobStatus::Completed);
                record_done(state, &id, "completed");
            }
            Ok(JobOutcome::Failed { reason }) => {
                set_status(&job, JobStatus::Failed(reason));
                record_done(state, &id, "failed");
            }
            Ok(JobOutcome::Interrupted) => {
                set_status(&job, JobStatus::Interrupted);
                // No manifest record: resume re-enqueues it.
            }
            Err(e) => {
                // No terminal event was pushed: close the stream here.
                count_io_error(state, &id, "job failed", &e);
                let reason = format!("i/o error: {e}");
                set_status(&job, JobStatus::Failed(reason.clone()));
                job.progress.push_event(Event::Failed { reason });
                job.progress.mark_finished();
                record_done(state, &id, "failed");
            }
        }
    }
}

fn set_status(job: &Arc<JobState>, status: JobStatus) {
    let mut held = job.status.lock().unwrap_or_else(PoisonError::into_inner);
    *held = status;
}

/// Records a job's terminal outcome. A failed write leaves the job's
/// status as it is; without the record, `--resume` runs the job again from
/// its checkpoints.
fn record_done(state: &Arc<ServerState>, id: &str, outcome: &str) {
    let mut manifest = state.manifest.lock().unwrap_or_else(PoisonError::into_inner);
    if let Err(e) = manifest.record_done(id, outcome) {
        drop(manifest);
        let what = format!("cannot record outcome `{outcome}` in the manifest");
        count_io_error(state, id, &what, &e);
    }
}

/// Logs a failed state-directory read or write with its job id and counts
/// it on `/stats`.
fn count_io_error(state: &Arc<ServerState>, id: &str, what: &str, e: &std::io::Error) {
    eprintln!("campaignd: job {id}: {what}: {e}");
    state.stats.io_errors.fetch_add(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cfg(tag: &str) -> DaemonConfig {
        let state_dir = std::env::temp_dir().join(format!(
            "campaignd-srv-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        DaemonConfig {
            state_dir,
            supervisor: SupervisorConfig {
                workers: 2,
                backoff_base_ms: 1,
                ..SupervisorConfig::default()
            },
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn bind_creates_state_dir_and_reports_addr() {
        let cfg = temp_cfg("bind");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        assert!(addr.port() > 0);
        assert!(Manifest::path_in(&cfg.state_dir).exists());
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn a_failed_manifest_write_is_logged_and_counted() {
        let cfg = temp_cfg("manifest-ro");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        *server.state.manifest.lock().unwrap() =
            Manifest::open_read_only(&cfg.state_dir).unwrap();
        record_done(&server.state, "job-0000-00000000", "completed");
        assert_eq!(server.state.stats.io_errors.load(Ordering::SeqCst), 1);
        assert!(
            stats_body(&server.state).contains("\"io_errors\": 1"),
            "{}",
            stats_body(&server.state)
        );
        assert!(load_manifest(&cfg.state_dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn resume_keeps_a_finished_job_over_the_cap_and_skips_an_unfinished_one() {
        let cfg = DaemonConfig {
            resume: true,
            ..temp_cfg("resume-cap")
        };
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let over = JobSpec::from_object(
            &parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap(),
        )
        .map(|spec| JobSpec { reps: 500, ..spec })
        .unwrap();
        assert!(over.check_size().is_err());
        let mut manifest = Manifest::open(&cfg.state_dir).unwrap();
        manifest.record_job("job-finished", &over.canonical()).unwrap();
        manifest.record_done("job-finished", "failed").unwrap();
        manifest.record_job("job-unfinished", &over.canonical()).unwrap();
        manifest.record_job("job-garbled", "{\"kind\": ").unwrap();
        drop(manifest);

        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let jobs = server.state.jobs.lock().unwrap();
        let ids: Vec<&str> = jobs.keys().map(String::as_str).collect();
        assert_eq!(ids, ["job-finished"]);
        assert_eq!(jobs["job-finished"].spec, over);
        assert!(matches!(
            *jobs["job-finished"].status.lock().unwrap(),
            JobStatus::Failed(_)
        ));
        drop(jobs);
        assert!(server.state.queue.lock().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn resume_counts_a_finished_job_whose_wal_belongs_to_another_job() {
        let cfg = DaemonConfig {
            resume: true,
            ..temp_cfg("resume-foreign-wal")
        };
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let spec =
            JobSpec::from_object(&parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap())
                .unwrap();
        let mut manifest = Manifest::open(&cfg.state_dir).unwrap();
        manifest.record_job("job-done", &spec.canonical()).unwrap();
        manifest.record_done("job-done", "completed").unwrap();
        drop(manifest);
        crate::checkpoint::WalWriter::open(&wal_path(&cfg.state_dir, "job-done"), "job-other")
            .unwrap();

        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let jobs = server.state.jobs.lock().unwrap();
        assert_eq!(jobs["job-done"].status.lock().unwrap().label(), "failed");
        assert_eq!(jobs["job-done"].progress.cells_done.load(Ordering::SeqCst), 0);
        drop(jobs);
        assert_eq!(server.state.stats.io_errors.load(Ordering::SeqCst), 1);
        assert!(
            stats_body(&server.state).contains("\"io_errors\": 1"),
            "{}",
            stats_body(&server.state)
        );
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn a_job_that_hits_an_io_error_fails_closes_its_stream_and_is_counted() {
        let cfg = DaemonConfig {
            resume: true,
            ..temp_cfg("resume-foreign-wal-unfinished")
        };
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let spec =
            JobSpec::from_object(&parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap())
                .unwrap();
        let mut manifest = Manifest::open(&cfg.state_dir).unwrap();
        manifest
            .record_job("job-unfinished", &spec.canonical())
            .unwrap();
        drop(manifest);
        // The WAL names another job, so `run_job` fails before any cell.
        crate::checkpoint::WalWriter::open(
            &wal_path(&cfg.state_dir, "job-unfinished"),
            "job-other",
        )
        .unwrap();

        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let state = Arc::clone(&server.state);
        let daemon = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /jobs/job-unfinished/stream HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        let read = stream.read_to_string(&mut body);
        state.draining.store(true, Ordering::SeqCst);
        daemon.join().unwrap().unwrap();

        assert!(
            read.is_ok(),
            "the stream did not end within 10 s: {read:?}\n{body}"
        );
        let last = body.lines().last().unwrap_or_default();
        assert!(
            last.starts_with(
                "{\"event\": \"job\", \"id\": \"job-unfinished\", \"status\": \"failed\""
            ),
            "{body}"
        );
        assert!(last.contains("i/o error"), "{last}");
        assert_eq!(state.stats.io_errors.load(Ordering::SeqCst), 1);
        assert_eq!(
            load_manifest(&cfg.state_dir).unwrap()[0].done.as_deref(),
            Some("failed")
        );
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn an_oversized_job_is_rejected_before_it_is_recorded() {
        let cfg = temp_cfg("oversized");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let body = br#"{"kind": "attack", "strategy": "random_st", "attack": "acceleration", "reps": 4294967295}"#;
        let mut raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
        raw.extend_from_slice(body);
        let Parse::Complete(req, _) = parse_request(&raw) else {
            panic!("request parses");
        };
        let reply = String::from_utf8_lossy(&submit_job(&req, &server.state)).into_owned();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("100000"), "{reply}");
        assert!(load_manifest(&cfg.state_dir).unwrap().is_empty());
        assert!(server.state.queue.lock().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn status_labels_are_wire_stable() {
        assert_eq!(JobStatus::Queued.label(), "queued");
        assert_eq!(JobStatus::Failed("x".into()).label(), "failed");
        assert_eq!(JobStatus::Interrupted.label(), "interrupted");
    }
}
