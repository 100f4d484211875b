//! The daemon: bounded job queue, hardened connection handling, routing,
//! and the supervisor loop that drains the queue through [`crate::supervisor`].
//!
//! Threading model — deliberately boring:
//!
//! * one accept loop (`accept_loop`) blocked in `accept`, so a client is
//!   served the moment it connects; `ServerState::drain` wakes it with
//!   one loopback connection of its own;
//! * one connection thread per client, capped at
//!   [`DaemonConfig::max_connections`] (over the cap → immediate 503),
//!   each with read/write timeouts and a per-request wall-clock budget so
//!   a Slowloris peer costs one bounded thread, never the daemon. A
//!   request that says `Connection: close`, or an HTTP/1.0 one without
//!   `Connection: keep-alive`, gets its reply and then EOF; during a drain
//!   an idle connection ends at its next read timeout;
//! * one supervisor loop (`supervisor_loop`) running queued jobs
//!   sequentially — the *cells* of a job are the parallelism, fanned out
//!   by `platform::experiment::run_campaign_cells`, so a second concurrent
//!   job would only fight the first for the same cores. It sleeps on the
//!   queue's condvar until a job is queued or a drain starts, and on a
//!   drain it publishes every job still queued as interrupted.
//!
//! The queue holds each job's [`JobState`], pushed only once the job's
//! manifest record is written, and a job's stream ends only once its
//! report and status are published: a client that reads the stream to
//! EOF finds the report served.
//!
//! Memory holds only live jobs. The job table keeps every unfinished job
//! and the `FINISHED_WINDOW` (16) most recently finished ones in full: spec,
//! event journal and report. An older finished job, and every finished
//! job `--resume` replays, is a compact record of its spec, status and
//! counters, and is served from its checkpoint: its report is rebuilt
//! from its WAL on each request, and its stream is its terminal event
//! alone. `/stats` reads per-status job counters that move at each status
//! change, so it never scans the table.
//!
//! Lock discipline: every lock here (`queue`, `jobs`, `manifest`, and the
//! supervisor's WAL/event locks) is acquired alone — taken, used, dropped
//! before the next — so the lock-order graph stays edge-free by
//! construction (adas-lint R12 audits this).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use platform::json::{self, Fixed, Layout};

use crate::checkpoint::{fnv64, load_manifest, load_wal, wal_path, Manifest};
use crate::http::{parse_request, response, stream_head, Parse, Request};
use crate::spec::JobSpec;
use crate::supervisor::{run_job, DaemonStats, Event, JobOutcome, JobProgress, SupervisorConfig};
use crate::wire::parse_object;

/// Finished jobs the daemon keeps in full, journal and report included,
/// besides every unfinished one. When one more finishes, the oldest of
/// them shrinks to a compact record and is served from its checkpoint.
pub(crate) const FINISHED_WINDOW: usize = 16;

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
    /// Stopped by a drain, while running or queued, with progress
    /// checkpointed; `--resume` continues.
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

    /// The event that ends the stream of a job left in this status; `None`
    /// while the job is queued or running.
    fn terminal_event(&self, cells_total: u64) -> Option<Event> {
        match self {
            JobStatus::Queued | JobStatus::Running => None,
            JobStatus::Completed => Some(Event::Completed {
                cells_total: cells_total as usize,
            }),
            JobStatus::Failed(reason) => Some(Event::Failed {
                reason: reason.clone(),
            }),
            JobStatus::Interrupted => Some(Event::Interrupted),
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
    pub progress: JobProgress,
    /// The rendered report, once completed.
    pub report: Mutex<Option<String>>,
}

impl JobState {
    /// The job's spec, status and counters as they stand.
    fn record(&self) -> JobRecord {
        let status = self
            .status
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let quarantined = self
            .progress
            .quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        JobRecord {
            spec: self.spec.clone(),
            status,
            cells_total: self.progress.cells_total,
            cells_done: self.progress.cells_done.load(Ordering::SeqCst),
            retries: self.progress.retries.load(Ordering::SeqCst),
            quarantined,
        }
    }
}

/// A finished job's compact record: what `/jobs/<id>` prints and the spec
/// that renders its report from its WAL, without its event journal or its
/// report.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    cells_total: u64,
    cells_done: u64,
    retries: u64,
    quarantined: Vec<usize>,
}

impl JobRecord {
    /// The `/jobs/<id>` body.
    fn status_body(&self, id: &str) -> String {
        json::object(Layout::Line, |o| {
            o.field("id", id)
                .field("status", self.status.label())
                .field("cells_total", self.cells_total)
                .field("cells_done", self.cells_done)
                .field("retries", self.retries);
            o.key("quarantined").array(Layout::Line, |a| {
                for idx in &self.quarantined {
                    a.value(idx);
                }
            });
            if let JobStatus::Failed(reason) = &self.status {
                o.field("reason", reason);
            }
        })
    }

    /// Rebuilds a completed job's report from its WAL, as `--resume`
    /// resolves a finished job. A WAL that cannot be read, names another
    /// job, or holds fewer cells than the plan is an error.
    fn rebuild_report(&self, state_dir: &Path, id: &str) -> std::io::Result<String> {
        let cells = load_wal(&wal_path(state_dir, id), id)?;
        if cells.len() as u64 != self.cells_total {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "the checkpoint holds {} of {} cells",
                    cells.len(),
                    self.cells_total
                ),
            ));
        }
        let results: Vec<_> = cells.into_values().collect();
        Ok(self.spec.report(&results))
    }
}

/// A job as the table holds it.
enum Held {
    /// Unfinished, or among the [`FINISHED_WINDOW`] most recently finished.
    Full(Arc<JobState>),
    /// Finished earlier, or replayed by `--resume`.
    Compact(JobRecord),
}

impl Held {
    fn status(&self) -> JobStatus {
        match self {
            Held::Full(job) => job
                .status
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            Held::Compact(record) => record.status.clone(),
        }
    }
}

/// Every job `/jobs/<id>` can name: unfinished jobs and a window of the
/// most recently finished ones in full, every older finished job as its
/// compact record.
#[derive(Debug, Default)]
struct JobTable {
    full: BTreeMap<String, Arc<JobState>>,
    /// The finished jobs among `full`, oldest first, each with the record
    /// it shrinks to.
    window: VecDeque<(String, JobRecord)>,
    compact: BTreeMap<String, JobRecord>,
}

impl JobTable {
    /// Adds a job that has just finished to the window and shrinks the
    /// window's oldest job to its record once the window is over
    /// [`FINISHED_WINDOW`]. A stream still reading that job keeps its
    /// state alive through its own `Arc`.
    fn retire(&mut self, id: String, record: JobRecord) {
        self.window.push_back((id, record));
        while self.window.len() > FINISHED_WINDOW {
            let Some((oldest, record)) = self.window.pop_front() else {
                break;
            };
            self.full.remove(&oldest);
            self.compact.insert(oldest, record);
        }
    }
}

/// Jobs per status for `/stats`, moved at every status change.
#[derive(Debug, Default)]
struct StatusCounts {
    queued: AtomicU64,
    running: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    interrupted: AtomicU64,
}

impl StatusCounts {
    fn of(&self, status: &JobStatus) -> &AtomicU64 {
        match status {
            JobStatus::Queued => &self.queued,
            JobStatus::Running => &self.running,
            JobStatus::Completed => &self.completed,
            JobStatus::Failed(_) => &self.failed,
            JobStatus::Interrupted => &self.interrupted,
        }
    }
}

/// The bounded job queue: jobs waiting for the supervisor, plus the slots
/// submissions have reserved while they record their job.
#[derive(Debug, Default)]
struct JobQueue {
    waiting: VecDeque<Arc<JobState>>,
    reserved: usize,
}

/// Shared daemon state.
pub struct ServerState {
    cfg: DaemonConfig,
    /// The listener's own address, for the connection that wakes the
    /// accept loop on drain.
    wake_addr: SocketAddr,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    jobs: Mutex<JobTable>,
    counts: StatusCounts,
    manifest: Mutex<Manifest>,
    next_ordinal: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    connections: AtomicU64,
    stats: DaemonStats,
    draining: AtomicBool,
}

impl ServerState {
    /// Starts a graceful drain: sets the flag, wakes the supervisor, and
    /// connects once to the listener so the blocked accept returns and
    /// sees the flag. Used by `POST /shutdown`.
    fn drain(&self) {
        {
            // Under the queue lock, so the supervisor cannot miss the
            // wakeup between its check of the flag and its wait.
            let _queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.draining.store(true, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
        if let Err(e) = TcpStream::connect(self.wake_addr) {
            eprintln!("campaignd: cannot wake the accept loop: {e}");
        }
    }

    /// Adds a queued job to the table and counts it; the caller queues it.
    fn admit(&self, id: String, spec: JobSpec) -> Arc<JobState> {
        let total = spec.cell_count();
        let job = Arc::new(JobState {
            id: id.clone(),
            spec,
            status: Mutex::new(JobStatus::Queued),
            progress: JobProgress::new(total),
            report: Mutex::new(None),
        });
        self.counts.queued.fetch_add(1, Ordering::SeqCst);
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.full.insert(id, Arc::clone(&job));
        drop(jobs);
        job
    }

    /// Adds a job finished in an earlier run as its compact record.
    fn archive(&self, id: String, record: JobRecord) {
        self.counts
            .of(&record.status)
            .fetch_add(1, Ordering::SeqCst);
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.compact.insert(id, record);
    }

    fn lookup(&self, id: &str) -> Option<Held> {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.full.get(id) {
            Some(job) => Some(Held::Full(Arc::clone(job))),
            None => jobs.compact.get(id).cloned().map(Held::Compact),
        }
    }

    /// Moves `job` to `status` and its count with it.
    fn set_status(&self, job: &JobState, status: JobStatus) {
        let mut held = job.status.lock().unwrap_or_else(PoisonError::into_inner);
        self.counts.of(&status).fetch_add(1, Ordering::SeqCst);
        self.counts.of(&held).fetch_sub(1, Ordering::SeqCst);
        *held = status;
    }
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr`, opens the state directory, and (with `cfg.resume`)
    /// replays the manifest: finished jobs get their status and counters
    /// resolved from their checkpoints and are kept as compact records,
    /// unfinished ones are re-enqueued.
    pub fn bind(addr: &str, cfg: DaemonConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let manifest = Manifest::open(&cfg.state_dir)?;
        let entries = load_manifest(&cfg.state_dir)?;

        let state = Arc::new(ServerState {
            next_ordinal: AtomicU64::new(entries.len() as u64),
            cfg: cfg.clone(),
            wake_addr,
            queue: Mutex::new(JobQueue::default()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            counts: StatusCounts::default(),
            manifest: Mutex::new(manifest),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            stats: DaemonStats::default(),
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
                let Some(done) = entry.done.as_deref() else {
                    // Unfinished: the supervisor resumes it from its WAL,
                    // planning it again, so the size cap applies.
                    if let Err(err) = spec.check_size() {
                        eprintln!("campaignd: job {}: not resumed: {err}", entry.id);
                        continue;
                    }
                    let job = state.admit(entry.id, spec);
                    let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    queue.waiting.push_back(job);
                    drop(queue);
                    continue;
                };
                // Finished in an earlier run: count the cells its WAL
                // holds without re-simulating, and keep the compact
                // record; its report is rebuilt from the WAL when asked
                // for. An unreadable WAL is logged and counted, and the
                // job fails as an incomplete checkpoint.
                let cells_total = spec.cell_count();
                let cells_done = match load_wal(&wal_path(&cfg.state_dir, &entry.id), &entry.id) {
                    Ok(cells) => cells.len() as u64,
                    Err(e) => {
                        count_io_error(&state, &entry.id, "cannot load the checkpoint", &e);
                        0
                    }
                };
                let status = if done == "completed" && cells_done == cells_total {
                    JobStatus::Completed
                } else if done == "completed" {
                    JobStatus::Failed(
                        "completed in a previous run but checkpoint is incomplete".to_string(),
                    )
                } else {
                    JobStatus::Failed("failed in a previous run".to_string())
                };
                state.archive(
                    entry.id,
                    JobRecord {
                        spec,
                        status,
                        cells_total,
                        cells_done,
                        retries: 0,
                        quarantined: Vec::new(),
                    },
                );
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
        let _ = supervisor.join();
        // Graceful drain: give in-flight connection threads a bounded
        // window to flush their responses. Idle ones end at their next
        // read timeout.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.state.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

/// Accepts connections until drain. The listener blocks, so each client is
/// taken the moment it connects; [`ServerState::drain`] connects once
/// itself so that the loop wakes and sees the flag.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for accepted in listener.incoming() {
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = accepted else {
            // Out of descriptors or the like: back off rather than spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if state.connections.load(Ordering::SeqCst) >= state.cfg.max_connections {
            // Over the connection cap: shed immediately rather than
            // queueing unbounded handler threads.
            let reply = Reply::error(503, "Service Unavailable", "connection limit").retry_later();
            let _ = write_all(&stream, &reply.to_bytes(false));
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
}

fn write_all(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)
}

/// Reads requests off one connection until it closes, times out, or a
/// response demands closing. Incremental parsing with a per-request
/// wall-clock budget: a peer dribbling header bytes gets 408, not a
/// parked thread forever. Once a drain starts, a connection holding no
/// part of a request ends at its next read timeout.
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
                let reply = Reply::error(status, reason, reason);
                let _ = write_all(&stream, &reply.to_bytes(false));
                return;
            }
            Parse::NeedMore => {
                if request_started.elapsed().as_millis() as u64
                    >= state.cfg.request_deadline_ms.max(1)
                {
                    if !buf.is_empty() {
                        let reply = Reply::error(408, "Request Timeout", "request timeout");
                        let _ = write_all(&stream, &reply.to_bytes(false));
                    }
                    return;
                }
                let mut chunk = [0u8; 4096];
                match (&stream).read(&mut chunk) {
                    Ok(0) => return, // peer closed
                    Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if buf.is_empty() && state.draining.load(Ordering::SeqCst) {
                            return;
                        }
                    }
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

/// A reply before it is framed; every body but a stream's is JSON.
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
    /// Whether to carry `Retry-After: 1`.
    retry_later: bool,
}

impl Reply {
    fn json(status: u16, reason: &'static str, body: String) -> Self {
        Self {
            status,
            reason,
            body,
            retry_later: false,
        }
    }

    /// `{"error": message}`.
    fn error(status: u16, reason: &'static str, message: &str) -> Self {
        let body = json::object(Layout::Line, |o| {
            o.field("error", message);
        });
        Self::json(status, reason, body)
    }

    fn retry_later(self) -> Self {
        Self {
            retry_later: true,
            ..self
        }
    }

    /// The reply's bytes; `keep_alive: false` adds `Connection: close`.
    fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let extra: &[(&str, &str)] = if self.retry_later {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        response(
            self.status,
            self.reason,
            "application/json",
            self.body.as_bytes(),
            extra,
            keep_alive,
        )
    }
}

/// Dispatches one request; returns whether to keep the connection alive.
/// It stays open only if the request lets it ([`Request::keep_alive`]);
/// a stream or a shutdown always closes it.
fn route(req: &Request, stream: &TcpStream, state: &Arc<ServerState>) -> bool {
    let path = req.target.split('?').next().unwrap_or("");
    let reply = match (req.method.as_str(), path) {
        ("GET", "/healthz") => Reply::json(200, "OK", health_body(state)),
        ("GET", "/stats") => Reply::json(200, "OK", stats_body(state)),
        ("POST", "/jobs") => submit_job(req, state),
        ("POST", "/shutdown") => {
            state.drain();
            let reply = Reply::json(202, "Accepted", health_body(state));
            let _ = write_all(stream, &reply.to_bytes(false));
            return false;
        }
        ("GET", path) => match path.strip_prefix("/jobs/") {
            Some(rest) => match rest.split_once('/') {
                None => job_status_body(state, rest),
                Some((id, "report")) => job_report_body(state, id),
                Some((id, "stream")) => {
                    stream_job(stream, state, id);
                    return false; // streams always close
                }
                Some(_) => not_found(),
            },
            None => not_found(),
        },
        (_, "/healthz" | "/stats" | "/jobs" | "/shutdown") => {
            Reply::error(405, "Method Not Allowed", "method not allowed")
        }
        _ => not_found(),
    };
    let keep_alive = req.keep_alive();
    write_all(stream, &reply.to_bytes(keep_alive)).is_ok() && keep_alive
}

fn not_found() -> Reply {
    Reply::error(404, "Not Found", "not found")
}

/// The `/healthz` body, also the reply to `/shutdown` once the drain has
/// begun.
fn health_body(state: &Arc<ServerState>) -> String {
    json::object(Layout::Line, |o| {
        o.field("ok", true)
            .field("draining", state.draining.load(Ordering::SeqCst));
    })
}

fn stats_body(state: &Arc<ServerState>) -> String {
    let queue_depth = {
        let queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.waiting.len()
    };
    let count = |n: &AtomicU64| n.load(Ordering::SeqCst);
    let (cell_count, cell_mean, spark) = state.stats.cell_seconds_summary();
    json::object(Layout::Line, |o| {
        o.field("queue_depth", queue_depth)
            .field("queue_cap", state.cfg.queue_cap)
            .field("accepted", count(&state.accepted))
            .field("shed", count(&state.shed))
            .field("in_flight_cells", count(&state.stats.in_flight))
            .field("cells_done", count(&state.stats.cells_done))
            .field("retries", count(&state.stats.retries))
            .field("quarantined", count(&state.stats.quarantined))
            .field("io_errors", count(&state.stats.io_errors));
        let jobs = &state.counts;
        o.key("jobs").object(Layout::Line, |j| {
            j.field("queued", count(&jobs.queued))
                .field("running", count(&jobs.running))
                .field("completed", count(&jobs.completed))
                .field("failed", count(&jobs.failed))
                .field("interrupted", count(&jobs.interrupted));
        });
        o.key("cell_seconds").object(Layout::Line, |c| {
            c.field("count", cell_count)
                .field("mean", Fixed(cell_mean, 6))
                .field("sparkline", &spark);
        });
        o.field("draining", state.draining.load(Ordering::SeqCst));
    })
}

fn submit_job(req: &Request, state: &Arc<ServerState>) -> Reply {
    if state.draining.load(Ordering::SeqCst) {
        return Reply::error(503, "Service Unavailable", "draining");
    }
    let spec = match parse_object(&req.body).and_then(|obj| JobSpec::from_object(&obj)) {
        Ok(spec) => spec,
        Err(message) => return Reply::error(400, "Bad Request", &message),
    };
    let canonical = spec.canonical();
    let ordinal = state.next_ordinal.fetch_add(1, Ordering::SeqCst);
    let id = format!(
        "job-{ordinal:04}-{:08x}",
        fnv64(canonical.as_bytes()) & 0xffff_ffff
    );

    // Backpressure: reserve a queue slot or shed, in one lock hold. The job
    // is queued only once it is recorded.
    {
        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.waiting.len() + queue.reserved >= state.cfg.queue_cap {
            drop(queue);
            state.shed.fetch_add(1, Ordering::SeqCst);
            return Reply::error(429, "Too Many Requests", "queue full").retry_later();
        }
        queue.reserved += 1;
    }

    // Durability before acknowledgement: the 202 must survive a crash.
    {
        let mut manifest = state
            .manifest
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = manifest.record_job(&id, &canonical) {
            drop(manifest);
            let what = "cannot record the accepted job in the manifest";
            count_io_error(state, &id, what, &e);
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.reserved -= 1;
            drop(queue);
            return Reply::error(500, "Internal Server Error", "manifest write failed");
        }
    }

    let job = state.admit(id.clone(), spec);
    let total = job.progress.cells_total;
    state.accepted.fetch_add(1, Ordering::SeqCst);
    let (queued, queue_depth) = {
        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.reserved -= 1;
        // Checked under the queue lock, which the drain sets its flag
        // under: a job either reaches the queue before the supervisor's
        // drain sweep takes it, or is interrupted here.
        let queued = !state.draining.load(Ordering::SeqCst);
        if queued {
            queue.waiting.push_back(Arc::clone(&job));
        }
        (queued, queue.waiting.len())
    };
    if queued {
        state.queue_cv.notify_all();
    } else {
        // Recorded but never run: `--resume` queues it again.
        publish_outcome(state, &job, Ok(JobOutcome::Interrupted));
    }
    let body = json::object(Layout::Line, |o| {
        o.field("id", &id)
            .field("cells_total", total)
            .field("queue_depth", queue_depth);
    });
    Reply::json(202, "Accepted", body)
}

fn job_status_body(state: &Arc<ServerState>, id: &str) -> Reply {
    let record = match state.lookup(id) {
        Some(Held::Full(job)) => job.record(),
        Some(Held::Compact(record)) => record,
        None => return not_found(),
    };
    Reply::json(200, "OK", record.status_body(id))
}

fn job_report_body(state: &Arc<ServerState>, id: &str) -> Reply {
    let Some(held) = state.lookup(id) else {
        return not_found();
    };
    match held.status() {
        JobStatus::Completed => {}
        JobStatus::Failed(reason) => return Reply::error(410, "Gone", &reason),
        JobStatus::Queued | JobStatus::Running | JobStatus::Interrupted => {
            return Reply::error(409, "Conflict", "job not finished").retry_later()
        }
    }
    let report = match held {
        Held::Full(job) => job
            .report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
        Held::Compact(record) => match record.rebuild_report(&state.cfg.state_dir, id) {
            Ok(report) => Some(report),
            Err(e) => {
                let what = "cannot rebuild the report from the checkpoint";
                count_io_error(state, id, what, &e);
                return Reply::error(500, "Internal Server Error", "checkpoint unreadable");
            }
        },
    };
    match report {
        Some(report) => Reply::json(200, "OK", report),
        None => Reply::error(500, "Internal Server Error", "report missing"),
    }
}

/// Streams a job's event journal as NDJSON, then live events until the
/// job finishes. A job held as its compact record streams its terminal
/// event alone. A dead or slow client hits the write timeout and only its
/// own thread unwinds.
fn stream_job(stream: &TcpStream, state: &Arc<ServerState>, id: &str) {
    let Some(held) = state.lookup(id) else {
        let _ = write_all(stream, &not_found().to_bytes(false));
        return;
    };
    if write_all(stream, &stream_head("application/x-ndjson")).is_err() {
        return;
    }
    let job = match held {
        Held::Full(job) => job,
        Held::Compact(record) => {
            let last = record.status.terminal_event(record.cells_total);
            let _ = write_events(stream, id, last.as_slice());
            return;
        }
    };
    let mut seen = 0usize;
    loop {
        let (fresh, finished) = job.progress.wait_events(seen, Duration::from_millis(200));
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
/// parallelism comes from the job's cell fan-out.
///
/// On a drain, the running job finishes the cells it has in flight, and
/// every job still queued is published as interrupted: its stream ends,
/// and with no manifest `done` record, `--resume` queues it again.
fn supervisor_loop(state: &Arc<ServerState>) {
    loop {
        let next = {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                // Drain check before the pop, under the lock the drain
                // sets the flag under: once it is seen, `submit_job`
                // queues nothing more, so the sweep takes every job.
                if state.draining.load(Ordering::SeqCst) {
                    break ControlFlow::Break(std::mem::take(&mut queue.waiting));
                }
                if let Some(job) = queue.waiting.pop_front() {
                    break ControlFlow::Continue(job);
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let job = match next {
            ControlFlow::Continue(job) => job,
            ControlFlow::Break(swept) => {
                for job in &swept {
                    publish_outcome(state, job, Ok(JobOutcome::Interrupted));
                }
                return;
            }
        };
        state.set_status(&job, JobStatus::Running);
        let outcome = run_job(
            &state.cfg.supervisor,
            &job.id,
            &job.spec,
            &state.cfg.state_dir,
            &job.progress,
            &state.stats,
            &state.draining,
        );
        publish_outcome(state, &job, outcome);
    }
}

/// Publishes a job's outcome: the report and the status first, then the
/// job's place among the finished (which may shrink an older one to its
/// record), then the terminal event that ends the job's stream, so a
/// client that reads the stream to EOF finds the report served. The
/// manifest record comes last.
fn publish_outcome(
    state: &Arc<ServerState>,
    job: &Arc<JobState>,
    outcome: std::io::Result<JobOutcome>,
) {
    let (status, done) = match outcome {
        Ok(JobOutcome::Completed { report }) => {
            *job.report.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
            (JobStatus::Completed, Some("completed"))
        }
        Ok(JobOutcome::Failed { reason }) => (JobStatus::Failed(reason), Some("failed")),
        // No manifest record: resume re-enqueues it.
        Ok(JobOutcome::Interrupted) => (JobStatus::Interrupted, None),
        Err(e) => {
            count_io_error(state, &job.id, "job failed", &e);
            (JobStatus::Failed(format!("i/o error: {e}")), Some("failed"))
        }
    };
    let last = status.terminal_event(job.progress.cells_total);
    state.set_status(job, status);
    let record = job.record();
    state
        .jobs
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retire(job.id.clone(), record);
    if let Some(event) = last {
        job.progress.push_event(event);
    }
    job.progress.mark_finished();
    if let Some(done) = done {
        record_done(state, &job.id, done);
    }
}

/// Records a job's terminal outcome. A failed write leaves the job's
/// status as it is; without the record, `--resume` runs the job again from
/// its checkpoints.
fn record_done(state: &Arc<ServerState>, id: &str, outcome: &str) {
    let mut manifest = state
        .manifest
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
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
        let state_dir =
            std::env::temp_dir().join(format!("campaignd-srv-{tag}-{}", std::process::id()));
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
        *server.state.manifest.lock().unwrap() = Manifest::open_read_only(&cfg.state_dir).unwrap();
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
        let over =
            JobSpec::from_object(&parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap())
                .map(|spec| JobSpec { reps: 500, ..spec })
                .unwrap();
        assert!(over.check_size().is_err());
        let mut manifest = Manifest::open(&cfg.state_dir).unwrap();
        manifest
            .record_job("job-finished", &over.canonical())
            .unwrap();
        manifest.record_done("job-finished", "failed").unwrap();
        manifest
            .record_job("job-unfinished", &over.canonical())
            .unwrap();
        manifest.record_job("job-garbled", "{\"kind\": ").unwrap();
        drop(manifest);

        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let jobs = server.state.jobs.lock().unwrap();
        assert!(jobs.full.is_empty() && jobs.window.is_empty());
        let ids: Vec<&str> = jobs.compact.keys().map(String::as_str).collect();
        assert_eq!(ids, ["job-finished"]);
        assert_eq!(jobs.compact["job-finished"].spec, over);
        assert!(matches!(
            jobs.compact["job-finished"].status,
            JobStatus::Failed(_)
        ));
        drop(jobs);
        assert!(server.state.queue.lock().unwrap().waiting.is_empty());
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
        assert_eq!(jobs.compact["job-done"].status.label(), "failed");
        assert_eq!(jobs.compact["job-done"].cells_done, 0);
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
        state.drain();
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

    /// Serves `cfg` on a thread; the receiver gets `Server::run`'s result.
    fn serve(
        cfg: &DaemonConfig,
    ) -> (
        SocketAddr,
        Arc<ServerState>,
        std::sync::mpsc::Receiver<std::io::Result<()>>,
    ) {
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let state = Arc::clone(&server.state);
        let (ran, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = ran.send(server.run());
        });
        (addr, state, finished)
    }

    /// A parsed `POST /jobs` carrying `body`.
    fn post_jobs(body: &[u8]) -> Request {
        let mut raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        let Parse::Complete(req, _) = parse_request(&raw) else {
            panic!("request parses");
        };
        req
    }

    /// Sends `POST /shutdown` and reads the reply until the daemon closes.
    fn post_shutdown(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn shutdown_wakes_the_blocking_accept() {
        let cfg = temp_cfg("shutdown");
        let (addr, _, finished) = serve(&cfg);
        let reply = post_shutdown(addr);
        assert!(reply.starts_with("HTTP/1.1 202"), "{reply}");
        // No other client connects: only the drain's own connection can
        // wake the accept loop.
        let ran = finished.recv_timeout(Duration::from_secs(1));
        assert!(
            matches!(ran, Ok(Ok(()))),
            "Server::run did not return: {ran:?}"
        );
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn a_failed_submission_queues_nothing_and_drain_still_completes() {
        let cfg = temp_cfg("submit-ro");
        let (addr, state, finished) = serve(&cfg);
        *state.manifest.lock().unwrap() = Manifest::open_read_only(&cfg.state_dir).unwrap();
        let req = post_jobs(
            br#"{"kind": "attack", "strategy": "context_aware", "attack": "acceleration", "reps": 1}"#,
        );
        let reply = String::from_utf8_lossy(&submit_job(&req, &state).to_bytes(true)).into_owned();
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(
            stats_body(&state).contains("\"queue_depth\": 0"),
            "{}",
            stats_body(&state)
        );
        assert_eq!(state.queue.lock().unwrap().reserved, 0);

        assert!(post_shutdown(addr).starts_with("HTTP/1.1 202"));
        let ran = finished.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(ran, Ok(Ok(()))),
            "Server::run did not return: {ran:?}"
        );
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn a_job_stream_ends_only_after_its_outcome_is_published() {
        let cfg = temp_cfg("publish");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let spec =
            JobSpec::from_object(&parse_object(br#"{"kind": "resilience", "reps": 1}"#).unwrap())
                .unwrap();
        let cases = [
            (
                JobOutcome::Completed {
                    report: "{}".to_string(),
                },
                "completed",
                Some("{}"),
            ),
            (
                JobOutcome::Failed {
                    reason: "quarantined".to_string(),
                },
                "failed",
                None,
            ),
            (JobOutcome::Interrupted, "interrupted", None),
        ];
        let state = &server.state;
        for (outcome, label, report) in cases {
            let id = format!("job-publish-{label}");
            let job = state.admit(id.clone(), spec.clone());
            state.set_status(&job, JobStatus::Running);
            // Hold the status: the publisher sets it before anything that
            // ends the stream, so the stream stays open until the guard
            // goes.
            let held = job.status.lock().unwrap();
            let publisher = {
                let (state, job) = (Arc::clone(&server.state), Arc::clone(&job));
                std::thread::spawn(move || publish_outcome(&state, &job, Ok(outcome)))
            };
            let (early, finished) = job.progress.wait_events(0, Duration::from_millis(200));
            assert!(early.is_empty() && !finished, "{label}: {early:?}");
            drop(held);
            publisher.join().unwrap();

            let (events, finished) = job.progress.wait_events(0, Duration::ZERO);
            assert!(finished, "{label}");
            assert_eq!(job.status.lock().unwrap().label(), label);
            assert_eq!(job.report.lock().unwrap().as_deref(), report, "{label}");
            let (newest, record) = state.jobs.lock().unwrap().window.back().cloned().unwrap();
            assert_eq!(
                (newest.as_str(), record.status.label()),
                (id.as_str(), label)
            );
            // Each label is published once, so its count reads 1.
            let stats = stats_body(state);
            assert!(
                stats.contains(&format!("\"{label}\": 1")) && stats.contains("\"running\": 0"),
                "{label}: {stats}"
            );
            let lines: Vec<String> = events.iter().map(|e| e.render("job-publish")).collect();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(
                lines[0].contains(&format!("\"status\": \"{label}\"")),
                "{lines:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn an_oversized_job_is_rejected_before_it_is_recorded() {
        let cfg = temp_cfg("oversized");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let req = post_jobs(
            br#"{"kind": "attack", "strategy": "random_st", "attack": "acceleration", "reps": 4294967295}"#,
        );
        let reply =
            String::from_utf8_lossy(&submit_job(&req, &server.state).to_bytes(true)).into_owned();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("100000"), "{reply}");
        assert!(load_manifest(&cfg.state_dir).unwrap().is_empty());
        assert!(server.state.queue.lock().unwrap().waiting.is_empty());
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    /// Drains the daemon at `addr` and waits for its `Server::run` to return.
    fn shut_down(addr: SocketAddr, finished: &std::sync::mpsc::Receiver<std::io::Result<()>>) {
        assert!(post_shutdown(addr).starts_with("HTTP/1.1 202"));
        let ran = finished.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(ran, Ok(Ok(()))),
            "Server::run did not return: {ran:?}"
        );
    }

    /// Sends one request that asks the daemon to close the connection and
    /// reads the reply to EOF: its status code and its body.
    fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("{raw}"));
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("{head}"));
        (status, body.to_string())
    }

    /// What a client read of one job once its stream ended.
    struct Served {
        id: String,
        status: String,
        report: String,
    }

    /// Runs `n` 12-cell attack jobs one after another: submits each, reads
    /// its stream to EOF, then reads its `/jobs/<id>` body and its report.
    /// After each job the table holds no more than the window in full.
    fn run_jobs(addr: SocketAddr, state: &ServerState, n: usize) -> Vec<Served> {
        (0..n)
            .map(|seed| {
                let spec = format!(
                    "{{\"kind\": \"attack\", \"strategy\": \"context_aware\", \
\"attack\": \"acceleration\", \"base_seed\": {seed}, \"reps\": 1}}"
                );
                let (code, body) = exchange(addr, "POST", "/jobs", &spec);
                assert_eq!(code, 202, "{body}");
                let id = body.split('"').nth(3).unwrap().to_string();
                let (_, events) = exchange(addr, "GET", &format!("/jobs/{id}/stream"), "");
                let last = events.lines().last().unwrap_or_default();
                assert!(last.contains("\"status\": \"completed\""), "{events}");
                let (_, status) = exchange(addr, "GET", &format!("/jobs/{id}"), "");
                let (code, report) = exchange(addr, "GET", &format!("/jobs/{id}/report"), "");
                assert_eq!(code, 200, "{report}");
                let jobs = state.jobs.lock().unwrap();
                let unfinished = state.counts.queued.load(Ordering::SeqCst)
                    + state.counts.running.load(Ordering::SeqCst);
                assert!(jobs.window.len() <= FINISHED_WINDOW);
                assert!(jobs.full.len() as u64 <= FINISHED_WINDOW as u64 + unfinished);
                drop(jobs);
                Served { id, status, report }
            })
            .collect()
    }

    /// Checks that a finished job serves the `/jobs/<id>` body and the
    /// report read at its completion, and streams its terminal event alone.
    fn assert_served_from_its_record(addr: SocketAddr, job: &Served) {
        let path = format!("/jobs/{}", job.id);
        assert_eq!(exchange(addr, "GET", &path, ""), (200, job.status.clone()));
        let report = exchange(addr, "GET", &format!("{path}/report"), "");
        assert_eq!(report, (200, job.report.clone()));
        let terminal = format!(
            "{{\"event\": \"job\", \"id\": \"{}\", \"status\": \"completed\", \
\"cells_total\": 12}}\n",
            job.id
        );
        let stream = exchange(addr, "GET", &format!("{path}/stream"), "");
        assert_eq!(stream, (200, terminal));
    }

    #[test]
    fn finished_jobs_past_the_window_are_served_from_their_checkpoints() {
        let cfg = temp_cfg("window");
        let (addr, state, finished) = serve(&cfg);
        let n = 3 * FINISHED_WINDOW;
        let served = run_jobs(addr, &state, n);

        let jobs = state.jobs.lock().unwrap();
        assert_eq!(
            (jobs.full.len(), jobs.window.len(), jobs.compact.len()),
            (FINISHED_WINDOW, FINISHED_WINDOW, n - FINISHED_WINDOW)
        );
        drop(jobs);
        for job in &served[..n - FINISHED_WINDOW] {
            assert_served_from_its_record(addr, job);
        }
        let (_, stats) = exchange(addr, "GET", "/stats", "");
        assert!(
            stats.contains(&format!(
                "\"jobs\": {{\"queued\": 0, \"running\": 0, \"completed\": {n}, \"failed\": 0, \
\"interrupted\": 0}}"
            )),
            "{stats}"
        );

        // Without its WAL an evicted job's report cannot be rebuilt: the
        // request fails closed and is counted.
        let first = &served[0].id;
        std::fs::remove_file(wal_path(&cfg.state_dir, first)).unwrap();
        let (code, body) = exchange(addr, "GET", &format!("/jobs/{first}/report"), "");
        assert_eq!(code, 500, "{body}");
        assert_eq!(state.stats.io_errors.load(Ordering::SeqCst), 1);
        let status = exchange(addr, "GET", &format!("/jobs/{first}"), "");
        assert_eq!(status, (200, served[0].status.clone()));

        shut_down(addr, &finished);
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn resume_holds_no_reports_and_serves_each_byte_identical() {
        let cfg = temp_cfg("resume-window");
        let (addr, state, finished) = serve(&cfg);
        let n = FINISHED_WINDOW + 4;
        let served = run_jobs(addr, &state, n);
        shut_down(addr, &finished);

        let (addr, state, finished) = serve(&DaemonConfig {
            resume: true,
            ..cfg.clone()
        });
        let jobs = state.jobs.lock().unwrap();
        assert!(jobs.full.is_empty() && jobs.window.is_empty());
        assert_eq!(jobs.compact.len(), n);
        drop(jobs);
        for job in &served {
            assert_served_from_its_record(addr, job);
        }
        let (_, stats) = exchange(addr, "GET", "/stats", "");
        assert!(stats.contains(&format!("\"completed\": {n}, ")), "{stats}");
        assert!(stats.contains("\"io_errors\": 0"), "{stats}");

        shut_down(addr, &finished);
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn an_idle_keep_alive_connection_does_not_hold_up_the_drain() {
        let cfg = temp_cfg("idle-drain");
        let (addr, _, finished) = serve(&cfg);
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = [0u8; 512];
        let read = idle.read(&mut reply).unwrap();
        let head = String::from_utf8_lossy(&reply[..read]).into_owned();
        assert!(
            head.starts_with("HTTP/1.1 200") && !head.contains("Connection: close"),
            "{head}"
        );

        assert!(post_shutdown(addr).starts_with("HTTP/1.1 202"));
        let ran = finished.recv_timeout(Duration::from_secs(1));
        assert!(
            matches!(ran, Ok(Ok(()))),
            "Server::run did not return: {ran:?}"
        );
        // The daemon ended the idle connection.
        assert_eq!(idle.read(&mut reply).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    /// Opens a stream on job `id`, waits for its head, and reads the rest
    /// to EOF on a thread; the receiver gets the body and the instant EOF
    /// arrived.
    fn stream_to_eof(addr: SocketAddr, id: &str) -> std::sync::mpsc::Receiver<(String, Instant)> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = format!("GET /jobs/{id}/stream HTTP/1.1\r\nHost: x\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
            let mut chunk = [0u8; 512];
            let read = stream.read(&mut chunk).unwrap();
            assert!(read > 0, "the stream closed before its head");
            raw.extend_from_slice(&chunk[..read]);
        }
        let (sent, received) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = stream.read_to_end(&mut raw);
            let _ = sent.send((String::from_utf8_lossy(&raw).into_owned(), Instant::now()));
        });
        received
    }

    #[test]
    fn a_drain_interrupts_queued_jobs_and_ends_their_streams() {
        let mut cfg = temp_cfg("drain-queued");
        cfg.supervisor.workers = 1;
        let (addr, state, finished) = serve(&cfg);
        let slow = "{\"kind\": \"attack\", \"strategy\": \"context_aware\", \
\"attack\": \"acceleration\", \"reps\": 1, \"delay_cells\": \
[[0, 200], [1, 200], [2, 200], [3, 200], [4, 200], [5, 200]]}";
        let (code, body) = exchange(addr, "POST", "/jobs", slow);
        assert_eq!(code, 202, "{body}");
        let running = body.split('"').nth(3).unwrap().to_string();
        while state.counts.running.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (code, body) = exchange(
            addr,
            "POST",
            "/jobs",
            r#"{"kind": "resilience", "base_seed": 9, "reps": 1}"#,
        );
        assert_eq!(code, 202, "{body}");
        let queued = body.split('"').nth(3).unwrap().to_string();
        let eof = stream_to_eof(addr, &queued);

        let asked = Instant::now();
        assert!(post_shutdown(addr).starts_with("HTTP/1.1 202"));
        let (raw, at) = eof.recv_timeout(Duration::from_secs(10)).unwrap();
        let took = at.duration_since(asked);
        assert!(
            took < Duration::from_secs(1),
            "EOF came {took:?} after the shutdown"
        );
        let interrupted =
            format!("{{\"event\": \"job\", \"id\": \"{queued}\", \"status\": \"interrupted\"}}");
        assert_eq!(raw.lines().last(), Some(interrupted.as_str()), "{raw}");
        let ran = finished.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(ran, Ok(Ok(()))),
            "Server::run did not return: {ran:?}"
        );
        let stats = stats_body(&state);
        assert!(
            stats.contains("\"queue_depth\": 0")
                && stats.contains("\"queued\": 0, \"running\": 0")
                && stats.contains("\"interrupted\": 2"),
            "{stats}"
        );
        let entries = load_manifest(&cfg.state_dir).unwrap();
        assert!(
            entries.iter().all(|entry| entry.done.is_none()),
            "{entries:?}"
        );

        let resumed = Server::bind(
            "127.0.0.1:0",
            DaemonConfig {
                resume: true,
                ..cfg.clone()
            },
        )
        .unwrap();
        let queue = resumed.state.queue.lock().unwrap();
        let waiting: Vec<&str> = queue.waiting.iter().map(|job| job.id.as_str()).collect();
        assert_eq!(waiting, [running.as_str(), queued.as_str()]);
        drop(queue);
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn a_job_recorded_as_the_drain_starts_is_interrupted_not_queued() {
        let cfg = temp_cfg("drain-submit");
        let server = Server::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let state = Arc::clone(&server.state);
        // Hold the manifest so that the submission stops between its drain
        // check and its push, then start the drain.
        let manifest = state.manifest.lock().unwrap();
        let submitter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let req = post_jobs(br#"{"kind": "resilience", "reps": 1}"#);
                String::from_utf8_lossy(&submit_job(&req, &state).to_bytes(true)).into_owned()
            })
        };
        while state.queue.lock().unwrap().reserved == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        state.drain();
        drop(manifest);
        let reply = submitter.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 202"), "{reply}");

        assert!(state.queue.lock().unwrap().waiting.is_empty());
        let (_, body) = reply.split_once("\r\n\r\n").unwrap();
        let id = body.split('"').nth(3).unwrap();
        let Some(Held::Full(job)) = state.lookup(id) else {
            panic!("{id} is not held in full");
        };
        assert_eq!(job.status.lock().unwrap().label(), "interrupted");
        let (events, finished) = job.progress.wait_events(0, Duration::ZERO);
        assert!(finished);
        assert!(
            matches!(events.as_slice(), [Event::Interrupted]),
            "{events:?}"
        );
        let entries = load_manifest(&cfg.state_dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            (entries[0].id.as_str(), entries[0].done.as_deref()),
            (id, None)
        );
        let _ = std::fs::remove_dir_all(&cfg.state_dir);
    }

    #[test]
    fn status_labels_are_wire_stable() {
        assert_eq!(JobStatus::Queued.label(), "queued");
        assert_eq!(JobStatus::Failed("x".into()).label(), "failed");
        assert_eq!(JobStatus::Interrupted.label(), "interrupted");
    }
}
