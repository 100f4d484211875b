//! Per-job supervision: one cell fan-out per job, with cell-level panic
//! isolation, bounded deterministic retry, wall-clock deadlines,
//! quarantine, and completion-order checkpointing.
//!
//! The supervisor never trusts a cell. Every attempt runs inside
//! [`platform::pool::catch_cell`], so a panicking simulation becomes an
//! `Err(CellPanic)` in that cell's slot instead of failing the fan-out
//! (which would re-raise the panic and abandon the job's other cells).
//! Failed cells are retried serially, once the fan-out is over, with
//! exponential backoff — `base * 2^(attempt-1)`, a fixed deterministic
//! schedule, not jitter — and a cell that exhausts its attempt budget is
//! *quarantined*: recorded, reported, and routed around, so one
//! pathological seed cannot wedge a million-cell campaign.
//!
//! A job's missing cells go through one
//! [`platform::experiment::run_campaign_cells`] fan-out. Before each cell
//! a worker checks for a drain, the deadline and a failed WAL write, and
//! skips the cell if it finds one; a cell's chaos delay repeats the check
//! every 10 ms and skips the cell as soon as one turns up, so a drain or
//! a deadline never waits a delay out. After each cell it appends the result
//! to the WAL in completion order and fsyncs the file once per
//! [`SupervisorConfig::sync_cells`] appends. The WAL is keyed by cell
//! index, first write wins, so completion order never reaches a report. A
//! kill at any instant loses at most one sync group plus the cells in
//! flight, and never a synced cell.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use platform::experiment::{run_campaign_cells, RunnerConfig};
use platform::json::{self, Layout};
use platform::pool::{catch_cell, CellPanic};
use platform::trace::Histogram;
use platform::SimResult;

use crate::checkpoint::{load_wal, wal_path, WalWriter};
use crate::spec::{CellSpec, JobSpec};

/// Supervision policy for every job the daemon runs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Workers in a job's cell fan-out: the supervisor thread plus
    /// `workers − 1` scoped threads (0 = auto: every core).
    pub workers: usize,
    /// Total attempts per cell before quarantine (first run + retries).
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// Per-job wall-clock deadline in milliseconds (0 = unbounded).
    pub deadline_ms: u64,
    /// WAL appends per fsync (0 = auto: `4 *` resolved workers).
    pub sync_cells: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_attempts: 3,
            backoff_base_ms: 10,
            deadline_ms: 0,
            sync_cells: 0,
        }
    }
}

/// Daemon-wide execution counters, shared by the supervisor (writes) and
/// `/stats` (reads).
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Cells completed successfully (first try or retry).
    pub cells_done: AtomicU64,
    /// Retry attempts performed.
    pub retries: AtomicU64,
    /// Cells quarantined after exhausting their attempt budget.
    pub quarantined: AtomicU64,
    /// Cell attempts currently executing in a fan-out.
    pub in_flight: AtomicU64,
    /// State-directory reads and writes that failed (manifest records,
    /// checkpoints loaded on `--resume`, jobs stopped by a WAL error, and
    /// reports that could not be rebuilt from a checkpoint); each is also
    /// logged to stderr with its job id.
    pub io_errors: AtomicU64,
    /// Wall-clock seconds per successful cell attempt, 0–1 s in 20 bins.
    pub cell_seconds: Mutex<Option<Histogram>>,
}

impl DaemonStats {
    fn record_cell_seconds(&self, secs: f64) {
        let mut guard = self
            .cell_seconds
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard
            .get_or_insert_with(|| Histogram::new(0.0, 1.0, 20))
            .record(secs);
    }

    /// `(count, mean seconds, sparkline)` of the cell-duration histogram.
    pub fn cell_seconds_summary(&self) -> (u64, f64, String) {
        let guard = self
            .cell_seconds
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(h) => (h.count(), h.mean(), h.sparkline()),
            None => (0, 0.0, "∅".to_string()),
        }
    }
}

/// One entry of a job's event journal.
///
/// The journal keeps events typed, a few machine words each, and
/// [`render`](Self::render) turns one into its NDJSON line only when a
/// stream reads it. A finished job's journal therefore holds no text, and
/// the fan-out's workers that append cell events format nothing. Events
/// are in arrival order: a job's cell events follow the order its cells
/// finish.
#[derive(Debug, Clone)]
pub enum Event {
    /// The job started, adopting `checkpointed` cells from its WAL.
    Running {
        /// Cells in the plan.
        cells_total: usize,
        /// Cells already in the WAL.
        checkpointed: usize,
    },
    /// A cell succeeded in the job's parallel first pass.
    CellOk {
        /// Cell index in the plan.
        idx: usize,
        /// The successful attempt (1-based).
        attempt: u32,
    },
    /// A cell succeeded on a serial retry.
    CellRetryOk {
        /// Cell index in the plan.
        idx: usize,
        /// The successful attempt (1-based).
        attempt: u32,
    },
    /// A cell attempt panicked.
    CellPanic {
        /// Cell index in the plan.
        idx: usize,
        /// The failed attempt (1-based).
        attempt: u32,
        /// The panic message.
        message: String,
    },
    /// A cell exhausted its attempt budget.
    CellQuarantined {
        /// Cell index in the plan.
        idx: usize,
        /// Attempts made.
        attempts: u32,
    },
    /// Every cell completed; the report is served.
    Completed {
        /// Cells in the plan.
        cells_total: usize,
    },
    /// The job failed terminally.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// Drain stopped the job with its progress checkpointed.
    Interrupted,
}

impl Event {
    /// The event's NDJSON line, without its newline, for job `job_id`.
    pub fn render(&self, job_id: &str) -> String {
        let (status, idx) = match self {
            Event::Running { .. } => ("running", None),
            Event::CellOk { idx, .. } => ("ok", Some(idx)),
            Event::CellRetryOk { idx, .. } => ("retry_ok", Some(idx)),
            Event::CellPanic { idx, .. } => ("panic", Some(idx)),
            Event::CellQuarantined { idx, .. } => ("quarantined", Some(idx)),
            Event::Completed { .. } => ("completed", None),
            Event::Failed { .. } => ("failed", None),
            Event::Interrupted => ("interrupted", None),
        };
        json::object(Layout::Line, |o| {
            match idx {
                Some(idx) => o.field("event", "cell").field("idx", idx),
                None => o.field("event", "job").field("id", job_id),
            }
            .field("status", status);
            match self {
                Event::Running {
                    cells_total,
                    checkpointed,
                } => o
                    .field("cells_total", cells_total)
                    .field("checkpointed", checkpointed),
                Event::CellOk { attempt, .. } | Event::CellRetryOk { attempt, .. } => {
                    o.field("attempt", attempt)
                }
                Event::CellPanic {
                    attempt, message, ..
                } => o.field("attempt", attempt).field("message", message),
                Event::CellQuarantined { attempts, .. } => o.field("attempts", attempts),
                Event::Completed { cells_total } => o.field("cells_total", cells_total),
                Event::Failed { reason } => o.field("reason", reason),
                Event::Interrupted => o,
            };
        })
    }
}

/// Live progress of one job: counters for `/jobs/<id>`, the event journal
/// for `/jobs/<id>/stream`, and the wakeup for blocked streamers.
#[derive(Debug)]
pub struct JobProgress {
    /// Cells in the plan.
    pub cells_total: u64,
    /// Cells completed (including checkpointed ones adopted on resume).
    pub cells_done: AtomicU64,
    /// Retry attempts this job consumed.
    pub retries: AtomicU64,
    /// Quarantined cell indices.
    pub quarantined: Mutex<Vec<usize>>,
    events: Mutex<Vec<Event>>,
    events_cv: Condvar,
    /// Set once the job reaches a terminal state (or is interrupted).
    pub finished: AtomicBool,
}

impl JobProgress {
    /// Fresh progress for a plan of `cells_total` cells.
    pub fn new(cells_total: u64) -> Self {
        Self {
            cells_total,
            cells_done: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            events_cv: Condvar::new(),
            finished: AtomicBool::new(false),
        }
    }

    /// Appends one event to the journal and wakes streaming subscribers.
    pub fn push_event(&self, event: Event) {
        let mut guard = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        // adas-lint: allow(R14, reason = "the event log is an arrival-ordered journal by contract; campaign results merge by index in the WAL and the fan-out's plan-ordered output, never through this log")
        guard.push(event);
        drop(guard);
        self.events_cv.notify_all();
    }

    /// Marks the job finished and wakes streamers so they can drain and
    /// close.
    pub fn mark_finished(&self) {
        self.finished.store(true, Ordering::SeqCst);
        self.events_cv.notify_all();
    }

    /// Returns events after index `seen` and the finished flag, blocking
    /// up to `timeout` when nothing new is available yet.
    pub fn wait_events(&self, seen: usize, timeout: Duration) -> (Vec<Event>, bool) {
        let deadline = Instant::now() + timeout;
        let mut guard = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        // Predicate loop: spurious wakeups re-check and re-wait for the
        // remaining budget.
        while guard.len() <= seen && !self.finished.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (reacquired, _) = self
                .events_cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = reacquired;
        }
        let fresh = guard.get(seen..).unwrap_or_default().to_vec();
        drop(guard);
        (fresh, self.finished.load(Ordering::SeqCst))
    }
}

/// Terminal (or interrupted) outcome of one supervised job. The caller
/// publishes it: it stores the report and the status, then pushes the
/// matching terminal event and closes the job's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every cell completed; the final report is rendered.
    Completed {
        /// The `BENCH_*`-shaped report.
        report: String,
    },
    /// The job is terminally failed (quarantine or deadline).
    Failed {
        /// Human-readable reason, also the last stream event.
        reason: String,
    },
    /// Drain was requested mid-job: progress is checkpointed, the job is
    /// *not* terminal — a `--resume` picks it up where the WAL ends.
    Interrupted,
}

type Attempted = (u32, f64, Result<SimResult, CellPanic>);

/// How long a chaos delay sleeps between two checks of whether its job
/// must stop.
const DELAY_SLICE: Duration = Duration::from_millis(10);

/// Runs one attempt at cell `gi`. The cell's chaos delay sleeps in
/// [`DELAY_SLICE`]s and checks `halted` before each; `None` means it found
/// the job stopping and cut the attempt short before the cell ran.
fn attempt_cell(
    gi: usize,
    cell: &CellSpec,
    spec: &JobSpec,
    attempt: u32,
    halted: &dyn Fn() -> bool,
) -> Option<Attempted> {
    let started = Instant::now();
    let delay = Duration::from_millis(spec.chaos.delay_for(gi));
    loop {
        let left = delay.saturating_sub(started.elapsed());
        if left.is_zero() {
            break;
        }
        if halted() {
            return None;
        }
        std::thread::sleep(left.min(DELAY_SLICE));
    }
    let panic_budget = spec.chaos.panics_for(gi);
    let result = catch_cell(move || {
        // The chaos tests' injected fault: a deliberate panic on the cell's
        // first `panic_budget` attempts, caught one line up by `catch_cell`
        // and healed by the retry ladder.
        #[expect(
            clippy::panic,
            reason = "chaos fault injection, caught by the enclosing catch_cell and healed by the retry ladder"
        )]
        if attempt <= panic_budget {
            panic!("chaos: injected panic (cell {gi}, attempt {attempt})");
        }
        cell.run()
    });
    Some((attempt, started.elapsed().as_secs_f64(), result))
}

/// A job's WAL as the fan-out's workers share it: appends in completion
/// order, one fsync per `sync_cells` appends, and the first failed append
/// or sync latched so that no later cell starts.
struct JobWal {
    writer: WalWriter,
    sync_cells: usize,
    unsynced: usize,
    error: Option<std::io::Error>,
}

impl JobWal {
    fn append_cell(&mut self, idx: usize, result: &SimResult) -> std::io::Result<()> {
        self.writer.append_cell(idx, result)?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_cells {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.writer.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Whether an append or a sync has failed.
    fn failed(wal: &Mutex<Self>) -> bool {
        wal.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .error
            .is_some()
    }
}

/// Whether a job started at `started` is past `cfg`'s deadline.
fn past_deadline(cfg: &SupervisorConfig, started: Instant) -> bool {
    cfg.deadline_ms > 0 && started.elapsed().as_millis() as u64 >= cfg.deadline_ms
}

/// Syncs the WAL's tail, then ends the job with `outcome`.
fn settle(wal: &Mutex<JobWal>, outcome: JobOutcome) -> std::io::Result<JobOutcome> {
    wal.lock().unwrap_or_else(PoisonError::into_inner).sync()?;
    Ok(outcome)
}

/// Runs one job to an outcome, checkpointing into `state_dir`.
///
/// On entry the WAL (if any) is replayed and only missing cells execute;
/// the returned `Completed` report is therefore byte-identical whether
/// the job ran once uninterrupted or across any number of resumes — the
/// chaos test's central assertion. The job's journal gets its `running`
/// and cell events here; the terminal event is the caller's to push once
/// it has published the outcome.
pub fn run_job(
    cfg: &SupervisorConfig,
    job_id: &str,
    spec: &JobSpec,
    state_dir: &Path,
    progress: &JobProgress,
    stats: &DaemonStats,
    drain: &AtomicBool,
) -> std::io::Result<JobOutcome> {
    let started = Instant::now();
    let plan = spec.plan();
    let n = plan.len();
    let path = wal_path(state_dir, job_id);
    // Results by cell index, so key order is plan order: the checkpointed
    // cells now, the rest as they land.
    let mut results = load_wal(&path, job_id)?;
    let writer = WalWriter::open(&path, job_id)?;

    progress
        .cells_done
        .store(results.len() as u64, Ordering::SeqCst);
    progress.push_event(Event::Running {
        cells_total: n,
        checkpointed: results.len(),
    });

    results.retain(|&idx, _| idx < n);
    let missing: Vec<(usize, &CellSpec)> = plan
        .iter()
        .enumerate()
        .filter(|(gi, _)| !results.contains_key(gi))
        .collect();

    let workers = RunnerConfig::with_workers(if cfg.workers == 0 {
        platform::experiment::detected_cores()
    } else {
        cfg.workers
    });
    let sync_cells = if cfg.sync_cells == 0 {
        4 * workers.worker_count(n.max(1))
    } else {
        cfg.sync_cells
    }
    .max(1);
    let wal = Mutex::new(JobWal {
        writer,
        sync_cells,
        unsynced: 0,
        error: None,
    });
    let deadline_reason = || {
        format!(
            "deadline exceeded after {} of {n} cells",
            progress.cells_done.load(Ordering::SeqCst)
        )
    };

    // Parallel first pass: each worker checks before a cell (and during its
    // chaos delay) whether the job must stop, then checkpoints and streams
    // the cell as it lands. A skipped cell comes back as `None`.
    let halted =
        || drain.load(Ordering::SeqCst) || past_deadline(cfg, started) || JobWal::failed(&wal);
    let outcomes = run_campaign_cells(workers, missing.clone(), |&(gi, cell)| {
        if halted() {
            return None;
        }
        stats.in_flight.fetch_add(1, Ordering::SeqCst);
        let attempted = attempt_cell(gi, cell, spec, 1, &halted);
        stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        let attempted = attempted?;
        let (attempt, secs, outcome) = &attempted;
        match outcome {
            Ok(result) => {
                let mut writer = wal.lock().unwrap_or_else(PoisonError::into_inner);
                if let Err(e) = writer.append_cell(gi, result) {
                    writer.error.get_or_insert(e);
                }
                drop(writer);
                progress.cells_done.fetch_add(1, Ordering::SeqCst);
                stats.cells_done.fetch_add(1, Ordering::SeqCst);
                stats.record_cell_seconds(*secs);
                progress.push_event(Event::CellOk {
                    idx: gi,
                    attempt: *attempt,
                });
            }
            Err(panic) => progress.push_event(Event::CellPanic {
                idx: gi,
                attempt: *attempt,
                message: panic.message.clone(),
            }),
        }
        Some(attempted)
    });
    let latched = wal
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .error
        .take();
    if let Some(e) = latched {
        return Err(e);
    }
    if outcomes.iter().any(Option::is_none) {
        let outcome = if drain.load(Ordering::SeqCst) {
            JobOutcome::Interrupted
        } else {
            JobOutcome::Failed {
                reason: deadline_reason(),
            }
        };
        return settle(&wal, outcome);
    }

    // Serial retry ladder for the pass's failures, in plan order, with
    // deterministic exponential backoff between attempts.
    let mut quarantine: Vec<usize> = Vec::new();
    for (&(gi, cell), (attempt, _, outcome)) in missing.iter().zip(outcomes.into_iter().flatten()) {
        let result = match outcome {
            Ok(result) => result,
            Err(_) => match retry_cell(
                cfg, spec, gi, cell, attempt, progress, stats, drain, started,
            ) {
                Retry::Ok(result) => {
                    wal.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append_cell(gi, &result)?;
                    progress.cells_done.fetch_add(1, Ordering::SeqCst);
                    stats.cells_done.fetch_add(1, Ordering::SeqCst);
                    *result
                }
                Retry::Quarantined => {
                    quarantine.push(gi);
                    continue;
                }
                Retry::Drained => return settle(&wal, JobOutcome::Interrupted),
                Retry::DeadlineHit => {
                    return settle(
                        &wal,
                        JobOutcome::Failed {
                            reason: deadline_reason(),
                        },
                    )
                }
            },
        };
        results.insert(gi, result);
    }

    if !quarantine.is_empty() {
        let listed: Vec<String> = quarantine.iter().map(usize::to_string).collect();
        let mut held = progress
            .quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        held.extend_from_slice(&quarantine);
        drop(held);
        let reason = format!(
            "{} cell(s) quarantined after {} attempts each: [{}]",
            quarantine.len(),
            cfg.max_attempts,
            listed.join(", ")
        );
        return settle(&wal, JobOutcome::Failed { reason });
    }

    let complete: Vec<SimResult> = results.into_values().collect();
    debug_assert_eq!(complete.len(), n);
    let report = spec.report(&complete);
    settle(&wal, JobOutcome::Completed { report })
}

enum Retry {
    Ok(Box<SimResult>),
    Quarantined,
    Drained,
    DeadlineHit,
}

/// Retries cell `gi` after its `tried` failed attempts, until it succeeds,
/// exhausts `cfg.max_attempts`, or the job must stop (checked before each
/// attempt and during its chaos delay).
#[allow(clippy::too_many_arguments)]
fn retry_cell(
    cfg: &SupervisorConfig,
    spec: &JobSpec,
    gi: usize,
    cell: &CellSpec,
    mut tried: u32,
    progress: &JobProgress,
    stats: &DaemonStats,
    drain: &AtomicBool,
    job_started: Instant,
) -> Retry {
    let halted = || drain.load(Ordering::SeqCst) || past_deadline(cfg, job_started);
    loop {
        if tried >= cfg.max_attempts {
            progress.push_event(Event::CellQuarantined {
                idx: gi,
                attempts: tried,
            });
            stats.quarantined.fetch_add(1, Ordering::SeqCst);
            return Retry::Quarantined;
        }
        if drain.load(Ordering::SeqCst) {
            return Retry::Drained;
        }
        if past_deadline(cfg, job_started) {
            return Retry::DeadlineHit;
        }
        // Deterministic schedule: 1x, 2x, 4x ... the base per retry rank.
        let backoff = cfg
            .backoff_base_ms
            .saturating_mul(1u64 << (tried - 1).min(16));
        std::thread::sleep(Duration::from_millis(backoff));
        stats.retries.fetch_add(1, Ordering::SeqCst);
        progress.retries.fetch_add(1, Ordering::SeqCst);
        tried += 1;
        let Some((attempt, secs, outcome)) = attempt_cell(gi, cell, spec, tried, &halted) else {
            return if drain.load(Ordering::SeqCst) {
                Retry::Drained
            } else {
                Retry::DeadlineHit
            };
        };
        match outcome {
            Ok(result) => {
                stats.record_cell_seconds(secs);
                progress.push_event(Event::CellRetryOk { idx: gi, attempt });
                return Retry::Ok(Box::new(result));
            }
            Err(panic) => {
                progress.push_event(Event::CellPanic {
                    idx: gi,
                    attempt,
                    message: panic.message,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChaosKnobs, JobKind};
    use defense::DefensePolicy;
    use std::sync::Arc;

    fn tiny_job(chaos: ChaosKnobs) -> JobSpec {
        JobSpec {
            kind: JobKind::Resilience {
                defense: DefensePolicy::Degrade,
            },
            base_seed: 3,
            reps: 1,
            chaos,
        }
    }

    fn temp_state(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("campaignd-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run(
        cfg: &SupervisorConfig,
        job_id: &str,
        spec: &JobSpec,
        dir: &Path,
    ) -> (JobOutcome, Arc<JobProgress>) {
        let progress = Arc::new(JobProgress::new(spec.plan().len() as u64));
        let stats = Arc::new(DaemonStats::default());
        let outcome = run_job(
            cfg,
            job_id,
            spec,
            dir,
            &progress,
            &stats,
            &Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        (outcome, progress)
    }

    #[test]
    fn chaos_panics_are_retried_to_a_byte_identical_report() {
        let dir = temp_state("retry");
        let clean = tiny_job(ChaosKnobs::default());
        let chaotic = tiny_job(ChaosKnobs {
            panic_cells: vec![(3, 1), (17, 2), (100, 1)],
            delay_cells: Vec::new(),
        });
        let cfg = SupervisorConfig {
            workers: 4,
            backoff_base_ms: 1,
            ..SupervisorConfig::default()
        };
        let (baseline, _) = run(&cfg, "job-clean", &clean, &dir);
        let (disturbed, progress) = run(&cfg, "job-chaos", &chaotic, &dir);
        match (baseline, disturbed) {
            (JobOutcome::Completed { report: a }, JobOutcome::Completed { report: b }) => {
                assert_eq!(a, b, "injected panics must not change the report");
            }
            other => panic!("{other:?}"),
        }
        assert!(progress.retries.load(Ordering::SeqCst) >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_attempts_quarantine_and_fail_the_job() {
        let dir = temp_state("quarantine");
        let spec = tiny_job(ChaosKnobs {
            panic_cells: vec![(5, 1000)], // never succeeds
            delay_cells: Vec::new(),
        });
        let cfg = SupervisorConfig {
            workers: 2,
            max_attempts: 3,
            backoff_base_ms: 1,
            ..SupervisorConfig::default()
        };
        let (outcome, progress) = run(&cfg, "job-q", &spec, &dir);
        match outcome {
            JobOutcome::Failed { reason } => {
                assert!(reason.contains("quarantined"), "{reason}");
                assert!(reason.contains('5'), "{reason}");
            }
            other @ (JobOutcome::Completed { .. } | JobOutcome::Interrupted) => {
                panic!("{other:?}")
            }
        }
        assert_eq!(
            *progress.quarantined.lock().unwrap(),
            vec![5],
            "exactly the cursed cell is quarantined"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_fails_the_job_before_completion() {
        let dir = temp_state("deadline");
        let spec = tiny_job(ChaosKnobs {
            panic_cells: Vec::new(),
            delay_cells: vec![(0, 50), (1, 50), (2, 50), (3, 50)],
        });
        let cfg = SupervisorConfig {
            workers: 1,
            deadline_ms: 1,
            sync_cells: 2,
            ..SupervisorConfig::default()
        };
        let (outcome, _) = run(&cfg, "job-dl", &spec, &dir);
        match outcome {
            JobOutcome::Failed { reason } => assert!(reason.contains("deadline"), "{reason}"),
            other @ (JobOutcome::Completed { .. } | JobOutcome::Interrupted) => {
                panic!("{other:?}")
            }
        }

        // A deadline that falls inside an 8 s chaos delay cuts the delay
        // short: the cell is skipped and the job fails within a second.
        let spec = tiny_job(ChaosKnobs {
            panic_cells: Vec::new(),
            delay_cells: vec![(0, 8_000)],
        });
        let cfg = SupervisorConfig {
            workers: 1,
            deadline_ms: 100,
            ..SupervisorConfig::default()
        };
        let started = Instant::now();
        let (outcome, progress) = run(&cfg, "job-dl-delay", &spec, &dir);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "the job took {took:?}");
        match outcome {
            JobOutcome::Failed { reason } => {
                assert_eq!(reason, "deadline exceeded after 0 of 216 cells");
            }
            other @ (JobOutcome::Completed { .. } | JobOutcome::Interrupted) => {
                panic!("{other:?}")
            }
        }
        assert_eq!(progress.cells_done.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drain_mid_fan_out_checkpoints_exactly_the_streamed_cells() {
        let dir = temp_state("drain");
        // Every cell dawdles, so the drain lands with cells in flight.
        let spec = tiny_job(ChaosKnobs {
            panic_cells: Vec::new(),
            delay_cells: (0..216).map(|i| (i, 5)).collect(),
        });
        let cfg = SupervisorConfig {
            workers: 4,
            sync_cells: 3,
            ..SupervisorConfig::default()
        };
        let progress = Arc::new(JobProgress::new(spec.plan().len() as u64));
        let drain = Arc::new(AtomicBool::new(false));
        let watcher_progress = Arc::clone(&progress);
        let watcher_drain = Arc::clone(&drain);
        let watcher = std::thread::spawn(move || {
            while watcher_progress.cells_done.load(Ordering::SeqCst) < 10 {
                std::thread::sleep(Duration::from_millis(1));
            }
            watcher_drain.store(true, Ordering::SeqCst);
        });
        let stats = Arc::new(DaemonStats::default());
        let outcome = run_job(&cfg, "job-drain", &spec, &dir, &progress, &stats, &drain).unwrap();
        watcher.join().unwrap();
        assert_eq!(outcome, JobOutcome::Interrupted);

        let (events, _) = progress.wait_events(0, Duration::ZERO);
        let streamed: std::collections::BTreeSet<usize> = events
            .iter()
            .filter_map(|event| {
                if let Event::CellOk { idx, .. } = event {
                    Some(*idx)
                } else {
                    None
                }
            })
            .collect();
        let checkpointed: std::collections::BTreeSet<usize> =
            load_wal(&wal_path(&dir, "job-drain"), "job-drain")
                .unwrap()
                .into_keys()
                .collect();
        assert_eq!(
            checkpointed, streamed,
            "every finished cell is checkpointed"
        );
        assert!(
            streamed.len() >= 10 && streamed.len() < 216,
            "{}",
            streamed.len()
        );

        // A drain that lands during an 8 s chaos delay cuts the delay short:
        // the cell is skipped and the job ends within a second of the drain.
        let spec = tiny_job(ChaosKnobs {
            panic_cells: Vec::new(),
            delay_cells: vec![(0, 8_000)],
        });
        let cfg = SupervisorConfig {
            workers: 1,
            ..SupervisorConfig::default()
        };
        let progress = Arc::new(JobProgress::new(spec.plan().len() as u64));
        let drain = Arc::new(AtomicBool::new(false));
        let watcher_drain = Arc::clone(&drain);
        let watcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            watcher_drain.store(true, Ordering::SeqCst);
            Instant::now()
        });
        let outcome = run_job(
            &cfg,
            "job-drain-delay",
            &spec,
            &dir,
            &progress,
            &stats,
            &drain,
        )
        .unwrap();
        let ended = Instant::now();
        let drained = watcher.join().unwrap();
        assert_eq!(outcome, JobOutcome::Interrupted);
        let took = ended.duration_since(drained);
        assert!(
            took < Duration::from_secs(1),
            "the job ended {took:?} after the drain"
        );
        assert_eq!(progress.cells_done.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_recomputes_only_missing_cells_bit_identically() {
        let dir = temp_state("resume");
        let spec = tiny_job(ChaosKnobs::default());
        let cfg = SupervisorConfig {
            workers: 4,
            ..SupervisorConfig::default()
        };
        // Uninterrupted baseline in a separate job id.
        let (baseline, _) = run(&cfg, "job-base", &spec, &dir);

        // First pass under an early drain: some cells land, then stop.
        let progress = Arc::new(JobProgress::new(spec.plan().len() as u64));
        let stats = Arc::new(DaemonStats::default());
        let small_chunks = SupervisorConfig {
            sync_cells: 16,
            ..cfg
        };
        // Drain early: flip the flag from a watcher thread once a few
        // cells complete.
        let watcher_progress = Arc::clone(&progress);
        let flag = Arc::new(AtomicBool::new(false));
        let watcher_flag = Arc::clone(&flag);
        let watcher = std::thread::spawn(move || {
            while watcher_progress.cells_done.load(Ordering::SeqCst) < 8 {
                std::thread::sleep(Duration::from_millis(1));
            }
            watcher_flag.store(true, Ordering::SeqCst);
        });
        let outcome = run_job(
            &small_chunks,
            "job-res",
            &spec,
            &dir,
            &progress,
            &stats,
            &flag,
        )
        .unwrap();
        watcher.join().unwrap();
        assert_eq!(outcome, JobOutcome::Interrupted);
        let done_first = progress.cells_done.load(Ordering::SeqCst);
        assert!(done_first >= 8, "some progress was checkpointed");
        assert!(
            (done_first as usize) < spec.plan().len(),
            "the job was genuinely interrupted"
        );

        // Resume: only the missing cells run, the report matches the
        // uninterrupted baseline byte for byte.
        let progress2 = Arc::new(JobProgress::new(spec.plan().len() as u64));
        let resumed = run_job(
            &cfg,
            "job-res",
            &spec,
            &dir,
            &progress2,
            &Arc::new(DaemonStats::default()),
            &Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        match (baseline, resumed) {
            (JobOutcome::Completed { report: a }, JobOutcome::Completed { report: b }) => {
                assert_eq!(a, b, "resume must be invisible in the report");
            }
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
