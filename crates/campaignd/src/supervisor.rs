//! Per-job supervision: chunked execution over the worker pool with
//! cell-level panic isolation, bounded deterministic retry, wall-clock
//! deadlines, quarantine, and per-chunk checkpointing.
//!
//! The supervisor never trusts a cell. Every attempt runs inside
//! [`platform::pool::catch_cell`], so a panicking simulation becomes an
//! `Err(CellPanic)` in that cell's slot instead of poisoning the batch
//! (the pool's own latch would re-raise the *first* panic and abandon the
//! submission). Failed cells are retried serially with exponential
//! backoff — `base * 2^(attempt-1)`, a fixed deterministic schedule, not
//! jitter — and a cell that exhausts its attempt budget is *quarantined*:
//! recorded, reported, and routed around, so one pathological seed cannot
//! wedge a million-cell campaign.
//!
//! Progress is durable at chunk granularity: completed cells stream
//! through [`platform::experiment::run_campaign_cells_observed`]'s
//! index-ordered hook into the WAL as they finish, and the file is
//! fsync'd once per chunk. A kill at any instant loses at most one
//! chunk of recompute and zero completed-and-synced cells.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use platform::experiment::{run_campaign_cells_observed, RunnerConfig};
use platform::pool::{catch_cell, CellPanic};
use platform::trace::Histogram;
use platform::SimResult;

use crate::checkpoint::{load_wal, wal_path, WalWriter};
use crate::spec::{CellSpec, JobSpec};
use crate::wire::escape;

/// Supervision policy for every job the daemon runs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Pool workers per chunk (0 = auto: every core).
    pub workers: usize,
    /// Total attempts per cell before quarantine (first run + retries).
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, in milliseconds.
    pub backoff_base_ms: u64,
    /// Per-job wall-clock deadline in milliseconds (0 = unbounded).
    pub deadline_ms: u64,
    /// Cells per chunk (0 = auto: `4 *` resolved workers).
    pub chunk_cells: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_attempts: 3,
            backoff_base_ms: 10,
            deadline_ms: 0,
            chunk_cells: 0,
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
    /// Cell attempts currently executing on pool workers.
    pub in_flight: AtomicU64,
    /// State-directory reads and writes that failed (manifest records,
    /// checkpoints loaded on `--resume`, and jobs stopped by a WAL error);
    /// each is also logged to stderr with its job id.
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
/// the index-ordered observe hook, which runs under the frontier lock,
/// formats nothing.
#[derive(Debug, Clone)]
pub enum Event {
    /// The job started, adopting `checkpointed` cells from its WAL.
    Running {
        /// Cells in the plan.
        cells_total: usize,
        /// Cells already in the WAL.
        checkpointed: usize,
    },
    /// A cell succeeded in its chunk's pooled pass.
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
    /// Every cell completed; the report is rendered.
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
        match self {
            Event::Running {
                cells_total,
                checkpointed,
            } => format!(
                "{{\"event\": \"job\", \"id\": \"{job_id}\", \"status\": \"running\", \
\"cells_total\": {cells_total}, \"checkpointed\": {checkpointed}}}"
            ),
            Event::CellOk { idx, attempt } => format!(
                "{{\"event\": \"cell\", \"idx\": {idx}, \"status\": \"ok\", \
\"attempt\": {attempt}}}"
            ),
            Event::CellRetryOk { idx, attempt } => format!(
                "{{\"event\": \"cell\", \"idx\": {idx}, \"status\": \"retry_ok\", \
\"attempt\": {attempt}}}"
            ),
            Event::CellPanic {
                idx,
                attempt,
                message,
            } => format!(
                "{{\"event\": \"cell\", \"idx\": {idx}, \"status\": \"panic\", \
\"attempt\": {attempt}, \"message\": \"{}\"}}",
                escape(message)
            ),
            Event::CellQuarantined { idx, attempts } => format!(
                "{{\"event\": \"cell\", \"idx\": {idx}, \"status\": \"quarantined\", \
\"attempts\": {attempts}}}"
            ),
            Event::Completed { cells_total } => format!(
                "{{\"event\": \"job\", \"id\": \"{job_id}\", \"status\": \"completed\", \
\"cells_total\": {cells_total}}}"
            ),
            Event::Failed { reason } => format!(
                "{{\"event\": \"job\", \"id\": \"{job_id}\", \"status\": \"failed\", \
\"reason\": \"{}\"}}",
                escape(reason)
            ),
            Event::Interrupted => {
                format!("{{\"event\": \"job\", \"id\": \"{job_id}\", \"status\": \"interrupted\"}}")
            }
        }
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
        // adas-lint: allow(R14, reason = "the event log is an arrival-ordered journal by contract; campaign results merge by index in the WAL and result slots, never through this log")
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

/// Terminal (or interrupted) outcome of one supervised job.
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

fn attempt_cell(
    gi: usize,
    cell: &CellSpec,
    spec: &JobSpec,
    attempts: &[AtomicU32],
) -> Attempted {
    let attempt = attempts[gi].fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    let delay_ms = spec.chaos.delay_for(gi);
    let panic_budget = spec.chaos.panics_for(gi);
    let result = catch_cell(move || {
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if attempt <= panic_budget {
            // The chaos tests' injected fault: a deliberate panic on the
            // cell's first `panic_budget` attempts, caught one line up by
            // `catch_cell` and healed by the retry ladder.
            // adas-lint: allow(R7, reason = "chaos fault injection, caught by the enclosing catch_cell and healed by the retry ladder")
            panic!("chaos: injected panic (cell {gi}, attempt {attempt})");
        }
        cell.run()
    });
    (attempt, started.elapsed().as_secs_f64(), result)
}

/// Runs one job to an outcome, checkpointing into `state_dir`.
///
/// On entry the WAL (if any) is replayed and only missing cells execute;
/// the returned `Completed` report is therefore byte-identical whether
/// the job ran once uninterrupted or across any number of resumes — the
/// chaos test's central assertion.
pub fn run_job(
    cfg: &SupervisorConfig,
    job_id: &str,
    spec: &JobSpec,
    state_dir: &Path,
    progress: &Arc<JobProgress>,
    stats: &Arc<DaemonStats>,
    drain: &AtomicBool,
) -> std::io::Result<JobOutcome> {
    let started = Instant::now();
    let deadline_hit =
        |now: Instant| cfg.deadline_ms > 0 && now.duration_since(started).as_millis() as u64 >= cfg.deadline_ms;

    let plan: Arc<[CellSpec]> = spec.plan().into();
    let n = plan.len();
    let path = wal_path(state_dir, job_id);
    let checkpointed = load_wal(&path, job_id)?;
    let wal = Arc::new(Mutex::new(WalWriter::open(&path, job_id)?));

    progress
        .cells_done
        .store(checkpointed.len() as u64, Ordering::SeqCst);
    progress.push_event(Event::Running {
        cells_total: n,
        checkpointed: checkpointed.len(),
    });

    let mut results: Vec<Option<SimResult>> = vec![None; n];
    for (&idx, result) in &checkpointed {
        if idx < n {
            results[idx] = Some(result.clone());
        }
    }
    let missing: Vec<usize> = (0..n).filter(|i| results[*i].is_none()).collect();

    let attempts: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let workers = RunnerConfig::with_workers(if cfg.workers == 0 {
        platform::experiment::detected_cores()
    } else {
        cfg.workers
    });
    let chunk_cells = if cfg.chunk_cells == 0 {
        4 * workers.worker_count(n.max(1))
    } else {
        cfg.chunk_cells
    }
    .max(1);

    let mut quarantine: Vec<usize> = Vec::new();
    for chunk in missing.chunks(chunk_cells) {
        if drain.load(Ordering::SeqCst) {
            return interrupt(progress, &wal);
        }
        if deadline_hit(Instant::now()) {
            return fail(
                progress,
                &wal,
                format!(
                    "deadline exceeded after {} of {n} cells",
                    progress.cells_done.load(Ordering::SeqCst)
                ),
            );
        }

        // Pooled first pass over the chunk: panics captured per cell,
        // successes checkpointed and streamed in index order as the
        // frontier advances.
        let chunk_specs: Vec<(usize, CellSpec)> =
            chunk.iter().map(|&gi| (gi, plan[gi])).collect();
        let run_spec = spec.clone();
        let run_attempts = Arc::clone(&attempts);
        let run_stats = Arc::clone(stats);
        let hook_wal = Arc::clone(&wal);
        let hook_progress = Arc::clone(progress);
        let hook_stats = Arc::clone(stats);
        let hook_chunk: Vec<usize> = chunk.to_vec();
        let wal_error: Arc<Mutex<Option<std::io::Error>>> = Arc::new(Mutex::new(None));
        let hook_wal_error = Arc::clone(&wal_error);
        let outcomes = run_campaign_cells_observed(
            workers,
            chunk_specs,
            move |&(gi, cell)| {
                run_stats.in_flight.fetch_add(1, Ordering::SeqCst);
                let attempted = attempt_cell(gi, &cell, &run_spec, &run_attempts);
                run_stats.in_flight.fetch_sub(1, Ordering::SeqCst);
                attempted
            },
            move |ci, (attempt, secs, outcome)| {
                let gi = hook_chunk[ci];
                match outcome {
                    Ok(result) => {
                        let mut writer =
                            hook_wal.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Err(e) = writer.append_cell(gi, result) {
                            let mut slot = hook_wal_error
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner);
                            slot.get_or_insert(e);
                        }
                        drop(writer);
                        hook_progress.cells_done.fetch_add(1, Ordering::SeqCst);
                        hook_stats.cells_done.fetch_add(1, Ordering::SeqCst);
                        hook_stats.record_cell_seconds(*secs);
                        hook_progress.push_event(Event::CellOk {
                            idx: gi,
                            attempt: *attempt,
                        });
                    }
                    Err(panic) => {
                        hook_progress.push_event(Event::CellPanic {
                            idx: gi,
                            attempt: *attempt,
                            message: panic.message.clone(),
                        });
                    }
                }
            },
        );
        let mut held_error = wal_error.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = held_error.take() {
            return Err(e);
        }
        drop(held_error);
        wal.lock().unwrap_or_else(PoisonError::into_inner).sync()?;

        // Serial retry ladder for the chunk's failures, with deterministic
        // exponential backoff between attempts.
        let mut retried_any = false;
        for (ci, (_, _, outcome)) in outcomes.iter().enumerate() {
            let gi = chunk[ci];
            match outcome {
                Ok(result) => results[gi] = Some(result.clone()),
                Err(_) => {
                    let healed = retry_cell(
                        cfg, spec, &plan, gi, &attempts, progress, stats, drain, &started,
                    );
                    match healed {
                        Retry::Ok(result) => {
                            let mut writer =
                                wal.lock().unwrap_or_else(PoisonError::into_inner);
                            writer.append_cell(gi, &result)?;
                            drop(writer);
                            retried_any = true;
                            results[gi] = Some(*result);
                            progress.cells_done.fetch_add(1, Ordering::SeqCst);
                            stats.cells_done.fetch_add(1, Ordering::SeqCst);
                        }
                        Retry::Quarantined => quarantine.push(gi),
                        Retry::Drained => return interrupt(progress, &wal),
                        Retry::DeadlineHit => {
                            return fail(
                                progress,
                                &wal,
                                format!(
                                    "deadline exceeded after {} of {n} cells",
                                    progress.cells_done.load(Ordering::SeqCst)
                                ),
                            )
                        }
                    }
                }
            }
        }
        if retried_any {
            wal.lock().unwrap_or_else(PoisonError::into_inner).sync()?;
        }
    }

    if !quarantine.is_empty() {
        let listed: Vec<String> = quarantine.iter().map(usize::to_string).collect();
        let mut held = progress
            .quarantined
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        held.extend_from_slice(&quarantine);
        drop(held);
        return fail(
            progress,
            &wal,
            format!(
                "{} cell(s) quarantined after {} attempts each: [{}]",
                quarantine.len(),
                cfg.max_attempts,
                listed.join(", ")
            ),
        );
    }

    let complete: Vec<SimResult> = results.into_iter().flatten().collect();
    debug_assert_eq!(complete.len(), n);
    let report = spec.report(&complete);
    progress.push_event(Event::Completed { cells_total: n });
    progress.mark_finished();
    Ok(JobOutcome::Completed { report })
}

enum Retry {
    Ok(Box<SimResult>),
    Quarantined,
    Drained,
    DeadlineHit,
}

#[allow(clippy::too_many_arguments)]
fn retry_cell(
    cfg: &SupervisorConfig,
    spec: &JobSpec,
    plan: &[CellSpec],
    gi: usize,
    attempts: &[AtomicU32],
    progress: &Arc<JobProgress>,
    stats: &Arc<DaemonStats>,
    drain: &AtomicBool,
    job_started: &Instant,
) -> Retry {
    loop {
        let tried = attempts[gi].load(Ordering::Relaxed);
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
        if cfg.deadline_ms > 0
            && job_started.elapsed().as_millis() as u64 >= cfg.deadline_ms
        {
            return Retry::DeadlineHit;
        }
        // Deterministic schedule: 1x, 2x, 4x ... the base per retry rank.
        let backoff = cfg.backoff_base_ms.saturating_mul(1u64 << (tried - 1).min(16));
        std::thread::sleep(Duration::from_millis(backoff));
        stats.retries.fetch_add(1, Ordering::SeqCst);
        progress.retries.fetch_add(1, Ordering::SeqCst);
        let (attempt, secs, outcome) = attempt_cell(gi, &plan[gi], spec, attempts);
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

fn interrupt(
    progress: &Arc<JobProgress>,
    wal: &Arc<Mutex<WalWriter>>,
) -> std::io::Result<JobOutcome> {
    wal.lock().unwrap_or_else(PoisonError::into_inner).sync()?;
    progress.push_event(Event::Interrupted);
    progress.mark_finished();
    Ok(JobOutcome::Interrupted)
}

fn fail(
    progress: &Arc<JobProgress>,
    wal: &Arc<Mutex<WalWriter>>,
    reason: String,
) -> std::io::Result<JobOutcome> {
    wal.lock().unwrap_or_else(PoisonError::into_inner).sync()?;
    progress.push_event(Event::Failed {
        reason: reason.clone(),
    });
    progress.mark_finished();
    Ok(JobOutcome::Failed { reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChaosKnobs, JobKind};
    use defense::DefensePolicy;

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
        let dir = std::env::temp_dir().join(format!(
            "campaignd-sup-{tag}-{}",
            std::process::id()
        ));
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
            &AtomicBool::new(false),
        )
        .unwrap();
        (outcome, progress)
    }

    #[test]
    fn event_lines_are_byte_stable() {
        // Each expected line is what the stream carried before the journal
        // was typed; a quote, a backslash and a newline exercise escaping.
        let nasty = "boom \"quoted\" back\\slash\nnext line";
        let cases = [
            (
                Event::Running {
                    cells_total: 24,
                    checkpointed: 3,
                },
                r#"{"event": "job", "id": "job-0007-0badf00d", "status": "running", "cells_total": 24, "checkpointed": 3}"#,
            ),
            (
                Event::CellOk { idx: 5, attempt: 1 },
                r#"{"event": "cell", "idx": 5, "status": "ok", "attempt": 1}"#,
            ),
            (
                Event::CellRetryOk { idx: 9, attempt: 2 },
                r#"{"event": "cell", "idx": 9, "status": "retry_ok", "attempt": 2}"#,
            ),
            (
                Event::CellPanic {
                    idx: 2,
                    attempt: 1,
                    message: nasty.to_string(),
                },
                r#"{"event": "cell", "idx": 2, "status": "panic", "attempt": 1, "message": "boom \"quoted\" back\\slash\nnext line"}"#,
            ),
            (
                Event::CellQuarantined {
                    idx: 17,
                    attempts: 3,
                },
                r#"{"event": "cell", "idx": 17, "status": "quarantined", "attempts": 3}"#,
            ),
            (
                Event::Completed { cells_total: 24 },
                r#"{"event": "job", "id": "job-0007-0badf00d", "status": "completed", "cells_total": 24}"#,
            ),
            (
                Event::Failed {
                    reason: nasty.to_string(),
                },
                r#"{"event": "job", "id": "job-0007-0badf00d", "status": "failed", "reason": "boom \"quoted\" back\\slash\nnext line"}"#,
            ),
            (
                Event::Interrupted,
                r#"{"event": "job", "id": "job-0007-0badf00d", "status": "interrupted"}"#,
            ),
        ];
        for (event, line) in cases {
            assert_eq!(event.render("job-0007-0badf00d"), line, "{event:?}");
        }
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
            chunk_cells: 2,
            ..SupervisorConfig::default()
        };
        let (outcome, _) = run(&cfg, "job-dl", &spec, &dir);
        match outcome {
            JobOutcome::Failed { reason } => assert!(reason.contains("deadline"), "{reason}"),
            other @ (JobOutcome::Completed { .. } | JobOutcome::Interrupted) => {
                panic!("{other:?}")
            }
        }
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
            chunk_cells: 16,
            ..cfg
        };
        // Drain immediately after the first chunk: flip the flag from a
        // watcher thread once a few cells complete.
        let watcher_progress = Arc::clone(&progress);
        let flag = Arc::new(AtomicBool::new(false));
        let watcher_flag = Arc::clone(&flag);
        let watcher = std::thread::spawn(move || {
            while watcher_progress.cells_done.load(Ordering::SeqCst) < 8 {
                std::thread::sleep(Duration::from_millis(1));
            }
            watcher_flag.store(true, Ordering::SeqCst);
        });
        let outcome =
            run_job(&small_chunks, "job-res", &spec, &dir, &progress, &stats, &flag).unwrap();
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
            &AtomicBool::new(false),
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
