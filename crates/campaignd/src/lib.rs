//! campaignd — the durable front-end the campaign runners were missing.
//!
//! The paper's full attack/defense matrix needs campaigns to run as a
//! long-lived *service*, not one-shot `cargo bench` invocations — and a
//! service driving millions of safety-critical simulations must itself
//! survive worker panics, slow clients, overload, and whole-process
//! restarts without losing or corrupting a single cell. The daemon is
//! therefore built robustness-first:
//!
//! * **Bounded queue, explicit backpressure** — `POST /jobs` either
//!   enqueues (202) or sheds load (429 + `Retry-After`) while the queue is
//!   at capacity; memory use is bounded by construction, not by hope.
//! * **Supervision** ([`supervisor`]) — cells execute through
//!   [`platform::pool::catch_cell`]'s per-cell panic capture; a
//!   panicked cell is retried with deterministic exponential backoff and,
//!   past the attempt budget, quarantined so one pathological seed cannot
//!   wedge the campaign. Per-job wall-clock deadlines bound runaway jobs.
//! * **Checkpoint/resume** ([`checkpoint`]) — every completed cell is
//!   appended to a write-ahead log, keyed by cell index, as it finishes,
//!   fsync'd per `sync_cells` appends; `campaignd --resume` replays the
//!   job manifest and recomputes only the missing cells. The chaos test
//!   asserts the final report is byte-identical to an undisturbed run.
//!   The same checkpoints serve finished jobs: past a fixed window of the
//!   most recent, a finished job is a compact record in memory and its
//!   report is rebuilt from its WAL on request ([`server`]).
//! * **Hardened HTTP** ([`http`]) — a hand-rolled incremental HTTP/1.1
//!   parser over `std::net` (the vendor-stub culture rules out tokio):
//!   read timeouts, header/body caps, Slowloris-resistant accumulation
//!   deadlines, pipelining, and graceful drain on `POST /shutdown`.
//!
//! Everything is `std`-only; determinism comes from the platform layer
//! (seed mixing, plan-order aggregation), robustness from this one.

#![forbid(unsafe_code)]
// Panic-freedom on the service path: a malformed request, WAL or job
// fails closed, never kills the daemon. `clippy.toml` exempts tests.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
// Deadlines, backoff and Slowloris budgets are wall-clock by definition;
// determinism lives in the seeded cells the daemon fans out.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod checkpoint;
pub mod http;
pub mod server;
pub mod spec;
pub mod supervisor;
pub mod wire;
