//! Per-cell panic capture for campaign fan-outs.
//!
//! [`run_campaign_cells`] is the workspace's one fan-out, and a panic in
//! any of its cells fails the whole call. [`catch_cell`] turns one cell's
//! panic into a value instead, for a caller that retries or reports the
//! cell and keeps the rest of the campaign.
//!
//! [`run_campaign_cells`]: crate::experiment::run_campaign_cells

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A panic caught by [`catch_cell`], reduced to its message so the value
/// is `Send + Sync` and can be stored, logged, and retried without carrying
/// the raw `Box<dyn Any>` payload around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// The panic message (`&str` / `String` payloads), or a placeholder for
    /// non-string payloads.
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

/// Runs `f`, converting a panic into `Err(CellPanic)` instead of unwinding.
///
/// [`run_campaign_cells`](crate::experiment::run_campaign_cells) re-raises
/// a cell's panic and so fails the whole fan-out, which is right for
/// benches, where a panicking cell invalidates the campaign. A supervisor (campaignd) wraps each cell in this instead,
/// so the other cells' results survive and only the failed cell is retried.
pub fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, CellPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        CellPanic { message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_cell_passes_values_through() {
        assert_eq!(catch_cell(|| 7u32), Ok(7));
        let err = catch_cell(|| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!(err.message, "boom");
        assert_eq!(err.to_string(), "task panicked: boom");
    }

    #[test]
    fn catch_cell_keeps_string_payload_messages() {
        // `panic!` with formatting arguments carries a `String` payload.
        let err = catch_cell(|| -> u32 { panic!("formatted {}", 42) }).unwrap_err();
        assert_eq!(err.message, "formatted 42");
        let err = catch_cell(|| -> u32 { std::panic::panic_any(7u8) }).unwrap_err();
        assert_eq!(err.message, "<non-string panic payload>");
    }
}
