//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! Each table/figure has its own bench target (run with
//! `cargo bench -p bench --bench <name>`):
//!
//! | target      | regenerates                                    |
//! |-------------|------------------------------------------------|
//! | `table_iv`  | Table IV — strategy comparison with alert driver |
//! | `table_v`   | Table V — strategic value corruption ablation   |
//! | `fig7`      | Fig. 7 — attack-free ego trajectory             |
//! | `fig8`      | Fig. 8 — start-time × duration parameter space  |
//! | `ablations` | checksum-repair / Panda / driver ablations      |
//! | `micro`     | Criterion micro-benchmarks of the components    |
//!
//! Campaign sizes default to the paper's (1,440 runs per strategy; 14,400
//! for Random-ST+DUR). Set `REPRO_SCALE=<divisor>` to shrink them for a
//! quick pass, e.g. `REPRO_SCALE=10` runs 144-sim campaigns.

#![forbid(unsafe_code)]

/// Reads the campaign scale divisor from `REPRO_SCALE` (default 1 = full
/// paper size).
///
/// # Examples
///
/// ```
/// // Without the variable set, campaigns run at full size.
/// std::env::remove_var("REPRO_SCALE");
/// assert_eq!(bench::scale_divisor(), 1);
/// ```
pub fn scale_divisor() -> u32 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(1)
}

/// Repetitions per (scenario, gap) cell after scaling: the paper's 20,
/// divided by [`scale_divisor`], at least 1.
pub fn scaled_reps() -> u32 {
    (20 / scale_divisor()).max(1)
}

/// The canonical resilience campaign: base seed 7, the paper's
/// repetition count after [`scale_divisor`] scaling, `Degrade` defense.
///
/// This is the single definition shared by the `resilience` bench target
/// (which writes `BENCH_resilience.json`) and the campaignd integration
/// tests (which assert the daemon reproduces the same report byte for
/// byte) — one campaign identity, two front ends.
pub fn canonical_resilience_config() -> platform::resilience::ResilienceConfig {
    platform::resilience::ResilienceConfig::new(7, scaled_reps())
}

/// Writes an artifact file under `target/paper-artifacts/` and prints where.
pub fn write_artifact(name: &str, contents: &str) {
    let dir = std::path::Path::new("target/paper-artifacts");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("[artifact] {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_reps_is_at_least_one() {
        // Cannot set env vars safely in parallel tests; just check the
        // arithmetic bounds with the default.
        assert!(scaled_reps() >= 1);
        assert!(scaled_reps() <= 20);
    }
}
