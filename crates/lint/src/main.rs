//! The `adas-lint` command-line gate.
//!
//! ```text
//! cargo run -p adas-lint                          # human output, exit 1 on findings
//! cargo run -p adas-lint -- --format json         # machine-readable report
//! cargo run -p adas-lint -- --sarif-out lint.sarif # also SARIF 2.1.0 (code scanning)
//! cargo run -p adas-lint -- --list-rules          # rule reference
//! ```
//!
//! Exit codes: `0` clean, `1` active findings or dead suppressions, `2`
//! usage or I/O error.

#![forbid(unsafe_code)]

use adas_lint::{scan_workspace, ALL_RULES};
use platform::json::{self, Layout};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    format: Format,
    list_rules: bool,
    list_files: bool,
    sarif_out: Option<PathBuf>,
    lock_graph_dot: Option<PathBuf>,
    timings: bool,
}

enum Format {
    Human,
    Json,
}

const USAGE: &str = "adas-lint — safety-invariant static analysis for this workspace

USAGE:
    adas-lint [--root DIR] [--format human|json] [--list-rules]
              [--list-files] [--sarif-out FILE] [--lock-graph-dot FILE]
              [--timings]

OPTIONS:
    --root DIR         Workspace root to scan (default: auto-detected)
    --format FMT       Output format: human (default) or json
    --list-rules       Print the rule table and exit
    --list-files       Print every file the scan covers and exit
    --sarif-out FILE   Additionally write a SARIF 2.1.0 report to FILE
    --lock-graph-dot FILE
                       Write the R12 lock-order graph as GraphViz DOT to FILE
    --timings          Print the scan's wall-time and file count to stderr
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: adas_lint::workspace_root_from_manifest(env!("CARGO_MANIFEST_DIR")),
        format: Format::Human,
        list_rules: false,
        list_files: false,
        sarif_out: None,
        lock_graph_dot: None,
        timings: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--format" => match args.next().as_deref() {
                Some("human") => opts.format = Format::Human,
                Some("json") => opts.format = Format::Json,
                other => return Err(format!("--format must be human or json, got {other:?}")),
            },
            "--list-rules" => opts.list_rules = true,
            "--list-files" => opts.list_files = true,
            "--sarif-out" => {
                opts.sarif_out = Some(PathBuf::from(
                    args.next().ok_or("--sarif-out needs a value")?,
                ));
            }
            "--lock-graph-dot" => {
                opts.lock_graph_dot = Some(PathBuf::from(
                    args.next().ok_or("--lock-graph-dot needs a value")?,
                ));
            }
            "--timings" => opts.timings = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Emits, self-validates, and writes the SARIF document to `path`.
fn write_sarif(report: &adas_lint::ScanReport, path: &Path) -> Result<(), String> {
    let mut all = report.active.clone();
    all.extend(report.dead_suppressions.iter().cloned());
    let doc = adas_lint::sarif::emit(&all);
    adas_lint::sarif::validate(&doc)
        .map_err(|e| format!("internal error: emitted SARIF failed self-validation: {e}"))?;
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in ALL_RULES {
            println!("{} {:22} {}", rule.id(), rule.name(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }

    if opts.list_files {
        match adas_lint::collect_files(&opts.root) {
            Ok(files) => {
                for f in files {
                    println!("{f}");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: cannot walk {}: {e}", opts.root.display());
                return ExitCode::from(2);
            }
        }
    }

    // The lint crate is tooling, exempt from clippy's wall-clock ban
    // (`disallowed_types`, `disallowed_methods`): measuring its own
    // wall-time is the point of --timings.
    let t0 = std::time::Instant::now();
    let report = match scan_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = t0.elapsed();

    if opts.timings {
        eprintln!(
            "adas-lint: scan took {:.1} ms ({} files)",
            elapsed.as_secs_f64() * 1e3,
            report.files_scanned,
        );
    }

    if let Some(path) = &opts.lock_graph_dot {
        if let Err(e) = std::fs::write(path, &report.lock_order_dot) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(path) = &opts.sarif_out {
        if let Err(e) = write_sarif(&report, path) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }

    match opts.format {
        Format::Json => {
            let doc = json::object(Layout::Line, |o| {
                o.field("version", 4u32);
                o.key("diagnostics").array(Layout::Line, |a| {
                    for d in report.active.iter().chain(&report.dead_suppressions) {
                        a.object(Layout::Line, |o| d.write_json(o));
                    }
                });
                o.key("summary").object(Layout::Line, |s| {
                    s.field("files_scanned", report.files_scanned)
                        .field("active", report.active.len())
                        .field("dead_suppressions", report.dead_suppressions.len())
                        .field("suppressed", report.suppressed);
                });
            });
            println!("{doc}");
        }
        Format::Human => {
            for d in report.active.iter().chain(report.dead_suppressions.iter()) {
                println!("{}", d.render_human());
            }
            println!(
                "adas-lint: {} files scanned, {} active finding(s), {} dead suppression(s), {} suppressed",
                report.files_scanned,
                report.active.len(),
                report.dead_suppressions.len(),
                report.suppressed,
            );
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
