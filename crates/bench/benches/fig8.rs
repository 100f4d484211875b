//! Regenerates the paper's **Fig. 8**: the "Attack start time" × "Duration"
//! parameter space for *Acceleration* attacks. Solid points are hazardous
//! runs; the Context-Aware strategy's activations (diamonds) should all land
//! inside the critical window and all be hazardous (Observation 3).

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench times its own run; timings are reported beside the seeded results and never feed them"
)]

use bench::{scale_divisor, write_artifact};
use driver_model::DriverConfig;
use platform::figures::{fig8_parameter_space, render_fig8};

fn main() {
    let scale = scale_divisor();
    // Paper sweep: start 5–35 s, duration 0.5–2.5 s.
    let start_step = 1.0 * scale as f64;
    let starts: Vec<f64> = (0..)
        .map(|i| 5.0 + i as f64 * start_step)
        .take_while(|&s| s <= 35.0)
        .collect();
    // The paper sweeps 0.5-2.5 s; our vehicle's stronger ACC recovery moves
    // the critical duration up, so the sweep extends to 6 s to show the
    // boundary (see EXPERIMENTS.md).
    let durations: Vec<f64> = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5].to_vec();
    let ca_runs = (20 / scale).max(2) as u64;

    println!(
        "Fig. 8 sweep: {} starts x {} durations + {} Context-Aware runs\n",
        starts.len(),
        durations.len(),
        ca_runs
    );
    let t0 = std::time::Instant::now();
    let points = fig8_parameter_space(&starts, &durations, ca_runs, 0xF18, DriverConfig::alert());
    println!("swept {} runs in {:.1?}\n", points.len(), t0.elapsed());

    // ASCII scatter: rows = durations (top = long), cols = start time.
    println!("duration \\ start {:.0}..{:.0}s   (#/o = grid hazard/no-hazard, D/d = Context-Aware)", starts[0], starts.last().unwrap());
    for &dur in durations.iter().rev() {
        let mut row = String::new();
        for &st in &starts {
            let grid = points
                .iter()
                .find(|p| !p.context_aware && (p.start.secs() - st).abs() < 1e-9 && (p.duration.secs() - dur).abs() < 1e-9);
            let ca_here = points.iter().any(|p| {
                p.context_aware
                    && (p.start.secs() - st).abs() < start_step / 2.0
            });
            row.push(match grid.map(|p| p.hazardous) {
                Some(true) => '#',
                Some(false) => 'o',
                None => ' ',
            });
            let _ = ca_here;
        }
        println!("  {dur:>4.1}s  {row}");
    }
    // Context-Aware activations as a separate rail under the grid.
    {
        let mut rail = String::new();
        for &st in &starts {
            let ca_here = points.iter().any(|p| {
                p.context_aware && (p.start.secs() - st).abs() < start_step / 2.0
            });
            rail.push(if ca_here { 'D' } else { ' ' });
        }
        println!("  [CA]   {rail}");
    }

    // Observation 3 check: every Context-Aware point is hazardous.
    let ca: Vec<_> = points.iter().filter(|p| p.context_aware).collect();
    let ca_hazardous = ca.iter().filter(|p| p.hazardous).count();
    println!(
        "\nContext-Aware activations: {} ({} hazardous)",
        ca.len(),
        ca_hazardous
    );
    let grid_haz = points
        .iter()
        .filter(|p| !p.context_aware && p.hazardous)
        .count();
    let grid_total = points.iter().filter(|p| !p.context_aware).count();
    println!("grid: {grid_haz}/{grid_total} hazardous");

    // The critical-window boundary: earliest hazardous grid start per
    // duration (the paper's dashed line around 24-25 s for its scenario).
    for &dur in &durations {
        let earliest = points
            .iter()
            .filter(|p| !p.context_aware && p.hazardous && (p.duration.secs() - dur).abs() < 1e-9)
            .map(|p| p.start.secs())
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            println!("duration {dur:.1}s: critical window opens at start ≈ {earliest:.0}s");
        } else {
            println!("duration {dur:.1}s: no hazardous grid point");
        }
    }

    write_artifact("fig8.tsv", &render_fig8(&points));
}
