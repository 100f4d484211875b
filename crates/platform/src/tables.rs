//! Text rendering of the paper's tables.

use crate::metrics::{PairedAggregate, StrategyAggregate};

/// Renders Table IV ("Attack strategy comparisons with an alert driver"):
/// one row per strategy.
pub fn render_table_iv(rows: &[StrategyAggregate]) -> String {
    let mut out = String::new();
    out.push_str(
        "TABLE IV: Attack strategy comparisons with an alert driver\n\
         | Attack Strategy | Sims | Alerts | Hazards | Accidents | Hazards&noAlerts | Inv./s | TTH (s)      | FCW |\n\
         |-----------------|------|--------|---------|-----------|------------------|--------|--------------|-----|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:<15} | {:>4} | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>6.2} | {:>5.2}±{:<5.2} | {:>3} |\n",
            r.label,
            r.sims,
            r.alerted,
            r.pct(r.alerted),
            r.hazards,
            r.pct(r.hazards),
            r.accidents,
            r.pct(r.accidents),
            r.hazards_no_alert,
            r.pct(r.hazards_no_alert),
            r.invasions_per_sec,
            r.tth.mean,
            r.tth.std,
            r.fcw_events,
        ));
    }
    out
}

/// Renders one side of Table V ("Context-Aware attack with/without strategic
/// value corruption"): one row per attack type.
pub fn render_table_v(title: &str, rows: &[PairedAggregate]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TABLE V ({title})\n\
         | Attack Type           | Alerts | Hazards | Accidents | TTH (s)      | Prevented Haz. | New Haz. | Prevented Acc. |\n\
         |-----------------------|--------|---------|-----------|--------------|----------------|----------|----------------|\n"
    ));
    for r in rows {
        out.push_str(&format!(
            "| {:<21} | {:>3} ({:>5.1}%) | {:>3} ({:>5.1}%) | {:>3} ({:>5.1}%) | {:>5.2}±{:<5.2} | {:>4} ({:>5.1}%) | {:>3} ({:>5.1}%) | {:>4} ({:>5.1}%) |\n",
            r.label,
            r.alerted,
            r.pct(r.alerted),
            r.hazards,
            r.pct(r.hazards),
            r.accidents,
            r.pct(r.accidents),
            r.tth.mean,
            r.tth.std,
            r.prevented_hazards,
            r.pct(r.prevented_hazards),
            r.new_hazards,
            r.pct(r.new_hazards),
            r.prevented_accidents,
            r.pct(r.prevented_accidents),
        ));
    }
    out
}

/// Sums a column across Table V rows into a "Total" row.
pub fn table_v_total(rows: &[PairedAggregate]) -> PairedAggregate {
    let mut total = PairedAggregate {
        label: "Total".to_owned(),
        sims: 0,
        alerted: 0,
        hazards: 0,
        accidents: 0,
        tth: crate::metrics::MeanStd::default(),
        hazards_no_driver: 0,
        accidents_no_driver: 0,
        prevented_hazards: 0,
        new_hazards: 0,
        prevented_accidents: 0,
    };
    let mut tth_weighted = 0.0;
    let mut tth_n = 0usize;
    for r in rows {
        total.sims += r.sims;
        total.alerted += r.alerted;
        total.hazards += r.hazards;
        total.accidents += r.accidents;
        total.hazards_no_driver += r.hazards_no_driver;
        total.accidents_no_driver += r.accidents_no_driver;
        total.prevented_hazards += r.prevented_hazards;
        total.new_hazards += r.new_hazards;
        total.prevented_accidents += r.prevented_accidents;
        tth_weighted += r.tth.mean * r.tth.n as f64;
        tth_n += r.tth.n;
    }
    if tth_n > 0 {
        let mean = tth_weighted / tth_n as f64;
        // The pooled population variance, exact from each row's (n, mean,
        // std): Σ nᵢ(σᵢ² + (μᵢ − μ)²) / N, what `mean_std` gives over the
        // rows' samples together.
        let spread: f64 = rows
            .iter()
            .map(|r| r.tth.n as f64 * (r.tth.std.powi(2) + (r.tth.mean - mean).powi(2)))
            .sum();
        total.tth.mean = mean;
        total.tth.std = (spread / tth_n as f64).sqrt();
        total.tth.n = tth_n;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MeanStd;

    fn agg(label: &str) -> StrategyAggregate {
        StrategyAggregate {
            label: label.to_owned(),
            sims: 1440,
            alerted: 4,
            hazards: 1201,
            accidents: 641,
            hazards_no_alert: 1197,
            invasions_per_sec: 0.66,
            tth: MeanStd {
                mean: 2.43,
                std: 1.29,
                n: 1201,
            },
            fcw_events: 0,
        }
    }

    #[test]
    fn table_iv_renders_percentages() {
        let text = render_table_iv(&[agg("Context-Aware")]);
        assert!(text.contains("Context-Aware"), "{text}");
        assert!(text.contains("83.4%"), "hazard percentage rendered: {text}");
        assert!(text.contains("2.43±1.29"), "{text}");
    }

    fn paired(label: &str, sims: usize) -> PairedAggregate {
        PairedAggregate {
            label: label.to_owned(),
            sims,
            alerted: 1,
            hazards: sims / 2,
            accidents: 2,
            tth: MeanStd {
                mean: 2.0,
                std: 0.5,
                n: sims / 2,
            },
            hazards_no_driver: sims,
            accidents_no_driver: 4,
            prevented_hazards: sims / 2,
            new_hazards: 3,
            prevented_accidents: 2,
        }
    }

    #[test]
    fn table_v_renders_and_totals() {
        let rows = vec![paired("Acceleration", 240), paired("Deceleration", 240)];
        let text = render_table_v("with strategic value corruption", &rows);
        assert!(text.contains("Acceleration"));
        assert!(text.contains("50.0%"));
        let total = table_v_total(&rows);
        assert_eq!(total.sims, 480);
        assert_eq!(total.hazards, 240);
        assert_eq!(total.prevented_hazards, 240);
        assert!((total.tth.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_v_total_pools_the_spread_of_its_rows_samples() {
        use crate::metrics::mean_std;
        let groups: [&[f64]; 4] = [
            &[1.2, 2.9, 3.3, 0.8, 5.1],
            &[4.4, 4.6],
            &[],
            &[0.3, 7.5, 2.2, 2.2, 9.0, 1.1, 3.4],
        ];
        let rows: Vec<PairedAggregate> = groups
            .iter()
            .map(|samples| PairedAggregate {
                tth: mean_std(samples),
                ..paired("row", 10)
            })
            .collect();
        let all: Vec<f64> = groups.concat();
        let want = mean_std(&all);
        let got = table_v_total(&rows).tth;
        assert_eq!(got.n, want.n);
        assert!((got.mean - want.mean).abs() < 1e-12, "{got:?} vs {want:?}");
        assert!((got.std - want.std).abs() < 1e-12, "{got:?} vs {want:?}");
        assert!(got.std > 2.0, "the spread is pooled, not left at zero");
    }
}
