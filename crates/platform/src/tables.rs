//! Text rendering of the paper's tables.

use crate::metrics::{Moments, PairedAggregate, StrategyAggregate};

/// A TTH cell, `mean±spread`, or "-" when no run has a TTH (a row of
/// attack-free runs, say), so that no row reads as instant hazards.
fn tth_cell(tth: &Moments) -> String {
    match tth.mean() {
        Some(mean) => format!("{mean:>5.2}±{:<5.2}", tth.spread()),
        None => format!("{:>5}{:6}", "-", ""),
    }
}

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
        let t = &r.tally;
        out.push_str(&format!(
            "| {:<15} | {:>4} | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>4} ({:>5.1}%) | {:>6.2} | {} | {:>3} |\n",
            r.label,
            t.runs,
            t.alerted,
            t.pct(t.alerted),
            t.hazards,
            t.pct(t.hazards),
            t.accidents,
            t.pct(t.accidents),
            t.hazards_without_alert,
            t.pct(t.hazards_without_alert),
            t.invasions_per_s(),
            tth_cell(&t.tth),
            t.fcw_events,
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
        let t = &r.with_driver;
        out.push_str(&format!(
            "| {:<21} | {:>3} ({:>5.1}%) | {:>3} ({:>5.1}%) | {:>3} ({:>5.1}%) | {} | {:>4} ({:>5.1}%) | {:>3} ({:>5.1}%) | {:>4} ({:>5.1}%) |\n",
            r.label,
            t.alerted,
            t.pct(t.alerted),
            t.hazards,
            t.pct(t.hazards),
            t.accidents,
            t.pct(t.accidents),
            tth_cell(&t.tth),
            r.prevented_hazards,
            t.pct(r.prevented_hazards),
            r.new_hazards,
            t.pct(r.new_hazards),
            r.prevented_accidents,
            t.pct(r.prevented_accidents),
        ));
    }
    out
}

/// Table V's "Total" row: every row merged.
pub fn table_v_total(rows: &[PairedAggregate]) -> PairedAggregate {
    let total = PairedAggregate {
        label: "Total".to_owned(),
        ..PairedAggregate::default()
    };
    rows.iter().fold(total, PairedAggregate::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::result;
    use crate::HazardKind::{H1, H2, H3};
    use crate::SimResult;

    #[test]
    fn table_iv_bytes() {
        let no_attacks = [
            result(0, vec![], false, 1, None),
            result(1, vec![], false, 0, None),
        ];
        let context_aware = [
            result(0, vec![H1], true, 0, Some(1.0)),
            SimResult {
                fcw_events: 2,
                ..result(1, vec![H3], false, 2, Some(2.0))
            },
            result(2, vec![H2, H1], false, 0, Some(4.0)),
            result(3, vec![], false, 0, None),
        ];
        let rows = [
            StrategyAggregate::from_results("No Attacks", &no_attacks),
            StrategyAggregate::from_results("Context-Aware", &context_aware),
        ];
        assert_eq!(
            render_table_iv(&rows),
            "TABLE IV: Attack strategy comparisons with an alert driver\n\
             | Attack Strategy | Sims | Alerts | Hazards | Accidents | Hazards&noAlerts | Inv./s | TTH (s)      | FCW |\n\
             |-----------------|------|--------|---------|-----------|------------------|--------|--------------|-----|\n\
             | No Attacks      |    2 |    1 ( 50.0%) |    0 (  0.0%) |    0 (  0.0%) |    0 (  0.0%) |   0.20 |     -       |   0 |\n\
             | Context-Aware   |    4 |    1 ( 25.0%) |    3 ( 75.0%) |    1 ( 25.0%) |    2 ( 50.0%) |   0.20 |  2.33±1.25  |   2 |\n"
        );
    }

    /// Table V's paired inputs, one (label, with driver, no driver) per
    /// row.
    fn table_v_pairs() -> Vec<(&'static str, Vec<SimResult>, Vec<SimResult>)> {
        let accel = (
            vec![
                result(0, vec![H1], true, 0, Some(1.5)),
                result(1, vec![], false, 0, None),
                result(2, vec![H3], false, 1, Some(2.3)),
                result(3, vec![], false, 0, None),
            ],
            vec![
                result(0, vec![H1], true, 0, Some(1.5)),
                result(1, vec![H2], false, 0, Some(3.0)),
                result(2, vec![], false, 0, None),
                result(3, vec![H1], true, 0, Some(0.75)),
            ],
        );
        let decel = (
            vec![
                result(4, vec![H2], false, 0, Some(3.1)),
                result(5, vec![H1], true, 0, Some(4.6)),
                result(6, vec![H2], false, 3, Some(2.2)),
            ],
            vec![
                result(4, vec![H2], false, 0, Some(3.1)),
                result(5, vec![H1], true, 0, Some(4.6)),
                result(6, vec![H1], false, 0, Some(2.9)),
            ],
        );
        // No with-driver run has a TTH: one is safe, the other's hazard
        // came without an activation.
        let left = (
            vec![
                result(7, vec![], false, 0, None),
                result(8, vec![H3], true, 0, None),
            ],
            vec![
                result(7, vec![H3], false, 0, Some(1.2)),
                result(8, vec![H3], true, 0, Some(0.9)),
            ],
        );
        vec![
            ("Acceleration", accel.0, accel.1),
            ("Deceleration", decel.0, decel.1),
            ("Steering-Left", left.0, left.1),
        ]
    }

    fn table_v_rows() -> Vec<PairedAggregate> {
        table_v_pairs()
            .iter()
            .map(|(label, with, without)| PairedAggregate::from_pairs(*label, with, without))
            .collect()
    }

    #[test]
    fn table_v_bytes() {
        let mut rows = table_v_rows();
        rows.push(table_v_total(&rows));
        assert_eq!(
            render_table_v("with strategic value corruption", &rows),
            "TABLE V (with strategic value corruption)\n\
             | Attack Type           | Alerts | Hazards | Accidents | TTH (s)      | Prevented Haz. | New Haz. | Prevented Acc. |\n\
             |-----------------------|--------|---------|-----------|--------------|----------------|----------|----------------|\n\
             | Acceleration          |   1 ( 25.0%) |   2 ( 50.0%) |   1 ( 25.0%) |  1.90±0.40  |    2 ( 50.0%) |   1 ( 25.0%) |    1 ( 25.0%) |\n\
             | Deceleration          |   1 ( 33.3%) |   3 (100.0%) |   1 ( 33.3%) |  3.30±0.99  |    1 ( 33.3%) |   1 ( 33.3%) |    0 (  0.0%) |\n\
             | Steering-Left         |   0 (  0.0%) |   1 ( 50.0%) |   1 ( 50.0%) |     -       |    1 ( 50.0%) |   0 (  0.0%) |    0 (  0.0%) |\n\
             | Total                 |   2 ( 22.2%) |   6 ( 66.7%) |   3 ( 33.3%) |  2.74±1.06  |    4 ( 44.4%) |   2 ( 22.2%) |    1 ( 11.1%) |\n"
        );
    }

    #[test]
    fn table_v_total_is_one_tally_over_every_row() {
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for (_, w, n) in table_v_pairs() {
            with.extend(w);
            without.extend(n);
        }
        let whole = PairedAggregate::from_pairs("Total", &with, &without);
        let mut total = table_v_total(&table_v_rows());
        // The TTH sums may differ in their last bits, because the rows were
        // summed separately; every count must be exact.
        for (got, want) in [
            (&mut total.with_driver.tth, whole.with_driver.tth),
            (&mut total.no_driver.tth, whole.no_driver.tth),
        ] {
            assert_eq!(got.n(), want.n());
            let (got_mean, want_mean) = (got.mean().unwrap(), want.mean().unwrap());
            assert!((got_mean - want_mean).abs() < 1e-12, "{got:?} vs {want:?}");
            assert!(
                (got.spread() - want.spread()).abs() < 1e-12,
                "{got:?} vs {want:?}"
            );
            assert!(got.spread() > 0.5, "the spread is pooled, not left at zero");
            *got = want;
        }
        assert_eq!(total, whole);
    }
}
