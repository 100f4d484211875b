//! Result export: CSV for per-run records.

use crate::SimResult;

/// CSV header matching [`sim_results_csv`].
pub const CSV_HEADER: &str =
    "seed,hazard,first_hazard_s,first_hazard_kind,accident_s,accident_kind,\
alert_events,fcw_events,lane_invasions,attack_activated_s,tth_s,driver_noticed_s,\
driver_engaged_s,frames_rewritten,panda_blocked,invariant_detected_s,monitor_detected_s";

fn opt_secs(v: Option<units::Seconds>) -> String {
    v.map_or(String::new(), |t| format!("{:.2}", t.secs()))
}

/// Renders a batch of results as CSV (header included), one row per run.
pub fn sim_results_csv(results: &[SimResult]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in results {
        let (h_t, h_k) = match r.first_hazard {
            Some((t, k)) => (format!("{:.2}", t.secs()), format!("{k:?}")),
            None => (String::new(), String::new()),
        };
        let (a_t, a_k) = match r.accident {
            Some((t, k)) => (format!("{:.2}", t.secs()), format!("{k:?}")),
            None => (String::new(), String::new()),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.seed,
            u8::from(r.hazardous()),
            h_t,
            h_k,
            a_t,
            a_k,
            r.alert_events,
            r.fcw_events,
            r.lane_invasions,
            opt_secs(r.attack_activated),
            opt_secs(r.tth),
            opt_secs(r.driver_noticed),
            opt_secs(r.driver_engaged),
            r.frames_rewritten,
            r.panda_blocked,
            opt_secs(r.invariant_detected),
            opt_secs(r.monitor_detected),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccidentKind, HazardKind};
    use units::Seconds;

    fn result() -> SimResult {
        SimResult {
            seed: 42,
            first_hazard: Some((Seconds::new(20.5), HazardKind::H1)),
            hazard_kinds: vec![HazardKind::H1],
            accident: Some((Seconds::new(22.0), AccidentKind::A1)),
            alert_events: 1,
            fcw_events: 0,
            lane_invasions: 3,
            duration: Seconds::new(50.0),
            attack_activated: Some(Seconds::new(15.0)),
            tth: Some(Seconds::new(5.5)),
            driver_noticed: None,
            driver_engaged: None,
            frames_rewritten: 500,
            panda_blocked: 0,
            invariant_detected: Some(Seconds::new(16.1)),
            monitor_detected: None,
            degraded_ticks: 0,
            failsafe_ticks: 0,
            first_degraded: None,
            first_failsafe: None,
            recovery_latency: None,
            faults_injected: 0,
            ids_detected: None,
            gate_rejections: 0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sim_results_csv(&[result(), result()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].starts_with("42,1,20.50,H1,22.00,A1,1,0,3,15.00,5.50"));
        // Column count is stable.
        assert_eq!(lines[1].split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn csv_empty_optionals_are_blank() {
        let mut r = result();
        r.first_hazard = None;
        r.hazard_kinds.clear();
        r.accident = None;
        r.tth = None;
        let csv = sim_results_csv(&[r]);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("42,0,,,,,"));
    }
}
