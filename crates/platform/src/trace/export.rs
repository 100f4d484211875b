//! Trace serialization (CSV, JSON) and trace-to-trace divergence diffs.
//!
//! Serialization is hand-rolled with fixed-precision formatting so golden
//! files are byte-stable across platforms; floats are written with `{:.4}`
//! and `NaN` becomes an empty CSV cell / JSON `null`.

use msgbus::Topic;

use super::record::TickRecord;

/// CSV header matching [`csv_row`] column for column.
pub const CSV_HEADER: &str = "tick,time_s,ego_s,ego_d,ego_v,ego_a,ego_steer_deg,\
lead_s,lead_v,gap,hwt,engaged,acc_desired,acc_cmd,alc_desired_deg,alc_cmd_deg,\
alc_saturated,cmd_accel,cmd_steer_deg,applied_accel,applied_steer_deg,\
bus_total,attack_active,frames_rewritten,panda_blocked,alert_events,\
driver_phase,hazard_mask,h3_streak,collided,\
fault_mask,faults_injected,degradation,gate_rejections,ids";

fn cell(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else {
        format!("{x:.4}")
    }
}

fn csv_row(r: &TickRecord) -> String {
    format!(
        "{},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.tick,
        r.time_secs(),
        cell(r.ego_s),
        cell(r.ego_d),
        cell(r.ego_v),
        cell(r.ego_a),
        cell(r.ego_steer_deg),
        cell(r.lead_s),
        cell(r.lead_v),
        cell(r.gap),
        cell(r.hwt),
        u8::from(r.engaged),
        cell(r.acc_desired),
        cell(r.acc_cmd),
        cell(r.alc_desired_deg),
        cell(r.alc_cmd_deg),
        u8::from(r.alc_saturated),
        cell(r.cmd_accel),
        cell(r.cmd_steer_deg),
        cell(r.applied_accel),
        cell(r.applied_steer_deg),
        r.bus_published_total(),
        u8::from(r.attack_active),
        r.frames_rewritten,
        r.panda_blocked,
        r.alert_events,
        r.driver_phase.as_char(),
        r.hazard_mask,
        r.h3_streak,
        u8::from(r.collided),
        r.fault_mask,
        r.faults_injected,
        r.degradation.as_char(),
        r.gate_rejections,
        r.ids.as_char(),
    )
}

/// Renders records as CSV with a header row and trailing newline.
pub fn to_csv<'a>(records: impl IntoIterator<Item = &'a TickRecord>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&csv_row(r));
        out.push('\n');
    }
    out
}

fn json_num(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else {
        format!("{x:.4}")
    }
}

/// Renders records as a JSON array of objects (hand-rolled: the workspace
/// has no serialization dependency).
pub fn to_json<'a>(records: impl IntoIterator<Item = &'a TickRecord>) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for r in records {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let topics: Vec<String> = Topic::ALL
            .iter()
            .zip(&r.bus_published)
            .map(|(t, n)| format!("\"{}\":{n}", t.service_name()))
            .collect();
        out.push_str(&format!(
            "  {{\"tick\":{},\"time_s\":{:.2},\"ego\":{{\"s\":{},\"d\":{},\"v\":{},\"a\":{},\"steer_deg\":{}}},\
\"lead\":{{\"s\":{},\"v\":{}}},\"gap\":{},\"hwt\":{},\"engaged\":{},\
\"acc\":{{\"desired\":{},\"cmd\":{}}},\"alc\":{{\"desired_deg\":{},\"cmd_deg\":{},\"saturated\":{}}},\
\"cmd\":{{\"accel\":{},\"steer_deg\":{}}},\"applied\":{{\"accel\":{},\"steer_deg\":{}}},\
\"bus\":{{{}}},\"attack_active\":{},\"frames_rewritten\":{},\"panda_blocked\":{},\
\"alert_events\":{},\"driver_phase\":\"{}\",\"hazard_mask\":{},\"h3_streak\":{},\"collided\":{},\
\"fault_mask\":{},\"faults_injected\":{},\"degradation\":\"{}\",\
\"gate_rejections\":{},\"ids\":\"{}\"}}",
            r.tick,
            r.time_secs(),
            json_num(r.ego_s),
            json_num(r.ego_d),
            json_num(r.ego_v),
            json_num(r.ego_a),
            json_num(r.ego_steer_deg),
            json_num(r.lead_s),
            json_num(r.lead_v),
            json_num(r.gap),
            json_num(r.hwt),
            r.engaged,
            json_num(r.acc_desired),
            json_num(r.acc_cmd),
            json_num(r.alc_desired_deg),
            json_num(r.alc_cmd_deg),
            r.alc_saturated,
            json_num(r.cmd_accel),
            json_num(r.cmd_steer_deg),
            json_num(r.applied_accel),
            json_num(r.applied_steer_deg),
            topics.join(","),
            r.attack_active,
            r.frames_rewritten,
            r.panda_blocked,
            r.alert_events,
            r.driver_phase.as_char(),
            r.hazard_mask,
            r.h3_streak,
            r.collided,
            r.fault_mask,
            r.faults_injected,
            r.degradation.as_char(),
            r.gate_rejections,
            r.ids.as_char(),
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Where and how two traces diverge, field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// First tick at which any field differs (None: identical prefix).
    pub first_divergence_tick: Option<u64>,
    /// Ticks compared (the shorter trace bounds the comparison).
    pub ticks_compared: u64,
    /// Length difference `a.len() as i64 - b.len() as i64`.
    pub length_delta: i64,
    /// Max |Δ| per continuous field: (name, max delta, tick of max).
    pub max_deltas: Vec<(&'static str, f64, u64)>,
}

impl TraceDiff {
    /// Whether the compared prefixes are identical and equally long.
    pub fn identical(&self) -> bool {
        self.first_divergence_tick.is_none() && self.length_delta == 0
    }
}

impl std::fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.first_divergence_tick {
            None if self.length_delta == 0 => {
                write!(f, "traces identical over {} ticks", self.ticks_compared)
            }
            None => write!(
                f,
                "traces identical over {} shared ticks (length delta {:+})",
                self.ticks_compared, self.length_delta
            ),
            Some(t) => {
                writeln!(
                    f,
                    "first divergence at tick {} (t={:.2}s), {} ticks compared",
                    t,
                    t as f64 * units::DT.secs(),
                    self.ticks_compared
                )?;
                for (name, delta, tick) in &self.max_deltas {
                    if *delta > 0.0 {
                        writeln!(f, "  {name:<18} max |Δ| {delta:>12.6} at tick {tick}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// `NaN`-aware absolute difference: two NaNs are equal, NaN vs number is
/// treated as an infinite difference so it registers as a divergence.
fn delta(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => 0.0,
        (false, false) => (a - b).abs(),
        _ => f64::INFINITY,
    }
}

/// Compares two traces tick-for-tick; records must be aligned (same tick
/// indices), which holds for runs of the same scenario.
pub fn diff<'a>(
    a: impl IntoIterator<Item = &'a TickRecord>,
    b: impl IntoIterator<Item = &'a TickRecord>,
) -> TraceDiff {
    type FieldGetter = fn(&TickRecord) -> f64;
    // Every continuous field; the discrete remainder is compared exactly in
    // `discrete_equal` (a plain `ra != rb` would flag NaN == NaN ticks).
    const FIELDS: [(&str, FieldGetter); 17] = [
        ("ego_s", |r| r.ego_s),
        ("ego_d", |r| r.ego_d),
        ("ego_v", |r| r.ego_v),
        ("ego_a", |r| r.ego_a),
        ("ego_steer_deg", |r| r.ego_steer_deg),
        ("lead_s", |r| r.lead_s),
        ("lead_v", |r| r.lead_v),
        ("gap", |r| r.gap),
        ("hwt", |r| r.hwt),
        ("acc_desired", |r| r.acc_desired),
        ("acc_cmd", |r| r.acc_cmd),
        ("alc_desired_deg", |r| r.alc_desired_deg),
        ("alc_cmd_deg", |r| r.alc_cmd_deg),
        ("cmd_accel", |r| r.cmd_accel),
        ("cmd_steer_deg", |r| r.cmd_steer_deg),
        ("applied_accel", |r| r.applied_accel),
        ("applied_steer_deg", |r| r.applied_steer_deg),
    ];
    fn discrete_equal(a: &TickRecord, b: &TickRecord) -> bool {
        a.tick == b.tick
            && a.engaged == b.engaged
            && a.alc_saturated == b.alc_saturated
            && a.bus_published == b.bus_published
            && a.attack_active == b.attack_active
            && a.frames_rewritten == b.frames_rewritten
            && a.panda_blocked == b.panda_blocked
            && a.alert_events == b.alert_events
            && a.driver_phase == b.driver_phase
            && a.hazard_mask == b.hazard_mask
            && a.h3_streak == b.h3_streak
            && a.collided == b.collided
            && a.fault_mask == b.fault_mask
            && a.faults_injected == b.faults_injected
            && a.degradation == b.degradation
            && a.gate_rejections == b.gate_rejections
            && a.ids == b.ids
    }
    let mut max_deltas: Vec<(&'static str, f64, u64)> =
        FIELDS.iter().map(|(n, _)| (*n, 0.0, 0)).collect();
    let mut first_divergence_tick = None;
    let mut ticks_compared = 0u64;
    let mut a = a.into_iter();
    let mut b = b.into_iter();
    let mut len_a = 0i64;
    let mut len_b = 0i64;
    loop {
        match (a.next(), b.next()) {
            (Some(ra), Some(rb)) => {
                len_a += 1;
                len_b += 1;
                ticks_compared += 1;
                let mut diverged = !discrete_equal(ra, rb);
                for ((_, get), slot) in FIELDS.iter().zip(max_deltas.iter_mut()) {
                    let d = delta(get(ra), get(rb));
                    if d > slot.1 {
                        slot.1 = d;
                        slot.2 = ra.tick;
                    }
                    diverged |= d > 0.0;
                }
                if diverged && first_divergence_tick.is_none() {
                    first_divergence_tick = Some(ra.tick);
                }
            }
            (Some(_), None) => len_a += 1,
            (None, Some(_)) => len_b += 1,
            (None, None) => break,
        }
    }
    TraceDiff {
        first_divergence_tick,
        ticks_compared,
        length_delta: len_a - len_b,
        max_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::super::record::{DegradationCode, DriverPhaseCode, IdsCode};
    use super::*;

    fn record(tick: u64, ego_v: f64) -> TickRecord {
        TickRecord {
            tick,
            ego_s: tick as f64 * 0.3,
            ego_d: 0.01,
            ego_v,
            ego_a: 0.0,
            ego_steer_deg: 0.0,
            lead_s: 100.0,
            lead_v: 29.0,
            gap: f64::NAN,
            hwt: f64::NAN,
            engaged: true,
            acc_desired: 0.5,
            acc_cmd: 0.5,
            alc_desired_deg: 0.0,
            alc_cmd_deg: 0.0,
            alc_saturated: false,
            cmd_accel: 0.5,
            cmd_steer_deg: 0.0,
            applied_accel: 0.5,
            applied_steer_deg: 0.0,
            bus_published: [tick + 1; Topic::COUNT],
            attack_active: false,
            frames_rewritten: 0,
            panda_blocked: 0,
            alert_events: 0,
            driver_phase: DriverPhaseCode::Monitoring,
            hazard_mask: 0,
            h3_streak: 0,
            collided: false,
            fault_mask: 0,
            faults_injected: 0,
            degradation: DegradationCode::Nominal,
            gate_rejections: 0,
            ids: IdsCode::Nominal,
        }
    }

    #[test]
    fn csv_has_header_and_blank_nan_cells() {
        let records = [record(0, 29.0)];
        let csv = to_csv(records.iter());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert_eq!(
            row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "row and header column counts match"
        );
        // gap and hwt are NaN -> consecutive empty cells before `engaged`.
        assert!(row.contains(",,,1,"), "NaN cells render empty: {row}");
    }

    #[test]
    fn json_renders_nan_as_null() {
        let records = [record(3, 29.0)];
        let json = to_json(records.iter());
        assert!(json.contains("\"gap\":null"));
        assert!(json.contains("\"tick\":3"));
        assert!(json.contains("\"radarState\":4"));
    }

    #[test]
    fn diff_identical_traces() {
        let a = [record(0, 29.0), record(1, 29.1)];
        let d = diff(a.iter(), a.iter());
        assert!(d.identical());
        assert_eq!(d.ticks_compared, 2);
    }

    #[test]
    fn diff_finds_first_divergence_and_max_delta() {
        let a = [record(0, 29.0), record(1, 29.0), record(2, 29.0)];
        let mut b = a;
        b[1].ego_v = 29.5;
        b[2].ego_v = 31.0;
        let d = diff(a.iter(), b.iter());
        assert_eq!(d.first_divergence_tick, Some(1));
        let ego_v = d.max_deltas.iter().find(|(n, _, _)| *n == "ego_v").unwrap();
        assert!((ego_v.1 - 2.0).abs() < 1e-12);
        assert_eq!(ego_v.2, 2);
    }

    #[test]
    fn diff_reports_length_mismatch() {
        let a = [record(0, 29.0), record(1, 29.0)];
        let b = [record(0, 29.0)];
        let d = diff(a.iter(), b.iter());
        assert_eq!(d.length_delta, 1);
        assert!(!d.identical());
    }
}
