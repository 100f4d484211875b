//! Offline reconnaissance: the attacker's preparation step.
//!
//! The paper's attacker "can gather information about the system
//! configuration by monitoring and decoding the communication traffic"
//! (§III-B) and designs the attack "based on offline code/data analysis to
//! infer the safety constraints and parameters described in Equations
//! (1)–(3)". This module implements both halves against captured traffic:
//!
//! * [`analyze_can`] — CAN reverse-engineering in the style of READ /
//!   LibreCAN: per-id rates, bit-level activity, rolling-counter detection,
//!   Honda-checksum detection and contiguous-signal-field inference, from a
//!   raw [`canbus::Capture`].
//! * [`SafetyEnvelopeEstimate`] — recovers the ADAS output limits
//!   (`limit_accel`, `limit_brake`, `limit_steer`) from an observed
//!   `carControl` history, which is exactly what the strategic value
//!   corruption needs as its constraint set.

use std::collections::BTreeMap;

use canbus::checksum::verify_honda_checksum;
use canbus::CanFrame;
use msgbus::schema::CarControl;
use units::{Accel, Angle, Tick};

/// A contiguous big-endian bit field inferred from traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferredField {
    /// Index of the first (most significant) active byte.
    pub start_byte: usize,
    /// Number of bytes the field spans.
    pub byte_len: usize,
}

/// Everything learned about one CAN id.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageProfile {
    /// The frame identifier.
    pub id: u16,
    /// Frames observed.
    pub count: usize,
    /// Mean inter-arrival time in ticks.
    pub period_ticks: f64,
    /// Payload length.
    pub dlc: u8,
    /// Per-bit toggle counts (frame-bit addressing, byte 0 bit 7 = index 7).
    pub bit_toggles: Vec<u32>,
    /// Whether the low nibble of the last byte verifies as a Honda checksum
    /// on every observed frame.
    pub honda_checksum: bool,
    /// Whether bits 5–4 of the last byte behave as a mod-4 rolling counter.
    pub rolling_counter: bool,
    /// Contiguous multi-bit data fields (excluding counter/checksum bytes).
    pub fields: Vec<InferredField>,
}

impl MessageProfile {
    /// Heuristic: command messages are periodic, checksummed and counted.
    pub fn looks_like_actuator_command(&self) -> bool {
        self.honda_checksum && self.rolling_counter && self.count >= 10
    }
}

/// Analyzes captured CAN records into per-id profiles.
pub fn analyze_can(records: &[(Tick, CanFrame)]) -> BTreeMap<u16, MessageProfile> {
    let mut grouped: BTreeMap<u16, Vec<(Tick, CanFrame)>> = BTreeMap::new();
    for (t, f) in records {
        grouped.entry(f.id()).or_default().push((*t, *f));
    }
    grouped
        .into_iter()
        .map(|(id, frames)| (id, profile_one(id, &frames)))
        .collect()
}

fn profile_one(id: u16, frames: &[(Tick, CanFrame)]) -> MessageProfile {
    let dlc = frames.first().map_or(0, |(_, f)| f.dlc());
    let nbits = dlc as usize * 8;
    let pairs = frames.iter().zip(frames.iter().skip(1));

    // Inter-arrival statistics.
    let deltas: Vec<u64> = pairs.clone().map(|((t0, _), (t1, _))| *t1 - *t0).collect();
    let period_ticks = if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().sum::<u64>() as f64 / deltas.len() as f64
    };

    // Bit toggle counts.
    let mut bit_toggles = vec![0u32; nbits];
    for ((_, a), (_, b)) in pairs.clone() {
        for (i, toggles) in bit_toggles.iter_mut().enumerate() {
            let byte = i / 8;
            let bit = 7 - (i % 8);
            let xa = (a.data().get(byte).copied().unwrap_or(0) >> bit) & 1;
            let xb = (b.data().get(byte).copied().unwrap_or(0) >> bit) & 1;
            if xa != xb {
                *toggles += 1;
            }
        }
    }

    // Checksum hypothesis: every frame verifies under the Honda rule.
    let honda_checksum = !frames.is_empty()
        && frames
            .iter()
            .all(|(_, f)| verify_honda_checksum(id, f.data()));

    // Counter hypothesis: bits 5-4 of the last byte increment mod 4. Each
    // frame's counter is its own last byte: a capture may carry one id at
    // more than one length.
    let counter = |f: &CanFrame| (f.data().last().copied().unwrap_or(0) >> 4) & 0x3;
    let rolling_counter = dlc > 0 && {
        let mut ok = 0usize;
        let mut total = 0usize;
        for ((_, a), (_, b)) in pairs {
            total += 1;
            if counter(b) == (counter(a) + 1) & 0x3 {
                ok += 1;
            }
        }
        total > 0 && ok as f64 / total as f64 > 0.95
    };

    // Field inference: contiguous runs of bytes containing toggling bits,
    // excluding the tail byte when it hosts counter/checksum.
    let data_bytes = if honda_checksum || rolling_counter {
        dlc as usize - 1
    } else {
        dlc as usize
    };
    let mut fields = Vec::new();
    let mut run_start: Option<usize> = None;
    for (byte, bits) in bit_toggles.chunks_exact(8).take(data_bytes).enumerate() {
        let active = bits.iter().any(|&t| t > 0);
        match (active, run_start) {
            (true, None) => run_start = Some(byte),
            (false, Some(s)) => {
                fields.push(InferredField {
                    start_byte: s,
                    byte_len: byte - s,
                });
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        fields.push(InferredField {
            start_byte: s,
            byte_len: data_bytes - s,
        });
    }

    MessageProfile {
        id,
        count: frames.len(),
        period_ticks,
        dlc,
        bit_toggles,
        honda_checksum,
        rolling_counter,
        fields,
    }
}

/// The safety envelope recovered from observed `carControl` traffic — the
/// constraint set of Eq. 1. A strategic attacker chooses values inside these
/// bounds so the ADAS software checks (and the driver's sense of "normal")
/// are never violated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyEnvelopeEstimate {
    /// Largest commanded acceleration seen.
    pub accel_max: Accel,
    /// Strongest commanded braking seen.
    pub brake_min: Accel,
    /// Largest commanded steering magnitude seen.
    pub steer_max: Angle,
    /// Samples the estimate is based on.
    pub samples: usize,
}

impl SafetyEnvelopeEstimate {
    /// Builds the estimate from an eavesdropped command history.
    pub fn from_controls<'a>(controls: impl IntoIterator<Item = &'a CarControl>) -> Self {
        let mut est = Self {
            accel_max: Accel::ZERO,
            brake_min: Accel::ZERO,
            steer_max: Angle::ZERO,
            samples: 0,
        };
        for c in controls {
            est.accel_max = est.accel_max.max(c.accel);
            est.brake_min = est.brake_min.min(c.accel);
            est.steer_max = est.steer_max.max(c.steer.abs());
            est.samples += 1;
        }
        est
    }

    /// Whether a candidate injection value would sit inside the observed
    /// envelope (and hence pass any check calibrated to it).
    pub fn accel_in_envelope(&self, a: Accel) -> bool {
        a <= self.accel_max && a >= self.brake_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canbus::{Encoder, VirtualCarDbc};

    fn command_traffic(n: u64) -> Vec<(Tick, CanFrame)> {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let mut records = Vec::new();
        for i in 0..n {
            let angle = 0.2 * ((i as f64) * 0.05).sin();
            let f = enc
                .encode(
                    dbc.steering_control(),
                    &[("STEER_ANGLE_CMD", angle), ("STEER_REQ", 1.0)],
                )
                .unwrap();
            records.push((Tick::new(i), f));
        }
        records
    }

    #[test]
    fn recognises_the_steering_command_message() {
        let records = command_traffic(200);
        let profiles = analyze_can(&records);
        let p = &profiles[&0xE4];
        assert_eq!(p.count, 200);
        assert!((p.period_ticks - 1.0).abs() < 1e-9, "100 Hz message");
        assert!(p.honda_checksum, "checksum hypothesis confirmed");
        assert!(p.rolling_counter, "counter hypothesis confirmed");
        assert!(p.looks_like_actuator_command());
        // The angle field occupies the leading bytes.
        assert!(!p.fields.is_empty());
        assert_eq!(p.fields[0].start_byte, 0);
    }

    #[test]
    fn static_messages_have_no_fields() {
        // A message whose payload never changes has nothing to attack.
        let frames: Vec<(Tick, CanFrame)> = (0..50)
            .map(|i| (Tick::new(i), CanFrame::new(0x123, &[7, 7, 7, 7]).unwrap()))
            .collect();
        let profiles = analyze_can(&frames);
        let p = &profiles[&0x123];
        assert!(p.fields.is_empty());
        assert!(!p.honda_checksum || p.count == 0 || !p.rolling_counter);
        assert!(!p.looks_like_actuator_command());
    }

    #[test]
    fn mixed_traffic_is_separated_by_id() {
        let mut records = command_traffic(100);
        for i in 0..60u64 {
            records.push((
                Tick::new(i * 2),
                CanFrame::new(0x1D0, &[i as u8, 0, 0, 0, 0, 0, 0, 0]).unwrap(),
            ));
        }
        let profiles = analyze_can(&records);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[&0xE4].count, 100);
        assert_eq!(profiles[&0x1D0].count, 60);
        assert!((profiles[&0x1D0].period_ticks - 2.0).abs() < 1e-9);
    }

    #[test]
    fn envelope_estimate_brackets_the_commands() {
        use units::Accel;
        let history: Vec<CarControl> = (0..100)
            .map(|i| CarControl {
                accel: Accel::from_mps2(-3.5 + 0.055 * i as f64),
                steer: Angle::from_degrees(0.4 * ((i as f64) * 0.3).sin()),
            })
            .collect();
        let est = SafetyEnvelopeEstimate::from_controls(&history);
        assert_eq!(est.samples, 100);
        assert!((est.brake_min.mps2() + 3.5).abs() < 1e-9);
        assert!(est.accel_max.mps2() > 1.9);
        assert!(est.steer_max.degrees() <= 0.4 + 1e-9);
        assert!(est.accel_in_envelope(Accel::from_mps2(1.0)));
        assert!(!est.accel_in_envelope(Accel::from_mps2(-4.0)));
    }

    #[test]
    fn an_id_whose_length_changes_reads_each_frame_s_own_counter() {
        // 0x200 arrives as an 8-byte frame, then as a 2-byte one; the
        // counter (bits 5-4 of the last byte) goes 1 → 2 across them.
        let records = [
            (
                Tick::new(0),
                CanFrame::new(0x200, &[0, 0, 0, 0, 0, 0, 0, 0x10]).unwrap(),
            ),
            (Tick::new(1), CanFrame::new(0x200, &[0, 0x20]).unwrap()),
        ];
        let p = &analyze_can(&records)[&0x200];
        assert_eq!(p.dlc, 8, "the first frame sets the profile's length");
        assert!(p.rolling_counter);
    }

    #[test]
    fn empty_history_is_harmless() {
        let est = SafetyEnvelopeEstimate::from_controls(&[]);
        assert_eq!(est.samples, 0);
        let profiles = analyze_can(&[]);
        assert!(profiles.is_empty());
    }
}
