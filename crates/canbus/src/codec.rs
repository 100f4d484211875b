//! Frame encoding and decoding against [`MessageSpec`]s.

use std::collections::BTreeMap;

use crate::checksum::{apply_honda_checksum, verify_honda_checksum, RollingCounter};
use crate::{CanError, CanFrame, MessageSpec};

/// Encodes frames, maintaining one rolling counter per message id, the way a
/// transmitting ECU does.
///
/// # Examples
///
/// ```
/// use canbus::{Encoder, VirtualCarDbc, decode};
///
/// let dbc = VirtualCarDbc::new();
/// let mut enc = Encoder::new();
/// let f0 = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 1.5)])?;
/// let f1 = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 1.5)])?;
/// // Identical payloads still differ: the rolling counter advanced.
/// assert_ne!(f0, f1);
/// assert!((decode(dbc.gas_command(), &f1)?["ACCEL_CMD"] - 1.5).abs() < 1e-9);
/// # Ok::<(), canbus::CanError>(())
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    // An ECU transmits a handful of message ids, so a linear scan beats a
    // hash map on the 100 Hz control path.
    counters: Vec<(u16, RollingCounter)>,
}

impl Encoder {
    /// Creates an encoder with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next rolling-counter value of one message id, creating the
    /// counter at zero on first use.
    fn next_counter(&mut self, id: u16) -> u8 {
        if let Some(entry) = self.counters.iter_mut().find(|(i, _)| *i == id) {
            return entry.1.next_value();
        }
        // adas-lint: allow(R13, reason = "per-message-id counter table fills once on first encode of each id; steady-state encode is lookup-only — witnessed by the counting-allocator gate in platform/tests/alloc.rs")
        self.counters.push((id, RollingCounter::default()));
        match self.counters.last_mut() {
            Some(entry) => entry.1.next_value(),
            None => 0, // unreachable: an element was just pushed
        }
    }

    /// Encodes the given `(signal, physical value)` pairs into a frame,
    /// filling in the rolling counter and checksum automatically.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::UnknownSignal`] for names not in the spec and
    /// [`CanError::ValueOutOfRange`] for values that do not fit.
    // adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
    pub fn encode(
        &mut self,
        spec: &MessageSpec,
        values: &[(&'static str, f64)],
    ) -> Result<CanFrame, CanError> {
        let mut data = [0u8; 8];
        for (name, value) in values {
            let signal = spec.require_signal(name)?;
            let raw = signal.phys_to_raw(*value)?;
            signal.insert_raw(&mut data, raw);
        }
        if let Some(counter_name) = spec.counter_signal {
            let signal = spec.require_signal(counter_name)?;
            let value = self.next_counter(spec.id);
            signal.insert_raw(&mut data, value as u64);
        }
        if spec.checksum_signal.is_some() {
            apply_honda_checksum(spec.id, payload_mut(&mut data, spec.dlc));
        }
        CanFrame::new(spec.id, payload(&data, spec.dlc))
    }
}

/// The live payload region of a scratch buffer, clamped to the 8-byte CAN
/// maximum so a malformed spec cannot cause an out-of-bounds slice.
fn payload(data: &[u8; 8], dlc: u8) -> &[u8] {
    data.get(..(dlc as usize).min(8)).unwrap_or(&[])
}

/// Mutable variant of [`payload`].
fn payload_mut(data: &mut [u8; 8], dlc: u8) -> &mut [u8] {
    data.get_mut(..(dlc as usize).min(8)).unwrap_or(&mut [])
}

fn frame_data(frame: &CanFrame) -> [u8; 8] {
    let mut data = [0u8; 8];
    for (dst, src) in data.iter_mut().zip(frame.data()) {
        *dst = *src;
    }
    data
}

/// Decodes all signals of a frame, verifying its checksum first.
///
/// This is what a receiving ECU does; frames that fail verification are
/// dropped on a real bus, which is why the paper's attacker must recompute
/// the checksum after corrupting a signal.
///
/// # Errors
///
/// Returns [`CanError::IdMismatch`] if the frame id differs from the spec and
/// [`CanError::ChecksumMismatch`] if verification fails.
// adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
pub fn decode(
    spec: &MessageSpec,
    frame: &CanFrame,
) -> Result<BTreeMap<&'static str, f64>, CanError> {
    if frame.id() != spec.id {
        return Err(CanError::IdMismatch {
            expected: spec.id,
            actual: frame.id(),
        });
    }
    if spec.checksum_signal.is_some() && !verify_honda_checksum(spec.id, frame.data()) {
        let found = frame.data().last().map_or(0, |b| b & 0xF);
        let computed = crate::checksum::honda_checksum(spec.id, frame.data());
        return Err(CanError::ChecksumMismatch { found, computed });
    }
    Ok(decode_unchecked(spec, frame))
}

/// Decodes all signals without verifying the checksum. Useful for an
/// eavesdropper who only reads, or for diagnosing corrupted traffic.
// adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
pub fn decode_unchecked(spec: &MessageSpec, frame: &CanFrame) -> BTreeMap<&'static str, f64> {
    let data = frame_data(frame);
    spec.signals
        .iter()
        .map(|s| (s.name, s.raw_to_phys(s.extract_raw(&data))))
        .collect()
}

/// Decodes one named signal of a frame, verifying its checksum first.
///
/// Allocation-free alternative to [`decode`] for receivers that want a
/// single signal on a hot path (the actuator-side decoder runs this every
/// 10 ms control cycle).
///
/// # Errors
///
/// Returns [`CanError::IdMismatch`], [`CanError::ChecksumMismatch`] or
/// [`CanError::UnknownSignal`] under the corresponding conditions.
// adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
pub fn decode_signal(spec: &MessageSpec, frame: &CanFrame, name: &'static str) -> Result<f64, CanError> {
    if frame.id() != spec.id {
        return Err(CanError::IdMismatch {
            expected: spec.id,
            actual: frame.id(),
        });
    }
    if spec.checksum_signal.is_some() && !verify_honda_checksum(spec.id, frame.data()) {
        let found = frame.data().last().map_or(0, |b| b & 0xF);
        let computed = crate::checksum::honda_checksum(spec.id, frame.data());
        return Err(CanError::ChecksumMismatch { found, computed });
    }
    let signal = spec.require_signal(name)?;
    let data = frame_data(frame);
    Ok(signal.raw_to_phys(signal.extract_raw(&data)))
}

/// Rewrites one signal of an existing frame in place, preserving every other
/// bit (including the rolling counter) and recomputing the checksum — the
/// man-in-the-middle operation of the paper's Fig. 4.
///
/// # Errors
///
/// Returns [`CanError::IdMismatch`], [`CanError::UnknownSignal`] or
/// [`CanError::ValueOutOfRange`] under the corresponding conditions.
// adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
pub fn rewrite_signal(
    spec: &MessageSpec,
    frame: &CanFrame,
    name: &'static str,
    value: f64,
) -> Result<CanFrame, CanError> {
    if frame.id() != spec.id {
        return Err(CanError::IdMismatch {
            expected: spec.id,
            actual: frame.id(),
        });
    }
    let signal = spec.require_signal(name)?;
    let raw = signal.phys_to_raw(value)?;
    let mut data = frame_data(frame);
    signal.insert_raw(&mut data, raw);
    if spec.checksum_signal.is_some() {
        apply_honda_checksum(spec.id, payload_mut(&mut data, spec.dlc));
    }
    CanFrame::new(spec.id, payload(&data, spec.dlc))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable values
mod tests {
    use super::*;
    use crate::VirtualCarDbc;

    #[test]
    fn encode_decode_round_trip() {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let frame = enc
            .encode(
                dbc.steering_control(),
                &[("STEER_ANGLE_CMD", -0.25), ("STEER_REQ", 1.0)],
            )
            .unwrap();
        let map = decode(dbc.steering_control(), &frame).unwrap();
        assert!((map["STEER_ANGLE_CMD"] + 0.25).abs() < 1e-9);
        assert_eq!(map["STEER_REQ"], 1.0);
    }

    #[test]
    fn counter_advances_per_message_id() {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let f0 = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 0.0)]).unwrap();
        let f1 = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 0.0)]).unwrap();
        let c0 = decode(dbc.gas_command(), &f0).unwrap()["COUNTER"];
        let c1 = decode(dbc.gas_command(), &f1).unwrap()["COUNTER"];
        assert_eq!(c0, 0.0);
        assert_eq!(c1, 1.0);
        // A different message has its own counter.
        let b = enc.encode(dbc.brake_command(), &[("BRAKE_CMD", 0.0)]).unwrap();
        assert_eq!(decode(dbc.brake_command(), &b).unwrap()["COUNTER"], 0.0);
    }

    #[test]
    fn decode_rejects_wrong_id() {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let frame = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", 0.0)]).unwrap();
        assert!(matches!(
            decode(dbc.steering_control(), &frame),
            Err(CanError::IdMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_bit_flips() {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        let mut frame = enc
            .encode(dbc.steering_control(), &[("STEER_ANGLE_CMD", 0.1)])
            .unwrap();
        frame.data_mut()[0] ^= 0x01;
        assert!(matches!(
            decode(dbc.steering_control(), &frame),
            Err(CanError::ChecksumMismatch { .. })
        ));
        // The eavesdropper's unchecked decode still works.
        let _ = decode_unchecked(dbc.steering_control(), &frame);
    }

    #[test]
    fn rewrite_preserves_other_signals_and_fixes_checksum() {
        let dbc = VirtualCarDbc::new();
        let spec = dbc.steering_control();
        let mut enc = Encoder::new();
        // Advance the counter a bit first.
        enc.encode(spec, &[("STEER_ANGLE_CMD", 0.0)]).unwrap();
        let original = enc
            .encode(spec, &[("STEER_ANGLE_CMD", 0.05), ("STEER_REQ", 1.0)])
            .unwrap();

        let attacked = rewrite_signal(spec, &original, "STEER_ANGLE_CMD", 0.5).unwrap();
        let map = decode(spec, &attacked).expect("checksum must verify after rewrite");
        assert!((map["STEER_ANGLE_CMD"] - 0.5).abs() < 1e-9);
        assert_eq!(map["STEER_REQ"], 1.0, "untouched signal preserved");
        assert_eq!(
            map["COUNTER"],
            decode(spec, &original).unwrap()["COUNTER"],
            "rolling counter preserved so the receiver sees no gap"
        );
    }

    #[test]
    fn rewrite_rejects_out_of_range_value() {
        let dbc = VirtualCarDbc::new();
        let spec = dbc.steering_control();
        let mut enc = Encoder::new();
        let frame = enc.encode(spec, &[("STEER_ANGLE_CMD", 0.0)]).unwrap();
        // 16-bit signed at 0.01 deg/bit tops out at 327.67 deg.
        assert!(matches!(
            rewrite_signal(spec, &frame, "STEER_ANGLE_CMD", 400.0),
            Err(CanError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn unknown_signal_errors() {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        assert!(matches!(
            enc.encode(dbc.gas_command(), &[("NOPE", 1.0)]),
            Err(CanError::UnknownSignal { .. })
        ));
    }
}
