//! Property-based tests: codec round-trips and checksum-forgery invariants.

use canbus::checksum::{apply_honda_checksum, verify_honda_checksum};
use canbus::{decode, decode_unchecked, rewrite_signal, CanError, Encoder, VirtualCarDbc};
use proptest::prelude::*;

proptest! {
    /// Any in-range steering command survives encode -> decode within one LSB.
    #[test]
    fn steering_angle_round_trips(angle in -300.0..300.0f64) {
        let dbc = VirtualCarDbc::new();
        let spec = dbc.steering_control();
        let mut enc = Encoder::new();
        let frame = enc.encode(spec, &[("STEER_ANGLE_CMD", angle)]).unwrap();
        let decoded = decode(spec, &frame).unwrap()["STEER_ANGLE_CMD"];
        prop_assert!((decoded - angle).abs() <= 0.005, "{decoded} vs {angle}");
    }

    /// Every frame the encoder produces carries a valid checksum.
    #[test]
    fn encoder_output_always_verifies(accel in -10.0..10.0f64, n in 1usize..20) {
        let dbc = VirtualCarDbc::new();
        let mut enc = Encoder::new();
        for _ in 0..n {
            let frame = enc.encode(dbc.gas_command(), &[("ACCEL_CMD", accel)]).unwrap();
            prop_assert!(verify_honda_checksum(frame.id(), frame.data()));
        }
    }

    /// Rewriting a signal preserves every other signal and keeps the frame
    /// verifiable — the core man-in-the-middle invariant.
    #[test]
    fn rewrite_is_surgical(original in -3.0..3.0f64, attack in -3.0..3.0f64) {
        let dbc = VirtualCarDbc::new();
        let spec = dbc.brake_command();
        let mut enc = Encoder::new();
        let frame = enc
            .encode(spec, &[("BRAKE_CMD", original), ("BRAKE_REQ", 1.0)])
            .unwrap();
        let attacked = rewrite_signal(spec, &frame, "BRAKE_CMD", attack).unwrap();
        let map = decode(spec, &attacked).unwrap();
        prop_assert!((map["BRAKE_CMD"] - attack).abs() <= 0.001);
        prop_assert_eq!(map["BRAKE_REQ"].to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(
            map["COUNTER"].to_bits(),
            decode(spec, &frame).unwrap()["COUNTER"].to_bits()
        );
    }

    /// A single flipped payload bit is always caught by the checksum unless
    /// the attacker recomputes it.
    #[test]
    fn bit_flips_are_detected(bit in 0usize..40, angle in -1.0..1.0f64) {
        let dbc = VirtualCarDbc::new();
        let spec = dbc.steering_control();
        let mut enc = Encoder::new();
        let mut frame = enc.encode(spec, &[("STEER_ANGLE_CMD", angle)]).unwrap();
        frame.data_mut()[bit / 8] ^= 1 << (bit % 8);
        // Flipping a checksum-nibble bit also invalidates the frame, so every
        // flipped bit position must be rejected.
        let rejected = matches!(decode(spec, &frame), Err(CanError::ChecksumMismatch { .. }));
        prop_assert!(rejected);
        // Recomputing the checksum "repairs" the tampered frame.
        let mut data = [0u8; 8];
        data[..frame.data().len()].copy_from_slice(frame.data());
        apply_honda_checksum(spec.id, &mut data[..spec.dlc as usize]);
        let repaired = canbus::CanFrame::new(spec.id, &data[..spec.dlc as usize]).unwrap();
        prop_assert!(decode(spec, &repaired).is_ok());
    }

    /// decode_unchecked never fails on arbitrary payload bytes.
    #[test]
    fn unchecked_decode_is_total(data in proptest::collection::vec(any::<u8>(), 6)) {
        let dbc = VirtualCarDbc::new();
        let frame = canbus::CanFrame::new(0xE4, &data).unwrap();
        let map = decode_unchecked(dbc.steering_control(), &frame);
        prop_assert!(map.contains_key("STEER_ANGLE_CMD"));
        for v in map.values() {
            prop_assert!(v.is_finite());
        }
    }
}
