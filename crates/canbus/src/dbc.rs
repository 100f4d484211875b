//! The message database (DBC) of the simulated vehicle.
//!
//! Layouts follow the Honda family that OpenPilot's opendbc describes and the
//! paper attacks: big-endian signals, a 2-bit rolling counter in bits 5–4 of
//! the last byte and the 4-bit nibble checksum in bits 3–0.

use crate::{ByteOrder, MessageSpec, Signal};

/// Identifier of the steering command message (`0xE4`, as in the paper's
/// Fig. 4).
pub const STEERING_CONTROL_ID: u16 = 0xE4;
/// Identifier of the gas (acceleration) command message.
pub const GAS_COMMAND_ID: u16 = 0x200;
/// Identifier of the brake command message.
pub const BRAKE_COMMAND_ID: u16 = 0x1FA;
/// Identifier of the wheel-speed feedback message.
pub const WHEEL_SPEEDS_ID: u16 = 0x1D0;
/// Identifier of the steering-angle feedback message.
pub const STEER_STATUS_ID: u16 = 0x18F;

const fn be(name: &'static str, start_bit: u16, length: u8, factor: f64, signed: bool) -> Signal {
    Signal {
        name,
        start_bit,
        length,
        factor,
        offset: 0.0,
        signed,
        order: ByteOrder::BigEndian,
    }
}

/// Steering command: road-wheel angle, 0.01 degrees per bit.
pub const STEER_ANGLE_CMD: Signal = be("STEER_ANGLE_CMD", 7, 16, 0.01, true);
/// Steering command: the request flag, 1 while the ADAS steers.
pub const STEER_REQ: Signal = be("STEER_REQ", 23, 1, 1.0, false);
/// Gas command: acceleration, 0.001 m/s² per bit.
pub const ACCEL_CMD: Signal = be("ACCEL_CMD", 7, 16, 0.001, true);
/// Gas command: the request flag.
pub const GAS_REQ: Signal = be("GAS_REQ", 23, 1, 1.0, false);
/// Brake command: deceleration (negative), 0.001 m/s² per bit.
pub const BRAKE_CMD: Signal = be("BRAKE_CMD", 7, 16, 0.001, true);
/// Brake command: the request flag.
pub const BRAKE_REQ: Signal = be("BRAKE_REQ", 23, 1, 1.0, false);

const WHEEL_SPEED_FL: Signal = be("WHEEL_SPEED_FL", 7, 16, 0.01, false);
const WHEEL_SPEED_FR: Signal = be("WHEEL_SPEED_FR", 23, 16, 0.01, false);
const STEER_ANGLE: Signal = be("STEER_ANGLE", 7, 16, 0.01, true);

// The rolling counter (bits 5–4) and checksum (bits 3–0) in the last byte
// of a 6-byte and of an 8-byte message.
const COUNTER_6: Signal = be("COUNTER", 5 * 8 + 5, 2, 1.0, false);
const CHECKSUM_6: Signal = be("CHECKSUM", 5 * 8 + 3, 4, 1.0, false);
const COUNTER_8: Signal = be("COUNTER", 7 * 8 + 5, 2, 1.0, false);
const CHECKSUM_8: Signal = be("CHECKSUM", 7 * 8 + 3, 4, 1.0, false);

/// A 6-byte actuator command: a 16-bit value, its request flag, and the
/// counter/checksum tail.
const fn command_message(
    id: u16,
    name: &'static str,
    signals: &'static [Signal; 4],
) -> MessageSpec {
    MessageSpec {
        id,
        name,
        dlc: 6,
        signals,
        checksum_signal: Some(CHECKSUM_6),
        counter_signal: Some(COUNTER_6),
    }
}

// Actuator commands (ADAS -> car), the attack's targets.
const STEERING_CONTROL: MessageSpec = command_message(
    STEERING_CONTROL_ID,
    "STEERING_CONTROL",
    &[STEER_ANGLE_CMD, STEER_REQ, COUNTER_6, CHECKSUM_6],
);
const GAS_COMMAND: MessageSpec = command_message(
    GAS_COMMAND_ID,
    "GAS_COMMAND",
    &[ACCEL_CMD, GAS_REQ, COUNTER_6, CHECKSUM_6],
);
const BRAKE_COMMAND: MessageSpec = command_message(
    BRAKE_COMMAND_ID,
    "BRAKE_COMMAND",
    &[BRAKE_CMD, BRAKE_REQ, COUNTER_6, CHECKSUM_6],
);
// Feedback (car -> ADAS).
const WHEEL_SPEEDS: MessageSpec = MessageSpec {
    id: WHEEL_SPEEDS_ID,
    name: "WHEEL_SPEEDS",
    dlc: 8,
    signals: &[WHEEL_SPEED_FL, WHEEL_SPEED_FR, COUNTER_8, CHECKSUM_8],
    checksum_signal: Some(CHECKSUM_8),
    counter_signal: Some(COUNTER_8),
};
const STEER_STATUS: MessageSpec = MessageSpec {
    id: STEER_STATUS_ID,
    name: "STEER_STATUS",
    dlc: 6,
    signals: &[STEER_ANGLE, COUNTER_6, CHECKSUM_6],
    checksum_signal: Some(CHECKSUM_6),
    counter_signal: Some(COUNTER_6),
};

/// The full message database of the virtual car.
///
/// The database is compile-time data: every message and signal is a
/// `const`, so the value is zero-sized, [`new`](Self::new) is a `const fn`
/// that builds nothing, and each accessor returns the one static
/// definition of its message, infallibly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VirtualCarDbc;

impl VirtualCarDbc {
    /// The database.
    pub const fn new() -> Self {
        Self
    }

    /// All message specs, in id-independent declaration order.
    pub fn messages(&self) -> [&'static MessageSpec; 5] {
        [
            &STEERING_CONTROL,
            &GAS_COMMAND,
            &BRAKE_COMMAND,
            &WHEEL_SPEEDS,
            &STEER_STATUS,
        ]
    }

    /// Looks up a message by frame identifier.
    pub fn by_id(&self, id: u16) -> Option<&'static MessageSpec> {
        self.messages().into_iter().find(|m| m.id == id)
    }

    /// Looks up a message by name.
    pub fn by_name(&self, name: &str) -> Option<&'static MessageSpec> {
        self.messages().into_iter().find(|m| m.name == name)
    }

    /// The steering command message (`0xE4`).
    pub const fn steering_control(&self) -> &'static MessageSpec {
        &STEERING_CONTROL
    }

    /// The gas command message.
    pub const fn gas_command(&self) -> &'static MessageSpec {
        &GAS_COMMAND
    }

    /// The brake command message.
    pub const fn brake_command(&self) -> &'static MessageSpec {
        &BRAKE_COMMAND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let dbc = VirtualCarDbc::new();
        let ids: Vec<u16> = dbc.messages().iter().map(|m| m.id).collect();
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn steering_message_matches_paper() {
        let dbc = VirtualCarDbc::new();
        let steer = dbc.steering_control();
        assert_eq!(steer.id, 0xE4, "paper Fig. 4 uses 0xE4 for steering");
        assert_eq!(steer.signal("STEER_ANGLE_CMD"), Some(&STEER_ANGLE_CMD));
        assert_eq!(steer.checksum_signal.map(|s| s.name), Some("CHECKSUM"));
    }

    #[test]
    fn checksum_signal_occupies_low_nibble_of_last_byte() {
        // The Honda checksum algorithm assumes this placement; verify it for
        // every protected message.
        let dbc = VirtualCarDbc::new();
        for m in dbc.messages() {
            if let Some(s) = m.checksum_signal {
                assert_eq!(s.length, 4, "{}: checksum is a nibble", m.name);
                assert_eq!(
                    s.start_bit,
                    (m.dlc as u16 - 1) * 8 + 3,
                    "{}: checksum MSB at bit 3 of last byte",
                    m.name
                );
            }
        }
    }

    #[test]
    fn lookup_by_id_and_name_agree() {
        let dbc = VirtualCarDbc::new();
        for m in dbc.messages() {
            assert_eq!(dbc.by_id(m.id), Some(m));
            assert_eq!(dbc.by_name(m.name), Some(m));
        }
        assert!(dbc.by_id(0x123).is_none());
        assert!(dbc.by_name("NOPE").is_none());
    }

    #[test]
    fn command_messages_have_counters() {
        let dbc = VirtualCarDbc::new();
        for accessor in [
            VirtualCarDbc::steering_control,
            VirtualCarDbc::gas_command,
            VirtualCarDbc::brake_command,
        ] {
            let m = accessor(&dbc);
            assert_eq!(
                m.counter_signal.map(|s| s.name),
                Some("COUNTER"),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn counter_and_checksum_are_signals_of_their_message() {
        for m in VirtualCarDbc::new().messages() {
            for tail in [m.counter_signal, m.checksum_signal].into_iter().flatten() {
                assert_eq!(m.signal(tail.name), Some(&tail), "{}", m.name);
            }
        }
    }
}
