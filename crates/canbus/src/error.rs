//! Error type for CAN operations.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing, encoding or decoding CAN frames.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CanError {
    /// The identifier does not fit in 11 bits.
    InvalidId {
        /// The offending identifier.
        id: u32,
    },
    /// The payload length exceeds 8 bytes.
    InvalidDlc {
        /// The offending length.
        dlc: usize,
    },
    /// A signal name was not found in the message spec.
    UnknownSignal {
        /// The requested signal name.
        name: &'static str,
    },
    /// The frame id does not match the message spec used to decode it.
    IdMismatch {
        /// Id the spec expects.
        expected: u16,
        /// Id the frame carries.
        actual: u16,
    },
    /// Checksum verification failed; a real ECU drops such frames.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        found: u8,
        /// Checksum recomputed from the frame contents.
        computed: u8,
    },
    /// A physical value does not fit in its signal's raw range.
    ValueOutOfRange {
        /// The signal being encoded.
        signal: &'static str,
        /// The physical value requested.
        value: f64,
    },
}

impl fmt::Display for CanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanError::InvalidId { id } => write!(f, "identifier {id:#x} exceeds 11 bits"),
            CanError::InvalidDlc { dlc } => write!(f, "payload of {dlc} bytes exceeds 8"),
            CanError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
            CanError::IdMismatch { expected, actual } => {
                write!(
                    f,
                    "frame id {actual:#x} does not match spec id {expected:#x}"
                )
            }
            CanError::ChecksumMismatch { found, computed } => {
                write!(
                    f,
                    "checksum {found:#x} does not match computed {computed:#x}"
                )
            }
            CanError::ValueOutOfRange { signal, value } => {
                write!(f, "value {value} out of range for signal `{signal}`")
            }
        }
    }
}

impl Error for CanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CanError::ChecksumMismatch {
            found: 0xA,
            computed: 0x3,
        };
        let msg = format!("{e}");
        assert!(msg.contains("0xa") && msg.contains("0x3"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CanError>();
    }
}
