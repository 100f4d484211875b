//! Raw CAN frames.

use std::fmt;

/// A classic CAN 2.0A data frame: 11-bit identifier, up to 8 data bytes.
///
/// Lower identifiers win bus arbitration, so safety-critical commands (like
/// steering, `0xE4`) use low ids.
///
/// # Examples
///
/// ```
/// use canbus::CanFrame;
///
/// let frame = CanFrame::new(0xE4, &[0x12, 0x34, 0x00, 0x00, 0x00, 0x6A])?;
/// assert_eq!(frame.id(), 0xE4);
/// assert_eq!(frame.dlc(), 6);
/// assert_eq!(frame.data()[1], 0x34);
/// # Ok::<(), canbus::CanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanFrame {
    id: u16,
    dlc: u8,
    data: [u8; 8],
}

impl CanFrame {
    /// Maximum 11-bit identifier.
    pub const MAX_ID: u16 = 0x7FF;

    /// Creates a frame from an identifier and payload. A `const fn`, so a
    /// sender's frame template can be validated where it is defined.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::InvalidId`](crate::CanError::InvalidId) if `id`
    /// exceeds 11 bits and [`CanError::InvalidDlc`](crate::CanError::InvalidDlc)
    /// if the payload is longer than 8 bytes.
    pub const fn new(id: u16, data: &[u8]) -> Result<Self, crate::CanError> {
        if id > Self::MAX_ID {
            return Err(crate::CanError::InvalidId { id: id as u32 });
        }
        if data.len() > 8 {
            return Err(crate::CanError::InvalidDlc { dlc: data.len() });
        }
        let mut buf = [0u8; 8];
        buf.split_at_mut(data.len()).0.copy_from_slice(data);
        Ok(Self {
            id,
            dlc: data.len() as u8,
            data: buf,
        })
    }

    /// The frame identifier.
    #[inline]
    pub const fn id(&self) -> u16 {
        self.id
    }

    /// The data length code (payload length in bytes).
    #[inline]
    pub const fn dlc(&self) -> u8 {
        self.dlc
    }

    /// The payload bytes (exactly `dlc` of them).
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.data.get(..self.dlc as usize).unwrap_or(&[])
    }

    /// Mutable access to the payload bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.data.get_mut(..self.dlc as usize).unwrap_or(&mut [])
    }

    /// The payload interpreted as a 64-bit big-endian word, unused trailing
    /// bytes zero-padded. This is the bit pool DBC signals are carved from.
    pub fn as_u64(&self) -> u64 {
        let mut word = 0u64;
        for (i, b) in self.data.iter().enumerate() {
            word |= (*b as u64) << (56 - 8 * i);
        }
        word
    }

    /// Replaces the payload with the given 64-bit big-endian word (keeping
    /// the current `dlc`).
    pub fn set_u64(&mut self, word: u64) {
        let dlc = self.dlc as usize;
        for (i, b) in self.data.iter_mut().enumerate() {
            *b = if i < dlc {
                ((word >> (56 - 8 * i)) & 0xFF) as u8
            } else {
                0
            };
        }
    }
}

impl fmt::Display for CanFrame {
    /// candump-style rendering: `0E4#123400006A`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03X}#", self.id)?;
        for b in self.data() {
            write!(f, "{b:02X}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_id_and_dlc() {
        assert!(CanFrame::new(0x7FF, &[]).is_ok());
        assert!(matches!(
            CanFrame::new(0x800, &[]),
            Err(crate::CanError::InvalidId { id: 0x800 })
        ));
        assert!(matches!(
            CanFrame::new(0x10, &[0; 9]),
            Err(crate::CanError::InvalidDlc { dlc: 9 })
        ));
    }

    #[test]
    fn data_respects_dlc() {
        let f = CanFrame::new(0x1, &[1, 2, 3]).unwrap();
        assert_eq!(f.data(), &[1, 2, 3]);
        assert_eq!(f.dlc(), 3);
    }

    #[test]
    fn u64_round_trip() {
        let mut f = CanFrame::new(0xE4, &[0; 6]).unwrap();
        // Set a pattern, read it back.
        f.set_u64(0x1234_5600_0000_0000);
        assert_eq!(f.data(), &[0x12, 0x34, 0x56, 0, 0, 0]);
        assert_eq!(f.as_u64(), 0x1234_5600_0000_0000);
    }

    #[test]
    fn set_u64_zeroes_beyond_dlc() {
        let mut f = CanFrame::new(0xE4, &[0; 4]).unwrap();
        f.set_u64(u64::MAX);
        assert_eq!(f.data(), &[0xFF; 4]);
        assert_eq!(f.as_u64() & 0xFFFF_FFFF, 0, "tail bytes stay zero");
    }

    #[test]
    fn candump_display() {
        let f = CanFrame::new(0xE4, &[0x12, 0x34, 0x00, 0x00, 0x00, 0x6A]).unwrap();
        assert_eq!(format!("{f}"), "0E4#12340000006A");
    }
}
