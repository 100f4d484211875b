//! DBC-style signal layout: where a signal lives inside a frame and how its
//! raw bits map to a physical value (`physical = raw * factor + offset`).

use crate::CanError;

/// Bit ordering of a multi-byte signal, matching DBC conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Intel / little-endian: `start_bit` is the signal's LSB; bits fill
    /// toward higher frame-bit positions.
    LittleEndian,
    /// Motorola / big-endian: `start_bit` is the signal's MSB in DBC "inverted
    /// sawtooth" numbering; bits fill toward lower in-byte positions, wrapping
    /// to the MSB of the next byte. Honda messages (like steering `0xE4`) use
    /// this order.
    BigEndian,
}

/// One signal within a CAN message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signal {
    /// Signal name, unique within its message.
    pub name: &'static str,
    /// Start bit in DBC numbering (see [`ByteOrder`]).
    pub start_bit: u16,
    /// Width in bits (1..=64).
    pub length: u8,
    /// Scale factor applied to the raw integer.
    pub factor: f64,
    /// Offset added after scaling.
    pub offset: f64,
    /// Whether the raw value is two's-complement signed.
    pub signed: bool,
    /// Bit ordering.
    pub order: ByteOrder,
}

impl Signal {
    /// Creates an unsigned little-endian signal with unit scaling.
    pub const fn plain(name: &'static str, start_bit: u16, length: u8) -> Self {
        Self {
            name,
            start_bit,
            length,
            factor: 1.0,
            offset: 0.0,
            signed: false,
            order: ByteOrder::LittleEndian,
        }
    }

    /// Maximum raw value representable by this signal.
    const fn raw_max(&self) -> i64 {
        if self.signed {
            (1i64 << (self.length - 1)) - 1
        } else if self.length >= 63 {
            i64::MAX
        } else {
            (1i64 << self.length) - 1
        }
    }

    /// Minimum raw value representable by this signal.
    const fn raw_min(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.length - 1))
        } else {
            0
        }
    }

    /// An in-range raw integer as the frame stores it: two's complement,
    /// cut to the signal's width.
    const fn masked(&self, raw: i64) -> u64 {
        let mask = if self.length == 64 {
            u64::MAX
        } else {
            (1u64 << self.length) - 1
        };
        (raw as u64) & mask
    }

    /// Converts a physical value to the raw integer stored in the frame.
    /// A `const fn`, so a table of signals can check at compile time that
    /// the values it will carry fit.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::ValueOutOfRange`] if the scaled value does not fit
    /// in the signal's bit width.
    // adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
    pub const fn phys_to_raw(&self, value: f64) -> Result<u64, CanError> {
        let raw = ((value - self.offset) / self.factor).round();
        if !raw.is_finite() || raw < self.raw_min() as f64 || raw > self.raw_max() as f64 {
            return Err(CanError::ValueOutOfRange {
                signal: self.name,
                value,
            });
        }
        Ok(self.masked(raw as i64))
    }

    /// [`phys_to_raw`](Self::phys_to_raw) for a sender whose values are
    /// known to fit: the same raw integer for every value `phys_to_raw`
    /// accepts, and the nearest end of the range for one it would refuse
    /// (NaN reads as 0), so it cannot fail.
    // adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
    pub fn saturating_phys_to_raw(&self, value: f64) -> u64 {
        let raw = ((value - self.offset) / self.factor).round();
        self.masked(raw.clamp(self.raw_min() as f64, self.raw_max() as f64) as i64)
    }

    /// Converts a raw integer back to its physical value.
    // adas-lint: allow(R1, reason = "DBC physical values are unit-erased by definition; units attach at the schema layer")
    pub fn raw_to_phys(&self, raw: u64) -> f64 {
        let value = if self.signed && self.length < 64 {
            let sign_bit = 1u64 << (self.length - 1);
            if raw & sign_bit != 0 {
                (raw as i64) - (1i64 << self.length)
            } else {
                raw as i64
            }
        } else {
            raw as i64
        };
        value as f64 * self.factor + self.offset
    }

    /// Where the signal sits in the payload read as one 64-bit word: the
    /// shift of its least significant bit, or `None` when part of it lies
    /// outside the 8-byte payload (or its width is outside `1..=64`).
    ///
    /// Intel bits are numbered in little-endian word order already. A
    /// Motorola signal runs from its MSB down through the big-endian word,
    /// where frame bit `8·byte + bit` is word bit `56 − 8·byte + bit`, so
    /// its bits are contiguous there too.
    fn word_shift(&self) -> Option<u32> {
        let len = u32::from(self.length);
        let start = u32::from(self.start_bit);
        if len == 0 || len > 64 {
            return None;
        }
        match self.order {
            ByteOrder::LittleEndian => (start + len <= 64).then_some(start),
            ByteOrder::BigEndian if start < 64 => {
                (57 - 8 * (start / 8) + start % 8).checked_sub(len)
            }
            ByteOrder::BigEndian => None,
        }
    }

    /// The payload as the word [`word_shift`](Self::word_shift) indexes.
    fn load(&self, data: &[u8; 8]) -> u64 {
        match self.order {
            ByteOrder::LittleEndian => u64::from_le_bytes(*data),
            ByteOrder::BigEndian => u64::from_be_bytes(*data),
        }
    }

    /// Writes the raw value into the frame payload: one word load, one
    /// masked merge and one store. Bits of `raw` above the signal's width
    /// are ignored.
    pub fn insert_raw(&self, data: &mut [u8; 8], raw: u64) {
        let Some(shift) = self.word_shift() else {
            return self.insert_raw_bitwise(data, raw);
        };
        let mask = (u64::MAX >> (64 - u32::from(self.length))) << shift;
        let word = (self.load(data) & !mask) | ((raw << shift) & mask);
        *data = match self.order {
            ByteOrder::LittleEndian => word.to_le_bytes(),
            ByteOrder::BigEndian => word.to_be_bytes(),
        };
    }

    /// Reads the raw value out of the frame payload: one word load and one
    /// shift-and-mask.
    pub fn extract_raw(&self, data: &[u8; 8]) -> u64 {
        match self.word_shift() {
            Some(shift) => (self.load(data) >> shift) & (u64::MAX >> (64 - u32::from(self.length))),
            None => self.extract_raw_bitwise(data),
        }
    }

    /// Bit-at-a-time [`insert_raw`](Self::insert_raw) for a signal that
    /// runs past the payload: the bits that fall outside are dropped.
    fn insert_raw_bitwise(&self, data: &mut [u8; 8], raw: u64) {
        match self.order {
            ByteOrder::LittleEndian => {
                for k in 0..self.length as u16 {
                    let bit = (raw >> k) & 1;
                    let pos = self.start_bit + k;
                    set_bit_le(data, pos, bit == 1);
                }
            }
            ByteOrder::BigEndian => {
                let mut pos = self.start_bit;
                for k in (0..self.length as u16).rev() {
                    let bit = (raw >> k) & 1;
                    set_bit_le(data, pos, bit == 1);
                    pos = next_be(pos);
                }
            }
        }
    }

    /// Bit-at-a-time [`extract_raw`](Self::extract_raw) for a signal that
    /// runs past the payload: the bits that fall outside read as zero.
    fn extract_raw_bitwise(&self, data: &[u8; 8]) -> u64 {
        let mut raw = 0u64;
        match self.order {
            ByteOrder::LittleEndian => {
                for k in (0..self.length as u16).rev() {
                    let pos = self.start_bit + k;
                    raw = (raw << 1) | get_bit_le(data, pos) as u64;
                }
            }
            ByteOrder::BigEndian => {
                let mut pos = self.start_bit;
                for _ in 0..self.length {
                    raw = (raw << 1) | get_bit_le(data, pos) as u64;
                    pos = next_be(pos);
                }
            }
        }
        raw
    }
}

/// Frame-bit addressing shared by both orders: bit `pos` lives in byte
/// `pos / 8` at in-byte position `pos % 8` (LSB = 0).
fn set_bit_le(data: &mut [u8; 8], pos: u16, value: bool) {
    let bit = pos % 8;
    if let Some(byte) = data.get_mut((pos / 8) as usize) {
        if value {
            *byte |= 1 << bit;
        } else {
            *byte &= !(1 << bit);
        }
    }
}

fn get_bit_le(data: &[u8; 8], pos: u16) -> u8 {
    let bit = pos % 8;
    data.get((pos / 8) as usize)
        .map_or(0, |byte| (byte >> bit) & 1)
}

/// Advances a Motorola bit cursor: down within a byte, then to the MSB of the
/// following byte.
fn next_be(pos: u16) -> u16 {
    if pos.is_multiple_of(8) {
        pos + 15
    } else {
        pos - 1
    }
}

/// A complete CAN message definition (DBC `BO_` entry). Every field is
/// static data, so a database of them is a set of `const`s.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSpec {
    /// Frame identifier.
    pub id: u16,
    /// Message name.
    pub name: &'static str,
    /// Payload length in bytes.
    pub dlc: u8,
    /// The signals carried by the message.
    pub signals: &'static [Signal],
    /// The 4-bit Honda-style checksum signal, if protected (also listed in
    /// `signals`).
    pub checksum_signal: Option<Signal>,
    /// The 2-bit rolling-counter signal, if present (also listed in
    /// `signals`).
    pub counter_signal: Option<Signal>,
}

impl MessageSpec {
    /// Looks up a signal by name.
    pub fn signal(&self, name: &str) -> Option<&Signal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Looks up a signal by name, as a typed error on failure.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::UnknownSignal`] if no signal has that name.
    pub fn require_signal(&self, name: &'static str) -> Result<&Signal, CanError> {
        self.signal(name).ok_or(CanError::UnknownSignal { name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_signal(start: u16, len: u8, signed: bool) -> Signal {
        Signal {
            name: "S",
            start_bit: start,
            length: len,
            factor: 1.0,
            offset: 0.0,
            signed,
            order: ByteOrder::LittleEndian,
        }
    }

    #[test]
    fn little_endian_round_trip() {
        let s = le_signal(4, 12, false);
        let mut data = [0u8; 8];
        s.insert_raw(&mut data, 0xABC);
        assert_eq!(s.extract_raw(&data), 0xABC);
        // Bits land where expected: 0xABC << 4 over bytes 0..2.
        assert_eq!(data[0], 0xC0);
        assert_eq!(data[1], 0xAB);
    }

    #[test]
    fn big_endian_round_trip() {
        let s = Signal {
            order: ByteOrder::BigEndian,
            start_bit: 7, // MSB of byte 0
            length: 16,
            ..le_signal(0, 16, false)
        };
        let mut data = [0u8; 8];
        s.insert_raw(&mut data, 0x1234);
        assert_eq!(data[0], 0x12);
        assert_eq!(data[1], 0x34);
        assert_eq!(s.extract_raw(&data), 0x1234);
    }

    #[test]
    fn big_endian_unaligned() {
        // 10-bit signal starting mid-byte, like real Honda layouts.
        let s = Signal {
            order: ByteOrder::BigEndian,
            start_bit: 5,
            length: 10,
            ..le_signal(0, 10, false)
        };
        let mut data = [0u8; 8];
        s.insert_raw(&mut data, 0x3FF);
        assert_eq!(s.extract_raw(&data), 0x3FF);
        // Exactly 10 bits set in the frame.
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 10);
    }

    #[test]
    fn signed_values_round_trip() {
        let s = Signal {
            signed: true,
            factor: 0.01,
            ..le_signal(0, 16, true)
        };
        for phys in [-163.84 + 0.01, -1.0, -0.25, 0.0, 0.25, 163.83] {
            let raw = s.phys_to_raw(phys).unwrap();
            assert!(
                (s.raw_to_phys(raw) - phys).abs() < 0.005,
                "{phys} round-trips"
            );
        }
    }

    #[test]
    fn out_of_range_is_rejected() {
        let s = le_signal(0, 8, false);
        assert!(s.phys_to_raw(255.0).is_ok());
        assert!(matches!(
            s.phys_to_raw(256.0),
            Err(CanError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            s.phys_to_raw(-1.0),
            Err(CanError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn signed_range_limits() {
        let s = le_signal(0, 8, true);
        assert!(s.phys_to_raw(127.0).is_ok());
        assert!(s.phys_to_raw(-128.0).is_ok());
        assert!(s.phys_to_raw(128.0).is_err());
        assert!(s.phys_to_raw(-129.0).is_err());
    }

    #[test]
    fn insert_clears_previous_bits() {
        let s = le_signal(0, 8, false);
        let mut data = [0u8; 8];
        s.insert_raw(&mut data, 0xFF);
        s.insert_raw(&mut data, 0x00);
        assert_eq!(s.extract_raw(&data), 0);
    }

    #[test]
    fn overlapping_signals_do_not_clobber() {
        let a = le_signal(0, 4, false);
        let b = Signal {
            name: "B",
            ..le_signal(4, 4, false)
        };
        let mut data = [0u8; 8];
        a.insert_raw(&mut data, 0x5);
        b.insert_raw(&mut data, 0xA);
        assert_eq!(a.extract_raw(&data), 0x5);
        assert_eq!(b.extract_raw(&data), 0xA);
    }

    #[test]
    fn saturating_conversion_matches_the_checked_one_inside_the_range() {
        let s = Signal {
            factor: 0.01,
            ..le_signal(0, 16, true)
        };
        for phys in [-327.68, -1.0, -0.004, -0.0, 0.0, 0.006, 0.25, 327.67] {
            assert_eq!(
                Ok(s.saturating_phys_to_raw(phys)),
                s.phys_to_raw(phys),
                "{phys}"
            );
        }
        assert_eq!(
            s.saturating_phys_to_raw(400.0),
            s.phys_to_raw(327.67).unwrap()
        );
        assert_eq!(
            s.saturating_phys_to_raw(-400.0),
            s.phys_to_raw(-327.68).unwrap()
        );
        assert_eq!(s.saturating_phys_to_raw(f64::NAN), 0);
    }

    #[test]
    fn message_spec_lookup() {
        const S: Signal = Signal::plain("S", 0, 8);
        let spec = MessageSpec {
            id: 0xE4,
            name: "TEST",
            dlc: 8,
            signals: &[S],
            checksum_signal: None,
            counter_signal: None,
        };
        assert!(spec.signal("S").is_some());
        assert!(spec.signal("T").is_none());
        assert!(matches!(
            spec.require_signal("T"),
            Err(CanError::UnknownSignal { .. })
        ));
    }
}
