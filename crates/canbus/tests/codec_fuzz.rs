//! Seeded fuzz tests for the signal codec.
//!
//! `Signal::insert_raw`/`extract_raw` pack a signal with one 64-bit word
//! load, one shift-and-mask and one store. The oracle here is the
//! bit-at-a-time loop they replaced, restated below exactly as it was: every
//! start bit 0–71, every width 1–64 and both byte orders, each with random
//! payload bytes and random raw values (high garbage bits included), must
//! produce the same payload and the same extracted value. CI also runs this
//! under `--release`, where shift and wrap arithmetic is unchecked.
//!
//! A second test round-trips the three actuator messages of the virtual
//! car's DBC through `Encoder::encode` → `decode`.

use canbus::checksum::verify_honda_checksum;
use canbus::{decode, ByteOrder, Encoder, Signal, VirtualCarDbc};
use units::mix::splitmix64;

/// Random cases per (start bit, width, byte order) layout.
const CASES_PER_LAYOUT: u64 = 50;

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
}

/// The bit-at-a-time codec the word-level one replaced: frame bit `pos`
/// lives in byte `pos / 8` at in-byte position `pos % 8`; bits outside the
/// payload are dropped on write and read as zero.
mod reference {
    use canbus::{ByteOrder, Signal};

    fn set_bit(data: &mut [u8; 8], pos: u16, value: bool) {
        if let Some(byte) = data.get_mut((pos / 8) as usize) {
            if value {
                *byte |= 1 << (pos % 8);
            } else {
                *byte &= !(1 << (pos % 8));
            }
        }
    }

    fn get_bit(data: &[u8; 8], pos: u16) -> u64 {
        data.get((pos / 8) as usize)
            .map_or(0, |byte| u64::from((byte >> (pos % 8)) & 1))
    }

    /// A Motorola cursor moves down within a byte, then to the MSB of the
    /// next byte.
    fn next_be(pos: u16) -> u16 {
        if pos.is_multiple_of(8) {
            pos + 15
        } else {
            pos - 1
        }
    }

    pub fn insert_raw(s: &Signal, data: &mut [u8; 8], raw: u64) {
        match s.order {
            ByteOrder::LittleEndian => {
                for k in 0..u16::from(s.length) {
                    set_bit(data, s.start_bit + k, (raw >> k) & 1 == 1);
                }
            }
            ByteOrder::BigEndian => {
                let mut pos = s.start_bit;
                for k in (0..u16::from(s.length)).rev() {
                    set_bit(data, pos, (raw >> k) & 1 == 1);
                    pos = next_be(pos);
                }
            }
        }
    }

    pub fn extract_raw(s: &Signal, data: &[u8; 8]) -> u64 {
        let mut raw = 0u64;
        match s.order {
            ByteOrder::LittleEndian => {
                for k in (0..u16::from(s.length)).rev() {
                    raw = (raw << 1) | get_bit(data, s.start_bit + k);
                }
            }
            ByteOrder::BigEndian => {
                let mut pos = s.start_bit;
                for _ in 0..s.length {
                    raw = (raw << 1) | get_bit(data, pos);
                    pos = next_be(pos);
                }
            }
        }
        raw
    }
}

#[test]
fn word_level_codec_matches_the_bit_loop() {
    let mut rng = Rng(0xC0DE_C0DE);
    let mut cases = 0u64;
    for order in [ByteOrder::LittleEndian, ByteOrder::BigEndian] {
        for start_bit in 0..72u16 {
            for length in 1..=64u8 {
                let signal = Signal {
                    order,
                    start_bit,
                    length,
                    ..Signal::plain("FUZZ", 0, 1)
                };
                for _ in 0..CASES_PER_LAYOUT {
                    let data = rng.next().to_le_bytes();
                    let raw = rng.next();
                    assert_eq!(
                        signal.extract_raw(&data),
                        reference::extract_raw(&signal, &data),
                        "extract {order:?} start {start_bit} len {length} from {data:02x?}"
                    );
                    let (mut word, mut bits) = (data, data);
                    signal.insert_raw(&mut word, raw);
                    reference::insert_raw(&signal, &mut bits, raw);
                    assert_eq!(
                        word, bits,
                        "insert {raw:#x} {order:?} start {start_bit} len {length} into {data:02x?}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 2 * 72 * 64 * CASES_PER_LAYOUT);
}

#[test]
fn actuator_messages_round_trip_through_the_dbc() {
    let dbc = VirtualCarDbc::new();
    let messages = [
        (
            dbc.steering_control(),
            "STEER_ANGLE_CMD",
            "STEER_REQ",
            300.0,
        ),
        (dbc.gas_command(), "ACCEL_CMD", "GAS_REQ", 30.0),
        (dbc.brake_command(), "BRAKE_CMD", "BRAKE_REQ", 30.0),
    ];
    let mut rng = Rng(0xD8C);
    let mut enc = Encoder::new();
    for cycle in 0..2_000u64 {
        for (spec, value_name, req_name, range) in messages {
            // Uniform in [-range, range], inside the 16-bit signed signal.
            let value = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * range - range;
            let req = (rng.next() & 1) as f64;
            let frame = enc
                .encode(spec, &[(value_name, value), (req_name, req)])
                .expect("in-range values encode");
            assert_eq!(frame.id(), spec.id);
            assert_eq!(frame.dlc(), spec.dlc);
            let signals = decode(spec, &frame).expect("own frames verify");
            let factor = spec.signal(value_name).map_or(0.0, |s| s.factor);
            assert!(
                (signals[value_name] - value).abs() <= factor / 2.0 + 1e-12,
                "{}: {value} decoded as {}",
                spec.name,
                signals[value_name]
            );
            assert_eq!(signals[req_name].to_bits(), req.to_bits(), "{}", spec.name);
            assert_eq!(signals["COUNTER"].to_bits(), ((cycle % 4) as f64).to_bits());

            // Any single flipped payload bit fails the nibble checksum.
            let bit = rng.next() % (u64::from(spec.dlc) * 8);
            let mut flipped = frame;
            if let Some(byte) = flipped.data_mut().get_mut((bit / 8) as usize) {
                *byte ^= 1 << (bit % 8);
            }
            assert!(
                !verify_honda_checksum(spec.id, flipped.data()),
                "{}: flip of bit {bit} went undetected",
                spec.name
            );
            assert!(decode(spec, &flipped).is_err());
        }
    }
    // Out-of-range values are rejected, not wrapped.
    for (spec, value_name, _, _) in messages {
        assert!(enc.encode(spec, &[(value_name, 1.0e6)]).is_err());
    }
}
