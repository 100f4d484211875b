//! Seeded fuzz tests for the capture log's hand-rolled parser.
//!
//! `Capture::parse` reads back `tick (u64) | id (u16) | dlc (u8) | data`
//! records. Three properties are checked over random inputs:
//!
//! * random frame lists recorded into a capture parse back to the same
//!   `(tick, frame)` records;
//! * every truncation of a valid capture parses to exactly the records
//!   that fit whole in the kept bytes — a prefix of the full list;
//! * random byte strings never panic the parser, and every record it
//!   returns is a valid frame.

use canbus::{CanFrame, Capture};
use units::mix::splitmix64;
use units::Tick;

/// Random frame lists (and random byte strings) per property.
const CASES: u64 = 500;

/// Bytes of a record's fixed header: tick, id and dlc.
const HEADER: usize = 8 + 2 + 1;

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random valid frame: any 11-bit id, any length 0–8, random payload.
fn frame(rng: &mut Rng) -> CanFrame {
    let id = rng.below(u64::from(CanFrame::MAX_ID) + 1) as u16;
    let payload = rng.next().to_le_bytes();
    let dlc = rng.below(9) as usize;
    CanFrame::new(id, &payload[..dlc]).expect("id and dlc are in range")
}

/// Up to 40 random records with non-decreasing ticks.
fn records(rng: &mut Rng) -> Vec<(Tick, CanFrame)> {
    let mut tick = rng.below(1 << 40);
    (0..rng.below(41))
        .map(|_| {
            tick += rng.below(3);
            (Tick::new(tick), frame(rng))
        })
        .collect()
}

fn capture(records: &[(Tick, CanFrame)]) -> Vec<u8> {
    let mut capture = Capture::new();
    for (tick, frame) in records {
        capture.log_frame(*tick, frame);
    }
    assert_eq!(capture.len(), records.len());
    capture.into_bytes()
}

#[test]
fn random_frame_lists_round_trip() {
    let mut rng = Rng(0xCA97_0001);
    for case in 0..CASES {
        let records = records(&mut rng);
        let bytes = capture(&records);
        let expected_len: usize = records.iter().map(|(_, f)| HEADER + f.data().len()).sum();
        assert_eq!(bytes.len(), expected_len, "case {case}");
        assert_eq!(Capture::parse(&bytes), records, "case {case}");
    }
}

#[test]
fn every_truncation_parses_to_a_prefix() {
    let mut rng = Rng(0xCA97_0002);
    for case in 0..CASES {
        let records = records(&mut rng);
        let bytes = capture(&records);
        // The byte offset at which each record ends.
        let ends: Vec<usize> = records
            .iter()
            .scan(0, |end, (_, f)| {
                *end += HEADER + f.data().len();
                Some(*end)
            })
            .collect();
        for cut in 0..=bytes.len() {
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            assert_eq!(
                Capture::parse(&bytes[..cut]),
                records[..whole],
                "case {case}, cut at {cut} of {}",
                bytes.len()
            );
        }
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = Rng(0xCA97_0003);
    for case in 0..CASES * 20 {
        let len = rng.below(256) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Half the cases keep dlc bytes small, so records parse past the
        // first and the frame checks (id, dlc) see both outcomes.
        if case % 2 == 0 {
            let mut at = 0;
            while let Some(dlc) = bytes.get_mut(at + 10) {
                *dlc %= 10;
                at += HEADER + usize::from(*dlc);
            }
        }
        let parsed = Capture::parse(&bytes);
        assert!(parsed.len() <= len / HEADER, "case {case}");
        for (_, frame) in parsed {
            assert!(frame.id() <= CanFrame::MAX_ID, "case {case}");
            assert!(frame.data().len() <= 8, "case {case}");
        }
    }
}
