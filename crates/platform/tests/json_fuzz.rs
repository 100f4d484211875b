//! Seeded fuzz tests for `platform::json`, the one JSON writer and reader
//! every document of the workspace goes through. Four properties are
//! checked over random inputs:
//!
//! * random and mutated documents never panic the reader, and nothing it
//!   accepts nests deeper than its bound;
//! * nesting past the bound is an error at every length up to 64 KiB, the
//!   most a job submission may carry (`campaignd::http::MAX_BODY_BYTES`),
//!   on the default-size stack of a test thread;
//! * random strings — quotes, backslashes, every control character and
//!   non-ASCII text — and random documents of both layouts round-trip
//!   through the writer and the reader exactly;
//! * integers round-trip exactly up to `u64::MAX`, 2⁵³ + 1 (the first a
//!   double cannot hold) included.

use platform::json::{self, Json, Layout, Writer, MAX_DEPTH};
use units::mix::splitmix64;

/// Random inputs per property.
const CASES: u64 = 2_000;

/// The largest job submission campaignd reads, `http::MAX_BODY_BYTES`.
const BODY_CAP: usize = 64 * 1024;

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

/// Characters a string draws from: the ones the escaper rewrites, every
/// control character, and text of one to four UTF-8 bytes.
fn string(rng: &mut Rng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(6) {
            0 => ['"', '\\', '/', '\u{7f}'][rng.below(4) as usize],
            1 => char::from(rng.below(0x20) as u8),
            2 => char::from(b' ' + rng.below(95) as u8),
            3 => ['é', 'ß', '→', '∅', '€'][rng.below(5) as usize],
            4 => char::from_u32(0x1_0000 + rng.below(0x1_0000) as u32).unwrap_or('😀'),
            _ => char::from_u32(rng.below(0x1_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn integer(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(10),
        1 => (1 << 53) + rng.below(3) - 1,
        2 => u64::MAX - rng.below(3),
        _ => rng.next(),
    }
}

/// A random value the writer can write exactly: no floats.
fn value(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth >= 5 || rng.below(3) == 0;
    match rng.below(if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::UInt(integer(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn layout(rng: &mut Rng) -> Layout {
    if rng.below(2) == 0 {
        Layout::Line
    } else {
        Layout::Indented
    }
}

/// Writes `v` as the next value of `w`, each container in a random layout.
fn write(w: &mut Writer<'_>, v: &Json, rng: &mut Rng) {
    match v {
        Json::Null => {
            w.value(None::<u64>);
        }
        Json::Bool(b) => {
            w.value(*b);
        }
        Json::UInt(n) => {
            w.value(*n);
        }
        Json::Num(_) => unreachable!("the generator draws no floats"),
        Json::Str(s) => {
            w.value(s);
        }
        Json::Arr(items) => {
            w.array(layout(rng), |a| {
                for item in items {
                    write(a, item, rng);
                }
            });
        }
        Json::Obj(members) => {
            w.object(layout(rng), |o| {
                for (k, item) in members {
                    o.key(k);
                    write(o, item, rng);
                }
            });
        }
    }
}

/// A random document: an array holding a random value, so every kind of
/// value appears inside a container.
fn document(rng: &mut Rng) -> (Json, String) {
    let v = value(rng, 0);
    let top = layout(rng);
    let text = json::array(top, |a| write(a, &v, rng));
    (Json::Arr(vec![v]), text)
}

fn pick(rng: &mut Rng, bytes: &[u8]) -> u8 {
    bytes[rng.below(bytes.len() as u64) as usize]
}

fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        Json::Null | Json::Bool(_) | Json::UInt(_) | Json::Num(_) | Json::Str(_) => 0,
    }
}

#[test]
fn random_and_mutated_documents_never_panic() {
    let mut rng = Rng(0x0150_0001);
    for case in 0..CASES * 5 {
        let bytes: Vec<u8> = if case % 2 == 0 {
            let len = rng.below(64) as usize;
            (0..len)
                .map(|_| match rng.below(3) {
                    0 => pick(&mut rng, b"{}[],:\"\\-.0123456789eEtrufalsn \n"),
                    _ => rng.next() as u8,
                })
                .collect()
        } else {
            // A written document with a few bytes overwritten, inserted or
            // deleted, so most of the input still looks like JSON.
            let mut bytes = document(&mut rng).1.into_bytes();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                    1 => bytes.insert(at, pick(&mut rng, b"{}[],:\"\\u0 ")),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            bytes
        };
        if let Ok(v) = json::parse(&bytes) {
            assert!(depth(&v) <= MAX_DEPTH, "case {case}");
        }
    }
}

#[test]
fn nesting_past_the_bound_fails_at_every_length_up_to_the_body_cap() {
    // Each pattern opens one container per repetition and never closes
    // one, so every prefix is either cut short or too deep.
    for unit in ["[", "{\"a\": ", "[{\"k\":[", " [ "] {
        let text = unit.repeat(BODY_CAP / unit.len() + 1);
        let bytes = &text.as_bytes()[..BODY_CAP];
        for len in 1..=BODY_CAP {
            let err = json::parse(&bytes[..len]).expect_err(unit);
            if len > unit.len() * (MAX_DEPTH + 1) {
                assert!(err.contains("nesting"), "{unit:?} at {len}: {err}");
            }
        }
    }
    // Balanced nesting is refused only past the bound.
    for n in [MAX_DEPTH, MAX_DEPTH + 1, BODY_CAP / 2] {
        let text = format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert_eq!(json::parse(text.as_bytes()).is_ok(), n <= MAX_DEPTH, "{n}");
    }
}

#[test]
fn strings_and_documents_round_trip_exactly() {
    let mut rng = Rng(0x0150_0003);
    for case in 0..CASES {
        let s = string(&mut rng);
        let text = json::array(Layout::Line, |a| {
            a.value(&s);
        });
        assert_eq!(
            json::parse(text.as_bytes()),
            Ok(Json::Arr(vec![Json::Str(s.clone())])),
            "case {case}: {text}"
        );

        let (v, text) = document(&mut rng);
        assert_eq!(json::parse(text.as_bytes()), Ok(v), "case {case}: {text}");
    }
    // Every control character, alone.
    for c in (0..0x20u8).map(char::from) {
        let text = json::object(Layout::Line, |o| {
            o.field("c", c.to_string());
        });
        let read = json::parse(text.as_bytes()).expect(&text);
        assert_eq!(read.get("c"), Some(&Json::Str(c.to_string())), "{text}");
    }
}

#[test]
fn integers_round_trip_exactly() {
    let mut rng = Rng(0x0150_0004);
    let fixed = [0, (1 << 53) + 1, u64::MAX];
    for n in fixed
        .into_iter()
        .chain((0..CASES).map(|_| integer(&mut rng)))
    {
        let text = json::object(Layout::Indented, |o| {
            o.field("n", n);
        });
        let read = json::parse(text.as_bytes()).expect(&text);
        assert_eq!(read.get("n"), Some(&Json::UInt(n)), "{text}");
    }
}
