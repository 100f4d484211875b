//! Seeded differential fuzz test for the IDS's frame-free path.
//!
//! `CanIds::observe_clean` must give the verdict `CanIds::observe` gives
//! for one engaged cycle of untampered encoder output. A real
//! `CommandEncoder` is driven through runs of random commands; every run
//! of cycles is one of five kinds: clean, one frame dropped, one frame
//! duplicated, one bit flipped (checksum not repaired), or disengaged.
//!
//! * Twin A encodes every engaged cycle and always calls `observe` on the
//!   frames.
//! * Twin B, like the harness, quantizes a clean engaged cycle without
//!   frames and calls `observe_clean` with its counters; every other
//!   cycle it encodes and calls `observe`.
//!
//! After every cycle both twins' `CanIds` state and verdicts must be
//! equal. Runs of several cycles let miss streaks, scores and alarms
//! build up, and a clean cycle after a dropped frame must still raise the
//! counter event.

use canbus::CanFrame;
use defense::{CanIds, IdsConfig};
use msgbus::schema::CarControl;
use openadas::CommandEncoder;
use units::mix::splitmix64;
use units::{Accel, Angle, Tick};

/// Independent encoder pairs, each driven through [`CYCLES`] cycles.
const CASES: u64 = 64;
const CYCLES: u64 = 1_000;

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

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cycle {
    Clean,
    Drop,
    Duplicate,
    BitFlip,
    Disengaged,
}

impl Cycle {
    fn draw(rng: &mut Rng) -> Self {
        match rng.below(10) {
            0..=4 => Cycle::Clean,
            5 => Cycle::Drop,
            6 => Cycle::Duplicate,
            7 => Cycle::BitFlip,
            _ => Cycle::Disengaged,
        }
    }
}

/// A command inside the DBC's ranges, or now and then far outside them so
/// the encode path errors (both twins then see an empty engaged cycle).
fn command(rng: &mut Rng) -> CarControl {
    let steer = if rng.below(50) == 0 {
        rng.range(-2_000.0, 2_000.0)
    } else {
        rng.range(-20.0, 20.0)
    };
    CarControl {
        accel: Accel::from_mps2(rng.range(-4.0, 2.5)),
        steer: Angle::from_degrees(steer),
    }
}

/// Alters an encoded cycle's frames the way `kind` says.
fn tamper(kind: Cycle, frames: &mut Vec<CanFrame>, rng: &mut Rng) {
    if frames.is_empty() {
        return;
    }
    let victim = rng.below(frames.len() as u64) as usize;
    match kind {
        Cycle::Drop => {
            frames.remove(victim);
        }
        Cycle::Duplicate => {
            let copy = frames[victim];
            frames.insert(victim, copy);
        }
        Cycle::BitFlip => {
            let frame = &mut frames[victim];
            let bit = rng.below(frame.dlc() as u64 * 8) as usize;
            frame.data_mut()[bit / 8] ^= 1 << (bit % 8);
        }
        Cycle::Clean | Cycle::Disengaged => {}
    }
}

#[test]
fn observe_clean_matches_observe_on_untampered_frames() {
    let mut clean_cycles = 0u64;
    let mut counter_events = 0u64;
    let mut alarms = 0u64;
    for case in 0..CASES {
        let mut rng = Rng(splitmix64(case ^ 0x1D5_C1EA));
        let mut wire = CommandEncoder::new();
        let mut direct = CommandEncoder::new();
        let mut a = CanIds::new(IdsConfig::default());
        let mut b = CanIds::new(IdsConfig::default());
        let mut frames_a = Vec::new();
        let mut frames_b = Vec::new();
        let mut kind = Cycle::Clean;
        let mut left = 0u64;
        for t in 0..CYCLES {
            if left == 0 {
                kind = Cycle::draw(&mut rng);
                left = 1 + rng.below(30);
            }
            left -= 1;
            let tick = Tick::new(t);
            let engaged = kind != Cycle::Disengaged;
            let control = command(&mut rng);

            frames_a.clear();
            if engaged && wire.encode_into(&control, &mut frames_a).is_err() {
                frames_a.clear();
            }
            let va;
            let vb;
            if kind == Cycle::Clean {
                va = a.observe(tick, &frames_a, true);
                vb = match direct.quantize_cycle(&control) {
                    Ok(clean) => {
                        clean_cycles += 1;
                        b.observe_clean(tick, clean.counters)
                    }
                    Err(_) => b.observe(tick, &[], true),
                };
            } else {
                frames_b.clear();
                if engaged && direct.encode_into(&control, &mut frames_b).is_err() {
                    frames_b.clear();
                }
                assert_eq!(
                    frames_a, frames_b,
                    "case {case} tick {t}: encoders diverged"
                );
                tamper(kind, &mut frames_a, &mut rng);
                va = a.observe(tick, &frames_a, engaged);
                vb = b.observe(tick, &frames_a, engaged);
            }
            assert_eq!(va, vb, "case {case} tick {t} ({kind:?}): verdicts differ");
            assert_eq!(a, b, "case {case} tick {t} ({kind:?}): IDS state differs");
            alarms += u64::from(va == defense::IdsVerdict::Alarm);
        }
        counter_events += a.event_counts().1;
    }
    // The draws reached what the comparison is about.
    assert!(
        clean_cycles > CASES * CYCLES / 3,
        "{clean_cycles} clean cycles"
    );
    assert!(counter_events > 0, "no counter event was drawn");
    assert!(alarms > 0, "no alarm was drawn");
}
