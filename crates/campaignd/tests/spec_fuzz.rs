//! Seeded fuzz tests for the job-spec parser.
//!
//! A submission body goes through `wire::parse_object` and then
//! `JobSpec::from_object`, both hand-rolled. Four properties are checked
//! over random inputs:
//!
//! * random valid specs round-trip through `canonical()` → `parse_object`
//!   → `from_object`, their canonical form is stable, and `cell_count()`
//!   is the length of the plan;
//! * every strict prefix of a canonical body is rejected;
//! * random and mutated byte strings never panic either parser, and any
//!   spec they yield stays under the cell cap and round-trips;
//! * `reps` past the cell cap, `u32::MAX` and beyond included, is rejected
//!   with an error that names the cap.

use attack_core::{AttackType, StrategyKind};
use campaignd::spec::{ChaosKnobs, JobKind, JobSpec, MAX_JOB_CELLS};
use campaignd::wire::parse_object;
use defense::DefensePolicy;
use units::mix::splitmix64;

/// Random specs (and random byte strings) per property.
const CASES: u64 = 500;

const DEFENSES: [DefensePolicy; 4] = [
    DefensePolicy::Off,
    DefensePolicy::Observe,
    DefensePolicy::Degrade,
    DefensePolicy::FailSafe,
];

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

fn kind(rng: &mut Rng) -> JobKind {
    if rng.below(2) == 0 {
        JobKind::Attack {
            strategy: StrategyKind::ALL[rng.below(4) as usize],
            attack: AttackType::ALL[rng.below(6) as usize],
        }
    } else {
        JobKind::Resilience {
            defense: DEFENSES[rng.below(4) as usize],
        }
    }
}

/// The largest `reps` a job of `kind` may ask for.
fn max_reps(kind: JobKind) -> u64 {
    let one = JobSpec {
        kind,
        base_seed: 0,
        reps: 1,
        chaos: ChaosKnobs::default(),
    };
    MAX_JOB_CELLS / one.cell_count()
}

/// A random spec the parser must accept: any kind, seed and chaos knobs,
/// and `reps` up to the cap (small values most of the time).
fn spec(rng: &mut Rng) -> JobSpec {
    let kind = kind(rng);
    let reps = if rng.below(4) == 0 {
        1 + rng.below(max_reps(kind))
    } else {
        1 + rng.below(8)
    };
    let panic_cells = (0..rng.below(4))
        .map(|_| (rng.below(1 << 20) as usize, rng.next() as u32))
        .collect();
    let delay_cells = (0..rng.below(4))
        .map(|_| (rng.below(1 << 20) as usize, rng.next()))
        .collect();
    JobSpec {
        kind,
        base_seed: rng.next(),
        reps: reps as u32,
        chaos: ChaosKnobs {
            panic_cells,
            delay_cells,
        },
    }
}

fn parse(bytes: &[u8]) -> Result<JobSpec, String> {
    parse_object(bytes).and_then(|obj| JobSpec::from_object(&obj))
}

#[test]
fn random_valid_specs_round_trip() {
    let mut rng = Rng(0x5EC0_0001);
    for case in 0..CASES {
        let spec = spec(&mut rng);
        let canonical = spec.canonical();
        let parsed =
            parse(canonical.as_bytes()).unwrap_or_else(|e| panic!("case {case}: {e}\n{canonical}"));
        assert_eq!(parsed, spec, "case {case}");
        assert_eq!(parsed.canonical(), canonical, "case {case}");
        if spec.reps <= 8 {
            assert_eq!(spec.cell_count(), spec.plan().len() as u64, "case {case}");
        }
    }
}

#[test]
fn every_strict_prefix_is_rejected() {
    let mut rng = Rng(0x5EC0_0002);
    for case in 0..CASES / 5 {
        let canonical = spec(&mut rng).canonical();
        for cut in 0..canonical.len() {
            assert!(
                parse(&canonical.as_bytes()[..cut]).is_err(),
                "case {case}: prefix of {cut} bytes accepted: {:?}",
                &canonical[..cut]
            );
        }
    }
}

#[test]
fn random_and_mutated_bytes_never_panic() {
    let mut rng = Rng(0x5EC0_0003);
    for case in 0..CASES * 20 {
        let bytes: Vec<u8> = if case % 2 == 0 {
            let len = rng.below(96) as usize;
            (0..len).map(|_| rng.next() as u8).collect()
        } else {
            // A canonical body with a few bytes overwritten, inserted or
            // deleted, so most of the input still looks like a job.
            let mut bytes = spec(&mut rng).canonical().into_bytes();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                    1 => bytes.insert(at, b"{}[],:\"0123456789 "[rng.below(18) as usize]),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            bytes
        };
        if let Ok(spec) = parse(&bytes) {
            assert!(spec.cell_count() <= MAX_JOB_CELLS, "case {case}");
            assert_eq!(parse(spec.canonical().as_bytes()), Ok(spec), "case {case}");
        }
    }
}

#[test]
fn reps_past_the_cap_are_rejected_naming_the_cap() {
    let mut rng = Rng(0x5EC0_0004);
    for case in 0..CASES {
        let mut spec = spec(&mut rng);
        let first_over = max_reps(spec.kind) + 1;
        let reps: u64 = match case % 4 {
            0 => first_over,
            1 => u64::from(u32::MAX),
            2 => u64::from(u32::MAX) + 1 + rng.below(1 << 40),
            _ => first_over + rng.below(u64::from(u32::MAX) - first_over),
        };
        spec.reps = 1;
        let body = spec
            .canonical()
            .replace("\"reps\": 1,", &format!("\"reps\": {reps},"));
        let err = parse(body.as_bytes()).expect_err(&body);
        assert!(
            err.contains(&MAX_JOB_CELLS.to_string()),
            "case {case}: {err}"
        );
    }
}
