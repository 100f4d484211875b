//! Deterministic fuzz smoke test for the tokenizer → parser pipeline. No
//! external fuzzer: a fixed-seed splitmix64 stream drives byte-level
//! mutations (splice, truncate, duplicate, crossover) of a small corpus of
//! realistic sources, and every mutant must flow through `tokenize` →
//! `parse` → `scan_source` without panicking and with bit-identical
//! results on a second pass.
//!
//! The budget is deliberately small (a few hundred mutants, well under a
//! minute even in debug CI) — this is a smoke test for crash-freedom and
//! determinism on malformed input, not a coverage hunt.

use adas_lint::{parser, scan_source, tokenizer};

/// splitmix64 — the same generator the workspace uses for seed derivation
/// (`units::mix`), restated locally because the lint crate only links
/// `platform` and the test needs a raw stream, not seed mixing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Seed corpus: small but representative of what the real scan sees —
/// impls, loops, matches, consts, clamps, raw strings, attributes,
/// suppression comments, and deliberately unbalanced fragments.
const CORPUS: [&str; 8] = [
    "pub fn accel(v: f64) -> f64 {\n    let a = v.clamp(-4.0, 2.4);\n    a * 0.5\n}\n",
    "impl Controller {\n    fn step(&mut self, e: f64) -> f64 {\n        self.i += e;\n        (self.kp * e + self.ki * self.i).clamp(self.lo, self.hi)\n    }\n}\n",
    "const MAX: f64 = 5.0;\nconst MIN: f64 = -9.8;\npub fn env(x: f64) -> f64 {\n    x.max(MIN).min(MAX)\n}\n",
    "fn walk(xs: &[f64]) -> f64 {\n    let mut s = 0.0;\n    while let Some(x) = it.next() {\n        s += x;\n    }\n    s\n}\n",
    "fn pick(k: Kind) -> u8 {\n    match k {\n        Kind::A => 1,\n        Kind::B | Kind::C => 2,\n        _ => 0,\n    }\n}\n",
    "// adas-lint: allow(R1, reason = \"dimensionless gain\")\npub fn f(gain: f64) { c.accel = gain; }\n",
    "fn s() -> &'static str {\n    let _c = 'x';\n    r#\"raw \"quoted\" text with } and {\"#\n}\n",
    "#[derive(Debug)]\nstruct P { x: f64 }\nfn g(p: P) -> f64 { if p.x > 0.0 { p.x.sqrt() } else { 0.0 } }\n",
];

/// Bytes that stress the tokenizer's state machine when spliced in.
const SPICE: &[u8] = b"\"'{}()[]/*!#\\\n\r\t =><.:;,_r0x";

fn mutate(rng: &mut Rng) -> String {
    let base = CORPUS[rng.below(CORPUS.len())].as_bytes().to_vec();
    let mut bytes = base;
    for _ in 0..=rng.below(4) {
        match rng.below(4) {
            // Splice a run of stress bytes at a random position.
            0 => {
                let at = rng.below(bytes.len() + 1);
                let n = 1 + rng.below(8);
                let run: Vec<u8> = (0..n).map(|_| SPICE[rng.below(SPICE.len())]).collect();
                bytes.splice(at..at, run);
            }
            // Truncate mid-token.
            1 => {
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
            // Duplicate a random slice (unbalances delimiters nicely).
            2 => {
                if !bytes.is_empty() {
                    let a = rng.below(bytes.len());
                    let b = a + rng.below(bytes.len() - a);
                    let slice = bytes[a..b].to_vec();
                    let at = rng.below(bytes.len() + 1);
                    bytes.splice(at..at, slice);
                }
            }
            // Crossover: prefix of this mutant, suffix of another seed.
            _ => {
                let other = CORPUS[rng.below(CORPUS.len())].as_bytes();
                let cut_a = rng.below(bytes.len() + 1);
                let cut_b = rng.below(other.len() + 1);
                bytes.truncate(cut_a);
                bytes.extend_from_slice(&other[cut_b..]);
            }
        }
    }
    // The pipeline takes &str; keep whatever survives lossy conversion.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_sources_never_panic_and_stay_deterministic() {
    let mut rng = Rng(0x5EED_AD05_11A7_2026);
    for case in 0..400u32 {
        let src = mutate(&mut rng);

        let run = |s: &str| {
            let file = tokenizer::tokenize(s);
            let facts = parser::parse(&file);
            let diags = scan_source("crates/openadas/src/fuzzed.rs", s);
            (format!("{facts:?}"), diags.len())
        };

        let first = run(&src);
        let second = run(&src);
        assert_eq!(
            first, second,
            "pipeline output changed between identical runs on case {case}:\n{src}"
        );
    }
}
