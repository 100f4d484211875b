//! Seeded fuzz tests for the checkpoint decoders.
//!
//! `--resume` trusts three hand-rolled decoders: `decode_result` for one
//! cell, `load_wal` for a job's write-ahead log and `load_manifest` for the
//! job list. Five properties are checked over random inputs:
//!
//! * random `SimResult`s, every `Option` both ways and times that are not
//!   round decimals (or not finite at all), round-trip `encode_result` →
//!   `decode_result` bit-exactly;
//! * mutated and truncated cell lines never panic the decoder, and any
//!   result they yield re-encodes to a line that decodes to itself;
//! * a WAL with a torn or bit-flipped tail loads exactly its intact prefix,
//!   first write winning for a repeated cell;
//! * a WAL whose header names another job is an error;
//! * random and mutated bytes never panic `load_manifest`, and it replays
//!   every manifest, random or mutated, to the same entries as a
//!   reference linear scan, duplicate ids and a `done` before its `job`
//!   included.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;

use campaignd::checkpoint::{
    decode_result, encode_result, load_manifest, load_wal, wal_path, Manifest, ManifestEntry,
    WalWriter,
};
use platform::{AccidentKind, HazardKind, SimResult};
use units::mix::splitmix64;
use units::Seconds;

/// Random results (and byte strings) per property.
const CASES: u64 = 400;

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

/// A time: mostly a non-round value in `[0, 60)` s, sometimes one the
/// decimal text codecs get wrong (negative zero, a subnormal, an infinity,
/// a NaN with payload, arbitrary bits).
fn secs(rng: &mut Rng) -> Seconds {
    let x = match rng.below(8) {
        0 => -0.0,
        1 => f64::from_bits(1 + rng.below(1 << 52)),
        2 => f64::INFINITY,
        3 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.below(1 << 51)),
        4 => f64::from_bits(rng.next()),
        _ => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 60.0,
    };
    Seconds::new(x)
}

fn opt_secs(rng: &mut Rng) -> Option<Seconds> {
    (rng.below(2) == 0).then(|| secs(rng))
}

fn hazard(rng: &mut Rng) -> HazardKind {
    [HazardKind::H1, HazardKind::H2, HazardKind::H3][rng.below(3) as usize]
}

fn count(rng: &mut Rng) -> u64 {
    if rng.below(4) == 0 {
        rng.next()
    } else {
        rng.below(1000)
    }
}

fn result(rng: &mut Rng) -> SimResult {
    SimResult {
        seed: rng.next(),
        first_hazard: (rng.below(2) == 0).then(|| (secs(rng), hazard(rng))),
        hazard_kinds: (0..rng.below(4)).map(|_| hazard(rng)).collect(),
        accident: (rng.below(2) == 0).then(|| {
            let kind = if rng.below(2) == 0 {
                AccidentKind::A1
            } else {
                AccidentKind::A3
            };
            (secs(rng), kind)
        }),
        alert_events: count(rng),
        fcw_events: count(rng),
        lane_invasions: count(rng),
        duration: secs(rng),
        attack_activated: opt_secs(rng),
        tth: opt_secs(rng),
        driver_noticed: opt_secs(rng),
        driver_engaged: opt_secs(rng),
        frames_rewritten: count(rng),
        panda_blocked: count(rng),
        invariant_detected: opt_secs(rng),
        monitor_detected: opt_secs(rng),
        degraded_ticks: count(rng),
        failsafe_ticks: count(rng),
        first_degraded: opt_secs(rng),
        first_failsafe: opt_secs(rng),
        recovery_latency: opt_secs(rng),
        faults_injected: count(rng),
        ids_detected: opt_secs(rng),
        gate_rejections: count(rng),
    }
}

/// A fresh temporary directory named after the calling test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn random_results_round_trip_bit_exactly() {
    let mut rng = Rng(0xC4EC_0001);
    for case in 0..CASES * 5 {
        let r = result(&mut rng);
        let line = encode_result(&r);
        let decoded = decode_result(&line).unwrap_or_else(|| panic!("case {case}: {line}"));
        // Every float is encoded as its bit pattern, so equal lines mean
        // bit-equal fields, NaN payloads and signed zeros included.
        assert_eq!(encode_result(&decoded), line, "case {case}");
        assert_eq!(decoded.hazard_kinds, r.hazard_kinds, "case {case}");
        assert_eq!(
            decoded.duration.secs().to_bits(),
            r.duration.secs().to_bits()
        );
    }
}

#[test]
fn mutated_and_truncated_lines_never_panic() {
    let mut rng = Rng(0xC4EC_0002);
    for case in 0..CASES * 10 {
        let mut bytes = encode_result(&result(&mut rng)).into_bytes();
        if case % 3 == 0 {
            bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
        } else {
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                match rng.below(3) {
                    0 if at < bytes.len() => {
                        bytes[at] = b"|:+-0123456789abcdefH"[rng.below(21) as usize]
                    }
                    1 => bytes.insert(at, b"|:+-0f"[rng.below(6) as usize]),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
        }
        let line = String::from_utf8(bytes).expect("mutations keep the line ASCII");
        if let Some(decoded) = decode_result(&line) {
            let again = encode_result(&decoded);
            let redecoded = decode_result(&again).unwrap_or_else(|| panic!("case {case}: {again}"));
            assert_eq!(encode_result(&redecoded), again, "case {case}");
        }
    }
}

/// A WAL written through the real writer.
struct Wal {
    bytes: Vec<u8>,
    /// Byte range of each record line, without its newline.
    lines: Vec<(usize, usize)>,
    /// The record cells, in write order.
    records: Vec<(usize, SimResult)>,
}

/// Writes a WAL of random cells, some indices repeated.
fn random_wal(rng: &mut Rng, path: &std::path::Path, job: &str) -> Wal {
    let _ = std::fs::remove_file(path);
    let mut wal = WalWriter::open(path, job).expect("open wal");
    let records: Vec<(usize, SimResult)> = (0..1 + rng.below(8))
        .map(|_| (rng.below(6) as usize, result(rng)))
        .collect();
    for (idx, r) in &records {
        wal.append_cell(*idx, r).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);
    let bytes = std::fs::read(path).expect("read wal");
    let mut lines = Vec::new();
    let mut start = 0;
    for (at, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, at));
            start = at + 1;
        }
    }
    assert_eq!(
        lines.len(),
        records.len() + 1,
        "one header plus one line per cell"
    );
    lines.remove(0);
    Wal {
        bytes,
        lines,
        records,
    }
}

/// First-write-wins fold of the first `n` records.
fn expected(records: &[(usize, SimResult)], n: usize) -> BTreeMap<usize, String> {
    let mut cells = BTreeMap::new();
    for (idx, r) in &records[..n] {
        cells.entry(*idx).or_insert_with(|| encode_result(r));
    }
    cells
}

fn encoded(cells: &BTreeMap<usize, SimResult>) -> BTreeMap<usize, String> {
    cells.iter().map(|(&i, r)| (i, encode_result(r))).collect()
}

#[test]
fn torn_or_flipped_wal_tails_load_exactly_the_intact_prefix() {
    let dir = temp_dir("checkpoint_fuzz_wal");
    let path = wal_path(&dir, "job-fuzz");
    let mut rng = Rng(0xC4EC_0003);
    for case in 0..CASES / 2 {
        let Wal {
            bytes,
            lines,
            records,
        } = random_wal(&mut rng, &path, "job-fuzz");
        let header_end = lines[0].0;
        let loaded = load_wal(&path, "job-fuzz").expect("intact wal");
        assert_eq!(
            encoded(&loaded),
            expected(&records, records.len()),
            "case {case}"
        );

        // Torn: a crash keeps any prefix of the file past the header. A
        // record survives once all of its bytes before the newline do.
        let cut = header_end + rng.below((bytes.len() - header_end) as u64 + 1) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("write torn");
        let intact = lines.iter().filter(|&&(_, end)| end <= cut).count();
        let loaded = load_wal(&path, "job-fuzz").unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            encoded(&loaded),
            expected(&records, intact),
            "case {case}: cut at {cut}"
        );

        // Flipped: one bit anywhere past the header. Every record whose
        // line, newline included, ends before the flip survives; the
        // damaged record and everything after it do not.
        let at = header_end + rng.below((bytes.len() - header_end) as u64) as usize;
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << rng.below(8);
        std::fs::write(&path, &flipped).expect("write flipped");
        let intact = lines.iter().filter(|&&(_, end)| end < at).count();
        let loaded = load_wal(&path, "job-fuzz").unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            encoded(&loaded),
            expected(&records, intact),
            "case {case}: flip at {at}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wal_for_another_job_is_an_error() {
    let dir = temp_dir("checkpoint_fuzz_foreign");
    let mut rng = Rng(0xC4EC_0004);
    for case in 0..CASES / 8 {
        let owner = format!("job-{:04x}-{}", rng.below(1 << 16), rng.below(100));
        // Near misses included: a prefix of the owner, the owner plus a
        // suffix, and one character changed.
        let other = match case % 3 {
            0 => owner[..owner.len() - 1].to_string(),
            1 => format!("{owner}0"),
            _ => owner.replacen("job-", "job_", 1),
        };
        let path = wal_path(&dir, &other);
        random_wal(&mut rng, &path, &owner);
        assert!(
            load_wal(&path, &other).is_err(),
            "case {case}: {owner} loaded as {other}"
        );
        assert!(load_wal(&path, &owner).is_ok(), "case {case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The replay `load_manifest` used before it indexed entries by id: each
/// `done` line scans every entry read so far. Kept as the reference.
fn reference_manifest(text: &str) -> Vec<ManifestEntry> {
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for line in text.split('\n').skip(1) {
        if let Some(rest) = line.strip_prefix("job\t") {
            if let Some((id, canonical)) = rest.split_once('\t') {
                entries.push(ManifestEntry {
                    id: id.to_string(),
                    canonical: canonical.to_string(),
                    done: None,
                });
            }
        } else if let Some(rest) = line.strip_prefix("done\t") {
            if let Some((id, outcome)) = rest.split_once('\t') {
                for entry in &mut entries {
                    if entry.id == id {
                        entry.done = Some(outcome.to_string());
                    }
                }
            }
        }
    }
    entries
}

/// A manifest over a few ids, so that ids repeat and a `done` line often
/// comes before its `job` line or names no job at all.
fn random_manifest(rng: &mut Rng) -> Vec<u8> {
    let mut text = String::from("campaignd-manifest v1\n");
    for _ in 0..rng.below(24) {
        let id = format!("job-{}", rng.below(5));
        let line = match rng.below(7) {
            0..=2 => format!(
                "job\t{id}\t{{\"kind\": \"attack\", \"reps\": {}}}",
                rng.below(9)
            ),
            3 => format!("done\t{id}\tcompleted"),
            4 => format!("done\t{id}\tfailed"),
            5 => format!("done\t{id}\t"),
            _ => ["", "job", "job\tno-tab", "done\tno-tab", "jobs\tx\ty"][rng.below(5) as usize]
                .to_string(),
        };
        text.push_str(&line);
        text.push('\n');
    }
    if rng.below(4) == 0 {
        text.pop(); // a torn last line
    }
    text.into_bytes()
}

/// Mutates `bytes` in place: byte flips, inserts from the manifest's
/// alphabet, and deletions.
fn mutate_manifest(rng: &mut Rng, bytes: &mut Vec<u8>) {
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = rng.next() as u8,
            1 => bytes.insert(at, b"\t\n{}jobdne"[rng.below(10) as usize]),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
}

#[test]
fn random_and_mutated_manifests_never_panic() {
    let dir = temp_dir("checkpoint_fuzz_manifest");
    let mut manifest = Manifest::open(&dir).expect("open manifest");
    manifest
        .record_job("job-a", "{\"kind\": \"resilience\"}")
        .expect("record");
    manifest
        .record_job("job-b", "{\"kind\": \"attack\"}")
        .expect("record");
    manifest.record_done("job-a", "completed").expect("record");
    drop(manifest);
    let valid = std::fs::read(Manifest::path_in(&dir)).expect("read manifest");
    assert_eq!(load_manifest(&dir).expect("valid manifest").len(), 2);

    let mut rng = Rng(0xC4EC_0005);
    for case in 0..CASES * 2 {
        let bytes: Vec<u8> = if case % 2 == 0 {
            (0..rng.below(160)).map(|_| rng.next() as u8).collect()
        } else {
            let mut bytes = valid.clone();
            mutate_manifest(&mut rng, &mut bytes);
            bytes
        };
        std::fs::write(Manifest::path_in(&dir), &bytes).expect("write manifest");
        if let Ok(entries) = load_manifest(&dir) {
            assert!(entries.len() <= bytes.len(), "case {case}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether some `done` line comes before the first `job` line of its id.
fn done_before_its_job(text: &str) -> bool {
    let mut jobs = HashSet::new();
    let mut early = HashSet::new();
    for line in text.split('\n').skip(1) {
        if let Some((id, _)) = line.strip_prefix("job\t").and_then(|r| r.split_once('\t')) {
            if early.contains(id) {
                return true;
            }
            jobs.insert(id);
        } else if let Some((id, _)) = line.strip_prefix("done\t").and_then(|r| r.split_once('\t')) {
            if !jobs.contains(id) {
                early.insert(id);
            }
        }
    }
    false
}

#[test]
fn manifest_replay_matches_the_reference_scan() {
    let dir = temp_dir("checkpoint_fuzz_manifest_reference");
    let mut rng = Rng(0xC4EC_0006);
    let (mut duplicated, mut done_first) = (0, 0);
    for case in 0..CASES * 2 {
        let mut bytes = random_manifest(&mut rng);
        if case % 2 == 1 {
            mutate_manifest(&mut rng, &mut bytes);
        }
        std::fs::write(Manifest::path_in(&dir), &bytes).expect("write manifest");
        let loaded = load_manifest(&dir);
        match String::from_utf8(bytes) {
            Ok(text) => {
                let expected = reference_manifest(&text);
                assert_eq!(loaded.ok(), Some(expected.clone()), "case {case}: {text:?}");
                let mut ids: Vec<&str> = expected.iter().map(|e| e.id.as_str()).collect();
                ids.sort_unstable();
                duplicated += usize::from(ids.windows(2).any(|w| w[0] == w[1]));
                done_first += usize::from(done_before_its_job(&text));
            }
            // Bytes that are no UTF-8 fail to load, as they did before.
            Err(_) => assert!(loaded.is_err(), "case {case}"),
        }
    }
    // The generator reaches the cases the index must get right.
    assert!(duplicated > CASES as usize / 4, "{duplicated}");
    assert!(done_first > CASES as usize / 8, "{done_first}");
    let _ = std::fs::remove_dir_all(&dir);
}
