//! Crash-safe progress: an append-only, fsync'd write-ahead log per job,
//! plus the job manifest that `--resume` replays.
//!
//! Byte-identity across a kill/resume is the whole point, so the cell
//! codec is exact: every `f64` is stored as its IEEE-754 bit pattern in
//! hex (`to_bits`), never as decimal text — a resumed campaign must splice
//! checkpointed results into fresh ones without a single ULP of drift.
//!
//! Torn writes are expected, not exceptional: a `kill -9` can truncate
//! the last line mid-byte. Every record therefore carries an FNV-1a
//! checksum, and the loader stops at the first line that fails to parse
//! or verify — the intact prefix is trusted, the tail is recomputed.
//! Duplicate records for a cell (possible if a crash lands between write
//! and the supervisor's bookkeeping) resolve first-write-wins, which
//! keeps replay idempotent.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use platform::{AccidentKind, HazardKind, SimResult};
use units::Seconds;

const WAL_HEADER: &str = "campaignd-wal v1";
const MANIFEST_HEADER: &str = "campaignd-manifest v1";

/// FNV-1a 64-bit over `bytes` — the record checksum and the job-id hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn enc_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn dec_f64(s: &str) -> Option<f64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

fn enc_opt_secs(t: &Option<Seconds>) -> String {
    match t {
        Some(t) => enc_f64(t.secs()),
        None => "-".to_string(),
    }
}

fn dec_opt_secs(s: &str) -> Option<Option<Seconds>> {
    if s == "-" {
        Some(None)
    } else {
        dec_f64(s).map(|x| Some(Seconds::new(x)))
    }
}

fn hazard_token(k: HazardKind) -> &'static str {
    match k {
        HazardKind::H1 => "H1",
        HazardKind::H2 => "H2",
        HazardKind::H3 => "H3",
    }
}

fn dec_hazard(s: &str) -> Option<HazardKind> {
    match s {
        "H1" => Some(HazardKind::H1),
        "H2" => Some(HazardKind::H2),
        "H3" => Some(HazardKind::H3),
        _ => None,
    }
}

fn accident_token(k: AccidentKind) -> &'static str {
    match k {
        AccidentKind::A1 => "A1",
        AccidentKind::A3 => "A3",
    }
}

fn dec_accident(s: &str) -> Option<AccidentKind> {
    match s {
        "A1" => Some(AccidentKind::A1),
        "A3" => Some(AccidentKind::A3),
        _ => None,
    }
}

/// Encodes a result as one `|`-separated field line (no newline).
pub fn encode_result(r: &SimResult) -> String {
    let first_hazard = match &r.first_hazard {
        Some((t, k)) => format!("{}:{}", enc_f64(t.secs()), hazard_token(*k)),
        None => "-".to_string(),
    };
    let hazard_kinds = if r.hazard_kinds.is_empty() {
        "-".to_string()
    } else {
        r.hazard_kinds
            .iter()
            .map(|&k| hazard_token(k))
            .collect::<Vec<_>>()
            .join("+")
    };
    let accident = match &r.accident {
        Some((t, k)) => format!("{}:{}", enc_f64(t.secs()), accident_token(*k)),
        None => "-".to_string(),
    };
    [
        r.seed.to_string(),
        first_hazard,
        hazard_kinds,
        accident,
        r.alert_events.to_string(),
        r.fcw_events.to_string(),
        r.lane_invasions.to_string(),
        enc_f64(r.duration.secs()),
        enc_opt_secs(&r.attack_activated),
        enc_opt_secs(&r.tth),
        enc_opt_secs(&r.driver_noticed),
        enc_opt_secs(&r.driver_engaged),
        r.frames_rewritten.to_string(),
        r.panda_blocked.to_string(),
        enc_opt_secs(&r.invariant_detected),
        enc_opt_secs(&r.monitor_detected),
        r.degraded_ticks.to_string(),
        r.failsafe_ticks.to_string(),
        enc_opt_secs(&r.first_degraded),
        enc_opt_secs(&r.first_failsafe),
        enc_opt_secs(&r.recovery_latency),
        r.faults_injected.to_string(),
        enc_opt_secs(&r.ids_detected),
        r.gate_rejections.to_string(),
    ]
    .join("|")
}

/// Decodes [`encode_result`]'s output; `None` on any malformation.
pub fn decode_result(line: &str) -> Option<SimResult> {
    let fields: Vec<&str> = line.split('|').collect();
    let [seed, first_hazard, hazard_kinds, accident, alert_events, fcw_events, lane_invasions, duration, attack_activated, tth, driver_noticed, driver_engaged, frames_rewritten, panda_blocked, invariant_detected, monitor_detected, degraded_ticks, failsafe_ticks, first_degraded, first_failsafe, recovery_latency, faults_injected, ids_detected, gate_rejections] =
        fields[..]
    else {
        return None;
    };
    let first_hazard = if first_hazard == "-" {
        None
    } else {
        let (t, k) = first_hazard.split_once(':')?;
        Some((Seconds::new(dec_f64(t)?), dec_hazard(k)?))
    };
    let hazard_kinds = if hazard_kinds == "-" {
        Vec::new()
    } else {
        hazard_kinds
            .split('+')
            .map(dec_hazard)
            .collect::<Option<Vec<_>>>()?
    };
    let accident = if accident == "-" {
        None
    } else {
        let (t, k) = accident.split_once(':')?;
        Some((Seconds::new(dec_f64(t)?), dec_accident(k)?))
    };
    Some(SimResult {
        seed: seed.parse().ok()?,
        first_hazard,
        hazard_kinds,
        accident,
        alert_events: alert_events.parse().ok()?,
        fcw_events: fcw_events.parse().ok()?,
        lane_invasions: lane_invasions.parse().ok()?,
        duration: Seconds::new(dec_f64(duration)?),
        attack_activated: dec_opt_secs(attack_activated)?,
        tth: dec_opt_secs(tth)?,
        driver_noticed: dec_opt_secs(driver_noticed)?,
        driver_engaged: dec_opt_secs(driver_engaged)?,
        frames_rewritten: frames_rewritten.parse().ok()?,
        panda_blocked: panda_blocked.parse().ok()?,
        invariant_detected: dec_opt_secs(invariant_detected)?,
        monitor_detected: dec_opt_secs(monitor_detected)?,
        degraded_ticks: degraded_ticks.parse().ok()?,
        failsafe_ticks: failsafe_ticks.parse().ok()?,
        first_degraded: dec_opt_secs(first_degraded)?,
        first_failsafe: dec_opt_secs(first_failsafe)?,
        recovery_latency: dec_opt_secs(recovery_latency)?,
        faults_injected: faults_injected.parse().ok()?,
        ids_detected: dec_opt_secs(ids_detected)?,
        gate_rejections: gate_rejections.parse().ok()?,
    })
}

fn cell_record(idx: usize, payload: &str) -> String {
    let body = format!("cell\t{idx}\t{payload}");
    format!("{body}\t{:016x}\n", fnv64(body.as_bytes()))
}

/// Appending side of a job's write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Opens (or creates) the WAL at `path` in append mode, writing and
    /// syncing the header when the file is new.
    pub fn open(path: &Path, job_id: &str) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut wal = Self { file };
        if wal.file.metadata()?.len() == 0 {
            wal.file
                .write_all(format!("{WAL_HEADER} {job_id}\n").as_bytes())?;
            wal.file.sync_data()?;
        }
        Ok(wal)
    }

    /// Appends one completed cell. Buffered by the OS until
    /// [`sync`](Self::sync) — the supervisor syncs once per `sync_cells`
    /// appends, trading at most that many cells of recompute for not
    /// paying fsync latency per cell.
    pub fn append_cell(&mut self, idx: usize, result: &SimResult) -> io::Result<()> {
        self.file
            .write_all(cell_record(idx, &encode_result(result)).as_bytes())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Loads the trusted prefix of a WAL: completed cells keyed by index,
/// first write wins, stopping at the first torn or corrupt line (a line
/// that is not UTF-8 included). A missing file is an empty map. A header
/// naming a different job is an error — resuming into someone else's
/// checkpoint must not look like an empty one.
pub fn load_wal(path: &Path, job_id: &str) -> io::Result<BTreeMap<usize, SimResult>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e),
    }
    let mut lines = bytes.split(|&b| b == b'\n');
    let expected = format!("{WAL_HEADER} {job_id}");
    if lines.next() != Some(expected.as_bytes()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a WAL for job {job_id}", path.display()),
        ));
    }
    let mut cells = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some(parsed) = std::str::from_utf8(line).ok().and_then(parse_cell_line) else {
            break; // torn or corrupt tail: trust only the prefix
        };
        cells.entry(parsed.0).or_insert(parsed.1);
    }
    Ok(cells)
}

fn parse_cell_line(line: &str) -> Option<(usize, SimResult)> {
    let (body, checksum) = line.rsplit_once('\t')?;
    if format!("{:016x}", fnv64(body.as_bytes())) != checksum {
        return None;
    }
    let mut fields = body.splitn(3, '\t');
    if fields.next() != Some("cell") {
        return None;
    }
    let idx: usize = fields.next()?.parse().ok()?;
    let result = decode_result(fields.next()?)?;
    Some((idx, result))
}

/// One replayed manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Job id.
    pub id: String,
    /// Canonical spec line recorded at submission.
    pub canonical: String,
    /// Terminal outcome (`"completed"` / `"failed"`), `None` while the
    /// job is unfinished — the set `--resume` re-enqueues.
    pub done: Option<String>,
}

/// Appending side of the job manifest.
#[derive(Debug)]
pub struct Manifest {
    file: File,
}

impl Manifest {
    /// The manifest path inside a state directory.
    pub fn path_in(state_dir: &Path) -> PathBuf {
        state_dir.join("jobs.manifest")
    }

    /// Opens (or creates) the manifest in append mode.
    pub fn open(state_dir: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::path_in(state_dir))?;
        let mut manifest = Self { file };
        if manifest.file.metadata()?.len() == 0 {
            manifest.file.write_all(MANIFEST_HEADER.as_bytes())?;
            manifest.file.write_all(b"\n")?;
            manifest.file.sync_data()?;
        }
        Ok(manifest)
    }

    /// Records an accepted job. Synced immediately: an accepted job must
    /// survive a crash, or the 202 the client holds is a lie.
    pub fn record_job(&mut self, id: &str, canonical: &str) -> io::Result<()> {
        self.file
            .write_all(format!("job\t{id}\t{canonical}\n").as_bytes())?;
        self.file.sync_data()
    }

    /// Records a terminal job outcome (`"completed"` or `"failed"`).
    pub fn record_done(&mut self, id: &str, outcome: &str) -> io::Result<()> {
        self.file
            .write_all(format!("done\t{id}\t{outcome}\n").as_bytes())?;
        self.file.sync_data()
    }

    /// An existing manifest behind a read-only handle, on which every
    /// write fails.
    #[cfg(test)]
    pub(crate) fn open_read_only(state_dir: &Path) -> io::Result<Self> {
        Ok(Self {
            file: File::open(Self::path_in(state_dir))?,
        })
    }
}

/// Replays the manifest. Missing file → empty. Malformed tail lines are
/// skipped (a torn `job` record was never acknowledged to any client).
///
/// A `done` line applies to every `job` line with its id read before it,
/// and the last one wins; a `done` line naming no such job is ignored.
/// Entries are indexed by id as they are read, so replay is linear in the
/// manifest's length.
pub fn load_manifest(state_dir: &Path) -> io::Result<Vec<ManifestEntry>> {
    let mut text = String::new();
    match File::open(Manifest::path_in(state_dir)) {
        Ok(mut f) => {
            f.read_to_string(&mut text)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    let mut entries: Vec<ManifestEntry> = Vec::new();
    // Every entry index per id; a duplicated id has several.
    let mut by_id: HashMap<&str, Vec<usize>> = HashMap::new();
    for line in text.split('\n').skip(1) {
        if let Some(rest) = line.strip_prefix("job\t") {
            if let Some((id, canonical)) = rest.split_once('\t') {
                by_id.entry(id).or_default().push(entries.len());
                entries.push(ManifestEntry {
                    id: id.to_string(),
                    canonical: canonical.to_string(),
                    done: None,
                });
            }
        } else if let Some(rest) = line.strip_prefix("done\t") {
            if let Some((id, outcome)) = rest.split_once('\t') {
                for &i in by_id.get(id).into_iter().flatten() {
                    if let Some(entry) = entries.get_mut(i) {
                        entry.done = Some(outcome.to_string());
                    }
                }
            }
        }
    }
    Ok(entries)
}

/// The WAL path for a job inside a state directory.
pub fn wal_path(state_dir: &Path, job_id: &str) -> PathBuf {
    state_dir.join(format!("{job_id}.wal"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> SimResult {
        SimResult {
            seed,
            first_hazard: Some((Seconds::new(1.25), HazardKind::H2)),
            hazard_kinds: vec![HazardKind::H2, HazardKind::H3],
            accident: Some((Seconds::new(2.5), AccidentKind::A3)),
            alert_events: 3,
            fcw_events: 0,
            lane_invasions: 1,
            duration: Seconds::new(30.0),
            attack_activated: Some(Seconds::new(5.1)),
            tth: Some(Seconds::new(0.1 + 0.2)), // deliberately inexact decimal
            driver_noticed: None,
            driver_engaged: Some(Seconds::new(6.7)),
            frames_rewritten: 240,
            panda_blocked: 0,
            invariant_detected: None,
            monitor_detected: Some(Seconds::new(5.3)),
            degraded_ticks: 17,
            failsafe_ticks: 0,
            first_degraded: Some(Seconds::new(5.2)),
            first_failsafe: None,
            recovery_latency: None,
            faults_injected: 9,
            ids_detected: None,
            gate_rejections: 4,
        }
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let r = sample(42);
        let decoded = decode_result(&encode_result(&r)).unwrap();
        assert_eq!(decoded, r);
        // The inexact decimal survives exactly: bit equality, not display
        // equality.
        assert_eq!(
            decoded.tth.unwrap().secs().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );

        let mut bare = sample(1);
        bare.first_hazard = None;
        bare.hazard_kinds = Vec::new();
        bare.accident = None;
        assert_eq!(decode_result(&encode_result(&bare)).unwrap(), bare);
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(decode_result("").is_none());
        assert!(decode_result("1|2|3").is_none());
        let mut line = encode_result(&sample(2));
        line.push_str("|extra");
        assert!(decode_result(&line).is_none());
    }

    #[test]
    fn wal_round_trips_and_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("campaignd-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "job-test");
        let _ = std::fs::remove_file(&path);

        let mut wal = WalWriter::open(&path, "job-test").unwrap();
        for i in 0..5 {
            wal.append_cell(i, &sample(i as u64)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let cells = load_wal(&path, "job-test").unwrap();
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[&3], sample(3));

        // Tear the last record mid-line: the prefix must survive.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let cells = load_wal(&path, "job-test").unwrap();
        assert_eq!(cells.len(), 4, "torn tail dropped, prefix kept");

        // Corrupt a middle record: everything after it is untrusted.
        let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
        let flipped = text.replacen("cell\t1\t", "cell\t9\t", 1);
        std::fs::write(&path, flipped).unwrap();
        let cells = load_wal(&path, "job-test").unwrap();
        assert_eq!(cells.len(), 1, "checksum break stops the loader");
        assert!(cells.contains_key(&0));

        // A WAL for another job is an error, not an empty checkpoint.
        assert!(load_wal(&path, "job-other").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_reopen_appends_and_first_write_wins() {
        let dir = std::env::temp_dir().join(format!("campaignd-wal2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "job-re");
        let _ = std::fs::remove_file(&path);

        let mut wal = WalWriter::open(&path, "job-re").unwrap();
        wal.append_cell(0, &sample(100)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut wal = WalWriter::open(&path, "job-re").unwrap();
        wal.append_cell(0, &sample(200)).unwrap(); // duplicate idx
        wal.append_cell(1, &sample(101)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let cells = load_wal(&path, "job-re").unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&0].seed, 100, "first write wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_replay_orders_and_marks_done() {
        let dir = std::env::temp_dir().join(format!("campaignd-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(Manifest::path_in(&dir));

        let mut manifest = Manifest::open(&dir).unwrap();
        manifest
            .record_job("job-a", "{\"kind\": \"resilience\"}")
            .unwrap();
        manifest
            .record_job("job-b", "{\"kind\": \"attack\"}")
            .unwrap();
        manifest.record_done("job-a", "completed").unwrap();
        drop(manifest);

        let entries = load_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "job-a");
        assert_eq!(entries[0].done.as_deref(), Some("completed"));
        assert_eq!(entries[1].id, "job-b");
        assert_eq!(entries[1].done, None);

        assert!(load_manifest(Path::new("/nonexistent-dir-xyz"))
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_file(Manifest::path_in(&dir));
    }

    #[test]
    fn fnv_is_the_reference_vector() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
