//! The chaos gauntlet: one campaign submitted to a daemon that is then
//! abused — injected worker panics, a stream client that vanishes
//! mid-read, and a SIGKILL mid-campaign followed by a `--resume` restart.
//! The final report must be byte-identical to an undisturbed in-process
//! run of the same campaign, with every cell present exactly once in the
//! write-ahead checkpoint; after a second restart the archived job's
//! report, counters and stream come back from that checkpoint.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "waits on a live daemon under wall-clock deadlines; the reports are compared byte for byte"
)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use campaignd::checkpoint::load_wal;
use common::{http, job_id, temp_state, wait_for_status, Daemon};
use platform::experiment::RunnerConfig;
use platform::resilience::{run_resilience_campaign_with, ResilienceConfig};

#[test]
fn kill_resume_and_misbehaving_clients_leave_the_report_byte_identical() {
    let state = temp_state("chaos");

    // Undisturbed truth, computed in-process from the canonical campaign
    // identity shared with the `resilience` bench (seed 7, Degrade),
    // pinned to one rep for test speed.
    let cfg = ResilienceConfig {
        reps: 1,
        ..bench::canonical_resilience_config()
    };
    let expected = run_resilience_campaign_with(RunnerConfig::default(), &cfg).to_json();

    let mut daemon = Daemon::launch(&state, &["--backoff-ms", "1"]);

    // Chaos knob 1: cells 2 and 9 panic on their first attempt, cell 40
    // dawdles — the retry ladder must heal all of it invisibly.
    let spec = "{\"kind\": \"resilience\", \"base_seed\": 7, \"reps\": 1, \
\"panic_cells\": [[2, 1], [9, 1]], \"delay_cells\": [[40, 30]]}";
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(spec));
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);

    // Chaos knob 2: a streaming client that reads a couple of events and
    // disappears without so much as a FIN wave.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("GET /jobs/{id}/stream HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut lines = BufReader::new(stream).lines();
    let mut events_seen = 0;
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line.starts_with('{') {
            events_seen += 1;
            if events_seen >= 2 {
                break;
            }
        }
    }
    assert!(
        events_seen >= 2,
        "stream produced events before the rugpull"
    );
    drop(lines);

    // Chaos knob 3: SIGKILL once real progress is checkpointed.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(&daemon.addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let done: u64 = body
            .split("\"cells_done\": ")
            .nth(1)
            .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|d| d.parse().ok())
            .unwrap_or(0);
        if done >= 8 {
            break;
        }
        if body.contains("\"status\": \"completed\"") {
            break; // too fast to catch mid-flight; resume still exercises the WAL path
        }
        assert!(Instant::now() < deadline, "no progress before kill: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.kill();

    // Restart over the same state directory: the manifest replays the
    // unfinished job, the WAL supplies the finished cells, and only the
    // missing ones recompute.
    let mut revived = Daemon::launch(&state, &["--resume", "--backoff-ms", "1"]);
    wait_for_status(&revived.addr, &id, "completed", Duration::from_secs(180));
    let (status, report) = http(&revived.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 200);
    assert_eq!(
        report, expected,
        "panics + client loss + kill + resume must be invisible in the report"
    );

    // Zero lost, zero duplicated: the WAL resolves to exactly one result
    // per cell index.
    let wal = load_wal(&state.join(format!("{id}.wal")), &id).unwrap();
    assert_eq!(wal.len(), 216, "every cell checkpointed exactly once");
    assert_eq!(*wal.keys().next().unwrap(), 0);
    assert_eq!(*wal.keys().last().unwrap(), 215);

    // The report survives a second restart without any recompute: it is
    // rebuilt from the WAL at bind time.
    revived.shutdown();
    let mut archived = Daemon::launch(&state, &["--resume"]);
    let (status, report2) = http(&archived.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 200);
    assert_eq!(report2, expected, "reports are durable across restarts");

    // The archived job's stream replays its terminal event and closes
    // instead of waiting for a job that will never run again.
    let started = Instant::now();
    let mut stream = TcpStream::connect(&archived.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("GET /jobs/{id}/stream HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("the archived stream closes on its own");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "archived stream took {:?}",
        started.elapsed()
    );
    let last = raw.lines().rfind(|l| l.starts_with('{'));
    assert!(
        last.is_some_and(|l| l.contains("\"status\": \"completed\"")),
        "archived stream must end in the completed event: {raw}"
    );

    // Its counters come back from the WAL too.
    let (status, body) = http(&archived.addr, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"cells_total\": 216, \"cells_done\": 216"),
        "{body}"
    );
    archived.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}
