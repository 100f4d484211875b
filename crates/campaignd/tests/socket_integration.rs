//! Real-socket integration tests: the spawned `campaignd` binary serving
//! HTTP over an ephemeral port — health, stats, submission, report
//! identity against an in-process run, backpressure, connection close,
//! and graceful drain.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "times how long a live daemon takes to close a connection"
)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{http, job_id, read_response, temp_state, wait_for_status, Daemon};
use platform::experiment::RunnerConfig;
use platform::resilience::{run_resilience_campaign_with, ResilienceConfig};

#[test]
fn health_errors_and_pipelining() {
    let state = temp_state("health");
    let mut daemon = Daemon::launch(&state, &[]);

    let (status, body) = http(&daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "{body}");

    let (status, body) = http(&daemon.addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    for key in ["queue_depth", "queue_cap", "shed", "cells_done", "jobs"] {
        assert!(body.contains(key), "missing {key} in {body}");
    }

    assert_eq!(http(&daemon.addr, "GET", "/nope", None).0, 404);
    assert_eq!(
        http(&daemon.addr, "GET", "/jobs/job-9999-ffffffff", None).0,
        404
    );
    assert_eq!(http(&daemon.addr, "DELETE", "/healthz", None).0, 405);
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some("{\"kind\": \"nope\"}"));
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");
    // Malformed framing is rejected with a typed error, not a hang.
    let (status, _) = http(&daemon.addr, "G@T", "/healthz", None);
    assert_eq!(status, 400);

    // Two pipelined requests on one connection get two responses.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut carry = Vec::new();
    let (first, _) = read_response(&mut stream, &mut carry);
    let (second, body) = read_response(&mut stream, &mut carry);
    assert_eq!((first, second), (200, 200));
    assert!(body.contains("queue_depth"), "{body}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_request_that_asks_for_close_reaches_eof_at_once() {
    let state = temp_state("close");
    let mut daemon = Daemon::launch(&state, &[]);
    for request in [
        "GET /healthz HTTP/1.1\r\nHost: campaignd\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
    ] {
        let started = Instant::now();
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{request:?} reached EOF after {took:?}"
        );
        assert!(
            reply.starts_with("HTTP/1.1 200") && reply.contains("\r\nConnection: close\r\n"),
            "{reply}"
        );
        assert!(
            reply.ends_with("{\"ok\": true, \"draining\": false}"),
            "{reply}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn submitted_job_reproduces_the_in_process_report() {
    let state = temp_state("report");
    let mut daemon = Daemon::launch(&state, &[]);

    let (status, body) = http(
        &daemon.addr,
        "POST",
        "/jobs",
        Some("{\"kind\": \"resilience\", \"base_seed\": 7, \"reps\": 1}"),
    );
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"cells_total\": 216"), "{body}");
    let id = job_id(&body);

    // Before completion the report endpoint says "not yet", typed.
    let (status, _) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 409);

    // The NDJSON stream emits parseable event lines while the job runs.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("GET /jobs/{id}/stream HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let mut lines = BufReader::new(stream).lines();
    let mut head = String::new();
    for line in lines.by_ref() {
        let line = line.unwrap();
        if line.is_empty() {
            break; // end of the response head
        }
        head.push_str(&line);
    }
    assert!(head.contains("application/x-ndjson"), "{head}");
    let first_event = lines.next().unwrap().unwrap();
    assert!(
        first_event.starts_with("{\"event\": \"job\""),
        "{first_event}"
    );
    drop(lines); // a vanishing stream client must not disturb the job

    wait_for_status(&daemon.addr, &id, "completed", Duration::from_secs(180));
    let (status, report) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
    assert_eq!(status, 200);

    // The canonical campaign identity (seed 7, Degrade defense) shared
    // with the `resilience` bench target, pinned to one rep for test
    // speed — exactly what the submitted job asked for.
    let cfg = ResilienceConfig {
        reps: 1,
        ..bench::canonical_resilience_config()
    };
    let expected = run_resilience_campaign_with(RunnerConfig::default(), &cfg).to_json();
    assert_eq!(
        report, expected,
        "daemon report must be byte-identical to the in-process campaign"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_stream_that_ends_completed_means_the_report_is_served() {
    let state = temp_state("stream-eof");
    let mut daemon = Daemon::launch(&state, &[]);

    for (seed, attack) in [
        "acceleration",
        "steering_left",
        "steering_right",
        "deceleration_steering",
    ]
    .into_iter()
    .enumerate()
    {
        let spec = format!(
            "{{\"kind\": \"attack\", \"strategy\": \"context_aware\", \
\"attack\": \"{attack}\", \"base_seed\": {seed}, \"reps\": 1}}"
        );
        let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(&spec));
        assert_eq!(status, 202, "{body}");
        let id = job_id(&body);

        // Read the stream to EOF, then fetch the report once: no retry.
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
            .write_all(format!("GET /jobs/{id}/stream HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        let mut events = String::new();
        stream.read_to_string(&mut events).unwrap();
        let last = events.lines().rfind(|l| l.starts_with('{')).unwrap_or("");
        assert!(last.contains("\"status\": \"completed\""), "{events}");

        let (status, report) = http(&daemon.addr, "GET", &format!("/jobs/{id}/report"), None);
        assert_eq!(status, 200, "{report}");
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn overload_sheds_with_429_and_drain_is_graceful() {
    let state = temp_state("overload");
    let mut daemon = Daemon::launch(&state, &["--queue-cap", "1", "--workers", "1"]);

    // Job A: cell 0 sleeps long enough to pin the single worker.
    let slow = "{\"kind\": \"resilience\", \"base_seed\": 7, \"reps\": 1, \
\"delay_cells\": [[0, 1500], [1, 1500]]}";
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(slow));
    assert_eq!(status, 202, "{body}");
    let id_a = job_id(&body);
    wait_for_status(&daemon.addr, &id_a, "running", Duration::from_secs(10));

    // Job B fills the queue (cap 1); job C is shed with backpressure.
    let (status, body) = http(&daemon.addr, "POST", "/jobs", Some(slow));
    assert_eq!(status, 202, "{body}");
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = slow;
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 429"), "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");

    let (_, stats) = http(&daemon.addr, "GET", "/stats", None);
    assert!(stats.contains("\"shed\": 1"), "{stats}");
    assert!(stats.contains("\"queue_depth\": 1"), "{stats}");

    // Drain: the running job finishes its in-flight cells and starts no
    // more (its WAL keeps the finished ones), the queued job is left for
    // resume, and the process exits cleanly.
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}
