//! Golden fixtures and a deterministic fuzz smoke test for the
//! incremental HTTP/1.1 request parser.
//!
//! Same philosophy as `crates/lint/tests/fuzz_smoke.rs`: no external
//! fuzzer, just a fixed-seed splitmix64 stream driving byte-level
//! mutations (splice, truncate, duplicate, crossover) over a corpus of
//! realistic requests. Every mutant must classify without panicking, with
//! a bit-identical classification on a second pass, and with a `consumed`
//! count that never exceeds the buffer — the invariants the connection
//! loop's `drain(..used)` depends on.

use campaignd::http::{parse_request, Parse, MAX_BODY_BYTES, MAX_HEADER_BYTES};

// ---------------------------------------------------------------- golden

#[test]
fn golden_malformed_headers_are_rejected_not_parsed() {
    // Missing HTTP version token.
    assert!(matches!(
        parse_request(b"GET /healthz\r\n\r\n"),
        Parse::Reject(400, _)
    ));
    // Garbage method byte.
    assert!(matches!(
        parse_request(b"G@T / HTTP/1.1\r\n\r\n"),
        Parse::Reject(400, _)
    ));
    // Unsupported protocol version.
    assert!(matches!(
        parse_request(b"GET / HTTP/2.0\r\n\r\n"),
        Parse::Reject(505, _)
    ));
    // Conflicting duplicate Content-Length values.
    assert!(matches!(
        parse_request(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab"),
        Parse::Reject(400, _)
    ));
    // Transfer-Encoding is declared unimplemented, never mis-framed.
    assert!(matches!(
        parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
        Parse::Reject(501, _)
    ));
    // Non-numeric Content-Length.
    assert!(matches!(
        parse_request(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
        Parse::Reject(400, _)
    ));
}

#[test]
fn golden_oversized_inputs_are_bounded() {
    // A header block that never terminates is rejected at the cap, not
    // buffered forever (the Slowloris memory bound).
    let mut endless = b"GET / HTTP/1.1\r\n".to_vec();
    while endless.len() <= MAX_HEADER_BYTES {
        endless.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    assert!(matches!(parse_request(&endless), Parse::Reject(431, _)));

    // A declared body over the cap is rejected from the header alone,
    // before any body bytes arrive.
    let big = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert!(matches!(
        parse_request(big.as_bytes()),
        Parse::Reject(413, _)
    ));

    // At the cap exactly it is allowed — the limit is a limit, not an
    // off-by-one.
    let at_cap = format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
    assert!(matches!(parse_request(at_cap.as_bytes()), Parse::NeedMore));
}

#[test]
fn golden_pipelined_requests_consume_exact_boundaries() {
    let wire = b"GET /healthz HTTP/1.1\r\n\r\nPOST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /stats HTTP/1.1\r\n\r\n";
    let mut buf = wire.to_vec();
    let mut seen = Vec::new();
    while let Parse::Complete(req, used) = parse_request(&buf) {
        assert!(used <= buf.len(), "consumed beyond the buffer");
        seen.push((req.method.clone(), req.target.clone(), req.body.len()));
        buf.drain(..used);
    }
    assert_eq!(
        seen,
        vec![
            ("GET".to_string(), "/healthz".to_string(), 0),
            ("POST".to_string(), "/jobs".to_string(), 2),
            ("GET".to_string(), "/stats".to_string(), 0),
        ]
    );
    assert!(buf.is_empty(), "nothing left after the pipeline drains");
}

#[test]
fn golden_partial_requests_wait_for_more() {
    let full = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
    for cut in 0..full.len() {
        assert!(
            matches!(parse_request(&full[..cut]), Parse::NeedMore),
            "prefix of {cut} bytes must wait, not misparse"
        );
    }
    match parse_request(full) {
        Parse::Complete(req, used) => {
            assert_eq!(used, full.len());
            assert_eq!(req.body, b"body");
        }
        other @ (Parse::NeedMore | Parse::Reject(..)) => {
            panic!("full request must complete, got {other:?}")
        }
    }
}

// ------------------------------------------------------------ fuzz smoke

/// splitmix64, restated locally (same generator as `units::mix`).
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

/// Seed corpus: the request shapes the daemon actually serves.
const CORPUS: [&[u8]; 6] = [
    b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    b"GET /stats HTTP/1.0\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 31\r\n\r\n{\"kind\": \"resilience\", \"reps\": 1}",
    b"GET /jobs/job-0001-abcdef01/report HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
    b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"GET /jobs/x/stream HTTP/1.1\r\nAccept: application/x-ndjson\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
];

/// Bytes that stress the framing state machine when spliced in.
const SPICE: &[u8] = b"\r\n\t :/0123456789GETPOST.length\x00\x7f\xff";

fn mutate(rng: &mut Rng) -> Vec<u8> {
    let mut bytes = CORPUS[rng.below(CORPUS.len())].to_vec();
    for _ in 0..=rng.below(4) {
        match rng.below(4) {
            0 => {
                let at = rng.below(bytes.len() + 1);
                let n = 1 + rng.below(8);
                let run: Vec<u8> = (0..n).map(|_| SPICE[rng.below(SPICE.len())]).collect();
                bytes.splice(at..at, run);
            }
            1 => {
                let at = rng.below(bytes.len() + 1);
                bytes.truncate(at);
            }
            2 => {
                if !bytes.is_empty() {
                    let a = rng.below(bytes.len());
                    let b = a + rng.below(bytes.len() - a);
                    let slice = bytes[a..b].to_vec();
                    let at = rng.below(bytes.len() + 1);
                    bytes.splice(at..at, slice);
                }
            }
            _ => {
                let other = CORPUS[rng.below(CORPUS.len())];
                let cut_a = rng.below(bytes.len() + 1);
                let cut_b = rng.below(other.len() + 1);
                bytes.truncate(cut_a);
                bytes.extend_from_slice(&other[cut_b..]);
            }
        }
    }
    bytes
}

/// Flattens a parse outcome to a comparable classification.
fn classify(buf: &[u8]) -> String {
    match parse_request(buf) {
        Parse::NeedMore => "need-more".to_string(),
        Parse::Reject(status, reason) => format!("reject {status} {reason}"),
        Parse::Complete(req, used) => {
            assert!(
                used <= buf.len(),
                "consumed {used} of a {}-byte buffer",
                buf.len()
            );
            format!(
                "complete {} {} headers={} body={} used={used}",
                req.method,
                req.target,
                req.headers.len(),
                req.body.len()
            )
        }
    }
}

#[test]
fn fuzz_smoke_mutants_never_panic_and_classify_deterministically() {
    let mut rng = Rng(0x5EED_CAFE_D00D_0001);
    for round in 0..600 {
        let mutant = mutate(&mut rng);
        let first = classify(&mutant);
        let second = classify(&mutant);
        assert_eq!(first, second, "round {round}: classification must be pure");

        // Incremental invariant: feeding any prefix never does worse than
        // wait or reach the same terminal classification early.
        if first.starts_with("complete") {
            let cut = mutant.len() / 2;
            match parse_request(&mutant[..cut]) {
                Parse::Complete(_, used) => assert!(used <= cut),
                Parse::NeedMore | Parse::Reject(..) => {}
            }
        }
    }
}
