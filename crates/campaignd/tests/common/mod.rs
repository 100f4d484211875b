//! Shared harness for the campaignd socket tests: spawns the real binary,
//! parses its `campaignd listening on <addr>` line, and speaks just
//! enough HTTP/1.1 as a client to exercise the API.

// Each integration test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "waits on a live daemon under wall-clock deadlines"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned daemon process bound to an ephemeral port.
pub struct Daemon {
    child: Child,
    /// `host:port` the daemon is listening on.
    pub addr: String,
    /// Its durable state directory (kept across restarts for resume).
    pub state_dir: PathBuf,
}

impl Daemon {
    /// Spawns `campaignd --state-dir <dir> --addr 127.0.0.1:0 <extra>` and
    /// waits for the listening line.
    pub fn launch(state_dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn campaignd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("daemon printed a line")
            .expect("readable stdout");
        let addr = banner
            .strip_prefix("campaignd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Daemon {
            child,
            addr,
            state_dir: state_dir.to_path_buf(),
        }
    }

    /// SIGKILLs the daemon (the chaos tests' mid-campaign crash).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Requests a drain via `POST /shutdown` and waits (bounded) for a
    /// clean exit.
    pub fn shutdown(&mut self) {
        let _ = http(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                None if Instant::now() >= deadline => {
                    self.kill();
                    panic!("daemon did not drain within the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Fresh per-test state directory under the system temp dir.
pub fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One HTTP exchange on a fresh connection; returns `(status, body)`.
/// Parses `Content-Length` framing (all non-stream daemon responses).
pub fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: campaignd\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    read_response(&mut stream, &mut Vec::new())
}

/// Reads one `Content-Length`-framed response.
///
/// `carry` holds bytes read past the end of this response (the next
/// pipelined response); pass the same buffer to the next call.
pub fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String) {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {head}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("daemon responses carry Content-Length");
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).to_string();
    *carry = buf.split_off(head_end + content_length);
    (status, body)
}

/// Extracts the `"id"` value from a `POST /jobs` 202 body.
pub fn job_id(body: &str) -> String {
    let tail = body
        .split("\"id\": \"")
        .nth(1)
        .unwrap_or_else(|| panic!("no id in {body}"));
    tail.split('"').next().unwrap().to_string()
}

/// Polls `GET /jobs/<id>` until its status string matches, panicking
/// after `timeout`.
pub fn wait_for_status(addr: &str, id: &str, wanted: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        if body.contains(&format!("\"status\": \"{wanted}\"")) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {wanted}; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}
