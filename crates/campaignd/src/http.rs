//! Incremental HTTP/1.1 over `std::net`: the smallest parser that is safe
//! to point at a hostile socket.
//!
//! Design constraints, in order:
//!
//! 1. **Never over-read.** [`parse_request`] consumes bytes only once a
//!    complete request is present; `Complete` reports exactly how many
//!    bytes it used so pipelined requests parse from the remainder.
//! 2. **Bounded everything.** Headers are capped at
//!    [`MAX_HEADER_BYTES`], bodies at [`MAX_BODY_BYTES`]; breaching
//!    either is a terminal `Reject`, not an allocation.
//! 3. **Slowloris resistance is the caller's deadline, our contract.**
//!    The parser is a pure function over the accumulated buffer — it
//!    returns [`Parse::NeedMore`] without side effects, so the connection
//!    loop can enforce a wall-clock budget on how long a peer may dribble.

/// Maximum bytes of request line + headers before the request is rejected
/// with `431 Request Header Fields Too Large`.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum declared body size before the request is rejected with
/// `413 Content Too Large`.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// The protocol version on a request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: one request per connection unless the client asks for
    /// `Connection: keep-alive`.
    Http10,
    /// `HTTP/1.1`: the connection persists unless either side says
    /// `Connection: close`.
    Http11,
}

/// A parsed request. Header names are lowercased; values are trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + query), verbatim.
    pub target: String,
    /// Protocol version from the request line.
    pub version: Version,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (name given lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client lets the connection stay open after the reply:
    /// an HTTP/1.1 request unless a `Connection` header lists `close`, an
    /// HTTP/1.0 one only when it lists `keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let lists = |token: &str| {
            self.headers.iter().any(|(name, value)| {
                name == "connection"
                    && value
                        .split(',')
                        .any(|t| t.trim().eq_ignore_ascii_case(token))
            })
        };
        match self.version {
            Version::Http10 => lists("keep-alive"),
            Version::Http11 => !lists("close"),
        }
    }
}

/// Outcome of feeding the accumulated buffer to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// The buffer does not yet hold a complete request; read more bytes
    /// and call again with the longer buffer.
    NeedMore,
    /// A complete request, plus the number of buffer bytes it consumed
    /// (always `<= buf.len()`; the remainder is the next pipelined
    /// request).
    Complete(Request, usize),
    /// The request is malformed or over limits; respond with this status
    /// and close the connection.
    Reject(u16, &'static str),
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Splits the head off `buf` at the first `\r\n\r\n`: the bytes before
/// it, and the index *after* it.
fn split_head(buf: &[u8]) -> Option<(&[u8], usize)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let (head, _) = buf.split_at_checked(end)?;
    Some((head, end + 4))
}

/// Incrementally parses one request from the front of `buf`.
///
/// Pure and idempotent: the same buffer always yields the same outcome,
/// and `NeedMore` commits to nothing. See [`Parse`] for the contract.
pub fn parse_request(buf: &[u8]) -> Parse {
    let (head, head_len) = match split_head(buf) {
        Some(split) => split,
        None => {
            // No terminator yet. If the headers alone already exceed the
            // cap, no further bytes can save this request.
            if buf.len() >= MAX_HEADER_BYTES {
                return Parse::Reject(431, "Request Header Fields Too Large");
            }
            return Parse::NeedMore;
        }
    };
    if head_len > MAX_HEADER_BYTES {
        return Parse::Reject(431, "Request Header Fields Too Large");
    }
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(|&b| b == b' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => return Parse::Reject(400, "Bad Request"),
    };
    if method.is_empty() || !method.iter().all(|&b| is_token_byte(b)) {
        return Parse::Reject(400, "Bad Request");
    }
    if target.is_empty() || target.iter().any(|&b| b <= b' ' || b >= 0x7f) {
        return Parse::Reject(400, "Bad Request");
    }
    let version = match version {
        b"HTTP/1.1" => Version::Http11,
        b"HTTP/1.0" => Version::Http10,
        _ => return Parse::Reject(505, "HTTP Version Not Supported"),
    };

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            return Parse::Reject(400, "Bad Request");
        }
        let mut halves = line.splitn(2, |&b| b == b':');
        let (name, value) = match (halves.next(), halves.next()) {
            (Some(name), Some(value)) if !name.is_empty() => (name, value),
            _ => return Parse::Reject(400, "Bad Request"),
        };
        if !name.iter().all(|&b| is_token_byte(b)) {
            return Parse::Reject(400, "Bad Request");
        }
        let name = String::from_utf8_lossy(name).to_ascii_lowercase();
        let value = String::from_utf8_lossy(value).trim().to_string();
        match name.as_str() {
            "content-length" => {
                let parsed: usize = match value.parse() {
                    Ok(n) => n,
                    Err(_) => return Parse::Reject(400, "Bad Request"),
                };
                // Conflicting duplicate Content-Length headers are a
                // request-smuggling vector: reject rather than pick one.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Parse::Reject(400, "Bad Request");
                }
                if parsed > MAX_BODY_BYTES {
                    return Parse::Reject(413, "Content Too Large");
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                // Chunked bodies are out of scope for a JSON job API;
                // refusing them outright also closes the TE/CL smuggling
                // class.
                return Parse::Reject(501, "Not Implemented");
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let total = head_len + content_length.unwrap_or(0);
    let Some(body) = buf.get(head_len..total) else {
        return Parse::NeedMore;
    };
    Parse::Complete(
        Request {
            method: String::from_utf8_lossy(method).to_uppercase(),
            target: String::from_utf8_lossy(target).to_string(),
            version,
            headers,
            body: body.to_vec(),
        },
        total,
    )
}

/// Serializes a response. `extra` headers come after the defaults;
/// `keep_alive: false` adds `Connection: close`.
pub fn response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    if !keep_alive {
        out.push_str("Connection: close\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// The header block of a streaming response: no `Content-Length`, the
/// body runs until the connection closes (NDJSON streams).
pub fn stream_head(content_type: &str) -> Vec<u8> {
    format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n")
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_get_parses() {
        let buf = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse_request(buf) {
            Parse::Complete(req, used) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.target, "/healthz");
                assert_eq!(req.version, Version::Http11);
                assert_eq!(req.header("host"), Some("x"));
                assert!(req.body.is_empty());
                assert_eq!(used, buf.len());
            }
            other @ (Parse::NeedMore | Parse::Reject(..)) => panic!("{other:?}"),
        }
    }

    #[test]
    fn body_waits_for_content_length() {
        let buf = b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        assert_eq!(parse_request(buf), Parse::NeedMore);
        let buf = b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde";
        match parse_request(buf) {
            Parse::Complete(req, used) => {
                assert_eq!(req.body, b"abcde");
                assert_eq!(used, buf.len());
            }
            other @ (Parse::NeedMore | Parse::Reject(..)) => panic!("{other:?}"),
        }
    }

    #[test]
    fn consumed_stops_at_request_boundary() {
        let buf = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match parse_request(buf) {
            Parse::Complete(req, used) => {
                assert_eq!(req.target, "/a");
                assert_eq!(used, 19);
                match parse_request(&buf[used..]) {
                    Parse::Complete(req, _) => assert_eq!(req.target, "/b"),
                    other @ (Parse::NeedMore | Parse::Reject(..)) => panic!("{other:?}"),
                }
            }
            other @ (Parse::NeedMore | Parse::Reject(..)) => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_are_terminal_and_typed() {
        assert_eq!(
            parse_request(b"GET/a HTTP/1.1\r\n\r\n"),
            Parse::Reject(400, "Bad Request")
        );
        assert_eq!(
            parse_request(b"GET /a HTTP/2.0\r\n\r\n"),
            Parse::Reject(505, "HTTP Version Not Supported")
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
            Parse::Reject(413, "Content Too Large")
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parse::Reject(501, "Not Implemented")
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Parse::Reject(400, "Bad Request")
        );
        let long = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert_eq!(
            parse_request(&long),
            Parse::Reject(431, "Request Header Fields Too Large")
        );
    }

    #[test]
    fn conflicting_content_lengths_rejected() {
        let buf = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_request(buf), Parse::Reject(400, "Bad Request"));
        // Agreeing duplicates are tolerated.
        let buf = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab";
        assert!(matches!(parse_request(buf), Parse::Complete(_, _)));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_tokens() {
        let cases: [(&[u8], bool); 7] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n\r\n",
                false,
            ),
            (b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            (
                b"GET / HTTP/1.0\r\nHost: x\r\nConnection: upgrade, Keep-Alive\r\n\r\n",
                true,
            ),
        ];
        for (raw, keep) in cases {
            let Parse::Complete(req, _) = parse_request(raw) else {
                panic!("{}", String::from_utf8_lossy(raw));
            };
            assert_eq!(req.keep_alive(), keep, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn response_writer_shapes() {
        let bytes = response(
            429,
            "Too Many Requests",
            "application/json",
            b"{}",
            &[("Retry-After", "1")],
            false,
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let head = String::from_utf8(stream_head("application/x-ndjson")).unwrap();
        assert!(!head.contains("Content-Length"));
    }
}
