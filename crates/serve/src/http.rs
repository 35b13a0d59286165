//! A deliberately small HTTP/1.1 layer over `std::io`: request parsing
//! with hard limits, response writing, persistent connections.
//!
//! The service speaks exactly the subset it needs — `Content-Length`
//! bodies (no chunked transfer), case-insensitive header lookup, and
//! `Connection: close` negotiation — so the whole wire layer stays
//! auditable and dependency-free.

use std::io::{self, BufRead, Read, Write};

/// Maximum bytes of request line + headers before the request is refused.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `PUT`, ...).
    pub method: String,
    /// Path portion of the target, before any `?`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Path segments between `/` separators, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request; the
    /// message is safe to echo back in an error envelope.
    Malformed(String),
    /// The head or body exceeds the configured limit.
    TooLarge(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from `input`, enforcing [`MAX_HEAD_BYTES`] on the
/// head and `max_body_bytes` on the body.
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF before any request byte (the normal
/// end of a keep-alive connection); [`ReadError::Malformed`] /
/// [`ReadError::TooLarge`] for protocol violations the caller should
/// answer with `400`; [`ReadError::Io`] for transport failures.
pub fn read_request<R: BufRead>(
    input: &mut R,
    max_body_bytes: usize,
) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;
    let request_line = match read_line(input, &mut head_bytes)? {
        Some(line) => line,
        None => return Err(ReadError::Closed),
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| malformed("request line missing target"))?;
    let version = parts.next().ok_or_else(|| malformed("request line missing HTTP version"))?;
    if method.is_empty() || parts.next().is_some() {
        return Err(malformed("request line must be METHOD SP TARGET SP VERSION"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(malformed(&format!("unsupported protocol version {version:?}")));
    }

    let (path, query) = parse_target(target)?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(input, &mut head_bytes)?
            .ok_or_else(|| malformed("connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| malformed("header line missing ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let body = match headers.iter().find(|(k, _)| k == "content-length") {
        None => Vec::new(),
        Some((_, v)) => {
            let len: usize =
                v.parse().map_err(|_| malformed(&format!("bad Content-Length {v:?}")))?;
            if len > max_body_bytes {
                return Err(ReadError::TooLarge(format!(
                    "body of {len} bytes exceeds the {max_body_bytes}-byte limit"
                )));
            }
            let mut body = vec![0u8; len];
            input.read_exact(&mut body)?;
            body
        }
    };

    Ok(Request { method, path, query, headers, body })
}

/// One response, written by [`write_response`].
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name must already be wire-ready).
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response in the Prometheus exposition content type
    /// (`GET /metrics`).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }
}

/// Writes `response`, announcing `Connection: close` unless `keep_alive`.
///
/// The head and body go out as **one** write: interleaving small writes
/// on a raw socket trips Nagle + delayed-ACK (a ~40ms stall per
/// response), which would dominate every round trip.
///
/// # Errors
///
/// [`io::Error`] from the transport.
pub fn write_response<W: Write>(
    out: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    for (name, value) in &response.extra_headers {
        wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&response.body);
    out.write_all(&wire)?;
    out.flush()
}

/// The canonical reason phrase for every status the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn malformed(msg: &str) -> ReadError {
    ReadError::Malformed(msg.to_string())
}

/// Reads one CRLF- (or LF-) terminated line; `None` on EOF at a line
/// boundary with nothing read. The read itself is bounded by what is left
/// of the head budget, so a peer that never sends a newline costs at most
/// [`MAX_HEAD_BYTES`] + 1 buffered bytes.
fn read_line<R: BufRead>(
    input: &mut R,
    head_bytes: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut raw = Vec::new();
    let budget = (MAX_HEAD_BYTES + 1).saturating_sub(*head_bytes) as u64;
    let n = input.by_ref().take(budget).read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::TooLarge(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    if raw.last() == Some(&b'\n') {
        raw.pop();
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
    }
    String::from_utf8(raw).map(Some).map_err(|_| malformed("request head is not UTF-8"))
}

fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), ReadError> {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(malformed("target path must start with '/'"));
    }
    let mut query = Vec::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok((percent_decode(path)?, query))
}

/// Minimal percent-decoding (`%XX` and `+` as space in queries is *not*
/// applied — tenant names and day indexes never need it, and keeping the
/// mapping 1:1 avoids aliased routes).
fn percent_decode(s: &str) -> Result<String, ReadError> {
    if !s.contains('%') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| malformed("bad percent-escape in target"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| malformed("percent-escape decodes to invalid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut Cursor::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let req = parse(
            "POST /v1/acme/days/3/spans?since=42&mode=x HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/acme/days/3/spans");
        assert_eq!(req.segments(), vec!["v1", "acme", "days", "3", "spans"]);
        assert_eq!(req.query_param("since"), Some("42"));
        assert_eq!(req.query_param("mode"), Some("x"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_reads_sequential_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut cursor = Cursor::new(raw.as_bytes());
        let first = read_request(&mut cursor, 1024).unwrap();
        assert_eq!(first.path, "/a");
        let second = read_request(&mut cursor, 1024).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.wants_close());
        assert!(matches!(read_request(&mut cursor, 1024), Err(ReadError::Closed)));
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(parse("GET /x HTTP/9.9\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(ReadError::TooLarge(_))
        ));
    }

    /// Serves `b'a'` without end, counting what it hands out.
    struct Endless {
        served: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'a');
            self.served += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn a_head_without_newlines_is_refused_after_a_bounded_read() {
        // The cap keeps a regression from hanging the suite.
        let mut input = io::BufReader::new(Endless { served: 0 }.take(64 << 20));
        assert!(matches!(read_request(&mut input, 1024), Err(ReadError::TooLarge(_))));
        let served = input.get_ref().get_ref().served;
        assert!(served <= 2 * MAX_HEAD_BYTES + 8192, "consumed {served} bytes");
    }

    #[test]
    fn responses_round_trip_the_wire_shape() {
        let mut out = Vec::new();
        let resp = Response::json(429, br#"{"code":"x"}"#.to_vec()).with_header("Retry-After", "1");
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"code\":\"x\"}"));
    }
}
