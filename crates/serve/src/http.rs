//! Hand-rolled, bounds-checked HTTP/1.1 head reader — requests at the
//! server, responses at [`crate::client`] — and response writer.
//!
//! The offline build has no web-framework crates, so the wire protocol is
//! implemented directly over `std::io`: a buffered [`ConnReader`] that
//! retains leftover bytes across requests (keep-alive and pipelining come
//! for free), [`parse_request`] with hard limits on every dimension a
//! hostile peer controls (request-line length, header count, header-block
//! bytes, total header time), and a deterministic [`Response`] writer
//! whose *bodies* contain no timestamps or per-request identifiers — the
//! property that lets the verdict cache promise byte-identical warm
//! responses. (Correlation ids like `X-Request-Id` ride in
//! `extra_headers`, outside the body contract.)
//!
//! Every malformed, oversized, truncated, or dawdling request maps to a
//! typed [`ParseError`]; the connection loop converts those into 4xx
//! responses (when the peer is still writable) or a clean close. Nothing
//! in this module panics on untrusted input — the adversarial test suite
//! feeds it garbage, partial lines, and slow-loris dribbles.

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard caps on attacker-controlled head dimensions: a request's at the
/// server, and (all but the deadline) a response's at the client.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Longest accepted request line (method + URI + version) or status
    /// line, bytes.
    pub max_request_line: usize,
    /// Cap on the whole header block, bytes.
    pub max_header_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Wall-clock budget for receiving one complete request head; a peer
    /// dribbling bytes slower than this (slow loris) is cut off.
    pub header_deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 2048,
            max_header_bytes: 8192,
            max_headers: 64,
            header_deadline: Duration::from_secs(5),
        }
    }
}

/// Why a request (or, at the client, a response) head could not be read.
#[derive(Debug)]
pub enum ParseError {
    /// The keep-alive session ended cleanly before any byte of a new
    /// request: the peer closed it, or the server began draining while
    /// the connection sat idle. Not an error.
    ConnectionClosed,
    /// EOF in the middle of a request head.
    Truncated,
    /// The header deadline or a socket read timeout expired.
    Timeout,
    /// Request line longer than the limit.
    RequestLineTooLong,
    /// Header block over the byte or field-count cap.
    HeadersTooLarge,
    /// Syntactically invalid request.
    Malformed(String),
    /// The request carries a body (`Content-Length` > 0 or any
    /// `Transfer-Encoding`); this API is GET-only and never reads bodies.
    BodyNotAllowed,
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion,
    /// Underlying transport error.
    Io(io::Error),
}

/// How a response head the client cannot read reaches its caller.
impl From<ParseError> for io::Error {
    fn from(e: ParseError) -> io::Error {
        match e {
            ParseError::Io(e) => e,
            ParseError::Timeout => io::ErrorKind::TimedOut.into(),
            e => io::Error::new(io::ErrorKind::InvalidData, format!("response head: {e:?}")),
        }
    }
}

impl ParseError {
    /// The response owed to the peer, if the failure mode leaves the
    /// connection in a writable state (`None` ⇒ just close).
    pub fn response(&self) -> Option<Response> {
        match self {
            ParseError::ConnectionClosed | ParseError::Truncated | ParseError::Io(_) => None,
            ParseError::Timeout => Some(Response::error(408, "request timed out")),
            ParseError::RequestLineTooLong => Some(Response::error(414, "request line too long")),
            ParseError::HeadersTooLarge => {
                Some(Response::error(431, "request header fields too large"))
            }
            ParseError::Malformed(msg) => Some(Response::error(400, msg)),
            ParseError::BodyNotAllowed => {
                Some(Response::error(400, "request bodies are not accepted"))
            }
            ParseError::UnsupportedVersion => Some(Response::error(
                505,
                "only HTTP/1.0 and HTTP/1.1 are supported",
            )),
        }
    }
}

/// One parsed request head.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    /// Whether the connection may serve another request afterwards.
    pub keep_alive: bool,
}

/// First header in `headers` with this (case-insensitive) name — the
/// lookup of [`Request::header`] and of the client's response.
pub(crate) fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path split on `/`, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// A buffered reader that retains unconsumed bytes between requests, so
/// pipelined requests queued in one TCP segment are each parsed in turn.
pub struct ConnReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Set when the server drains: a read waiting for the first byte of a
    /// new request then ends as [`ParseError::ConnectionClosed`].
    pub(crate) drain: Option<Arc<AtomicBool>>,
}

impl<R: Read> ConnReader<R> {
    pub fn new(inner: R) -> Self {
        ConnReader {
            inner,
            buf: vec![0; 4096],
            start: 0,
            end: 0,
            drain: None,
        }
    }

    /// The transport: for writing to the same connection, and for its
    /// socket state.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Whether no received byte is waiting to be read.
    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Read the `n`-byte body a head announced: what is buffered, then
    /// straight from the transport. The buffer grows only as bytes arrive.
    pub(crate) fn read_body(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut body = self.buf[self.start..self.end.min(self.start + n)].to_vec();
        self.start += body.len();
        let rest = (n - body.len()) as u64;
        (&mut self.inner).take(rest).read_to_end(&mut body)?;
        if body.len() < n {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(body)
    }

    /// Pull more bytes from the transport. `Ok(0)` is EOF.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            // Compact so there is always room to read.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // One buffered line fills the whole buffer (compaction freed
            // nothing). Grow rather than mistake a full buffer for EOF;
            // growth is bounded because `read_line` rejects any line
            // longer than its limit before asking for more bytes.
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Read one line, consuming through the terminating `\n` (CRLF or
    /// bare LF; the trailing terminator is stripped). `max` bounds the
    /// line length; `deadline` bounds total wall time. `at_start` marks
    /// whether EOF (or a drain) before any byte means a clean close.
    pub(crate) fn read_line(
        &mut self,
        max: usize,
        deadline: Instant,
        at_start: bool,
    ) -> Result<String, ParseError> {
        // A request line that will not fit is 414, an oversized header
        // line 431.
        let oversize = || match at_start {
            true => ParseError::RequestLineTooLong,
            false => ParseError::HeadersTooLarge,
        };
        let mut scanned = 0;
        loop {
            let window = &self.buf[self.start..self.end];
            if let Some(pos) = window[scanned..].iter().position(|&b| b == b'\n') {
                let line_end = scanned + pos;
                if line_end > max {
                    return Err(oversize());
                }
                let mut line = &window[..line_end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let text = String::from_utf8_lossy(line).into_owned();
                self.start += line_end + 1;
                return Ok(text);
            }
            scanned = window.len();
            if scanned > max {
                return Err(oversize());
            }
            if Instant::now() >= deadline {
                return Err(ParseError::Timeout);
            }
            // Nothing of a new request has arrived: EOF is a clean close.
            let idle = at_start && scanned == 0;
            match self.fill() {
                Ok(0) if idle => return Err(ParseError::ConnectionClosed),
                Ok(0) => return Err(ParseError::Truncated),
                Ok(_) => {}
                // A timed-out read retries until the deadline, unless the
                // server drains while the connection is idle.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    let drained = self
                        .drain
                        .as_ref()
                        .is_some_and(|d| d.load(Ordering::SeqCst));
                    if idle && drained {
                        return Err(ParseError::ConnectionClosed);
                    }
                }
                Err(e) => return Err(ParseError::Io(e)),
            }
        }
    }
}

/// The header block after a start line, through the blank line that ends
/// it, under `limits`' byte and field-count caps: the one loop that reads
/// both a request's headers and a response's.
pub(crate) fn read_headers<R: Read>(
    reader: &mut ConnReader<R>,
    limits: &HttpLimits,
    deadline: Instant,
) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = reader.read_line(limits.max_header_bytes, deadline, false)?;
        if line.is_empty() {
            return Ok(headers);
        }
        header_bytes += line.len() + 2;
        if header_bytes > limits.max_header_bytes || headers.len() >= limits.max_headers {
            return Err(ParseError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed("header line without colon".into()))?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed("invalid header name".into()));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
}

/// The body length a head announces: its `Content-Length`, `0` without
/// one.
pub(crate) fn content_length(headers: &[(String, String)]) -> Result<u64, ParseError> {
    find_header(headers, "content-length").map_or(Ok(0), |v| {
        v.parse()
            .map_err(|_| ParseError::Malformed("unparseable Content-Length".into()))
    })
}

/// Parse one request head off the connection, enforcing every limit.
pub fn parse_request<R: Read>(
    reader: &mut ConnReader<R>,
    limits: &HttpLimits,
) -> Result<Request, ParseError> {
    let deadline = Instant::now() + limits.header_deadline;

    let request_line = reader.read_line(limits.max_request_line, deadline, true)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra fields in request line".into()));
    }
    if !method
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-')
        || method.is_empty()
    {
        return Err(ParseError::Malformed("invalid method token".into()));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::UnsupportedVersion),
    };
    if !target.starts_with('/') {
        return Err(ParseError::Malformed(
            "request target must be a path".into(),
        ));
    }

    let headers = read_headers(reader, limits, deadline)?;
    // Bodies: this API never accepts one. A nonzero Content-Length or any
    // Transfer-Encoding is rejected outright — the unread body would
    // poison the connection for keep-alive anyway, so the error response
    // also closes it.
    if content_length(&headers)? > 0 || find_header(&headers, "transfer-encoding").is_some() {
        return Err(ParseError::BodyNotAllowed);
    }

    // Connection semantics: HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let keep_alive = match find_header(&headers, "connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http11,
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        keep_alive,
    })
}

/// Decode `%XX` escapes and `+`-as-space. Invalid escapes pass through
/// literally (never an error — the router's lookup will 404 instead).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response, rendered deterministically: fixed header order, no
/// `Date`, and bodies free of request ids — identical inputs yield
/// identical body bytes (per-request headers like `X-Request-Id` are
/// appended via `extra_headers`).
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After` on 503), rendered in order.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Close the connection after writing.
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A plain-text body under the Prometheus exposition content type
    /// (`/metricsz`, the rendered ring table).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4",
            ..Response::json(status, body)
        }
    }

    /// A JSON error body: `{"error": "..."}`. Error responses close the
    /// connection — after a protocol-level failure the stream state is
    /// not trustworthy.
    pub fn error(status: u16, message: &str) -> Response {
        let doc = obs::json::Json::obj()
            .field("error", message)
            .field("status", u64::from(status));
        let mut r = Response::json(status, doc.pretty() + "\n");
        r.close = true;
        r
    }

    /// 503 with an explicit backpressure hint.
    pub fn overloaded(retry_after_secs: u32) -> Response {
        let mut r = Response::error(503, "server at capacity, retry later");
        r.extra_headers
            .push(("Retry-After", retry_after_secs.to_string()));
        r
    }

    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            414 => "URI Too Long",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            409 => "Conflict",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            508 => "Loop Detected",
            _ => "Unknown",
        }
    }

    /// Status class for metrics: 2, 4, or 5.
    pub fn class(&self) -> u16 {
        self.status / 100
    }

    /// Render head and body into one buffer and hand it to `w` in one
    /// write: on a `TCP_NODELAY` socket two writes are two syscalls and
    /// two segments.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        // A head is 100-200 bytes; a rare longer one grows the buffer once.
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(if self.close {
            b"Connection: close\r\n\r\n"
        } else {
            b"Connection: keep-alive\r\n\r\n"
        });
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(input: &str) -> Result<Request, ParseError> {
        let mut reader = ConnReader::new(input.as_bytes());
        parse_request(&mut reader, &HttpLimits::default())
    }

    #[test]
    fn parses_simple_get() {
        let req = parse_str("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.keep_alive);
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_query_and_percent_escapes() {
        let req = parse_str(
            "GET /v1/verdict/MILC-QCD/Serial?ranks=8&faults=crash%40r1%3Aop5 HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.segments(), vec!["v1", "verdict", "MILC-QCD", "Serial"]);
        assert_eq!(req.query_param("ranks"), Some("8"));
        assert_eq!(req.query_param("faults"), Some("crash@r1:op5"));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = ConnReader::new(two.as_bytes());
        let limits = HttpLimits::default();
        let first = parse_request(&mut reader, &limits).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        let second = parse_request(&mut reader, &limits).unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
        assert!(matches!(
            parse_request(&mut reader, &limits),
            Err(ParseError::ConnectionClosed)
        ));
    }

    #[test]
    fn truncated_head_is_truncated_not_panic() {
        assert!(matches!(parse_str("GET /he"), Err(ParseError::Truncated)));
        assert!(matches!(
            parse_str("GET /x HTTP/1.1\r\nHost: unfini"),
            Err(ParseError::Truncated)
        ));
        assert!(matches!(parse_str(""), Err(ParseError::ConnectionClosed)));
    }

    #[test]
    fn oversized_request_line_is_414_and_headers_431() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(5000));
        assert!(matches!(
            parse_str(&long_target),
            Err(ParseError::RequestLineTooLong)
        ));
        let fat_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(10_000));
        assert!(matches!(
            parse_str(&fat_header),
            Err(ParseError::HeadersTooLarge)
        ));
        let many: String = (0..100).map(|i| format!("X-{i}: v\r\n")).collect();
        assert!(matches!(
            parse_str(&format!("GET / HTTP/1.1\r\n{many}\r\n")),
            Err(ParseError::HeadersTooLarge)
        ));
    }

    #[test]
    fn bodies_are_rejected() {
        assert!(matches!(
            parse_str("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            Err(ParseError::BodyNotAllowed)
        ));
        assert!(matches!(
            parse_str("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::BodyNotAllowed)
        ));
        // Content-Length: 0 is fine.
        assert!(parse_str("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn malformed_lines_are_400_class() {
        for bad in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "G<T /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ] {
            match parse_str(bad) {
                Err(ParseError::Malformed(_)) => {}
                other => panic!("{bad:?}: expected Malformed, got {other:?}"),
            }
        }
        assert!(matches!(
            parse_str("GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::UnsupportedVersion)
        ));
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let a = Response::json(200, "{\"x\":1}".to_string());
        let b = Response::json(200, "{\"x\":1}".to_string());
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.write_to(&mut ba).unwrap();
        b.write_to(&mut bb).unwrap();
        assert_eq!(ba, bb);
        let text = String::from_utf8(ba).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(!text.contains("Date:"), "no timestamps in responses");
    }

    #[test]
    fn a_drain_ends_an_idle_wait_but_not_a_request_under_way() {
        // A transport that times out between the chunks it delivers, as a
        // socket with a read timeout does.
        struct Chunks(Vec<&'static str>);
        impl Read for Chunks {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.pop() {
                    Some("") => Err(io::ErrorKind::WouldBlock.into()),
                    Some(chunk) => {
                        buf[..chunk.len()].copy_from_slice(chunk.as_bytes());
                        Ok(chunk.len())
                    }
                    None => Ok(0),
                }
            }
        }
        let parse = |chunks: Vec<&'static str>, draining: bool| {
            let mut reader = ConnReader::new(Chunks(chunks.into_iter().rev().collect()));
            reader.drain = Some(Arc::new(AtomicBool::new(draining)));
            parse_request(&mut reader, &HttpLimits::default())
        };
        let split = vec!["GET /a HT", "", "TP/1.1\r\n\r\n"];
        assert_eq!(parse(split.clone(), true).unwrap().path, "/a");
        assert_eq!(parse(split, false).unwrap().path, "/a");
        let idle = vec!["", "GET /b HTTP/1.1\r\n\r\n"];
        assert!(matches!(
            parse(idle.clone(), true),
            Err(ParseError::ConnectionClosed)
        ));
        assert_eq!(parse(idle, false).unwrap().path, "/b");
    }

    #[test]
    fn write_to_hands_the_writer_head_and_body_in_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut resp = Response::json(200, "{\"x\":1}".to_string());
        resp.extra_headers.push(("X-Request-Id", "r-1".to_string()));
        let mut w = Writes(Vec::new());
        resp.write_to(&mut w).unwrap();
        assert_eq!(w.0.len(), 1);
        assert_eq!(
            String::from_utf8(w.0.remove(0)).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\
             X-Request-Id: r-1\r\nConnection: keep-alive\r\n\r\n{\"x\":1}"
        );
    }

    #[test]
    fn overloaded_carries_retry_after() {
        let mut out = Vec::new();
        Response::overloaded(1).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 "));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close"));
    }

    #[test]
    fn percent_decode_is_total() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%ff"), "\u{fffd}");
    }
}
