//! Minimal blocking HTTP/1.1 client for `report`'s client commands, the
//! peer client ([`crate::fleet`]) and the tests; the benchmark has its
//! own. Keep-alive, `Content-Length`-framed bodies, and no framing of its
//! own: a response head is read by the server's [`ConnReader`] and
//! header-block loop under the request limits; only the status line and
//! the body length are the client's.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{content_length, find_header, read_headers, ConnReader, HttpLimits};

/// One response as the client saw it.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Largest response body accepted — far above a segment transfer's whole
/// store slice; a larger `Content-Length` is refused unread.
const MAX_BODY_BYTES: u64 = 1 << 30;

/// Connect and read deadline of [`HttpClient::connect`]: generous,
/// because the general-purpose client also waits out cold analyses.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Resolve `host:port` to its first socket address.
pub(crate) fn resolve(addr: &str) -> io::Result<SocketAddr> {
    std::net::ToSocketAddrs::to_socket_addrs(addr)?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing"))
}

/// A keep-alive connection to one server.
pub struct HttpClient {
    conn: ConnReader<TcpStream>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        HttpClient::connect_with(addr, DEFAULT_TIMEOUT, DEFAULT_TIMEOUT)
    }

    /// Connect by `host:port` string — how cluster peers are named in
    /// the seed table.
    pub fn connect_str(addr: &str) -> io::Result<HttpClient> {
        HttpClient::connect(resolve(addr)?)
    }

    /// Connect with explicit deadlines: one on the TCP connect, one on
    /// every read of a response and on its whole head — a caller that
    /// must not hang on a peer that accepts and never answers picks both.
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(HttpClient {
            conn: ConnReader::new(stream),
        })
    }

    /// Whether this keep-alive connection can carry another request: the
    /// server has neither closed it nor sent anything unasked (a server
    /// answers a connection left idle past its header deadline with a
    /// `408` and closes it). A non-blocking peek that consumes nothing;
    /// a connection found not reusable may be left non-blocking, so drop
    /// it.
    pub(crate) fn is_reusable(&self) -> bool {
        let stream = self.conn.get_ref();
        self.conn.is_empty()
            && stream.set_nonblocking(true).is_ok()
            && matches!(
                stream.peek(&mut [0u8; 1]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock
            )
            && stream.set_nonblocking(false).is_ok()
    }

    /// Issue `GET path` and read the full response.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.get_with_headers(path, &[])
    }

    /// Issue `GET path` with extra request headers (how a proxying node
    /// stamps `X-Cluster-Hops` onto a forwarded request).
    pub fn get_with_headers(
        &mut self,
        path: &str,
        headers: &[(&str, String)],
    ) -> io::Result<ClientResponse> {
        let mut req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n");
        for (name, value) in headers {
            let _ = write!(req, "{name}: {value}\r\n");
        }
        req.push_str("\r\n");
        let mut stream = self.conn.get_ref();
        stream.write_all(req.as_bytes())?;

        // The head: a status line, then the header block through the same
        // loop and limits as a request's, all within one read timeout.
        let limits = HttpLimits::default();
        let deadline = Instant::now() + stream.read_timeout()?.unwrap_or(DEFAULT_TIMEOUT);
        let line = self
            .conn
            .read_line(limits.max_request_line, deadline, true)?;
        let status = match line.split(' ').nth(1).map(str::parse::<u16>) {
            Some(Ok(code)) if line.starts_with("HTTP/1.") && (100..1000).contains(&code) => code,
            _ => return Err(invalid(format!("bad status line {line:?}"))),
        };
        let headers = read_headers(&mut self.conn, &limits, deadline)?;
        let len = content_length(&headers)?;
        if len > MAX_BODY_BYTES {
            return Err(invalid(format!("refused Content-Length {len}")));
        }
        Ok(ClientResponse {
            status,
            headers,
            body: self.conn.read_body(len as usize)?,
        })
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One-shot GET on a fresh connection.
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<ClientResponse> {
    HttpClient::connect(addr)?.get(path)
}

/// One-shot GET on `addr` (`host:port`), following `307 Temporary
/// Redirect` up to `max_redirects` times. Returns the final response
/// plus the address that actually served it, so redirect-learning
/// clients can cache key→owner and go straight there next time.
pub fn get_redirecting(
    addr: &str,
    path: &str,
    max_redirects: u32,
) -> io::Result<(ClientResponse, String)> {
    let mut here = addr.to_string();
    for _ in 0..=max_redirects {
        let resp = HttpClient::connect_str(&here)?.get(path)?;
        if resp.status != 307 {
            return Ok((resp, here));
        }
        let location = resp.header("location").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "307 without a Location header")
        })?;
        let rest = location.strip_prefix("http://").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "Location is not an http:// URL")
        })?;
        here = match rest.find('/') {
            Some(slash) => rest[..slash].to_string(),
            None => rest.to_string(),
        };
    }
    Err(io::Error::new(
        io::ErrorKind::Other,
        "redirect limit exceeded (ring loop?)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that reads the request head and answers
    /// `reply`, then closes.
    fn answering(reply: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            crate::http::parse_request(&mut ConnReader::new(&s), &HttpLimits::default()).unwrap();
            let _ = s.write_all(&reply);
        });
        addr
    }

    #[test]
    fn reads_a_response_through_the_request_reader() {
        let addr = answering(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-A: b\r\nContent-Length: 5\r\n\r\nhello"
                .to_vec(),
        );
        let resp = get_once(addr, "/x").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-a"), Some("b"));
        assert_eq!(resp.body, b"hello");
    }

    #[test]
    fn a_content_length_past_u64_range_or_the_ceiling_is_an_error_not_a_panic() {
        for len in [
            "18446744073709551615",
            "18446744073709551616",
            "1073741825",
            "-1",
        ] {
            let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\nx");
            let err = get_once(answering(reply.into_bytes()), "/x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}: {err}");
        }
    }

    #[test]
    fn a_body_cut_short_is_an_error() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        let err = get_once(answering(reply), "/x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn a_header_block_over_the_request_limits_is_an_error() {
        let limits = HttpLimits::default();
        let fat = format!(
            "HTTP/1.1 200 OK\r\nX-Pad: {}\r\nContent-Length: 0\r\n\r\n",
            "p".repeat(limits.max_header_bytes)
        );
        let many: String = (0..=limits.max_headers)
            .map(|i| format!("X-{i}: v\r\n"))
            .collect();
        let numerous = format!("HTTP/1.1 200 OK\r\n{many}Content-Length: 0\r\n\r\n");
        for reply in [fat, numerous] {
            let err = get_once(answering(reply.into_bytes()), "/x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn a_bad_status_line_is_an_error() {
        for line in ["HTTP/1.1 OK", "HTTP/2 200 OK", "garbage", "HTTP/1.1 99 Low"] {
            let reply = format!("{line}\r\nContent-Length: 0\r\n\r\n");
            let err = get_once(answering(reply.into_bytes()), "/x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}: {err}");
        }
    }

    #[test]
    fn a_silent_peer_costs_one_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let timeout = Duration::from_millis(200);
        let mut client = HttpClient::connect_with(addr, timeout, timeout).unwrap();
        let t0 = Instant::now();
        let err = client.get("/x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        drop(listener);
    }
}
