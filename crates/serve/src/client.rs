//! Minimal blocking HTTP/1.1 client — just enough for `report`'s client
//! commands, the test suites, and the benchmark. Speaks keep-alive, reads
//! `Content-Length`-framed bodies, and treats anything else as a close.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response as the client saw it.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

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
    stream: TcpStream,
    buf: Vec<u8>,
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
    /// every read of a response — a caller that must not hang on a peer
    /// that accepts and never answers picks both.
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Whether this keep-alive connection can carry another request: the
    /// server has neither closed it nor sent anything unasked (a server
    /// answers a connection left idle past its header deadline with a
    /// `408` and closes it). A non-blocking peek that consumes nothing;
    /// a connection found not reusable may be left non-blocking, so drop
    /// it.
    pub(crate) fn is_reusable(&self) -> bool {
        self.buf.is_empty()
            && self.stream.set_nonblocking(true).is_ok()
            && matches!(
                self.stream.peek(&mut [0u8; 1]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock
            )
            && self.stream.set_nonblocking(false).is_ok()
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
            req.push_str(name);
            req.push_str(": ");
            req.push_str(value);
            req.push_str("\r\n");
        }
        req.push_str("\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    /// Read bytes until the buffer holds at least `need`, or EOF.
    fn fill_until(&mut self, need: usize) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        while self.buf.len() < need {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        // Accumulate until the blank line ending the header block.
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill_until(self.buf.len() + 1)?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);

        let body_start = head_end + 4;
        self.fill_until(body_start + content_length)?;
        let body = self.buf[body_start..body_start + content_length].to_vec();
        // Retain any pipelined surplus for the next response.
        self.buf.drain(..body_start + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
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

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_header_terminator() {
        assert_eq!(find_subslice(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
        assert_eq!(find_subslice(b"abcd", b"\r\n\r\n"), None);
    }
}
