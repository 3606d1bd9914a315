//! Adversarial suite: the HTTP front-end against hostile peers.
//!
//! Every scenario must end in a 4xx/5xx response or a clean connection
//! close — never a panic, never a hang. The server under test runs a stub
//! backend (no simulation), so anything that goes wrong is the HTTP
//! layer's fault. The fuzz cases are property-style over `simrng`, the
//! workspace's deterministic PRNG: same seeds, same byte garbage, every
//! run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use serve::{
    serve, AnalysisQuery, AnalysisViews, ApiError, Backend, HttpClient, HttpLimits, ServeConfig,
    ServerHandle,
};
use simrng::SimRng;

/// Instant backend: canonical echo, no analysis work.
struct StubBackend;

impl Backend for StubBackend {
    fn apps_json(&self) -> String {
        "{\"apps\": [\"stub\"]}\n".to_string()
    }

    fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        Ok(q)
    }

    fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        Ok(AnalysisViews {
            verdict: format!("{{\"app\": \"{}\"}}\n", q.app),
            conflicts: "{}\n".to_string(),
            patterns: "{}\n".to_string(),
        })
    }
}

/// A server with a short header deadline so slow-loris tests finish fast.
fn spawn_server() -> ServerHandle {
    let cfg = ServeConfig {
        limits: HttpLimits {
            header_deadline: Duration::from_millis(300),
            ..HttpLimits::default()
        },
        ..ServeConfig::default()
    };
    serve(cfg, Arc::new(StubBackend)).expect("bind test server")
}

/// Write `payload`, then read whatever comes back until the server closes
/// or 2s pass. Returns the raw response bytes (possibly empty — a bare
/// close is a legal outcome for unwritable failure modes).
fn exchange(handle: &ServerHandle, payload: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let _ = s.write_all(payload);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    text.strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// After any adversarial exchange the server must still answer a clean
/// request — the real "it survived" check.
fn assert_still_alive(handle: &ServerHandle) {
    let ok = exchange(
        handle,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&ok), Some(200), "server no longer serving");
}

#[test]
fn truncated_request_lines_close_cleanly() {
    let handle = spawn_server();
    for payload in [
        &b""[..],
        b"G",
        b"GET",
        b"GET /v1/ver",
        b"GET /healthz HTTP/1.1",
        b"GET /healthz HTTP/1.1\r\nHost: half",
    ] {
        let resp = exchange(&handle, payload);
        // Truncation is a clean close (no response owed to half a request).
        assert!(
            resp.is_empty() || matches!(status_of(&resp), Some(400..=599)),
            "unexpected bytes for {payload:?}: {resp:?}"
        );
    }
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_headers_get_431_and_oversized_line_414() {
    let handle = spawn_server();
    let fat = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(20_000));
    assert_eq!(status_of(&exchange(&handle, fat.as_bytes())), Some(431));
    let many: String = (0..200).map(|i| format!("X-{i}: v\r\n")).collect();
    let req = format!("GET / HTTP/1.1\r\n{many}\r\n");
    assert_eq!(status_of(&exchange(&handle, req.as_bytes())), Some(431));
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "b".repeat(10_000));
    assert_eq!(
        status_of(&exchange(&handle, long_line.as_bytes())),
        Some(414)
    );
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn bodies_on_get_are_rejected() {
    let handle = spawn_server();
    let with_len = b"GET /healthz HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
    assert_eq!(status_of(&exchange(&handle, with_len)), Some(400));
    let chunked = b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
    assert_eq!(status_of(&exchange(&handle, chunked)), Some(400));
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn pipelined_garbage_after_valid_request_is_contained() {
    let handle = spawn_server();
    // A valid request followed by binary garbage on the same connection:
    // the first must be answered 200, the tail must not wedge anything.
    let mut payload = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
    payload.extend_from_slice(&[
        0xff, 0x00, 0xde, 0xad, 0xbe, 0xef, b'\r', b'\n', b'\r', b'\n',
    ]);
    let resp = exchange(&handle, &payload);
    assert_eq!(status_of(&resp), Some(200), "first pipelined request lost");
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_header_deadline() {
    let handle = spawn_server();
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Dribble a byte at a time, slower than the 300ms deadline allows.
    let started = std::time::Instant::now();
    for b in b"GET /healthz HT" {
        if s.write_all(&[*b]).is_err() {
            break; // server already hung up — that's the point
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    // Either a 408 or a bare close, well before a full write could finish.
    assert!(
        out.is_empty() || status_of(&out) == Some(408),
        "unexpected slow-loris response: {out:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "slow loris held the connection too long"
    );
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn random_garbage_never_panics_the_server() {
    let handle = spawn_server();
    let mut rng = SimRng::seed_from_u64(0x5EED_F00D);
    for case in 0..200 {
        let len = rng.range_usize(0, 512);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(rng.next_u32() as u8);
        }
        let resp = exchange(&handle, &payload);
        if !resp.is_empty() {
            let status = status_of(&resp);
            assert!(
                matches!(status, Some(400..=599)),
                "case {case}: garbage earned a non-error response: {status:?}"
            );
        }
    }
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn mutated_valid_requests_never_panic_the_server() {
    let handle = spawn_server();
    let mut rng = SimRng::seed_from_u64(0xBAD_CAFE);
    let base =
        b"GET /v1/verdict/app/cfg?ranks=4&model=both HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
    for case in 0..200 {
        let mut payload = base.to_vec();
        // Flip 1–8 bytes anywhere in the request.
        for _ in 0..rng.range_usize(1, 9) {
            let at = rng.range_usize(0, payload.len());
            payload[at] = rng.next_u32() as u8;
        }
        let resp = exchange(&handle, &payload);
        if let Some(status) = status_of(&resp) {
            assert!(
                status == 200 || (400..=599).contains(&status),
                "case {case}: unexpected status {status}"
            );
        }
    }
    assert_still_alive(&handle);
    handle.shutdown();
}

#[test]
fn overload_returns_503_with_retry_after() {
    // One worker wedged by a slow-loris connection + a zero-ish queue ⇒
    // the next connection must be shed with 503 + Retry-After.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        limits: HttpLimits {
            header_deadline: Duration::from_secs(3),
            ..HttpLimits::default()
        },
        ..ServeConfig::default()
    };
    let handle = serve(cfg, Arc::new(StubBackend)).expect("bind");

    // Occupy the single worker: connect and send nothing (the handler
    // blocks in parse_request until the header deadline).
    let blocker = TcpStream::connect(handle.addr()).expect("connect blocker");
    std::thread::sleep(Duration::from_millis(100));
    // Fill the queue with a second idle connection.
    let filler = TcpStream::connect(handle.addr()).expect("connect filler");
    std::thread::sleep(Duration::from_millis(100));

    // Third connection: queue full ⇒ immediate 503 at the door.
    let mut s = TcpStream::connect(handle.addr()).expect("connect shed");
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 503 "),
        "expected 503 shed, got: {text:?}"
    );
    assert!(text.contains("Retry-After:"), "503 must carry Retry-After");

    drop(blocker);
    drop(filler);
    // After the wedged connections drain, service resumes.
    std::thread::sleep(Duration::from_millis(200));
    let ok = exchange(
        &handle,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&ok), Some(200), "server did not recover");
    handle.shutdown();
}

#[test]
fn a_queued_request_is_answered_at_drain_not_reset() {
    // One worker held by an idle keep-alive connection, and several
    // connections whose requests were sent before the stop: the drain
    // must answer each (and close), whether the accept loop had already
    // queued it or it still waited in the kernel's backlog.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let handle = serve(cfg, Arc::new(StubBackend)).expect("bind");
    let mut idle = HttpClient::connect(handle.addr()).expect("connect idle");
    assert_eq!(idle.get("/healthz").expect("first request").status, 200);
    // The worker now waits on `idle` for its next request.
    let mut queued: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(handle.addr()).expect("connect queued");
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("send queued request");
            s
        })
        .collect();
    handle.shutdown();

    for (k, s) in queued.iter_mut().enumerate() {
        let mut out = Vec::new();
        let read = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(
            read.is_ok(),
            "queued request {k} was not answered: {read:?}, got {text:?}"
        );
        assert!(
            text.starts_with("HTTP/1.1 200 "),
            "request {k}: got {text:?}"
        );
        assert!(
            text.contains("Connection: close"),
            "request {k}: got {text:?}"
        );
    }
    drop(idle);
}
