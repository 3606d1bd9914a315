//! The live observability layer end to end: request-id echo and
//! propagation through single-flight followers, flight-recorder events
//! for the request lifecycle, the `/metricsz` exposition, and the
//! postmortem dump a handler panic leaves behind.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serve::{
    parse_request, serve, AnalysisQuery, AnalysisViews, ApiError, Backend, ConnReader, HttpLimits,
    Request, Response, Router, ServeConfig,
};

fn request(line: &str) -> Request {
    let raw = format!("GET {line} HTTP/1.1\r\n\r\n");
    let mut reader = ConnReader::new(raw.as_bytes());
    parse_request(&mut reader, &HttpLimits::default()).unwrap()
}

fn request_with_rid(line: &str, rid: &str) -> Request {
    let raw = format!("GET {line} HTTP/1.1\r\nX-Request-Id: {rid}\r\n\r\n");
    let mut reader = ConnReader::new(raw.as_bytes());
    parse_request(&mut reader, &HttpLimits::default()).unwrap()
}

fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.extra_headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

struct EchoBackend;

impl Backend for EchoBackend {
    fn apps_json(&self) -> String {
        "{\"apps\": []}\n".to_string()
    }

    fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        Ok(q)
    }

    fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        if q.app == "sick" {
            return Err(ApiError::Degraded {
                config: q.config.clone(),
                error: "injected degradation".into(),
            });
        }
        Ok(AnalysisViews {
            verdict: format!("verdict:{}:{}\n", q.app, q.config),
            conflicts: "c\n".to_string(),
            patterns: "p\n".to_string(),
        })
    }
}

#[test]
fn request_ids_are_minted_echoed_and_kept_out_of_bodies() {
    let r = Router::new(Arc::new(EchoBackend), 16);

    // No inbound id: a fresh deterministic-format one is minted.
    let resp = r.handle(&request("/healthz"));
    let minted = header(&resp, "X-Request-Id").expect("response carries a request id");
    assert!(minted.starts_with("req-"), "minted id format: {minted}");
    assert_eq!(minted.len(), 20);

    // Inbound id honored and echoed verbatim.
    let resp = r.handle(&request_with_rid(
        "/v1/verdict/a/b?ranks=4",
        "trace-abc-123",
    ));
    assert_eq!(header(&resp, "X-Request-Id"), Some("trace-abc-123"));

    // A garbage inbound id is replaced, not echoed.
    let resp = r.handle(&request_with_rid("/healthz", "bad id with spaces"));
    let replaced = header(&resp, "X-Request-Id").unwrap();
    assert!(replaced.starts_with("req-"));

    // Ids never leak into bodies: same query, different rid, same bytes.
    let a = r.handle(&request_with_rid("/v1/verdict/a/b?ranks=4", "rid-one"));
    let b = r.handle(&request_with_rid("/v1/verdict/a/b?ranks=4", "rid-two"));
    assert_eq!(a.body, b.body, "request ids must not affect body bytes");
}

#[test]
fn flight_ring_records_the_request_lifecycle() {
    let r = Router::new(Arc::new(EchoBackend), 16);
    let rid = "rid-lifecycle-77";
    r.handle(&request_with_rid("/v1/verdict/life/x?ranks=2", rid));
    // A degraded run names its config in the ring.
    r.handle(&request_with_rid(
        "/v1/verdict/sick/badcfg?ranks=2",
        "rid-degraded-77",
    ));

    let events = obs::flight().snapshot();
    let mine: Vec<_> = events.iter().filter(|e| e.rid == rid).collect();
    assert!(
        mine.iter().any(|e| e.kind == obs::FlightKind::ReqStart),
        "missing request-start for {rid}"
    );
    let end = mine
        .iter()
        .find(|e| e.kind == obs::FlightKind::ReqEnd)
        .expect("missing request-end");
    assert_eq!(end.code, 200);
    assert!(end.detail.contains("/v1/verdict/life/x"));
    assert!(
        mine.iter().any(|e| e.kind == obs::FlightKind::CacheMiss),
        "cold request should record its cache miss"
    );
    let degraded = events
        .iter()
        .find(|e| e.kind == obs::FlightKind::Degraded && e.rid == "rid-degraded-77")
        .expect("degraded event recorded");
    assert_eq!(degraded.detail, "badcfg", "422 names the degrading config");

    // The on-demand dump serves the same ring.
    let resp = r.handle(&request("/v1/debug/flightrec"));
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).unwrap();
    assert!(body.contains("rid-lifecycle-77"));
    assert!(body.contains("\"request-end\""));
}

#[test]
fn metricsz_is_a_valid_exposition_with_slo_rows() {
    obs::set_metrics(true);
    let r = Router::new(Arc::new(EchoBackend), 16);
    for _ in 0..5 {
        assert_eq!(r.handle(&request("/v1/verdict/m/x?ranks=2")).status, 200);
    }
    assert_eq!(r.handle(&request("/v1/verdict/sick/y?ranks=2")).status, 422);
    assert_eq!(r.handle(&request("/nope")).status, 404);

    let resp = r.handle(&request("/metricsz"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "text/plain; version=0.0.4");
    let text = String::from_utf8(resp.body).unwrap();
    let samples = obs::parse_exposition(&text).expect("exposition must parse");

    let find = |name: &str, endpoint: &str, class: &str| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.label("endpoint") == Some(endpoint)
                    && s.label("class") == Some(class)
            })
            .map(|s| s.value)
    };
    assert_eq!(find("serve_requests_total", "verdict", "2xx"), Some(5.0));
    assert_eq!(find("serve_requests_total", "verdict", "4xx"), Some(1.0));
    assert_eq!(find("serve_requests_total", "other", "4xx"), Some(1.0));
    assert_eq!(find("serve_window_requests", "verdict", "2xx"), Some(5.0));
    // Latency quantiles exist for the endpoint that served traffic.
    assert!(samples.iter().any(|s| {
        s.name == "serve_window_latency_ns"
            && s.label("endpoint") == Some("verdict")
            && s.label("quantile") == Some("0.99")
            && s.value > 0.0
    }));
    assert!(samples
        .iter()
        .any(|s| s.name == "serve_flightrec_depth" && s.value > 0.0));
    assert!(samples.iter().any(|s| s.name == "serve_uptime_ms"));
    // The registry counters ride along as one labeled family — the only
    // metrics surface there is. Five identical queries: four were hits.
    assert!(samples.iter().any(|s| {
        s.name == "obs_counter" && s.label("name") == Some("serve.cache_hits") && s.value >= 4.0
    }));
}

/// Blocks every `analyze` call until the gate opens (same technique as
/// the single-flight suite) so followers demonstrably park.
struct GatedBackend {
    gate: Mutex<bool>,
    open: Condvar,
    calls: AtomicUsize,
}

impl Backend for GatedBackend {
    fn apps_json(&self) -> String {
        "{\"apps\": []}\n".to_string()
    }

    fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        Ok(q)
    }

    fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        let mut open = self.gate.lock().unwrap();
        while !*open {
            open = self.open.wait(open).unwrap();
        }
        drop(open);
        self.calls.fetch_add(1, Ordering::SeqCst);
        Ok(AnalysisViews {
            verdict: format!("verdict:{}\n", q.app),
            conflicts: "c\n".to_string(),
            patterns: "p\n".to_string(),
        })
    }
}

#[test]
fn coalesced_followers_name_their_leader() {
    obs::set_metrics(true);
    let backend = Arc::new(GatedBackend {
        gate: Mutex::new(false),
        open: Condvar::new(),
        calls: AtomicUsize::new(0),
    });
    let router = Arc::new(Router::new(Arc::clone(&backend) as Arc<dyn Backend>, 16));
    let waiters_before = obs::metrics().counter("serve.coalesced_waiters").get();

    const N: usize = 6;
    let mut threads = Vec::new();
    for i in 0..N {
        let router = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            let rid = format!("rid-sf-{i}");
            let resp = router.handle(&request_with_rid("/v1/verdict/coal/x?ranks=4", &rid));
            (rid, resp)
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs::metrics().counter("serve.coalesced_waiters").get() < waiters_before + (N as u64 - 1)
    {
        assert!(Instant::now() < deadline, "followers never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    *backend.gate.lock().unwrap() = true;
    backend.open.notify_all();

    let results: Vec<(String, Response)> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let leaders: Vec<&(String, Response)> = results
        .iter()
        .filter(|(_, r)| header(r, "X-Coalesced-Leader").is_none())
        .collect();
    assert_eq!(leaders.len(), 1, "exactly one request led the flight");
    let leader_rid = leaders[0].0.as_str();
    for (rid, resp) in &results {
        assert_eq!(resp.status, 200);
        assert_eq!(header(resp, "X-Request-Id"), Some(rid.as_str()));
        if rid != leader_rid {
            assert_eq!(
                header(resp, "X-Coalesced-Leader"),
                Some(leader_rid),
                "follower {rid} must name the leader"
            );
        }
    }
    assert_eq!(backend.calls.load(Ordering::SeqCst), 1);
    // The ring saw the same story: followers' singleflight-follow events
    // carry the leader's rid in their detail field.
    let follows: Vec<_> = obs::flight()
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == obs::FlightKind::SfFollow && e.rid.starts_with("rid-sf-"))
        .collect();
    assert_eq!(follows.len(), N - 1);
    for f in &follows {
        assert_eq!(f.detail, leader_rid);
    }
}

struct PanickyBackend;

impl Backend for PanickyBackend {
    fn apps_json(&self) -> String {
        "{\"apps\": []}\n".to_string()
    }

    fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        Ok(q)
    }

    fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        if q.app == "boom" {
            panic!("injected handler panic");
        }
        Ok(AnalysisViews {
            verdict: "v\n".to_string(),
            conflicts: "c\n".to_string(),
            patterns: "p\n".to_string(),
        })
    }
}

#[test]
fn handler_panic_dumps_postmortem_naming_the_request() {
    let dir = std::env::temp_dir().join(format!("flightrec-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let postmortem = dir.join("postmortem.jsonl");
    let _ = std::fs::remove_file(&postmortem);

    let cfg = ServeConfig {
        postmortem: Some(postmortem.clone()),
        ..ServeConfig::default()
    };
    let handle = serve(cfg, Arc::new(PanickyBackend)).unwrap();

    // Raw request so we control the X-Request-Id header; the handler
    // panics mid-dispatch, so the peer sees a reset, not a response.
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.write_all(b"GET /v1/verdict/boom/x HTTP/1.1\r\nX-Request-Id: rid-kaboom-9\r\n\r\n")
        .unwrap();
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink); // connection dies with the handler

    // The pool dumps the ring as soon as it catches the unwind.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        if let Ok(text) = std::fs::read_to_string(&postmortem) {
            if text.contains("handler-panic") {
                break text;
            }
        }
        assert!(Instant::now() < deadline, "postmortem never appeared");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        text.contains("rid-kaboom-9"),
        "postmortem must name the panicking request"
    );
    assert!(text.contains("\"handler-panic\""));

    // The worker survived: the server still answers.
    let resp = serve::get_once(handle.addr(), "/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("X-Request-Id").map(|r| &r[..4]),
        Some("req-"),
        "live server responses carry ids end to end"
    );

    handle.shutdown();
    // Drain appended its own dump line after the panic line.
    let text = std::fs::read_to_string(&postmortem).unwrap();
    assert!(text.contains("sigterm-drain"));
    let _ = std::fs::remove_dir_all(&dir);
}
