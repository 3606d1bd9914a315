//! Single-flight coalescing under real concurrency.
//!
//! N threads miss the same canonical key at once: exactly one backend
//! analysis runs, everyone gets byte-identical bodies, and the
//! `serve.coalesced_waiters` counter proves the followers actually
//! parked (the assertions are deterministic — the backend is gated, so
//! the test controls exactly when the leader finishes). A leader that
//! panics must *degrade*, not hang: followers wake, retry, and succeed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serve::{
    parse_request, AnalysisQuery, AnalysisViews, ApiError, Backend, ConnReader, HttpLimits,
    Request, Router,
};

fn request(line: &str) -> Request {
    let raw = format!("GET {line} HTTP/1.1\r\n\r\n");
    let mut reader = ConnReader::new(raw.as_bytes());
    parse_request(&mut reader, &HttpLimits::default()).unwrap()
}

/// Blocks every `analyze` call until the gate opens; counts calls.
struct GatedBackend {
    gate: Mutex<bool>,
    open: Condvar,
    calls: AtomicUsize,
    /// Panic on the n-th call (1-based); 0 = never.
    panic_on_call: usize,
}

impl GatedBackend {
    fn new(panic_on_call: usize) -> GatedBackend {
        GatedBackend {
            gate: Mutex::new(false),
            open: Condvar::new(),
            calls: AtomicUsize::new(0),
            panic_on_call,
        }
    }

    fn open_gate(&self) {
        *self.gate.lock().unwrap() = true;
        self.open.notify_all();
    }
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
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call == self.panic_on_call {
            panic!("injected leader panic");
        }
        Ok(AnalysisViews {
            verdict: format!("verdict:{}:{}\n", q.app, q.config),
            conflicts: "c\n".to_string(),
            patterns: "p\n".to_string(),
        })
    }
}

/// Both tests read `serve.coalesced_waiters` from the process-global
/// registry, so one must not run while the other adds to it.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    obs::metrics().counter(name).get()
}

/// Poll until `cond` or a deadline — the coalescing assertions need the
/// followers demonstrably parked before the gate opens.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn n_concurrent_misses_run_one_analysis() {
    let _serial = serial();
    obs::set_metrics(true);
    let backend = Arc::new(GatedBackend::new(0));
    let router = Arc::new(Router::new(Arc::clone(&backend) as Arc<dyn Backend>, 16));
    let waiters_before = counter("serve.coalesced_waiters");

    const N: usize = 8;
    let mut threads = Vec::new();
    for _ in 0..N {
        let router = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            let resp = router.handle(&request("/v1/verdict/app/cfg?ranks=4"));
            (resp.status, resp.body)
        }));
    }

    // All but the leader must park on the flight before anyone computes.
    wait_for("followers to park", || {
        counter("serve.coalesced_waiters") >= waiters_before + (N as u64 - 1)
    });
    assert_eq!(
        backend.calls.load(Ordering::SeqCst),
        0,
        "analysis ran before the gate opened"
    );
    backend.open_gate();

    let mut bodies = Vec::new();
    for t in threads {
        let (status, body) = t.join().unwrap();
        assert_eq!(status, 200);
        bodies.push(body);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "coalesced responses diverged"
    );
    assert_eq!(
        backend.calls.load(Ordering::SeqCst),
        1,
        "misses were not coalesced into one analysis"
    );
}

#[test]
fn leader_panic_wakes_followers_into_their_own_attempts() {
    let _serial = serial();
    obs::set_metrics(true);
    // First analyze call panics; retries succeed.
    let backend = Arc::new(GatedBackend::new(1));
    let router = Arc::new(Router::new(Arc::clone(&backend) as Arc<dyn Backend>, 16));
    let waiters_before = counter("serve.coalesced_waiters");
    let aborts_before = counter("serve.singleflight_aborts");

    const N: usize = 6;
    let mut threads = Vec::new();
    for _ in 0..N {
        let router = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            // The worker pool wraps handlers in catch_unwind; mirror that
            // here so the leader's panic is contained the same way.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let resp = router.handle(&request("/v1/verdict/app/retry?ranks=4"));
                (resp.status, resp.body)
            }))
            .ok()
        }));
    }

    wait_for("followers to park", || {
        counter("serve.coalesced_waiters") >= waiters_before + (N as u64 - 1)
    });
    backend.open_gate();

    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let panicked = results.iter().filter(|r| r.is_none()).count();
    let ok: Vec<_> = results.into_iter().flatten().collect();
    assert_eq!(panicked, 1, "exactly the leader should have unwound");
    assert_eq!(ok.len(), N - 1);
    for (status, body) in &ok {
        assert_eq!(*status, 200, "a follower failed after the leader died");
        assert_eq!(body, &ok[0].1, "retried responses diverged");
    }
    assert!(
        counter("serve.singleflight_aborts") > aborts_before,
        "the abort was never published"
    );
    // The panicked call plus at least one successful retry; coalescing
    // may collapse the retries back to a single flight.
    let calls = backend.calls.load(Ordering::SeqCst);
    assert!(
        (2..=N).contains(&calls),
        "expected 1 panic + >=1 retry, saw {calls} calls"
    );
}
