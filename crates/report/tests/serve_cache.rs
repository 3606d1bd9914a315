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

use hpcapps::AppId;
use iolibs::{FaultKind, FaultPlan, IoFault};
use obs::json::Json;
use report_gen::runner::{analyze, ReportCfg};
use report_gen::ReportBackend;
use serve::http::percent_encode;
use serve::{
    get_once, parse_request, AnalysisQuery, Backend, ConnReader, HttpClient, HttpLimits, Request,
    ServeConfig, ServerHandle,
};

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

/// `target` parsed the way the server parses it: the request it routes.
fn request(target: &str) -> Request {
    let head = format!("GET {target} HTTP/1.1\r\n\r\n");
    parse_request(
        &mut ConnReader::new(head.as_bytes()),
        &HttpLimits::default(),
    )
    .unwrap_or_else(|e| panic!("{target}: {e:?}"))
}

/// A top-level string field of a JSON body.
fn str_field(body: &str, name: &str) -> Option<String> {
    Some(Json::parse(body).ok()?.get(name)?.as_str()?.to_string())
}

#[test]
fn configs_sharing_an_app_and_iolib_answer_for_themselves() {
    // FLASH's four HDF5 configurations and MILC-QCD's two POSIX ones share
    // an `(app, iolib)` pair; each URL must answer for its own config.
    let handle = spawn(2);
    for (path, config) in [
        (
            "/v1/verdict/FLASH/fbs%2Bnoflush?ranks=8",
            "FLASH-fbs+noflush",
        ),
        ("/v1/patterns/FLASH/nofbs", "FLASH-nofbs"),
        ("/v1/verdict/MILC-QCD/Parallel", "MILC-QCD Parallel"),
    ] {
        let r = get_once(handle.addr(), path).expect(path);
        assert_eq!(r.status, 200, "{path}: {}", r.body_text());
        assert_eq!(
            str_field(&r.body_text(), "config").as_deref(),
            Some(config),
            "{path}"
        );
    }
    handle.shutdown();
}

#[test]
fn fbs_noflush_verdict_is_the_runner_verdict_of_that_config() {
    let handle = spawn(1);
    let path = "/v1/verdict/FLASH/fbs%2Bnoflush?ranks=8";
    let r = get_once(handle.addr(), path).expect(path);
    assert_eq!(r.status, 200, "{path}: {}", r.body_text());
    let cfg = ReportCfg {
        nranks: 8,
        ..ReportCfg::default()
    };
    let run = analyze(&cfg, hpcapps::spec_ref(AppId::FlashFbsNoFlush));
    assert_eq!(
        str_field(&r.body_text(), "required_model").as_deref(),
        Some(run.verdict.required.name())
    );
    handle.shutdown();
}

#[test]
fn every_apps_verdict_url_resolves_to_the_config_beside_it() {
    // Canonicalization only: no analysis runs.
    let backend = ReportBackend::new();
    let doc = Json::parse(&backend.apps_json()).expect("/v1/apps is JSON");
    let apps = doc.get("apps").and_then(Json::as_array).expect("apps");
    assert_eq!(apps.len(), hpcapps::specs().len());
    for entry in apps {
        let config = entry.get("config").and_then(Json::as_str).expect("config");
        let url = entry
            .get("verdict_url")
            .and_then(Json::as_str)
            .expect("url");
        let req = request(url);
        let ["v1", "verdict", app, segment] = req.segments()[..] else {
            panic!("{url}: not a verdict URL");
        };
        let query = backend
            .canonicalize(AnalysisQuery {
                app: app.to_string(),
                config: segment.to_string(),
                ranks: 8,
                seed: 2021,
                model: "both".to_string(),
                faults: "none".to_string(),
            })
            .unwrap_or_else(|e| panic!("{url}: {e:?}"));
        let spec = hpcapps::find_config(&query.app, &query.config).expect(url);
        assert_eq!(spec.config_name(), config, "{url}");
    }
}

#[test]
fn config_segments_and_fault_plans_survive_the_url_codec() {
    // Every fault-plan spelling of `mpisim::fault`'s parse tests, parsable
    // or not: a query value decodes to exactly what was encoded.
    let mut faults: Vec<String> = [
        FaultPlan::none(),
        FaultPlan::none().with_crash(1, 10),
        FaultPlan::none()
            .with_crash(3, 7)
            .with(2, 5, FaultKind::Io(IoFault::Eio))
            .with(0, 9, FaultKind::Io(IoFault::LostFlush)),
        FaultPlan::seeded(11, 8, FaultKind::Io(IoFault::Enospc), 4, 64),
        FaultPlan::none().with(
            1,
            4,
            FaultKind::MsgDelay {
                delay_ns: 5_000_000,
            },
        ),
    ]
    .iter()
    .map(FaultPlan::describe)
    .collect();
    faults.extend(
        [
            "",
            " none ",
            "msg-delay@r2:op8:250000ns",
            "crash",
            "crash@x1:op2",
            "crash@r1",
            "crash@r1:2",
            "crash@r1:op2:junk",
            "explode@r1:op2",
            "msg-delay@r1:op2:fast",
            "crash@r-1:op2",
            "crash@r1:op2,,",
        ]
        .map(String::from),
    );
    for spec in hpcapps::specs() {
        let segment = spec.config_segment();
        let want = ["v1", "verdict", spec.app, segment.as_str()];
        // A `+` in a path is a literal, escaped or not.
        let raw = request(&format!("/v1/verdict/{}/{segment}", spec.app));
        assert_eq!(raw.segments(), want, "{}", spec.config_name());
        for plan in &faults {
            let target = format!(
                "/v1/verdict/{}/{}?faults={}",
                percent_encode(spec.app),
                percent_encode(&segment),
                percent_encode(plan)
            );
            let req = request(&target);
            assert_eq!(req.segments(), want, "{target}");
            assert_eq!(req.query_param("faults"), Some(plan.as_str()), "{target}");
        }
    }
}
