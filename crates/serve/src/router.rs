//! Endpoint routing over a pluggable analysis [`Backend`].
//!
//! The serve crate owns the protocol — URL shape, query defaults, cache
//! policy, error mapping, metrics — while the backend owns the analysis:
//! `report-gen` plugs its streaming runner in, and the adversarial
//! tests plug in a stub so the HTTP surface can be hammered without
//! simulating anything.
//!
//! ```text
//! GET /healthz                                  (exposition.rs)
//! GET /metricsz                                 (exposition.rs)
//! GET /v1/apps
//! GET /v1/verdict/{app}/{config}?ranks=&seed=&model=&faults=
//! GET /v1/conflicts/{app}/{config}?...
//! GET /v1/patterns/{app}/{config}?...
//! GET /v1/debug/flightrec
//! GET /v1/cluster/{verb}                        (rebalance.rs)
//! ```
//!
//! The three analysis endpoints share one cache entry per canonical query
//! — the backend computes all three views in a single cold run (one
//! simulation, analyzed as it streams), so a verdict request warms the
//! conflicts and patterns responses for free. This file holds the protocol types, the
//! request bracket ([`Router::handle`]), dispatch, and the analysis path
//! as one straight line: ring → LRU → miss path (`miss.rs`) → render.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::json::Json;
use obs::FlightKind;
use semantics_core::{CacheKey, CacheKeyBuilder};

use crate::cache::ShardedLru;
use crate::fleet::{ClusterRuntime, RouteDecision};
use crate::http::{Request, Response};
use crate::miss::{Flight, LoadOrigin};
use crate::{rebalance, reqid};

/// Defaults for the analysis query parameters. The service default world
/// is deliberately smaller than the paper's 64 ranks: a verdict is
/// scale-invariant (§6.1), and an interactive service should answer cold
/// queries in hundreds of milliseconds, not tens of seconds.
pub const DEFAULT_RANKS: u32 = 8;
pub const DEFAULT_SEED: u64 = 2021;

/// Ceiling on the `ranks` query parameter. The event-loop rank executor
/// makes worlds this large tractable in one request (a few seconds, not
/// minutes); anything beyond is rejected up front as a client error
/// before the backend allocates a thing.
pub const MAX_QUERY_RANKS: u32 = 4096;

/// Endpoint labels for SLO accounting, in index order. Fixed at compile
/// time so an observation is an array index, not a hash lookup.
pub static SLO_ENDPOINTS: [&str; 8] = [
    "healthz",
    "apps",
    "metricsz",
    "flightrec",
    "verdict",
    "conflicts",
    "patterns",
    "other",
];

/// SLO window shape: 16 epochs of 15 s — a four-minute sliding window.
const SLO_EPOCH_NS: u64 = 15_000_000_000;
const SLO_EPOCHS: usize = 16;

/// One canonicalized analysis query — the cache-key domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisQuery {
    /// Application path segment, as matched by the backend registry.
    pub app: String,
    /// Configuration path segment.
    pub config: String,
    pub ranks: u32,
    pub seed: u64,
    /// Semantics model under inspection: `session`, `commit`, or `both`.
    pub model: String,
    /// Canonical fault-plan description (`"none"` for the happy path).
    pub faults: String,
}

impl AnalysisQuery {
    /// Derive the stable cache key for this query.
    pub fn cache_key(&self) -> CacheKey {
        CacheKeyBuilder::new()
            .push("app", &self.app)
            .push("cfg", &self.config)
            .push_u64("ranks", u64::from(self.ranks))
            .push_u64("seed", self.seed)
            .push("model", &self.model)
            .push("faults", &self.faults)
            .finish()
    }
}

/// The response bodies one analysis run yields, all rendered eagerly so a
/// cache hit is a pure byte copy.
#[derive(Debug)]
pub struct AnalysisViews {
    pub verdict: String,
    pub conflicts: String,
    pub patterns: String,
}

/// Backend failure modes, mapped to HTTP statuses by the router.
#[derive(Debug)]
pub enum ApiError {
    /// Unknown app/config pair → 404.
    NotFound(String),
    /// Invalid query parameter (bad model name, unparseable fault plan) →
    /// 400.
    BadRequest(String),
    /// The isolated analysis degraded (simulation error or caught panic)
    /// → 422: the request was well-formed, the run itself failed. The
    /// outcome is deterministic, so it is cached too — but under the
    /// cache's smaller degraded quota, so failing-query bursts cannot
    /// evict healthy verdicts.
    Degraded { config: String, error: String },
}

/// What the router needs from an analysis provider.
pub trait Backend: Send + Sync + 'static {
    /// The `/v1/apps` body (rendered once; must be deterministic).
    fn apps_json(&self) -> String;

    /// Validate and canonicalize a raw query (resolve the config, parse
    /// and re-render the fault plan, check the model name).
    fn canonicalize(&self, query: AnalysisQuery) -> Result<AnalysisQuery, ApiError>;

    /// Run the analysis for a canonical query — the cold path.
    fn analyze(&self, query: &AnalysisQuery) -> Result<AnalysisViews, ApiError>;
}

/// Cached outcome: success and degraded runs are both deterministic
/// functions of the query, so both are cacheable.
pub(crate) type CachedResult = Arc<Result<AnalysisViews, ApiError>>;

/// Routes requests, consulting the verdict cache before the backend.
pub struct Router {
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) cache: ShardedLru<CachedResult>,
    pub(crate) store: Option<Arc<store::Store>>,
    pub(crate) cluster: Option<Arc<ClusterRuntime>>,
    pub(crate) flights: Mutex<HashMap<String, Arc<Flight>>>,
    apps_body: String,
    pub(crate) started: Instant,
    pub(crate) slo: obs::SloWindow,
}

impl Router {
    pub fn new(backend: Arc<dyn Backend>, cache_entries: usize) -> Router {
        Router::with_store(backend, cache_entries, None)
    }

    /// A router backed by the persistent store: cold results are
    /// journaled, and misses consult the store before the backend.
    pub fn with_store(
        backend: Arc<dyn Backend>,
        cache_entries: usize,
        store: Option<Arc<store::Store>>,
    ) -> Router {
        Router::with_cluster(backend, cache_entries, store, None)
    }

    /// The full constructor: store tier plus (optionally) the cluster
    /// routing runtime. When `cluster` is set, analysis keys are looked
    /// up on the consistent-hash ring before local tiers, and the
    /// `/v1/cluster/*` endpoints come alive.
    pub fn with_cluster(
        backend: Arc<dyn Backend>,
        cache_entries: usize,
        store: Option<Arc<store::Store>>,
        cluster: Option<Arc<ClusterRuntime>>,
    ) -> Router {
        let apps_body = backend.apps_json();
        if let Some(store) = &store {
            // The recovery verdict belongs in the flight ring: a crash
            // postmortem should show what the store salvaged at open.
            let rec = store.recovery();
            obs::flight::record(
                FlightKind::StoreRecovery,
                store.generation(),
                rec.recovered_records(),
                rec.quarantined_bytes,
                "",
                "store-open",
            );
        }
        Router {
            backend,
            cache: ShardedLru::new(cache_entries, 8),
            store,
            cluster,
            flights: Mutex::new(HashMap::new()),
            apps_body,
            started: Instant::now(),
            slo: obs::SloWindow::new(&SLO_ENDPOINTS, SLO_EPOCH_NS, SLO_EPOCHS),
        }
    }

    /// Index of a request path in [`SLO_ENDPOINTS`]. Works on the raw
    /// path (no segment `Vec`): this runs on every live request.
    fn endpoint_index(path: &str) -> usize {
        let label = match path.trim_end_matches('/') {
            "/healthz" => "healthz",
            "/metricsz" => "metricsz",
            "/v1/apps" => "apps",
            "/v1/debug/flightrec" => "flightrec",
            p if p.starts_with("/v1/verdict") => "verdict",
            p if p.starts_with("/v1/conflicts") => "conflicts",
            p if p.starts_with("/v1/patterns") => "patterns",
            _ => "other",
        };
        SLO_ENDPOINTS
            .iter()
            .position(|l| *l == label)
            .expect("label is drawn from SLO_ENDPOINTS")
    }

    /// Entries currently cached (for /healthz and tests).
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Handle one parsed request: give it an id (inbound `X-Request-Id`
    /// honored, echoed back in the response headers), bracket it with a
    /// pair of flight-recorder events, and record its latency and
    /// outcome in the SLO window and the metrics registry.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let rid = reqid::request_id(req);
        // `t0` is already in hand, so the ring events and the SLO
        // observation are stamped with a pure subtraction — zero
        // additional clock reads per request.
        let start_ns = obs::wall_ns_at(t0);
        obs::flight().record_at(start_ns, FlightKind::ReqStart, 0, 0, 0, &rid, &req.path);
        let mut span = obs::span("serve", "request").with_arg("path", req.path.clone());
        if obs::tracing_enabled() {
            span = span.with_arg("rid", rid.clone());
        }
        let mut resp = {
            // If dispatch unwinds, the trap drops while panicking and
            // stamps the rid into the ring — that is how a postmortem
            // names the request that killed the handler.
            let _trap = PanicTrap {
                rid: &rid,
                path: &req.path,
            };
            self.dispatch(req, &rid, start_ns)
        };
        span.set_arg("status", u64::from(resp.status));
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let end_ns = start_ns + lat_ns;
        self.slo
            .observe(Self::endpoint_index(&req.path), resp.status, lat_ns, end_ns);
        obs::flight().record_at(
            end_ns,
            FlightKind::ReqEnd,
            u64::from(resp.status),
            lat_ns,
            0,
            &rid,
            &req.path,
        );
        resp.extra_headers.push((reqid::REQUEST_ID_HEADER, rid));
        if obs::metrics_enabled() {
            let m = obs::metrics();
            m.add("serve.requests", 1);
            m.add(
                match resp.class() {
                    2 => "serve.responses_2xx",
                    4 => "serve.responses_4xx",
                    _ => "serve.responses_5xx",
                },
                1,
            );
            m.observe("serve.request_ns", lat_ns);
        }
        resp
    }

    fn dispatch(&self, req: &Request, rid: &str, now_ns: u64) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is supported");
        }
        let segments = req.segments();
        match segments.as_slice() {
            ["healthz"] => self.healthz(),
            ["metricsz"] => self.metricsz(),
            ["v1", "apps"] => Response::json(200, self.apps_body.clone()),
            ["v1", "debug", "flightrec"] => Response::json(200, obs::flight().dump_json()),
            ["v1", "cluster", verb] => {
                rebalance::handle(self.cluster.as_deref(), self.store.as_deref(), verb, req)
            }
            ["v1", endpoint @ ("verdict" | "conflicts" | "patterns"), app, config] => {
                self.analysis(endpoint, app, config, req, rid, now_ns)
            }
            ["v1", "verdict" | "conflicts" | "patterns"]
            | ["v1", "verdict" | "conflicts" | "patterns", _] => {
                Response::error(404, "expected /v1/{endpoint}/{app}/{config}")
            }
            _ => Response::error(404, "no such endpoint"),
        }
    }

    /// Parse, range-check and canonicalize the query of an analysis
    /// request; malformed values are client errors.
    fn query(&self, app: &str, config: &str, req: &Request) -> Result<AnalysisQuery, Response> {
        let ranks = parse_param(req, "ranks", DEFAULT_RANKS)?;
        let seed = parse_param(req, "seed", DEFAULT_SEED)?;
        if ranks == 0 || ranks > MAX_QUERY_RANKS {
            return Err(Response::error(400, "ranks must be in [1, 4096]"));
        }
        let raw = AnalysisQuery {
            app: app.to_string(),
            config: config.to_string(),
            ranks,
            seed,
            model: req.query_param("model").unwrap_or("both").to_string(),
            faults: req.query_param("faults").unwrap_or("none").to_string(),
        };
        self.backend
            .canonicalize(raw)
            .map_err(|e| error_response(&e))
    }

    fn analysis(
        &self,
        endpoint: &str,
        app: &str,
        config: &str,
        req: &Request,
        rid: &str,
        now_ns: u64,
    ) -> Response {
        let query = match self.query(app, config, req) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        let key = query.cache_key();
        // Clustered: the ring decides before any local tier is touched.
        // A key another node owns is proxied or redirected there; local
        // serving of foreign keys happens only as a deliberate
        // degradation (dead peer, epoch skew) and never persists into
        // this node's store slice.
        let mut persist = true;
        if let Some(cl) = &self.cluster {
            match cl.route(req, key.fingerprint().0, rid) {
                RouteDecision::Local { persist: p } => persist = p,
                RouteDecision::Respond(resp) => return resp,
            }
        }
        let cached = self.cache.get(&key);
        if obs::metrics_enabled() {
            obs::metrics().add(
                if cached.is_some() {
                    "serve.cache_hits"
                } else {
                    "serve.cache_misses"
                },
                1,
            );
        }
        let (result, origin) = match cached {
            Some(r) => (r, LoadOrigin::Cache),
            None => {
                // Misses go to the ring; hits do not. A warm server takes
                // thousands of hits a second, and an event per hit would
                // evict every forensically interesting entry (misses,
                // store traffic, single-flight transitions, degradations)
                // from the fixed-size ring within milliseconds. Hits stay
                // visible through the `serve.cache_hits` counter and the
                // request's ReqStart/ReqEnd bracket.
                obs::flight().record_at(
                    now_ns,
                    FlightKind::CacheMiss,
                    0,
                    0,
                    0,
                    rid,
                    key.canonical(),
                );
                self.load_or_compute(&key, &query, rid, persist)
            }
        };
        match result.as_ref() {
            Ok(views) => {
                let body = match endpoint {
                    "verdict" => &views.verdict,
                    "conflicts" => &views.conflicts,
                    _ => &views.patterns,
                };
                let mut resp = Response::json(200, body.clone());
                if let LoadOrigin::Coalesced { leader } = origin {
                    // The follower names its leader — the coalescing is
                    // visible in the response, not just the ring.
                    resp.extra_headers.push(("X-Coalesced-Leader", leader));
                }
                resp
            }
            Err(e) => {
                if let ApiError::Degraded { config, error } = e {
                    obs::flight::record(FlightKind::Degraded, 422, 0, 0, rid, config);
                    obs::debug!("serve: analysis degraded for {config:?} (rid {rid}): {error}");
                }
                error_response(e)
            }
        }
    }

    /// Drain-time flush: compact the store's journal into a snapshot so
    /// the next open recovers from one segment. Called by the server
    /// after the worker pool finishes.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            match store.compact_if_dirty() {
                Ok(()) => obs::info!("store: drain flush complete (gen {})", store.generation()),
                Err(e) => obs::warn!("store: drain flush failed: {e}"),
            }
        }
    }

    /// The persistent store handle, when one is attached.
    pub fn store(&self) -> Option<&Arc<store::Store>> {
        self.store.as_ref()
    }

    /// The cluster runtime, when the node runs clustered.
    pub fn cluster(&self) -> Option<&Arc<ClusterRuntime>> {
        self.cluster.as_ref()
    }
}

/// Dropped while unwinding ⇒ the dispatch under it panicked: stamp the
/// request id and path into the flight ring so the postmortem dump (the
/// worker pool triggers it after catching the unwind) names the request
/// that died. Normal drops are a `thread::panicking()` check, nothing
/// more.
struct PanicTrap<'a> {
    rid: &'a str,
    path: &'a str,
}

impl Drop for PanicTrap<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            obs::flight::record(FlightKind::HandlerPanic, 0, 0, 0, self.rid, self.path);
            obs::error!(
                "serve: handler panicked (rid {} path {})",
                self.rid,
                self.path
            );
        }
    }
}

fn error_response(e: &ApiError) -> Response {
    match e {
        ApiError::NotFound(msg) => Response::error(404, msg),
        ApiError::BadRequest(msg) => Response::error(400, msg),
        ApiError::Degraded { config, error } => {
            let doc = Json::obj()
                .field("error", "analysis degraded")
                .field("config", config.as_str())
                .field("detail", error.as_str())
                .field("status", 422u64);
            let mut r = Response::json(422, doc.pretty() + "\n");
            r.close = true;
            r
        }
    }
}

fn parse_param<T: std::str::FromStr>(req: &Request, name: &str, default: T) -> Result<T, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("invalid value for {name}: {raw:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, ConnReader, HttpLimits};

    /// A backend that echoes its query — no simulation, used to test
    /// routing, caching, and error mapping in isolation.
    struct EchoBackend;

    impl Backend for EchoBackend {
        fn apps_json(&self) -> String {
            "{\"apps\": []}\n".to_string()
        }

        fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
            if q.app == "nope" {
                return Err(ApiError::NotFound("no such app".into()));
            }
            if q.model != "both" && q.model != "session" && q.model != "commit" {
                return Err(ApiError::BadRequest("bad model".into()));
            }
            Ok(q)
        }

        fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
            if q.app == "sick" {
                return Err(ApiError::Degraded {
                    config: q.config.clone(),
                    error: "simulated deadlock".into(),
                });
            }
            Ok(AnalysisViews {
                verdict: format!("verdict:{}:{}:{}\n", q.app, q.config, q.ranks),
                conflicts: format!("conflicts:{}\n", q.app),
                patterns: format!("patterns:{}\n", q.app),
            })
        }
    }

    fn request(line: &str) -> Request {
        let raw = format!("GET {line} HTTP/1.1\r\n\r\n");
        let mut reader = ConnReader::new(raw.as_bytes());
        parse_request(&mut reader, &HttpLimits::default()).unwrap()
    }

    fn router() -> Router {
        Router::new(Arc::new(EchoBackend), 16)
    }

    #[test]
    fn routes_core_endpoints() {
        let r = router();
        assert_eq!(r.handle(&request("/healthz")).status, 200);
        assert_eq!(r.handle(&request("/v1/apps")).status, 200);
        assert_eq!(r.handle(&request("/v1/verdict/a/b")).status, 200);
        assert_eq!(r.handle(&request("/v1/conflicts/a/b")).status, 200);
        assert_eq!(r.handle(&request("/v1/patterns/a/b")).status, 200);
        assert_eq!(r.handle(&request("/nope")).status, 404);
        assert_eq!(r.handle(&request("/v1/verdict/only-app")).status, 404);
        // Retired in favour of /metricsz, which carries every counter.
        assert_eq!(r.handle(&request("/v1/metrics")).status, 404);
    }

    #[test]
    fn warm_bytes_equal_cold_bytes() {
        let r = router();
        let cold = r.handle(&request("/v1/verdict/a/b?ranks=4"));
        let warm = r.handle(&request("/v1/verdict/a/b?ranks=4"));
        assert_eq!(cold.body, warm.body);
        assert_eq!(r.cached_entries(), 1);
        // A different parameter is a different cache entry.
        r.handle(&request("/v1/verdict/a/b?ranks=2"));
        assert_eq!(r.cached_entries(), 2);
    }

    #[test]
    fn one_cold_run_warms_all_three_views() {
        let r = router();
        r.handle(&request("/v1/verdict/a/b"));
        assert_eq!(r.cached_entries(), 1);
        assert_eq!(r.handle(&request("/v1/conflicts/a/b")).status, 200);
        assert_eq!(r.handle(&request("/v1/patterns/a/b")).status, 200);
        assert_eq!(r.cached_entries(), 1, "same entry served all views");
    }

    #[test]
    fn error_mapping() {
        let r = router();
        assert_eq!(r.handle(&request("/v1/verdict/nope/x")).status, 404);
        assert_eq!(
            r.handle(&request("/v1/verdict/a/b?model=weird")).status,
            400
        );
        assert_eq!(r.handle(&request("/v1/verdict/a/b?ranks=zero")).status, 400);
        assert_eq!(r.handle(&request("/v1/verdict/a/b?ranks=0")).status, 400);
        assert_eq!(r.handle(&request("/v1/verdict/sick/x")).status, 422);
        // Degraded results are cached too.
        assert_eq!(r.cached_entries(), 1);
        assert_eq!(r.handle(&request("/v1/verdict/sick/x")).status, 422);
    }

    #[test]
    fn degraded_burst_leaves_healthy_verdicts_cached() {
        // A backend that counts cold healthy runs: the healthy verdict
        // must never be recomputed, however many failing queries burst
        // through the (tiny) cache.
        struct CountingBackend(std::sync::atomic::AtomicUsize);
        impl Backend for CountingBackend {
            fn apps_json(&self) -> String {
                EchoBackend.apps_json()
            }
            fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
                EchoBackend.canonicalize(q)
            }
            fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
                if q.app != "sick" {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                EchoBackend.analyze(q)
            }
        }
        let backend = Arc::new(CountingBackend(std::sync::atomic::AtomicUsize::new(0)));
        let r = Router::new(Arc::clone(&backend) as Arc<dyn Backend>, 2);
        assert_eq!(r.handle(&request("/v1/verdict/a/b")).status, 200);
        for n in 0..50 {
            let line = format!("/v1/verdict/sick/x?seed={n}");
            assert_eq!(r.handle(&request(&line)).status, 422);
        }
        assert_eq!(r.handle(&request("/v1/verdict/a/b")).status, 200);
        assert_eq!(
            backend.0.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "healthy verdict was evicted by the degraded burst"
        );
        assert!(r.cached_entries() <= 2);
    }

    #[test]
    fn non_get_is_405() {
        let raw = "POST /healthz HTTP/1.1\r\n\r\n";
        let mut reader = ConnReader::new(raw.as_bytes());
        let req = parse_request(&mut reader, &HttpLimits::default()).unwrap();
        assert_eq!(router().handle(&req).status, 405);
    }
}
