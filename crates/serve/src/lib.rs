//! # serve — the zero-dependency analysis service
//!
//! The paper's pipeline answers one question per invocation: *does this
//! application, on this I/O configuration, need stronger-than-session
//! file-system semantics?* The answer is a deterministic function of a
//! small key — `(app, io-config, ranks, seed, semantics model, fault
//! plan)` — which makes it cacheable, and cacheable makes it servable:
//! this crate turns the streaming analysis pipeline into a long-lived
//! HTTP service so a verdict costs a simulation once and a memcpy
//! thereafter.
//!
//! Like every other crate in the workspace, it is built from scratch on
//! `std` alone (the build must succeed with no registry access):
//!
//! * [`http`] — hand-rolled, bounds-checked HTTP/1.1 head reader (for
//!   requests and responses alike) and a deterministic response writer
//!   (no `Date` header; response *bodies* carry no timestamps or request
//!   ids — the property behind the warm-equals-cold byte-identity
//!   guarantee; correlation ids live in headers only).
//! * [`cache`] — sharded LRU keyed by [`semantics_core::CacheKey`]
//!   fingerprints with full-key verification on hit.
//! * [`router`] — the protocol types, the request bracket (request id,
//!   flight events, SLO observation), endpoint dispatch and error mapping
//!   over a pluggable [`router::Backend`]; `report-gen` supplies the real
//!   backend so the dependency arrow stays serve ← report, never
//!   circular. The analysis path is one straight line: ring → LRU → miss
//!   path → render.
//! * `miss` — the miss path: single-flight coalescing (one cold analysis
//!   per canonical key, with panic-safe abort publication) over the
//!   optional crash-safe persistent `store` tier, so a restarted process
//!   answers warm with bytes identical to what the dead one served; owns
//!   the `AVW1` views codec ([`encode_views`]/[`decode_views`]).
//! * `exposition` — `/healthz` and the one metrics surface, `/metricsz`.
//! * [`server`] — accept loop, fixed workers over a bounded connection
//!   channel (a full one is answered 503 + `Retry-After` at the door:
//!   explicit backpressure), connection lifecycle, and the one stop flag
//!   a drain reads, set only by the handle (`report serve` calls it on
//!   SIGTERM/ctrl-c, which [`signal`] waits for); a drain answers every
//!   connection made before the stop.
//! * [`client`] — the minimal blocking client `report`, the peer client
//!   and the tests use; it reads responses with [`http`]'s reader.
//! * [`fleet`] — the cluster tier's routing: consistent-hash lookup of
//!   analysis keys across a sharded serving fleet
//!   (`--cluster-id`/`--peers`), proxy or 307-redirect forwarding with a
//!   hop limit, liveness-aware degradation to local recompute — and the
//!   one pooled peer client every node→node request goes through, with
//!   its connect and read deadlines.
//! * `rebalance` — the `/v1/cluster/*` wire protocol and the one
//!   join/decommission routine that executes what `cluster::plan_change`
//!   decides (the route table and the decisions live in the
//!   zero-dependency, I/O-free `cluster` crate).
//! * [`reqid`] — deterministic-format request ids (inbound
//!   `X-Request-Id` honored, echoed in responses, threaded through
//!   router → single-flight → store as the span/flight-recorder
//!   context).
//!
//! Endpoints: `GET /healthz`, `/metricsz` (Prometheus-style exposition:
//! SLO window, flight-recorder vitals, every registry counter),
//! `/v1/apps`, `/v1/debug/flightrec` (the flight-recorder ring as JSON),
//! `/v1/{verdict|conflicts|patterns}/{app}/{config}` with `ranks`,
//! `seed`, `model`, `faults` query parameters, and — on a clustered node
//! — `/v1/cluster/{status,segment,pull,commit,join,decommission}`.

pub mod cache;
pub mod client;
mod exposition;
pub mod fleet;
pub mod http;
mod miss;
mod rebalance;
pub mod reqid;
pub mod router;
pub mod server;
pub mod signal;

pub use cache::ShardedLru;
pub use client::{get_once, get_redirecting, ClientResponse, HttpClient};
pub use fleet::{ClusterConfig, ClusterRuntime, Forwarding};
pub use http::{parse_request, ConnReader, HttpLimits, ParseError, Request, Response};
pub use miss::{decode_views, encode_views};
pub use reqid::{next_request_id, request_id, REQUEST_ID_HEADER};
pub use router::{AnalysisQuery, AnalysisViews, ApiError, Backend, Router, SLO_ENDPOINTS};
pub use server::{serve, ServeConfig, ServerHandle};
