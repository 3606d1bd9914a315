//! Cluster routing runtime: the glue between the `cluster` crate's pure
//! route table and this crate's HTTP machinery.
//!
//! Every analysis request derives its cache key as usual; when the node
//! runs clustered, the key's fingerprint is looked up on the ring first.
//! A key the node owns is served locally. A key another node owns is
//! either **proxied** (forwarded over a pooled keep-alive connection,
//! with `X-Cluster-Hops` incremented so a misconfigured ring terminates
//! in a 508 instead of a socket storm, and with the entry node's
//! `X-Request-Id`, so the owner's flight records name the same request)
//! or answered **307** with the
//! authoritative peer in `Location` — selectable per node with
//! `--forwarding {proxy,redirect}`.
//!
//! Two deliberate degradations keep the fleet correct when the ring is
//! in flux:
//!
//! * **Epoch skew** — a *forwarded* request (hops ≥ 1) for a key this
//!   node does not own, where the sender's `X-Cluster-Epoch` differs
//!   from ours, means a rebalance is mid-commit. The node serves the
//!   request locally: a verdict is a pure function of the query, so the
//!   bytes are identical to the owner's — never wrong, merely computed
//!   in the wrong place once.
//! * **Dead peer** — a proxy target that fails to answer is marked dead
//!   (flight-recorder event, per-peer counter) and the request falls
//!   back to local recompute instead of surfacing an error.

use std::io;
use std::sync::Mutex;
use std::time::Duration;

use cluster::{ClusterState, Peer, MAX_HOPS};
use obs::json::Json;
use obs::FlightKind;

use crate::client::{resolve, ClientResponse, HttpClient};
use crate::http::{percent_encode, Request, Response};
use crate::reqid::REQUEST_ID_HEADER;

/// What to do with a request whose key another node owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forwarding {
    /// Forward server-side over a pooled keep-alive connection.
    Proxy,
    /// Answer 307 and let the client go to the owner itself.
    Redirect,
}

impl Forwarding {
    pub fn parse(s: &str) -> Result<Forwarding, String> {
        match s {
            "proxy" => Ok(Forwarding::Proxy),
            "redirect" => Ok(Forwarding::Redirect),
            other => Err(format!(
                "--forwarding must be 'proxy' or 'redirect', got {other:?}"
            )),
        }
    }
}

/// Cluster parameters carried by `ServeConfig`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's id in the seed table.
    pub node_id: u32,
    /// The full seed table (must contain `node_id`).
    pub peers: Vec<Peer>,
    pub forwarding: Forwarding,
}

/// Forwarded-request hop count; incremented per proxy hop.
pub const HOPS_HEADER: &str = "X-Cluster-Hops";
/// The forwarding node's ring epoch, for skew detection at the receiver.
pub const EPOCH_HEADER: &str = "X-Cluster-Epoch";
/// On a 307: the authoritative peer, as `id@host:port`.
pub const OWNER_HEADER: &str = "X-Cluster-Owner";

/// Node→node deadlines — constants, not options. A peer that does not
/// complete a loopback-or-LAN handshake in `CONNECT_TIMEOUT` is down; a
/// control-plane answer is a few hundred bytes rendered from memory; a
/// forwarded 4096-rank cold analysis on the owner is legitimately
/// seconds.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(2);
const TRANSFER_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The deadline class of one node→node call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Call {
    /// Status sync, commit, liveness probe: a fresh dial (the connect
    /// is part of what is being asked) under the short read deadline.
    Control,
    /// Forwarded analyses and segment transfers: pooled keep-alive
    /// connections under the long read deadline.
    Transfer,
}

/// The one node→node HTTP client: every request this node sends to a
/// seed peer goes through [`PeerClient::get`]. Keep-alive connections
/// are checked out per `Transfer` call and returned on success; a failed
/// request drops its connection.
struct PeerClient {
    id: u32,
    addr: String,
    idle: Mutex<Vec<HttpClient>>,
    /// `cluster.forward_to.{id}` / `cluster.redirect_to.{id}`, formatted
    /// once so the forward path does not format a name per request.
    forward_to: String,
    redirect_to: String,
}

impl PeerClient {
    fn get(
        &self,
        call: Call,
        path: &str,
        headers: &[(&str, String)],
    ) -> io::Result<ClientResponse> {
        let (read_timeout, pooled) = match call {
            Call::Control => (CONTROL_READ_TIMEOUT, None),
            Call::Transfer => (TRANSFER_READ_TIMEOUT, self.checkout()),
        };
        let dial = || HttpClient::connect_with(resolve(&self.addr)?, CONNECT_TIMEOUT, read_timeout);
        let (mut conn, reused) = match pooled {
            Some(conn) => (conn, true),
            None => (dial()?, false),
        };
        let mut resp = conn.get_with_headers(path, headers);
        // The owner may drop an idle connection between the checkout and
        // the request (a `408` for its header deadline, then a close).
        // That is the connection failing, not the peer: one fresh dial
        // retries the request.
        if reused && !matches!(&resp, Ok(r) if r.status != 408) {
            conn = dial()?;
            resp = conn.get_with_headers(path, headers);
        }
        let resp = resp?;
        if call == Call::Transfer {
            let mut idle = self.idle.lock().unwrap();
            if idle.len() < 8 {
                idle.push(conn);
            }
        }
        Ok(resp)
    }

    /// A pooled connection the owner has not closed or answered
    /// unasked since it was returned; stale ones are dropped.
    fn checkout(&self) -> Option<HttpClient> {
        let mut idle = self.idle.lock().unwrap();
        std::iter::from_fn(|| idle.pop()).find(HttpClient::is_reusable)
    }
}

/// The routing decision for one analysis request.
pub enum RouteDecision {
    /// Serve locally; `persist` says whether the store may journal the
    /// result (only keys this node owns belong in its store slice).
    Local { persist: bool },
    /// The decision produced a complete response (proxied bytes, a 307,
    /// or a 508) — return it as-is.
    Respond(Response),
}

/// Per-node cluster runtime: route table + liveness + peer clients.
pub struct ClusterRuntime {
    state: ClusterState,
    forwarding: Forwarding,
    /// One client per seed peer except self, in seed-table order.
    peers: Vec<PeerClient>,
}

impl ClusterRuntime {
    pub fn new(cfg: ClusterConfig) -> Result<ClusterRuntime, String> {
        let state = ClusterState::new(cfg.node_id, cfg.peers)?;
        let peers = state
            .peers()
            .iter()
            .filter(|p| p.id != cfg.node_id)
            .map(|p| {
                let peer = PeerClient {
                    id: p.id,
                    addr: p.addr.clone(),
                    idle: Mutex::new(Vec::new()),
                    forward_to: format!("cluster.forward_to.{}", p.id),
                    redirect_to: format!("cluster.redirect_to.{}", p.id),
                };
                // Listed at 0 in `/metricsz` before the first forward.
                obs::metrics().add(&peer.forward_to, 0);
                obs::metrics().add(&peer.redirect_to, 0);
                peer
            })
            .collect();
        Ok(ClusterRuntime {
            state,
            forwarding: cfg.forwarding,
            peers,
        })
    }

    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    pub fn forwarding(&self) -> Forwarding {
        self.forwarding
    }

    /// Mark a peer's liveness, recording the transition in the flight
    /// ring and the `cluster.peer_transitions` counter when it changes.
    pub fn mark_alive(&self, id: u32, alive: bool) {
        if self.state.set_alive(id, alive) {
            obs::flight::record(
                FlightKind::ClusterPeerDown,
                u64::from(id),
                u64::from(alive),
                0,
                "",
                self.state.peer_addr(id).unwrap_or(""),
            );
            if obs::metrics_enabled() {
                obs::metrics().add(
                    if alive {
                        "cluster.peer_up_transitions"
                    } else {
                        "cluster.peer_down_transitions"
                    },
                    1,
                );
            }
            if alive {
                obs::info!("cluster: peer {id} is back");
            } else {
                obs::warn!("cluster: peer {id} marked dead");
            }
        }
    }

    /// Decide where one analysis request runs. `point` is the high word
    /// of the query's cache-key fingerprint; `rid` labels flight events.
    pub fn route(&self, req: &Request, point: u64, rid: &str) -> RouteDecision {
        let (owner, epoch) = self.state.owner_of(point);
        let Some(owner) = owner else {
            // Empty ring (every member decommissioned): serve locally,
            // nothing owns the slice so nothing is persisted.
            return RouteDecision::Local { persist: false };
        };
        if owner == self.state.node_id() {
            return RouteDecision::Local { persist: true };
        }

        let hops: u32 = req
            .header(HOPS_HEADER)
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if hops >= MAX_HOPS {
            if obs::metrics_enabled() {
                obs::metrics().add("cluster.loops_rejected", 1);
            }
            return RouteDecision::Respond(Response::error(
                508,
                &format!(
                    "cluster routing loop detected after {hops} hops; \
                     nodes disagree on ring ownership — check that every \
                     node was started with the same --peers table and a \
                     distinct --cluster-id"
                ),
            ));
        }
        if hops > 0 {
            // Already forwarded once. If the sender disagrees with us on
            // the epoch the ring is mid-rebalance; recompute locally
            // (deterministic ⇒ byte-identical) instead of ping-ponging
            // toward the hop limit.
            let sender_epoch: Option<u64> =
                req.header(EPOCH_HEADER).and_then(|v| v.trim().parse().ok());
            if sender_epoch != Some(epoch) {
                if obs::metrics_enabled() {
                    obs::metrics().add("cluster.epoch_skew_local", 1);
                }
                return RouteDecision::Local { persist: false };
            }
        }

        let peer = self.peer(owner).expect(
            "ring members are seed peers (ClusterState::commit checks) and owner is not self",
        );
        let path_query = render_path_query(req);
        match self.forwarding {
            Forwarding::Redirect => {
                let addr = peer.addr.as_str();
                obs::flight::record(
                    FlightKind::ClusterRedirect,
                    u64::from(owner),
                    u64::from(hops),
                    0,
                    rid,
                    &req.path,
                );
                if obs::metrics_enabled() {
                    obs::metrics().add("cluster.redirects", 1);
                    obs::metrics().add(&peer.redirect_to, 1);
                }
                let body = Json::obj()
                    .field("redirect", "owner")
                    .field("owner", owner)
                    .field("addr", addr)
                    .field("epoch", epoch);
                let mut resp = Response::json(307, body.pretty() + "\n");
                resp.extra_headers
                    .push(("Location", format!("http://{addr}{path_query}")));
                resp.extra_headers
                    .push((OWNER_HEADER, format!("{owner}@{addr}")));
                RouteDecision::Respond(resp)
            }
            Forwarding::Proxy => {
                if !self.state.is_alive(owner) {
                    if obs::metrics_enabled() {
                        obs::metrics().add("cluster.dead_peer_local", 1);
                    }
                    return RouteDecision::Local { persist: false };
                }
                // Forward with hop and epoch stamped, so the receiver can
                // cut loops and detect skew, and with this request's id, so
                // both nodes' flight records of it carry the same one.
                let stamped = [
                    (HOPS_HEADER, (hops + 1).to_string()),
                    (EPOCH_HEADER, epoch.to_string()),
                    (REQUEST_ID_HEADER, rid.to_string()),
                ];
                match peer.get(Call::Transfer, &path_query, &stamped) {
                    Ok(resp) => {
                        obs::flight::record(
                            FlightKind::ClusterForward,
                            u64::from(owner),
                            u64::from(hops),
                            0,
                            rid,
                            &req.path,
                        );
                        if obs::metrics_enabled() {
                            obs::metrics().add("cluster.forwarded", 1);
                            obs::metrics().add(&peer.forward_to, 1);
                        }
                        RouteDecision::Respond(client_to_response(owner, resp))
                    }
                    Err(e) => {
                        obs::warn!(
                            "cluster: proxy to peer {owner} failed ({e}); recomputing locally"
                        );
                        self.mark_alive(owner, false);
                        if obs::metrics_enabled() {
                            obs::metrics().add("cluster.proxy_errors", 1);
                        }
                        RouteDecision::Local { persist: false }
                    }
                }
            }
        }
    }

    fn peer(&self, id: u32) -> Option<&PeerClient> {
        self.peers.iter().find(|p| p.id == id)
    }

    /// One GET to seed peer `id` under `call`'s deadlines — the only way
    /// this node talks to another.
    pub(crate) fn get(&self, id: u32, call: Call, path: &str) -> io::Result<ClientResponse> {
        self.peer(id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "not a seed peer"))?
            .get(call, path, &[])
    }

    /// A probe pass over every peer (the server's prober thread runs
    /// one per cycle): alive iff `/healthz` answers 200 in time.
    pub fn probe_all(&self) {
        for peer in &self.peers {
            let alive =
                matches!(peer.get(Call::Control, "/healthz", &[]), Ok(r) if r.status == 200);
            self.mark_alive(peer.id, alive);
        }
    }
}

/// Re-render the request's path + query string for forwarding. Both were
/// percent-decoded at parse time, so reserved bytes are re-escaped.
fn render_path_query(req: &Request) -> String {
    let mut out = String::new();
    for seg in req.path.split('/').filter(|s| !s.is_empty()) {
        out.push('/');
        out.push_str(&percent_encode(seg));
    }
    if out.is_empty() {
        out.push('/');
    }
    for (i, (k, v)) in req.query.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        out.push_str(&percent_encode(k));
        out.push('=');
        out.push_str(&percent_encode(v));
    }
    out
}

/// Convert a proxied peer response into our response type. The peer's
/// body bytes pass through untouched — that is the byte-identity
/// contract — and the owner is named in a header for observability.
fn client_to_response(owner: u32, resp: ClientResponse) -> Response {
    let content_type = match resp.header("content-type") {
        Some("application/octet-stream") => "application/octet-stream",
        Some(ct) if ct.starts_with("text/plain") => "text/plain; version=0.0.4",
        _ => "application/json",
    };
    Response {
        status: resp.status,
        content_type,
        body: resp.body,
        extra_headers: vec![("X-Cluster-Served-By", owner.to_string())],
        close: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, ConnReader, HttpLimits};

    fn request(line: &str, headers: &str) -> Request {
        let raw = format!("GET {line} HTTP/1.1\r\n{headers}\r\n");
        let mut reader = ConnReader::new(raw.as_bytes());
        parse_request(&mut reader, &HttpLimits::default()).unwrap()
    }

    fn runtime(node_id: u32, forwarding: Forwarding) -> ClusterRuntime {
        let peers = cluster::parse_peers("1=127.0.0.1:19001,2=127.0.0.1:19002").unwrap();
        ClusterRuntime::new(ClusterConfig {
            node_id,
            peers,
            forwarding,
        })
        .unwrap()
    }

    /// Node 1 of a two-node table whose peer 2 lives at `addr`; returns
    /// whether one probe pass finds peer 2 alive.
    fn probe_finds_alive(addr: &str) -> bool {
        let peer = |id, addr: &str| Peer {
            id,
            addr: addr.to_string(),
        };
        let rt = ClusterRuntime::new(ClusterConfig {
            node_id: 1,
            peers: vec![peer(1, "127.0.0.1:19001"), peer(2, addr)],
            forwarding: Forwarding::Proxy,
        })
        .unwrap();
        rt.probe_all();
        rt.state().is_alive(2)
    }

    #[test]
    fn unreachable_peer_is_dead() {
        // Bind-then-drop: the port is (almost certainly) closed now.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        assert!(!probe_finds_alive(&format!("127.0.0.1:{port}")));
        assert!(!probe_finds_alive("not-an-addr"));
    }

    #[test]
    fn healthy_listener_is_alive_and_non_200_is_dead() {
        use std::io::{Read, Write};
        for (status, want) in [("200 OK", true), ("503 Service Unavailable", false)] {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = format!("127.0.0.1:{}", l.local_addr().unwrap().port());
            let handle = std::thread::spawn(move || {
                let (mut s, _) = l.accept().unwrap();
                let mut buf = [0u8; 512];
                let _ = s.read(&mut buf);
                let body = "{}";
                let resp = format!(
                    "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let _ = s.write_all(resp.as_bytes());
            });
            assert_eq!(probe_finds_alive(&addr), want, "status {status}");
            handle.join().unwrap();
        }
    }

    /// A fingerprint point owned by the given node under the 2-node ring.
    fn point_owned_by(rt: &ClusterRuntime, id: u32) -> u64 {
        for p in 0..100_000u64 {
            let point = p.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if rt.state().owner_of(point).0 == Some(id) {
                return point;
            }
        }
        panic!("no point owned by {id}");
    }

    #[test]
    fn own_keys_are_local_with_persist() {
        let rt = runtime(1, Forwarding::Proxy);
        let req = request("/v1/verdict/a/b", "");
        let point = point_owned_by(&rt, 1);
        assert!(matches!(
            rt.route(&req, point, ""),
            RouteDecision::Local { persist: true }
        ));
    }

    #[test]
    fn foreign_keys_redirect_with_location() {
        let rt = runtime(1, Forwarding::Redirect);
        let req = request("/v1/verdict/a/b?ranks=4", "");
        let point = point_owned_by(&rt, 2);
        match rt.route(&req, point, "") {
            RouteDecision::Respond(resp) => {
                assert_eq!(resp.status, 307);
                let loc = resp
                    .extra_headers
                    .iter()
                    .find(|(k, _)| *k == "Location")
                    .map(|(_, v)| v.as_str())
                    .unwrap();
                assert_eq!(loc, "http://127.0.0.1:19002/v1/verdict/a/b?ranks=4");
                let owner = resp
                    .extra_headers
                    .iter()
                    .find(|(k, _)| *k == OWNER_HEADER)
                    .map(|(_, v)| v.as_str())
                    .unwrap();
                assert_eq!(owner, "2@127.0.0.1:19002");
                assert_eq!(
                    String::from_utf8(resp.body).unwrap(),
                    "{\n  \"redirect\": \"owner\",\n  \"owner\": 2,\n  \
                     \"addr\": \"127.0.0.1:19002\",\n  \"epoch\": 1\n}\n"
                );
            }
            _ => panic!("expected a 307"),
        }
    }

    #[test]
    fn hop_limit_is_a_508_not_a_forward() {
        let rt = runtime(1, Forwarding::Proxy);
        let req = request("/v1/verdict/a/b", &format!("{HOPS_HEADER}: {MAX_HOPS}\r\n"));
        let point = point_owned_by(&rt, 2);
        match rt.route(&req, point, "") {
            RouteDecision::Respond(resp) => {
                assert_eq!(resp.status, 508);
                assert!(resp.body_starts_with_loop_error());
            }
            _ => panic!("expected a 508"),
        }
    }

    #[test]
    fn epoch_skew_on_forwarded_request_degrades_to_local() {
        let rt = runtime(1, Forwarding::Proxy);
        // Forwarded once (hops 1) by a sender at a different epoch.
        let req = request(
            "/v1/verdict/a/b",
            &format!("{HOPS_HEADER}: 1\r\n{EPOCH_HEADER}: 99\r\n"),
        );
        let point = point_owned_by(&rt, 2);
        assert!(matches!(
            rt.route(&req, point, ""),
            RouteDecision::Local { persist: false }
        ));
    }

    #[test]
    fn dead_peer_degrades_to_local() {
        let rt = runtime(1, Forwarding::Proxy);
        rt.mark_alive(2, false);
        let req = request("/v1/verdict/a/b", "");
        let point = point_owned_by(&rt, 2);
        assert!(matches!(
            rt.route(&req, point, ""),
            RouteDecision::Local { persist: false }
        ));
    }

    #[test]
    fn path_query_roundtrips_through_encoding() {
        let req = request(
            "/v1/verdict/MILC-QCD/Serial?faults=crash%40r1%3Aop5&ranks=8",
            "",
        );
        let rendered = render_path_query(&req);
        assert_eq!(
            rendered,
            "/v1/verdict/MILC-QCD/Serial?faults=crash%40r1%3Aop5&ranks=8"
        );
    }

    impl Response {
        fn body_starts_with_loop_error(&self) -> bool {
            String::from_utf8_lossy(&self.body).contains("routing loop")
        }
    }
}
