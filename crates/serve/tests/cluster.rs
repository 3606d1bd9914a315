//! The cluster tier end to end, adversarially: real sockets, real
//! multi-node fleets in one process.
//!
//! * byte identity — every query answers identical bytes no matter which
//!   entry node takes the request, in both forwarding modes;
//! * a proxied request keeps its `X-Request-Id` on the owner, so both
//!   nodes' flight records of it can be joined;
//! * a deliberately looped ring (two nodes each claiming the other is
//!   the owner) is rejected with `508 Loop Detected`, never a hang;
//! * a dead peer degrades to local recompute with a flight-recorder
//!   `cluster-peer-down` event, not an error;
//! * a pooled connection the owner closed while it sat idle is not
//!   reused: the forward still reaches the owner;
//! * a wrong-node request mid-rebalance (epoch skew) is served locally
//!   with correct bytes instead of ping-ponging;
//! * decommission + rejoin under live traffic moves snapshot segments
//!   with zero wrong-byte responses;
//! * a decommission whose orchestrator dies after every pull verified
//!   but before any commit leaves the old view serving, and the retry
//!   succeeds;
//! * a mute seed peer (accepts, never answers) costs a bounded wait, and
//!   a proxy to it degrades to local recompute.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obs::json::Json;
use serve::{
    get_once, get_redirecting, parse_request, serve, AnalysisQuery, AnalysisViews, ApiError,
    Backend, ClusterConfig, ClusterRuntime, ConnReader, Forwarding, HttpClient, HttpLimits, Router,
    ServeConfig, ServerHandle,
};
use store::{Store, StoreOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A top-level integer field of a JSON reply.
fn u64_field(body: &str, name: &str) -> Option<u64> {
    Json::parse(body).ok()?.get(name)?.as_u64()
}

/// A top-level array-of-integers field of a JSON reply.
fn u32_array_field(body: &str, name: &str) -> Option<Vec<u32>> {
    let doc = Json::parse(body).ok()?;
    let items = doc.get(name)?.as_array()?;
    items.iter().map(|v| Some(v.as_u64()? as u32)).collect()
}

fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(dir, StoreOptions::default()).unwrap())
}

/// Deterministic stub: the verdict is a pure function of the query, so
/// byte identity across nodes is exactly the cluster-tier contract.
struct PureBackend;

impl Backend for PureBackend {
    fn apps_json(&self) -> String {
        "{\"apps\": []}\n".to_string()
    }

    fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        Ok(q)
    }

    fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        Ok(AnalysisViews {
            verdict: format!("verdict:{}:{}:{}\n", q.app, q.config, q.ranks),
            conflicts: format!("conflicts:{}:{}\n", q.app, q.config),
            patterns: format!("patterns:{}:{}\n", q.app, q.config),
        })
    }
}

/// Reserve an OS-assigned port. The listener is dropped before the node
/// binds it — a benign race that deterministic tests on loopback win.
fn pick_port() -> u16 {
    std::net::TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Boot an in-process fleet of `n` nodes with the given forwarding mode;
/// returns (handles, entry addresses). `stores` attaches a per-node
/// store (required for rebalance endpoints).
fn boot_fleet(
    n: u32,
    forwarding: Forwarding,
    stores: Option<&[Arc<Store>]>,
) -> (Vec<ServerHandle>, Vec<String>) {
    boot_fleet_with(n, forwarding, stores, HttpLimits::default())
}

/// [`boot_fleet`] with every node parsing under `limits`.
fn boot_fleet_with(
    n: u32,
    forwarding: Forwarding,
    stores: Option<&[Arc<Store>]>,
    limits: HttpLimits,
) -> (Vec<ServerHandle>, Vec<String>) {
    let ports: Vec<u16> = (0..n).map(|_| pick_port()).collect();
    let spec = ports
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{}=127.0.0.1:{p}", i + 1))
        .collect::<Vec<_>>()
        .join(",");
    let peers = cluster::parse_peers(&spec).unwrap();
    let mut handles = Vec::new();
    for (i, port) in ports.iter().enumerate() {
        let cfg = ServeConfig {
            port: *port,
            cluster: Some(ClusterConfig {
                node_id: (i + 1) as u32,
                peers: peers.clone(),
                forwarding,
            }),
            store: stores.map(|s| Arc::clone(&s[i])),
            limits,
            ..ServeConfig::default()
        };
        handles.push(serve(cfg, Arc::new(PureBackend)).unwrap());
    }
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    wait_all_alive(&addrs);
    (handles, addrs)
}

/// Block until every node sees every peer alive and a member — the
/// prober may have raced a peer's bind at boot and marked it dead for
/// one cycle.
fn wait_all_alive(addrs: &[String]) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let all = addrs.iter().all(|a| {
            HttpClient::connect_str(a)
                .and_then(|mut c| c.get("/v1/cluster/status"))
                .map(|r| r.status == 200 && !r.body_text().contains("false"))
                .unwrap_or(false)
        });
        if all {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fleet never became fully alive"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

fn paths(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("/v1/verdict/app-{i}/cfg?ranks=4"))
        .collect()
}

#[test]
fn byte_identity_across_entry_nodes_redirect() {
    let (handles, addrs) = boot_fleet(2, Forwarding::Redirect, None);
    let mut redirected = 0;
    for path in &paths(8) {
        let (via_a, served_a) = get_redirecting(&addrs[0], path, 4).unwrap();
        let (via_b, served_b) = get_redirecting(&addrs[1], path, 4).unwrap();
        assert_eq!(via_a.status, 200, "{path} via {}", addrs[0]);
        assert_eq!(via_b.status, 200, "{path} via {}", addrs[1]);
        assert_eq!(
            via_a.body, via_b.body,
            "{path}: entry node changed the bytes"
        );
        // Both entries must agree on who owns the key.
        assert_eq!(served_a, served_b, "{path}: entries disagree on the owner");
        if served_a != addrs[0] {
            redirected += 1;
        }
    }
    assert!(
        redirected > 0,
        "8 keys all landed on node 1 — the ring is not splitting"
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn byte_identity_across_entry_nodes_proxy() {
    let (handles, addrs) = boot_fleet(2, Forwarding::Proxy, None);
    let mut proxied = 0;
    for path in &paths(8) {
        let a: std::net::SocketAddr = addrs[0].parse().unwrap();
        let b: std::net::SocketAddr = addrs[1].parse().unwrap();
        let via_a = get_once(a, path).unwrap();
        let via_b = get_once(b, path).unwrap();
        assert_eq!(via_a.status, 200);
        assert_eq!(via_b.status, 200);
        assert_eq!(
            via_a.body, via_b.body,
            "{path}: entry node changed the bytes"
        );
        if via_a.header("X-Cluster-Served-By").is_some()
            || via_b.header("X-Cluster-Served-By").is_some()
        {
            proxied += 1;
        }
    }
    assert!(
        proxied > 0,
        "no request was proxied — the ring is not splitting"
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn proxied_request_keeps_its_request_id_on_the_owner() {
    let (handles, addrs) = boot_fleet(2, Forwarding::Proxy, None);
    let a: std::net::SocketAddr = addrs[0].parse().unwrap();
    let foreign = paths(16)
        .into_iter()
        .find(|p| {
            get_once(a, p)
                .unwrap()
                .header("X-Cluster-Served-By")
                .is_some()
        })
        .expect("some key must be owned by node 2");
    let plain = get_once(a, &foreign).unwrap();

    let rid = ("X-Request-Id", "trace-me-1".to_string());
    let resp = HttpClient::connect_str(&addrs[0])
        .unwrap()
        .get_with_headers(&foreign, &[rid])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.header("X-Cluster-Served-By").is_some(), "not proxied");
    assert_eq!(resp.header("X-Request-Id"), Some("trace-me-1"));
    assert_eq!(resp.body, plain.body, "the id changed the bytes");

    // The entry node and the owner each open a flight record for the
    // request; both carry the client's id, so the two can be joined.
    let flight = get_once(addrs[1].parse().unwrap(), "/v1/debug/flightrec")
        .unwrap()
        .body_text();
    let starts = flight
        .lines()
        .filter(|l| l.contains("\"request-start\"") && l.contains("\"rid\": \"trace-me-1\""))
        .count();
    assert_eq!(
        starts, 2,
        "entry and owner request-start records:\n{flight}"
    );
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn a_pooled_connection_the_owner_timed_out_is_not_reused() {
    // The owner answers a connection idle past its header deadline with
    // a 408 and closes it; the entry node's pooled connection to it is
    // then stale, and forwarding on it must neither hand that 408 to the
    // client nor mark the healthy owner dead.
    let limits = HttpLimits {
        header_deadline: Duration::from_millis(300),
        ..HttpLimits::default()
    };
    let (handles, addrs) = boot_fleet_with(2, Forwarding::Proxy, None, limits);
    let a: std::net::SocketAddr = addrs[0].parse().unwrap();
    // Finding a foreign key forwards it, which pools a connection.
    let foreign = paths(16)
        .into_iter()
        .find(|p| {
            get_once(a, p)
                .unwrap()
                .header("X-Cluster-Served-By")
                .is_some()
        })
        .expect("some key must be owned by node 2");
    let owners_bytes = get_once(addrs[1].parse().unwrap(), &foreign).unwrap().body;

    std::thread::sleep(Duration::from_millis(700));
    for attempt in ["after the idle", "the forward after that"] {
        let resp = get_once(a, &foreign).unwrap();
        assert_eq!(resp.status, 200, "{attempt}: {}", resp.body_text());
        assert_eq!(resp.header("X-Cluster-Served-By"), Some("2"), "{attempt}");
        assert_eq!(resp.body, owners_bytes, "{attempt}");
    }
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn looped_ring_is_rejected_with_508_not_a_hang() {
    // Deliberate misconfiguration: both nodes claim id 1 and each names
    // the *other* as node 2 — every key node 2 owns ping-pongs between
    // them. The hop counter must cut the loop with a 508.
    let (pa, pb) = (pick_port(), pick_port());
    let node = |port: u16, other: u16| ServeConfig {
        port,
        cluster: Some(ClusterConfig {
            node_id: 1,
            peers: cluster::parse_peers(&format!("1=127.0.0.1:{port},2=127.0.0.1:{other}"))
                .unwrap(),
            forwarding: Forwarding::Proxy,
        }),
        ..ServeConfig::default()
    };
    let ha = serve(node(pa, pb), Arc::new(PureBackend)).unwrap();
    let hb = serve(node(pb, pa), Arc::new(PureBackend)).unwrap();
    wait_all_alive(&[format!("127.0.0.1:{pa}"), format!("127.0.0.1:{pb}")]);

    let a: std::net::SocketAddr = format!("127.0.0.1:{pa}").parse().unwrap();
    let mut saw_508 = false;
    for path in &paths(16) {
        let resp = get_once(a, path).unwrap(); // returns — the loop may not hang
        match resp.status {
            200 => {} // key owned by id 1: served locally, no loop
            508 => {
                assert!(
                    resp.body_text().contains("loop"),
                    "508 body should name the loop: {}",
                    resp.body_text()
                );
                saw_508 = true;
            }
            other => panic!("{path}: unexpected status {other}"),
        }
    }
    assert!(saw_508, "no key landed on the looped slice across 16 tries");
    ha.shutdown();
    hb.shutdown();
}

#[test]
fn dead_peer_degrades_to_local_recompute() {
    let (mut handles, addrs) = boot_fleet(2, Forwarding::Proxy, None);
    let a: std::net::SocketAddr = addrs[0].parse().unwrap();

    // Find a key node 1 proxies to node 2.
    let all = paths(16);
    let foreign = all
        .iter()
        .find(|p| {
            get_once(a, p)
                .unwrap()
                .header("X-Cluster-Served-By")
                .is_some()
        })
        .expect("some key must be owned by node 2")
        .clone();
    let healthy_bytes = get_once(a, &foreign).unwrap().body;

    // Kill node 2. Node 1 must keep answering the foreign key — same
    // bytes, computed locally — instead of failing the request.
    handles.remove(1).shutdown();
    let resp = get_once(a, &foreign).unwrap();
    assert_eq!(resp.status, 200, "dead peer must degrade, not error");
    assert_eq!(
        resp.body, healthy_bytes,
        "local recompute produced different bytes than the dead owner"
    );
    assert!(
        resp.header("X-Cluster-Served-By").is_none(),
        "nothing was alive to proxy to"
    );

    // The degradation is observable: a cluster-peer-down flight event
    // (the ring is process-global, so any node's debug endpoint shows it).
    let flight = get_once(a, "/v1/debug/flightrec").unwrap().body_text();
    assert!(
        flight.contains("cluster-peer-down"),
        "no cluster-peer-down flight event after proxy failure"
    );
    handles.remove(0).shutdown();
}

#[test]
fn epoch_skew_mid_rebalance_serves_locally_not_loops() {
    let (handles, addrs) = boot_fleet(2, Forwarding::Proxy, None);
    let a: std::net::SocketAddr = addrs[0].parse().unwrap();
    let b: std::net::SocketAddr = addrs[1].parse().unwrap();

    let all = paths(16);
    let foreign = all
        .iter()
        .find(|p| {
            get_once(a, p)
                .unwrap()
                .header("X-Cluster-Served-By")
                .is_some()
        })
        .expect("some key must be owned by node 2")
        .clone();
    let before = get_once(a, &foreign).unwrap().body;

    // Bump node 2's epoch out from under node 1 — the transient state of
    // a rebalance commit that reached only part of the fleet.
    let commit = get_once(b, "/v1/cluster/commit?epoch=2&members=1,2").unwrap();
    assert_eq!(commit.status, 200, "{}", commit.body_text());

    // Node 1 still proxies with epoch 1 stamped; node 2 must serve the
    // forwarded request locally (verdicts are pure functions) rather than
    // bouncing it back and burning hops.
    let resp = get_once(a, &foreign).unwrap();
    assert_eq!(resp.status, 200, "epoch skew must not fail the request");
    assert_eq!(resp.body, before, "epoch skew changed the bytes");
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn healthz_reports_cluster_fields_only_when_clustered() {
    let (handles, addrs) = boot_fleet(2, Forwarding::Proxy, None);
    let a: std::net::SocketAddr = addrs[0].parse().unwrap();
    let health = get_once(a, "/healthz").unwrap().body_text();
    for field in [
        "cluster_id",
        "cluster_epoch",
        "cluster_members",
        "cluster_slice",
    ] {
        assert!(health.contains(field), "healthz missing {field}: {health}");
    }
    let status = get_once(a, "/v1/cluster/status").unwrap();
    assert_eq!(status.status, 200);
    let table = get_once(a, "/v1/cluster/status?format=table").unwrap();
    assert!(table.body_text().contains("epoch"), "{}", table.body_text());
    for h in handles {
        h.shutdown();
    }

    let plain = serve(ServeConfig::default(), Arc::new(PureBackend)).unwrap();
    let health = get_once(plain.addr(), "/healthz").unwrap().body_text();
    assert!(
        !health.contains("cluster_id"),
        "un-clustered healthz grew cluster fields: {health}"
    );
    let status = get_once(plain.addr(), "/v1/cluster/status").unwrap();
    assert_eq!(status.status, 400, "cluster endpoints exist only clustered");
    plain.shutdown();
}

#[test]
fn decommission_and_rejoin_move_segments_with_zero_wrong_bytes_under_traffic() {
    let dirs: Vec<PathBuf> = (1..=3).map(|i| tmpdir(&format!("rebal-{i}"))).collect();
    let stores: Vec<Arc<Store>> = dirs.iter().map(|d| open_store(d)).collect();
    let (handles, addrs) = boot_fleet(3, Forwarding::Proxy, Some(&stores));

    // Prime: every key computed at its owner and journaled there.
    let all = paths(12);
    let mut expected = Vec::new();
    for p in &all {
        let resp = get_once(addrs[0].parse().unwrap(), p).unwrap();
        assert_eq!(resp.status, 200);
        expected.push(resp.body);
    }

    // Live traffic against every entry node for the whole rebalance.
    let stop = Arc::new(AtomicBool::new(false));
    let wrong = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicUsize::new(0));
    let traffic: Vec<_> = addrs
        .iter()
        .cloned()
        .map(|addr| {
            let stop = Arc::clone(&stop);
            let wrong = Arc::clone(&wrong);
            let failed = Arc::clone(&failed);
            let all = all.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let i = k % all.len();
                    match get_redirecting(&addr, &all[i], 8) {
                        Ok((r, _)) if r.status == 200 => {
                            if r.body != expected[i] {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    k += 1;
                }
            })
        })
        .collect();

    // Node 3 leaves: its slice streams to the gaining members as
    // verified snapshot segments, then the epoch bumps fleet-wide.
    let resp = HttpClient::connect_str(&addrs[2])
        .unwrap()
        .get("/v1/cluster/decommission")
        .unwrap();
    assert_eq!(resp.status, 200, "decommission: {}", resp.body_text());
    let body = resp.body_text();
    let moved = u64_field(&body, "moved").unwrap();
    assert!(moved > 0, "node 3 owned none of 12 keys? {body}");
    assert_eq!(u64_field(&body, "epoch"), Some(2), "{body}");

    // And rejoins: pulls its slice back, epoch bumps again.
    let resp = HttpClient::connect_str(&addrs[2])
        .unwrap()
        .get("/v1/cluster/join")
        .unwrap();
    assert_eq!(resp.status, 200, "join: {}", resp.body_text());
    let body = resp.body_text();
    assert_eq!(u64_field(&body, "epoch"), Some(3), "{body}");
    assert!(
        u64_field(&body, "imported").unwrap() > 0,
        "rejoin pulled nothing back: {body}"
    );

    stop.store(true, Ordering::Relaxed);
    for t in traffic {
        t.join().unwrap();
    }
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "wrong bytes served during rebalance"
    );
    assert_eq!(
        failed.load(Ordering::Relaxed),
        0,
        "requests failed during rebalance"
    );

    // Steady state after two epoch bumps: still byte-identical from
    // every entry node.
    for (i, p) in all.iter().enumerate() {
        for addr in &addrs {
            let (r, _) = get_redirecting(addr, p, 8).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body, expected[i], "{p} via {addr} after rebalance");
        }
    }

    // A stale rebalance epoch is refused — replaying the decommission
    // negotiation at an old epoch cannot regress the ring.
    let resp = HttpClient::connect_str(&addrs[0])
        .unwrap()
        .get("/v1/cluster/segment?node=2&epoch=2&members=1,2")
        .unwrap();
    assert_eq!(resp.status, 409, "stale epoch must be refused");

    for h in handles {
        h.shutdown();
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn crash_between_verify_and_commit_leaves_the_old_view_serving() {
    let dirs: Vec<PathBuf> = (1..=3).map(|i| tmpdir(&format!("crash-{i}"))).collect();
    let stores: Vec<Arc<Store>> = dirs.iter().map(|d| open_store(d)).collect();
    let (handles, addrs) = boot_fleet(3, Forwarding::Proxy, Some(&stores));

    let all = paths(12);
    let expected: Vec<Vec<u8>> = all
        .iter()
        .map(|p| get_once(addrs[0].parse().unwrap(), p).unwrap().body)
        .collect();
    let identical_from_every_entry = |when: &str| {
        for (p, want) in all.iter().zip(&expected) {
            for addr in &addrs {
                let (r, _) = get_redirecting(addr, p, 8).unwrap();
                assert_eq!(r.status, 200, "{p} via {addr} {when}");
                assert_eq!(&r.body, want, "{p} via {addr} {when}");
            }
        }
    };
    let keys_on_3 = stores[2].len() as u64;
    assert!(keys_on_3 > 0, "node 3 owned none of 12 keys?");

    // The first half of a decommission of node 3, by hand: both gaining
    // members pull and verify their share — and then the orchestrator is
    // gone. Nobody commits.
    let mut pulled = 0;
    for gaining in &addrs[..2] {
        let pull = format!("/v1/cluster/pull?from={}&epoch=2&members=1,2", addrs[2]);
        let resp = get_once(gaining.parse().unwrap(), &pull).unwrap();
        assert_eq!(resp.status, 200, "pull on {gaining}: {}", resp.body_text());
        pulled += u64_field(&resp.body_text(), "imported").unwrap();
    }
    assert_eq!(pulled, keys_on_3, "the pulls moved node 3's whole slice");
    // A pull names a seed peer or nothing: the peer client has no other
    // destinations.
    let stray = "/v1/cluster/pull?from=127.0.0.1:9&epoch=2&members=1,2";
    assert_eq!(
        get_once(addrs[0].parse().unwrap(), stray).unwrap().status,
        400
    );

    // Every node is still on the old view, and it still serves.
    for addr in &addrs {
        let status = get_once(addr.parse().unwrap(), "/v1/cluster/status").unwrap();
        let body = status.body_text();
        assert_eq!(u64_field(&body, "epoch"), Some(1), "{addr}: {body}");
        assert_eq!(u32_array_field(&body, "members"), Some(vec![1, 2, 3]));
    }
    identical_from_every_entry("after the aborted handoff");

    // The retry is the real thing: re-pulled records land on top of
    // themselves, the counts verify, the epoch moves.
    let resp = get_once(addrs[2].parse().unwrap(), "/v1/cluster/decommission").unwrap();
    let body = resp.body_text();
    assert_eq!(resp.status, 200, "decommission: {body}");
    assert_eq!(u64_field(&body, "moved"), Some(keys_on_3), "{body}");
    assert_eq!(u64_field(&body, "epoch"), Some(2), "{body}");
    assert_eq!(u64_field(&body, "peer_commits"), Some(2), "{body}");
    identical_from_every_entry("after the retried decommission");

    for h in handles {
        h.shutdown();
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn mute_seed_peer_costs_a_bounded_wait_and_a_proxy_to_it_degrades() {
    use std::time::{Duration, Instant};
    obs::set_metrics(true);

    // Peer 2 accepts and never answers. Accepted sockets are handed to
    // the test, which holds them open (mute) or drops them (hang up).
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let mute_addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let acceptor = std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            if held_tx.send(stream).is_err() {
                return;
            }
        }
    });

    let dir = tmpdir("mute");
    let spec = format!("1=127.0.0.1:{},2={mute_addr}", pick_port());
    let runtime = ClusterRuntime::new(ClusterConfig {
        node_id: 1,
        peers: cluster::parse_peers(&spec).unwrap(),
        forwarding: Forwarding::Proxy,
    })
    .unwrap();
    let router = Router::with_cluster(
        Arc::new(PureBackend),
        16,
        Some(open_store(&dir)),
        Some(Arc::new(runtime)),
    );
    let request = |line: &str| {
        let raw = format!("GET {line} HTTP/1.1\r\n\r\n");
        parse_request(&mut ConnReader::new(raw.as_bytes()), &HttpLimits::default()).unwrap()
    };

    // Join syncs its view from every seed peer first. The mute one must
    // cost the control-plane read deadline, not a 30 s worker.
    let t0 = Instant::now();
    let resp = router.handle(&request("/v1/cluster/join"));
    let waited = t0.elapsed();
    assert_eq!(resp.status, 409, "node 1 is a member already");
    assert!(waited < Duration::from_secs(5), "join took {waited:?}");
    let _status_conn = held_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // A key the ring gives to the mute peer. PureBackend canonicalizes
    // nothing, so the router's defaults are the whole key.
    let ring = cluster::Ring::build(&[1, 2]);
    let foreign = (0..64)
        .find(|i| {
            let query = AnalysisQuery {
                app: format!("app-{i}"),
                config: "cfg".into(),
                ranks: 4,
                seed: serve::router::DEFAULT_SEED,
                model: "both".into(),
                faults: "none".into(),
            };
            ring.owner(query.cache_key().fingerprint().0) == Some(2)
        })
        .expect("some key must be owned by node 2");
    let errors_before = obs::metrics().counter("cluster.proxy_errors").get();
    let path = format!("/v1/verdict/app-{foreign}/cfg?ranks=4");
    let resp = std::thread::scope(|s| {
        let proxied = s.spawn(|| router.handle(&request(&path)));
        // The forward is connected and waiting; the peer hangs up on it.
        drop(held_rx.recv_timeout(Duration::from_secs(5)).unwrap());
        proxied.join().unwrap()
    });
    assert_eq!(resp.status, 200, "a failed proxy must degrade, not error");
    assert_eq!(
        resp.body,
        format!("verdict:app-{foreign}:cfg:4\n").into_bytes()
    );
    assert!(obs::metrics().counter("cluster.proxy_errors").get() > errors_before);

    drop(held_rx);
    let _ = std::net::TcpStream::connect(&mute_addr); // wake the acceptor
    acceptor.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
