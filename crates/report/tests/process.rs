//! The process-level gates: what only a real `report serve` process can
//! show. Each test spawns the built binary, speaks to it over HTTP, and
//! ends it the way an operator (SIGTERM) or a crash (SIGKILL) would:
//!
//! * warm == cold bytes, the observability surface and a clean SIGTERM
//!   drain over one process; SIGINT (ctrl-c) drains the same way;
//! * `kill -9` mid-traffic, then a restart on the same `--store-dir`
//!   answers warm from the recovered store;
//! * a two-process fleet serves identical bytes through every entry node,
//!   before and after a decommission / join handoff;
//! * `report get` through a redirecting fleet's non-owner node follows
//!   the 307 and prints the owner's body.
//!
//! Under `cargo test --release` (as `scripts/ci.sh` runs this file)
//! `CARGO_BIN_EXE_report` is the release binary.
#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use obs::json::Json;
use serve::{get_once, get_redirecting, HttpClient};

const QUERIES: usize = 6;

/// One verdict URL per distinct Table 4 (application, library) pair.
fn queries() -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    let paths: Vec<String> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4 && seen.insert((s.app, s.iolib)))
        .take(QUERIES)
        .map(|s| format!("/v1/verdict/{}/{}?ranks=8", s.app, s.iolib))
        .collect();
    assert_eq!(paths.len(), QUERIES);
    paths
}

/// A fresh scratch path private to this test run.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("report_process_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    std::fs::remove_file(&path).ok();
    path
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn binary")
}

fn report(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_report"), args)
}

/// Stdout of a `report` client command that must succeed.
fn report_ok(args: &[&str]) -> String {
    let out = report(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "report {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A spawned `report serve`, killed when dropped — a failed assertion
/// leaves no process behind.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `report serve ARGS --quiet` and block until it listens.
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
            .arg("serve")
            .args(args)
            .arg("--quiet")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn report serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Guarded before the wait, so a child that never listens is reaped.
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        while server
            .stdout
            .read_line(&mut line)
            .expect("read serve stdout")
            > 0
        {
            if let Some(addr) = line.strip_prefix("serve: listening on ") {
                server.addr = addr.trim().parse().expect("listening address");
                return server;
            }
            line.clear();
        }
        panic!("report serve {args:?} exited before listening");
    }

    fn get(&self, path: &str) -> Vec<u8> {
        let r = get_once(self.addr, path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(r.status, 200, "{path}: {}", r.body_text());
        r.body
    }

    fn sigterm(&self) {
        self.signal(15);
    }

    /// What ctrl-c sends.
    fn sigint(&self) {
        self.signal(2);
    }

    fn signal(&self, sig: i32) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        // SAFETY: kill(2) touches no memory of ours, and the pid is our
        // own child, not yet waited on, so it cannot have been reused.
        let rc = unsafe { kill(self.child.id() as i32, sig) };
        assert_eq!(rc, 0, "kill -{sig}");
    }

    /// After [`Server::sigterm`] or [`Server::sigint`]: the process must
    /// drain, say so, and exit 0.
    fn drained(mut self) {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("read serve stdout");
        let status = self.child.wait().expect("wait for serve");
        assert_eq!(status.code(), Some(0), "SIGTERM did not drain to exit 0");
        assert!(rest.contains("serve: shutdown complete"), "stdout: {rest}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn warm_equals_cold_and_sigterm_drains() {
    let postmortem = scratch("postmortem");
    let server = Server::spawn(&[
        "--port",
        "0",
        "--workers",
        "2",
        "--cache-entries",
        "32",
        "--postmortem",
        postmortem.to_str().unwrap(),
    ]);
    let addr = server.addr.to_string();
    server.get("/healthz");
    server.get("/v1/apps");

    let paths = queries();
    let cold: Vec<Vec<u8>> = paths.iter().map(|p| server.get(p)).collect();
    for (path, cold) in paths.iter().zip(&cold) {
        assert!(
            &server.get(path) == cold,
            "{path}: warm body differs from cold"
        );
    }

    // The observability surface, through the CLI an operator would use.
    report_ok(&["get", "--addr", &addr, "--path", "/v1/debug/flightrec"]);
    let raw = scratch("metricsz");
    report_ok(&["slo", "--addr", &addr, "--raw", raw.to_str().unwrap()]);
    let prom = run(
        env!("CARGO_BIN_EXE_tracetool"),
        &["validate-prom", raw.to_str().unwrap()],
    );
    assert_eq!(prom.status.code(), Some(0), "validate-prom");
    // /metricsz is the one metrics surface: the retired JSON endpoint
    // stays a 404, which the client reports as exit 1.
    let retired = report(&["get", "--addr", &addr, "--path", "/v1/metrics"]);
    assert_eq!(retired.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&retired.stderr).contains("returned 404"));

    server.sigterm();
    server.drained();
    let dump = std::fs::read_to_string(&postmortem).expect("postmortem file");
    assert!(dump.contains("sigterm-drain"), "postmortem: {dump}");
    std::fs::remove_file(&postmortem).ok();
    std::fs::remove_file(&raw).ok();
}

#[test]
fn sigint_drains_like_sigterm() {
    let server = Server::spawn(&["--port", "0", "--workers", "1"]);
    server.get("/healthz");
    server.sigint();
    server.drained();
}

#[test]
fn kill_dash_nine_then_restart_answers_warm_from_the_store() {
    let dir = scratch("store");
    let store_args = ["--port", "0", "--store-dir", dir.to_str().unwrap()];
    let mut server = Server::spawn(&store_args);
    let paths = queries();
    // Every cold body is journaled durably before its response returns.
    let cold: Vec<Vec<u8>> = paths.iter().map(|p| server.get(p)).collect();

    // SIGKILL mid-traffic — no drain, no flush — once the hammer threads
    // are well into their request loops.
    let addr = server.addr;
    let (stop, sent) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for k in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = get_once(addr, &paths[k % paths.len()]);
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        while sent.load(Ordering::SeqCst) < 4 * QUERIES {
            std::thread::yield_now();
        }
        server.child.kill().expect("kill -9");
        server.child.wait().expect("reap");
        stop.store(true, Ordering::SeqCst);
    });
    drop(server);

    let server = Server::spawn(&store_args);
    let health = String::from_utf8(server.get("/healthz")).expect("utf-8 healthz");
    let recovered = Json::parse(&health)
        .ok()
        .and_then(|doc| doc.get("store_recovered_records")?.as_u64())
        .expect("healthz field");
    assert!(
        recovered >= QUERIES as u64,
        "recovered {recovered} record(s): a committed verdict was lost across kill -9"
    );
    for (path, cold) in paths.iter().zip(&cold) {
        assert!(
            &server.get(path) == cold,
            "{path}: post-restart bytes differ from pre-kill cold"
        );
    }
    // Recovered, not recomputed.
    let metricsz = String::from_utf8(server.get("/metricsz")).expect("utf-8 metricsz");
    let store_hits = obs::parse_exposition(&metricsz)
        .expect("valid exposition")
        .iter()
        .find(|s| s.name == "obs_counter" && s.label("name") == Some("store.hits"))
        .map_or(0, |s| s.value as u64);
    assert!(store_hits >= QUERIES as u64, "{store_hits} store hit(s)");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every query through every entry node answers `cold`'s bytes.
fn assert_identity(entries: &[String], paths: &[String], cold: &[Vec<u8>]) {
    for entry in entries {
        for (path, cold) in paths.iter().zip(cold) {
            let (r, by) = get_redirecting(entry, path, 4).expect("fleet GET");
            assert_eq!(r.status, 200, "{path} via {entry} (served by {by})");
            assert!(
                &r.body == cold,
                "{path}: bytes via entry {entry} (served by {by}) differ"
            );
        }
    }
}

#[test]
fn two_process_fleet_is_byte_identical_through_every_entry_node() {
    // Two ports the OS just handed out; released so the nodes can bind.
    let ports: Vec<u16> = {
        let bind = || std::net::TcpListener::bind(("127.0.0.1", 0)).expect("ephemeral port");
        let held = [bind(), bind()];
        held.iter()
            .map(|l| l.local_addr().unwrap().port())
            .collect()
    };
    let peers = format!("1=127.0.0.1:{},2=127.0.0.1:{}", ports[0], ports[1]);
    let dirs = [scratch("fleet_a"), scratch("fleet_b")];
    let node = |i: usize| {
        Server::spawn(&[
            "--port",
            &ports[i].to_string(),
            "--workers",
            "2",
            "--cluster-id",
            &(i + 1).to_string(),
            "--peers",
            &peers,
            "--store-dir",
            dirs[i].to_str().unwrap(),
        ])
    };
    let (a, b) = (node(0), node(1));
    let (addr_a, addr_b) = (a.addr.to_string(), b.addr.to_string());
    // A node's prober may hold a peer dead for one cycle until the peer
    // binds; the handoffs below need both nodes to see each other.
    for addr in [a.addr, b.addr] {
        let mut client = HttpClient::connect(addr).expect("connect");
        while client
            .get("/v1/cluster/status")
            .expect("cluster status")
            .body_text()
            .contains("\"alive\": false")
        {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let paths = queries();
    let cold: Vec<Vec<u8>> = paths
        .iter()
        .map(|path| {
            let (r, by) = get_redirecting(&addr_a, path, 4).expect("cold GET");
            assert_eq!(r.status, 200, "{path}: cold via {by}");
            r.body
        })
        .collect();
    let entries = [addr_b.clone(), addr_a.clone()];
    assert_identity(&entries, &paths, &cold);

    // Ring status, then B's slice handed off and back over the peer
    // client: epoch 1 -> 2 -> 3, each bump only after a verified handoff.
    assert!(report_ok(&["cluster", "status", "--addr", &addr_a]).contains("epoch"));
    assert!(report_ok(&["cluster", "decommission", "--addr", &addr_b]).contains("\"moved\""));
    assert!(report_ok(&["cluster", "join", "--addr", &addr_b]).contains("\"epoch\": 3"));
    assert_identity(&entries, &paths, &cold);

    // Both at once, as an operator stopping a fleet would. Each node
    // still waits out the peer connections the other keeps pooled (one
    // 5 s request-head deadline), which is most of this test's runtime.
    a.sigterm();
    b.sigterm();
    a.drained();
    b.drained();
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn report_get_follows_a_redirecting_fleet_to_the_owner() {
    /// The verdict names the query: which node answered shows nowhere.
    struct Stub;
    impl serve::Backend for Stub {
        fn apps_json(&self) -> String {
            "{}\n".to_string()
        }
        fn canonicalize(
            &self,
            q: serve::AnalysisQuery,
        ) -> Result<serve::AnalysisQuery, serve::ApiError> {
            Ok(q)
        }
        fn analyze(
            &self,
            q: &serve::AnalysisQuery,
        ) -> Result<serve::AnalysisViews, serve::ApiError> {
            Ok(serve::AnalysisViews {
                verdict: format!("verdict:{}:{}\n", q.app, q.config),
                conflicts: String::new(),
                patterns: String::new(),
            })
        }
    }
    // An in-process two-node fleet on OS-picked ports, `--forwarding redirect`.
    let ports: Vec<u16> = (0..2)
        .map(|_| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        })
        .collect();
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let peers = cluster::parse_peers(&format!("1={},2={}", addrs[0], addrs[1])).unwrap();
    let nodes: Vec<serve::ServerHandle> = ports
        .iter()
        .enumerate()
        .map(|(i, &port)| {
            let cfg = serve::ServeConfig {
                port,
                cluster: Some(serve::ClusterConfig {
                    node_id: i as u32 + 1,
                    peers: peers.clone(),
                    forwarding: serve::Forwarding::Redirect,
                }),
                ..serve::ServeConfig::default()
            };
            serve::serve(cfg, std::sync::Arc::new(Stub)).expect("boot node")
        })
        .collect();
    // Until each node's prober has seen its peer alive, it answers
    // foreign keys itself instead of redirecting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !addrs.iter().all(|a| {
        HttpClient::connect_str(a)
            .and_then(|mut c| c.get("/v1/cluster/status"))
            .is_ok_and(|r| r.status == 200 && !r.body_text().contains("false"))
    }) {
        assert!(
            std::time::Instant::now() < deadline,
            "fleet never became alive"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let entry: SocketAddr = addrs[0].parse().unwrap();
    let path = (0..64)
        .map(|i| format!("/v1/verdict/app-{i}/cfg"))
        .find(|p| get_once(entry, p).is_ok_and(|r| r.status == 307))
        .expect("a key node 1 redirects to node 2");
    let owner = get_once(addrs[1].parse().unwrap(), &path).expect("ask the owner");
    assert_eq!(owner.status, 200);

    let out = report(&["get", "--addr", &addrs[0], "--path", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(out.stdout, owner.body);
    for node in nodes {
        node.shutdown();
    }
}
