//! `loadgen` — closed-loop load generator for the analysis service.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients N] [--warm-requests N]
//!         [--configs N] [--ranks R] [--out-json FILE] [--smoke]
//! ```
//!
//! A correctness driver, not a benchmark: `benchmark/` is the only place
//! numbers are measured and gated. Without `--addr` it self-hosts an
//! in-process server (the same `ReportBackend` that `report serve` runs)
//! on an OS-assigned port. Two phases:
//!
//! * **cold** — one serial `GET /v1/verdict/{app}/{config}` per distinct
//!   configuration; every request misses the cache and runs the full
//!   simulation + fused analysis.
//! * **warm** — `--warm-requests` keep-alive requests from `--clients`
//!   closed-loop client threads cycling over the same query set; every
//!   request is a cache hit.
//!
//! Between the phases each cold body is re-fetched once and compared
//! byte-for-byte — the warm-equals-cold guarantee is asserted on every
//! run, not just in the test suite. The summary line reports both
//! throughputs for orientation only. `--smoke` shrinks everything for the
//! CI gate. Exit codes: 0 ok, 1 failure (bad status, byte mismatch, or
//! unreachable server), 64 usage error.
//!
//! `--restart --store-dir DIR` runs the crash-recovery check instead:
//! spawn a real `report serve` child on DIR, load it cold, SIGKILL it
//! mid-traffic, restart it on the same DIR, and assert the restarted
//! process answers *warm* — every body byte-identical to the pre-kill
//! cold bytes, served from the recovered store without re-simulating.
//!
//! `--out-json FILE` writes a structured *run report* alongside the
//! normal summary: exact per-phase latency quantiles (p50/p99 from the
//! full sorted sample, not an estimate), error counts, and a sample of
//! the `X-Request-Id` values the server echoed — enough to cross-match a
//! load run against the server's flight recorder and SLO window. Not
//! available with `--restart` (its phases span a process kill and are
//! not comparable).
//!
//! `--cluster ADDR1,ADDR2,...` drives a running fleet instead: every
//! query is fetched through *every* entry node (following 307s when the
//! fleet runs redirect forwarding) and the bodies are asserted
//! byte-identical regardless of which node answered the door — the
//! cluster-tier contract. Per-node cache-hit and forward/redirect ratios
//! are reported from each node's `/metricsz`.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use report_gen::ReportBackend;
use semantics_core::json::Json;
use serve::fleet::json_u64_field;
use serve::{get_once, HttpClient, ServeConfig};

const EXIT_USAGE: i32 = 64;

struct Args {
    /// Target server; `None` ⇒ self-host in-process.
    addr: Option<SocketAddr>,
    clients: usize,
    warm_requests: usize,
    /// Distinct configurations in the query set (cold-phase size).
    configs: usize,
    ranks: u32,
    /// Structured run report: per-phase quantiles, errors, rid sample.
    out_json: Option<String>,
    smoke: bool,
    /// Crash-recovery mode: spawn, kill -9, restart, assert warm.
    restart: bool,
    /// Store directory for `--restart` (passed to `report serve`).
    store_dir: Option<String>,
    /// Fleet mode: entry-node addresses of a running cluster.
    cluster: Option<Vec<String>>,
}

fn usage() -> &'static str {
    "usage: loadgen [options]\n\
     \x20 --addr HOST:PORT  target server (default: self-host in-process)\n\
     \x20 --clients N       warm-phase client threads (default 4)\n\
     \x20 --warm-requests N warm-phase request count (default 400)\n\
     \x20 --configs N       distinct configurations to query (default 6)\n\
     \x20 --ranks R         world size per query (default 8)\n\
     \x20 --out-json FILE   write a structured run report: per-phase\n\
     \x20                   p50/p99 latency, error counts, and a sample\n\
     \x20                   of echoed X-Request-Id values (not with\n\
     \x20                   --restart)\n\
     \x20 --smoke           tiny quick-check shape (CI smoke)\n\
     \x20 --restart         crash-recovery check: spawn `report serve`,\n\
     \x20                   SIGKILL it mid-traffic, restart, assert the\n\
     \x20                   restarted process answers warm byte-identically\n\
     \x20 --store-dir DIR   store directory for --restart (required there)\n\
     \x20 --cluster A1,A2   drive a running fleet: fetch every query via\n\
     \x20                   every entry node, assert byte identity, report\n\
     \x20                   per-node hit and forward/redirect ratios\n"
}

fn flag_value<T: std::str::FromStr>(
    argv: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    *i += 1;
    let val = argv
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    val.parse()
        .map_err(|_| format!("invalid value for {flag}: {val:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        clients: 4,
        warm_requests: 400,
        configs: 6,
        ranks: 8,
        out_json: None,
        smoke: false,
        restart: false,
        store_dir: None,
        cluster: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = Some(flag_value(argv, &mut i, "--addr")?),
            "--clients" => args.clients = flag_value(argv, &mut i, "--clients")?,
            "--warm-requests" => args.warm_requests = flag_value(argv, &mut i, "--warm-requests")?,
            "--configs" => args.configs = flag_value(argv, &mut i, "--configs")?,
            "--ranks" => args.ranks = flag_value(argv, &mut i, "--ranks")?,
            "--out-json" => args.out_json = Some(flag_value(argv, &mut i, "--out-json")?),
            "--smoke" => args.smoke = true,
            "--restart" => args.restart = true,
            "--store-dir" => args.store_dir = Some(flag_value(argv, &mut i, "--store-dir")?),
            "--cluster" => {
                let list: String = flag_value(argv, &mut i, "--cluster")?;
                let addrs: Vec<String> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if addrs.is_empty() {
                    return Err("--cluster requires at least one address".to_string());
                }
                args.cluster = Some(addrs);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.smoke {
        // The CI shape: small enough to finish in seconds anywhere.
        args.clients = args.clients.min(2);
        args.warm_requests = args.warm_requests.min(20);
        args.configs = args.configs.min(2);
        args.ranks = args.ranks.min(2);
    }
    if args.clients == 0 || args.warm_requests == 0 || args.configs == 0 || args.ranks == 0 {
        return Err("counts must be at least 1".to_string());
    }
    if args.restart && args.store_dir.is_none() {
        return Err("--restart requires --store-dir".to_string());
    }
    if args.restart && args.addr.is_some() {
        return Err("--restart spawns its own server; drop --addr".to_string());
    }
    if args.restart && args.out_json.is_some() {
        return Err("--out-json is not available with --restart".to_string());
    }
    if args.cluster.is_some() && (args.addr.is_some() || args.restart) {
        return Err("--cluster conflicts with --addr and --restart".to_string());
    }
    Ok(args)
}

/// The query set: one verdict URL per distinct Table 4 configuration.
fn query_paths(configs: usize, ranks: u32) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4 && seen.insert((s.app, s.iolib)))
        .take(configs)
        .map(|s| format!("/v1/verdict/{}/{}?ranks={ranks}", s.app, s.iolib))
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: FAIL: {msg}");
    std::process::exit(1);
}

/// Closed-loop keep-alive clients over a shared request counter; returns
/// (wall ns, error count, per-request latencies in ns — successful
/// requests only, unordered).
fn closed_loop(
    addr: SocketAddr,
    paths: &Arc<Vec<String>>,
    clients: usize,
    requests: usize,
) -> (u64, usize, Vec<u64>) {
    let counter = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(std::sync::Mutex::new(Vec::with_capacity(requests)));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            let counter = Arc::clone(&counter);
            let errors = Arc::clone(&errors);
            let latencies = Arc::clone(&latencies);
            let paths = Arc::clone(paths);
            s.spawn(move || {
                let mut client = match HttpClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                };
                // Per-thread sample, merged once at the end — the
                // measurement loop takes no locks.
                let mut local = Vec::with_capacity(requests / clients.max(1) + 1);
                loop {
                    let k = counter.fetch_add(1, Ordering::SeqCst);
                    if k >= requests {
                        break;
                    }
                    let t_req = Instant::now();
                    match client.get(&paths[k % paths.len()]) {
                        Ok(r) if r.status == 200 => {
                            local.push(t_req.elapsed().as_nanos() as u64);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::SeqCst);
                            // Reconnect once; persistent failure drains the
                            // counter and ends the phase.
                            match HttpClient::connect(addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let lats = std::mem::take(&mut *latencies.lock().unwrap());
    (wall_ns, errors.load(Ordering::SeqCst), lats)
}

/// Exact quantile from the full sample: sort and index — no sketches,
/// no interpolation surprises. Returns 0 on an empty sample.
fn quantile_ns(latencies: &mut [u64], q_pct: usize) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let idx = (latencies.len() * q_pct / 100).min(latencies.len() - 1);
    latencies[idx]
}

/// Scrape a node's `/metricsz` and return a lookup over its registry
/// counters (the `obs_counter{name="…"}` family); absent reads as 0.
fn scrape_counters(addr: &str) -> impl Fn(&str) -> u64 {
    let text = match HttpClient::connect_str(addr).and_then(|mut c| c.get("/metricsz")) {
        Ok(r) if r.status == 200 => r.body_text(),
        _ => fail(&format!("{addr}: /metricsz unreachable")),
    };
    let samples = obs::parse_exposition(&text)
        .unwrap_or_else(|e| fail(&format!("{addr}: /metricsz does not parse: {e}")));
    move |name| {
        samples
            .iter()
            .find(|s| s.name == "obs_counter" && s.label("name") == Some(name))
            .map_or(0, |s| s.value as u64)
    }
}

/// Spawn a real `report serve --store-dir DIR` child (the binary sits
/// next to loadgen in the target dir) and block until it prints its
/// listening line. Returns the child and the bound address.
fn spawn_server(store_dir: &str) -> (std::process::Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let report = exe
        .parent()
        .map(|d| d.join("report"))
        .filter(|p| p.exists())
        .unwrap_or_else(|| fail("cannot locate the report binary next to loadgen"));
    let mut child = std::process::Command::new(report)
        .args(["serve", "--port", "0", "--store-dir", store_dir, "--quiet"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn report serve: {e}")));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut addr = None;
    for line in &mut lines {
        let Ok(line) = line else { break };
        if let Some(rest) = line.strip_prefix("serve: listening on ") {
            addr = rest.trim().parse().ok();
            break;
        }
    }
    let Some(addr) = addr else {
        let _ = child.kill();
        fail("report serve never printed its listening line");
    };
    // Keep draining the child's stdout so it can never block on the pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The crash-recovery check: cold-load a spawned server, SIGKILL it
/// mid-traffic, restart it on the same store dir, and require the
/// restarted process to answer warm with byte-identical bodies.
fn run_restart(args: &Args) -> ! {
    let store_dir = args.store_dir.as_deref().expect("validated in parse_args");
    let paths = Arc::new(query_paths(args.configs, args.ranks));

    let (mut child, addr) = spawn_server(store_dir);
    match get_once(addr, "/healthz") {
        Ok(r) if r.status == 200 => {}
        _ => fail("spawned server failed /healthz"),
    }

    // Cold phase: every body computed by the child's backend and — via
    // the store tier — journaled durably before the response returns.
    let t_cold = Instant::now();
    let mut cold_bodies = Vec::with_capacity(paths.len());
    for path in paths.iter() {
        match get_once(addr, path) {
            Ok(r) if r.status == 200 => cold_bodies.push(r.body),
            Ok(r) => fail(&format!("{path}: cold status {}", r.status)),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
    let cold_ns = t_cold.elapsed().as_nanos() as u64;

    // Pre-kill warm check: same process, same bytes.
    for (path, cold) in paths.iter().zip(&cold_bodies) {
        match get_once(addr, path) {
            Ok(r) if r.status == 200 && &r.body == cold => {}
            _ => fail(&format!("{path}: pre-kill warm bytes differ")),
        }
    }

    // Hammer the server from the side and SIGKILL it mid-traffic — no
    // drain, no flush, the journal tail is whatever fsync left behind.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let paths = Arc::clone(&paths);
            std::thread::spawn(move || {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = get_once(addr, &paths[k % paths.len()]);
                    k += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(if args.smoke { 30 } else { 150 }));
    child
        .kill()
        .unwrap_or_else(|e| fail(&format!("kill -9: {e}")));
    let _ = child.wait();
    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        let _ = h.join();
    }

    // Restart on the same directory; recovery time is spawn-to-listening,
    // the full cost of coming back (process start + replay + bind).
    let t_recover = Instant::now();
    let (mut child, addr) = spawn_server(store_dir);
    let recovery_ns = t_recover.elapsed().as_nanos() as u64;

    let health = match get_once(addr, "/healthz") {
        Ok(r) if r.status == 200 => r.body_text(),
        _ => fail("restarted server failed /healthz"),
    };
    let recovered = json_u64_field(&health, "store_recovered_records")
        .unwrap_or_else(|| fail("healthz has no store_recovered_records field"));
    if recovered < paths.len() as u64 {
        fail(&format!(
            "recovered {recovered} record(s), expected at least {} — \
             a committed verdict was lost across kill -9",
            paths.len()
        ));
    }

    // The heart of the gate: warm-after-restart bytes must be identical
    // to what the dead process served cold.
    for (path, cold) in paths.iter().zip(&cold_bodies) {
        match get_once(addr, path) {
            Ok(r) if r.status == 200 && &r.body == cold => {}
            Ok(r) if r.status != 200 => fail(&format!("{path}: post-restart status {}", r.status)),
            Ok(_) => fail(&format!(
                "{path}: post-restart bytes differ from pre-kill cold"
            )),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }

    // And they must have come from the store, not recomputation.
    let store_hits = scrape_counters(&addr.to_string())("store.hits");
    if store_hits < paths.len() as u64 {
        fail(&format!(
            "only {store_hits} store hit(s) after restart — responses were recomputed, not recovered"
        ));
    }

    // Warm-after-restart throughput, closed loop.
    let (warm_ns, errors, _) = closed_loop(addr, &paths, args.clients, args.warm_requests);
    if errors > 0 {
        fail(&format!("{errors} warm requests failed after restart"));
    }

    let rps = |n: usize, ns: u64| n as f64 / (ns.max(1) as f64 / 1e9);
    let cold_rps = rps(cold_bodies.len(), cold_ns);
    let warm_rps = rps(args.warm_requests, warm_ns);
    println!(
        "loadgen: restart: cold {} reqs ({:.1} req/s); kill -9; recovery {:.1} ms, {} records; \
         warm-after-restart {} reqs ({:.0} req/s, {} store hits); bytes identical",
        cold_bodies.len(),
        cold_rps,
        recovery_ns as f64 / 1e6,
        recovered,
        args.warm_requests,
        warm_rps,
        store_hits,
    );

    let _ = child.kill();
    let _ = child.wait();
    std::process::exit(0);
}

/// Closed-loop clients against a fleet of entry nodes. Each client
/// learns key→owner from 307s (redirect forwarding) and goes straight to
/// the owner thereafter; under proxy forwarding every request is a plain
/// 200 and the entry node does the forwarding. Returns (wall ns, errors).
fn fleet_closed_loop(
    addrs: &[String],
    paths: &Arc<Vec<String>>,
    clients: usize,
    requests: usize,
) -> (u64, usize) {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let counter = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let counter = Arc::clone(&counter);
            let errors = Arc::clone(&errors);
            let paths = Arc::clone(paths);
            let entry = addrs[c % addrs.len()].clone();
            s.spawn(move || {
                let mut conns: HashMap<String, HttpClient> = HashMap::new();
                let mut learned: Vec<Option<String>> = vec![None; paths.len()];
                loop {
                    let k = counter.fetch_add(1, Ordering::SeqCst);
                    if k >= requests {
                        break;
                    }
                    let pi = k % paths.len();
                    let mut target = learned[pi].clone().unwrap_or_else(|| entry.clone());
                    let mut ok = false;
                    // At most one redirect hop: the 307 names the owner.
                    for _hop in 0..2 {
                        let resp = {
                            let conn = match conns.entry(target.clone()) {
                                Entry::Occupied(e) => e.into_mut(),
                                Entry::Vacant(v) => match HttpClient::connect_str(&target) {
                                    Ok(c) => v.insert(c),
                                    Err(_) => break,
                                },
                            };
                            conn.get(&paths[pi])
                        };
                        match resp {
                            Ok(r) if r.status == 200 => {
                                ok = true;
                                break;
                            }
                            Ok(r) if r.status == 307 => {
                                let owner = r
                                    .header("location")
                                    .and_then(|l| l.strip_prefix("http://"))
                                    .map(|rest| match rest.find('/') {
                                        Some(slash) => rest[..slash].to_string(),
                                        None => rest.to_string(),
                                    });
                                match owner {
                                    Some(host) => {
                                        learned[pi] = Some(host.clone());
                                        target = host;
                                    }
                                    None => break,
                                }
                            }
                            _ => {
                                conns.remove(&target);
                                break;
                            }
                        }
                    }
                    if !ok {
                        errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    (
        t0.elapsed().as_nanos() as u64,
        errors.load(Ordering::SeqCst),
    )
}

/// Fleet mode: drive a running cluster through every entry node and
/// assert the cluster-tier contract — identical bytes for every query
/// regardless of which node takes the request.
fn run_cluster(args: &Args) -> ! {
    let addrs = args.cluster.as_ref().expect("checked by caller");
    let paths = query_paths(args.configs, args.ranks);

    // Every entry node must be up and actually clustered.
    for a in addrs {
        let health = match HttpClient::connect_str(a).and_then(|mut c| c.get("/healthz")) {
            Ok(r) if r.status == 200 => r.body_text(),
            Ok(r) => fail(&format!("{a}: /healthz returned {}", r.status)),
            Err(e) => fail(&format!("{a}: {e}")),
        };
        if json_u64_field(&health, "cluster_id").is_none() {
            fail(&format!("{a} is not running in cluster mode"));
        }
    }

    // Cold through the first entry node, following redirects.
    let t_cold = Instant::now();
    let mut cold_bodies = Vec::with_capacity(paths.len());
    for path in &paths {
        match serve::get_redirecting(&addrs[0], path, 4) {
            Ok((r, _served_by)) if r.status == 200 => cold_bodies.push(r.body),
            Ok((r, by)) => fail(&format!("{path}: cold status {} via {by}", r.status)),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
    let cold_ns = t_cold.elapsed().as_nanos() as u64;

    // The contract: every query through every entry node, byte-identical.
    for a in addrs {
        for (path, cold) in paths.iter().zip(&cold_bodies) {
            match serve::get_redirecting(a, path, 4) {
                Ok((r, _)) if r.status == 200 && &r.body == cold => {}
                Ok((r, by)) if r.status != 200 => {
                    fail(&format!("{path} via {a}: status {} from {by}", r.status))
                }
                Ok((_, by)) => fail(&format!(
                    "{path}: bytes via entry {a} (served by {by}) differ from entry {}",
                    addrs[0]
                )),
                Err(e) => fail(&format!("{path} via {a}: {e}")),
            }
        }
    }

    // Warm phase spread across all entry nodes.
    let paths = Arc::new(paths);
    let (warm_ns, errors) = fleet_closed_loop(addrs, &paths, args.clients, args.warm_requests);
    if errors > 0 {
        fail(&format!("{errors} warm requests failed"));
    }

    let rps = |n: usize, ns: u64| n as f64 / (ns.max(1) as f64 / 1e9);
    println!(
        "loadgen: cluster {} node(s): cold {} reqs ({:.1} req/s); warm {} reqs ({:.0} req/s); \
         bytes identical across every entry node",
        addrs.len(),
        cold_bodies.len(),
        rps(cold_bodies.len(), cold_ns),
        args.warm_requests,
        rps(args.warm_requests, warm_ns),
    );

    // Per-node serving profile: hit ratio and how much of its traffic
    // the node handed to a peer.
    for a in addrs {
        let counter = scrape_counters(a);
        let hits = counter("serve.cache_hits");
        let misses = counter("serve.cache_misses");
        let forwarded = counter("cluster.forwarded");
        let redirects = counter("cluster.redirects");
        let requests = counter("serve.requests");
        let pct = |n: u64, d: u64| 100.0 * n as f64 / (d.max(1) as f64);
        println!(
            "loadgen:   {a}: {requests} reqs, hit {:.0}% ({hits}/{}), \
             forwarded {forwarded} + redirected {redirects} ({:.0}% of traffic)",
            pct(hits, hits + misses),
            hits + misses,
            pct(forwarded + redirects, requests),
        );
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{}", usage());
            std::process::exit(EXIT_USAGE);
        }
    };

    if args.restart {
        run_restart(&args);
    }
    if args.cluster.is_some() {
        run_cluster(&args);
    }

    // Self-host unless pointed at an external server.
    let mut server = None;
    let addr = match args.addr {
        Some(a) => a,
        None => {
            obs::set_metrics(true);
            let handle = serve::serve(ServeConfig::default(), Arc::new(ReportBackend::new()))
                .unwrap_or_else(|e| fail(&format!("cannot self-host: {e}")));
            let a = handle.addr();
            server = Some(handle);
            a
        }
    };

    // Liveness + API sanity before measuring anything.
    match get_once(addr, "/healthz") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => fail(&format!("/healthz returned {}", r.status)),
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    }
    match get_once(addr, "/v1/apps") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => fail(&format!("/v1/apps returned {}", r.status)),
        Err(e) => fail(&format!("/v1/apps: {e}")),
    }

    let paths = query_paths(args.configs, args.ranks);

    // Cold phase: serial, every request a miss. Latencies and the echoed
    // request ids feed the `--out-json` run report.
    let t_cold = Instant::now();
    let mut cold_bodies = Vec::with_capacity(paths.len());
    let mut cold_lats = Vec::with_capacity(paths.len());
    let mut rid_sample: Vec<String> = Vec::new();
    for path in &paths {
        let t_req = Instant::now();
        match get_once(addr, path) {
            Ok(r) if r.status == 200 => {
                cold_lats.push(t_req.elapsed().as_nanos() as u64);
                if rid_sample.len() < 5 {
                    if let Some(rid) = r.header("X-Request-Id") {
                        rid_sample.push(rid.to_string());
                    }
                }
                cold_bodies.push(r.body);
            }
            Ok(r) => fail(&format!(
                "{path}: cold status {} ({})",
                r.status,
                r.body_text()
            )),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
    let cold_ns = t_cold.elapsed().as_nanos() as u64;

    // Warm-equals-cold byte identity, asserted on every run.
    for (path, cold) in paths.iter().zip(&cold_bodies) {
        match get_once(addr, path) {
            Ok(r) if r.status == 200 && &r.body == cold => {}
            Ok(r) if r.status != 200 => fail(&format!("{path}: warm status {}", r.status)),
            Ok(_) => fail(&format!("{path}: warm body differs from cold")),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }

    // Warm phase: closed-loop keep-alive clients over a shared counter.
    let paths = Arc::new(paths);
    let (warm_ns, errors, mut warm_lats) =
        closed_loop(addr, &paths, args.clients, args.warm_requests);
    if errors > 0 {
        fail(&format!("{errors} warm requests failed"));
    }

    let rps = |n: usize, ns: u64| n as f64 / (ns.max(1) as f64 / 1e9);
    let cold_rps = rps(cold_bodies.len(), cold_ns);
    let warm_rps = rps(args.warm_requests, warm_ns);

    println!(
        "loadgen: cold {} reqs in {:.1} ms ({:.1} req/s); warm {} reqs x {} clients in {:.1} ms ({:.0} req/s)",
        cold_bodies.len(),
        cold_ns as f64 / 1e6,
        cold_rps,
        args.warm_requests,
        args.clients,
        warm_ns as f64 / 1e6,
        warm_rps,
    );

    if let Some(out) = &args.out_json {
        let phase =
            |requests: usize, clients: usize, wall_ns: u64, errors: usize, lats: &mut [u64]| {
                Json::obj()
                    .field("requests", requests)
                    .field("clients", clients)
                    .field("errors", errors)
                    .field("wall_ns", wall_ns)
                    .field("p50_ns", quantile_ns(lats, 50))
                    .field("p99_ns", quantile_ns(lats, 99))
            };
        let doc = Json::obj()
            .field("report", "loadgen-run")
            .field("configs", cold_bodies.len())
            .field("ranks", u64::from(args.ranks))
            .field(
                "phases",
                Json::obj()
                    .field(
                        "cold",
                        phase(cold_bodies.len(), 1, cold_ns, 0, &mut cold_lats),
                    )
                    .field(
                        "warm",
                        phase(
                            args.warm_requests,
                            args.clients,
                            warm_ns,
                            errors,
                            &mut warm_lats,
                        ),
                    ),
            )
            .field(
                "request_id_sample",
                Json::Arr(rid_sample.iter().map(|r| Json::from(r.as_str())).collect()),
            )
            .pretty();
        std::fs::write(out, doc + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("loadgen: wrote {out}");
    }

    if let Some(handle) = server {
        handle.shutdown();
    }
}
