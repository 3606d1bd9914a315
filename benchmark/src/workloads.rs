//! The six workloads. Each one sets the program up (`SETUP_REPS` times
//! over, so `setup_s` is a median), runs its timed phase against the last
//! instance, checks every output, and reduces what it saw to the
//! end-to-end metrics plus the harness's own view of the run
//! (`client.*`, counter-derived ratios) for the traced report.
//!
//! Three of them are in `BENCHMARK.json` and gated ([`Workload::GATED`]);
//! all six run by hand (`bench run W`, `bench all`).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use report_gen::{figures, tables, ReportBackend, ReportCfg};
use serve::{ClusterConfig, Forwarding, ServeConfig, ServerHandle};

use crate::check::{check_batch_run, Expect};
use crate::client::{self, Conn, ConnStats, OpenStats, Phase, Samples, SliceStats};
use crate::plan::{self, Request, VIEWS};
use crate::stats::{self, Good};

/// Client threads = keep-alive connections = cores of the reference box.
pub const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median. A smoke run makes do with
/// `SMOKE_SETUP_REPS`.
pub const SETUP_REPS: usize = 7;
pub const SMOKE_SETUP_REPS: usize = 3;
/// Cycles per second of `--seconds` and connection on the 2-core reference
/// box. A cold timed phase runs whole cycles until `--seconds` have passed;
/// the seeded lists hold `LIST_HEADROOM` times what the reference box gets
/// through, so only a program that much faster runs out of list early.
const COLD_PAPER_CYCLES_PER_S: f64 = 5.5;
const COLD_SCALE_CYCLES_PER_S: f64 = 1.15;
const LIST_HEADROOM: f64 = 3.0;
/// `paper_batch` passes in a slice.
const BATCH_SLICE_PASSES: usize = 4;
/// World size of the pre-populated warm keys: warm cost does not depend
/// on it, set-up cost does.
const WARM_RANKS: u32 = 4;
/// A traced run has the same `--seconds` to spend as an untraced one: this
/// share of it goes to the closed loop, this share to each of `warm_hot`'s
/// three open-loop rates, and what is left (a quarter, 10 s of 40) to the
/// layer drivers, which are fixed work.
const TRACED_CLOSED_SHARE: f64 = 0.3;
const TRACED_OPEN_SHARE: f64 = 0.15;
/// Open-loop rates of `warm_hot`'s traced run, ops/s.
pub const OPEN_RATES: [u64; 3] = [20_000, 40_000, 80_000];
/// The latency limit `client.max_rate_in_slo_ops_s` is judged against.
const SLO_P99_FROM_DUE_NS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPaper,
    ColdScale,
    PaperBatch,
    WarmHot,
    WarmSpill,
    FleetProxy,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColdPaper,
        Workload::ColdScale,
        Workload::PaperBatch,
        Workload::WarmHot,
        Workload::WarmSpill,
        Workload::FleetProxy,
    ];

    /// The workloads of `BENCHMARK.json`: the ones the driver runs and
    /// gates. The driver's time limit pays for `4 + 22 x workloads` runs,
    /// and on the shared reference box a run has to be long to be steady
    /// (README, *Noise*): three workloads of 40 s fit, six of 12 s were
    /// refused as too noisy. These three stress disjoint layers — the
    /// streaming cold path, the batch pipeline, the warm serving path.
    pub const GATED: [Workload; 3] = [Workload::ColdPaper, Workload::PaperBatch, Workload::WarmHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::ColdScale => "cold_scale",
            Workload::PaperBatch => "paper_batch",
            Workload::WarmHot => "warm_hot",
            Workload::WarmSpill => "warm_spill",
            Workload::FleetProxy => "fleet_proxy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdPaper => {
                "closed loop over the 23 Table-4 configs at 64 ranks, every request a never-seen seed, store attached: the real cost of a verdict (simulation + streaming analysis)"
            }
            Workload::ColdScale => {
                "closed loop over six configs at 256 ranks, fresh seeds: same layers in the superlinear regime, and the only workload with large peak memory"
            }
            Workload::PaperBatch => {
                "passes of what `report all` does (batch fused pipeline + Tables 3/4, Figures 1/3): the CLI user's path, which the streaming analyzer does not touch"
            }
            Workload::WarmHot => {
                "64 keys x 3 views pre-warmed, 100% LRU hits: HTTP parse, routing, cache get, response write and loopback are everything, simulation is zero"
            }
            Workload::WarmSpill => {
                "1024 stored keys against a 256-entry cache, uniform draws: ~75% LRU misses served by store get + view decode + insert/evict, simulation is zero"
            }
            Workload::FleetProxy => {
                "two in-process nodes, all traffic enters node 1, 3/8 of the keys belong to node 2: the only workload that runs ring lookup and the proxy hop"
            }
        }
    }
}

#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violations that are not a single failed operation (a counter that
    /// moved when it must not, a table that differs).
    pub violations: Vec<String>,
    pub first_error: Option<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The harness's view for the traced report (`client.*` and the
    /// ratios read from the program's counters around the timed phase).
    pub client_view: BTreeMap<&'static str, f64>,
    /// Median client latency, for `serve.server.loopback_gap_us`.
    pub p50_ns: u64,
    /// Slices the end-to-end deciles were taken over.
    pub slices: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// The program's own counters the workloads read around a timed phase.
#[derive(Clone, Copy)]
struct Counters {
    configs: u64,
    hits: u64,
    misses: u64,
    forwarded: u64,
}

impl Counters {
    fn read() -> Counters {
        let m = obs::metrics();
        Counters {
            configs: m.counter("report.configs").get(),
            hits: m.counter("serve.cache_hits").get(),
            misses: m.counter("serve.cache_misses").get(),
            forwarded: m.counter("cluster.forwarded").get(),
        }
    }
}

/// A directory under `benchmark/out/` that lives as long as this value.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> std::io::Result<ScratchDir> {
        let path = crate::out_dir().join(format!("run-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One set-up instance: the serving node(s), where load enters, and the
/// generated work. Dropping it drains and joins the servers, then
/// removes the store directory.
struct Instance {
    nodes: Vec<ServerHandle>,
    /// The `CONNS` keep-alive connections into the entry node. Set-up,
    /// the timed phase and the re-fetch all use these, so the same
    /// workers (and their allocator arenas) serve the whole run.
    conns: Vec<Conn>,
    work: Work,
    _dir: Option<ScratchDir>,
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Close the connections first: a worker parked on one would hold
        // the drain up until its read times out.
        self.conns.clear();
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
    }
}

enum Work {
    /// Per-connection lists, sent in order, and the requests in a cycle.
    Fixed(Vec<Vec<Request>>, usize),
    /// A pool each connection draws from for the window.
    Pool(Vec<Request>),
}

type Res<T> = Result<T, String>;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn connect_all(addr: SocketAddr) -> Res<Vec<Conn>> {
    (0..CONNS)
        .map(|_| Conn::connect(addr).map_err(io_err("connect")))
        .collect()
}

fn backend() -> Arc<ReportBackend> {
    Arc::new(ReportBackend::new())
}

fn open_store(dir: &Path, compact_threshold_bytes: u64) -> Res<Arc<store::Store>> {
    store::Store::open(
        dir,
        store::StoreOptions {
            compact_threshold_bytes,
        },
    )
    .map(Arc::new)
    .map_err(|e| format!("store open: {e}"))
}

/// Fetch `path` and return the body, insisting on a 200.
fn fetch(conn: &mut Conn, path: &str) -> Res<(Vec<u8>, Option<u32>)> {
    let reply = conn
        .roundtrip(&plan::wire(path))
        .map_err(|e| format!("{path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("{path}: status {}", reply.status));
    }
    Ok((reply.body.to_vec(), reply.served_by))
}

/// Cycles per connection the reference box gets through in `seconds`.
fn cold_cycles(w: Workload, seconds: f64) -> usize {
    let rate = match w {
        Workload::ColdPaper => COLD_PAPER_CYCLES_PER_S,
        _ => COLD_SCALE_CYCLES_PER_S,
    };
    ((seconds * rate).round() as usize).max(1)
}

/// `cold_*`: store + one node, the generated lists, and one untimed cycle
/// (its own seeds) so lazy initialisation is paid before the clock starts.
fn setup_cold(w: Workload, p: &Params, rep: usize) -> Res<Instance> {
    let (specs, ranks) = match w {
        Workload::ColdPaper => (plan::table4_specs(), 64),
        _ => (plan::scale_specs(), 256),
    };
    let dir = ScratchDir::new(&format!("{}-{rep}", w.name())).map_err(io_err("scratch dir"))?;
    // A long-lived server compacts its journal routinely; a threshold of
    // 2 MiB makes that happen inside a 12-second window as well.
    let store = open_store(dir.path(), 2 << 20)?;
    let node = serve::serve(
        ServeConfig {
            store: Some(store),
            ..ServeConfig::default()
        },
        backend(),
    )
    .map_err(io_err("serve"))?;
    let cycles = (cold_cycles(w, p.seconds) as f64 * LIST_HEADROOM).ceil() as usize;
    let lists = plan::cold_plan(&specs, ranks, (CONNS, cycles), p.seed, true);
    // The warm-up cycle runs the same configuration on every connection
    // at the same moment, so the process's memory peak — the largest
    // configuration on all workers at once — is reached here, every run,
    // and not by a coincidence of the shuffled orders later on.
    let warmup = plan::cold_plan(&specs, ranks, (CONNS, 1), !p.seed, false);
    let barrier = std::sync::Barrier::new(CONNS);
    let mut conns = connect_all(node.addr())?;
    std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(&warmup)
            .map(|(conn, list)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut result = Ok(());
                    for req in list {
                        // Reach every barrier even after a failure, or
                        // the other connection would wait forever.
                        barrier.wait();
                        if result.is_ok() {
                            result = conn.op(req).map(|_| ());
                        }
                    }
                    result.map_err(|e| format!("warm-up cycle: {e}"))
                })
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|t| t.join().expect("warm-up thread panicked"))
    })?;
    Ok(Instance {
        conns,
        nodes: vec![node],
        work: Work::Fixed(lists, specs.len()),
        _dir: Some(dir),
    })
}

/// `warm_hot` / `warm_spill`: one node, `n` keys requested once each
/// (cold) with the bodies recorded as the expectation.
fn setup_warm(w: Workload, p: &Params, rep: usize) -> Res<Instance> {
    let (nkeys, views, dir) = match w {
        Workload::WarmHot => (64, &VIEWS[..], None),
        _ => {
            let dir =
                ScratchDir::new(&format!("{}-{rep}", w.name())).map_err(io_err("scratch dir"))?;
            (1024, &VIEWS[..1], Some(dir))
        }
    };
    let store = match &dir {
        Some(dir) => Some(open_store(
            dir.path(),
            store::StoreOptions::default().compact_threshold_bytes,
        )?),
        None => None,
    };
    let backend = backend();
    let node = serve::serve(
        ServeConfig {
            store,
            ..ServeConfig::default()
        },
        backend.clone(),
    )
    .map_err(io_err("serve"))?;
    let keys = plan::warm_keys(nkeys, WARM_RANKS, p.seed, backend.as_ref(), None);
    let mut conns = connect_all(node.addr())?;
    let mut pool = Vec::with_capacity(keys.len() * views.len());
    for key in &keys {
        for view in views {
            let path = key.path(view);
            let (body, _) = fetch(&mut conns[0], &path)?;
            pool.push(Request {
                wire: plan::wire(&path),
                expect: Expect::Bytes {
                    body: Arc::from(body),
                    served_by: None,
                },
            });
        }
    }
    Ok(Instance {
        conns,
        nodes: vec![node],
        work: Work::Pool(pool),
        _dir: dir,
    })
}

fn free_port() -> Res<u16> {
    std::net::TcpListener::bind(("127.0.0.1", 0))
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(io_err("pick a port"))
}

/// `fleet_proxy`: two nodes on ports picked up front; every key is warmed
/// through node 1, which proxies node 2's share.
fn setup_fleet(p: &Params) -> Res<Instance> {
    let ports = [free_port()?, free_port()?];
    let peers: Vec<cluster::Peer> = (1u32..)
        .zip(ports)
        .map(|(id, port)| cluster::Peer {
            id,
            addr: format!("127.0.0.1:{port}"),
        })
        .collect();
    let backend = backend();
    let boot = |id: u32| {
        serve::serve(
            ServeConfig {
                port: ports[(id - 1) as usize],
                cluster: Some(ClusterConfig {
                    node_id: id,
                    peers: peers.clone(),
                    forwarding: Forwarding::Proxy,
                }),
                ..ServeConfig::default()
            },
            backend.clone(),
        )
        .map_err(|e| format!("serve node {id}: {e}"))
    };
    // Node 2 first: node 1's prober then finds its peer alive at once and
    // never degrades a forward to a local recompute.
    let node2 = boot(2)?;
    let node1 = boot(1)?;
    // The harness's own ring, built from the member ids alone.
    let ring = cluster::Ring::build(&[1, 2]);
    let keys = plan::warm_keys(64, WARM_RANKS, p.seed, backend.as_ref(), Some(&ring));
    let mut conns = connect_all(node1.addr())?;
    let mut via2 = Conn::connect(node2.addr()).map_err(io_err("connect"))?;
    let mut pool = Vec::with_capacity(keys.len() * VIEWS.len());
    for key in &keys {
        let owner = ring.owner(key.ring_point(backend.as_ref()));
        let served_by = owner.filter(|&o| o != 1);
        for view in VIEWS {
            let path = key.path(view);
            let (body, by) = fetch(&mut conns[0], &path)?;
            if by != served_by {
                return Err(format!("{path}: served by {by:?}, ring owner is {owner:?}"));
            }
            // The proxy hop must pass the owner's bytes through untouched.
            if owner == Some(2) && fetch(&mut via2, &path)?.0 != body {
                return Err(format!("{path}: proxied bytes differ from the owner's"));
            }
            pool.push(Request {
                wire: plan::wire(&path),
                expect: Expect::Bytes {
                    body: Arc::from(body),
                    served_by,
                },
            });
        }
    }
    Ok(Instance {
        conns,
        nodes: vec![node1, node2],
        work: Work::Pool(pool),
        _dir: None,
    })
}

fn setup(w: Workload, p: &Params, rep: usize) -> Res<Instance> {
    match w {
        Workload::ColdPaper | Workload::ColdScale => setup_cold(w, p, rep),
        Workload::WarmHot | Workload::WarmSpill => setup_warm(w, p, rep),
        Workload::FleetProxy => setup_fleet(p),
        Workload::PaperBatch => unreachable!("paper_batch has no server"),
    }
}

/// Set up `reps` times, each from nothing, tearing the previous instance
/// down outside the timing; keep the last.
fn setup_median<T>(reps: usize, mut one: impl FnMut(usize) -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(one(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Fold a finished phase into the outcome. The end-to-end figures are
/// deciles over slices, taken on the good side (see
/// [`stats::slice_decile`]). A stall of the program itself is not hidden
/// by that: it is in the whole-phase tails (`client.*`).
fn fold_phase(out: &mut Outcome, conns: &[ConnStats], slices: &SliceStats, sorted: &[u64]) {
    let (mut attempted, mut failed) = (0, 0);
    for c in conns {
        attempted += c.attempted;
        failed += c.failed;
        if out.first_error.is_none() {
            out.first_error.clone_from(&c.first_error);
        }
    }
    out.attempted += attempted;
    out.failed += failed;
    out.slices = slices.rates.len();
    let p50_ns = stats::slice_decile(&slices.p50_ns, Good::Low);
    out.p50_ns = p50_ns as u64;
    out.end_to_end.insert(
        "throughput_ops_s",
        stats::slice_decile(&slices.rates, Good::High),
    );
    out.end_to_end.insert("latency_p50_us", p50_ns / 1e3);
    out.client_view.insert(
        "client.latency_p90_us",
        stats::slice_decile(&slices.p90_ns, Good::Low) / 1e3,
    );
    out.end_to_end.insert(
        "cpu_us_per_op",
        stats::slice_decile(&slices.cpu_ns_per_op, Good::Low) / 1e3,
    );
    // Whole-phase tails. Failed operations have no sample: they sit
    // beyond the last one, in proportion when only every n-th operation
    // is sampled.
    let with_failed = if attempted == failed {
        sorted.len()
    } else {
        (sorted.len() as u64 * attempted).div_ceil(attempted - failed) as usize
    };
    let us = |q: f64| {
        // A quantile that lands on a failed op has no value; the run is
        // already incorrect, so report the worst sample seen.
        stats::quantile(sorted, with_failed, q)
            .or(sorted.last().copied())
            .unwrap_or(0) as f64
            / 1e3
    };
    out.client_view
        .insert("client.samples", sorted.len() as f64);
    out.client_view.insert("client.latency_p99_us", us(0.99));
    out.client_view.insert("client.latency_p999_us", us(0.999));
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Re-fetch the requests whose cold bodies were kept and insist the warm
/// bytes equal them (the newest come from the LRU, the rest from the
/// store through the view codec).
fn refetch_kept(
    out: &mut Outcome,
    conn: &mut Conn,
    lists: &[Vec<Request>],
    conns: &[ConnStats],
) -> Res<()> {
    for (list, stats) in lists.iter().zip(conns) {
        for (k, cold) in &stats.kept {
            let warm = conn.roundtrip(&list[*k].wire).map_err(io_err("re-fetch"))?;
            out.attempted += 1;
            if warm.status != 200 || warm.body != &cold[..] {
                out.failed += 1;
                out.first_error
                    .get_or_insert_with(|| "warm bytes differ from cold bytes".to_string());
            }
        }
    }
    Ok(())
}

/// Reduce open-loop connections at one rate to `(p50, p99, lateness,
/// in_slo)`.
fn fold_open(conns: &[OpenStats]) -> (f64, f64, u64, bool) {
    let mut from_due: Vec<u64> = conns
        .iter()
        .flat_map(|c| c.from_due_ns.iter().copied())
        .collect();
    from_due.sort_unstable();
    let attempted: usize = conns.iter().map(|c| c.attempted as usize).sum();
    let q = |q: f64| stats::quantile(&from_due, attempted, q);
    let lateness = conns.iter().map(|c| c.max_lateness_ns).max().unwrap_or(0);
    // A backlog that grew is still there at the end: the last request of
    // some connection was sent later than the latency limit allows.
    let backlog = conns
        .iter()
        .any(|c| c.final_lateness_ns > SLO_P99_FROM_DUE_NS);
    let in_slo = !backlog && q(0.99).is_some_and(|p99| p99 <= SLO_P99_FROM_DUE_NS);
    (
        q(0.50).unwrap_or(0) as f64 / 1e3,
        q(0.99).or(from_due.last().copied()).unwrap_or(0) as f64 / 1e3,
        lateness,
        in_slo,
    )
}

const OPEN_KEYS: [[&str; 2]; 3] = [
    ["client.open_20k.p50_us", "client.open_20k.p99_us"],
    ["client.open_40k.p50_us", "client.open_40k.p99_us"],
    ["client.open_80k.p50_us", "client.open_80k.p99_us"],
];

/// `warm_hot`'s open-loop phases: fixed rates, latency from the due time.
fn open_phases(out: &mut Outcome, conns: &mut [Conn], pool: &[Request], p: &Params) {
    let duration = Duration::from_secs_f64(p.seconds * TRACED_OPEN_SHARE);
    let (mut worst_late, mut best_rate) = (0u64, 0u64);
    for (rate, names) in OPEN_RATES.into_iter().zip(OPEN_KEYS) {
        let stats = client::open_phase(conns, pool, p.seed ^ rate, rate, duration);
        for c in &stats {
            out.attempted += c.attempted;
            out.failed += c.failed;
        }
        let (p50, p99, late, in_slo) = fold_open(&stats);
        out.client_view.insert(names[0], p50);
        out.client_view.insert(names[1], p99);
        worst_late = worst_late.max(late);
        if in_slo {
            best_rate = best_rate.max(rate);
        }
    }
    out.client_view
        .insert("client.open_max_lateness_us", worst_late as f64 / 1e3);
    out.client_view
        .insert("client.max_rate_in_slo_ops_s", best_rate as f64);
}

fn run_served(w: Workload, p: &Params) -> Res<Outcome> {
    let timed = Params {
        seconds: p.seconds * if p.trace { TRACED_CLOSED_SHARE } else { 1.0 },
        ..*p
    };
    let (mut inst, setup_s) = setup_median(p.setup_reps, |rep| setup(w, &timed, rep))?;
    let Instance { conns, work, .. } = &mut inst;
    let mut out = Outcome::default();
    out.end_to_end.insert("setup_s", setup_s);

    let window = Duration::from_secs_f64(timed.seconds);
    let mut samples = match &*work {
        Work::Fixed(lists, _) => Samples::new(lists.len(), lists[0].len()),
        // Room for 200 000 ops/s per connection, four times today's.
        Work::Pool(_) => Samples::new(
            CONNS,
            (200_000.0 * timed.seconds) as usize / client::WINDOW_STRIDE,
        ),
    };
    let before = Counters::read();
    let phase: Phase = match &*work {
        Work::Fixed(lists, cycle) => {
            // Kept bodies spread over what the reference box gets through.
            let expected = cold_cycles(w, timed.seconds) * cycle;
            let keep_every = expected.div_ceil(client::KEEP_MAX).max(1);
            client::closed_fixed(conns, lists, (*cycle, keep_every), window, &mut samples)
        }
        Work::Pool(pool) => {
            let warmup = Duration::from_secs(2).min(window / 5);
            // Tenth-of-a-second slices; a short (smoke) window gets three.
            let slice = Duration::from_millis(100).min(window / 3);
            let times = (warmup, window, slice);
            client::closed_window(conns, pool, p.seed, times, &mut samples)
        }
    };
    let after = Counters::read();
    let slices = phase.slice_stats(&samples, matches!(work, Work::Pool(_)));
    let sorted = phase.sorted(&mut samples);
    fold_phase(&mut out, &phase.conns, &slices, sorted.all);
    if w == Workload::FleetProxy {
        out.client_view.insert(
            "serve.fleet.hop_added_us",
            (sorted.foreign_p50 as f64 - sorted.local_p50 as f64) / 1e3,
        );
    }

    // The counters bracket every request the connections sent (warm-up
    // included), which `sent_total` / `sent_foreign` count on this side.
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    out.client_view.insert(
        "serve.cache.hit_ratio",
        ratio(after.hits - before.hits, lookups),
    );
    let sent: u64 = phase.conns.iter().map(|c| c.sent_total).sum();
    let sent_foreign: u64 = phase.conns.iter().map(|c| c.sent_foreign).sum();
    out.client_view
        .insert("serve.fleet.forwarded_share", ratio(sent_foreign, sent));
    // Every request for a key of node 2, and no other, crossed the hop.
    if after.forwarded - before.forwarded != sent_foreign {
        out.violations.push(format!(
            "node 1 forwarded {} requests, the ring says {sent_foreign}",
            after.forwarded - before.forwarded
        ));
    }
    match &*work {
        Work::Fixed(lists, _) => refetch_kept(&mut out, &mut conns[0], lists, &phase.conns)?,
        Work::Pool(pool) => {
            // Warm means warm: not one simulation since set-up ended.
            if after.configs != before.configs {
                out.violations.push(format!(
                    "{} simulation(s) ran during a warm phase",
                    after.configs - before.configs
                ));
            }
            if p.trace && w == Workload::WarmHot {
                open_phases(&mut out, conns, pool, p);
            }
        }
    }
    drop(inst);
    Ok(out)
}

/// `paper_batch`: what `report all` computes, as passes. Set-up is one
/// untimed pass at the paper's seed, byte-compared with the committed
/// `reports/table4.txt`.
fn run_batch(p: &Params) -> Res<Outcome> {
    let threads = crate::sysinfo::nproc();
    let render = |runs: &[report_gen::AnalyzedRun]| {
        (
            tables::table3(runs),
            tables::table4(runs),
            figures::fig1(runs),
            figures::fig3(runs),
        )
    };
    let pass = |seed: u64| {
        let cfg = ReportCfg {
            nranks: 64,
            seed,
            max_skew_ns: 20_000,
        };
        let runs = report_gen::analyze_all_threaded(&cfg, false, threads);
        let rendered = render(&runs);
        (runs, rendered)
    };
    let mut out = Outcome::default();
    let ((), setup_s) = setup_median(p.setup_reps, |_| {
        let path = crate::repo_root().join("reports/table4.txt");
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (_, (_, table4, _, _)) = pass(2021);
        out.attempted += 1;
        if table4 != committed {
            out.failed += 1;
            out.first_error
                .get_or_insert_with(|| "Table 4 differs from reports/table4.txt".to_string());
        }
        Ok(())
    })?;
    out.end_to_end.insert("setup_s", setup_s);

    let window =
        Duration::from_secs_f64(p.seconds * if p.trace { TRACED_CLOSED_SHARE } else { 1.0 });
    let base = (simrng::SimRng::seed_from_u64(p.seed).next_u64() >> 24) << 24;
    let mut conn = ConnStats::default();
    // Wall and process CPU time of each correct pass, ns.
    let mut timed: Vec<(u64, u64)> = Vec::new();
    let start = Instant::now();
    // Whole slices of passes (seeds `base`, `base + 1`, ...) until the
    // window has passed.
    for k in 0.. {
        if k % BATCH_SLICE_PASSES as u64 == 0 && k > 0 && start.elapsed() >= window {
            break;
        }
        let (t, cpu0) = (Instant::now(), crate::sysinfo::cpu_time_ns());
        let (runs, rendered) = pass(base + k);
        let lat = t.elapsed().as_nanos() as u64;
        let cpu = crate::sysinfo::cpu_time_ns() - cpu0;
        std::hint::black_box(&rendered);
        if conn.count(runs.iter().try_for_each(check_batch_run)) {
            timed.push((lat, cpu));
        }
    }
    let mut slices = SliceStats::default();
    for chunk in timed.chunks_exact(BATCH_SLICE_PASSES) {
        let mut sorted: Vec<u64> = chunk.iter().map(|(lat, _)| *lat).collect();
        sorted.sort_unstable();
        let q = |q: f64| stats::quantile(&sorted, sorted.len(), q).unwrap_or(0) as f64;
        let n = chunk.len() as f64;
        slices
            .rates
            .push(n / (sorted.iter().sum::<u64>() as f64 / 1e9));
        slices.p50_ns.push(q(0.5));
        slices.p90_ns.push(q(0.9));
        slices
            .cpu_ns_per_op
            .push(chunk.iter().map(|(_, cpu)| *cpu).sum::<u64>() as f64 / n);
    }
    let mut latencies: Vec<u64> = timed.iter().map(|(lat, _)| *lat).collect();
    latencies.sort_unstable();
    fold_phase(&mut out, &[conn], &slices, &latencies);
    Ok(out)
}

pub fn run(w: Workload, p: &Params) -> Res<Outcome> {
    let mut out = match w {
        Workload::PaperBatch => run_batch(p)?,
        _ => run_served(w, p)?,
    };
    // Read before the traced run's layer drivers add their own memory.
    out.client_view
        .insert("process.peak_rss_mib", crate::sysinfo::peak_rss_mib());
    Ok(out)
}
