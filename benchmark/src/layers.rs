//! The traced run: per-layer cost, measured from outside.
//!
//! Nothing in the program is edited to be measured. The harness times its
//! own calls into each crate's public functions, wraps the analysis
//! backend behind the `Backend` trait and the analyzer behind the
//! `RunSink` trait to see inside a request, and reads exact work counts
//! from `obs::metrics()` at the same boundaries. Single-threaded and
//! in-process: these numbers say where time goes, not how fast the
//! service is — that is what the untraced workloads are for.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hpcapps::{AppId, AppSpec};
use iolibs::{run_app_result, FaultPlan, RunConfig, RunSink, SinkHandle};
use recorder::Record;
use report_gen::{figures, tables, ReportBackend, ReportCfg};
use semantics_core::hb::validate_conflicts;
use semantics_core::incremental::StreamingAnalyzer;
use semantics_core::metadata::MetadataCensus;
use semantics_core::required_model;
use serve::{
    decode_views, encode_views, parse_request, AnalysisQuery, AnalysisViews, ApiError, Backend,
    ConnReader, HttpLimits, Request, Response, Router, ShardedLru,
};

use crate::check::{paper_model, verdict_model};
use crate::plan::{self, Key};
use crate::spans::{closure_pct, Tracer};
use crate::stats;

type Res<T> = Result<T, String>;

pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace_json: String,
    /// Human-readable per-configuration decomposition rows.
    pub table: String,
}

/// Median ns per call of `f(i)` over `batches` batches of `per_batch`
/// calls (one clock pair per batch, so the clock is not what is timed).
fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&per)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A `Write` that counts what `Response::write_to` hands the socket.
#[derive(Default)]
struct CountingSink {
    writes: u64,
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `ReportBackend` with a span around each trait call — what the
/// `Backend` trait makes visible from outside the router.
struct TimedBackend {
    inner: ReportBackend,
    tracer: Arc<Mutex<Tracer>>,
}

impl TimedBackend {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.lock().expect("tracer lock").enter(name);
        let out = f();
        self.tracer.lock().expect("tracer lock").exit(id);
        out
    }
}

impl Backend for TimedBackend {
    fn apps_json(&self) -> String {
        self.inner.apps_json()
    }

    fn canonicalize(&self, query: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        self.span("report.canonicalize", || self.inner.canonicalize(query))
    }

    fn analyze(&self, query: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        self.span("report.analyze", || self.inner.analyze(query))
    }
}

/// The analyzer behind the sink trait, with the time spent inside it
/// summed: what the streaming analysis costs while the simulation runs.
struct TimingSink {
    inner: Arc<StreamingAnalyzer>,
    ns: AtomicU64,
}

impl TimingSink {
    fn timed(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl RunSink for TimingSink {
    fn push(&self, rank: u32, records: &[Record], frontier: u64) {
        self.timed(|| self.inner.push(rank, records, frontier));
    }

    fn rank_done(&self, rank: u32) {
        self.timed(|| self.inner.rank_done(rank));
    }

    fn epoch_released(&self, epoch: u64) {
        self.timed(|| self.inner.epoch_released(epoch));
    }

    fn assembly_remap(&self, remap: &[u32]) {
        self.timed(|| self.inner.set_remap(remap));
    }
}

fn parse(wire: &[u8]) -> Res<Request> {
    parse_request(&mut ConnReader::new(wire), &HttpLimits::default())
        .map_err(|e| format!("parse: {e:?}"))
}

fn counter(name: &str) -> u64 {
    obs::metrics().counter(name).get()
}

/// Counts the simulator layers publish once per run.
const SIM_COUNTERS: [&str; 8] = [
    "mpisim.ops",
    "mpisim.task_switches",
    "mpisim.messages",
    "mpisim.barrier_epochs",
    "pfssim.writes",
    "pfssim.reads",
    "pfssim.locks_acquired",
    "pfssim.commits",
];

/// One traced configuration: the served request and its decomposition.
struct Row {
    name: String,
    ranks: u32,
    /// The whole served request: parse, handle, write.
    request_ns: u64,
    /// What the simulator layers counted during the served request.
    counts: [u64; 8],
    analyze_ns: u64,
    handle_self_ns: u64,
    run_ns: u64,
    records: u64,
    push_ns: u64,
    finalize_ns: u64,
    adjust_ns: u64,
    census_ns: u64,
    hb_ns: u64,
    pieces_ns: u64,
    peak_live: u64,
    pairs_checked: u64,
}

impl Row {
    fn closure(&self) -> f64 {
        closure_pct(self.pieces_ns, self.analyze_ns)
    }

    /// Keep the quicker of two repetitions, field by field. Whatever else
    /// runs on the box only ever adds time, so the minimum over
    /// repetitions is the estimate of the undisturbed cost — and two
    /// executions can only be compared once that noise is out of both.
    fn best(self, other: Row) -> Row {
        Row {
            request_ns: self.request_ns.min(other.request_ns),
            analyze_ns: self.analyze_ns.min(other.analyze_ns),
            handle_self_ns: self.handle_self_ns.min(other.handle_self_ns),
            run_ns: self.run_ns.min(other.run_ns),
            push_ns: self.push_ns.min(other.push_ns),
            finalize_ns: self.finalize_ns.min(other.finalize_ns),
            adjust_ns: self.adjust_ns.min(other.adjust_ns),
            census_ns: self.census_ns.min(other.census_ns),
            hb_ns: self.hb_ns.min(other.hb_ns),
            pieces_ns: self.pieces_ns.min(other.pieces_ns),
            peak_live: self.peak_live.max(other.peak_live),
            // Counts and sizes are those of the first repetition's key.
            ..self
        }
    }

    /// Whether the row's closure is held to account. The served request
    /// and its decomposition are two executions; below a few ms their
    /// difference is the box's noise, not the decomposition's error.
    fn checked(&self) -> bool {
        self.analyze_ns >= 5_000_000
    }
}

fn run_config(key: &Key) -> RunConfig {
    RunConfig::new(key.ranks, key.seed)
        .with_max_skew_ns(20_000)
        .with_faults(FaultPlan::none())
        .with_label(key.spec.config_name())
}

fn simulate(cfg: &RunConfig, spec: &'static AppSpec) -> Res<iolibs::RunOutcome> {
    run_app_result(cfg, |ctx| spec.run_with(ctx, &spec.params))
        .map_err(|e| format!("{}: {e}", spec.config_name()))
}

/// Serve `key` through parse → handle → write with spans, then execute
/// it again piece by piece, the way `analyze_incremental` composes it.
fn trace_key(router: &Router, tracer: &Arc<Mutex<Tracer>>, key: &Key) -> Res<Row> {
    let lock = || tracer.lock().expect("tracer lock");
    let wire = plan::wire(&key.path("verdict"));
    let cfg = run_config(key);

    // --- the served request --------------------------------------------
    let served = lock().next_request();
    let request = lock().enter("request");
    let id = lock().enter("serve.http.parse");
    let req = parse(&wire)?;
    lock().exit(id);
    let counts0 = SIM_COUNTERS.map(counter);
    let handle = lock().enter("serve.router.handle");
    let resp: Response = router.handle(&req);
    lock().exit(handle);
    let mut counts = SIM_COUNTERS.map(counter);
    for (after, before) in counts.iter_mut().zip(counts0) {
        *after -= before;
    }
    let id = lock().enter("serve.http.write");
    resp.write_to(&mut CountingSink::default())
        .map_err(|e| format!("write: {e}"))?;
    lock().exit(id);
    let request_ns = lock().exit(request);
    let model = verdict_model(&resp.body)
        .ok_or_else(|| format!("{}: no verdict in response", key.spec.config_name()))?
        .to_string();
    if resp.status != 200 || model != paper_model(key.spec) {
        return Err(format!(
            "{}: served status {} model {model}",
            key.spec.config_name(),
            resp.status
        ));
    }

    // --- the same key, decomposed ---------------------------------------
    // (1) The simulation alone: iolibs + mpisim + pfssim + recorder as one
    // unit, no sink attached.
    let t = Instant::now();
    let outcome = simulate(&cfg, key.spec)?;
    let run_ns = t.elapsed().as_nanos() as u64;
    let records = outcome.trace.total_records() as u64;
    drop(outcome);

    // (2) The streaming pipeline, each piece under its own span.
    let pieces = lock().next_request();
    let span = |name: &'static str| lock().enter(name);
    let analyzer = Arc::new(StreamingAnalyzer::new(key.ranks));
    let sink = Arc::new(TimingSink {
        inner: Arc::clone(&analyzer),
        ns: AtomicU64::new(0),
    });
    let id = span("iolibs.run+sink");
    let outcome = simulate(&cfg.with_sink(SinkHandle::new(sink.clone())), key.spec)?;
    let push_ns = sink.ns.load(Ordering::Relaxed);
    lock().aggregate("core.incremental.push", push_ns);
    lock().exit(id);
    let id = span("core.incremental.finalize");
    let inc = analyzer.finalize();
    lock().exit(id);
    let id = span("recorder.adjust");
    let adjusted = recorder::adjust::apply(&outcome.trace);
    lock().exit(id);
    let id = span("core.metadata.census");
    let census = MetadataCensus::from_trace(&adjusted);
    lock().exit(id);
    let id = span("core.verdict");
    let verdict = required_model(&inc.session, &inc.commit);
    lock().exit(id);
    let id = span("core.hb.validate");
    let hb = validate_conflicts(&adjusted, &inc.session);
    lock().exit(id);
    let (peak_live, pairs_checked) = (inc.peak_live_intervals, inc.pairs_checked);
    let id = span("drop");
    drop((outcome, inc, adjusted, census, hb, analyzer, sink));
    lock().exit(id);
    if verdict.required.name() != model {
        return Err(format!(
            "{}: decomposed run requires {}, the served verdict said {model}",
            key.spec.config_name(),
            verdict.required.name()
        ));
    }

    let t = lock();
    let sum = |name: &str, rid: u32| t.sum_ns(name, rid);
    let backend_ns = sum("report.canonicalize", served) + sum("report.analyze", served);
    let names = [
        "iolibs.run+sink",
        "core.incremental.finalize",
        "recorder.adjust",
        "core.metadata.census",
        "core.verdict",
        "core.hb.validate",
        "drop",
    ];
    Ok(Row {
        name: key.spec.config_name(),
        ranks: key.ranks,
        request_ns,
        counts,
        analyze_ns: sum("report.analyze", served),
        handle_self_ns: sum("serve.router.handle", served) - backend_ns,
        run_ns,
        records,
        push_ns,
        finalize_ns: sum("core.incremental.finalize", pieces),
        adjust_ns: sum("recorder.adjust", pieces),
        census_ns: sum("core.metadata.census", pieces),
        hb_ns: sum("core.hb.validate", pieces),
        pieces_ns: names.iter().map(|n| sum(n, pieces)).sum(),
        peak_live,
        pairs_checked,
    })
}

/// serve::http, serve::router (warm and store-hit paths), serve::cache,
/// cluster::Ring, core::cachekey — the layers a warm request crosses.
fn warm_layers(m: &mut BTreeMap<&'static str, f64>, seed: u64, quick: bool) -> Res<()> {
    let (batches, per_batch) = if quick { (5, 64) } else { (41, 256) };
    let backend = Arc::new(ReportBackend::new());
    let keys = plan::warm_keys(64, 4, seed, backend.as_ref(), None);
    let wires: Vec<Box<[u8]>> = keys
        .iter()
        .flat_map(|k| plan::VIEWS.map(|v| plan::wire(&k.path(v))))
        .collect();
    let reqs: Vec<Request> = wires.iter().map(|w| parse(w)).collect::<Res<_>>()?;
    let n = reqs.len();

    m.insert(
        "serve.http.parse_ns",
        ns_per_call(batches, per_batch, |i| {
            std::hint::black_box(parse(&wires[i % n]).expect("parsed once already"));
        }),
    );

    let router = Router::new(backend.clone(), 256);
    let responses: Vec<Response> = reqs.iter().map(|r| router.handle(r)).collect();
    if let Some(bad) = responses.iter().find(|r| r.status != 200) {
        return Err(format!("warm-up request answered {}", bad.status));
    }
    m.insert(
        "serve.router.handle_warm_ns",
        ns_per_call(batches, per_batch, |i| {
            std::hint::black_box(router.handle(&reqs[i % n]));
        }),
    );
    let mut sink = CountingSink::default();
    m.insert(
        "serve.http.write_ns",
        ns_per_call(batches, per_batch, |i| {
            responses[i % n]
                .write_to(&mut sink)
                .expect("sink never fails");
        }),
    );
    let written = (batches * per_batch) as f64;
    m.insert(
        "serve.http.writes_per_response",
        sink.writes as f64 / written,
    );
    m.insert("serve.http.response_bytes", sink.bytes as f64 / written);

    // Store-hit path: every key is in the store, the cache holds one
    // entry per shard, and the keys come round-robin — so each request
    // misses the LRU, reads the store, decodes the views and evicts.
    let dir = crate::out_dir().join(format!("layers-{}-router", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = store::Store::open(&dir, store::StoreOptions::default())
        .map(Arc::new)
        .map_err(|e| format!("store open: {e}"))?;
    let spill = Router::with_store(backend.clone(), 8, Some(Arc::clone(&store)));
    let verdicts: Vec<&Request> = reqs.iter().step_by(plan::VIEWS.len()).collect();
    for r in &verdicts {
        spill.handle(r);
    }
    let hits0 = counter("store.hits");
    let calls = if quick { 256 } else { 4096 };
    m.insert(
        "serve.router.handle_store_hit_ns",
        ns_per_call(calls / 64, 64, |i| {
            std::hint::black_box(spill.handle(verdicts[i % verdicts.len()]));
        }),
    );
    let store_hits = counter("store.hits") - hits0;
    drop(spill);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if store_hits != calls as u64 {
        return Err(format!(
            "store-hit driver: {store_hits} store hits in {calls} requests"
        ));
    }

    let query = keys[0].query(backend.as_ref());
    let views = backend
        .analyze(&query)
        .map_err(|e| format!("analyze: {e:?}"))?;
    let encoded = encode_views(&views);
    m.insert(
        "serve.router.encode_views_ns",
        ns_per_call(batches, per_batch, |_| {
            std::hint::black_box(encode_views(&views));
        }),
    );
    m.insert(
        "serve.router.decode_views_ns",
        ns_per_call(batches, per_batch, |_| {
            std::hint::black_box(decode_views(&encoded));
        }),
    );
    m.insert(
        "report.canonicalize_ns",
        ns_per_call(batches, per_batch, |_| {
            std::hint::black_box(backend.canonicalize(query.clone()).is_ok());
        }),
    );
    m.insert(
        "core.cachekey.build_ns",
        ns_per_call(batches, per_batch, |_| {
            std::hint::black_box(query.cache_key());
        }),
    );

    // serve::cache on its own: 256 resident keys, 1024 that are not.
    let cache_keys: Vec<semantics_core::CacheKey> = (0..1280u64)
        .map(|i| {
            AnalysisQuery {
                seed: i,
                ..query.clone()
            }
            .cache_key()
        })
        .collect();
    let (resident, absent) = cache_keys.split_at(256);
    let value = Arc::new(encoded);
    let lru: ShardedLru<Arc<Vec<u8>>> = ShardedLru::new(256, 8);
    for k in resident {
        lru.insert(k, Arc::clone(&value));
    }
    m.insert(
        "serve.cache.get_hit_ns",
        ns_per_call(batches, per_batch, |i| {
            std::hint::black_box(lru.get(&resident[i % 256]));
        }),
    );
    m.insert(
        "serve.cache.get_miss_ns",
        ns_per_call(batches, per_batch, |i| {
            std::hint::black_box(lru.get(&absent[i % 1024]));
        }),
    );
    m.insert(
        "serve.cache.insert_evict_ns",
        ns_per_call(batches, per_batch, |i| {
            lru.insert(&absent[i % 1024], Arc::clone(&value));
        }),
    );

    let ring = cluster::Ring::build(&[1, 2]);
    let points: Vec<u64> = cache_keys.iter().map(|k| k.fingerprint().0).collect();
    m.insert(
        "cluster.ring.owner_ns",
        ns_per_call(batches, per_batch, |i| {
            std::hint::black_box(ring.owner(points[i % points.len()]));
        }),
    );
    m.insert(
        "cluster.ring.build_us",
        ns_per_call(batches.min(11), 1, |_| {
            std::hint::black_box(cluster::Ring::build(&[1, 2]));
        }) / 1e3,
    );
    Ok(())
}

/// The store on its own, on this sandbox's disk: durable appends, reads,
/// compaction, and recovery of a 1 024-record journal.
fn store_layer(m: &mut BTreeMap<&'static str, f64>, quick: bool) -> Res<()> {
    let (records, opens) = if quick { (128, 3) } else { (1024, 21) };
    let err = |e: store::StoreError| format!("store: {e}");
    let io = |e: std::io::Error| format!("store dir: {e}");
    let base = crate::out_dir().join(format!("layers-{}-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let live = base.join("live");
    let store = store::Store::open(&live, store::StoreOptions::default()).map_err(err)?;
    // A value the size of a real record: three rendered views.
    let value = vec![b'v'; 1300];
    let keys: Vec<String> = (0..records).map(|i| format!("app=X\0seed={i}")).collect();
    let mut put_ns: Vec<u64> = keys
        .iter()
        .map(|k| {
            let t = Instant::now();
            store.put(k, &value).map(|()| t.elapsed().as_nanos() as u64)
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    put_ns.sort_unstable();
    let q = |q: f64| stats::quantile(&put_ns, put_ns.len(), q).unwrap_or(0) as f64 / 1e3;
    m.insert("store.put_p50_us", q(0.50));
    m.insert("store.put_p99_us", q(0.99));
    m.insert(
        "store.bytes_per_record",
        store.journal_bytes() as f64 / records as f64,
    );
    m.insert(
        "store.get_ns",
        ns_per_call(11, 256, |i| {
            std::hint::black_box(store.get(&keys[i % records]));
        }),
    );

    // Recovery: open a fresh copy of the journal each time (recovery
    // rewrites the directory), leaving the pid lock file out.
    let journal: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&live)
        .map_err(io)?
        .filter_map(Result::ok)
        .filter(|e| e.file_name() != "LOCK" && e.path().is_file())
        .map(|e| std::fs::read(e.path()).map(|bytes| (e.file_name(), bytes)))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    let mut recover_ms = Vec::with_capacity(opens);
    for i in 0..opens {
        let copy = base.join(format!("copy-{i}"));
        std::fs::create_dir_all(&copy).map_err(io)?;
        for (name, bytes) in &journal {
            std::fs::write(copy.join(name), bytes).map_err(io)?;
        }
        let t = Instant::now();
        let reopened = store::Store::open(&copy, store::StoreOptions::default()).map_err(err)?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if reopened.len() != records {
            return Err(format!(
                "recovery found {} of {records} records",
                reopened.len()
            ));
        }
    }
    m.insert("store.recover_ms", stats::median(&recover_ms));

    let compact_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            store.compact().map(|()| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    m.insert("store.compact_ms", stats::median(&compact_ms));
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}

/// Drivers that isolate one simulator layer each.
fn isolated_drivers(m: &mut BTreeMap<&'static str, f64>, seed: u64, quick: bool) -> Res<()> {
    // mpisim: barriers and nothing else.
    let (ranks, rounds) = if quick { (16u32, 10u32) } else { (64, 100) };
    let t = Instant::now();
    mpisim::World::run(&mpisim::WorldCfg::new(ranks, seed), |rank| {
        for _ in 0..rounds {
            rank.barrier();
        }
    })
    .map_err(|e| format!("barrier world: {e}"))?;
    m.insert(
        "mpisim.barrier_ns_per_rank",
        t.elapsed().as_nanos() as f64 / f64::from(ranks * rounds),
    );

    // pfssim: one client, 4 KiB blocks, no scheduler in the way.
    let fs = pfssim::Pfs::new(pfssim::PfsConfig::default());
    let mut client = fs.client(0);
    let fd = client
        .open("/bench", pfssim::OpenFlags::rdwr_create(), 0)
        .map_err(|e| format!("pfs open: {e}"))?;
    let block = vec![7u8; 4096];
    let blocks = if quick { 64 } else { 1024 };
    let (batches, per_batch) = if quick { (3, 64) } else { (11, 256) };
    m.insert(
        "pfssim.pwrite_ns",
        ns_per_call(batches, per_batch, |i| {
            let at = (i % blocks) as u64 * 4096;
            client.pwrite(fd, at, &block, i as u64).expect("pwrite");
        }),
    );
    m.insert(
        "pfssim.pread_ns",
        ns_per_call(batches, per_batch, |i| {
            let at = (i % blocks.min(per_batch)) as u64 * 4096;
            std::hint::black_box(client.pread(fd, at, 4096, i as u64).expect("pread"));
        }),
    );

    // recorder: the binary codec over a real trace.
    let key = Key {
        spec: hpcapps::spec_ref(AppId::FlashFbs),
        ranks: if quick { 8 } else { 64 },
        seed,
    };
    let trace = simulate(&run_config(&key), key.spec)?.trace;
    let records = trace.total_records() as f64;
    let encoded = trace.encode();
    m.insert(
        "recorder.codec.encode_ns_per_record",
        ns_per_call(5, 1, |_| {
            std::hint::black_box(trace.encode());
        }) / records,
    );
    let mut decoded_ok = true;
    m.insert(
        "recorder.codec.decode_ns_per_record",
        ns_per_call(5, 1, |_| {
            decoded_ok &= recorder::TraceSet::decode(&encoded).is_ok();
        }) / records,
    );
    if !decoded_ok {
        return Err("trace codec did not round-trip".to_string());
    }
    Ok(())
}

struct Cold {
    rows: Vec<Row>,
    table: String,
    trace_json: String,
}

/// The cold path: one `cold_paper` cycle at 64 ranks and five
/// configurations again at 256, each served with spans and then
/// decomposed; the same cycle untraced, and through the batch pipeline.
fn cold_layers(m: &mut BTreeMap<&'static str, f64>, seed: u64, quick: bool) -> Res<Cold> {
    let (small, large) = if quick { (8, 16) } else { (64, 256) };
    let base = (simrng::SimRng::seed_from_u64(seed ^ 0x5452_4143).next_u64() >> 24) << 24;
    let cycle: Vec<Key> = plan::table4_specs()
        .into_iter()
        .zip(base..)
        .map(|(spec, seed)| Key {
            spec,
            ranks: small,
            seed,
        })
        .collect();
    let scaled: Vec<Key> = [
        AppId::FlashFbs,
        AppId::Enzo,
        AppId::Nwchem,
        AppId::LammpsPosix,
        AppId::VpicIo,
    ]
    .into_iter()
    .zip(base + 64..)
    .map(|(id, seed)| Key {
        spec: hpcapps::spec_ref(id),
        ranks: large,
        seed,
    })
    .collect();

    // Every key is executed `reps` times under fresh seeds and the
    // quickest repetition kept (see `Row::best`).
    let reps = |key: &Key| match (quick, key.ranks == small) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 2,
    };
    let rep_key = |key: &Key, rep: u64| Key {
        seed: key.seed + rep * 4096,
        ..*key
    };

    // Untraced first: a plain backend, no spans, one clock pair per
    // request — the reference the tracing overhead is measured against.
    let plain = Router::new(Arc::new(ReportBackend::new()), 256);
    let mut untraced_ns = 0u64;
    for key in &cycle {
        let mut best = u64::MAX;
        for rep in 0..reps(key) {
            let wire = plan::wire(&rep_key(key, rep).path("verdict"));
            let t = Instant::now();
            let resp = plain.handle(&parse(&wire)?);
            resp.write_to(&mut CountingSink::default())
                .map_err(|e| format!("write: {e}"))?;
            best = best.min(t.elapsed().as_nanos() as u64);
            if resp.status != 200 {
                return Err(format!(
                    "{}: status {}",
                    key.spec.config_name(),
                    resp.status
                ));
            }
        }
        untraced_ns += best;
    }
    drop(plain);

    let tracer = Arc::new(Mutex::new(Tracer::new()));
    let router = Router::new(
        Arc::new(TimedBackend {
            inner: ReportBackend::new(),
            tracer: Arc::clone(&tracer),
        }),
        256,
    );
    let mut rows = Vec::new();
    for key in cycle.iter().chain(&scaled) {
        let mut row = trace_key(&router, &tracer, key)?;
        // Repetitions use seeds past the ones the untraced pass used.
        for rep in 1..reps(key) {
            row = row.best(trace_key(&router, &tracer, &rep_key(key, rep + 8))?);
        }
        rows.push(row);
    }
    let tracer = tracer.lock().expect("tracer lock");
    let (at_small, at_large) = rows.split_at(cycle.len());
    for (i, name) in SIM_COUNTERS.into_iter().enumerate() {
        m.insert(
            name,
            at_small.iter().map(|r| r.counts[i]).sum::<u64>() as f64,
        );
    }
    let traced_ns: u64 = at_small.iter().map(|r| r.request_ns).sum();
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
    );

    let total = |f: fn(&Row) -> u64| at_small.iter().map(f).sum::<u64>();
    let analyze_ns = total(|r| r.analyze_ns);
    let records = total(|r| r.records);
    let share = |ns: u64| ns as f64 / analyze_ns as f64;
    m.insert("report.analyze_ms", ms(analyze_ns));
    m.insert(
        "serve.router.cold_self_us",
        total(|r| r.handle_self_ns) as f64 / 1e3 / cycle.len() as f64,
    );
    m.insert("iolibs.run_ms", ms(total(|r| r.run_ns)));
    m.insert(
        "iolibs.run_ns_per_record",
        total(|r| r.run_ns) as f64 / records as f64,
    );
    m.insert("iolibs.run_share", share(total(|r| r.run_ns)));
    m.insert("recorder.records", records as f64);
    m.insert("recorder.adjust_ms", ms(total(|r| r.adjust_ns)));
    m.insert("core.incremental.push_ms", ms(total(|r| r.push_ns)));
    m.insert(
        "core.incremental.push_ns_per_record",
        total(|r| r.push_ns) as f64 / records as f64,
    );
    m.insert("core.incremental.finalize_ms", ms(total(|r| r.finalize_ns)));
    m.insert(
        "core.incremental.share",
        share(total(|r| r.push_ns + r.finalize_ns)),
    );
    m.insert(
        "core.incremental.peak_live_intervals",
        at_small.iter().map(|r| r.peak_live).max().unwrap_or(0) as f64,
    );
    m.insert(
        "core.incremental.pairs_checked",
        total(|r| r.pairs_checked) as f64,
    );
    m.insert("core.hb.validate_ms", ms(total(|r| r.hb_ns)));
    m.insert("core.hb.share", share(total(|r| r.hb_ns)));
    m.insert("core.metadata.census_ms", ms(total(|r| r.census_ns)));

    // Growth from the small to the large world as an exponent: log base
    // (large/small) of the cost ratio, 1.0 = linear in ranks.
    let flash = |rows: &[Row]| {
        rows.iter()
            .find(|r| r.name == "FLASH-fbs")
            .map(|r| (r.run_ns as f64, r.push_ns as f64))
            .expect("FLASH-fbs is in both sets")
    };
    let ((run_s, push_s), (run_l, push_l)) = (flash(at_small), flash(at_large));
    let exp = |small_cost: f64, large_cost: f64| {
        (large_cost / small_cost).ln() / (f64::from(large) / f64::from(small)).ln()
    };
    m.insert("iolibs.run_scale_exp", exp(run_s, run_l));
    m.insert("core.incremental.push_scale_exp", exp(push_s, push_l));

    let all_pieces: u64 = rows.iter().map(|r| r.pieces_ns).sum();
    let all_analyze: u64 = rows.iter().map(|r| r.analyze_ns).sum();
    m.insert("trace.closure_pct", closure_pct(all_pieces, all_analyze));
    let worst = rows
        .iter()
        .filter(|r| r.checked())
        .map(Row::closure)
        .max_by(|a, b| (a - 100.0).abs().total_cmp(&(b - 100.0).abs()))
        .unwrap_or(100.0);
    m.insert("trace.closure_worst_pct", worst);

    // The same cycle through the batch pipeline, and the renderers.
    let t = Instant::now();
    let runs: Vec<report_gen::AnalyzedRun> = cycle
        .iter()
        .map(|key| {
            let cfg = ReportCfg {
                nranks: key.ranks,
                seed: key.seed,
                max_skew_ns: 20_000,
            };
            report_gen::analyze(&cfg, key.spec)
        })
        .collect();
    m.insert("report.batch_analyze_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    std::hint::black_box((
        tables::table3(&runs),
        tables::table4(&runs),
        figures::fig1(&runs),
        figures::fig3(&runs),
    ));
    m.insert("report.render_tables_ms", t.elapsed().as_secs_f64() * 1e3);

    let mut table = format!(
        "{:<18} {:>5} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "configuration",
        "ranks",
        "analyze_ms",
        "run%",
        "push%",
        "final%",
        "hb%",
        "other%",
        "closure%"
    );
    for r in &rows {
        let pct = |ns: u64| 100.0 * ns as f64 / r.analyze_ns as f64;
        let named = r.run_ns + r.push_ns + r.finalize_ns + r.hb_ns;
        table.push_str(&format!(
            "{:<18} {:>5} {:>10.2} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}\n",
            r.name,
            r.ranks,
            ms(r.analyze_ns),
            pct(r.run_ns),
            pct(r.push_ns),
            pct(r.finalize_ns),
            pct(r.hb_ns),
            100.0 - pct(named),
            r.closure(),
        ));
    }
    let trace_json = tracer.to_json();
    Ok(Cold {
        rows,
        table,
        trace_json,
    })
}

/// Run every layer driver. `warm_p50_ns` is the client-side median of an
/// untraced `warm_hot` phase, when the caller has one: what is left of it
/// after parse, handle and write is the share the program does not own.
pub fn run(seed: u64, quick: bool, warm_p50_ns: Option<u64>) -> Res<Layers> {
    let mut m = BTreeMap::new();
    warm_layers(&mut m, seed, quick)?;
    store_layer(&mut m, quick)?;
    isolated_drivers(&mut m, seed, quick)?;
    let cold = cold_layers(&mut m, seed, quick)?;
    if let Some(p50) = warm_p50_ns {
        let owned =
            m["serve.http.parse_ns"] + m["serve.router.handle_warm_ns"] + m["serve.http.write_ns"];
        m.insert("serve.server.loopback_gap_us", (p50 as f64 - owned) / 1e3);
    }
    // A decomposition that does not add up is not evidence of anything —
    // but it is a timing, not an output: say so, do not fail the run.
    for r in cold.rows.iter().filter(|r| r.checked()) {
        if (r.closure() - 100.0).abs() > 10.0 {
            eprintln!(
                "bench: note: {}@{} decomposition closes at {:.1}%",
                r.name,
                r.ranks,
                r.closure()
            );
        }
    }
    Ok(Layers {
        metrics: m,
        trace_json: cold.trace_json,
        table: cold.table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts a cold cycle publishes, for one seed.
    fn cycle_counts(seed: u64) -> Vec<(String, u64)> {
        let mut m = BTreeMap::new();
        cold_layers(&mut m, seed, true).expect("quick cold cycle");
        SIM_COUNTERS
            .iter()
            .chain(&["recorder.records", "core.incremental.pairs_checked"])
            .map(|name| (name.to_string(), m[name] as u64))
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_work_counts() {
        obs::set_metrics(true);
        let first = cycle_counts(2021);
        assert_eq!(first, cycle_counts(2021));
        assert!(first.iter().all(|(_, n)| *n > 0), "{first:?}");
    }
}
