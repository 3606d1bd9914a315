//! The per-rank application context and the run harness.
//!
//! [`AppCtx`] is what a simulated application programs against: MPI-style
//! communication (delegated to [`mpisim`]), POSIX file I/O (delegated to
//! [`pfssim`] with latency from the cost model), and transparent tracing of
//! every POSIX call, with the correct *origin* layer attribution, to the
//! run's sink — or, when the run has none, into a [`recorder::RankTracer`]
//! (see [`crate::sink`]).
//!
//! [`run_app`] executes one SPMD closure on every rank, performs the
//! startup barrier the paper uses for clock adjustment (§5.2), and returns
//! the quiesced file system together with the trace, when the run kept
//! one: each rank's records with the MPI runtime's happens-before events
//! merged in, assembled into a [`TraceSet`].

use mpisim::{apply_skew, FaultPlan, IoFault, OpClass, Rank, SimAbort, SimError, World, WorldCfg};
use pfssim::{
    FsError, FsResult, Observation, OpenFlags, Pfs, PfsConfig, ReadOut, SemanticsModel, StatInfo,
    Whence, WriteOut,
};
use recorder::{Func, Layer, MetaKind, RankTracer, Record, SeekWhence, SharedInterner, TraceSet};

use crate::sink::SinkHandle;

/// Records buffered per rank before a chunk is pushed to the sink.
const SINK_CHUNK: usize = 64;

/// A POSIX file descriptor in the simulated file system.
pub type Fd = u32;

/// Configuration of one simulated application run: the world it runs in,
/// the file system it runs against, and where its records stream.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The simulated MPI world, handed to [`World::run`] as is.
    /// `(seed, faults, program)` fully determines the trace.
    pub world: WorldCfg,
    /// The file system a fresh run gets, including the consistency engine
    /// it executes with. (The traces themselves are engine-independent for
    /// race-free programs; the engine matters for the stale-read
    /// validation experiments.)
    pub pfs: PfsConfig,
    /// Optional streaming sink the run sends its records to as they are
    /// emitted (see [`crate::sink`]). The run keeps a trace exactly when
    /// there is none.
    pub sink: Option<SinkHandle>,
}

impl RunConfig {
    /// `nranks` ranks with the paper-calibrated world defaults
    /// ([`WorldCfg::new`]) on a default, strongly consistent file system.
    pub fn new(nranks: u32, seed: u64) -> Self {
        RunConfig {
            world: WorldCfg::new(nranks, seed),
            pfs: PfsConfig::default(),
            sink: None,
        }
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.world = self.world.with_label(label);
        self
    }

    pub fn with_semantics(mut self, semantics: SemanticsModel) -> Self {
        self.pfs = self.pfs.with_semantics(semantics);
        self
    }

    pub fn with_max_skew_ns(mut self, ns: u64) -> Self {
        self.world = self.world.with_max_skew_ns(ns);
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.world = self.world.with_faults(faults);
        self
    }

    /// Stream the run's records to `sink` as they are emitted (see
    /// [`crate::sink`]) instead of keeping a trace.
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Everything one run produces.
pub struct RunOutcome {
    /// The multi-level trace, with raw (skewed, unadjusted) timestamps —
    /// exactly what a Recorder-style tracer would hand the analysis. A run
    /// with a sink gets the ranks and clock skews but no records.
    pub trace: TraceSet,
    /// Every record the run emitted — POSIX, library-level and MPI —
    /// counted whether or not it was kept: a kept trace's
    /// [`TraceSet::total_records`].
    pub records: u64,
    /// The file system, already quiesced (all buffered writes propagated).
    pub pfs: Pfs,
    /// Per-rank read-observation logs for cross-engine staleness diffing.
    pub observations: Vec<Vec<Observation>>,
    /// Final simulated time.
    pub final_time_ns: u64,
    /// Ranks that fail-stopped mid-run (injected crashes, cascaded peer
    /// crashes, exhausted I/O retries), with their terminal fault. Empty on
    /// a clean run. A faulted rank's trace is the salvaged prefix up to its
    /// crash — analysis must treat it as *partial* (see
    /// [`RunOutcome::is_degraded`]).
    pub faults: Vec<(u32, SimError)>,
}

impl RunOutcome {
    /// Whether any rank fail-stopped: the trace is a partial view of the
    /// intended program and verdicts drawn from it must be labeled so.
    pub fn is_degraded(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Run `f` as an SPMD program on `cfg.world.nranks` ranks against a fresh
/// file system, quiescing it (propagating all buffered writes) at the end.
///
/// Infallible wrapper for clean configurations: panics if the whole run
/// fails (deadlock — an application bug). Per-rank fail-stops do *not*
/// fail the run; they are reported in [`RunOutcome::faults`]. Callers
/// driving fault campaigns should prefer [`run_app_result`].
pub fn run_app<F>(cfg: &RunConfig, f: F) -> RunOutcome
where
    F: Fn(&mut AppCtx) + Sync,
{
    run_app_result(cfg, f).unwrap_or_else(|e| panic!("simulated run failed: {e}"))
}

/// Fallible variant of [`run_app`]: a deadlock (every live rank blocked)
/// surfaces as `Err` instead of a panic, so batch drivers can isolate a
/// failing configuration and keep going.
pub fn run_app_result<F>(cfg: &RunConfig, f: F) -> Result<RunOutcome, SimError>
where
    F: Fn(&mut AppCtx) + Sync,
{
    let pfs = Pfs::new(cfg.pfs);
    let out = run_on(cfg, &pfs, f)?;
    pfs.quiesce();
    Ok(out)
}

/// One stage of a multi-application workflow.
pub struct PipelineOutcome {
    /// The per-stage outcomes (each stage is one job: its own MPI world,
    /// its own trace).
    pub stages: Vec<RunOutcome>,
    /// All stage traces merged into one analyzable trace: stage `j`
    /// rank `r` becomes global rank `j·nranks + r`; timestamps are already
    /// on one absolute timeline because stage clocks are chained — see
    /// [`recorder::combine::merge_jobs`].
    pub combined: TraceSet,
    /// The shared file system, quiesced after the last stage.
    pub pfs: Pfs,
}

/// Run a workflow: each stage is a separate job (fresh MPI world, fresh
/// clients, **no** cross-stage communication) against one shared file
/// system. Stage `j` runs with seed `cfg.world.seed + j` and starts
/// `gap_ns` after the previous stage ended. The file system is *not*
/// quiesced between stages — a consumer job sees exactly what the
/// producer's engine published — and is quiesced after the last stage.
/// Panics if a stage deadlocks.
pub fn run_pipeline(
    cfg: &RunConfig,
    gap_ns: u64,
    stages: &[&(dyn Fn(&mut AppCtx) + Sync)],
) -> PipelineOutcome {
    let pfs = Pfs::new(cfg.pfs);
    let mut outs: Vec<RunOutcome> = Vec::with_capacity(stages.len());
    let mut stage_cfg = cfg.clone();
    for (j, stage) in stages.iter().enumerate() {
        stage_cfg.world.seed = cfg.world.seed.wrapping_add(j as u64);
        let out = run_on(&stage_cfg, &pfs, |ctx| stage(ctx))
            .unwrap_or_else(|e| panic!("simulated run failed: {e}"));
        stage_cfg.world.start_ns = out.final_time_ns + gap_ns;
        outs.push(out);
    }
    // Stage clocks are chained, so the traces are already on one absolute
    // timeline: merge without further shifting.
    let combined =
        recorder::combine::merge_jobs(&outs.iter().map(|o| o.trace.clone()).collect::<Vec<_>>());
    pfs.quiesce();
    PipelineOutcome {
        stages: outs,
        combined,
        pfs,
    }
}

/// Run `f` against an existing file system (a workflow's stages share
/// one), without quiescing it, reporting whole-run failures as `Err`. A
/// rank that fail-stops (injected crash, peer-crash cascade, exhausted I/O
/// retries) unwinds with [`SimAbort`]; the harness catches it *inside* the
/// rank closure, discards the dead process's un-published buffered writes,
/// and salvages the trace prefix — so degraded runs still produce an
/// analyzable [`RunOutcome`] with [`RunOutcome::faults`] set.
fn run_on<F>(cfg: &RunConfig, pfs: &Pfs, f: F) -> Result<RunOutcome, SimError>
where
    F: Fn(&mut AppCtx) + Sync,
{
    let pfs = pfs.clone();
    let interner = recorder::shared_interner();
    let world = &cfg.world;
    let _run_span = obs::span("iolibs", "run_app")
        .with_arg("label", world.label.as_str())
        .with_arg("nranks", world.nranks as u64)
        .with_arg("seed", world.seed);
    let out = World::run(world, |rank| {
        let r = rank.rank();
        let output = match &cfg.sink {
            None => Output::Trace(RankTracer::new(r, SharedInterner::clone(&interner))),
            Some(sink) => Output::Stream(Stream::new(sink.clone())),
        };
        let mut ctx = AppCtx::new(
            rank,
            pfs.client(r),
            SharedInterner::clone(&interner),
            output,
        );
        // The paper's runs start with a barrier whose exit is used as t=0
        // for clock adjustment; the harness issues it on behalf of the app.
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.barrier();
            f(&mut ctx);
        }));
        match body {
            Ok(()) => ctx.into_parts(),
            Err(payload) if payload.downcast_ref::<SimAbort>().is_some() => {
                // Controlled fail-stop. The dead process can never publish
                // its buffered writes — drop them — but the trace prefix up
                // to the crash is exactly what a real post-mortem analysis
                // would have, so keep it.
                ctx.client.discard_pending();
                ctx.into_parts()
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })?;

    // Count every rank's records; a kept trace also gets the MPI runtime's
    // event log merged into each rank's record stream.
    let mut tracers = Vec::with_capacity(world.nranks as usize);
    let mut observations = Vec::with_capacity(world.nranks as usize);
    let mut records = 0;
    for (rank, (result, events)) in out.results.into_iter().zip(out.events).enumerate() {
        let (tracer, obs, emitted) =
            result.expect("the rank closure catches every SimAbort and salvages its parts");
        records += emitted + events.len() as u64;
        if let Some(mut tracer) = tracer {
            let skew = out.skews_ns[rank];
            tracer.merge_by_time(events.iter().map(|e| mpi_record(e, skew, 0)));
            tracers.push(tracer);
        }
        observations.push(obs);
    }
    let interner = interner.lock().expect("interner poisoned");
    let remap = recorder::canonical_remap(&interner);
    let trace = match &cfg.sink {
        None => TraceSet::assemble(&interner, &remap, tracers, out.skews_ns),
        Some(sink) => {
            sink.0.assembly_remap(&remap);
            TraceSet {
                paths: Vec::new(),
                ranks: vec![Vec::new(); world.nranks as usize],
                skews_ns: out.skews_ns,
            }
        }
    };
    let faults = out
        .faults
        .into_iter()
        .enumerate()
        .filter_map(|(r, f)| f.map(|e| (r as u32, e)))
        .collect();
    Ok(RunOutcome {
        trace,
        records,
        pfs,
        observations,
        final_time_ns: out.final_time_ns,
        faults,
    })
}

/// One MPI runtime event as a trace record on its rank's clock, less `zero`.
fn mpi_record(e: &mpisim::MpiEvent, skew: i64, zero: u64) -> Record {
    Record {
        t_start: apply_skew(e.t_start, skew).saturating_sub(zero),
        t_end: apply_skew(e.t_end, skew).saturating_sub(zero),
        rank: e.rank,
        layer: Layer::Mpi,
        origin: Layer::Mpi,
        func: match e.kind {
            mpisim::EventKind::Barrier { epoch } => Func::MpiBarrier { epoch },
            mpisim::EventKind::Send { dst, tag, seq } => Func::MpiSend { dst, tag, seq },
            mpisim::EventKind::Recv { src, tag, seq } => Func::MpiRecv { src, tag, seq },
        },
    }
}

/// The per-rank application context: communication + traced POSIX I/O.
pub struct AppCtx {
    rank: Rank,
    client: pfssim::PfsClient,
    interner: SharedInterner,
    /// Where this rank's records go.
    output: Output,
    /// POSIX and library-level records emitted so far, kept or not.
    emitted: u64,
    origin: Layer,
    next_lib_id: u32,
}

/// A rank's one output: the run streams to its sink, or, without one,
/// keeps a trace (see [`crate::sink`]).
enum Output {
    /// This rank's raw trace.
    Trace(RankTracer),
    Stream(Stream),
}

/// A rank's end of the run's sink.
struct Stream {
    sink: SinkHandle,
    /// This rank's barrier-adjustment zero (local-clock exit time of the
    /// startup barrier), captured at the first `barrier()`. Records are
    /// streamed only once it is known — before the startup barrier the
    /// app has issued no I/O.
    zero: Option<u64>,
    buf: Vec<Record>,
    /// How much of this rank's MPI event log has been streamed.
    events: usize,
}

impl Stream {
    fn new(sink: SinkHandle) -> Self {
        Stream {
            sink,
            zero: None,
            buf: Vec::new(),
            events: 0,
        }
    }

    /// Push the buffered POSIX records, then the MPI records mpisim logged
    /// for `rank` since the last push (collectives log theirs there).
    /// Every push goes through here: no frontier passes an unseen record.
    fn push(&mut self, rank: &Rank, frontier: u64) {
        let Some(zero) = self.zero else {
            return;
        };
        let (skew, buf) = (rank.skew_ns(), &mut self.buf);
        self.events = rank.events_since(self.events, |e| buf.push(mpi_record(e, skew, zero)));
        if !buf.is_empty() {
            self.sink.0.push(rank.rank(), buf, frontier);
            buf.clear();
        }
    }

    /// Push the buffered records, if any. The last one's `t_start` is the
    /// frontier: a rank's records are emitted in nondecreasing time.
    fn flush(&mut self, rank: &Rank) {
        if let Some(last) = self.buf.last() {
            self.push(rank, last.t_start);
        }
    }
}

impl AppCtx {
    fn new(
        rank: Rank,
        client: pfssim::PfsClient,
        interner: SharedInterner,
        output: Output,
    ) -> Self {
        AppCtx {
            rank,
            client,
            interner,
            output,
            emitted: 0,
            origin: Layer::App,
            next_lib_id: 1,
        }
    }

    /// This rank's trace (if kept), read observations, and emitted
    /// record count. A streaming rank pushes what it still buffers and
    /// signals it is done — on normal completion and on the fail-stop
    /// salvage path alike.
    fn into_parts(mut self) -> (Option<RankTracer>, Vec<Observation>, u64) {
        let tracer = match self.output {
            Output::Trace(tracer) => Some(tracer),
            Output::Stream(mut stream) => {
                stream.push(&self.rank, 0);
                stream.sink.0.rank_done(self.rank.rank());
                None
            }
        };
        (tracer, self.client.take_observations(), self.emitted)
    }

    pub fn rank(&self) -> u32 {
        self.rank.rank()
    }

    pub fn nranks(&self) -> u32 {
        self.rank.nranks()
    }

    pub fn semantics(&self) -> SemanticsModel {
        self.client.semantics()
    }

    /// Fail-stop this rank: record the cause as its fault, salvage its
    /// partial trace, and unwind out of the rank closure. For app code
    /// facing an unrecoverable I/O error — e.g. a checkpoint whose
    /// creator rank crashed — where aborting the rank is the graceful
    /// outcome and panicking the process is not.
    pub fn fail_stop(&self, cause: String) -> ! {
        self.rank.fail_stop(cause)
    }

    /// Allocate an id for a library-level handle (MPI-IO fh, HDF5 id, …).
    pub fn alloc_lib_id(&mut self) -> u32 {
        let id = self.next_lib_id;
        self.next_lib_id += 1;
        id
    }

    /// One traced library-level call. The POSIX records `f` issues are
    /// attributed to `layer` as their origin (a nested library's call
    /// re-attributes its own), and when `f` succeeds the call itself is
    /// recorded at `layer`, spanning entry to exit, as the [`Func`] it
    /// returns (counted always, kept only when the run records). A call
    /// that fails emits no library record. Both timestamps are the rank's
    /// own clock reads ([`Rank::now`]: the time it last observed), each
    /// taking the world lock, and are read only when the record is kept.
    pub fn lib_call<R>(
        &mut self,
        layer: Layer,
        f: impl FnOnce(&mut Self) -> FsResult<(R, Func)>,
    ) -> FsResult<R> {
        let t0 = matches!(self.output, Output::Trace(_)).then(|| self.rank.now());
        let prev = std::mem::replace(&mut self.origin, layer);
        let res = f(self);
        self.origin = prev;
        let (r, func) = res?;
        self.emitted += 1;
        if let (Output::Trace(tracer), Some(t0)) = (&mut self.output, t0) {
            let (s, e) = (
                self.rank.local_clock(t0),
                self.rank.local_clock(self.rank.now()),
            );
            tracer.record(s, e, layer, layer, func);
        }
        Ok(r)
    }

    /// The [`Func`] of a library call the trace vocabulary has no variant
    /// for: its interned name and two free arguments.
    pub(crate) fn named_call(&self, name: &str, a: u64, b: u64) -> Func {
        let name = self.intern(name);
        Func::LibCall { name, a, b }
    }

    /// Intern a path/name for trace records.
    pub fn intern(&self, s: &str) -> recorder::PathId {
        self.interner.lock().expect("interner poisoned").intern(s)
    }

    // ------------------------------------------------------------------
    // Communication (delegated to mpisim; events merged into the trace by
    // the harness)
    // ------------------------------------------------------------------

    pub fn barrier(&mut self) {
        // Everything emitted so far is ordered before the barrier; hand it
        // to the sink before blocking so the analysis can overlap with the
        // wait.
        if let Output::Stream(stream) = &mut self.output {
            stream.flush(&self.rank);
        }
        let info = self.rank.barrier();
        let Output::Stream(stream) = &mut self.output else {
            return;
        };
        // The epoch is a happens-before boundary the sink may retire state
        // at; the one rank whose arrival released it says so, before its
        // frontier moves past the barrier.
        if info.released {
            stream.sink.0.epoch_released(info.epoch);
        }
        // The first barrier's local-clock exit is the adjustment zero, as
        // `recorder::adjust::compute` derives it post-hoc. Every exit is a
        // frontier promise: no future record starts before it.
        let exit_local = self.rank.local_clock(info.t_exit);
        let zero = *stream.zero.get_or_insert(exit_local);
        stream.push(&self.rank, exit_local - zero);
    }

    pub fn send(&mut self, dst: u32, tag: u32, payload: Vec<u8>) {
        self.rank.send(dst, tag, payload);
    }

    pub fn recv(&mut self, src: u32, tag: u32) -> Vec<u8> {
        self.rank.recv(src, tag).0
    }

    pub fn bcast(&mut self, root: u32, data: &[u8]) -> Vec<u8> {
        self.rank.bcast(root, data)
    }

    pub fn gather(&mut self, root: u32, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.rank.gather(root, mine)
    }

    pub fn allgather(&mut self, mine: &[u8]) -> mpisim::Gathered {
        self.rank.allgather(mine)
    }

    pub fn allreduce_sum_u64(&mut self, v: u64) -> u64 {
        self.rank.allreduce_sum_u64(v)
    }

    pub fn allreduce_max_u64(&mut self, v: u64) -> u64 {
        self.rank.allreduce_max_u64(v)
    }

    pub fn exscan_sum_u64(&mut self, v: u64) -> u64 {
        self.rank.exscan_sum_u64(v)
    }

    pub fn compute(&mut self, ns: u64) {
        self.rank.compute(ns);
    }

    // ------------------------------------------------------------------
    // Traced POSIX layer
    // ------------------------------------------------------------------

    fn posix_op<R>(
        &mut self,
        class: OpClass,
        bytes: u64,
        mut f: impl FnMut(&mut pfssim::PfsClient, u64) -> FsResult<R>,
    ) -> FsResult<(u64, u64, R)> {
        let mut attempt = 0u32;
        loop {
            let injected = self.rank.take_io_fault();
            let client = &mut self.client;
            let (t0, t1, res) = match injected {
                Some(IoFault::LostFlush) => {
                    // The op itself succeeds, but the process's next flush
                    // silently fails to publish: the write never reaches
                    // commit visibility.
                    client.arm_lost_flush();
                    self.rank.timed_op(class, bytes, |now| f(client, now))
                }
                Some(fault) => {
                    // The call pays its latency, then surfaces a transient
                    // errno instead of reaching the server.
                    let (t0, t1, ()) = self.rank.timed_op(class, bytes, |_| {});
                    (t0, t1, Err(io_fault_error(fault)))
                }
                None => self.rank.timed_op(class, bytes, |now| f(client, now)),
            };
            match res {
                Ok(r) => return Ok((t0, t1, r)),
                Err(e) if e.is_transient() => {
                    attempt += 1;
                    if attempt >= MAX_IO_ATTEMPTS {
                        if obs::metrics_enabled() {
                            obs::metrics().add("iolibs.io_failstops", 1);
                        }
                        obs::instant(
                            "iolibs",
                            "io-failstop",
                            vec![
                                ("rank", obs::Arg::U(self.rank.rank() as u64)),
                                ("error", obs::Arg::S(e.to_string())),
                            ],
                        );
                        // A process that cannot complete its I/O fail-stops;
                        // the harness salvages its partial trace upstream.
                        self.rank.fail_stop(format!("I/O retries exhausted: {e}"));
                    }
                    if obs::metrics_enabled() {
                        obs::metrics().add("iolibs.io_retries", 1);
                    }
                    obs::instant(
                        "iolibs",
                        "io-retry",
                        vec![
                            ("rank", obs::Arg::U(self.rank.rank() as u64)),
                            ("attempt", obs::Arg::U(attempt as u64)),
                            ("error", obs::Arg::S(e.to_string())),
                        ],
                    );
                    // Exponential backoff, in simulated time.
                    self.rank.compute(IO_RETRY_BACKOFF_NS << attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn rec_posix(&mut self, t0: u64, t1: u64, func: Func) {
        let (s, e) = (self.rank.local_clock(t0), self.rank.local_clock(t1));
        self.emitted += 1;
        match &mut self.output {
            Output::Trace(tracer) => tracer.record(s, e, Layer::Posix, self.origin, func),
            // Streamed already barrier-adjusted. Library-level spans are not
            // streamed (not time-ordered per rank); MPI records join the
            // POSIX ones at each push.
            Output::Stream(stream) => {
                if let Some(zero) = stream.zero {
                    stream.buf.push(Record {
                        t_start: s.saturating_sub(zero),
                        t_end: e.saturating_sub(zero),
                        rank: self.rank.rank(),
                        layer: Layer::Posix,
                        origin: self.origin,
                        func,
                    });
                    if stream.buf.len() >= SINK_CHUNK {
                        stream.flush(&self.rank);
                    }
                }
            }
        }
    }

    /// The locks pfssim takes for a data op of `len` bytes on `fd`,
    /// modelled as extra latency before the op.
    fn lock_latency(&mut self, fd: Fd, len: u64) {
        // Cap the modelled round trips; the lock *count* statistics live
        // in pfssim and are exact.
        for _ in 0..self.client.lock_count(fd, len).min(4) {
            self.rank.timed_op(OpClass::FsLock, 0, |_| {});
        }
    }

    /// The whole life of one traced POSIX call that can fail: everything
    /// [`Self::posix_op`] does (due fault, turn, cost, pfssim, retries),
    /// then — only if it succeeded — the record. A wrapper says which
    /// pfssim call and which [`Func`]; nothing else.
    fn posix_call<R>(
        &mut self,
        class: OpClass,
        bytes: u64,
        call: impl FnMut(&mut pfssim::PfsClient, u64) -> FsResult<R>,
        func: impl FnOnce(&R) -> Func,
    ) -> FsResult<R> {
        let (t0, t1, r) = self.posix_op(class, bytes, call)?;
        self.rec_posix(t0, t1, func(&r));
        Ok(r)
    }

    /// The second entry, for `stat`, `lstat` and `umask`: the record is
    /// written whatever the call returns (a tracer sees failed probes of
    /// not-yet-existing files too), and the fault plan does not apply — a
    /// due injected I/O fault is left for the rank's next
    /// [`Self::posix_call`], and nothing is retried.
    fn posix_probe<R>(
        &mut self,
        call: impl FnOnce(&mut pfssim::PfsClient, u64) -> R,
        func: Func,
    ) -> R {
        let client = &mut self.client;
        let (t0, t1, r) = self
            .rank
            .timed_op(OpClass::FsMeta, 0, |now| call(client, now));
        self.rec_posix(t0, t1, func);
        r
    }

    /// A [`Self::posix_call`] on a path, recorded as `MetaPath { op, path }`.
    fn path_meta<R>(
        &mut self,
        op: MetaKind,
        path: &str,
        call: impl FnMut(&mut pfssim::PfsClient, u64) -> FsResult<R>,
    ) -> FsResult<R> {
        let path = self.intern(path);
        self.posix_call(OpClass::FsMeta, 0, call, |_| Func::MetaPath { op, path })
    }

    /// A [`Self::posix_call`] on a descriptor, recorded as `MetaFd { op, fd }`.
    fn fd_meta<R>(
        &mut self,
        op: MetaKind,
        fd: Fd,
        call: impl FnMut(&mut pfssim::PfsClient, u64) -> FsResult<R>,
    ) -> FsResult<R> {
        self.posix_call(OpClass::FsMeta, 0, call, |_| Func::MetaFd { op, fd })
    }

    pub fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let pid = self.intern(path);
        self.posix_call(
            OpClass::FsOpen,
            0,
            |c, now| c.open(path, flags, now),
            |&fd| Func::Open {
                path: pid,
                flags: flags.to_bits(),
                fd,
            },
        )
    }

    pub fn close(&mut self, fd: Fd) -> FsResult<()> {
        self.posix_call(
            OpClass::FsClose,
            0,
            |c, now| c.close(fd, now),
            |_| Func::Close { fd },
        )
    }

    pub fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<WriteOut> {
        let count = data.len() as u64;
        self.lock_latency(fd, count);
        self.posix_call(
            OpClass::FsWrite,
            count,
            |c, now| c.write(fd, data, now),
            |_| Func::Write { fd, count },
        )
    }

    pub fn pwrite(&mut self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<WriteOut> {
        let count = data.len() as u64;
        self.lock_latency(fd, count);
        self.posix_call(
            OpClass::FsWrite,
            count,
            |c, now| c.pwrite(fd, offset, data, now),
            |_| Func::Pwrite { fd, offset, count },
        )
    }

    pub fn read(&mut self, fd: Fd, count: u64) -> FsResult<ReadOut> {
        self.lock_latency(fd, count);
        self.posix_call(
            OpClass::FsRead,
            count,
            |c, now| c.read(fd, count, now),
            |out| Func::Read {
                fd,
                count,
                ret: out.data.len() as u64,
            },
        )
    }

    pub fn pread(&mut self, fd: Fd, offset: u64, count: u64) -> FsResult<ReadOut> {
        self.lock_latency(fd, count);
        self.posix_call(
            OpClass::FsRead,
            count,
            |c, now| c.pread(fd, offset, count, now),
            |out| Func::Pread {
                fd,
                offset,
                count,
                ret: out.data.len() as u64,
            },
        )
    }

    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> FsResult<u64> {
        let w = match whence {
            Whence::Set => SeekWhence::Set,
            Whence::Cur => SeekWhence::Cur,
            Whence::End => SeekWhence::End,
        };
        self.posix_call(
            OpClass::FsSeek,
            0,
            |c, now| c.lseek(fd, offset, whence, now),
            |&ret| Func::Lseek {
                fd,
                offset,
                whence: w,
                ret,
            },
        )
    }

    pub fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        self.posix_call(
            OpClass::FsSync,
            0,
            |c, now| c.fsync(fd, now),
            |_| Func::Fsync { fd },
        )
    }

    pub fn fdatasync(&mut self, fd: Fd) -> FsResult<()> {
        self.posix_call(
            OpClass::FsSync,
            0,
            |c, now| c.fdatasync(fd, now),
            |_| Func::Fdatasync { fd },
        )
    }

    pub fn ftruncate(&mut self, fd: Fd, len: u64) -> FsResult<()> {
        self.posix_call(
            OpClass::FsMeta,
            0,
            |c, now| c.ftruncate(fd, len, now),
            |_| Func::Ftruncate { fd, len },
        )
    }

    pub fn mmap(&mut self, fd: Fd, offset: u64, len: u64) -> FsResult<ReadOut> {
        self.posix_call(
            OpClass::FsRead,
            len,
            |c, now| c.mmap(fd, offset, len, now),
            |out| Func::Mmap {
                fd,
                offset,
                count: out.data.len() as u64,
            },
        )
    }

    pub fn msync(&mut self, fd: Fd) -> FsResult<()> {
        let op = MetaKind::Msync;
        self.posix_call(
            OpClass::FsSync,
            0,
            |c, now| c.msync(fd, now),
            |_| Func::MetaFd { op, fd },
        )
    }

    /// `stat(2)`. Recorded even when it fails, and exempt from the fault
    /// plan (as are `lstat` and `umask`).
    pub fn stat(&mut self, path: &str) -> FsResult<StatInfo> {
        let pid = self.intern(path);
        let op = MetaKind::Stat;
        self.posix_probe(|c, now| c.stat(path, now), Func::MetaPath { op, path: pid })
    }

    /// `lstat(2)`. Recorded even when it fails.
    pub fn lstat(&mut self, path: &str) -> FsResult<StatInfo> {
        let pid = self.intern(path);
        let op = MetaKind::Lstat;
        self.posix_probe(
            |c, now| c.lstat(path, now),
            Func::MetaPath { op, path: pid },
        )
    }

    pub fn umask(&mut self, mask: u32) {
        let op = MetaKind::Umask;
        self.posix_probe(|c, now| c.umask(mask, now), Func::MetaPlain { op })
    }

    pub fn fstat(&mut self, fd: Fd) -> FsResult<StatInfo> {
        self.fd_meta(MetaKind::Fstat, fd, |c, now| c.fstat(fd, now))
    }

    pub fn access(&mut self, path: &str) -> FsResult<bool> {
        self.path_meta(MetaKind::Access, path, |c, now| c.access(path, now))
    }

    pub fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.path_meta(MetaKind::Mkdir, path, |c, now| c.mkdir(path, now))
    }

    /// `mkdir` that tolerates the directory already existing (the common
    /// "ensure output dir" idiom; every rank calls it).
    pub fn mkdir_p(&mut self, path: &str) -> FsResult<()> {
        match self.mkdir(path) {
            Err(pfssim::FsError::AlreadyExists { .. }) | Ok(()) => Ok(()),
            Err(e) => Err(e),
        }
    }

    pub fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.path_meta(MetaKind::Rmdir, path, |c, now| c.rmdir(path, now))
    }

    pub fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.path_meta(MetaKind::Unlink, path, |c, now| c.unlink(path, now))
    }

    pub fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (path, path2) = (self.intern(from), self.intern(to));
        let op = MetaKind::Rename;
        self.posix_call(
            OpClass::FsMeta,
            0,
            |c, now| c.rename(from, to, now),
            |_| Func::MetaPath2 { op, path, path2 },
        )
    }

    pub fn getcwd(&mut self) -> FsResult<String> {
        let op = MetaKind::Getcwd;
        self.posix_call(
            OpClass::FsMeta,
            0,
            |c, now| Ok(c.getcwd(now)),
            |_| Func::MetaPlain { op },
        )
    }

    pub fn chdir(&mut self, path: &str) -> FsResult<()> {
        self.path_meta(MetaKind::Chdir, path, |c, now| c.chdir(path, now))
    }

    pub fn readdir(&mut self, path: &str) -> FsResult<Vec<pfssim::DirEntry>> {
        let pid = self.intern(path);
        let (t0, t1, entries) = self.posix_op(OpClass::FsMeta, 0, |c, now| c.readdir(path, now))?;
        // One opendir, one readdir per entry, one closedir — matching how a
        // real tracer would see the loop.
        let rec = |op| Func::MetaPath { op, path: pid };
        self.rec_posix(t0, t1, rec(MetaKind::Opendir));
        for _ in &entries {
            self.rec_posix(t1, t1, rec(MetaKind::Readdir));
        }
        self.rec_posix(t1, t1, rec(MetaKind::Closedir));
        Ok(entries)
    }

    pub fn dup(&mut self, fd: Fd) -> FsResult<Fd> {
        self.fd_meta(MetaKind::Dup, fd, |c, now| c.dup(fd, now))
    }

    pub fn fcntl(&mut self, fd: Fd) -> FsResult<()> {
        self.fd_meta(MetaKind::Fcntl, fd, |c, now| c.fcntl(fd, now))
    }

    pub fn fileno(&mut self, fd: Fd) -> FsResult<Fd> {
        self.fd_meta(MetaKind::Fileno, fd, |c, now| c.fileno(fd, now))
    }
}

/// Max attempts for one POSIX call under transient injected faults: the
/// first try plus up to three retries.
const MAX_IO_ATTEMPTS: u32 = 4;
/// Base backoff (simulated ns) before a retry; doubles per attempt.
const IO_RETRY_BACKOFF_NS: u64 = 50_000;

/// App-side unwrapping of I/O results with graceful degradation: a hard
/// error fail-stops the rank (fault recorded, partial trace salvaged)
/// instead of panicking the whole simulated job. The receiver is the
/// completed `Result`, so `H5File::create(ctx, ..).or_fail_stop(ctx)`
/// borrows cleanly — the mutable borrow inside the call ends before the
/// extension method takes its shared one.
pub trait OrFailStop<T> {
    fn or_fail_stop(self, ctx: &AppCtx) -> T;
}

impl<T> OrFailStop<T> for Result<T, FsError> {
    fn or_fail_stop(self, ctx: &AppCtx) -> T {
        match self {
            Ok(v) => v,
            Err(e) => ctx.fail_stop(format!("unrecoverable I/O error: {e}")),
        }
    }
}

/// The errno a transient injected fault surfaces as.
fn io_fault_error(fault: IoFault) -> FsError {
    let detail = "injected fault".to_string();
    match fault {
        IoFault::Eintr => FsError::Interrupted { detail },
        IoFault::Eio => FsError::IoError { detail },
        IoFault::Enospc => FsError::NoSpace { detail },
        IoFault::LostFlush => unreachable!("lost flush is handled before dispatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::FaultKind;

    /// Runs `open; probe; close` on one rank with an `EIO` that falls due
    /// at the probe (op 0 is the startup barrier, op 1 the open), and
    /// returns the index of the POSIX record that absorbed it. A consumed
    /// fault costs a failed attempt plus the retry backoff before the
    /// attempt that is recorded, so it is the one record that does not
    /// start where its predecessor ended.
    fn absorber(probe: impl Fn(&mut AppCtx, Fd) -> FsResult<()> + Sync) -> usize {
        let cfg = RunConfig::new(1, 7)
            .with_semantics(SemanticsModel::Session) // no lock round trips between records
            .with_max_skew_ns(0)
            .with_faults(FaultPlan::none().with(0, 2, FaultKind::Io(IoFault::Eio)));
        let out = run_app(&cfg, |ctx| {
            let fd = ctx.open("/f", OpenFlags::rdwr_create()).unwrap();
            probe(ctx, fd).unwrap();
            ctx.close(fd).unwrap();
        });
        assert!(out.faults.is_empty(), "one transient fault is retried away");
        let posix: Vec<&Record> = out
            .trace
            .rank_records(0)
            .iter()
            .filter(|r| r.layer == Layer::Posix)
            .collect();
        assert_eq!(posix.len(), 3, "open, probe, close");
        let late: Vec<usize> = (1..3)
            .filter(|&i| posix[i].t_start > posix[i - 1].t_end)
            .collect();
        assert_eq!(late.len(), 1, "exactly one call retried");
        late[0]
    }

    #[test]
    fn a_due_fault_is_consumed_by_posix_call_and_left_alone_by_posix_probe() {
        // Data, fd-metadata and path-metadata calls go through `posix_call`
        // and absorb the fault themselves…
        assert_eq!(absorber(|ctx, fd| ctx.pwrite(fd, 0, b"x").map(drop)), 1);
        assert_eq!(absorber(|ctx, fd| ctx.fstat(fd).map(drop)), 1);
        assert_eq!(absorber(|ctx, _| ctx.access("/f").map(drop)), 1);
        // …while `stat`, `lstat` and `umask` go through `posix_probe`: they
        // are recorded, and the fault waits for the close.
        assert_eq!(absorber(|ctx, _| ctx.stat("/f").map(drop)), 2);
        assert_eq!(absorber(|ctx, _| ctx.lstat("/f").map(drop)), 2);
        assert_eq!(absorber(|ctx, _| Ok(ctx.umask(0o022))), 2);
    }
}
