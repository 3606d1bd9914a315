//! Run one application configuration through the stack and the full
//! analysis pipeline.
//!
//! Two pipelines, chosen by what the caller reads. A run streams or
//! records, never both:
//!
//! * Streamed ([`analyze_incremental`]): the run carries a
//!   [`StreamingAnalyzer`] as its record sink and keeps no trace.
//!   [`analyze`], [`analyze_with_params`], [`analyze_all_threaded`] and
//!   the isolated (`--keep-going`) entry points are this one pipeline
//!   under different failure contracts — verdicts, tables, `check`, the
//!   fault campaign and the service.
//! * At rest ([`analyze_with_faults`]): the run has no sink, so it records
//!   its trace, and the paper's algorithms as published — the at-rest
//!   functions of `semantics_core`, which `tracetool` and the facade call
//!   on finished traces — analyze it afterwards ([`analyze_at_rest`]). The
//!   readers of a trace (Figure 2, `app-report`, `advise`,
//!   `meta-conflicts`) take this one, and it is the reference
//!   `tests/incremental_identity.rs` holds the stream byte-identical to.

use std::sync::Arc;

use hpcapps::{AppId, AppSpec, ScaleParams};
use iolibs::{
    run_app_result, FaultPlan, RunConfig, RunOutcome, SimError, SinkHandle, DEFAULT_MAX_SKEW_NS,
};
use pfssim::PfsStats;
use recorder::offset::ResolveCounts;
use recorder::{adjust, offset, Record, ResolvedTrace, TraceSet};
use semantics_core::conflict::{detect_conflicts, AnalysisModel, ConflictReport};
use semantics_core::hb::{validate_conflicts, HbValidation};
use semantics_core::incremental::StreamingAnalyzer;
use semantics_core::metadata::MetadataCensus;
use semantics_core::patterns::{global_pattern, highlevel, local_pattern, PatternStats};
use semantics_core::verdict::{required_model, Completeness, Verdict};

/// Global knobs for a report run.
#[derive(Debug, Clone, Copy)]
pub struct ReportCfg {
    /// World size. The paper's presented results use 64 ranks.
    pub nranks: u32,
    pub seed: u64,
    /// Maximum injected clock skew (ns); defaults to the paper's bound,
    /// [`DEFAULT_MAX_SKEW_NS`].
    pub max_skew_ns: u64,
}

impl Default for ReportCfg {
    fn default() -> Self {
        ReportCfg {
            nranks: 64,
            seed: 2021,
            max_skew_ns: DEFAULT_MAX_SKEW_NS,
        }
    }
}

/// Everything the analysis produces for one configuration.
pub struct AnalyzedRun {
    pub spec: &'static AppSpec,
    /// Cached `spec.config_name()`; rendering uses it repeatedly.
    name: String,
    /// The run's trace, re-based in place to the startup barrier's exit
    /// ([`adjust::rebase`]) — kept only by a run analyzed at rest
    /// ([`analyze_with_faults`]). No verdict reads it; Figure 2,
    /// `app-report`, `advise` and `meta-conflicts` do, through
    /// [`AnalyzedRun::trace`].
    trace: Option<TraceSet>,
    /// Spread of the clock skews injected into the ranks (max − min, ns),
    /// kept by every run: §5.2's validation compares it with the gaps
    /// between conflicting operations.
    pub skew_spread_ns: u64,
    /// Every record the run emitted (POSIX, library-level, MPI), kept or
    /// not: what a kept trace's [`TraceSet::total_records`] says.
    pub records: u64,
    /// The file system's counters at the end of the run (its file images
    /// are not kept).
    pub pfs_stats: PfsStats,
    /// What offset resolution produced. The stream consumed the resolved
    /// accesses as they drained; [`AnalyzedRun::resolved`] derives them
    /// again for a reader that wants them.
    pub resolution: ResolveCounts,
    pub session: ConflictReport,
    pub commit: ConflictReport,
    pub highlevel: highlevel::HighLevelReport,
    pub local: PatternStats,
    pub global: PatternStats,
    pub census: MetadataCensus,
    pub verdict: Verdict,
    pub hb: HbValidation,
    pub nranks: u32,
    /// Whether every rank ran to completion or some fail-stopped,
    /// leaving trace prefixes behind.
    pub completeness: Completeness,
}

impl AnalyzedRun {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The run's re-based trace. Panics unless the run was analyzed at
    /// rest ([`analyze_with_faults`]): a streamed run keeps none.
    pub fn trace(&self) -> &TraceSet {
        self.trace
            .as_ref()
            .unwrap_or_else(|| panic!("{}: streamed, so it kept no trace", self.name))
    }

    /// The resolved accesses and sync events, derived at rest from
    /// [`AnalyzedRun::trace`]: the same resolution step the stream ran,
    /// over the same re-based records in the same order. Figure 2,
    /// `app-report` and `advise` read them; no verdict does.
    pub fn resolved(&self) -> ResolvedTrace {
        offset::resolve(self.trace())
    }

    /// Measured Table 4 marks under session semantics.
    pub fn session_marks(&self) -> (bool, bool, bool, bool) {
        self.session.table4_marks()
    }
}

/// Run and analyze one configuration.
pub fn analyze(cfg: &ReportCfg, spec: &'static AppSpec) -> AnalyzedRun {
    analyze_with_params(cfg, spec, &spec.params)
}

/// Run and analyze one configuration with overridden scale parameters.
pub fn analyze_with_params(
    cfg: &ReportCfg,
    spec: &'static AppSpec,
    params: &ScaleParams,
) -> AnalyzedRun {
    analyze_incremental(cfg, spec, params, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("simulated run failed: {e}"))
}

/// The prologue every pipeline shares: run the configuration under a
/// `report:<span_name>` span, stamp the span with the outcome, and flush
/// the per-config aggregate metrics — one counter bump per config
/// (deterministic) and one wall-time histogram sample (timing-only, never
/// compared across runs). The span comes back with the outcome so it keeps
/// covering the analysis the caller does next.
fn run_config(
    span_name: &'static str,
    cfg: &ReportCfg,
    spec: &'static AppSpec,
    params: &ScaleParams,
    faults: &FaultPlan,
    sink: Option<SinkHandle>,
) -> Result<(obs::SpanGuard, RunOutcome), SimError> {
    let mut span = obs::span("report", span_name).with_arg("config", spec.config_name());
    let t0 = std::time::Instant::now();
    let mut run_cfg = RunConfig::new(cfg.nranks, cfg.seed)
        .with_max_skew_ns(cfg.max_skew_ns)
        .with_faults(faults.clone())
        .with_label(spec.config_name());
    run_cfg.sink = sink;
    let result = run_app_result(&run_cfg, |ctx| spec.run_with(ctx, params));
    span.set_arg(
        "outcome",
        match &result {
            Ok(o) if o.is_degraded() => "partial",
            Ok(_) => "ok",
            Err(_) => "error",
        },
    );
    if obs::metrics_enabled() {
        let m = obs::metrics();
        m.add("report.configs", 1);
        match &result {
            Ok(o) => {
                if o.is_degraded() {
                    m.add("report.configs_partial", 1);
                }
                m.observe("report.config_wall_ns", t0.elapsed().as_nanos() as u64);
            }
            Err(_) => m.add("report.configs_failed", 1),
        }
    }
    result.map(|outcome| (span, outcome))
}

/// The at-rest pipeline: run the configuration without a sink, so it
/// records its trace, then analyze the finished run
/// ([`analyze_at_rest`]). Same contract as [`analyze_incremental`], which
/// `tests/incremental_identity.rs` compares against it; the result keeps
/// the trace for the readers of one.
pub fn analyze_with_faults(
    cfg: &ReportCfg,
    spec: &'static AppSpec,
    params: &ScaleParams,
    faults: &FaultPlan,
) -> Result<AnalyzedRun, SimError> {
    let (_span, outcome) = run_config("config", cfg, spec, params, faults, None)?;
    Ok(analyze_at_rest(spec, outcome))
}

/// The at-rest half of [`analyze_with_faults`]: re-base the trace of a
/// finished run that recorded one (it ran without a sink) in place, then
/// hand it to the at-rest functions, one call per analysis.
pub fn analyze_at_rest(spec: &'static AppSpec, mut outcome: RunOutcome) -> AnalyzedRun {
    let nranks = outcome.trace.nranks();
    adjust::rebase(&mut outcome.trace);
    let resolved = offset::resolve(&outcome.trace);
    let session = detect_conflicts(&resolved, AnalysisModel::Session);
    let commit = detect_conflicts(&resolved, AnalysisModel::Commit);
    AnalyzedRun {
        spec,
        name: spec.config_name(),
        highlevel: highlevel::classify(&resolved, nranks),
        local: local_pattern(&resolved),
        global: global_pattern(&resolved),
        resolution: resolved.counts(),
        census: MetadataCensus::from_trace(&outcome.trace),
        verdict: required_model(&session, &commit),
        hb: validate_conflicts(&outcome.trace, &session),
        nranks,
        completeness: completeness_of(&outcome),
        pfs_stats: outcome.pfs.stats(),
        records: outcome.records,
        skew_spread_ns: adjust::raw_skew_spread_ns(&outcome.trace),
        trace: Some(outcome.trace),
        session,
        commit,
    }
}

fn completeness_of(outcome: &RunOutcome) -> Completeness {
    Completeness::from_crashed(outcome.faults.iter().map(|(r, _)| *r).collect())
}

/// Bridge from the harness's record stream to the online analyzer:
/// the run pushes adjusted per-rank record chunks, epoch commits, and the
/// assembly path remap; the analyzer does the rest.
struct AnalyzerSink(Arc<StreamingAnalyzer>);

impl iolibs::RunSink for AnalyzerSink {
    fn push(&self, rank: u32, records: &[Record], frontier: u64) {
        self.0.push(rank, records, frontier);
    }

    fn rank_done(&self, rank: u32) {
        self.0.rank_done(rank);
    }

    fn epoch_released(&self, epoch: u64) {
        self.0.epoch_released(epoch);
    }

    fn assembly_remap(&self, remap: &[u32]) {
        self.0.set_remap(remap);
    }
}

/// The streaming pipeline: run the configuration with a
/// [`StreamingAnalyzer`] attached as a record sink, so offset resolution,
/// conflict detection, all pattern analyses, the metadata census and the
/// happens-before validation happen *while the simulation runs*; on
/// completion only the cheap finalize (plus the verdict) remains. The run
/// keeps no trace. Rank crashes leave trace prefixes; the analysis runs on
/// them unchanged and the result is labeled via
/// [`AnalyzedRun::completeness`]. A deadlock (the one fault the world
/// cannot degrade through) comes back as `Err` instead of a panic.
pub fn analyze_incremental(
    cfg: &ReportCfg,
    spec: &'static AppSpec,
    params: &ScaleParams,
    faults: &FaultPlan,
) -> Result<AnalyzedRun, SimError> {
    let analyzer = Arc::new(StreamingAnalyzer::new(cfg.nranks));
    let sink = SinkHandle::new(Arc::new(AnalyzerSink(Arc::clone(&analyzer))));
    let (_span, outcome) = run_config("config:incremental", cfg, spec, params, faults, Some(sink))?;
    let inc = analyzer.finalize();
    Ok(AnalyzedRun {
        spec,
        name: spec.config_name(),
        census: inc.census,
        verdict: required_model(&inc.session, &inc.commit),
        hb: inc.hb,
        nranks: cfg.nranks,
        completeness: completeness_of(&outcome),
        pfs_stats: outcome.pfs.stats(),
        records: outcome.records,
        skew_spread_ns: adjust::raw_skew_spread_ns(&outcome.trace),
        trace: None,
        resolution: inc.resolution,
        session: inc.session,
        commit: inc.commit,
        highlevel: inc.highlevel,
        local: inc.local,
        global: inc.global,
    })
}

/// The analyzed configurations, borrowed from the `'static` registry (no
/// per-call `AppSpec` clones).
fn selected_specs(include_variants: bool) -> Vec<&'static AppSpec> {
    hpcapps::specs()
        .iter()
        .filter(|s| include_variants || s.in_table4 || matches!(s.id, hpcapps::AppId::FlashNofbs))
        .collect()
}

/// Analyze every Table 4 configuration (plus, optionally, the extra
/// variants), fanned across `threads` worker threads (`0` = one per core,
/// `1` = serial). Each configuration is an
/// independent simulation + analysis, so this is the app-level
/// parallelism; results come back in spec order, so every artifact
/// rendered from them is byte-identical to the serial run.
pub fn analyze_all_threaded(
    cfg: &ReportCfg,
    include_variants: bool,
    threads: usize,
) -> Vec<AnalyzedRun> {
    let specs = selected_specs(include_variants);
    semantics_core::parallel_map_indexed(specs.len(), threads, |k| analyze(cfg, specs[k]))
}

/// [`analyze_all_threaded`] with per-configuration error isolation
/// (`--keep-going`): every configuration comes back as a
/// [`ConfigOutcome`], so one degraded run cannot abort the suite. The
/// configurations named in `at_rest` are analyzed at rest and keep their
/// traces ([`analyze_with_faults`]). Result order is still spec order.
pub fn analyze_all_isolated(
    cfg: &ReportCfg,
    include_variants: bool,
    threads: usize,
    at_rest: &[AppId],
) -> Vec<ConfigOutcome> {
    let specs = selected_specs(include_variants);
    let clean = FaultPlan::none();
    semantics_core::parallel_map_indexed(specs.len(), threads, |k| {
        let (spec, params) = (specs[k], &specs[k].params);
        if at_rest.contains(&spec.id) {
            isolated(spec, || analyze_with_faults(cfg, spec, params, &clean))
        } else {
            isolated(spec, || analyze_incremental(cfg, spec, params, &clean))
        }
    })
}

/// One configuration's result under per-config error isolation: either a
/// full analysis (possibly of a partial trace) or a degraded marker
/// carrying the failure, so one bad configuration cannot take down a
/// whole report run (`--keep-going`).
pub enum ConfigOutcome {
    Ok(Box<AnalyzedRun>),
    Degraded {
        name: String,
        error: String,
        /// `true` when the failure was an unwinding panic rather than a
        /// structured [`SimError`] — the fault campaign's red line.
        panicked: bool,
    },
}

impl ConfigOutcome {
    pub fn name(&self) -> &str {
        match self {
            ConfigOutcome::Ok(run) => run.name(),
            ConfigOutcome::Degraded { name, .. } => name,
        }
    }

    pub fn is_degraded(&self) -> bool {
        matches!(self, ConfigOutcome::Degraded { .. })
    }
}

/// Render a caught panic payload for a DEGRADED row.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// [`analyze_incremental`] with full per-config isolation: structured
/// simulation errors *and* panics are both captured as
/// [`ConfigOutcome::Degraded`] instead of propagating (the serve cold
/// path, `--keep-going`, the fault campaign). Isolation is all it adds.
pub fn analyze_isolated(
    cfg: &ReportCfg,
    spec: &'static AppSpec,
    params: &ScaleParams,
    faults: &FaultPlan,
) -> ConfigOutcome {
    isolated(spec, || analyze_incremental(cfg, spec, params, faults))
}

/// `run` — one analysis of `spec` — with every failure captured as
/// [`ConfigOutcome::Degraded`].
pub fn isolated(
    spec: &'static AppSpec,
    run: impl FnOnce() -> Result<AnalyzedRun, SimError>,
) -> ConfigOutcome {
    let mut span = obs::span("report", "config:isolated").with_arg("config", spec.config_name());
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
    let outcome = match attempt {
        Ok(Ok(run)) => {
            span.set_arg("outcome", "ok");
            ConfigOutcome::Ok(Box::new(run))
        }
        Ok(Err(e)) => {
            span.set_arg("outcome", "DEGRADED");
            ConfigOutcome::Degraded {
                name: spec.config_name(),
                error: e.to_string(),
                panicked: false,
            }
        }
        Err(payload) => {
            span.set_arg("outcome", "DEGRADED");
            span.set_arg("panicked", 1u64);
            ConfigOutcome::Degraded {
                name: spec.config_name(),
                error: panic_message(payload),
                panicked: true,
            }
        }
    };
    if outcome.is_degraded() && obs::metrics_enabled() {
        obs::metrics().add("report.configs_degraded", 1);
    }
    outcome
}
