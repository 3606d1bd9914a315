//! # obs — the stack's observability substrate
//!
//! The paper's whole method rests on multi-level tracing of *applications*
//! (Recorder capturing POSIX/MPI-IO/HDF5 records); this crate turns the
//! same lens on the reproduction itself. Every layer — the mpisim
//! scheduler, the pfssim servers, the iolibs harness, the core analysis
//! pipeline, and the report runner — emits into one shared substrate:
//!
//! * **Spans** ([`span()`]) — hierarchical timed regions with
//!   deterministic per-thread ids, collected into one locked buffer and
//!   exported as Chrome trace-event JSON ([`trace`]) loadable in
//!   Perfetto. Analysis-side spans run on the wall clock; mpisim's events
//!   carry *simulated* timestamps under one pseudo-pid per rank, flushed
//!   once per run ([`span::push_bulk`]).
//! * **Metrics** ([`metrics()`]) — a registry of named counters and
//!   fixed-bucket (log2) histograms. Counters record deterministic event
//!   counts (ops, messages, retries, faults), so totals are identical
//!   across thread counts and across runs.
//! * **Logging** ([`mod@log`]) — a leveled stderr logger behind one atomic,
//!   replacing scattered `eprintln!` progress lines.
//! * **Flight recorder** ([`flight()`]) — an always-on ring of recent
//!   structured serving events (request ids, single-flight transitions,
//!   store verdicts), dumped to a postmortem file on panic or drain.
//!   Unlike spans/metrics it defaults *on*: it exists for the request
//!   nobody planned to watch.
//! * **SLO telemetry** ([`slo`]) — sliding-window per-endpoint latency
//!   histograms and outcome counters (deterministic under a
//!   caller-supplied clock), plus a from-scratch Prometheus
//!   text-exposition parser used to validate `/metricsz`.
//! * **Shared encodings** ([`mod@json`], [`fnv`]) — the workspace's one
//!   JSON (value type, escaper, depth-bounded parser) and one FNV-1a.
//!   They live here because every crate but `cluster` and `simrng`
//!   already depends on this one.
//!
//! Every collector — the span buffer, the metrics registry, the flight
//! ring and the SLO window — is one `Mutex` around plain data: the
//! serving path touches them a few times per request, microseconds
//! apart, too seldom for a lock to contend. Every histogram here — the
//! registry's and the SLO window's — files a value by one log2 bucket
//! rule (`metrics.rs`: bucket `floor(log2 v)`, inclusive bound
//! `2^(i+1) - 1`).
//!
//! Everything is disabled by default. The hot-path check is a single
//! relaxed atomic load ([`tracing_enabled`] / [`metrics_enabled`]), and
//! instrumented layers keep their emission off the per-op fast path
//! (simulators flush aggregate counters once per run), so the measured
//! end-to-end overhead stays under the 2% budget (the benchmark's
//! `trace.overhead_pct`). Enabling observability never changes a single
//! artifact byte: spans and counters are write-only side channels,
//! enforced by `crates/report/tests/obs.rs`.

pub mod flight;
pub mod fnv;
pub mod json;
pub mod log;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

pub use flight::{
    dump_postmortem, flight, set_postmortem_path, FlightEvent, FlightKind, FlightRecorder,
};
pub use log::Level;
pub use metrics::{metrics, Counter, Registry};
pub use slo::{class_of, parse_exposition, Sample, SloRow, SloWindow};
pub use span::{
    alloc_sim_pids, instant, process_name, span, wall_ns, wall_ns_at, Arg, Phase, SpanGuard,
    TraceEvent, ANALYSIS_PID,
};
pub use trace::{validate_chrome_trace, write_chrome_trace, TraceSummary};

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);

/// Whether span/event collection is on. One relaxed load — this is the
/// check every instrumentation site performs before doing any work.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Whether metric recording is on. One relaxed load.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Turn span/event collection on or off process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Turn metric recording on or off process-wide.
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Lock `m`, taking over a poisoned lock: no update under these locks can
/// stop halfway through, so the data is whole, and telemetry stays
/// readable after a panic elsewhere, which is when its dumps matter most.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-global observability configuration, applied with [`init`].
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Collect spans/events for Chrome-trace export.
    pub tracing: bool,
    /// Record counters/histograms in the global registry.
    pub metrics: bool,
    /// Stderr log level.
    pub level: Level,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: false,
            metrics: false,
            level: Level::Info,
        }
    }
}

/// Apply an [`ObsConfig`] to the process-global switches.
pub fn init(cfg: &ObsConfig) {
    set_tracing(cfg.tracing);
    set_metrics(cfg.metrics);
    log::set_level(cfg.level);
}

/// Serializes unit tests that touch the process-global switches or the
/// shared span collector — `#[test]` fns in one binary run concurrently.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_default_off_and_toggle() {
        let _guard = test_lock();
        set_tracing(true);
        assert!(tracing_enabled());
        set_tracing(false);
        assert!(!tracing_enabled());
        set_metrics(true);
        assert!(metrics_enabled());
        set_metrics(false);
        assert!(!metrics_enabled());
    }
}
