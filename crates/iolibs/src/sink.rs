//! Record sinks: online consumers of a run's trace.
//!
//! A [`RunConfig`](crate::RunConfig) carrying a [`SinkHandle`] makes every
//! rank stream its POSIX and MPI records to the sink as they are emitted,
//! already barrier-adjusted (re-based so the startup-barrier exit is t = 0,
//! the same adjustment [`recorder::adjust::rebase`] performs post-hoc). The
//! harness additionally signals barrier epoch commits and, once the run
//! completes, the [`PathId`](recorder::PathId) canonicalization.
//!
//! Contract:
//!
//! * `push` delivers one rank's POSIX records, then its MPI records, each
//!   in program order with nondecreasing `t_start`; `frontier` promises
//!   every *future* record of that rank has `t_start >= frontier`. Chunks
//!   from different ranks arrive concurrently (sinks must be `Sync`).
//! * Record `PathId`s are the run's pre-assembly interner ids;
//!   `assembly_remap` delivers the translation to the canonical trace ids
//!   ([`recorder::canonical_remap`]) once the run completes.
//! * `epoch_released(e)` comes from the rank whose arrival released
//!   epoch `e`, after its barrier returned and before that rank's
//!   frontier moves past the barrier. An epoch a crash released is not
//!   signalled. It is a hint for retiring state, never a result.
//! * Every callback runs on a simulated rank (or, for `assembly_remap`,
//!   the run's caller), outside the simulator's lock.
//!
//! A run streams or records, never both. With a sink it builds no trace:
//! its [`RunOutcome::trace`](crate::RunOutcome::trace) holds the ranks and
//! their clock skews but no records. Without one, each rank appends to a
//! [`RankTracer`](recorder::RankTracer) instead — every POSIX and
//! library-level record, on the rank's raw (skewed, unadjusted) clock, the
//! MPI records merged in at the end — and the harness assembles the trace
//! with [`recorder::canonical_remap`], handing it back as `trace` for the
//! at-rest analyses. Either way
//! [`RunOutcome::records`](crate::RunOutcome::records) counts what the run
//! emitted.

use std::fmt;
use std::sync::Arc;

use recorder::Record;

/// Receiver of streamed run records. Methods with empty defaults are
/// optional signals.
pub trait RunSink: Send + Sync {
    /// A chunk of `rank`'s barrier-adjusted records: POSIX, then MPI.
    fn push(&self, rank: u32, records: &[Record], frontier: u64);

    /// `rank` will emit no further records (finished or fail-stopped).
    fn rank_done(&self, rank: u32);

    /// Synchronization epoch `epoch` committed: all live ranks passed a
    /// barrier. A happens-before boundary usable for retiring state; sent
    /// by the rank whose arrival released it.
    fn epoch_released(&self, epoch: u64) {
        let _ = epoch;
    }

    /// The path canonicalization a trace of the run is assembled with:
    /// `remap[streamed_id] = canonical_id`.
    fn assembly_remap(&self, remap: &[u32]) {
        let _ = remap;
    }
}

/// Cloneable, debug-opaque handle around a shared [`RunSink`], so
/// [`RunConfig`](crate::RunConfig) keeps its `Debug`/`Clone` derives.
#[derive(Clone)]
pub struct SinkHandle(pub Arc<dyn RunSink>);

impl SinkHandle {
    pub fn new(sink: Arc<dyn RunSink>) -> Self {
        SinkHandle(sink)
    }
}

// Rank bodies run under `catch_unwind` (graceful degradation); a config
// holding a sink must stay unwind-safe. Sinks are already required to be
// `Sync` (concurrent rank chunks), so their state is lock-guarded and a
// panic cannot expose un-poisoned broken invariants.
impl std::panic::UnwindSafe for SinkHandle {}
impl std::panic::RefUnwindSafe for SinkHandle {}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}
