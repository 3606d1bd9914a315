//! # recorder — the multi-level I/O trace model
//!
//! The paper uses Recorder [Wang et al., IPDPSW'20], an `LD_PRELOAD`
//! interposition library that captures I/O calls at every layer of the HPC
//! I/O stack (HDF5, MPI-IO, POSIX) with entry/exit timestamps, function
//! name, and all call arguments. Interposition is not available here; this
//! crate provides the *trace vocabulary and post-processing* instead, and
//! the simulated I/O libraries call into it explicitly.
//!
//! What this crate owns:
//!
//! * [`Record`] / [`Func`] / [`Layer`] — one trace record per intercepted
//!   call, tagged with the layer it belongs to **and** the layer that
//!   caused it (`origin`), which is how Figure 3 attributes POSIX metadata
//!   calls to "MPI", "HDF5" or "application".
//! * [`TraceSet`] — per-rank record streams plus the interned path table.
//! * A compact binary [`codec`](TraceSet::encode) and a TSV export.
//! * [`adjust`] — the barrier-based timestamp adjustment of §5.2 ("we
//!   perform a barrier operation when starting the run and adjust
//!   timestamps using the exit time from the barrier as time = 0").
//! * [`offset`] — the offset-resolution pass of §5.1: deriving `(offset,
//!   length)` for cursor-relative `read`/`write` calls from `open` flags,
//!   `lseek` whence values, and preceding accesses, yielding the
//!   [`DataAccess`] tuples the conflict/overlap algorithms consume.

pub mod adjust;
pub mod codec;
pub mod combine;
pub mod offset;
mod record;
pub mod stats;
mod traceset;
pub mod tsv;

pub use offset::{AccessKind, DataAccess, ResolvedTrace, SyncEvent, SyncKind};
pub use record::{Arg, Func, IdHasher, IdMap, Layer, MetaKind, PathId, Record, SeekWhence, Wire};
pub use traceset::{
    canonical_remap, shared_interner, Interner, RankTracer, SharedInterner, TraceSet,
};
