//! # mpisim — an in-process simulated MPI runtime
//!
//! The paper traces real MPI applications running on a cluster. This crate
//! substitutes an in-process runtime: every MPI *rank* is a resumable task
//! on one discrete-event loop (or, under [`ExecModel::Threads`], an OS
//! thread), and all communication (point-to-point messages, barriers,
//! collectives) happens through shared simulator state guarded by a single
//! lock. The task executor is what makes thousand-rank worlds affordable:
//! a rank switch is a userspace stack swap instead of a futex round trip,
//! and rank memory is a lazily-committed task stack instead of an OS
//! thread.
//!
//! Four properties matter for the reproduction:
//!
//! 1. **Timestamps with controllable skew.** The paper's conflict-detection
//!    algorithm (§5.2) orders operations by local-clock timestamps and argues
//!    that clock skew (< 20 µs on Quartz, [`DEFAULT_MAX_SKEW_NS`]) is
//!    negligible relative to the gaps between synchronized conflicting
//!    operations. Simulated time is a global nanosecond counter advanced by
//!    a fixed per-operation cost; a rank reads the time it last observed
//!    ([`Rank::now`]: the end of its last operation or barrier), as a traced
//!    process reads its own clock; a per-rank *skew offset* is applied when
//!    timestamps are recorded, so the barrier-based adjustment of §5.2 can
//!    be exercised and stress-tested.
//!
//! 2. **Happens-before edges.** Sends/receives and barriers are logged with
//!    matching sequence numbers so the analysis can rebuild the partial order
//!    imposed by communication and validate that conflicting I/O operations
//!    are synchronized (the FLASH validation of §5.2). The one rank whose
//!    arrival released a barrier epoch learns so from its return value
//!    ([`BarrierInfo::released`]); a layer above that streams the trace
//!    signals the epoch from there, after the barrier returns — the world
//!    calls nothing back.
//!
//! 3. **One way to run.** Ranks advance in a lockstep token protocol and
//!    the next rank to act is chosen by a seeded RNG among the ranks that
//!    are asking, so a given `(seed, program)` pair always yields the
//!    identical interleaving and the identical trace — determinism is a
//!    property of a world, not an option of one. One grant policy picks
//!    how long a granted rank keeps the token: until it parks (burst
//!    grants, the default) or for one operation
//!    ([`WorldCfg::per_op_lockstep`], the reference of
//!    `sched_robustness.rs`). Either way a message defers its receiver's
//!    wake to one list, released when no rank can otherwise run (burst) or
//!    at the end of every turn (per-op).
//!
//! 4. **Seeded fault injection** ([`FaultPlan`]) with graceful
//!    degradation. Rank crashes, transient I/O errors, lost flushes and
//!    message delays are scheduled ahead of time by per-rank op index, so
//!    `(seed, plan, program)` still fully determines the trace;
//!    [`World::run`] reports failures as values ([`RunOutput::faults`],
//!    `Err(SimError)`) instead of unwinding panics into caller frames.

mod clock;
mod comm;
mod error;
mod event;
mod fault;
mod sched;
mod task;
mod world;

pub use clock::{apply_skew, OpClass};
pub use comm::{BarrierInfo, Frames, Gathered, RecvInfo, SendInfo};
pub use error::{SimAbort, SimError};
pub use event::{EventKind, MpiEvent};
pub use fault::{FaultKind, FaultPlan, FaultSite, IoFault};
pub use task::stack_allocs as task_stack_allocs;
pub use world::{ExecModel, Rank, RunOutput, World, WorldCfg, DEFAULT_MAX_SKEW_NS, MAX_RANKS};
