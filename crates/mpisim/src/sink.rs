//! Epoch notifications for streaming consumers.

use std::fmt;
use std::sync::Arc;

/// Receiver of a world's epoch signal: a synchronization epoch commits
/// when every live rank has passed a barrier. Streaming analyses use it
/// as their happens-before commit point — everything before a released
/// barrier is ordered before everything after it, so state that only
/// mattered within the epoch can be retired.
///
/// The callback runs on a simulation thread **while the world lock is
/// held**: it must be cheap and must never call back into the world
/// (barrier, send/recv, clock reads) — doing so would self-deadlock.
pub trait EpochNotify: Send + Sync {
    /// Barrier epoch `epoch` released: every live rank has arrived.
    fn epoch_released(&self, epoch: u64);
}

/// Cloneable, debug-opaque handle around a shared [`EpochNotify`], so
/// configuration structs can keep their `Debug`/`Clone` derives.
#[derive(Clone)]
pub struct EpochSinkHandle(pub Arc<dyn EpochNotify>);

impl EpochSinkHandle {
    pub fn new(sink: Arc<dyn EpochNotify>) -> Self {
        EpochSinkHandle(sink)
    }
}

// The harness wraps rank bodies in `catch_unwind` (graceful degradation),
// and configs holding a sink must stay unwind-safe. Sinks are required to
// guard their state behind a lock (they are called from concurrent rank
// threads already), so a panic cannot leave observable broken invariants
// that aren't poison-handled.
impl std::panic::UnwindSafe for EpochSinkHandle {}
impl std::panic::RefUnwindSafe for EpochSinkHandle {}

impl fmt::Debug for EpochSinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EpochSinkHandle(..)")
    }
}
