//! Simulated time and the per-operation cost model.
//!
//! Simulated time is a single `u64` nanosecond counter owned by the world
//! state. Only the rank holding the scheduler token advances it, so it is
//! totally ordered and reproducible. Costs are crude —
//! the analysis only needs *plausible* relative magnitudes (metadata
//! operations microseconds apart, synchronized conflicting I/O tens of
//! milliseconds apart, skew ≤ 20 µs) to reproduce the paper's ordering
//! arguments.

/// Classes of simulated operations, used to look up a latency in the
/// [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Entering/participating in a barrier.
    Barrier,
    /// Posting a point-to-point message (buffered, non-blocking completion).
    Send,
    /// Completing a matching receive.
    Recv,
    /// A pure-computation delay injected by the application replica
    /// (e.g. one time step of a simulated solver).
    Compute,
    /// Opening a file (client ↔ metadata server round trip).
    FsOpen,
    /// Closing a file.
    FsClose,
    /// A data read; per-byte cost applies.
    FsRead,
    /// A data write; per-byte cost applies.
    FsWrite,
    /// Seek: purely client-side cursor update.
    FsSeek,
    /// fsync / commit: flush to the data servers.
    FsSync,
    /// A metadata operation (stat family, mkdir, unlink, …).
    FsMeta,
    /// Acquiring a distributed lock from the lock manager (strong
    /// semantics only).
    FsLock,
}

/// Latency model: `base` nanoseconds per operation plus `per_kib` nanoseconds
/// for every KiB moved by data operations.
///
/// The defaults are loosely calibrated to a burst-buffer-class PFS: µs-scale
/// metadata, and ~1 GiB/s effective single-stream bandwidth.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub barrier_ns: u64,
    pub send_base_ns: u64,
    pub recv_base_ns: u64,
    pub msg_per_kib_ns: u64,
    pub fs_open_ns: u64,
    pub fs_close_ns: u64,
    pub fs_read_base_ns: u64,
    pub fs_write_base_ns: u64,
    pub fs_io_per_kib_ns: u64,
    pub fs_seek_ns: u64,
    pub fs_sync_ns: u64,
    pub fs_meta_ns: u64,
    pub fs_lock_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            barrier_ns: 20_000,  // 20 µs
            send_base_ns: 2_000, // 2 µs
            recv_base_ns: 2_000,
            msg_per_kib_ns: 100, // ~10 GiB/s fabric
            fs_open_ns: 50_000,  // 50 µs metadata round trip
            fs_close_ns: 30_000,
            fs_read_base_ns: 10_000,
            fs_write_base_ns: 10_000,
            fs_io_per_kib_ns: 1_000, // ~1 GiB/s
            fs_seek_ns: 200,         // client-side only
            fs_sync_ns: 200_000,     // 200 µs flush
            fs_meta_ns: 40_000,      // 40 µs
            fs_lock_ns: 60_000,      // 60 µs lock manager round trip
        }
    }
}

impl CostModel {
    /// Latency of `class` moving `bytes` bytes of payload.
    pub fn cost(&self, class: OpClass, bytes: u64) -> u64 {
        let per_kib = |rate: u64| (bytes * rate) / 1024;
        match class {
            OpClass::Barrier => self.barrier_ns,
            OpClass::Send => self.send_base_ns + per_kib(self.msg_per_kib_ns),
            OpClass::Recv => self.recv_base_ns + per_kib(self.msg_per_kib_ns),
            OpClass::Compute => bytes, // caller passes the delay directly
            OpClass::FsOpen => self.fs_open_ns,
            OpClass::FsClose => self.fs_close_ns,
            OpClass::FsRead => self.fs_read_base_ns + per_kib(self.fs_io_per_kib_ns),
            OpClass::FsWrite => self.fs_write_base_ns + per_kib(self.fs_io_per_kib_ns),
            OpClass::FsSeek => self.fs_seek_ns,
            OpClass::FsSync => self.fs_sync_ns,
            OpClass::FsMeta => self.fs_meta_ns,
            OpClass::FsLock => self.fs_lock_ns,
        }
    }
}

/// Applies a signed skew offset to a true simulated timestamp, saturating at
/// zero. Recorded trace timestamps are skewed; internal ordering never is.
pub fn apply_skew(t: u64, skew: i64) -> u64 {
    if skew >= 0 {
        t.saturating_add(skew as u64)
    } else {
        t.saturating_sub(skew.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_bytes() {
        let m = CostModel::default();
        let small = m.cost(OpClass::FsWrite, 1024);
        let large = m.cost(OpClass::FsWrite, 1024 * 1024);
        assert!(large > small);
        assert_eq!(
            large - small,
            (1024 * 1024 - 1024) / 1024 * m.fs_io_per_kib_ns
        );
    }

    #[test]
    fn compute_cost_is_identity() {
        let m = CostModel::default();
        assert_eq!(m.cost(OpClass::Compute, 12345), 12345);
    }

    #[test]
    fn skew_saturates() {
        assert_eq!(apply_skew(5, -10), 0);
        assert_eq!(apply_skew(5, 10), 15);
        assert_eq!(apply_skew(u64::MAX, 10), u64::MAX);
    }
}
