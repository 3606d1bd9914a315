//! Simulated time and the per-operation cost table.
//!
//! Simulated time is a single `u64` nanosecond counter owned by the world
//! state. Only the rank holding the scheduler token advances it, so it is
//! totally ordered and reproducible; what a rank *reads* between its
//! operations is the time it last observed (`Rank::now`). Costs are crude —
//! the analysis only needs *plausible* relative magnitudes (metadata
//! operations microseconds apart, synchronized conflicting I/O tens of
//! milliseconds apart, skew ≤ 20 µs) to reproduce the paper's ordering
//! arguments.

/// Classes of simulated operations; each has one latency in the cost
/// table.
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

/// Latency of `class` moving `bytes` bytes of payload: a base cost per
/// operation plus, for data movement, a per-KiB rate. Loosely calibrated to
/// a burst-buffer-class PFS: µs-scale metadata, ~1 GiB/s effective
/// single-stream bandwidth, a ~10 GiB/s fabric.
pub(crate) fn cost(class: OpClass, bytes: u64) -> u64 {
    let per_kib = |rate: u64| (bytes * rate) / 1024;
    match class {
        OpClass::Barrier => 20_000,
        OpClass::Send | OpClass::Recv => 2_000 + per_kib(100),
        OpClass::Compute => bytes, // caller passes the delay directly
        OpClass::FsOpen => 50_000, // metadata round trip
        OpClass::FsClose => 30_000,
        OpClass::FsRead | OpClass::FsWrite => 10_000 + per_kib(1_000),
        OpClass::FsSeek => 200, // client-side only
        OpClass::FsSync => 200_000,
        OpClass::FsMeta => 40_000,
        OpClass::FsLock => 60_000, // lock manager round trip
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
        let small = cost(OpClass::FsWrite, 1024);
        let large = cost(OpClass::FsWrite, 1024 * 1024);
        assert!(large > small);
        assert_eq!(large - small, (1024 * 1024 - 1024) / 1024 * 1_000);
    }

    #[test]
    fn compute_cost_is_identity() {
        assert_eq!(cost(OpClass::Compute, 12345), 12345);
    }

    #[test]
    fn skew_saturates() {
        assert_eq!(apply_skew(5, -10), 0);
        assert_eq!(apply_skew(5, 10), 15);
        assert_eq!(apply_skew(u64::MAX, 10), u64::MAX);
    }
}
