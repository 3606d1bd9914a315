//! Barrier-based timestamp adjustment (§5.2).
//!
//! Trace timestamps come from each rank's local clock and therefore carry
//! per-rank skew. The paper reduces skew by having every run execute a
//! barrier at startup and re-basing each rank's timestamps so that its exit
//! from that barrier is time zero: all ranks exit a barrier at (nearly) the
//! same true instant, so the re-based clocks agree up to the barrier-exit
//! jitter.

use crate::record::Func;
use crate::traceset::TraceSet;

/// The adjustment computed for one trace: per-rank offsets subtracted from
/// all timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjustment {
    /// Per-rank local-clock time of the first barrier exit (the new zero).
    pub zero_ns: Vec<u64>,
    /// Ranks that never executed a barrier (offset 0 was used).
    pub missing_barrier: Vec<u32>,
}

/// Compute the barrier adjustment for `trace`.
pub fn compute(trace: &TraceSet) -> Adjustment {
    let mut zero_ns = Vec::with_capacity(trace.ranks.len());
    let mut missing = Vec::new();
    for (rank, records) in trace.ranks.iter().enumerate() {
        let first_barrier = records
            .iter()
            .find(|r| matches!(r.func, Func::MpiBarrier { .. }))
            .map(|r| r.t_end);
        match first_barrier {
            Some(t) => zero_ns.push(t),
            None => {
                zero_ns.push(0);
                missing.push(rank as u32);
            }
        }
    }
    Adjustment {
        zero_ns,
        missing_barrier: missing,
    }
}

/// Apply the barrier adjustment in place. Timestamps before the barrier
/// saturate at zero. Re-basing twice is re-basing once: afterwards every
/// rank's first barrier exit is zero.
pub fn rebase(trace: &mut TraceSet) {
    let adj = compute(trace);
    for (records, zero) in trace.ranks.iter_mut().zip(adj.zero_ns) {
        for r in records.iter_mut() {
            r.t_start = r.t_start.saturating_sub(zero);
            r.t_end = r.t_end.saturating_sub(zero);
        }
    }
}

/// [`rebase`] a copy of the trace, leaving `trace` as recorded.
pub fn apply(trace: &TraceSet) -> TraceSet {
    let mut out = trace.clone();
    rebase(&mut out);
    out
}

/// The worst-case residual skew after adjustment, estimated from the
/// ground-truth skews the simulator recorded: after re-basing, residual
/// skew is zero in simulation (all ranks exit the barrier at the same true
/// time), so this returns the *pre-adjustment* spread for reporting.
pub fn raw_skew_spread_ns(trace: &TraceSet) -> u64 {
    let max = trace.skews_ns.iter().copied().max().unwrap_or(0);
    let min = trace.skews_ns.iter().copied().min().unwrap_or(0);
    (max - min).unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Layer, Record};

    fn rec(rank: u32, t: u64, func: Func) -> Record {
        Record {
            t_start: t,
            t_end: t + 5,
            rank,
            layer: Layer::Mpi,
            origin: Layer::Mpi,
            func,
        }
    }

    #[test]
    fn adjust_rebases_on_first_barrier_exit() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![
                vec![
                    rec(0, 100, Func::MpiBarrier { epoch: 0 }),
                    rec(0, 200, Func::Close { fd: 3 }),
                ],
                vec![
                    rec(1, 130, Func::MpiBarrier { epoch: 0 }),
                    rec(1, 230, Func::Close { fd: 3 }),
                ],
            ],
            skews_ns: vec![0, 30],
        };
        let adj = compute(&trace);
        assert_eq!(adj.zero_ns, vec![105, 135]);
        assert!(adj.missing_barrier.is_empty());
        let adjusted = apply(&trace);
        // Both ranks' close records now align at 95.
        assert_eq!(adjusted.ranks[0][1].t_start, 95);
        assert_eq!(adjusted.ranks[1][1].t_start, 95);
        // Pre-barrier times saturate to zero.
        assert_eq!(adjusted.ranks[0][0].t_start, 0);
    }

    #[test]
    fn rebase_is_apply_in_place_and_idempotent() {
        let mut trace = TraceSet {
            paths: vec![],
            ranks: vec![
                vec![
                    rec(0, 100, Func::Close { fd: 3 }),
                    rec(0, 200, Func::MpiBarrier { epoch: 0 }),
                    rec(0, 300, Func::Close { fd: 4 }),
                ],
                vec![rec(1, 130, Func::Close { fd: 3 })],
            ],
            skews_ns: vec![0, 30],
        };
        let adjusted = apply(&trace);
        rebase(&mut trace);
        assert_eq!(trace, adjusted);
        assert_eq!(compute(&trace).zero_ns, vec![0, 0]);
        rebase(&mut trace);
        assert_eq!(trace, adjusted, "a re-based trace re-bases to itself");
        assert_eq!(trace.skews_ns, vec![0, 30], "the recorded skews stay");
    }

    #[test]
    fn missing_barrier_reported() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![vec![rec(0, 10, Func::Close { fd: 1 })]],
            skews_ns: vec![7],
        };
        let adj = compute(&trace);
        assert_eq!(adj.missing_barrier, vec![0]);
        assert_eq!(adj.zero_ns, vec![0]);
        assert_eq!(apply(&trace), trace);
    }

    #[test]
    fn skew_spread() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![],
            skews_ns: vec![-10, 5, 20],
        };
        assert_eq!(raw_skew_spread_ns(&trace), 30);
    }
}
