//! Happens-before validation (§5.2).
//!
//! The conflict detector orders operations by (adjusted) timestamps. The
//! paper validates that this is sound by rebuilding the execution order
//! imposed by communication — "we matched sends to receives and collective
//! function invocations" — and checking that for every conflicting pair,
//! the earlier-timestamped operation also happens-before the later one:
//! the program's synchronization, not the clock, enforces the order.
//!
//! The index here answers `happens_before((r₁,t₁), (r₂,t₂))` queries by a
//! single forward pass over the time-sorted synchronization edges,
//! computing for every rank the earliest local time that is reachable
//! from the source event:
//!
//! * a send posted by a reached rank *after* its reach time makes the
//!   receiver reached at the receive's completion;
//! * a barrier entered by a reached rank makes *all* participants reached
//!   at the barrier exit.

use std::collections::HashMap;

use recorder::{Func, IdMap, Layer, TraceSet};

/// Happens-before index over one (adjusted) trace.
pub struct HbIndex {
    nranks: usize,
    /// Message edges sorted by send time.
    messages: Vec<(u64, u32, u32, u64)>, // (t_send, src, dst, t_recv_end)
    /// Barrier participations: per epoch, per-rank enter times and the
    /// common exit time.
    barriers: Vec<BarrierEpoch>,
    /// Barrier fast path: per rank, `(enter, exit)` of every epoch the
    /// rank participated in, ascending in both components (a rank enters
    /// epochs in program order and epochs retire in order). If some epoch
    /// has `enter[r1] >= t1` and `exit <= t2` then a full barrier
    /// separates the two events and `(r1,t1)` happens-before `(r2,t2)`
    /// for *any* `r2` — no fixpoint needed.
    rank_epochs: Vec<Vec<(u64, u64)>>,
}

#[derive(Debug, Clone)]
struct BarrierEpoch {
    enter: Vec<Option<u64>>,
    exit: u64,
}

impl HbIndex {
    /// Build from a trace (use the barrier-adjusted trace so query
    /// timestamps match the conflict detector's).
    pub fn build(trace: &TraceSet) -> Self {
        let nranks = trace.ranks.len();
        // Match sends to receives by sequence number. Sequence numbers and
        // barrier epochs are dense from 0 within one world, but a combined
        // workflow trace offsets each job's by `j << 48`
        // (`recorder::combine`), so they key a map, not a `Vec`.
        let mut send_at: IdMap<u64, (u32, u64)> = IdMap::default();
        let mut recv_at: IdMap<u64, (u32, u64)> = IdMap::default();
        let mut barrier_events: IdMap<u64, BarrierEpoch> = IdMap::default();
        for rec in trace.ranks.iter().flatten() {
            if rec.layer != Layer::Mpi {
                continue;
            }
            match rec.func {
                Func::MpiSend { seq, .. } => {
                    send_at.insert(seq, (rec.rank, rec.t_start));
                }
                Func::MpiRecv { seq, .. } => {
                    recv_at.insert(seq, (rec.rank, rec.t_end));
                }
                Func::MpiBarrier { epoch } => {
                    let e = barrier_events.entry(epoch).or_insert_with(|| BarrierEpoch {
                        enter: vec![None; nranks],
                        exit: 0,
                    });
                    e.enter[rec.rank as usize] = Some(rec.t_start);
                    e.exit = e.exit.max(rec.t_end);
                }
                _ => {}
            }
        }
        let mut messages: Vec<(u64, u32, u32, u64)> = send_at
            .iter()
            .filter_map(|(seq, &(src, t_send))| {
                recv_at
                    .get(seq)
                    .map(|&(dst, t_recv_end)| (t_send, src, dst, t_recv_end))
            })
            .collect();
        messages.sort_unstable();
        let mut epochs: Vec<u64> = barrier_events.keys().copied().collect();
        epochs.sort_unstable();
        let barriers: Vec<BarrierEpoch> = epochs
            .into_iter()
            .map(|e| barrier_events.remove(&e).expect("epoch"))
            .collect();
        let mut rank_epochs = vec![Vec::new(); nranks];
        for b in &barriers {
            for (r, &e) in b.enter.iter().enumerate() {
                if let Some(enter) = e {
                    rank_epochs[r].push((enter, b.exit));
                }
            }
        }
        // Epoch numbering follows program order, but sort defensively so
        // the binary search below never relies on an unproven invariant.
        for v in &mut rank_epochs {
            v.sort_unstable();
        }
        HbIndex {
            nranks,
            messages,
            barriers,
            rank_epochs,
        }
    }

    /// Does a full barrier separate `(r1, t1)` from every event at or
    /// after `t2`? Sound shortcut for [`HbIndex::happens_before`]: the
    /// smallest-exit epoch entered by `r1` at or after `t1` is the first
    /// one with `enter >= t1` (exits are nondecreasing across epochs).
    fn barrier_separates(&self, r1: u32, t1: u64, t2: u64) -> bool {
        let v = &self.rank_epochs[r1 as usize];
        let i = v.partition_point(|&(enter, _)| enter < t1);
        i < v.len() && v[i].1 <= t2
    }

    /// Number of matched message edges (diagnostics).
    pub fn matched_messages(&self) -> usize {
        self.messages.len()
    }

    pub fn barrier_epochs(&self) -> usize {
        self.barriers.len()
    }

    /// Does `(r1, t1)` happen-before `(r2, t2)`?
    ///
    /// Computes, per rank, the earliest reachable local time starting from
    /// `(r1, t1)`, by relaxing all sync edges; edges only move forward in
    /// time, so iterating until fixpoint over the (few) barrier epochs and
    /// time-sorted messages terminates quickly.
    pub fn happens_before(&self, r1: u32, t1: u64, r2: u32, t2: u64) -> bool {
        if r1 == r2 {
            return t1 <= t2;
        }
        if self.barrier_separates(r1, t1, t2) {
            return true;
        }
        let mut reach = Vec::new();
        self.fixpoint_reach(&mut reach, r1, t1);
        matches!(reach[r2 as usize], Some(rt) if rt <= t2)
    }

    /// Compute, per rank, the earliest local time reachable from
    /// `(r1, t1)`. The result depends only on `(r1, t1)` — callers that
    /// query many targets from one source can reuse it.
    fn fixpoint_reach(&self, reach: &mut Vec<Option<u64>>, r1: u32, t1: u64) {
        reach.clear();
        reach.resize(self.nranks, None);
        reach[r1 as usize] = Some(t1);
        // Fixpoint: message edges are time-sorted so one pass usually
        // suffices; barriers can unlock earlier messages on other ranks, so
        // iterate a bounded number of rounds.
        for _ in 0..self.barriers.len() + 2 {
            let mut changed = false;
            for &(t_send, src, dst, t_recv_end) in &self.messages {
                if let Some(r) = reach[src as usize] {
                    if t_send >= r {
                        let cur = reach[dst as usize];
                        if cur.is_none() || cur.expect("some") > t_recv_end {
                            reach[dst as usize] = Some(t_recv_end);
                            changed = true;
                        }
                    }
                }
            }
            for b in &self.barriers {
                let entered_reached =
                    b.enter.iter().enumerate().any(
                        |(r, &e)| matches!((e, reach[r]), (Some(enter), Some(rt)) if enter >= rt),
                    );
                if entered_reached {
                    for slot in reach.iter_mut() {
                        if slot.is_none() || slot.expect("some") > b.exit {
                            *slot = Some(b.exit);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Result of validating a set of conflict pairs against the
/// happens-before order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HbValidation {
    /// Cross-process pairs whose timestamp order is enforced by program
    /// synchronization.
    pub synchronized: u64,
    /// Cross-process pairs with no happens-before path — a genuine data
    /// race (the paper found none in its race-free applications).
    pub racy: u64,
    /// Same-process pairs (ordered by program order by construction).
    pub same_process: u64,
}

/// Validate every conflict pair of `report` against the happens-before
/// order of `trace` (§5.2's FLASH validation).
pub fn validate_conflicts(
    trace: &TraceSet,
    report: &crate::conflict::ConflictReport,
) -> HbValidation {
    validate_conflicts_with(&HbIndex::build(trace), report)
}

/// [`validate_conflicts`] against an already-built index.
///
/// The fixpoint reach vector depends only on the *source* event
/// `(rank, t_end)`, and conflict pairs share sources heavily (one write is
/// `first` of many pairs), so reach vectors are memoized per source: each
/// distinct source pays for one fixpoint, every further pair against it is
/// a lookup.
pub fn validate_conflicts_with(
    index: &HbIndex,
    report: &crate::conflict::ConflictReport,
) -> HbValidation {
    let mut v = HbValidation::default();
    let mut memo: HashMap<(u32, u64), Vec<Option<u64>>> = HashMap::new();
    for p in &report.pairs {
        if p.first.rank == p.second.rank {
            v.same_process += 1;
        } else {
            let hb = index.barrier_separates(p.first.rank, p.first.t_end, p.second.t_start) || {
                let reach = memo
                    .entry((p.first.rank, p.first.t_end))
                    .or_insert_with(|| {
                        let mut r = Vec::new();
                        index.fixpoint_reach(&mut r, p.first.rank, p.first.t_end);
                        r
                    });
                matches!(reach[p.second.rank as usize], Some(rt) if rt <= p.second.t_start)
            };
            if hb {
                v.synchronized += 1;
            } else {
                v.racy += 1;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::Record;

    fn mpi(rank: u32, t0: u64, t1: u64, func: Func) -> Record {
        Record {
            t_start: t0,
            t_end: t1,
            rank,
            layer: Layer::Mpi,
            origin: Layer::Mpi,
            func,
        }
    }

    #[test]
    fn message_creates_edge() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![
                vec![mpi(
                    0,
                    10,
                    11,
                    Func::MpiSend {
                        dst: 1,
                        tag: 0,
                        seq: 7,
                    },
                )],
                vec![mpi(
                    1,
                    20,
                    21,
                    Func::MpiRecv {
                        src: 0,
                        tag: 0,
                        seq: 7,
                    },
                )],
            ],
            skews_ns: vec![0, 0],
        };
        let idx = HbIndex::build(&trace);
        assert_eq!(idx.matched_messages(), 1);
        assert!(idx.happens_before(0, 5, 1, 25), "before send → after recv");
        assert!(idx.happens_before(0, 10, 1, 21));
        assert!(
            !idx.happens_before(0, 12, 1, 25),
            "event after the send is not ordered"
        );
        assert!(!idx.happens_before(1, 0, 0, 100), "no reverse edge");
    }

    #[test]
    fn barrier_orders_everyone() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![
                vec![mpi(0, 10, 30, Func::MpiBarrier { epoch: 0 })],
                vec![mpi(1, 20, 30, Func::MpiBarrier { epoch: 0 })],
                vec![mpi(2, 25, 30, Func::MpiBarrier { epoch: 0 })],
            ],
            skews_ns: vec![0, 0, 0],
        };
        let idx = HbIndex::build(&trace);
        assert_eq!(idx.barrier_epochs(), 1);
        // Anything before rank 0's barrier entry happens-before anything
        // after any rank's exit.
        assert!(idx.happens_before(0, 9, 2, 31));
        assert!(idx.happens_before(1, 19, 0, 30));
        // After the exit there is no ordering to times before it.
        assert!(!idx.happens_before(0, 31, 2, 29));
    }

    #[test]
    fn transitive_message_chain() {
        // 0 → 1 → 2.
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![
                vec![mpi(
                    0,
                    10,
                    11,
                    Func::MpiSend {
                        dst: 1,
                        tag: 0,
                        seq: 1,
                    },
                )],
                vec![
                    mpi(
                        1,
                        20,
                        21,
                        Func::MpiRecv {
                            src: 0,
                            tag: 0,
                            seq: 1,
                        },
                    ),
                    mpi(
                        1,
                        30,
                        31,
                        Func::MpiSend {
                            dst: 2,
                            tag: 0,
                            seq: 2,
                        },
                    ),
                ],
                vec![mpi(
                    2,
                    40,
                    41,
                    Func::MpiRecv {
                        src: 1,
                        tag: 0,
                        seq: 2,
                    },
                )],
            ],
            skews_ns: vec![0, 0, 0],
        };
        let idx = HbIndex::build(&trace);
        assert!(idx.happens_before(0, 5, 2, 45));
        assert!(!idx.happens_before(2, 0, 0, 100));
    }

    #[test]
    fn same_rank_is_program_order() {
        let trace = TraceSet {
            paths: vec![],
            ranks: vec![vec![]],
            skews_ns: vec![0],
        };
        let idx = HbIndex::build(&trace);
        assert!(idx.happens_before(0, 5, 0, 6));
        assert!(idx.happens_before(0, 5, 0, 5));
        assert!(!idx.happens_before(0, 6, 0, 5));
    }

    /// `recorder::combine` renumbers job j's sequence numbers and epochs as
    /// `id + (j << 48)`; the second job's edges must still be indexed.
    #[test]
    fn combined_trace_keeps_later_jobs_edges() {
        let job = |with_barrier: bool| {
            let mut r0 = vec![mpi(
                0,
                10,
                11,
                Func::MpiSend {
                    dst: 1,
                    tag: 0,
                    seq: 0,
                },
            )];
            let mut r1 = vec![mpi(
                1,
                20,
                21,
                Func::MpiRecv {
                    src: 0,
                    tag: 0,
                    seq: 0,
                },
            )];
            if with_barrier {
                r0.push(mpi(0, 30, 40, Func::MpiBarrier { epoch: 0 }));
                r1.push(mpi(1, 35, 40, Func::MpiBarrier { epoch: 0 }));
            }
            TraceSet {
                paths: vec![],
                ranks: vec![r0, r1],
                skews_ns: vec![0, 0],
            }
        };
        let combined = recorder::combine::merge_jobs(&[job(true), job(true)]);
        let idx = HbIndex::build(&combined);
        assert_eq!(idx.matched_messages(), 2);
        assert_eq!(idx.barrier_epochs(), 2);
        // Job 1 is ranks 2 and 3.
        let at = |rank: usize, i: usize| &combined.ranks[rank][i];
        let (send, recv) = (at(2, 0), at(3, 0));
        assert!(idx.happens_before(2, send.t_start - 1, 3, recv.t_end));
        assert!(!idx.happens_before(3, 0, 2, recv.t_end), "no reverse edge");
        let (enter, exit) = (at(3, 1).t_start, at(3, 1).t_end);
        assert!(idx.happens_before(3, enter - 1, 2, exit), "job 1's barrier");
        // Message edge alone, with no barrier to hide a dropped one.
        let combined = recorder::combine::merge_jobs(&[job(false), job(false)]);
        let idx = HbIndex::build(&combined);
        assert_eq!(idx.matched_messages(), 2);
        assert!(idx.happens_before(2, 5, 3, 25));
        assert!(!idx.happens_before(2, 12, 3, 25));
    }

    /// The optimized validation (barrier shortcut + per-source memo) against
    /// the plain definition — one exact fixpoint per pair, no shortcut, no
    /// memo — on seeded random send/recv/barrier traces.
    #[test]
    fn memoized_validation_equals_per_pair_fixpoint() {
        use crate::conflict::{ConflictKind, ConflictPair, ConflictReport, ConflictScope};
        use recorder::{AccessKind, DataAccess, PathId};
        use simrng::SimRng;

        let mut rng = SimRng::seed_from_u64(0x4B5EED);
        let (mut synchronized, mut racy) = (0, 0);
        for _ in 0..64 {
            let nranks = rng.range_u32(2, 7);
            let mut ranks: Vec<Vec<Record>> = vec![Vec::new(); nranks as usize];
            let (mut t, mut seq, mut epoch) = (0u64, 0u64, 0u64);
            for _ in 0..rng.range_usize(0, 40) {
                t += rng.range_u64(1, 50);
                if rng.gen_bool(0.2) {
                    // Staggered entries, one common exit; a rank may miss
                    // the epoch (fail-stopped ranks leave such holes).
                    let exit = t + 40;
                    for r in 0..nranks {
                        if rng.gen_bool(0.9) {
                            let enter = t + rng.range_u64(0, 30);
                            ranks[r as usize].push(mpi(r, enter, exit, Func::MpiBarrier { epoch }));
                        }
                    }
                    epoch += 1;
                    t = exit;
                } else {
                    let src = rng.range_u32(0, nranks);
                    let dst = (src + rng.range_u32(1, nranks)) % nranks;
                    let recv_end = t + rng.range_u64(1, 60);
                    ranks[src as usize].push(mpi(
                        src,
                        t,
                        t + 1,
                        Func::MpiSend { dst, tag: 0, seq },
                    ));
                    ranks[dst as usize].push(mpi(
                        dst,
                        recv_end - 1,
                        recv_end,
                        Func::MpiRecv { src, tag: 0, seq },
                    ));
                    seq += 1;
                }
            }
            let trace = TraceSet {
                paths: vec![],
                skews_ns: vec![0; nranks as usize],
                ranks,
            };
            let idx = HbIndex::build(&trace);

            // Few distinct sources, many targets: the shape that makes the
            // memo matter.
            let horizon = t + 100;
            let sources: Vec<(u32, u64)> = (0..4)
                .map(|_| (rng.range_u32(0, nranks), rng.range_u64(0, horizon)))
                .collect();
            let access = |rank, t_start, kind| DataAccess {
                rank,
                t_start,
                t_end: t_start + 1,
                file: PathId(0),
                offset: 0,
                len: 8,
                kind,
                origin: Layer::App,
                fd: 3,
            };
            let mut report = ConflictReport::default();
            for _ in 0..60 {
                let (r1, t1) = sources[rng.range_usize(0, sources.len())];
                let r2 = rng.range_u32(0, nranks);
                report.add(ConflictPair {
                    file: PathId(0),
                    first: access(r1, t1, AccessKind::Write),
                    second: access(r2, rng.range_u64(t1, horizon + 1), AccessKind::Read),
                    kind: ConflictKind::Raw,
                    scope: if r1 == r2 {
                        ConflictScope::Same
                    } else {
                        ConflictScope::Distinct
                    },
                });
            }

            let mut exact = HbValidation::default();
            let mut reach = Vec::new();
            for p in &report.pairs {
                if p.first.rank == p.second.rank {
                    exact.same_process += 1;
                    continue;
                }
                idx.fixpoint_reach(&mut reach, p.first.rank, p.first.t_end);
                if matches!(reach[p.second.rank as usize], Some(rt) if rt <= p.second.t_start) {
                    exact.synchronized += 1;
                } else {
                    exact.racy += 1;
                }
            }
            assert_eq!(validate_conflicts_with(&idx, &report), exact);
            synchronized += exact.synchronized;
            racy += exact.racy;
        }
        // The generator must exercise both answers, or the test is vacuous.
        assert!(synchronized > 100 && racy > 100, "{synchronized} / {racy}");
    }
}
