//! Happens-before validation (§5.2).
//!
//! The conflict detector orders operations by (adjusted) timestamps. The
//! paper validates that this is sound by rebuilding the execution order
//! imposed by communication — "we matched sends to receives and collective
//! function invocations" — and checking that for every conflicting pair,
//! the earlier-timestamped operation also happens-before the later one:
//! the program's synchronization, not the clock, enforces the order.
//!
//! [`HbEdges`] is the one engine, in flight and at rest: MPI records go in
//! one at a time, in any order, and come out as one list in time order —
//! a receive at its end, a barrier participation at the barrier's exit, a
//! send at its start, in that order on a tie. A query `(r₁, t₁) → (r₂, t₂)`
//! is one forward pass from `t₁` that keeps the earliest time reached per
//! rank: a send from a reached rank at or after its reach time arms its
//! message, whose receive reaches the receiver at the receive's end; a
//! barrier a reached rank entered at or after its reach time reaches
//! *every* rank at its exit. Every edge moves forward in time, so an edge
//! is enabled only by edges that complete no later: one pass in time order
//! is the fixpoint. It stops at the first barrier a reached rank entered
//! (all is then reached) or at the first entry past `t₂`.

use std::collections::VecDeque;

use recorder::{DataAccess, Func, IdMap, Layer, Record, TraceSet};

use crate::conflict::ConflictReport;

/// One MPI record, filed at the time it takes effect (see the module
/// docs; the variant order is the tie order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Recv { seq: u64, dst: u32 },
    Barrier { rank: u32, enter: u64 },
    Send { seq: u64, src: u32 },
}

/// A time no query has reached.
const UNREACHED: u64 = u64::MAX;

/// The happens-before order of one run, fed one MPI record at a time.
#[derive(Debug, Default)]
pub struct HbEdges {
    /// `list[..sorted]` is in time order; what came since waits unsorted
    /// behind it.
    list: VecDeque<(u64, Entry)>,
    sorted: usize,
    peak: u64,
    /// Query scratch: the earliest time reached per rank, the ranks a
    /// query touched, and the messages it armed. Sequence numbers key a
    /// map: `recorder::combine` offsets job `j`'s by `j << 48`.
    reach: Vec<u64>,
    reached: Vec<u32>,
    armed: IdMap<u64, ()>,
}

impl HbEdges {
    pub fn new(nranks: u32) -> Self {
        let reach = vec![UNREACHED; nranks as usize];
        HbEdges {
            reach,
            ..Default::default()
        }
    }

    /// Take one record: an MPI send, receive or barrier, on the clock the
    /// queries use (the barrier-adjusted one); anything else is ignored.
    pub fn push(&mut self, rec: &Record) {
        let (rank, t) = (rec.rank, (rec.t_start, rec.t_end));
        let entry = match rec.func {
            Func::MpiSend { seq, .. } => (t.0, Entry::Send { seq, src: rank }),
            Func::MpiRecv { seq, .. } => (t.1, Entry::Recv { seq, dst: rank }),
            Func::MpiBarrier { .. } => (t.1, Entry::Barrier { rank, enter: t.0 }),
            _ => return,
        };
        if rec.layer == Layer::Mpi {
            self.list.push_back(entry);
            self.peak = self.peak.max(self.list.len() as u64);
        }
    }

    /// Merge what came since the last call into time order. It overlaps
    /// only the end of the sorted part, so the sort starts where its
    /// earliest entry belongs: a merge of two runs.
    fn sort(&mut self) {
        let list = self.list.make_contiguous();
        if let Some(&first) = list[self.sorted..].iter().min() {
            let from = list[..self.sorted].partition_point(|e| *e < first);
            list[from..].sort();
            self.sorted = list.len();
        }
    }

    /// Does `(r1, t1)` happen-before `(r2, t2)`? One forward pass (see
    /// the module docs).
    pub fn happens_before(&mut self, r1: u32, t1: u64, r2: u32, t2: u64) -> bool {
        if r1 == r2 {
            return t1 <= t2;
        }
        self.sort();
        let live = self.list.as_slices().0; // all of it: `sort` made it contiguous
        self.reach[r1 as usize] = t1;
        self.reached.push(r1);
        let mut ordered = false;
        for &(t, entry) in &live[live.partition_point(|&(t, _)| t < t1)..] {
            if t > t2 {
                break;
            }
            match entry {
                Entry::Send { seq, src } if self.reach[src as usize] <= t => {
                    self.armed.insert(seq, ());
                }
                Entry::Recv { seq, dst }
                    if t < self.reach[dst as usize] && self.armed.contains_key(&seq) =>
                {
                    if self.reach[dst as usize] == UNREACHED {
                        self.reached.push(dst);
                    }
                    self.reach[dst as usize] = t;
                }
                Entry::Barrier { rank, enter } if enter >= self.reach[rank as usize] => {
                    ordered = true;
                    break;
                }
                _ => {}
            }
        }
        let ordered = ordered || self.reach[r2 as usize] <= t2;
        for r in self.reached.drain(..) {
            self.reach[r as usize] = UNREACHED;
        }
        self.armed.clear();
        ordered
    }

    /// Drop every entry before `floor`. No query from a source at or
    /// after `floor` can use one: every time its pass reaches is at least
    /// its source's.
    pub fn prune_before(&mut self, floor: u64) {
        self.sort();
        let end = self.list.partition_point(|e| e.0 < floor);
        self.list.drain(..end);
        self.sorted -= end;
    }

    /// High-water mark of the entries held.
    pub fn peak(&self) -> u64 {
        self.peak
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

impl HbValidation {
    /// Count one pair: the end of `first` against the start of `second`.
    pub fn judge(&mut self, edges: &mut HbEdges, first: &DataAccess, second: &DataAccess) {
        if first.rank == second.rank {
            self.same_process += 1;
        } else if edges.happens_before(first.rank, first.t_end, second.rank, second.t_start) {
            self.synchronized += 1;
        } else {
            self.racy += 1;
        }
    }
}

/// Validate every conflict pair of `report` against the happens-before
/// order of `trace` (§5.2's FLASH validation), for a trace at rest: use
/// the barrier-adjusted trace, so its timestamps match the detector's. A
/// streamed run gets the same answer from
/// [`crate::incremental::IncrementalOutput::hb`].
pub fn validate_conflicts(trace: &TraceSet, report: &ConflictReport) -> HbValidation {
    let mut edges = HbEdges::new(trace.nranks());
    trace.ranks.iter().flatten().for_each(|rec| edges.push(rec));
    let mut v = HbValidation::default();
    (report.pairs.iter()).for_each(|p| v.judge(&mut edges, &p.first, &p.second));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn send(rank: u32, t: u64, dst: u32, seq: u64) -> Record {
        mpi(rank, t, t + 1, Func::MpiSend { dst, tag: 0, seq })
    }

    fn recv(rank: u32, t: u64, src: u32, seq: u64) -> Record {
        mpi(rank, t, t + 1, Func::MpiRecv { src, tag: 0, seq })
    }

    fn edges_of(trace: &TraceSet) -> HbEdges {
        let mut edges = HbEdges::new(trace.nranks());
        trace.ranks.iter().flatten().for_each(|rec| edges.push(rec));
        edges
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
        let mut hb = edges_of(&trace);
        assert_eq!(hb.list.len(), 2, "a send and its receive");
        assert!(hb.happens_before(0, 5, 1, 25), "before send → after recv");
        assert!(hb.happens_before(0, 10, 1, 21));
        assert!(
            !hb.happens_before(0, 12, 1, 25),
            "event after the send is not ordered"
        );
        assert!(!hb.happens_before(1, 0, 0, 100), "no reverse edge");
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
        let mut hb = edges_of(&trace);
        assert_eq!(hb.list.len(), 3, "one entry per participant");
        // Anything before rank 0's barrier entry happens-before anything
        // after any rank's exit.
        assert!(hb.happens_before(0, 9, 2, 31));
        assert!(hb.happens_before(1, 19, 0, 30));
        // After the exit there is no ordering to times before it.
        assert!(!hb.happens_before(0, 31, 2, 29));
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
        let mut hb = edges_of(&trace);
        assert!(hb.happens_before(0, 5, 2, 45));
        assert!(!hb.happens_before(2, 0, 0, 100));
    }

    #[test]
    fn same_rank_is_program_order() {
        let mut hb = HbEdges::new(1);
        assert!(hb.happens_before(0, 5, 0, 6));
        assert!(hb.happens_before(0, 5, 0, 5));
        assert!(!hb.happens_before(0, 6, 0, 5));
    }

    /// `recorder::combine` renumbers job j's sequence numbers and epochs as
    /// `id + (j << 48)`; the second job's edges must still be kept.
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
        let mut hb = edges_of(&combined);
        assert_eq!(hb.list.len(), 8, "two messages, two two-rank barriers");
        // Job 1 is ranks 2 and 3.
        let at = |rank: usize, i: usize| combined.ranks[rank][i];
        let (send, recv) = (at(2, 0), at(3, 0));
        assert!(hb.happens_before(2, send.t_start - 1, 3, recv.t_end));
        assert!(!hb.happens_before(3, 0, 2, recv.t_end), "no reverse edge");
        let (enter, exit) = (at(3, 1).t_start, at(3, 1).t_end);
        assert!(hb.happens_before(3, enter - 1, 2, exit), "job 1's barrier");
        // Message edge alone, with no barrier to hide a dropped one.
        let combined = recorder::combine::merge_jobs(&[job(false), job(false)]);
        let mut hb = edges_of(&combined);
        assert_eq!(hb.list.len(), 4);
        assert!(hb.happens_before(2, 5, 3, 25));
        assert!(!hb.happens_before(2, 12, 3, 25));
    }

    #[test]
    fn pruning_keeps_what_later_sources_use() {
        // 0 → 1 at t=10 (its receive arriving first), then 1 → 0 at t=50.
        let mut hb = HbEdges::new(2);
        hb.push(&recv(1, 20, 0, 0));
        hb.push(&send(0, 10, 1, 0));
        hb.push(&send(1, 50, 0, 1));
        assert_eq!((hb.list.len(), hb.peak()), (3, 3));
        assert!(hb.happens_before(0, 5, 1, 25));
        hb.prune_before(30);
        assert_eq!(hb.list.len(), 1, "the later send survives");
        assert!(!hb.happens_before(1, 40, 0, 70), "no receive yet");
        hb.push(&recv(0, 60, 1, 1));
        assert!(hb.happens_before(1, 40, 0, 70));
        assert_eq!((hb.list.len(), hb.peak()), (2, 3));
    }

    /// The forward pass against the plain definition — per pair, relax
    /// every message and barrier in bounded rounds until nothing moves,
    /// no stopping rule — on seeded random send/recv/barrier traces: one
    /// job or two combined by `recorder::combine::merge_jobs`, and a rank
    /// that may stop (as a fail-stopped one does) and so miss every later
    /// epoch, which a barrier still orders.
    #[test]
    fn forward_pass_equals_per_pair_fixpoint() {
        use crate::conflict::{ConflictKind, ConflictPair, ConflictReport, ConflictScope};
        use recorder::{AccessKind, PathId};
        use simrng::SimRng;

        /// One job: its trace, its stopped rank (if any) and its last time.
        fn job(rng: &mut SimRng, nranks: u32, start: u64) -> (TraceSet, Option<(u32, u64)>, u64) {
            let mut ranks: Vec<Vec<Record>> = vec![Vec::new(); nranks as usize];
            let (mut t, mut seq, mut epoch) = (start, 0u64, 0u64);
            let stop = rng
                .gen_bool(0.5)
                .then(|| (rng.range_u32(0, nranks), start + rng.range_u64(0, 600)));
            let live = |r: u32, t: u64| stop.is_none_or(|(s, at)| r != s || t < at);
            for _ in 0..rng.range_usize(0, 40) {
                t += rng.range_u64(1, 50);
                if rng.gen_bool(0.2) {
                    // Staggered entries, one common exit; a rank may miss
                    // the epoch.
                    let exit = t + 40;
                    for r in 0..nranks {
                        if live(r, t) && rng.gen_bool(0.9) {
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
                    if !live(src, t) {
                        continue;
                    }
                    ranks[src as usize].push(send(src, t, dst, seq));
                    // A stopped receiver leaves the send unmatched.
                    if live(dst, recv_end) {
                        ranks[dst as usize].push(recv(dst, recv_end - 1, src, seq));
                    }
                    seq += 1;
                }
            }
            for records in &mut ranks {
                records.sort_by_key(|r| r.t_start);
            }
            let trace = TraceSet {
                paths: vec![],
                skews_ns: vec![0; nranks as usize],
                ranks,
            };
            (trace, stop, t)
        }

        /// The reference: matched messages and barrier epochs collected
        /// from the whole trace, then relaxed in rounds to a fixpoint.
        fn reference_reach(trace: &TraceSet, r1: u32, t1: u64) -> Vec<Option<u64>> {
            let nranks = trace.ranks.len();
            let mut send_at: IdMap<u64, (u32, u64)> = IdMap::default();
            let mut recv_at: IdMap<u64, (u32, u64)> = IdMap::default();
            let mut barriers: IdMap<u64, (Vec<Option<u64>>, u64)> = IdMap::default();
            for rec in trace.ranks.iter().flatten() {
                match rec.func {
                    Func::MpiSend { seq, .. } => {
                        send_at.insert(seq, (rec.rank, rec.t_start));
                    }
                    Func::MpiRecv { seq, .. } => {
                        recv_at.insert(seq, (rec.rank, rec.t_end));
                    }
                    Func::MpiBarrier { epoch } => {
                        let b = barriers.entry(epoch).or_insert((vec![None; nranks], 0));
                        b.0[rec.rank as usize] = Some(rec.t_start);
                        b.1 = b.1.max(rec.t_end);
                    }
                    _ => {}
                }
            }
            let mut messages: Vec<(u64, u32, u32, u64)> = send_at
                .iter()
                .filter_map(|(seq, &(src, t_send))| {
                    recv_at
                        .get(seq)
                        .map(|&(dst, t_end)| (t_send, src, dst, t_end))
                })
                .collect();
            messages.sort_unstable();
            let mut reach = vec![None; nranks];
            reach[r1 as usize] = Some(t1);
            for _ in 0..barriers.len() + 2 {
                let mut changed = false;
                for &(t_send, src, dst, t_end) in &messages {
                    if reach[src as usize].is_some_and(|r| t_send >= r)
                        && reach[dst as usize].is_none_or(|cur| cur > t_end)
                    {
                        reach[dst as usize] = Some(t_end);
                        changed = true;
                    }
                }
                for (enter, exit) in barriers.values() {
                    let entered_reached = enter
                        .iter()
                        .zip(&reach)
                        .any(|(&e, &rt)| matches!((e, rt), (Some(enter), Some(rt)) if enter >= rt));
                    if entered_reached {
                        for slot in reach.iter_mut() {
                            if slot.is_none_or(|cur| cur > *exit) {
                                *slot = Some(*exit);
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            reach
        }

        let mut rng = SimRng::seed_from_u64(0x4B5EED);
        let (mut synchronized, mut racy, mut via_stopped) = (0, 0, 0);
        for _ in 0..96 {
            let nranks = rng.range_u32(2, 7);
            let (first, stop, end) = job(&mut rng, nranks, 0);
            let (trace, stopped, horizon) = if rng.gen_bool(0.3) {
                // A second job over an overlapping stretch of time: no
                // edge may cross between the two.
                let start = rng.range_u64(0, end + 1);
                let (second, stop2, end2) = job(&mut rng, nranks, start);
                let stopped: Vec<u32> = stop
                    .map(|s| s.0)
                    .into_iter()
                    .chain(stop2.map(|s| s.0 + nranks))
                    .collect();
                (
                    recorder::combine::merge_jobs(&[first, second]),
                    stopped,
                    end.max(end2) + 100,
                )
            } else {
                (first, stop.map(|s| s.0).into_iter().collect(), end + 100)
            };
            let total = trace.nranks();

            // Few distinct sources, many targets; stopped ranks are
            // favoured at both ends.
            let pick = |rng: &mut SimRng| match stopped.first() {
                Some(&s) if rng.gen_bool(0.3) => s,
                _ => rng.range_u32(0, total),
            };
            let sources: Vec<(u32, u64)> = (0..4)
                .map(|_| (pick(&mut rng), rng.range_u64(0, horizon)))
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
                let r2 = pick(&mut rng);
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
            for p in &report.pairs {
                if p.first.rank == p.second.rank {
                    exact.same_process += 1;
                    continue;
                }
                let reach = reference_reach(&trace, p.first.rank, p.first.t_end);
                if matches!(reach[p.second.rank as usize], Some(rt) if rt <= p.second.t_start) {
                    exact.synchronized += 1;
                    if stopped.contains(&p.first.rank) || stopped.contains(&p.second.rank) {
                        via_stopped += 1;
                    }
                } else {
                    exact.racy += 1;
                }
            }
            assert_eq!(validate_conflicts(&trace, &report), exact);
            synchronized += exact.synchronized;
            racy += exact.racy;
        }
        // The generator must exercise both answers, and orderings that
        // involve a rank that stopped, or the test is vacuous.
        assert!(synchronized > 100 && racy > 100, "{synchronized} / {racy}");
        assert!(via_stopped > 20, "{via_stopped}");
    }
}
