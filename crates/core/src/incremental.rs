//! Streaming incremental analysis: online conflict/overlap detection.
//!
//! This is the engine for a trace **in flight**: every code path that runs
//! a simulation attaches it as the run's record sink. The at-rest
//! functions ([`crate::conflict::detect_conflicts`],
//! [`crate::patterns`]) re-derive everything from the complete trace:
//! resolve offsets, group by file, sort, sweep. This module consumes the
//! run's POSIX records *as the simulation emits them* and maintains the
//! analyses online, so that when the run finishes, the expensive
//! per-trace passes (offset resolution, both conflict detections, both
//! Figure 1 pattern folds, the Table 3 bucketing, the Figure 3 metadata
//! census) are already done — the run pays only the finalize step.
//!
//! ## Equivalence with the at-rest functions
//!
//! Everything here is engineered to be **byte-identical** to the at-rest
//! ("batch") results, not merely equivalent. The two engines are
//! independent in what is hard — finding candidate pairs and filling
//! `to`/`tc` — and share the paper's definitions
//! (`conflict::unsynchronized`, `conflict::classify_pair`,
//! [`classify_step`], [`classify_from_buckets`]):
//!
//! * **Drain order.** The batch global order is
//!   [`recorder::TraceSet::merged_by_time`]: a stable sort by
//!   `(t_start, rank)` over per-rank program-order streams. A rank's POSIX
//!   records have nondecreasing `t_start`, so a watermark merge of
//!   per-rank FIFO queues — always draining the smallest `(t_start, rank)`
//!   head — reproduces exactly the POSIX subsequence of the batch order,
//!   and the offset resolver only consumes POSIX records. Feeding the
//!   shared [`recorder::offset::StreamResolver`] step in that order makes
//!   the accesses and sync events the analyzer consumes exactly the batch
//!   [`recorder::ResolvedTrace`]'s, in its order, by construction. Each is
//!   used as it drains and then dropped; only their
//!   [`ResolveCounts`] are kept.
//! * **Conflict pairs.** An arriving access can only be the *later*
//!   element of a candidate pair (drain order is time order), and the
//!   earlier element must be a write (write-after-read never conflicts) —
//!   so only writes are stored, and each arriving access is checked
//!   against the file's live writes. A pair's §5.2 conditions are
//!   evaluated only once the drain has passed its `t₂` strictly; at that
//!   point an unfilled `tc` means the write's first close/commit (if any)
//!   is later than `t₂`, which the conditions treat exactly as the batch
//!   `None`/`Some(tc > t₂)` cases — the verdicts coincide. At finalize the
//!   surviving pairs are sorted by `(file, k_min, k_max)` where `k` is the
//!   per-file `(offset, end, arrival)` key — precisely the batch sweep's
//!   emission order — and replayed through `ConflictReport::add`.
//! * **Patterns.** The local fold keys on `(rank, file)` and the global
//!   fold on `file`; restricted to one key, the drain order equals the
//!   batch's stable sort order, and [`PatternStats`] summation over
//!   streams is order-independent. Table 3 buckets accumulate per file in
//!   time order and finish through the same
//!   [`crate::patterns::highlevel::classify_from_buckets`].
//!
//! ## Memory bound
//!
//! The conflict working set holds only *live* write intervals. A write
//! retires once it can never appear in a future pair under **either**
//! model: its `tc_commit` is filled (any future access has
//! `t₂ > tc_commit`, clearing condition 3) *and* its `tc_close` is filled
//! with `t₁ < tc` and every rank holding the file open has re-opened
//! after that close (ranks without an open descriptor must re-open at a
//! time past the watermark, which orders them after the close). Retired
//! intervals are pruned at sync-epoch boundaries
//! ([`StreamingAnalyzer::epoch_released`], sent by the rank that released
//! each barrier), so the store is bounded by the intervals live in the
//! current epoch(s), not by trace length. `peak_live_intervals` reports
//! the high-water mark. Nothing else the analyzer holds grows with the
//! trace: the resolved accesses are not retained, and what remains is per
//! file, per `(rank, file)`, or per reported conflict.
//!
//! ## Assumptions
//!
//! The ε-cases where streaming could diverge from batch all require a
//! zero-duration operation: an access at the exact instant of its own
//! session `open`, a close at the exact instant of the write it commits,
//! or two same-rank accesses at one timestamp. Every in-repo cost model
//! charges nonzero latency for opens and data ops, so these cannot occur;
//! the regression tests assert byte-identity across all application
//! configurations, semantics models, and fault campaigns, which would
//! surface any violation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Mutex;

use recorder::offset::{ResolveCounts, Resolved, StreamResolver};
use recorder::{AccessKind, DataAccess, IdMap, PathId, Record, SyncEvent, SyncKind};

use crate::conflict::{classify_pair, unsynchronized, AnalysisModel, ConflictReport};
use crate::metadata::MetadataCensus;
use crate::patterns::highlevel::{classify_from_buckets, FileBuckets, HighLevelReport};
use crate::patterns::lowlevel::{classify_step, PatternStats};

/// Per-file sweep key: batch sorts each file's accesses stably by
/// `(offset, end)` over arrival order, so lexicographic
/// `(offset, end, arrival)` reproduces the exact sweep position.
type SweepKey = (u64, u64, u32);

/// One live (not yet retired) write interval.
#[derive(Debug, Clone, Copy)]
struct WriteInfo {
    access: DataAccess,
    k: SweepKey,
    /// Last preceding open by this rank on this file (exact at creation).
    to: Option<u64>,
    /// First succeeding close / commit, filled when it drains (set-once,
    /// so the fill is the *first* such event — matching `first_after`).
    tc_close: Option<u64>,
    tc_commit: Option<u64>,
    /// Pending pairs referencing this write.
    refs: u32,
    /// Retired from the matchable set; freed once `refs` drains to zero.
    pruned: bool,
}

/// Handle to a write in the [`WriteSlab`]: its slot, and the generation
/// the slot had when the write was stored there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteId {
    slot: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    write: Option<WriteInfo>,
}

/// The live writes, addressed by dense slot index instead of hashed id.
/// A freed slot is reused by the next write under a new generation, so a
/// handle that outlives its write (the `waiting_*` lists are not scrubbed
/// when a write retires) *misses* — it can never alias the slot's next
/// occupant.
#[derive(Debug, Default)]
struct WriteSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl WriteSlab {
    fn insert(&mut self, write: WriteInfo) -> WriteId {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.write = Some(write);
                WriteId { slot, gen: s.gen }
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    write: Some(write),
                });
                WriteId {
                    slot: self.slots.len() as u32 - 1,
                    gen: 0,
                }
            }
        }
    }

    /// The write `id` names, or `None` once it has been removed.
    fn get_mut(&mut self, id: WriteId) -> Option<&mut WriteInfo> {
        let s = &mut self.slots[id.slot as usize];
        if s.gen == id.gen {
            s.write.as_mut()
        } else {
            None
        }
    }

    fn remove(&mut self, id: WriteId) {
        let s = &mut self.slots[id.slot as usize];
        if s.gen == id.gen && s.write.take().is_some() {
            s.gen = s.gen.wrapping_add(1);
            self.free.push(id.slot);
        }
    }
}

/// A candidate pair awaiting its evaluation point (`drain > t₂`).
#[derive(Debug, Clone, Copy)]
struct PendingPair {
    write_id: WriteId,
    second: DataAccess,
    second_k: SweepKey,
    /// Last open ≤ t₂ by the second access's rank (fixed up if an open at
    /// exactly t₂ drains after the access).
    to2: Option<u64>,
}

/// A pair that conflicted under at least one model.
#[derive(Debug, Clone, Copy)]
struct Survivor {
    file: PathId,
    k_min: SweepKey,
    k_max: SweepKey,
    first: DataAccess,
    second: DataAccess,
    on_session: bool,
    on_commit: bool,
}

#[derive(Debug, Default)]
struct FileState {
    /// Live write ids, in arrival order.
    matchable: Vec<WriteId>,
    /// Per-file arrival counter (the third component of [`SweepKey`]).
    next_seq: u32,
}

/// Streaming sync state per `(rank, file)`.
#[derive(Debug, Default)]
struct RankFileState {
    last_open: Option<u64>,
    last_close: Option<u64>,
    last_commit: Option<u64>,
    /// Currently-open descriptors this rank holds on the file.
    open_fds: u32,
    /// Writes whose `tc_close` / `tc_commit` await the next such event.
    waiting_close: Vec<WriteId>,
    waiting_commit: Vec<WriteId>,
}

/// Everything the incremental engine has produced by finalize time.
#[derive(Debug)]
pub struct IncrementalOutput {
    /// Equal to `offset::resolve(adjusted_trace).counts()`; the accesses
    /// and sync events themselves were consumed as they drained.
    pub resolution: ResolveCounts,
    /// Byte-identical to `detect_conflicts(&resolved, Session)`.
    pub session: ConflictReport,
    /// … and to `detect_conflicts(&resolved, Commit)`.
    pub commit: ConflictReport,
    pub local: PatternStats,
    pub global: PatternStats,
    pub highlevel: HighLevelReport,
    /// Equal to `MetadataCensus::from_trace(trace)`: every record is
    /// counted as it drains.
    pub census: MetadataCensus,
    /// High-water mark of the live-interval store — the streaming memory
    /// bound (batch holds every access of the trace instead).
    pub peak_live_intervals: u64,
    /// Candidate (overlapping) pairs enumerated online.
    pub pairs_checked: u64,
    /// Writes retired by epoch pruning before finalize.
    pub pruned_intervals: u64,
}

#[derive(Debug)]
struct Inner {
    nranks: usize,
    queues: Vec<VecDeque<Record>>,
    /// `(t_start, rank)` of every nonempty queue's head, smallest first.
    heads: BinaryHeap<Reverse<(u64, u32)>>,
    /// Promise: every future record of rank `r` has
    /// `t_start >= frontiers[r]`.
    frontiers: Vec<u64>,
    done: Vec<bool>,
    /// The drain bound: the smallest frontier among ranks whose queue is
    /// empty and which are not done (`u64::MAX` if there is none). Exact
    /// whenever `bound_stale` is clear.
    bound: u64,
    /// Set when the rank that may hold the minimum left the empty set or
    /// raised its frontier; the next drain rescans.
    bound_stale: bool,
    resolver: StreamResolver,

    writes: WriteSlab,
    files: IdMap<PathId, FileState>,
    rf: IdMap<(u32, PathId), RankFileState>,
    pending: VecDeque<PendingPair>,
    survivors: Vec<Survivor>,

    local_prev: IdMap<(u32, PathId), u64>,
    global_prev: IdMap<PathId, u64>,
    local_stats: PatternStats,
    global_stats: PatternStats,
    buckets: IdMap<PathId, FileBuckets>,
    census: MetadataCensus,

    /// `remap[pre_canonical_id] = canonical id`, set after trace assembly.
    remap: Vec<u32>,

    live_intervals: u64,
    peak_live_intervals: u64,
    pairs_checked: u64,
    pruned_intervals: u64,
}

/// The online analyzer. Thread-safe: simulated ranks push record chunks
/// and signal epoch commits concurrently, and the analysis host finalizes
/// once the run completes.
#[derive(Debug)]
pub struct StreamingAnalyzer {
    inner: Mutex<Inner>,
}

impl StreamingAnalyzer {
    pub fn new(nranks: u32) -> Self {
        let n = nranks as usize;
        StreamingAnalyzer {
            inner: Mutex::new(Inner {
                nranks: n,
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                heads: BinaryHeap::with_capacity(n),
                frontiers: vec![0; n],
                done: vec![false; n],
                bound: 0,
                bound_stale: false,
                resolver: StreamResolver::new(),
                writes: WriteSlab::default(),
                files: IdMap::default(),
                rf: IdMap::default(),
                pending: VecDeque::new(),
                survivors: Vec::new(),
                local_prev: IdMap::default(),
                global_prev: IdMap::default(),
                local_stats: PatternStats::default(),
                global_stats: PatternStats::default(),
                buckets: IdMap::default(),
                census: MetadataCensus::default(),
                remap: Vec::new(),
                live_intervals: 0,
                peak_live_intervals: 0,
                pairs_checked: 0,
                pruned_intervals: 0,
            }),
        }
    }

    /// Feed a chunk of `rank`'s records (adjusted timestamps, program
    /// order). `frontier` promises that every future record of this rank
    /// has `t_start >= frontier`; larger frontiers let the watermark merge
    /// drain further.
    pub fn push(&self, rank: u32, records: &[Record], frontier: u64) {
        let mut g = self.lock();
        g.enqueue(rank, records, frontier);
        g.drain();
    }

    /// `rank` will produce no further records.
    pub fn rank_done(&self, rank: u32) {
        let mut g = self.lock();
        g.finish_rank(rank as usize);
        g.drain();
    }

    /// A synchronization epoch committed (all live ranks passed a
    /// barrier): prune retired write intervals. Purely a memory-bound
    /// trigger — calling it more or less often never changes results.
    pub fn epoch_released(&self, _epoch: u64) {
        self.lock().prune();
    }

    /// Install the PathId canonicalization the trace assembly applied
    /// (`remap[old] = canonical`); streamed records carry pre-assembly
    /// interner ids and are translated at finalize.
    pub fn set_remap(&self, remap: &[u32]) {
        self.lock().remap = remap.to_vec();
    }

    /// Drain everything, evaluate all pending pairs, and reconstruct the
    /// batch-identical analysis outputs.
    pub fn finalize(&self) -> IncrementalOutput {
        let _span = obs::span("core", "incremental:finalize");
        let mut g = self.lock();
        g.finalize()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("streaming analyzer poisoned")
    }
}

impl Inner {
    /// Rank `r` is about to raise its frontier, get records queued, or be
    /// marked done. If it is one of the empty, live ranks the bound is the
    /// minimum over, and its frontier is that minimum, the bound may rise:
    /// have the next drain rescan. (A rank above the minimum leaving the
    /// set, or rising further, changes nothing.)
    fn leaving_empty_set(&mut self, r: usize) {
        if self.queues[r].is_empty() && !self.done[r] && self.frontiers[r] <= self.bound {
            self.bound_stale = true;
        }
    }

    /// Queue a chunk of `rank`'s records and raise its frontier.
    fn enqueue(&mut self, rank: u32, records: &[Record], frontier: u64) {
        let r = rank as usize;
        self.leaving_empty_set(r);
        if self.queues[r].is_empty() {
            if let Some(first) = records.first() {
                self.heads.push(Reverse((first.t_start, rank)));
            }
        }
        let mut f = self.frontiers[r].max(frontier);
        for rec in records {
            debug_assert!(
                self.queues[r]
                    .back()
                    .is_none_or(|p| p.t_start <= rec.t_start),
                "per-rank records must arrive in nondecreasing t_start"
            );
            f = f.max(rec.t_start);
            self.queues[r].push_back(*rec);
        }
        self.frontiers[r] = f;
    }

    fn finish_rank(&mut self, r: usize) {
        self.leaving_empty_set(r);
        self.done[r] = true;
        self.frontiers[r] = u64::MAX;
    }

    /// Watermark merge: process queue heads in `(t_start, rank)` order for
    /// as long as [`Inner::pop_drainable`] yields one.
    fn drain(&mut self) {
        while let Some(rec) = self.pop_drainable() {
            self.process(rec);
        }
    }

    /// Pop the smallest `(t_start, rank)` queue head if it is strictly
    /// below every empty rank's frontier (an empty rank could still produce
    /// a record at its frontier with a smaller rank number). The heads sit
    /// in a min-heap; the bound is carried between calls and can only fall
    /// while draining, when a queue runs empty.
    fn pop_drainable(&mut self) -> Option<Record> {
        if self.bound_stale {
            self.bound = (0..self.nranks)
                .filter(|&r| self.queues[r].is_empty() && !self.done[r])
                .map(|r| self.frontiers[r])
                .min()
                .unwrap_or(u64::MAX);
            self.bound_stale = false;
        }
        let &Reverse((t, rank)) = self.heads.peek()?;
        if t >= self.bound {
            return None;
        }
        self.heads.pop();
        let r = rank as usize;
        let rec = self.queues[r]
            .pop_front()
            .expect("a head per nonempty queue");
        match self.queues[r].front() {
            Some(next) => self.heads.push(Reverse((next.t_start, rank))),
            None if !self.done[r] => self.bound = self.bound.min(self.frontiers[r]),
            None => {}
        }
        Some(rec)
    }

    fn process(&mut self, rec: Record) {
        // A pair's conditions are exact once the drain strictly passes its
        // t₂: every sync that could fill a tc ≤ t₂ has drained.
        self.flush_pending(rec.t_start);
        self.census.add(&rec);
        match self.resolver.push(&rec) {
            Some(Resolved::Sync(s)) => self.on_sync(s),
            Some(Resolved::Access(a)) => self.on_access(a),
            None => {}
        }
    }

    fn flush_pending(&mut self, before_t: u64) {
        while let Some(p) = self.pending.front() {
            if p.second.t_start >= before_t {
                break;
            }
            let p = self.pending.pop_front().expect("nonempty");
            self.eval_pair(p);
        }
    }

    /// Evaluate one candidate pair with the batch conditions. `first`'s
    /// unfilled `tc` options mean "first such event is past t₂", which
    /// evaluates identically to the batch values (see module docs).
    fn eval_pair(&mut self, p: PendingPair) {
        let w = self
            .writes
            .get_mut(p.write_id)
            .expect("pending ref keeps the write alive");
        w.refs -= 1;
        let freed = w.pruned && w.refs == 0;
        let wa = w.access;
        // Drain order makes the stored write the earlier element; on an
        // exact (t, rank) tie the sweep position (k) decides.
        let tie = (wa.t_start, wa.rank) == (p.second.t_start, p.second.rank);
        let w_first = !tie || w.k <= p.second_k;
        let (fa, fk, f_tc_close, f_tc_commit, sa, sk, s_to) = if w_first {
            (
                wa,
                w.k,
                w.tc_close,
                w.tc_commit,
                p.second,
                p.second_k,
                p.to2,
            )
        } else {
            (p.second, p.second_k, None, None, wa, w.k, w.to)
        };
        if freed {
            self.writes.remove(p.write_id);
        }
        if fa.kind != AccessKind::Write {
            return; // write-after-read is not a potential conflict
        }
        let (t1, t2) = (fa.t_start, sa.t_start);
        let on_commit = unsynchronized(AnalysisModel::Commit, t1, f_tc_commit, s_to, t2);
        let on_session = unsynchronized(AnalysisModel::Session, t1, f_tc_close, s_to, t2);
        if on_session || on_commit {
            self.survivors.push(Survivor {
                file: fa.file,
                k_min: fk.min(sk),
                k_max: fk.max(sk),
                first: fa,
                second: sa,
                on_session,
                on_commit,
            });
        }
    }

    fn on_sync(&mut self, s: SyncEvent) {
        let rf = self.rf.entry((s.rank, s.file)).or_default();
        match s.kind {
            SyncKind::Open => {
                rf.last_open = Some(s.t);
                rf.open_fds += 1;
                // An open at exactly t₂, draining after the access it
                // belongs to, still counts as that access's `to` (the
                // batch table query is `<= t`): fix up pending pairs.
                for p in self.pending.iter_mut() {
                    if p.second.t_start > s.t {
                        break;
                    }
                    if p.second.rank == s.rank && p.second.file == s.file {
                        p.to2 = Some(s.t);
                    }
                }
            }
            SyncKind::Close => {
                rf.open_fds = rf.open_fds.saturating_sub(1);
                rf.last_close = Some(s.t);
                rf.last_commit = Some(s.t);
                for id in std::mem::take(&mut rf.waiting_close) {
                    if let Some(w) = self.writes.get_mut(id) {
                        w.tc_close = Some(s.t);
                    }
                }
                for id in std::mem::take(&mut rf.waiting_commit) {
                    if let Some(w) = self.writes.get_mut(id) {
                        w.tc_commit = Some(s.t);
                    }
                }
            }
            SyncKind::Commit => {
                rf.last_commit = Some(s.t);
                for id in std::mem::take(&mut rf.waiting_commit) {
                    if let Some(w) = self.writes.get_mut(id) {
                        w.tc_commit = Some(s.t);
                    }
                }
            }
        }
    }

    fn on_access(&mut self, a: DataAccess) {
        // Pattern folds (exact: see module docs).
        let le = self.local_prev.insert((a.rank, a.file), a.end());
        if let Some(pe) = le {
            self.local_stats.add(classify_step(pe, a.offset));
        }
        let ge = self.global_prev.insert(a.file, a.end());
        if let Some(pe) = ge {
            self.global_stats.add(classify_step(pe, a.offset));
        }
        self.buckets.entry(a.file).or_default().add(&a);

        // Conflict candidates: this access against the file's live writes.
        let fs = self.files.entry(a.file).or_default();
        let k = (a.offset, a.end(), fs.next_seq);
        fs.next_seq += 1;
        let rf = self.rf.entry((a.rank, a.file)).or_default();
        let to2 = rf.last_open;
        for &id in &fs.matchable {
            let w = self.writes.get_mut(id).expect("matchable writes live");
            let overlap = a.offset < w.access.end() && w.access.offset < a.end();
            if !overlap {
                continue;
            }
            w.refs += 1;
            self.pairs_checked += 1;
            self.pending.push_back(PendingPair {
                write_id: id,
                second: a,
                second_k: k,
                to2,
            });
        }

        if a.kind == AccessKind::Write {
            // Tie fill: a close/commit at exactly t₁ drained before this
            // write (per-rank FIFO) and is its `first_after`.
            let tc_close = rf.last_close.filter(|&t| t == a.t_start);
            let tc_commit = rf.last_commit.filter(|&t| t == a.t_start);
            let id = self.writes.insert(WriteInfo {
                access: a,
                k,
                to: rf.last_open,
                tc_close,
                tc_commit,
                refs: 0,
                pruned: false,
            });
            if tc_close.is_none() {
                rf.waiting_close.push(id);
            }
            if tc_commit.is_none() {
                rf.waiting_commit.push(id);
            }
            fs.matchable.push(id);
            self.live_intervals += 1;
            self.peak_live_intervals = self.peak_live_intervals.max(self.live_intervals);
        }
    }

    /// Retire writes that can never conflict again under either model
    /// (see module docs for the exact conditions).
    fn prune(&mut self) {
        let Inner {
            nranks,
            writes,
            files,
            rf,
            live_intervals,
            pruned_intervals,
            ..
        } = self;
        for (&file, fs) in files.iter_mut() {
            if fs.matchable.is_empty() {
                continue;
            }
            // Oldest session still open on this file: a future access by a
            // rank holding an open fd inherits that open as its `to`.
            let mut floor: Option<u64> = None;
            for r in 0..*nranks {
                if let Some(st) = rf.get(&(r as u32, file)) {
                    if st.open_fds > 0 {
                        let lo = st.last_open.unwrap_or(0);
                        floor = Some(floor.map_or(lo, |f: u64| f.min(lo)));
                    }
                }
            }
            fs.matchable.retain(|&id| {
                let w = writes.get_mut(id).expect("matchable writes live");
                let commit_dead = w.tc_commit.is_some();
                let session_dead = match w.tc_close {
                    Some(tc) if w.access.t_start < tc => floor.is_none_or(|f| f > tc),
                    _ => false,
                };
                if commit_dead && session_dead {
                    w.pruned = true;
                    if w.refs == 0 {
                        writes.remove(id);
                    }
                    *live_intervals -= 1;
                    *pruned_intervals += 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    fn finalize(&mut self) -> IncrementalOutput {
        // Drain any residue (a rank that never reported done — e.g. a
        // run finalized early — is treated as finished).
        for r in 0..self.nranks {
            self.frontiers[r] = u64::MAX;
            self.done[r] = true;
        }
        self.bound_stale = true;
        self.drain();
        self.flush_pending(u64::MAX);

        let remap = std::mem::take(&mut self.remap);
        let m = |p: PathId| -> PathId {
            if remap.is_empty() {
                p
            } else {
                PathId(remap[p.0 as usize])
            }
        };

        // Replay surviving pairs in the batch sweep's emission order:
        // files in canonical PathId order, pairs by sweep position.
        let mut survivors = std::mem::take(&mut self.survivors);
        for sv in &mut survivors {
            sv.file = m(sv.file);
            sv.first.file = m(sv.first.file);
            sv.second.file = m(sv.second.file);
        }
        survivors.sort_by_key(|sv| (sv.file, sv.k_min, sv.k_max));
        let mut session = ConflictReport {
            model_checked: Some(AnalysisModel::Session),
            ..Default::default()
        };
        let mut commit = ConflictReport {
            model_checked: Some(AnalysisModel::Commit),
            ..Default::default()
        };
        for sv in &survivors {
            let pair = classify_pair(sv.file, &sv.first, &sv.second);
            if sv.on_session {
                session.add(pair);
            }
            if sv.on_commit {
                commit.add(pair);
            }
        }

        let canonical: BTreeMap<PathId, FileBuckets> = std::mem::take(&mut self.buckets)
            .into_iter()
            .map(|(f, b)| (m(f), b))
            .collect();
        let highlevel = classify_from_buckets(canonical.into_iter(), self.nranks as u32);

        if obs::metrics_enabled() {
            let mx = obs::metrics();
            mx.add("core.incremental.pairs_checked", self.pairs_checked);
            mx.add("core.incremental.pruned_intervals", self.pruned_intervals);
            mx.observe(
                "core.incremental.peak_live_intervals",
                self.peak_live_intervals,
            );
        }

        IncrementalOutput {
            resolution: self.resolver.counts(),
            session,
            commit,
            local: self.local_stats,
            global: self.global_stats,
            highlevel,
            census: std::mem::take(&mut self.census),
            peak_live_intervals: self.peak_live_intervals,
            pairs_checked: self.pairs_checked,
            pruned_intervals: self.pruned_intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::detect_conflicts;
    use crate::patterns::{global_pattern, local_pattern};
    use recorder::offset::{flag_bits, resolve};
    use recorder::{Func, Layer, ResolvedTrace, TraceSet};

    /// The reference: the at-rest detector under (session, commit).
    fn at_rest(resolved: &ResolvedTrace) -> (ConflictReport, ConflictReport) {
        (
            detect_conflicts(resolved, AnalysisModel::Session),
            detect_conflicts(resolved, AnalysisModel::Commit),
        )
    }

    fn posix(rank: u32, t: u64, func: Func) -> Record {
        Record {
            t_start: t,
            t_end: t + 1,
            rank,
            layer: Layer::Posix,
            origin: Layer::App,
            func,
        }
    }

    /// Two ranks sharing a file with overlapping writes and session
    /// opens/closes — enough structure to exercise pairs, tc fill, and
    /// pattern folds.
    fn sample_trace() -> TraceSet {
        let p = PathId(0);
        let flags = flag_bits::READ | flag_bits::WRITE | flag_bits::CREATE;
        TraceSet {
            paths: vec!["/f".into()],
            ranks: vec![
                vec![
                    posix(
                        0,
                        10,
                        Func::Open {
                            path: p,
                            flags,
                            fd: 3,
                        },
                    ),
                    posix(0, 20, Func::Write { fd: 3, count: 100 }),
                    posix(0, 40, Func::Fsync { fd: 3 }),
                    posix(0, 60, Func::Write { fd: 3, count: 50 }),
                    posix(0, 90, Func::Close { fd: 3 }),
                ],
                vec![
                    posix(
                        1,
                        15,
                        Func::Open {
                            path: p,
                            flags,
                            fd: 3,
                        },
                    ),
                    posix(
                        1,
                        30,
                        Func::Read {
                            fd: 3,
                            count: 80,
                            ret: 80,
                        },
                    ),
                    posix(
                        1,
                        70,
                        Func::Pwrite {
                            fd: 3,
                            offset: 120,
                            count: 40,
                        },
                    ),
                    posix(1, 95, Func::Close { fd: 3 }),
                ],
            ],
            skews_ns: vec![0, 0],
        }
    }

    fn feed(trace: &TraceSet, chunk: usize) -> IncrementalOutput {
        let an = StreamingAnalyzer::new(trace.nranks());
        for (r, records) in trace.ranks.iter().enumerate() {
            for c in records.chunks(chunk.max(1)) {
                let frontier = c.last().map_or(0, |x| x.t_start);
                an.push(r as u32, c, frontier);
            }
            an.rank_done(r as u32);
        }
        an.finalize()
    }

    /// The drain the heap replaced: rescan every queue head (and every
    /// empty rank's frontier) per drained record.
    struct LinearScanDrain {
        queues: Vec<VecDeque<Record>>,
        frontiers: Vec<u64>,
        done: Vec<bool>,
        /// `(t_start, rank)` in drain order.
        out: Vec<(u64, u32)>,
    }

    impl LinearScanDrain {
        fn drain(&mut self) {
            loop {
                let mut best: Option<(u64, usize)> = None;
                let mut bound = u64::MAX;
                for r in 0..self.queues.len() {
                    match self.queues[r].front() {
                        Some(rec) => {
                            let key = (rec.t_start, r);
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                        None if !self.done[r] => bound = bound.min(self.frontiers[r]),
                        None => {}
                    }
                }
                match best {
                    Some((t, r)) if t < bound => {
                        self.queues[r].pop_front().expect("nonempty");
                        self.out.push((t, r as u32));
                    }
                    _ => break,
                }
            }
        }
    }

    /// [`Inner::drain`], noting `(t_start, rank)` of each record it
    /// processes.
    fn drain_noting(g: &mut Inner, out: &mut Vec<(u64, u32)>) {
        while let Some(rec) = g.pop_drainable() {
            out.push((rec.t_start, rec.rank));
            g.process(rec);
        }
    }

    #[test]
    fn heap_drain_emits_the_linear_scan_order() {
        use simrng::SimRng;

        let mut rng = SimRng::seed_from_u64(0xD2A1);
        let flags = flag_bits::WRITE | flag_bits::CREATE;
        for case in 0..200 {
            let nranks = rng.range_usize(1, 9);
            // Per rank: an open, then pwrites at nondecreasing timestamps
            // drawn from a small range, so cross-rank (and same-rank) ties
            // are the norm. Some ranks never produce a record.
            let streams: Vec<Vec<Record>> = (0..nranks as u32)
                .map(|r| {
                    if rng.gen_bool(0.2) {
                        return Vec::new();
                    }
                    let mut t = rng.range_u64(0, 4);
                    let open = Func::Open {
                        path: PathId(0),
                        flags,
                        fd: 3,
                    };
                    let mut recs = vec![posix(r, t, open)];
                    for i in 0..rng.range_u64(0, 30) {
                        t += rng.range_u64(0, 4);
                        let pwrite = Func::Pwrite {
                            fd: 3,
                            offset: (u64::from(r) * 100 + i) * 10,
                            count: 1,
                        };
                        recs.push(posix(r, t, pwrite));
                    }
                    recs
                })
                .collect();
            let mut g = StreamingAnalyzer::new(nranks as u32)
                .inner
                .into_inner()
                .expect("fresh analyzer");
            let mut drained = Vec::new();
            let mut model = LinearScanDrain {
                queues: vec![VecDeque::new(); nranks],
                frontiers: vec![0; nranks],
                done: vec![false; nranks],
                out: Vec::new(),
            };
            let mut next = vec![0usize; nranks];
            let mut live: Vec<usize> = (0..nranks).collect();
            while !live.is_empty() {
                let r = live[rng.range_usize(0, live.len())];
                let rest = &streams[r][next[r]..];
                if rest.is_empty() {
                    // Late rank_done: after the rank's last record, but
                    // not necessarily right after.
                    if rng.gen_bool(0.5) {
                        g.finish_rank(r);
                        drain_noting(&mut g, &mut drained);
                        model.done[r] = true;
                        model.frontiers[r] = u64::MAX;
                        live.retain(|&x| x != r);
                    }
                } else {
                    // A chunk of 0..=5 records. The frontier is anything
                    // the rank may promise: nothing, its last record, or
                    // as far as its next one.
                    let chunk = &rest[..rng.range_usize(0, rest.len().min(5) + 1)];
                    let last = chunk.last().map_or(0, |c| c.t_start);
                    let frontier = match rng.range_u32(0, 3) {
                        0 => 0,
                        1 => last,
                        _ => rest.get(chunk.len()).map_or(last + 7, |n| n.t_start),
                    };
                    g.enqueue(r as u32, chunk, frontier);
                    drain_noting(&mut g, &mut drained);
                    model.queues[r].extend(chunk);
                    model.frontiers[r] = model.frontiers[r].max(frontier).max(last);
                    next[r] += chunk.len();
                }
                model.drain();
                // Same eagerness, not just the same final order: what has
                // drained by each epoch decides what pruning retires, and
                // so `peak_live_intervals` and `pairs_checked`.
                let lens = |qs: &[VecDeque<Record>]| -> Vec<usize> {
                    qs.iter().map(VecDeque::len).collect()
                };
                assert_eq!(lens(&g.queues), lens(&model.queues), "case {case}");
                assert_eq!(
                    g.heads.len(),
                    g.queues.iter().filter(|q| !q.is_empty()).count(),
                    "case {case}: one head per nonempty queue"
                );
            }
            assert!(model.queues.iter().all(VecDeque::is_empty), "case {case}");
            assert!(model.out.is_sorted(), "case {case}: the model is a merge");
            assert_eq!(drained, model.out, "case {case}");
        }
    }

    #[test]
    fn matches_batch_on_sample() {
        let trace = sample_trace();
        let resolved = resolve(&trace);
        let (session, commit) = at_rest(&resolved);
        for chunk in [1usize, 2, 3, 100] {
            let inc = feed(&trace, chunk);
            assert_eq!(inc.resolution, resolved.counts(), "chunk={chunk}");
            assert_eq!(inc.session, session, "chunk={chunk}");
            assert_eq!(inc.commit, commit, "chunk={chunk}");
            assert_eq!(inc.local, local_pattern(&resolved), "chunk={chunk}");
            assert_eq!(inc.global, global_pattern(&resolved), "chunk={chunk}");
        }
    }

    #[test]
    fn stale_write_id_misses_after_slot_reuse() {
        let write = |rank| WriteInfo {
            access: DataAccess {
                rank,
                t_start: 1,
                t_end: 2,
                file: PathId(0),
                offset: 0,
                len: 1,
                kind: AccessKind::Write,
                origin: recorder::Layer::App,
                fd: 3,
            },
            k: (0, 1, 0),
            to: None,
            tc_close: None,
            tc_commit: None,
            refs: 0,
            pruned: false,
        };
        let mut slab = WriteSlab::default();
        let a = slab.insert(write(0));
        let b = slab.insert(write(1));
        slab.remove(a);
        assert!(slab.get_mut(a).is_none(), "removed");
        let c = slab.insert(write(2));
        assert_eq!((c.slot, slab.slots.len()), (a.slot, 2), "slot reused");
        assert_ne!(c, a);
        // The stale handle neither reads nor frees the slot's new occupant.
        assert!(slab.get_mut(a).is_none());
        slab.remove(a);
        assert_eq!(slab.get_mut(c).expect("live").access.rank, 2);
        assert_eq!(slab.get_mut(b).expect("live").access.rank, 1);
    }

    #[test]
    fn sample_trace_counts_what_the_hashed_store_counted() {
        // Recorded from the hash-map write store of commit 862f99e.
        for chunk in [1usize, 2, 3, 100] {
            let inc = feed(&sample_trace(), chunk);
            assert_eq!(
                (
                    inc.peak_live_intervals,
                    inc.pairs_checked,
                    inc.pruned_intervals
                ),
                (3, 2, 0),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn pruned_write_survives_until_its_last_pending_pair() {
        let p = PathId(0);
        let flags = flag_bits::READ | flag_bits::WRITE | flag_bits::CREATE;
        let open = Func::Open {
            path: p,
            flags,
            fd: 3,
        };
        let read = Func::Pread {
            fd: 3,
            offset: 0,
            count: 50,
            ret: 50,
        };
        let trace = TraceSet {
            paths: vec!["/f".into()],
            ranks: vec![
                vec![
                    posix(0, 1, open),
                    posix(0, 2, Func::Write { fd: 3, count: 100 }),
                    posix(0, 3, Func::Close { fd: 3 }),
                    posix(0, 7, open),
                    posix(0, 8, Func::Write { fd: 3, count: 100 }),
                    posix(0, 9, Func::Close { fd: 3 }),
                ],
                vec![
                    posix(1, 4, open),
                    posix(1, 5, read),
                    posix(1, 6, Func::Close { fd: 3 }),
                ],
            ],
            skews_ns: vec![0, 0],
        };
        let an = StreamingAnalyzer::new(2);
        an.push(0, &trace.ranks[0][..3], 7);
        an.push(1, &trace.ranks[1][..2], 5);
        // Rank 1's read has drained, but nothing past it: its pair with
        // rank 0's (closed, reopened-after) write is still pending.
        an.epoch_released(0);
        {
            let mut g = an.lock();
            assert_eq!(
                (g.pending.len(), g.live_intervals, g.pruned_intervals),
                (1, 0, 1)
            );
            let id = g.pending[0].write_id;
            let w = g.writes.get_mut(id).expect("pinned by the pending pair");
            assert!(w.pruned && w.refs == 1);
        }
        an.push(1, &trace.ranks[1][2..], 6);
        an.push(0, &trace.ranks[0][3..], 9);
        {
            // The pair was evaluated when the drain passed t=5, the write
            // freed with it, and the second write took over its slot.
            let g = an.lock();
            assert!(g.pending.is_empty());
            assert_eq!((g.writes.slots.len(), g.writes.slots[0].gen), (1, 1));
        }
        an.rank_done(0);
        an.rank_done(1);
        let inc = an.finalize();
        let resolved = resolve(&trace);
        let (session, commit) = at_rest(&resolved);
        assert_eq!(inc.resolution, resolved.counts());
        assert_eq!(inc.session, session);
        assert_eq!(inc.commit, commit);
        assert_eq!(inc.pairs_checked, 1);
    }

    #[test]
    fn pruning_is_observation_only() {
        // Injecting epoch_released at every possible point never changes
        // the outputs, only the peak live-interval count.
        let trace = sample_trace();
        let resolved = resolve(&trace);
        let (session, commit) = at_rest(&resolved);
        let an = StreamingAnalyzer::new(trace.nranks());
        let mut epoch = 0;
        for (r, records) in trace.ranks.iter().enumerate() {
            for rec in records {
                an.push(r as u32, std::slice::from_ref(rec), rec.t_start);
                an.epoch_released(epoch);
                epoch += 1;
            }
            an.rank_done(r as u32);
            an.epoch_released(epoch);
            epoch += 1;
        }
        let inc = an.finalize();
        assert_eq!(inc.session, session);
        assert_eq!(inc.commit, commit);
        assert_eq!(inc.resolution, resolved.counts());
    }

    #[test]
    fn memory_bounded_by_live_epochs_not_trace_length() {
        // Many ranks cycling open/overlapping-write/close across many
        // epochs: the batch pipeline holds every access of the trace
        // (O(trace)); the streaming conflict store must stay bounded by
        // the intervals live in the current epoch (O(ranks)), regardless
        // of how long the trace grows.
        let p = PathId(0);
        let flags = flag_bits::READ | flag_bits::WRITE | flag_bits::CREATE;
        let (nranks, epochs) = (8u32, 128u64);
        let an = StreamingAnalyzer::new(nranks);
        for e in 0..epochs {
            let base = e * 1_000;
            for r in 0..nranks {
                let t = base + r as u64 * 10;
                // Writes overlap the neighbouring rank's range, so every
                // epoch also exercises pending-pair bookkeeping.
                let recs = vec![
                    posix(
                        r,
                        t + 1,
                        Func::Open {
                            path: p,
                            flags,
                            fd: 3,
                        },
                    ),
                    posix(
                        r,
                        t + 2,
                        Func::Pwrite {
                            fd: 3,
                            offset: r as u64 * 64,
                            count: 96,
                        },
                    ),
                    posix(r, t + 3, Func::Close { fd: 3 }),
                ];
                an.push(r, &recs, base + 900);
            }
            an.epoch_released(e);
        }
        for r in 0..nranks {
            an.rank_done(r);
        }
        let inc = an.finalize();
        let total = (nranks as u64) * epochs;
        assert_eq!(inc.resolution.accesses, total);
        assert!(
            inc.peak_live_intervals <= 3 * nranks as u64,
            "peak live intervals {} not O(ranks) for a {}-access trace",
            inc.peak_live_intervals,
            total
        );
        assert!(inc.pruned_intervals >= total - 2 * nranks as u64);
        assert!(inc.pairs_checked > 0, "overlaps must have been enumerated");
    }

    #[test]
    fn closed_epochs_prune_live_intervals() {
        // Repeated open/write/close/epoch cycles: the live-interval count
        // must stay flat instead of growing with the trace.
        let p = PathId(0);
        let flags = flag_bits::WRITE | flag_bits::CREATE;
        let an = StreamingAnalyzer::new(1);
        let rounds = 64u64;
        for i in 0..rounds {
            let base = i * 100;
            let recs = vec![
                posix(
                    0,
                    base + 1,
                    Func::Open {
                        path: p,
                        flags,
                        fd: 3,
                    },
                ),
                posix(0, base + 10, Func::Write { fd: 3, count: 10 }),
                posix(0, base + 20, Func::Close { fd: 3 }),
            ];
            an.push(0, &recs, base + 90);
            an.epoch_released(i);
        }
        an.rank_done(0);
        let inc = an.finalize();
        assert!(
            inc.peak_live_intervals <= 3,
            "peak {} should be O(1) across {} closed epochs",
            inc.peak_live_intervals,
            rounds
        );
        assert!(inc.pruned_intervals >= rounds - 2);
    }
}
