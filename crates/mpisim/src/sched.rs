//! The lockstep token scheduler and the shared simulator state.
//!
//! All mutable simulator state lives in one [`SimState`] behind a single
//! mutex. A state change queues the ranks that must observe it in
//! [`SimState::pending_wakes`]; the executor resumes exactly those (the
//! event loop runs them, the thread executor signals their condvars). A
//! rank performs a simulated operation by acquiring the *turn*:
//!
//! * it marks itself `Requesting` and waits until dispatched;
//! * dispatch waits until **every** live rank is either requesting,
//!   blocked, or finished — i.e. no rank is still computing — then grants
//!   the turn to a seeded-RNG choice among the requesters;
//! * the granted rank advances the simulated clock and mutates shared state
//!   (mailboxes, barrier, the attached file system) while holding the lock.
//!   How long it keeps the turn is the one grant policy, [`Grants`], read
//!   only by [`SimState::end_op`].
//!
//! A message to a rank parked in a receive only puts it on one deferral
//! list, released when no rank can otherwise run under burst grants and at
//! the end of every turn under per-op grants: the two differ only in how
//! long a turn lasts.
//!
//! Because only the turn holder touches shared state, a `(seed, program,
//! fault plan)` triple fully determines the interleaving, the clock, and
//! therefore every recorded trace — which is what makes the paper's
//! experiments reproducible here. There is no other way to run a world.
//! Between operations a rank reads only its own last-seen time
//! ([`SimState::last_t`]), never the global clock, so a burst may continue
//! while woken ranks still run application code.
//!
//! Fault handling extends the same state machine: a crashed rank enters the
//! terminal [`RankStatus::Crashed`] and counts as departed — barriers
//! release once every *live* rank has arrived, receivers blocked on a dead
//! peer with a drained channel are woken to fail-stop themselves, and a
//! delayed message ([`Msg::visible_at`]) is buffered at once but the
//! receive that takes it starts no earlier than its delivery time.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

use simrng::SimRng;

use crate::error::SimError;
use crate::event::MpiEvent;
use crate::fault::{FaultKind, FaultPlan, IoFault};

/// How long a granted rank keeps the turn; the next holder is the same
/// seeded draw under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grants {
    /// Until it parks, finishes or crashes, where it cannot proceed anyway
    /// (the default): a burst of operations costs no handoff.
    Burst,
    /// For one operation: the schedule-robustness oracle.
    PerOp,
}

/// Why a rank is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting for a matching message.
    Recv,
    /// Waiting inside barrier `epoch`.
    Barrier { epoch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankStatus {
    /// Running application code between simulated operations.
    Computing,
    /// Waiting to be granted the turn.
    Requesting,
    /// Holds the turn.
    Granted,
    /// Parked inside a blocking primitive.
    Blocked(BlockReason),
    /// Returned from its program.
    Finished,
    /// Fail-stopped (injected crash, cascaded peer crash, or unrecoverable
    /// I/O failure). Terminal; the rank never acts again.
    Crashed,
}

/// Fenwick (binary-indexed) tree over rank indices with 0/1 membership:
/// O(log n) point update, O(log n) *k-th member* selection. Backing store
/// for the requester set — dispatch draws the k-th requester in rank-index
/// order, and at thousands of ranks a status-vector scan per grant would
/// turn the whole simulation Θ(n²).
pub(crate) struct RankSelect {
    /// 1-based Fenwick array; `tree[i]` covers `i & -i` membership bits.
    tree: Vec<u32>,
    n: usize,
}

impl RankSelect {
    fn new(n: usize) -> Self {
        RankSelect {
            tree: vec![0; n + 1],
            n,
        }
    }

    #[inline]
    fn update(&mut self, rank: usize, delta: i32) {
        let mut i = rank + 1;
        while i <= self.n {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// 0-based rank index of the k-th (0-based) member, in increasing
    /// index order. Caller guarantees `k < membership count`.
    fn select(&self, k: usize) -> usize {
        let mut pos = 0usize; // 1-based prefix position accumulator
        let mut rem = (k + 1) as u32;
        let mut step = self.n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.n && self.tree[next] < rem {
                rem -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

/// The bytes of one message: owned by its single receiver, or one
/// allocation shared by every destination of a broadcast.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Payload {
    /// The bytes as a `Vec`; free for an owned payload.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a.to_vec(),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => a,
        }
    }
}

/// A buffered point-to-point message, queued at its destination.
#[derive(Debug, Clone)]
pub(crate) struct Msg {
    pub src: u32,
    pub tag: u32,
    pub seq: u64,
    pub payload: Payload,
    /// Earliest simulated time the receiver may consume it. `0` for
    /// undelayed traffic; a message-delay fault sets it into the future.
    pub visible_at: u64,
}

/// The whole mutable world: scheduler bookkeeping, clock, mailboxes, barrier
/// state, fault schedule, and the happens-before event log.
pub(crate) struct SimState {
    grants: Grants,
    pub rng: SimRng,
    pub status: Vec<RankStatus>,
    /// Ranks currently `Computing` / `Requesting` / `Granted` /
    /// `Blocked(_)`, and ranks not yet `Crashed`. Maintained by
    /// [`SimState::set_status`] so the dispatch decision — taken on every
    /// status transition — is O(1) instead of a status-vector scan plus a
    /// requester-list allocation. All writes to `status` must go through
    /// `set_status` or the counters drift.
    n_computing: usize,
    n_requesting: usize,
    n_granted: usize,
    n_blocked: usize,
    n_live: usize,
    /// The requester set as an order-statistics structure; dispatch picks
    /// the k-th requesting rank in index order without scanning `status`.
    requesting: RankSelect,
    pub deadlocked: bool,
    /// Blocked set captured at the moment deadlock was declared. The
    /// parked ranks unwind (and leave `Blocked`) as they observe the
    /// deadlock, so a later status scan would come up empty.
    deadlock_blocked: Vec<u32>,
    /// Global simulated time, nanoseconds. Moved only under the turn.
    pub clock_ns: u64,
    /// Per-rank time last observed: the end of the rank's last operation,
    /// send or receive, or the exit of its last barrier. What `Rank::now`
    /// returns; only the rank's own operations (and the release of a
    /// barrier it waits in) move it.
    pub last_t: Vec<u64>,
    /// One mailbox per destination rank, in arrival order. A receive
    /// takes the first message matching its `(src, tag)`, which is FIFO
    /// per channel. Queues persist for the life of the world, so buffering
    /// a message allocates nothing once a queue has grown to its working
    /// depth (at most one in-flight message per peer in the collectives).
    pub mailboxes: Vec<VecDeque<Msg>>,
    pub next_msg_seq: u64,
    /// Barrier: number of ranks arrived in the current epoch.
    pub barrier_count: u32,
    pub barrier_epoch: u64,
    /// Per-rank happens-before event log.
    pub events: Vec<Vec<MpiEvent>>,
    /// Ranks whose status just changed in a way their thread must observe
    /// (granted the turn, unparked, or deadlock declared). The mutating
    /// thread drains this queue and signals exactly those ranks' condvars
    /// before releasing the lock — see `Rank::drain_wakes`.
    pub pending_wakes: Vec<u32>,
    /// Per-rank count of simulated operations performed so far; the index
    /// the fault plan is keyed by. Incremented on every grant of the turn.
    pub op_index: Vec<u64>,
    /// Per-rank pending fault sites by kind, sorted by op index, read by
    /// [`take_due`]: crashes at every turn, I/O faults at the harness's
    /// file-system calls, send delays (`delay_ns`) at sends.
    crash_at: Vec<VecDeque<(u64, ())>>,
    io_faults: Vec<VecDeque<(u64, IoFault)>>,
    msg_delays: Vec<VecDeque<(u64, u64)>>,
    /// Recv-parked ranks with newly deliverable mail, released together:
    /// under burst grants when no rank can otherwise run (so a sender's
    /// burst costs no context switch per message), under per-op grants at
    /// the end of the sender's turn ([`SimState::end_op`]). This decides
    /// which ranks join each grant draw, so it defines the schedule.
    deferred_unblocks: Vec<u32>,
    /// Terminal fault of each rank, if any, for the run report.
    pub faults: Vec<Option<SimError>>,
    /// Trace pseudo-pid of rank 0 (rank r draws under `base + r`), or
    /// `None` when tracing was off at world creation. Checking an
    /// already-loaded `Option` under the already-held world lock makes
    /// every instrumentation site in the scheduler free when disabled.
    pub trace_pid_base: Option<u64>,
    /// World-local trace event buffer. Scheduler sites run under the world
    /// lock, so they push here (a plain `Vec` push) instead of taking the
    /// global collector's shard lock per event; `World::run` bulk-flushes
    /// the whole buffer once at the end of the run.
    pub trace_buf: Vec<obs::TraceEvent>,
}

impl SimState {
    pub fn new(nranks: u32, seed: u64, grants: Grants, start_ns: u64, plan: &FaultPlan) -> Self {
        let n = nranks as usize;
        let mut crash_at = vec![VecDeque::new(); n];
        let mut io_faults = vec![VecDeque::new(); n];
        let mut msg_delays = vec![VecDeque::new(); n];
        // Stable: sites at the same op keep their plan order.
        let mut sites = plan.sites().to_vec();
        sites.sort_by_key(|s| s.at_op);
        for site in sites {
            let r = site.rank as usize;
            match site.kind {
                FaultKind::Crash => crash_at[r].push_back((site.at_op, ())),
                FaultKind::Io(k) => io_faults[r].push_back((site.at_op, k)),
                FaultKind::MsgDelay { delay_ns } => msg_delays[r].push_back((site.at_op, delay_ns)),
            }
        }
        SimState {
            grants,
            rng: SimRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed),
            status: vec![RankStatus::Computing; n],
            n_computing: n,
            n_requesting: 0,
            n_granted: 0,
            n_blocked: 0,
            n_live: n,
            requesting: RankSelect::new(n),
            deadlocked: false,
            deadlock_blocked: Vec::new(),
            clock_ns: start_ns,
            last_t: vec![start_ns; n],
            mailboxes: (0..n).map(|_| VecDeque::new()).collect(),
            next_msg_seq: 0,
            barrier_count: 0,
            barrier_epoch: 0,
            events: (0..n).map(|_| Vec::new()).collect(),
            pending_wakes: Vec::new(),
            op_index: vec![0; n],
            crash_at,
            io_faults,
            msg_delays,
            deferred_unblocks: Vec::new(),
            faults: vec![None; n],
            trace_pid_base: obs::tracing_enabled().then(|| obs::alloc_sim_pids(nranks)),
            trace_buf: Vec::new(),
        }
    }

    /// Buffer an instant event on a simulated rank's timeline (only called
    /// when `trace_pid_base` is `Some`; see [`SimState::trace_buf`]).
    pub(crate) fn buf_instant(
        &mut self,
        pid: u64,
        name: &'static str,
        ts_ns: u64,
        args: Vec<(&'static str, obs::Arg)>,
    ) {
        self.trace_buf.push(obs::TraceEvent {
            name: std::borrow::Cow::Borrowed(name),
            cat: "mpisim",
            ph: obs::Phase::Instant,
            ts_ns,
            dur_ns: 0,
            pid,
            tid: 0,
            args,
        });
    }

    /// Buffer a complete span on a simulated rank's timeline.
    pub(crate) fn buf_span(
        &mut self,
        pid: u64,
        name: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, obs::Arg)>,
    ) {
        self.trace_buf.push(obs::TraceEvent {
            name: std::borrow::Cow::Borrowed(name),
            cat: "mpisim",
            ph: obs::Phase::Complete,
            ts_ns,
            dur_ns,
            pid,
            tid: 0,
            args,
        });
    }

    /// Which maintained counter a status contributes to, if any (`Finished`
    /// and `Crashed` are only tracked through `n_live`).
    #[inline]
    fn counter_for(&mut self, s: RankStatus) -> Option<&mut usize> {
        match s {
            RankStatus::Computing => Some(&mut self.n_computing),
            RankStatus::Requesting => Some(&mut self.n_requesting),
            RankStatus::Granted => Some(&mut self.n_granted),
            RankStatus::Blocked(_) => Some(&mut self.n_blocked),
            RankStatus::Finished | RankStatus::Crashed => None,
        }
    }

    /// The single write path for rank status: keeps the dispatch counters
    /// in sync with the status vector.
    #[inline]
    pub fn set_status(&mut self, r: usize, s: RankStatus) {
        let old = self.status[r];
        self.status[r] = s;
        if let Some(c) = self.counter_for(old) {
            *c -= 1;
        }
        if let Some(c) = self.counter_for(s) {
            *c += 1;
        }
        if old == RankStatus::Requesting {
            self.requesting.update(r, -1);
        }
        if s == RankStatus::Requesting {
            self.requesting.update(r, 1);
        }
        if s == RankStatus::Crashed && old != RankStatus::Crashed {
            self.n_live -= 1;
        }
    }

    /// Grant the turn to some requesting rank if the dispatch rule allows it.
    /// Must be called after every status change; callers then notify the
    /// condvar. Runs on every simulated operation (twice: request and
    /// release), so the decision is taken from the maintained counters —
    /// no scan, no allocation — and only the actual grant walks the status
    /// vector to find the picked rank.
    pub fn try_dispatch(&mut self) {
        if self.deadlocked || self.n_granted > 0 {
            return;
        }
        if self.n_computing > 0 {
            // Lockstep: wait until every live rank has declared itself.
            return;
        }
        if self.n_requesting == 0 {
            // No requester and no granted rank: everyone is blocked,
            // finished, or crashed.
            if self.n_blocked > 0 {
                // First release every deferred receiver (see
                // `deferred_unblocks`).
                if self.release_deferred_unblocks() {
                    return;
                }
                self.deadlocked = true;
                self.deadlock_blocked = (0..self.status.len() as u32)
                    .filter(|&r| matches!(self.status[r as usize], RankStatus::Blocked(_)))
                    .collect();
                obs::debug!("deadlock: status={:?} clock={}", self.status, self.clock_ns);
                if obs::log::enabled(obs::Level::Debug) {
                    for (dst, q) in self.mailboxes.iter().enumerate() {
                        for m in q {
                            obs::debug!(
                                "  mbox {}->{} tag {} visible_at={}",
                                m.src,
                                dst,
                                m.tag,
                                m.visible_at
                            );
                        }
                    }
                }
                // Every parked rank must wake up to observe the deadlock.
                self.pending_wakes.extend(0..self.status.len() as u32);
            }
            return;
        }
        // One seeded draw over the requester count, then an O(log n)
        // order-statistics pick of the k-th requester in rank-index order:
        // the grant depends on who is requesting, never on who asked first.
        let k = self.rng.range_usize(0, self.n_requesting);
        let pick = self.requesting.select(k);
        debug_assert_eq!(
            self.status[pick],
            RankStatus::Requesting,
            "requester Fenwick tree out of sync with status vector"
        );
        self.set_status(pick, RankStatus::Granted);
        self.pending_wakes.push(pick as u32);
    }

    /// Wake every deferred receiver that is still recv-parked (a peer's
    /// crash may have woken or crashed it since it was queued). Returns
    /// whether any rank was released. Draining the whole set at a single
    /// deterministic point keeps the schedule a function of
    /// `(seed, program)`.
    fn release_deferred_unblocks(&mut self) -> bool {
        let mut woke = false;
        while let Some(dst) = self.deferred_unblocks.pop() {
            if self.status[dst as usize] == RankStatus::Blocked(BlockReason::Recv) {
                self.set_status(dst as usize, RankStatus::Computing);
                self.pending_wakes.push(dst);
                woke = true;
            }
        }
        woke
    }

    /// Spend `ns` of `rank`'s time on the global clock, starting now.
    /// Returns the operation's `(t_start, t_end)`; `t_end` becomes the time
    /// the rank reads next.
    pub fn spend(&mut self, rank: u32, ns: u64) -> (u64, u64) {
        let t0 = self.clock_ns;
        self.clock_ns += ns;
        self.last_t[rank as usize] = self.clock_ns;
        (t0, self.clock_ns)
    }

    /// Pop the oldest message on channel (src → dst, tag), if any: FIFO per
    /// channel, like MPI's non-overtaking rule. A delayed message is taken
    /// like any other; the receive starts no earlier than its `visible_at`.
    pub fn take_msg(&mut self, src: u32, dst: u32, tag: u32) -> Option<Msg> {
        let q = &mut self.mailboxes[dst as usize];
        let i = q.iter().position(|m| m.src == src && m.tag == tag)?;
        q.remove(i)
    }

    /// Buffer a message and, if the destination is parked in a receive,
    /// defer its wake (see `deferred_unblocks`). Consumes a pending
    /// message-delay fault of the sender, if one is due.
    pub fn put_msg(&mut self, src: u32, dst: u32, tag: u32, payload: Payload) -> u64 {
        let seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        let s = src as usize;
        let visible_at = match take_due(&mut self.msg_delays[s], self.op_index[s]) {
            Some(delay_ns) => {
                let t = self.clock_ns + delay_ns;
                if let Some(base) = self.trace_pid_base {
                    let now = self.clock_ns;
                    self.buf_instant(
                        base + src as u64,
                        "msg-delayed",
                        now,
                        vec![
                            ("dst", obs::Arg::U(dst as u64)),
                            ("visible_at", obs::Arg::U(t)),
                        ],
                    );
                }
                t
            }
            None => 0,
        };
        self.mailboxes[dst as usize].push_back(Msg {
            src,
            tag,
            seq,
            payload,
            visible_at,
        });
        if self.status[dst as usize] == RankStatus::Blocked(BlockReason::Recv)
            && !self.deferred_unblocks.contains(&dst)
        {
            self.deferred_unblocks.push(dst);
        }
        seq
    }

    /// End `rank`'s operation: the one read of the grant policy. Per-op
    /// grants release the receivers it deferred, then give up the turn —
    /// the state an immediate wake left, since nothing is dispatched
    /// between a send and its turn's end and the draw ignores wake order.
    pub fn end_op(&mut self, rank: u32) {
        if self.grants == Grants::PerOp {
            self.release_deferred_unblocks();
            self.set_status(rank as usize, RankStatus::Computing);
            self.try_dispatch();
        }
    }

    /// Consume a planned crash of `rank` due at its op `op`.
    pub fn take_crash(&mut self, rank: u32, op: u64) -> bool {
        take_due(&mut self.crash_at[rank as usize], op).is_some()
    }

    /// Consume the front pending I/O fault of `rank` if its op index is due.
    pub fn take_io_fault(&mut self, rank: u32) -> Option<IoFault> {
        let r = rank as usize;
        take_due(&mut self.io_faults[r], self.op_index[r])
    }

    /// Whether `rank` has fail-stopped.
    pub fn is_crashed(&self, rank: u32) -> bool {
        self.status[rank as usize] == RankStatus::Crashed
    }

    /// Ranks that can still arrive at a barrier (everything not crashed;
    /// a *finished* rank still counts, so a program that exits mid-barrier
    /// on some ranks deadlocks — an application bug, reported as one).
    pub fn live_ranks(&self) -> u32 {
        self.n_live as u32
    }

    /// Release the current barrier epoch if every live rank has arrived.
    /// Called on every arrival and on every crash (the crash may be the
    /// departure the epoch was waiting for).
    pub fn release_barrier_if_complete(&mut self) {
        if self.barrier_count == 0 || self.barrier_count < self.live_ranks() {
            return;
        }
        let epoch = self.barrier_epoch;
        self.barrier_count = 0;
        self.barrier_epoch += 1;
        for r in 0..self.status.len() {
            if self.status[r] == RankStatus::Blocked(BlockReason::Barrier { epoch }) {
                self.set_status(r, RankStatus::Computing);
                self.last_t[r] = self.clock_ns;
                self.pending_wakes.push(r as u32);
            }
        }
    }

    /// Transition `rank` into the terminal crashed state and let the rest
    /// of the world adapt: the barrier epoch it will never join may now be
    /// complete, and every receiver parked on a message must re-check its
    /// channel (it fail-stops itself if the peer is this rank and the
    /// channel is drained).
    pub fn crash_rank(&mut self, rank: u32, err: SimError) {
        self.set_status(rank as usize, RankStatus::Crashed);
        if let Some(base) = self.trace_pid_base {
            let now = self.clock_ns;
            self.buf_instant(
                base + rank as u64,
                "crash",
                now,
                vec![
                    ("rank", obs::Arg::U(rank as u64)),
                    ("error", obs::Arg::S(err.to_string())),
                ],
            );
        }
        self.faults[rank as usize] = Some(err);
        self.release_barrier_if_complete();
        for r in 0..self.status.len() {
            if self.status[r] == RankStatus::Blocked(BlockReason::Recv) {
                self.set_status(r, RankStatus::Computing);
                self.pending_wakes.push(r as u32);
            }
        }
        self.try_dispatch();
    }

    /// Blocked ranks the deadlock error names, captured when `deadlocked`
    /// was set (the ranks have since unwound).
    pub fn blocked_ranks(&self) -> Vec<u32> {
        self.deadlock_blocked.clone()
    }
}

/// The one firing rule of every fault site: pop the front of a queue
/// sorted by op index if it is due at op `op` (at or after its index).
fn take_due<T>(q: &mut VecDeque<(u64, T)>, op: u64) -> Option<T> {
    q.pop_front_if(|(at_op, _)| *at_op <= op).map(|(_, v)| v)
}
