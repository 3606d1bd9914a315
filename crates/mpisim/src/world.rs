//! World construction, rank handles and the turn protocol.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use simrng::SimRng;

use crate::clock::{apply_skew, cost, OpClass};
use crate::error::{SimAbort, SimError};
use crate::event::MpiEvent;
use crate::fault::{FaultPlan, IoFault};
use crate::sched::{Grants, RankStatus, SimState};

/// Upper bound on the rank count of one world. The task executor commits
/// stack pages lazily, so the real ceiling is address space and patience,
/// not memory — but a rank count beyond this is always a typo or a unit
/// error, and front ends reject it before allocating anything.
pub const MAX_RANKS: u32 = 65_536;

/// Default bound on per-rank clock skew, nanoseconds: the paper measured
/// < 20 µs on Quartz (§5.2), negligible beside the gaps between
/// synchronized conflicting operations.
pub const DEFAULT_MAX_SKEW_NS: u64 = 20_000;

/// How rank programs are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// Every rank is a resumable stackful task; one OS thread drives all of
    /// them on a discrete-event loop, switching at exactly the points where
    /// the scheduler would have parked a thread. The default where
    /// supported: byte-identical traces to [`ExecModel::Threads`] at a
    /// fraction of the wall-clock and memory. See `DESIGN.md` §13.1.
    Tasks,
    /// One OS thread per rank. Kept for two reasons: it is the only
    /// executor on architectures without a context-switch implementation,
    /// and it is the reference `sched_equivalence.rs` compares the task
    /// engine against.
    Threads,
}

impl ExecModel {
    /// [`ExecModel::Tasks`] where the coroutine engine exists for this
    /// architecture, [`ExecModel::Threads`] otherwise.
    pub fn default_for_host() -> Self {
        if crate::task::supported() {
            ExecModel::Tasks
        } else {
            ExecModel::Threads
        }
    }
}

/// Configuration for a simulated world.
#[derive(Debug, Clone)]
pub struct WorldCfg {
    /// Number of MPI ranks (tasks or threads, per [`WorldCfg::exec`]).
    pub nranks: u32,
    /// Seed controlling both the scheduler's grant draws and the per-rank
    /// clock skew.
    pub seed: u64,
    /// How long a granted rank keeps the turn: burst grants unless
    /// [`WorldCfg::per_op_lockstep`] chose per-op grants.
    grants: Grants,
    /// Maximum absolute per-rank clock skew, nanoseconds; defaults to the
    /// paper's bound, [`DEFAULT_MAX_SKEW_NS`].
    pub max_skew_ns: u64,
    /// Initial simulated time. Jobs of a workflow chain their clocks by
    /// starting each world where the previous one ended.
    pub start_ns: u64,
    /// Pre-committed fault schedule; [`FaultPlan::none`] for a clean run.
    pub faults: FaultPlan,
    /// Human-readable label naming this world's rank timelines in exported
    /// traces (e.g. the report config name). Empty is fine; it only
    /// affects observability output, never simulation behaviour.
    pub label: String,
    /// Rank execution engine. [`ExecModel::Tasks`] (the host default) and
    /// [`ExecModel::Threads`] produce byte-identical traces.
    pub exec: ExecModel,
}

impl WorldCfg {
    /// A world of `nranks` ranks with the paper-calibrated defaults.
    pub fn new(nranks: u32, seed: u64) -> Self {
        WorldCfg {
            nranks,
            seed,
            grants: Grants::Burst,
            max_skew_ns: DEFAULT_MAX_SKEW_NS,
            start_ns: 0,
            faults: FaultPlan::none(),
            label: String::new(),
            exec: ExecModel::default_for_host(),
        }
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Grant the turn per operation instead of in bursts: the maximally
    /// interleaved schedule `sched_robustness.rs` takes as its reference.
    pub fn per_op_lockstep(mut self) -> Self {
        self.grants = Grants::PerOp;
        self
    }

    pub fn with_max_skew_ns(mut self, ns: u64) -> Self {
        self.max_skew_ns = ns;
        self
    }

    /// Inject `faults`. Every site must name a rank of this world
    /// ([`FaultPlan::check_ranks`]); [`World::run`] panics otherwise.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Select the rank execution engine explicitly.
    pub fn with_exec(mut self, exec: ExecModel) -> Self {
        self.exec = exec;
        self
    }
}

pub(crate) struct Shared {
    pub state: Mutex<SimState>,
    /// One condvar per rank. A rank only ever waits on its own entry; state
    /// mutations record which ranks must wake in `SimState::pending_wakes`
    /// and exactly those are signaled. With a single shared condvar every
    /// status transition woke all parked ranks (at n ranks, ~n wakeups per
    /// simulated op just to have n−1 go back to sleep), which dominated
    /// simulation wall time.
    pub cvs: Vec<Condvar>,
    pub nranks: u32,
    /// Immutable per-rank clock skew offsets (signed ns).
    pub skews: Vec<i64>,
    /// Whether the fault plan contains any I/O faults at all; lets the
    /// harness skip the per-op fault probe (a lock acquisition) entirely
    /// on clean runs.
    pub has_io_faults: bool,
    /// Whether ranks run as tasks on the event loop (true) or as OS
    /// threads (false). Decides how a rank suspends: yield to the driving
    /// loop vs. condvar wait. Fixed at world creation.
    pub task_mode: bool,
}

/// A caught panic payload, carried from the rank that raised it to the
/// driving thread, which re-panics with it after the world drains.
type Payload = Box<dyn std::any::Any + Send>;

/// How one rank's program ended: its value, `None` after a controlled
/// fail-stop ([`SimAbort`]), or the payload of a genuine panic.
type RankEnd<T> = Result<Option<T>, Payload>;

/// Lock a poisonable mutex, tolerating poison: a rank thread that panicked
/// while holding the lock must not cascade panics into every other rank —
/// graceful degradation means the survivors keep draining their state.
pub(crate) fn lock_state(m: &Mutex<SimState>) -> MutexGuard<'_, SimState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Suppress the default "thread panicked" stderr noise for the controlled
/// [`SimAbort`] unwinds; every other panic goes to the previous hook
/// untouched. Installed once per process, delegating.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Best-effort human-readable message from a caught panic payload, for
/// the fault record of a rank that died to a genuine bug.
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string payload".to_string()
    }
}

/// One simulated world. [`World::run`] builds it, drives a closure on
/// every rank, and tears it down.
pub struct World {
    pub(crate) shared: Arc<Shared>,
}

/// Everything a world run produces besides the per-rank return values:
/// the happens-before event log, the final simulated time, and the skew
/// offsets that were applied to recorded timestamps.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank return values of the rank closure, indexed by rank.
    /// `None` for a rank whose closure was cut short by a fail-stop abort
    /// it did not catch (layers that salvage partial state catch the
    /// [`SimAbort`] unwind inside the closure and still return a value).
    pub results: Vec<Option<T>>,
    /// Terminal fault of each rank, if any, indexed by rank. A run with
    /// injected crashes completes `Ok` and reports them here.
    pub faults: Vec<Option<SimError>>,
    /// Per-rank communication event logs (true, unskewed timestamps).
    pub events: Vec<Vec<MpiEvent>>,
    /// Simulated time at the end of the run.
    pub final_time_ns: u64,
    /// The per-rank skew that was applied to recorded timestamps.
    pub skews_ns: Vec<i64>,
}

impl World {
    fn new(cfg: &WorldCfg, task_mode: bool) -> Self {
        assert!(cfg.nranks > 0, "world must have at least one rank");
        assert!(
            cfg.nranks <= MAX_RANKS,
            "world of {} ranks exceeds MAX_RANKS ({MAX_RANKS})",
            cfg.nranks
        );
        if let Err(e) = cfg.faults.check_ranks(cfg.nranks) {
            panic!("fault plan: {e}");
        }
        let mut skew_rng = SimRng::seed_from_u64(cfg.seed ^ 0x0c10_c0c1_0c0c_105e);
        let skews = (0..cfg.nranks)
            .map(|_| {
                if cfg.max_skew_ns == 0 {
                    0
                } else {
                    skew_rng.range_i64_inclusive(-(cfg.max_skew_ns as i64), cfg.max_skew_ns as i64)
                }
            })
            .collect();
        let has_io_faults = cfg
            .faults
            .sites()
            .iter()
            .any(|s| matches!(s.kind, crate::fault::FaultKind::Io(_)));
        let state = SimState::new(cfg.nranks, cfg.seed, cfg.grants, cfg.start_ns, &cfg.faults);
        if let Some(base) = state.trace_pid_base {
            let label = if cfg.label.is_empty() {
                "world"
            } else {
                &cfg.label
            };
            for r in 0..cfg.nranks {
                obs::process_name(base + r as u64, format!("{label} rank {r} (sim)"));
            }
        }
        World {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                cvs: (0..cfg.nranks).map(|_| Condvar::new()).collect(),
                nranks: cfg.nranks,
                skews,
                has_io_faults,
                task_mode,
            }),
        }
    }

    /// The rank handle for `rank`; each rank program gets exactly one.
    fn rank(&self, rank: u32) -> Rank {
        assert!(
            rank < self.shared.nranks,
            "{}",
            SimError::InvalidRank {
                rank,
                nranks: self.shared.nranks
            }
        );
        Rank {
            shared: Arc::clone(&self.shared),
            rank,
        }
    }

    /// Run `f` on every rank — tasks on one event loop or one OS thread
    /// per rank, per [`WorldCfg::exec`] — wait for all of them, and
    /// collect results plus the event log.
    ///
    /// Runtime failures are reported, not panicked: a deadlock (every live
    /// rank blocked — an application bug) fails the whole run with `Err`,
    /// while per-rank fail-stops (injected crashes, cascaded peer crashes,
    /// unrecoverable I/O) leave the run `Ok` with the affected ranks'
    /// entries in [`RunOutput::faults`] set and their results possibly
    /// `None`. A genuine panic in application code still propagates —
    /// but only after the panicking rank is marked crashed in the
    /// scheduler, so surviving ranks drain (finish or cascade-abort)
    /// instead of waiting forever on a dead rank's token.
    pub fn run<T, F>(cfg: &WorldCfg, f: F) -> Result<RunOutput<T>, SimError>
    where
        T: Send,
        F: Fn(Rank) -> T + Sync,
    {
        install_quiet_abort_hook();
        let task_mode = cfg.exec == ExecModel::Tasks && crate::task::supported();
        let world = World::new(cfg, task_mode);
        let ends = if task_mode {
            Self::run_tasks(&world, cfg, &f)
        } else {
            Self::run_threads(&world, cfg, &f)
        };
        // Re-raise the lowest rank's genuine panic once the world drained.
        let results = ends
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        let mut st = lock_state(&world.shared.state);
        // Observability flush: one aggregate pass per world, never per op —
        // the per-op fast path stays untouched so instrumented runs hold
        // the <2% overhead budget.
        if let Some(base) = st.trace_pid_base {
            for r in 0..cfg.nranks as usize {
                let dur = st.clock_ns.saturating_sub(cfg.start_ns);
                let args = vec![
                    ("rank", obs::Arg::U(r as u64)),
                    ("ops", obs::Arg::U(st.op_index[r])),
                    ("crashed", obs::Arg::U(st.faults[r].is_some() as u64)),
                ];
                st.buf_span(base + r as u64, "run", cfg.start_ns, dur, args);
            }
            obs::span::push_bulk(&mut st.trace_buf);
        }
        if obs::metrics_enabled() {
            let m = obs::metrics();
            m.add("mpisim.worlds", 1);
            m.add("mpisim.ops", st.op_index.iter().sum());
            m.add("mpisim.messages", st.next_msg_seq);
            m.add("mpisim.barrier_epochs", st.barrier_epoch);
            m.add("mpisim.crashes", st.faults.iter().flatten().count() as u64);
            if st.deadlocked {
                m.add("mpisim.deadlocks", 1);
            }
        }
        if st.deadlocked {
            return Err(SimError::Deadlock {
                blocked: st.blocked_ranks(),
            });
        }
        Ok(RunOutput {
            results,
            faults: std::mem::take(&mut st.faults),
            events: std::mem::take(&mut st.events),
            final_time_ns: st.clock_ns,
            skews_ns: world.shared.skews.clone(),
        })
    }

    /// One rank's whole program, the same under either executor: run `f`,
    /// then mark the rank finished. A controlled fail-stop unwinds with
    /// [`SimAbort`] after the aborting path recorded the fault; any other
    /// panic is a bug that escaped the rank closure, so the rank is crashed
    /// in the scheduler first (the world drains instead of waiting on it)
    /// and the payload goes back to the driver to re-raise.
    fn run_rank<T, F: Fn(Rank) -> T>(rank: Rank, f: &F) -> RankEnd<T> {
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(rank.clone_handle()))) {
            Ok(out) => {
                rank.finish();
                Ok(Some(out))
            }
            Err(payload) if payload.downcast_ref::<SimAbort>().is_some() => Ok(None),
            Err(payload) => {
                rank.poison(format!("panic: {}", panic_payload_message(&payload)));
                Err(payload)
            }
        }
    }

    /// The thread-per-rank executor (the oracle path).
    fn run_threads<T, F>(world: &World, cfg: &WorldCfg, f: &F) -> Vec<RankEnd<T>>
    where
        T: Send,
        F: Fn(Rank) -> T + Sync,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.nranks)
                .map(|r| {
                    let rank = world.rank(r);
                    s.spawn(move || Self::run_rank(rank, f))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(Err))
                .collect()
        })
    }

    /// The event-loop executor: every rank is a stackful task; this (the
    /// caller's thread) is the scheduler, resuming one task at a time.
    ///
    /// The loop is wake-driven. A running task that changes another rank's
    /// status queues it in `SimState::pending_wakes` exactly as under
    /// threads — but with `Shared::task_mode` set, `Rank::drain_wakes`
    /// leaves the queue alone instead of signaling condvars, and the loop
    /// transfers it into its run queue after every resume. Resumes can be
    /// spurious (a queued rank may have been woken for a predicate that no
    /// longer holds); that is safe because every suspension site is a
    /// predicate-recheck loop, identical to a spurious condvar wakeup.
    ///
    /// Determinism: the grant sequence is a pure function of `(seed,
    /// program, faults)` — an RNG draw only happens once every live rank
    /// has declared itself, and the pick is by rank index over the
    /// requester set, not by arrival order — so driving ranks from this
    /// loop instead of OS threads reproduces the thread executor's traces
    /// byte for byte (see `sched_equivalence.rs`).
    fn run_tasks<T, F>(world: &World, cfg: &WorldCfg, f: &F) -> Vec<RankEnd<T>>
    where
        T: Send,
        F: Fn(Rank) -> T + Sync,
    {
        use std::cell::RefCell;
        use std::collections::VecDeque;

        let n = cfg.nranks as usize;
        let stack_bytes = crate::task::DEFAULT_STACK_BYTES;
        let ends: Vec<RefCell<RankEnd<T>>> = (0..n).map(|_| RefCell::new(Ok(None))).collect();
        let mut tasks: Vec<crate::task::Task> = (0..cfg.nranks)
            .map(|r| {
                let rank = world.rank(r);
                let slot = &ends[r as usize];
                // SAFETY: every task is resumed to completion below before
                // `ends` and `f` go out of scope, and all resumes happen on
                // this thread.
                unsafe {
                    crate::task::Task::new(
                        stack_bytes,
                        Box::new(move || *slot.borrow_mut() = Self::run_rank(rank, f)),
                    )
                }
            })
            .collect();

        let mut runq: VecDeque<u32> = VecDeque::with_capacity(n);
        let mut queued = vec![false; n];
        let mut switches: u64 = 0;
        let drain = |runq: &mut VecDeque<u32>, queued: &mut Vec<bool>| {
            let mut st = lock_state(&world.shared.state);
            while let Some(r) = st.pending_wakes.pop() {
                if !queued[r as usize] {
                    queued[r as usize] = true;
                    runq.push_back(r);
                }
            }
        };
        // Start every rank once. No grant can fire before the last rank has
        // declared itself, so the start order cannot influence the schedule.
        for t in tasks.iter_mut() {
            t.resume();
            switches += 1;
            drain(&mut runq, &mut queued);
        }
        while let Some(r) = runq.pop_front() {
            queued[r as usize] = false;
            let t = &mut tasks[r as usize];
            if t.finished() {
                // Deadlock declaration (and some crash paths) wake every
                // rank, including ones already done.
                continue;
            }
            t.resume();
            switches += 1;
            drain(&mut runq, &mut queued);
        }
        if let Some(stuck) = tasks.iter().position(|t| !t.finished()) {
            // Unreachable by construction: an empty run queue with an
            // unfinished task would mean a suspension site that nobody ever
            // wakes — every such site is covered by pending_wakes (grants,
            // unparks, deadlock declaration). Abandoning a suspended task
            // would leak its stack frames, so fail loudly instead.
            let st = lock_state(&world.shared.state);
            panic!(
                "event loop stalled: rank {stuck} never finished \
                 (status {:?}, deadlocked={})",
                st.status[stuck], st.deadlocked
            );
        }
        if obs::metrics_enabled() {
            let m = obs::metrics();
            m.add("mpisim.task_switches", switches);
            m.set_max("sim.live_tasks", n as u64);
            m.set_max("sim.task_mem_peak_bytes", (n * stack_bytes) as u64);
        }
        ends.into_iter().map(RefCell::into_inner).collect()
    }
}

/// One simulated MPI rank. Owned by the thread that plays that rank.
/// Cloning yields another handle to the same rank (useful for layered
/// wrappers); all handles of one rank must stay on that rank's thread.
pub struct Rank {
    pub(crate) shared: Arc<Shared>,
    pub(crate) rank: u32,
}

impl Clone for Rank {
    fn clone(&self) -> Self {
        self.clone_handle()
    }
}

impl Rank {
    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn nranks(&self) -> u32 {
        self.shared.nranks
    }

    /// The skew offset applied to this rank's recorded timestamps.
    pub fn skew_ns(&self) -> i64 {
        self.shared.skews[self.rank as usize]
    }

    /// Convert a true simulated timestamp into this rank's skewed local
    /// clock reading — what the tracer records.
    pub fn local_clock(&self, true_ns: u64) -> u64 {
        apply_skew(true_ns, self.skew_ns())
    }

    /// The true simulated time this rank last observed: the end of its
    /// last operation, send or receive, or the exit of its last barrier.
    /// Layer code reads it between operations (a library call's entry and
    /// exit), as a traced process reads its own clock; since only the
    /// rank's own progress moves it, the reading does not depend on what
    /// other ranks are doing at that moment. Takes the world lock.
    pub fn now(&self) -> u64 {
        self.lock_state().last_t[self.rank as usize]
    }

    /// Visit this rank's communication events from index `from` of its
    /// log on, while the run goes on; returns the `from` of the next call.
    pub fn events_since(&self, from: usize, f: impl FnMut(&MpiEvent)) -> usize {
        let st = self.lock_state();
        let log = &st.events[self.rank as usize];
        log[from..].iter().for_each(f);
        log.len()
    }

    pub(crate) fn clone_handle(&self) -> Rank {
        Rank {
            shared: Arc::clone(&self.shared),
            rank: self.rank,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SimState> {
        lock_state(&self.shared.state)
    }

    /// Signal every rank queued in `pending_wakes` (except ourselves: the
    /// caller re-checks its own predicate before sleeping). Must run before
    /// the mutating thread sleeps or releases the lock, so no wake is lost.
    ///
    /// Under the task executor this is a no-op: the event loop transfers
    /// `pending_wakes` into its run queue after every task switch, and no
    /// wake can be missed because nothing else runs until this rank yields
    /// back to the loop.
    fn drain_wakes(&self, st: &mut SimState) {
        if self.shared.task_mode {
            return;
        }
        while let Some(r) = st.pending_wakes.pop() {
            if r != self.rank {
                self.shared.cvs[r as usize].notify_one();
            }
        }
    }

    /// Suspend this rank until its status may have changed: a condvar wait
    /// under the thread executor, a yield back to the event loop under the
    /// task executor. Either way the world lock is released while
    /// suspended and re-held on return, and the return may be spurious —
    /// every caller sits in a predicate-recheck loop.
    fn await_wake<'a>(&'a self, st: MutexGuard<'a, SimState>) -> MutexGuard<'a, SimState> {
        if self.shared.task_mode {
            debug_assert!(
                crate::task::in_task(),
                "task-mode world driven from outside the event loop"
            );
            drop(st);
            crate::task::yield_now();
            self.lock_state()
        } else {
            self.shared.cvs[self.rank as usize]
                .wait(st)
                .unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Fail-stop this rank: record the fault, let the world adapt (barrier
    /// departure, receiver wakeups), and unwind the rank thread with the
    /// [`SimAbort`] payload. Never returns.
    pub(crate) fn abort_with(&self, mut st: MutexGuard<'_, SimState>, err: SimError) -> ! {
        st.crash_rank(self.rank, err.clone());
        self.drain_wakes(&mut st);
        drop(st);
        std::panic::panic_any(SimAbort(err));
    }

    /// Fail-stop this rank from a layer above the runtime (e.g. the I/O
    /// harness after exhausting retries). Unwinds with [`SimAbort`];
    /// callers salvage partial state by catching it inside the rank
    /// closure. Never returns.
    pub fn fail_stop(&self, cause: String) -> ! {
        let mut st = self.lock_state();
        let at_op = st.op_index[self.rank as usize];
        let err = SimError::RankCrashed {
            rank: self.rank,
            at_op,
            cause,
        };
        st.crash_rank(self.rank, err.clone());
        self.drain_wakes(&mut st);
        drop(st);
        std::panic::panic_any(SimAbort(err));
    }

    /// Crash this rank in the scheduler without unwinding — the cleanup
    /// half of [`Rank::fail_stop`], for when the thread is *already*
    /// unwinding with a genuine panic. Records the fault and wakes every
    /// waiter so the world drains instead of hanging on a dead thread.
    pub(crate) fn poison(&self, cause: String) {
        let mut st = self.lock_state();
        if st.is_crashed(self.rank) {
            return;
        }
        let at_op = st.op_index[self.rank as usize];
        let err = SimError::RankCrashed {
            rank: self.rank,
            at_op,
            cause,
        };
        st.crash_rank(self.rank, err);
        self.drain_wakes(&mut st);
    }

    /// Consume this rank's next due I/O fault, if the world's fault plan
    /// scheduled one at or before the rank's current op index. The probe is
    /// free when the plan holds no I/O faults.
    pub fn take_io_fault(&self) -> Option<IoFault> {
        if !self.shared.has_io_faults {
            return None;
        }
        let mut st = self.lock_state();
        st.take_io_fault(self.rank)
    }

    /// Acquire the scheduler turn. Returns with the world lock held and
    /// this rank's status set to `Granted` — at once when a burst kept the
    /// token across the previous `turn_end`. Then increments the rank's op
    /// index and fires a planned crash scheduled for it, so a crash always
    /// happens under the turn.
    pub(crate) fn turn_begin(&self) -> MutexGuard<'_, SimState> {
        let mut st = self.lock_state();
        let me = self.rank as usize;
        if st.status[me] != RankStatus::Granted {
            st.set_status(me, RankStatus::Requesting);
            st.try_dispatch();
            self.drain_wakes(&mut st);
            while st.status[me] != RankStatus::Granted {
                if st.deadlocked {
                    let blocked = st.blocked_ranks();
                    drop(st);
                    std::panic::panic_any(SimAbort(SimError::Deadlock { blocked }));
                }
                st = self.await_wake(st);
            }
        }
        let op = st.op_index[me];
        st.op_index[me] = op + 1;
        if st.take_crash(self.rank, op) {
            let err = SimError::RankCrashed {
                rank: self.rank,
                at_op: op,
                cause: "injected crash".to_string(),
            };
            self.abort_with(st, err);
        }
        st
    }

    /// End the operation begun by [`Rank::turn_begin`]: the grant policy
    /// decides whether the rank keeps the turn (`SimState::end_op`), and
    /// the wakes that queued are signaled.
    pub(crate) fn turn_end(&self, mut st: MutexGuard<'_, SimState>) {
        st.end_op(self.rank);
        self.drain_wakes(&mut st);
    }

    /// Park this rank with `reason` (caller holds the turn), and return when
    /// some other rank wakes it. The returned guard holds the world lock;
    /// the rank is back in `Computing` and must re-request the turn for its
    /// next operation.
    pub(crate) fn park<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
        reason: crate::sched::BlockReason,
    ) -> MutexGuard<'a, SimState> {
        let me = self.rank as usize;
        let blocked_from_ns = st.clock_ns;
        st.set_status(me, RankStatus::Blocked(reason));
        st.try_dispatch();
        self.drain_wakes(&mut st);
        loop {
            if st.deadlocked {
                let blocked = st.blocked_ranks();
                drop(st);
                std::panic::panic_any(SimAbort(SimError::Deadlock { blocked }));
            }
            if !matches!(st.status[me], RankStatus::Blocked(_)) {
                if let Some(base) = st.trace_pid_base {
                    // A barrier wait ends at the release the rank observed
                    // (the holder may be bursting on by now), a receive
                    // wait at the clock the receiver wakes to.
                    let (name, until) = match reason {
                        crate::sched::BlockReason::Recv => ("blocked:recv", st.clock_ns),
                        crate::sched::BlockReason::Barrier { .. } => {
                            ("blocked:barrier", st.last_t[me])
                        }
                    };
                    // No args: the pid names the rank, and an empty Vec
                    // does not allocate — this is the scheduler's hottest
                    // instrumentation site.
                    let dur = until.saturating_sub(blocked_from_ns);
                    st.buf_span(
                        base + self.rank as u64,
                        name,
                        blocked_from_ns,
                        dur,
                        Vec::new(),
                    );
                }
                return st;
            }
            st = self.await_wake(st);
        }
    }

    /// Execute `f` while holding the turn, after advancing the simulated
    /// clock by the fixed cost of `(class, bytes)`. `f` receives the
    /// operation's start time and runs with exclusive access to all shared
    /// simulation state — this is the hook the file-system layer uses.
    /// Returns `(t_start, t_end, f(t_start))` in true simulated time.
    pub fn timed_op<R>(
        &self,
        class: OpClass,
        bytes: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (u64, u64, R) {
        let mut st = self.turn_begin();
        let (t0, t1) = st.spend(self.rank, cost(class, bytes));
        let r = f(t0);
        self.turn_end(st);
        (t0, t1, r)
    }

    /// Advance the clock by `ns` of pure computation.
    pub fn compute(&self, ns: u64) {
        let (_, _, ()) = self.timed_op(OpClass::Compute, ns, |_| {});
    }

    /// Mark this rank finished. Called automatically by [`World::run`].
    /// A no-op for a crashed rank (the crash is its terminal state).
    pub fn finish(&self) {
        let mut st = self.lock_state();
        if st.status[self.rank as usize] != RankStatus::Crashed {
            st.set_status(self.rank as usize, RankStatus::Finished);
        }
        st.try_dispatch();
        self.drain_wakes(&mut st);
    }
}
