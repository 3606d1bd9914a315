//! Span and event collection.
//!
//! Two timelines feed one collector:
//!
//! * **Wall-clock spans** ([`span`]) — RAII guards timing analysis-side
//!   work (context builds, conflict sweeps, per-config runs). They run on
//!   a monotonic clock anchored at first use, under [`ANALYSIS_PID`] with
//!   one `tid` per OS thread (assigned in thread-creation order).
//!   Nesting is tracked per thread: every span gets a deterministic
//!   `(thread, seq)` id and records its parent's seq, so the hierarchy
//!   survives export even for tools that ignore Chrome's implicit
//!   ts-containment nesting.
//! * **Sim-clock events** — the mpisim scheduler builds [`TraceEvent`]s
//!   with *simulated* timestamps under one pseudo-pid per simulated rank
//!   ([`alloc_sim_pids`]), buffers them in its world state under the world
//!   lock, and flushes them once per run with [`push_bulk`], so a Perfetto
//!   timeline shows per-rank run/blocked tracks in simulated time next to
//!   the analysis threads in wall time.
//!
//! The collector is one `Mutex<Vec<TraceEvent>>`: an emission is one
//! locked push, and the hot emitters (the mpisim scheduler) batch theirs
//! into one [`push_bulk`] per run. When tracing is disabled every entry
//! point returns after a single relaxed atomic load.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::lock;

/// The pseudo-pid of the analysis/report process in exported traces.
/// Simulated ranks get pids from [`alloc_sim_pids`], starting above it.
pub const ANALYSIS_PID: u64 = 1;

/// Event argument value.
#[derive(Debug, Clone)]
pub enum Arg {
    U(u64),
    I(i64),
    F(f64),
    S(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Arg {
        Arg::U(v)
    }
}

impl From<u32> for Arg {
    fn from(v: u32) -> Arg {
        Arg::U(v as u64)
    }
}

impl From<usize> for Arg {
    fn from(v: usize) -> Arg {
        Arg::U(v as u64)
    }
}

impl From<i64> for Arg {
    fn from(v: i64) -> Arg {
        Arg::I(v)
    }
}

impl From<f64> for Arg {
    fn from(v: f64) -> Arg {
        Arg::F(v)
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Arg {
        Arg::S(v)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Arg {
        Arg::S(v.to_string())
    }
}

/// Chrome trace-event phase of a collected event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `"X"` — a complete span with `ts` and `dur`.
    Complete,
    /// `"i"` — an instant event.
    Instant,
    /// `"M"` — metadata (process/thread naming).
    Metadata,
}

/// One collected event, timestamps in nanoseconds (wall or simulated —
/// the pid decides which timeline the event belongs to).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: Cow<'static, str>,
    pub cat: &'static str,
    pub ph: Phase,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub pid: u64,
    pub tid: u64,
    pub args: Vec<(&'static str, Arg)>,
}

/// Every collected event, in push order until [`drain`] sorts them.
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// The monotonic anchor all wall timestamps are relative to.
fn anchor() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace anchor.
pub fn wall_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// Translate an already-taken [`Instant`] to anchor-relative
/// nanoseconds. Pure subtraction — no clock read — so a hot path that
/// has an `Instant` in hand stamps events for free.
pub fn wall_ns_at(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SIM_PID: AtomicU64 = AtomicU64::new(ANALYSIS_PID + 1);

thread_local! {
    /// This thread's trace tid (creation order) — 0 until first use.
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Per-thread span sequence — the deterministic half of a span id.
    static SPAN_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Seq of the innermost open span on this thread (0 = root).
    static OPEN_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// This thread's tid in exported traces, assigned on first use.
pub fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Reserve `n` consecutive pseudo-pids for the ranks of one simulated
/// world; returns the pid of rank 0. Each world gets a fresh block so
/// configs running concurrently never share a track.
pub fn alloc_sim_pids(n: u32) -> u64 {
    NEXT_SIM_PID.fetch_add(n as u64, Ordering::Relaxed)
}

fn push(ev: TraceEvent) {
    lock(&EVENTS).push(ev);
}

/// Append a batch of pre-built events under one lock acquisition.
/// Emitters on hot paths (the mpisim scheduler) buffer events locally and
/// flush once per run through this, so the per-event cost inside their
/// critical sections is a plain `Vec` push.
pub fn push_bulk(events: &mut Vec<TraceEvent>) {
    if events.is_empty() {
        return;
    }
    lock(&EVENTS).append(events);
}

/// Name a pseudo-pid in the exported trace (Perfetto's process label).
pub fn process_name(pid: u64, name: String) {
    if !crate::tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: Cow::Borrowed("process_name"),
        cat: "__metadata",
        ph: Phase::Metadata,
        ts_ns: 0,
        dur_ns: 0,
        pid,
        tid: 0,
        args: vec![("name", Arg::S(name))],
    });
}

/// An instant event on the calling thread's wall-clock timeline.
pub fn instant(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, Arg)>,
) {
    if !crate::tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.into(),
        cat,
        ph: Phase::Instant,
        ts_ns: wall_ns(),
        dur_ns: 0,
        pid: ANALYSIS_PID,
        tid: thread_tid(),
        args,
    });
}

/// RAII wall-clock span. Obtain with [`span`]; the event is pushed on
/// drop. Inert (a no-op shell) when tracing is disabled.
pub struct SpanGuard {
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    /// Deterministic per-thread sequence number; 0 marks an inert guard.
    id: u64,
    parent: u64,
    args: Vec<(&'static str, Arg)>,
}

impl SpanGuard {
    /// Attach an argument (builder style).
    pub fn with_arg(mut self, key: &'static str, value: impl Into<Arg>) -> Self {
        self.set_arg(key, value);
        self
    }

    /// Attach or overwrite an argument after creation — e.g. an outcome
    /// tag decided at the end of the spanned region.
    pub fn set_arg(&mut self, key: &'static str, value: impl Into<Arg>) {
        if self.id == 0 {
            return;
        }
        if let Some(slot) = self.args.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value.into();
        } else {
            self.args.push((key, value.into()));
        }
    }

    /// This span's deterministic `(thread, seq)` id; `(0, 0)` when inert.
    pub fn id(&self) -> (u64, u64) {
        if self.id == 0 {
            (0, 0)
        } else {
            (thread_tid(), self.id)
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        OPEN_SPAN.with(|open| open.set(self.parent));
        let mut args = std::mem::take(&mut self.args);
        args.push(("span", Arg::U(self.id)));
        if self.parent != 0 {
            args.push(("parent", Arg::U(self.parent)));
        }
        push(TraceEvent {
            name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
            cat: self.cat,
            ph: Phase::Complete,
            ts_ns: self.start_ns,
            dur_ns: wall_ns().saturating_sub(self.start_ns),
            pid: ANALYSIS_PID,
            tid: thread_tid(),
            args,
        });
    }
}

/// Open a wall-clock span on the calling thread. Returns an inert guard
/// (one relaxed load, no allocation) when tracing is disabled.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !crate::tracing_enabled() {
        return SpanGuard {
            name: Cow::Borrowed(""),
            cat,
            start_ns: 0,
            id: 0,
            parent: 0,
            args: Vec::new(),
        };
    }
    let id = SPAN_SEQ.with(|s| {
        let next = s.get() + 1;
        s.set(next);
        next
    });
    let parent = OPEN_SPAN.with(|open| {
        let p = open.get();
        open.set(id);
        p
    });
    SpanGuard {
        name: name.into(),
        cat,
        start_ns: wall_ns(),
        id,
        parent,
        args: Vec::new(),
    }
}

/// Drain every collected event, sorted by `(pid, tid, ts, dur desc)` so
/// the export is stable and outer spans precede inner ones.
pub fn drain() -> Vec<TraceEvent> {
    let mut out = std::mem::take(&mut *lock(&EVENTS));
    out.sort_by(|a, b| {
        (a.pid, a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
            b.pid,
            b.tid,
            b.ts_ns,
            std::cmp::Reverse(b.dur_ns),
        ))
    });
    out
}

/// Discard every collected event (between benchmark repetitions).
pub fn clear() {
    lock(&EVENTS).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_lock();
        crate::set_tracing(false);
        let g = span("test", "noop");
        assert_eq!(g.id(), (0, 0));
        drop(g);
        assert!(drain().iter().all(|e| e.name != "noop"));
    }

    #[test]
    fn spans_nest_and_carry_parent_ids() {
        let _guard = crate::test_lock();
        crate::set_tracing(true);
        {
            let _outer = span("test", "outer-nesting");
            let _inner = span("test", "inner-nesting").with_arg("k", 7u64);
        }
        crate::set_tracing(false);
        let events = drain();
        let outer = events.iter().find(|e| e.name == "outer-nesting").unwrap();
        let inner = events.iter().find(|e| e.name == "inner-nesting").unwrap();
        let get = |ev: &TraceEvent, key: &str| {
            ev.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    Arg::U(u) => *u,
                    _ => panic!("expected numeric arg"),
                })
        };
        let outer_id = get(outer, "span").unwrap();
        assert_eq!(get(inner, "parent"), Some(outer_id));
        assert_eq!(get(inner, "k"), Some(7));
        assert!(inner.ts_ns >= outer.ts_ns);
    }
}
