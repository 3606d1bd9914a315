//! Flight recorder — an always-on, fixed-size, lock-free ring of recent
//! structured events, for crash forensics on the serving path.
//!
//! The Chrome-trace spans in [`mod@crate::span`] answer "where did the time
//! go" for a run the operator *chose* to trace; the flight recorder
//! answers "what just happened" for the request that panicked at 3am
//! with tracing off. It is the serving tier's black box: every request
//! start/end, cache and store verdict, single-flight transition, and
//! store recovery drops a fixed-width record into a ring of the most
//! recent `capacity` events. On a handler panic or a SIGTERM drain the
//! ring is appended to a postmortem file (one JSON document per line, so
//! a panic dump is never clobbered by the drain dump that follows it);
//! `GET /v1/debug/flightrec` serves the same dump on demand.
//!
//! ## Ring mechanics
//!
//! Writers claim a monotonically increasing *ticket* with one
//! `fetch_add` and write into slot `ticket % capacity`. Every slot field
//! is an atomic — there is no `unsafe` and no lock anywhere on the write
//! path. Torn reads are handled seqlock-style: the slot's `seq` word
//! holds `2*ticket + 1` while the write is in flight and `2*ticket + 2`
//! once complete; a reader copies the fields and discards the copy
//! unless `seq` read the same completed value before *and* after. A
//! reader never blocks a writer and a writer never waits for anything,
//! so a record costs a handful of relaxed stores (~tens of ns) — cheap
//! enough to leave on in production, which is the whole point.
//!
//! Strings (request id, detail) are truncated into fixed-width byte
//! fields at write time; the ring never allocates.

use crate::json::Escaped;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Events kept in the global ring. Power of two; at ~136 bytes per slot
/// this is ~136 KiB resident — small enough to never think about.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Fixed width of the stored request id, bytes.
pub const RID_BYTES: usize = 32;
/// Fixed width of the stored detail string, bytes.
pub const DETAIL_BYTES: usize = 64;

const RID_WORDS: usize = RID_BYTES / 8;
const DETAIL_WORDS: usize = DETAIL_BYTES / 8;

/// What happened. The discriminants are part of the dump format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A request entered the router. `detail` = path.
    ReqStart = 1,
    /// A request left the router. `code` = status, `a` = latency ns.
    ReqEnd = 2,
    /// LRU cache hit on an analysis key.
    CacheHit = 3,
    /// LRU cache miss.
    CacheMiss = 4,
    /// Persistent store answered a miss. `detail` = canonical key.
    StoreHit = 5,
    /// A cold result was journaled to the store.
    StorePut = 6,
    /// This request leads a single-flight. `detail` = canonical key.
    SfLead = 7,
    /// This request parked behind a leader. `detail` = leader's rid.
    SfFollow = 8,
    /// A leader unwound without publishing; followers retry.
    SfAbort = 9,
    /// An analysis degraded (422). `detail` = degrading config.
    Degraded = 10,
    /// A handler panicked. `detail` = endpoint path.
    HandlerPanic = 11,
    /// Store recovery at open. `a` = recovered records, `b` =
    /// quarantined bytes.
    StoreRecovery = 12,
    /// SIGTERM drain began.
    Drain = 13,
    /// The accept loop shed load with a 503.
    Overload = 14,
    /// A request for a key another node owns was proxied to it.
    /// `code` = owner node id, `a` = hop count. `detail` = path.
    ClusterForward = 15,
    /// Same routing decision answered with a 307 naming the owner.
    ClusterRedirect = 16,
    /// A peer was marked dead (`code` = peer id, `a` = 0) or alive
    /// again (`a` = 1) — by the prober or by a proxy failure.
    ClusterPeerDown = 17,
    /// A rebalance step: `code` = new epoch, `a` = records moved,
    /// `b` = segment bytes. `detail` = "join"/"decommission"/"commit".
    ClusterRebalance = 18,
}

impl FlightKind {
    /// Stable lowercase name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::ReqStart => "request-start",
            FlightKind::ReqEnd => "request-end",
            FlightKind::CacheHit => "cache-hit",
            FlightKind::CacheMiss => "cache-miss",
            FlightKind::StoreHit => "store-hit",
            FlightKind::StorePut => "store-put",
            FlightKind::SfLead => "singleflight-lead",
            FlightKind::SfFollow => "singleflight-follow",
            FlightKind::SfAbort => "singleflight-abort",
            FlightKind::Degraded => "degraded",
            FlightKind::HandlerPanic => "handler-panic",
            FlightKind::StoreRecovery => "store-recovery",
            FlightKind::Drain => "drain",
            FlightKind::Overload => "overload",
            FlightKind::ClusterForward => "cluster-forward",
            FlightKind::ClusterRedirect => "cluster-redirect",
            FlightKind::ClusterPeerDown => "cluster-peer-down",
            FlightKind::ClusterRebalance => "cluster-rebalance",
        }
    }

    fn from_u8(v: u8) -> Option<FlightKind> {
        Some(match v {
            1 => FlightKind::ReqStart,
            2 => FlightKind::ReqEnd,
            3 => FlightKind::CacheHit,
            4 => FlightKind::CacheMiss,
            5 => FlightKind::StoreHit,
            6 => FlightKind::StorePut,
            7 => FlightKind::SfLead,
            8 => FlightKind::SfFollow,
            9 => FlightKind::SfAbort,
            10 => FlightKind::Degraded,
            11 => FlightKind::HandlerPanic,
            12 => FlightKind::StoreRecovery,
            13 => FlightKind::Drain,
            14 => FlightKind::Overload,
            15 => FlightKind::ClusterForward,
            16 => FlightKind::ClusterRedirect,
            17 => FlightKind::ClusterPeerDown,
            18 => FlightKind::ClusterRebalance,
            _ => return None,
        })
    }
}

/// A decoded ring event, as returned by [`FlightRecorder::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number of the event (0-based, never reused).
    pub ticket: u64,
    /// Nanoseconds since process start ([`crate::wall_ns`]), or whatever
    /// clock the test passed to [`FlightRecorder::record_at`].
    pub ts_ns: u64,
    pub kind: FlightKind,
    /// Kind-specific code (HTTP status for `request-end`).
    pub code: u64,
    /// Kind-specific quantity (latency ns, recovered records, ...).
    pub a: u64,
    /// Second kind-specific quantity.
    pub b: u64,
    /// Request id, truncated to [`RID_BYTES`].
    pub rid: String,
    /// Free-form detail, truncated to [`DETAIL_BYTES`].
    pub detail: String,
}

/// One ring slot: all-atomic fields so concurrent write/read tearing is
/// defined behavior, caught and discarded via `seq`.
struct Slot {
    /// `0` = never written; `2t+1` = ticket `t` being written;
    /// `2t+2` = ticket `t` complete.
    seq: AtomicU64,
    ts: AtomicU64,
    /// Kind in the low byte.
    kind: AtomicU64,
    code: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    rid: [AtomicU64; RID_WORDS],
    detail: [AtomicU64; DETAIL_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            code: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            rid: std::array::from_fn(|_| AtomicU64::new(0)),
            detail: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Truncate `s` to at most `max` bytes on a char boundary and pack the
/// bytes little-endian into `words` (zero-padded).
fn pack_str(s: &str, words: &[AtomicU64], max: usize) {
    let mut n = s.len().min(max);
    while !s.is_char_boundary(n) {
        n -= 1;
    }
    let bytes = &s.as_bytes()[..n];
    for (i, word) in words.iter().enumerate() {
        let mut w = [0u8; 8];
        let lo = i * 8;
        if lo < bytes.len() {
            let hi = (lo + 8).min(bytes.len());
            w[..hi - lo].copy_from_slice(&bytes[lo..hi]);
        }
        word.store(u64::from_le_bytes(w), Ordering::Relaxed);
    }
}

fn unpack_str(words: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    while bytes.last() == Some(&0) {
        bytes.pop();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The fixed-size lock-free event ring. See the module docs for the
/// seqlock protocol.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with `capacity` slots, rounded up to a power of two
    /// (minimum 2).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(2).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (tickets issued).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events currently resident (`min(total, capacity)`).
    pub fn depth(&self) -> u64 {
        self.total().min(self.slots.len() as u64)
    }

    /// Record an event stamped with the process wall clock.
    pub fn record(&self, kind: FlightKind, code: u64, a: u64, b: u64, rid: &str, detail: &str) {
        self.record_at(crate::span::wall_ns(), kind, code, a, b, rid, detail);
    }

    /// Record with an explicit timestamp — the test clock. Lock-free:
    /// one `fetch_add` to claim a ticket, then plain atomic stores.
    #[allow(clippy::too_many_arguments)]
    pub fn record_at(
        &self,
        ts_ns: u64,
        kind: FlightKind,
        code: u64,
        a: u64,
        b: u64,
        rid: &str,
        detail: &str,
    ) {
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t & self.mask) as usize];
        // Odd seq marks the write in flight; readers discard the slot.
        // A release store orders only the writes before it, so the fence
        // after it is what keeps the field stores below from becoming
        // visible ahead of the odd seq (the seqlock writer's half of the
        // reader's acquire fence).
        slot.seq.store(2 * t + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.code.store(code, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        pack_str(rid, &slot.rid, RID_BYTES);
        pack_str(detail, &slot.detail, DETAIL_BYTES);
        fence(Ordering::Release);
        // Even seq encodes the ticket: readers verify they saw one
        // complete, un-overwritten event.
        slot.seq.store(2 * t + 2, Ordering::Release);
    }

    /// Copy out the resident events in ticket order. Slots being
    /// concurrently overwritten are skipped, never misread: the seq word
    /// is checked before and after the field copy.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for t in lo..head {
            let slot = &self.slots[(t & self.mask) as usize];
            let want = 2 * t + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let code = slot.code.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let rid: Vec<u64> = slot.rid.iter().map(|w| w.load(Ordering::Relaxed)).collect();
            let detail: Vec<u64> = slot
                .detail
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect();
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                continue; // overwritten mid-copy
            }
            let Some(kind) = FlightKind::from_u8(kind as u8) else {
                continue;
            };
            out.push(FlightEvent {
                ticket: t,
                ts_ns: ts,
                kind,
                code,
                a,
                b,
                rid: unpack_str(&rid),
                detail: unpack_str(&detail),
            });
        }
        out
    }

    /// Render the ring as one deterministic JSON document (given a quiet
    /// ring): capacity, totals, and the resident events in ticket order.
    pub fn dump_json(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(256 + events.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"capacity\": {},\n", self.capacity()));
        out.push_str(&format!("  \"total\": {},\n", self.total()));
        out.push_str(&format!("  \"depth\": {},\n", events.len()));
        out.push_str("  \"events\": [");
        for (i, ev) in events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"ticket\": {}, \"ts_ns\": {}, \"kind\": \"{}\", \"code\": {}, \
                 \"a\": {}, \"b\": {}, \"rid\": \"{}\", \"detail\": \"{}\"}}",
                ev.ticket,
                ev.ts_ns,
                ev.kind.name(),
                ev.code,
                ev.a,
                ev.b,
                Escaped(&ev.rid),
                Escaped(&ev.detail),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Process-global recorder + postmortem sink
// ---------------------------------------------------------------------

/// The process-global ring ([`DEFAULT_CAPACITY`] slots).
pub fn flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// Record into the global ring.
pub fn record(kind: FlightKind, code: u64, a: u64, b: u64, rid: &str, detail: &str) {
    flight().record(kind, code, a, b, rid, detail);
}

fn postmortem_slot() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Where panic/drain dumps land. `None` disables file dumps (the
/// on-demand endpoint still works).
pub fn set_postmortem_path(path: Option<&Path>) {
    *postmortem_slot().lock().unwrap_or_else(|e| e.into_inner()) = path.map(Path::to_path_buf);
}

/// Append the ring to the postmortem file as one `{"reason", "dump"}`
/// JSON document per line — appending, so a panic dump survives the
/// drain dump that follows it. Returns the path written, if any.
pub fn dump_postmortem(reason: &str) -> Option<PathBuf> {
    let path = postmortem_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()?;
    let doc = format!(
        "{{\"reason\": \"{}\", \"dump\": {}}}\n",
        Escaped(reason),
        flight().dump_json().trim_end().replace('\n', " ")
    );
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(doc.as_bytes());
            let _ = f.flush();
            Some(path)
        }
        Err(e) => {
            crate::warn!("flightrec: postmortem write to {path:?} failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_is_deterministic() {
        let ring = FlightRecorder::new(8);
        for t in 0..20u64 {
            ring.record_at(
                1_000 + t,
                FlightKind::ReqEnd,
                200,
                t,
                0,
                &format!("req-{t:04}"),
                "/healthz",
            );
        }
        assert_eq!(ring.total(), 20);
        assert_eq!(ring.depth(), 8);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8, "exactly one ring of events survives");
        for (i, ev) in events.iter().enumerate() {
            let t = 12 + i as u64; // tickets 12..20 remain after wrap
            assert_eq!(ev.ticket, t);
            assert_eq!(ev.ts_ns, 1_000 + t);
            assert_eq!(ev.kind, FlightKind::ReqEnd);
            assert_eq!(ev.code, 200);
            assert_eq!(ev.a, t);
            assert_eq!(ev.rid, format!("req-{t:04}"));
            assert_eq!(ev.detail, "/healthz");
        }
        // A quiet ring dumps byte-identically every time.
        assert_eq!(ring.dump_json(), ring.dump_json());
    }

    #[test]
    fn strings_truncate_on_char_boundaries() {
        let ring = FlightRecorder::new(2);
        let long_rid = "r".repeat(100);
        let detail = format!("{}é", "d".repeat(DETAIL_BYTES - 1)); // é split across the cap
        ring.record_at(0, FlightKind::ReqStart, 0, 0, 0, &long_rid, &detail);
        let ev = &ring.snapshot()[0];
        assert_eq!(ev.rid.len(), RID_BYTES);
        assert!(ev.rid.chars().all(|c| c == 'r'));
        assert_eq!(ev.detail, "d".repeat(DETAIL_BYTES - 1), "no torn char");
    }

    #[test]
    fn concurrent_writers_never_yield_garbage() {
        let ring = std::sync::Arc::new(FlightRecorder::new(16));
        let mut threads = Vec::new();
        for w in 0..4u64 {
            let ring = std::sync::Arc::clone(&ring);
            threads.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    ring.record_at(
                        i,
                        FlightKind::CacheHit,
                        w,
                        i,
                        0,
                        &format!("req-{w}-{i}"),
                        "detail",
                    );
                }
            }));
        }
        // Reader races the writers; every decoded event must be whole.
        for _ in 0..200 {
            for ev in ring.snapshot() {
                assert_eq!(ev.kind, FlightKind::CacheHit);
                assert!(ev.rid.starts_with("req-"), "torn rid: {:?}", ev.rid);
                assert_eq!(ev.detail, "detail");
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 2000);
        let events = ring.snapshot();
        assert_eq!(events.len(), 16);
        // Tickets are the last ring's worth, in order.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.ticket, 2000 - 16 + i as u64);
        }
    }

    #[test]
    fn postmortem_appends_one_line_per_dump() {
        let _guard = crate::test_lock();
        let dir = std::env::temp_dir().join(format!("obs-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.jsonl");
        let _ = std::fs::remove_file(&path);
        set_postmortem_path(Some(&path));
        record(FlightKind::HandlerPanic, 0, 0, 0, "req-dead", "/v1/boom");
        dump_postmortem("handler-panic");
        dump_postmortem("sigterm-drain");
        set_postmortem_path(None);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"handler-panic\""));
        assert!(lines[0].contains("req-dead"));
        assert!(lines[1].contains("\"sigterm-drain\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
