//! Flight recorder — an always-on, fixed-size ring of recent structured
//! events, for crash forensics on the serving path.
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
//! The ring is one `Mutex` around plain fixed-width slots and the next
//! ticket. A record builds its slot first, then under the lock writes it
//! to slot `ticket % capacity` and bumps the ticket: the critical section
//! is one slot copy, so a record costs tens of ns — cheap enough to leave
//! on in production, which is the whole point. The serving path records
//! two events per request, far apart enough that the lock is rarely
//! contended. A snapshot copies the slots under the lock and decodes them
//! after releasing it; its readers (the debug endpoint, the panic and
//! drain dumps) are rare.
//!
//! Strings (request id, detail) are truncated on a char boundary into
//! fixed-width byte fields at write time; the ring never allocates.

use crate::json::Escaped;
use crate::lock;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Events kept in the global ring. Power of two; at ~136 bytes per slot
/// this is ~136 KiB resident — small enough to never think about.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Fixed width of the stored request id, bytes.
pub const RID_BYTES: usize = 32;
/// Fixed width of the stored detail string, bytes.
pub const DETAIL_BYTES: usize = 64;

/// What happened; dumps spell it with [`FlightKind::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A request entered the router. `detail` = path.
    ReqStart,
    /// A request left the router. `code` = status, `a` = latency ns.
    ReqEnd,
    /// LRU cache hit on an analysis key.
    CacheHit,
    /// LRU cache miss.
    CacheMiss,
    /// Persistent store answered a miss. `detail` = canonical key.
    StoreHit,
    /// A cold result was journaled to the store.
    StorePut,
    /// This request leads a single-flight. `detail` = canonical key.
    SfLead,
    /// This request parked behind a leader. `detail` = leader's rid.
    SfFollow,
    /// A leader unwound without publishing; followers retry.
    SfAbort,
    /// An analysis degraded (422). `detail` = degrading config.
    Degraded,
    /// A handler panicked. `detail` = endpoint path.
    HandlerPanic,
    /// Store recovery at open. `a` = recovered records, `b` =
    /// quarantined bytes.
    StoreRecovery,
    /// SIGTERM drain began.
    Drain,
    /// The accept loop shed load with a 503.
    Overload,
    /// A request for a key another node owns was proxied to it.
    /// `code` = owner node id, `a` = hop count. `detail` = path.
    ClusterForward,
    /// Same routing decision answered with a 307 naming the owner.
    ClusterRedirect,
    /// A peer was marked dead (`code` = peer id, `a` = 0) or alive
    /// again (`a` = 1) — by the prober or by a proxy failure.
    ClusterPeerDown,
    /// A rebalance step: `code` = new epoch, `a` = records moved,
    /// `b` = segment bytes. `detail` = "join"/"decommission"/"commit".
    ClusterRebalance,
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

/// One ring slot: the event's fields, strings as zero-padded bytes.
#[derive(Clone, Copy)]
struct Slot {
    ts: u64,
    kind: FlightKind,
    code: u64,
    a: u64,
    b: u64,
    rid: [u8; RID_BYTES],
    detail: [u8; DETAIL_BYTES],
}

/// `s` truncated to at most `N` bytes on a char boundary, zero-padded.
fn fixed<const N: usize>(s: &str) -> [u8; N] {
    let n = s.floor_char_boundary(N);
    let mut out = [0; N];
    out[..n].copy_from_slice(&s.as_bytes()[..n]);
    out
}

/// A fixed-width field's bytes up to its zero padding.
fn unfixed(bytes: &[u8]) -> String {
    let len = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    String::from_utf8_lossy(&bytes[..len]).into_owned()
}

/// What the lock guards: ticket `t` lives in `slots[t % slots.len()]`,
/// and `head` is the next ticket.
struct Ring {
    slots: Box<[Slot]>,
    head: u64,
}

/// The fixed-size event ring, behind one lock. See the module docs.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder with `capacity` slots, rounded up to a power of two
    /// (minimum 2).
    pub fn new(capacity: usize) -> FlightRecorder {
        // Never read: a snapshot decodes only written tickets.
        let unwritten = Slot {
            ts: 0,
            kind: FlightKind::ReqStart,
            code: 0,
            a: 0,
            b: 0,
            rid: [0; RID_BYTES],
            detail: [0; DETAIL_BYTES],
        };
        let cap = capacity.max(2).next_power_of_two();
        FlightRecorder {
            ring: Mutex::new(Ring {
                slots: vec![unwritten; cap].into_boxed_slice(),
                head: 0,
            }),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        lock(&self.ring).slots.len()
    }

    /// Total events ever recorded (tickets issued).
    pub fn total(&self) -> u64 {
        lock(&self.ring).head
    }

    /// Events currently resident (`min(total, capacity)`).
    pub fn depth(&self) -> u64 {
        let ring = lock(&self.ring);
        ring.head.min(ring.slots.len() as u64)
    }

    /// Record an event stamped with the process wall clock.
    pub fn record(&self, kind: FlightKind, code: u64, a: u64, b: u64, rid: &str, detail: &str) {
        self.record_at(crate::span::wall_ns(), kind, code, a, b, rid, detail);
    }

    /// Record with an explicit timestamp — the test clock.
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
        let slot = Slot {
            ts: ts_ns,
            kind,
            code,
            a,
            b,
            rid: fixed(rid),
            detail: fixed(detail),
        };
        let mut ring = lock(&self.ring);
        let i = (ring.head % ring.slots.len() as u64) as usize;
        ring.slots[i] = slot;
        ring.head += 1;
    }

    /// Copy out the resident events in ticket order.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let (head, slots) = {
            let ring = lock(&self.ring);
            (ring.head, ring.slots.clone())
        };
        let cap = slots.len() as u64;
        (head.saturating_sub(cap)..head)
            .map(|t| {
                let s = &slots[(t % cap) as usize];
                FlightEvent {
                    ticket: t,
                    ts_ns: s.ts,
                    kind: s.kind,
                    code: s.code,
                    a: s.a,
                    b: s.b,
                    rid: unfixed(&s.rid),
                    detail: unfixed(&s.detail),
                }
            })
            .collect()
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
    *lock(postmortem_slot()) = path.map(Path::to_path_buf);
}

/// Append the ring to the postmortem file as one `{"reason", "dump"}`
/// JSON document per line — appending, so a panic dump survives the
/// drain dump that follows it. Returns the path written, if any.
pub fn dump_postmortem(reason: &str) -> Option<PathBuf> {
    let path = lock(postmortem_slot()).clone()?;
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
