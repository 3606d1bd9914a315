//! The miss path: everything between an LRU miss and a publishable
//! result.
//!
//! Two tiers sit under the LRU:
//!
//! * **Single-flight coalescing** — N concurrent misses on one canonical
//!   key run *one* backend analysis; followers park on the leader's
//!   flight and reuse its bytes. A leader that panics publishes an abort
//!   (via a drop guard, so unwinding cannot leave followers parked
//!   forever) and every follower retries with its own attempt.
//! * **The persistent [`store::Store`]** (optional) — healthy views are
//!   encoded and journaled on the cold path, and a miss consults the
//!   store before the backend, so a restarted process answers warm with
//!   bytes identical to what the dead process served. Stored bytes are
//!   keyed by the full canonical string and re-verified structurally on
//!   decode; anything unreadable is treated as a miss and recomputed,
//!   never served.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use obs::FlightKind;
use semantics_core::CacheKey;

use crate::router::{AnalysisQuery, AnalysisViews, CachedResult, Router};

/// Magic prefix of an encoded [`AnalysisViews`] bundle in the store.
const VIEWS_MAGIC: &[u8; 4] = b"AVW1";

/// Encode the three rendered views as one store value: magic, then each
/// view as `u32` LE length + bytes. Only healthy results are persisted.
pub fn encode_views(views: &AnalysisViews) -> Vec<u8> {
    let parts = [&views.verdict, &views.conflicts, &views.patterns];
    let total = 4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(VIEWS_MAGIC);
    for part in parts {
        buf.extend_from_slice(&(part.len() as u32).to_le_bytes());
        buf.extend_from_slice(part.as_bytes());
    }
    buf
}

/// Decode a stored bundle. `None` means the bytes are not a valid bundle
/// (version skew or corruption the store's checksums cannot see into) —
/// the caller treats that as a miss and recomputes; it never improvises.
pub fn decode_views(bytes: &[u8]) -> Option<AnalysisViews> {
    let rest = bytes.strip_prefix(VIEWS_MAGIC)?;
    let mut offset = 0usize;
    let mut parts = Vec::with_capacity(3);
    for _ in 0..3 {
        let len = u32::from_le_bytes(rest.get(offset..offset + 4)?.try_into().ok()?) as usize;
        offset += 4;
        let body = rest.get(offset..offset + len)?;
        offset += len;
        parts.push(std::str::from_utf8(body).ok()?.to_string());
    }
    if offset != rest.len() {
        return None;
    }
    let mut parts = parts.into_iter();
    Some(AnalysisViews {
        verdict: parts.next().unwrap(),
        conflicts: parts.next().unwrap(),
        patterns: parts.next().unwrap(),
    })
}

/// A cold run in progress: followers park on `done` until the leader
/// publishes an outcome.
enum FlightOutcome {
    Running,
    Done(CachedResult),
    /// The leader unwound without publishing; followers retry themselves.
    Aborted,
}

pub(crate) struct Flight {
    state: Mutex<FlightOutcome>,
    done: Condvar,
    /// The leading request's id — how a coalesced follower names its
    /// leader (in its `X-Coalesced-Leader` response header and its
    /// flight-recorder event).
    leader_rid: String,
}

/// Where a resolved analysis result came from — drives the follower's
/// leader-attribution header.
pub(crate) enum LoadOrigin {
    Cache,
    Store,
    Computed,
    Coalesced { leader: String },
}

/// Unwind-safety for the single-flight protocol: if the leader's
/// `analyze` panics, this guard publishes `Aborted` and unlinks the
/// flight, so followers wake into their own attempts instead of parking
/// forever on a flight nobody owns.
struct FlightGuard<'a> {
    flights: &'a Mutex<HashMap<String, Arc<Flight>>>,
    key: &'a str,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if obs::metrics_enabled() {
            obs::metrics().add("serve.singleflight_aborts", 1);
        }
        obs::flight::record(
            FlightKind::SfAbort,
            0,
            0,
            0,
            &self.flight.leader_rid,
            self.key,
        );
        *self.flight.state.lock().unwrap() = FlightOutcome::Aborted;
        self.flight.done.notify_all();
        self.flights.lock().unwrap().remove(self.key);
    }
}

impl Router {
    /// Resolve a cache miss: persistent store, then single-flight
    /// coalesced backend analysis. `persist` gates journaling the result
    /// (false for cluster-foreign keys computed here as a degradation —
    /// they belong in the owner's store slice, not ours).
    pub(crate) fn load_or_compute(
        &self,
        key: &CacheKey,
        query: &AnalysisQuery,
        rid: &str,
        persist: bool,
    ) -> (CachedResult, LoadOrigin) {
        let canonical = key.canonical();
        loop {
            // Store tier first — a restarted process answers from disk.
            if let Some(store) = &self.store {
                if let Some(bytes) = store.get(canonical) {
                    if let Some(views) = decode_views(&bytes) {
                        let result: CachedResult = Arc::new(Ok(views));
                        self.cache.insert(key, Arc::clone(&result));
                        if obs::metrics_enabled() {
                            obs::metrics().add("store.hits", 1);
                        }
                        obs::flight::record(
                            FlightKind::StoreHit,
                            0,
                            bytes.len() as u64,
                            0,
                            rid,
                            canonical,
                        );
                        return (result, LoadOrigin::Store);
                    }
                    // Undecodable bundle (version skew): recompute below.
                    obs::warn!(
                        "store: undecodable bundle for {canonical:?} (rid {rid}); recomputing"
                    );
                }
            }

            // Single-flight: first miss leads, the rest park.
            let (flight, leader) = {
                let mut flights = self.flights.lock().unwrap();
                match flights.get(canonical) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight {
                            state: Mutex::new(FlightOutcome::Running),
                            done: Condvar::new(),
                            leader_rid: rid.to_string(),
                        });
                        flights.insert(canonical.to_string(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };

            if !leader {
                if obs::metrics_enabled() {
                    obs::metrics().add("serve.coalesced_waiters", 1);
                }
                obs::flight::record(FlightKind::SfFollow, 0, 0, 0, rid, &flight.leader_rid);
                let mut state = flight.state.lock().unwrap();
                loop {
                    match &*state {
                        FlightOutcome::Running => state = flight.done.wait(state).unwrap(),
                        FlightOutcome::Done(result) => {
                            return (
                                Arc::clone(result),
                                LoadOrigin::Coalesced {
                                    leader: flight.leader_rid.clone(),
                                },
                            )
                        }
                        // Leader died: take another lap — maybe lead.
                        FlightOutcome::Aborted => break,
                    }
                }
                continue;
            }

            obs::flight::record(FlightKind::SfLead, 0, 0, 0, rid, canonical);
            let mut guard = FlightGuard {
                flights: &self.flights,
                key: canonical,
                flight: &flight,
                armed: true,
            };
            let mut span = obs::span("serve", "analyze-cold")
                .with_arg("app", query.app.clone())
                .with_arg("cfg", query.config.clone());
            let computed: CachedResult = Arc::new(self.backend.analyze(query));
            span.set_arg("ok", u64::from(computed.is_ok()));
            // Degraded outcomes are admitted under the cache's smaller
            // degraded quota so a burst of failing queries cannot evict
            // healthy verdicts — and they are *not* persisted: a restart
            // deserves a fresh attempt.
            match computed.as_ref() {
                Ok(views) => {
                    self.cache.insert(key, Arc::clone(&computed));
                    if let (Some(store), true) = (&self.store, persist) {
                        let encoded = encode_views(views);
                        match store.put(canonical, &encoded) {
                            Ok(()) => obs::flight::record(
                                FlightKind::StorePut,
                                0,
                                encoded.len() as u64,
                                0,
                                rid,
                                canonical,
                            ),
                            Err(e) => {
                                // Durability degraded, service alive: the
                                // bytes still come from memory.
                                obs::warn!(
                                    "store: persist failed for {canonical:?} (rid {rid}): {e}"
                                );
                            }
                        }
                    }
                }
                Err(_) => self.cache.insert_degraded(key, Arc::clone(&computed)),
            }
            // Publish before unlinking so late arrivals either find the
            // flight Done or miss it entirely and hit the cache.
            *flight.state.lock().unwrap() = FlightOutcome::Done(Arc::clone(&computed));
            flight.done.notify_all();
            self.flights.lock().unwrap().remove(canonical);
            guard.armed = false;
            return (computed, LoadOrigin::Computed);
        }
    }
}
