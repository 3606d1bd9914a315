//! The lock-sharded metrics registry: named counters and fixed-bucket
//! histograms.
//!
//! Names hash to one of 16 (`SHARDS`) independently-locked maps, so
//! concurrent recorders (per-config worker threads, rank threads) rarely
//! contend; the cell behind a name is an `Arc<AtomicU64>` (or an atomic
//! bucket array), so a handle obtained once increments lock-free
//! thereafter. Counters are reserved for *deterministic* quantities —
//! simulated ops, messages, bytes, retries, faults — which is what makes
//! the metrics dump comparable across runs and thread counts; wall-time
//! measurements go into histograms, which the determinism tests exclude.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fnv::{fnv1a64, FNV_OFFSET};
use crate::json::Escaped;

/// Number of independently-locked name maps.
const SHARDS: usize = 16;

/// Number of log2 histogram buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))` (bucket 0 also holds 0), so 64 cover every `u64`.
pub(crate) const BUCKETS: usize = 64;

/// Index of the bucket holding `v`: `floor(log2(v))`, 0 for 0. The one
/// bucket rule of every obs histogram (the SLO window's too).
pub(crate) fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: `2^(i+1) - 1` (`u64::MAX` for the
/// last bucket).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    u64::MAX >> (63 - i)
}

/// A lock-free counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is currently lower — a high-water
    /// mark (peak live tasks, peak memory) rather than an accumulator.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram. All mutation is relaxed-atomic; the
/// snapshot is a consistent-enough view for reporting (the registry is
/// quiesced before dumps).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(bucket_floor, count)` for every non-empty bucket, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << i }, n))
            })
            .collect()
    }
}

struct Shard {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
        }
    }
}

/// A sharded registry instance. The process-global one is [`metrics`];
/// tests may build private instances.
pub struct Registry {
    shards: Vec<Shard>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Shard {
        // FNV-1a rather than `RandomState`: shard assignment is stable
        // across runs, like everything else here.
        &self.shards[(fnv1a64(FNV_OFFSET, name.as_bytes()) as usize) % SHARDS]
    }

    /// The counter registered under `name`, creating it at zero. The
    /// returned handle increments lock-free; hold it across a hot loop
    /// instead of re-resolving the name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.shard(name).counters.lock().unwrap();
        Counter(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// One-shot `counter(name).add(n)`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// One-shot `counter(name).set_max(v)` — record a high-water mark.
    pub fn set_max(&self, name: &str, v: u64) {
        self.counter(name).set_max(v);
    }

    /// The histogram registered under `name`, creating it empty.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.shard(name).histograms.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// One-shot `histogram(name).observe(v)`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// All counters, sorted by name — the deterministic projection.
    pub fn snapshot_counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, v) in shard.counters.lock().unwrap().iter() {
                out.insert(k.clone(), v.load(Ordering::Relaxed));
            }
        }
        out
    }

    /// All histograms, sorted by name, as `(count, sum, nonzero buckets)`.
    pub fn snapshot_histograms(&self) -> BTreeMap<String, (u64, u64, Vec<(u64, u64)>)> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, h) in shard.histograms.lock().unwrap().iter() {
                out.insert(k.clone(), (h.count(), h.sum(), h.nonzero_buckets()));
            }
        }
        out
    }

    /// Drop every registered counter and histogram. Outstanding handles
    /// keep their (now-orphaned) cells; fresh lookups start at zero.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.counters.lock().unwrap().clear();
            shard.histograms.lock().unwrap().clear();
        }
    }

    /// Deterministic flat JSON dump: `{"counters": {...sorted...},
    /// "histograms": {...sorted...}}`. Counters are run-deterministic;
    /// histograms carry wall-time data and are excluded from
    /// byte-comparison tests.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.snapshot_counters();
        let mut first = true;
        for (k, v) in &counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", Escaped(k)));
        }
        out.push_str(if counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        let hists = self.snapshot_histograms();
        let mut first = true;
        for (k, (count, sum, buckets)) in &hists {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {count}, \"sum\": {sum}, \"buckets\": [",
                Escaped(k)
            ));
            for (i, (floor, n)) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{floor}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str(if hists.is_empty() {
            "}\n}\n"
        } else {
            "\n  }\n}\n"
        });
        out
    }
}

/// The process-global registry every instrumented layer records into.
pub fn metrics() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = reg.counter("ops");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("ops").get(), 4000);
        assert_eq!(reg.snapshot_counters()["ops"], 4000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1 (floor 2).
        assert_eq!(h.nonzero_buckets(), vec![(0, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn dump_is_sorted_and_reset_clears() {
        let reg = Registry::new();
        reg.add("zeta", 1);
        reg.add("alpha", 2);
        reg.observe("lat", 100);
        let dump = reg.dump_json();
        let a = dump.find("\"alpha\"").unwrap();
        let z = dump.find("\"zeta\"").unwrap();
        assert!(a < z, "counters must render in name order");
        assert!(dump.contains("\"lat\""));
        reg.reset();
        assert!(reg.snapshot_counters().is_empty());
        assert_eq!(reg.counter("alpha").get(), 0);
    }

    #[test]
    fn set_max_is_a_high_water_mark() {
        let reg = Registry::new();
        reg.set_max("peak", 10);
        reg.set_max("peak", 3);
        assert_eq!(reg.counter("peak").get(), 10);
        reg.set_max("peak", 12);
        assert_eq!(reg.counter("peak").get(), 12);
    }

    #[test]
    fn shard_assignment_is_stable() {
        // Same name, same registry, same cell — across lookups.
        let reg = Registry::new();
        reg.counter("x").add(7);
        assert_eq!(reg.counter("x").get(), 7);
    }
}
