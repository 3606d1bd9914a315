//! The metrics registry: named counters and fixed-bucket histograms,
//! plain `u64`s in two maps behind one `Mutex`.
//!
//! Recorders name a series on every call (`add`, `set_max`, `observe`);
//! the lookup borrows the `&str`, so only a name's first use allocates.
//! The serving path records four series per request, microseconds apart,
//! too seldom for the one lock to contend. Counters are reserved for
//! *deterministic* quantities — simulated ops, messages, bytes, retries,
//! faults — which is what makes the metrics dump comparable across runs
//! and thread counts; wall-time measurements go into histograms, which
//! the determinism tests exclude.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

use crate::json::Escaped;
use crate::lock;

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

/// A counter's value as read by [`Registry::counter`].
#[derive(Debug, Clone, Copy)]
pub struct Counter(u64);

impl Counter {
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A log2 histogram: count, sum and one count per bucket.
struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// `(bucket_floor, count)` for every non-empty bucket, low to high.
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << i }, n)))
            .collect()
    }
}

#[derive(Default)]
struct Series {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
}

/// Apply `f` to the value registered under `name`, inserting a default
/// one on the name's first use: the one allocation a series makes.
fn update<V: Default>(map: &mut HashMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// A registry instance. The process-global one is [`metrics`]; tests may
/// build private instances.
#[derive(Default)]
pub struct Registry {
    series: Mutex<Series>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of the counter registered under `name`, registering it
    /// at zero if it is unseen (so a dump lists it).
    pub fn counter(&self, name: &str) -> Counter {
        let mut value = 0;
        update(&mut lock(&self.series).counters, name, |c| value = *c);
        Counter(value)
    }

    /// Add `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        update(&mut lock(&self.series).counters, name, |c| *c += n);
    }

    /// Raise the counter `name` to `v` if it is lower — a high-water mark
    /// (peak live tasks, peak memory) rather than an accumulator.
    pub fn set_max(&self, name: &str, v: u64) {
        update(&mut lock(&self.series).counters, name, |c| *c = (*c).max(v));
    }

    /// File `v` in the histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        update(&mut lock(&self.series).histograms, name, |h| h.observe(v));
    }

    /// All counters, sorted by name — the deterministic projection.
    pub fn snapshot_counters(&self) -> BTreeMap<String, u64> {
        lock(&self.series)
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// All histograms, sorted by name, as `(count, sum, nonzero buckets)`.
    pub fn snapshot_histograms(&self) -> BTreeMap<String, (u64, u64, Vec<(u64, u64)>)> {
        lock(&self.series)
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), (h.count, h.sum, h.nonzero_buckets())))
            .collect()
    }

    /// Drop every registered counter and histogram; the next use of a
    /// name starts at zero.
    pub fn reset(&self) {
        *lock(&self.series) = Series::default();
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
                    for _ in 0..1000 {
                        reg.add("ops", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("ops").get(), 4000);
        assert_eq!(reg.snapshot_counters()["ops"], 4000);
    }

    #[test]
    fn histograms_accumulate_across_threads() {
        let values = |t: u64| (0..500u64).map(move |i| t * 1_000_003 + i * i);
        let parallel = Registry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = &parallel;
                s.spawn(move || values(t).for_each(|v| reg.observe("lat", v)));
            }
        });
        let serial = Registry::new();
        (0..4)
            .flat_map(values)
            .for_each(|v| serial.observe("lat", v));
        let got = parallel.snapshot_histograms();
        assert_eq!(got, serial.snapshot_histograms());
        let (count, sum, _) = &got["lat"];
        assert_eq!(*count, 2000);
        assert_eq!(*sum, (0..4).flat_map(values).sum::<u64>());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = Registry::new();
        for v in [0, 1, 2, 3, 1024] {
            reg.observe("h", v);
        }
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1 (floor 2).
        assert_eq!(
            reg.snapshot_histograms()["h"],
            (5, 1030, vec![(0, 2), (2, 2), (1024, 1)])
        );
    }

    #[test]
    fn an_unseen_counter_reads_zero_and_is_listed() {
        let reg = Registry::new();
        assert_eq!(reg.counter("fresh").get(), 0);
        assert_eq!(reg.snapshot_counters().get("fresh"), Some(&0));
        reg.add("fresh", 3);
        assert_eq!(reg.counter("fresh").get(), 3);
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
        assert!(reg.snapshot_histograms().is_empty());
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
}
