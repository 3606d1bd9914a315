//! Trace statistics: function counters, per-layer record counts, byte
//! totals and I/O-size histograms — the per-run summary data the paper's
//! published artifact ships "including information such as I/O sizes,
//! function counters" (§7).

use std::collections::BTreeMap;

use crate::record::{Func, Layer};
use crate::traceset::TraceSet;

/// Power-of-two I/O size histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    /// `buckets[i]` counts accesses with `2^i <= size < 2^(i+1)`
    /// (bucket 0 also holds zero-byte calls).
    pub buckets: BTreeMap<u32, u64>,
}

impl SizeHistogram {
    pub fn add(&mut self, size: u64) {
        let bucket = if size <= 1 {
            0
        } else {
            63 - size.leading_zeros()
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    pub fn total(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Human-readable bucket label, e.g. `"4KiB-8KiB"`.
    pub fn label(bucket: u32) -> String {
        fn fmt(v: u64) -> String {
            if v >= 1 << 20 {
                format!("{}MiB", v >> 20)
            } else if v >= 1 << 10 {
                format!("{}KiB", v >> 10)
            } else {
                format!("{v}B")
            }
        }
        format!("{}-{}", fmt(1u64 << bucket), fmt(1u64 << (bucket + 1)))
    }

    /// The largest-count bucket, if any.
    pub fn mode(&self) -> Option<u32> {
        self.buckets.iter().max_by_key(|(_, &n)| n).map(|(&b, _)| b)
    }
}

/// Aggregate statistics over one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Records per rank.
    pub records_per_rank: Vec<u64>,
    /// Records per layer.
    pub per_layer: BTreeMap<Layer, u64>,
    /// Calls per function name (Recorder's "function counters").
    pub function_counters: BTreeMap<&'static str, u64>,
    /// Bytes written via POSIX write/pwrite.
    pub bytes_written: u64,
    /// Bytes read via POSIX read/pread/mmap (actual returned bytes).
    pub bytes_read: u64,
    /// Write-size histogram.
    pub write_sizes: SizeHistogram,
    /// Read-size histogram.
    pub read_sizes: SizeHistogram,
    /// Distinct files opened in the trace.
    pub files: u64,
}

impl TraceStats {
    pub fn from_trace(trace: &TraceSet) -> Self {
        let mut s = TraceStats {
            records_per_rank: vec![0; trace.ranks.len()],
            ..Default::default()
        };
        let mut opened: std::collections::BTreeSet<crate::PathId> = Default::default();
        for (rank, records) in trace.ranks.iter().enumerate() {
            s.records_per_rank[rank] = records.len() as u64;
            for rec in records {
                *s.per_layer.entry(rec.layer).or_insert(0) += 1;
                *s.function_counters.entry(rec.func.name()).or_insert(0) += 1;
                if let Func::Open { path, .. } = rec.func {
                    opened.insert(path);
                }
                match rec.func {
                    Func::Write { count, .. } | Func::Pwrite { count, .. } => {
                        s.bytes_written = s.bytes_written.saturating_add(count);
                        s.write_sizes.add(count);
                    }
                    Func::Read { ret, .. } | Func::Pread { ret, .. } => {
                        s.bytes_read = s.bytes_read.saturating_add(ret);
                        s.read_sizes.add(ret);
                    }
                    Func::Mmap { count, .. } => {
                        s.bytes_read = s.bytes_read.saturating_add(count);
                        s.read_sizes.add(count);
                    }
                    _ => {}
                }
            }
        }
        s.files = opened.len() as u64;
        s
    }

    pub fn total_records(&self) -> u64 {
        self.records_per_rank.iter().sum()
    }

    /// Calls of one function.
    pub fn calls(&self, name: &str) -> u64 {
        self.function_counters.get(name).copied().unwrap_or(0)
    }

    /// The "large number of small writes" detector from the Carns-style
    /// characterization studies cited in §2.1: fraction of writes smaller
    /// than `threshold` bytes.
    pub fn small_write_fraction(&self, threshold: u64) -> f64 {
        let total = self.write_sizes.total();
        if total == 0 {
            return 0.0;
        }
        let small: u64 = self
            .write_sizes
            .buckets
            .iter()
            .filter(|(&b, _)| 1u64 << (b + 1) <= threshold.max(2))
            .map(|(_, &n)| n)
            .sum();
        small as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PathId, Record};

    fn rec(rank: u32, func: Func) -> Record {
        Record {
            t_start: 0,
            t_end: 1,
            rank,
            layer: Layer::Posix,
            origin: Layer::App,
            func,
        }
    }

    #[test]
    fn histogram_buckets() {
        let mut h = SizeHistogram::default();
        h.add(0);
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(4096);
        h.add(8191);
        assert_eq!(h.buckets[&0], 2);
        assert_eq!(h.buckets[&1], 2);
        assert_eq!(h.buckets[&12], 2);
        assert_eq!(h.total(), 6);
        assert!(h.mode().is_some());
        assert_eq!(SizeHistogram::label(12), "4KiB-8KiB");
        assert_eq!(SizeHistogram::label(20), "1MiB-2MiB");
    }

    #[test]
    fn stats_count_functions_and_bytes() {
        let trace = TraceSet {
            paths: vec!["/a".into(), "/b".into()],
            ranks: vec![
                vec![
                    rec(
                        0,
                        Func::Open {
                            path: PathId(0),
                            flags: 3,
                            fd: 3,
                        },
                    ),
                    rec(0, Func::Write { fd: 3, count: 4096 }),
                    rec(0, Func::Write { fd: 3, count: 100 }),
                    rec(
                        0,
                        Func::Read {
                            fd: 3,
                            count: 1000,
                            ret: 500,
                        },
                    ),
                    rec(0, Func::Close { fd: 3 }),
                ],
                vec![rec(
                    1,
                    Func::Pwrite {
                        fd: 4,
                        offset: 0,
                        count: 64,
                    },
                )],
            ],
            skews_ns: vec![0, 0],
        };
        let s = TraceStats::from_trace(&trace);
        assert_eq!(s.total_records(), 6);
        assert_eq!(s.records_per_rank, vec![5, 1]);
        assert_eq!(s.calls("write"), 2);
        assert_eq!(s.calls("pwrite"), 1);
        assert_eq!(s.calls("open"), 1);
        assert_eq!(s.bytes_written, 4096 + 100 + 64);
        assert_eq!(s.bytes_read, 500);
        assert_eq!(s.files, 1, "only /a was opened");
        // 2 of 3 writes are < 512 bytes.
        assert!((s.small_write_fraction(512) - 2.0 / 3.0).abs() < 1e-9);
    }
}
