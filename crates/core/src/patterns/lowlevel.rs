//! Low-level access classification (Figure 1).
//!
//! With `oᵢ`/`nᵢ` the offset and byte count of the *i*-th access of a
//! stream (§6.2): an access is **consecutive** if `oᵢ₊₁ = oᵢ + nᵢ`,
//! **monotonic** if `oᵢ₊₁ > oᵢ + nᵢ`, and **random** otherwise. The first
//! access of each stream has no predecessor and is not classified. The
//! *local* view streams accesses per `(rank, file)`; the *global* view
//! streams them per file in global (adjusted) time order — "the global
//! pattern is likely to appear more random than the local pattern since
//! the I/O requests from concurrent processes are interleaved in time".

use recorder::{DataAccess, ResolvedTrace};

/// Classification of one access relative to its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    Consecutive,
    Monotonic,
    Random,
}

/// Counts of classified accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternStats {
    pub consecutive: u64,
    pub monotonic: u64,
    pub random: u64,
}

impl PatternStats {
    pub fn total(&self) -> u64 {
        self.consecutive + self.monotonic + self.random
    }

    pub fn pct(&self, class: AccessClass) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match class {
            AccessClass::Consecutive => self.consecutive,
            AccessClass::Monotonic => self.monotonic,
            AccessClass::Random => self.random,
        };
        100.0 * n as f64 / t as f64
    }

    pub fn add(&mut self, class: AccessClass) {
        match class {
            AccessClass::Consecutive => self.consecutive += 1,
            AccessClass::Monotonic => self.monotonic += 1,
            AccessClass::Random => self.random += 1,
        }
    }

    pub fn merge(&mut self, other: &PatternStats) {
        self.consecutive += other.consecutive;
        self.monotonic += other.monotonic;
        self.random += other.random;
    }
}

/// Classify one access against its stream predecessor's end offset —
/// the single step both engines (at rest, streaming) fold over.
#[inline]
pub fn classify_step(prev_end: u64, offset: u64) -> AccessClass {
    if offset == prev_end {
        AccessClass::Consecutive
    } else if offset > prev_end {
        AccessClass::Monotonic
    } else {
        AccessClass::Random
    }
}

/// Classify one ordered stream of `(offset, len)` accesses.
pub fn classify_stream(stream: impl IntoIterator<Item = (u64, u64)>) -> PatternStats {
    let mut stats = PatternStats::default();
    let mut prev_end: Option<u64> = None;
    for (offset, len) in stream {
        if let Some(pe) = prev_end {
            stats.add(classify_step(pe, offset));
        }
        prev_end = Some(offset + len);
    }
    stats
}

/// Classify all streams of one sorted index order in a single pass: a
/// stream boundary is wherever `stream_key` changes. Zero-copy — one index
/// sort over the original access slice instead of one `Vec` per stream.
fn classify_sorted<K: PartialEq>(
    accesses: &[DataAccess],
    order: &[u32],
    stream_key: impl Fn(&DataAccess) -> K,
) -> PatternStats {
    let mut stats = PatternStats::default();
    let mut prev: Option<(K, u64)> = None; // (stream key, prev end offset)
    for &i in order {
        let a = &accesses[i as usize];
        let key = stream_key(a);
        if let Some((pk, pe)) = &prev {
            if *pk == key {
                stats.add(classify_step(*pe, a.offset));
            }
        }
        prev = Some((key, a.offset + a.len));
    }
    stats
}

/// Figure 1(b): the local pattern, streaming accesses per `(rank, file)`.
pub fn local_pattern(resolved: &ResolvedTrace) -> PatternStats {
    let accs = &resolved.accesses;
    let mut order: Vec<u32> = (0..accs.len() as u32).collect();
    // Stable: within a (rank, file) stream the input (time) order holds.
    order.sort_by_key(|&i| (accs[i as usize].rank, accs[i as usize].file));
    classify_sorted(accs, &order, |a| (a.rank, a.file))
}

/// Figure 1(a): the global pattern, streaming accesses per file in global
/// (adjusted) time order.
pub fn global_pattern(resolved: &ResolvedTrace) -> PatternStats {
    let accs = &resolved.accesses;
    let mut order: Vec<u32> = (0..accs.len() as u32).collect();
    order.sort_by_key(|&i| {
        let a = &accs[i as usize];
        (a.file, a.t_start, a.rank)
    });
    classify_sorted(accs, &order, |a| a.file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{AccessKind, Layer, PathId};

    #[test]
    fn stream_classification() {
        // 0..10, 10..20 (consecutive), 30..40 (monotonic), 5..15 (random).
        let s = classify_stream(vec![(0, 10), (10, 10), (30, 10), (5, 10)]);
        assert_eq!(
            s,
            PatternStats {
                consecutive: 1,
                monotonic: 1,
                random: 1
            }
        );
        assert!((s.pct(AccessClass::Random) - 33.333).abs() < 0.01);
    }

    #[test]
    fn single_access_stream_has_no_classification() {
        assert_eq!(classify_stream(vec![(5, 10)]).total(), 0);
        assert_eq!(classify_stream(Vec::new()).total(), 0);
    }

    fn acc(rank: u32, t: u64, file: u32, offset: u64, len: u64) -> DataAccess {
        DataAccess {
            rank,
            t_start: t,
            t_end: t + 1,
            file: PathId(file),
            offset,
            len,
            kind: AccessKind::Write,
            origin: Layer::App,
            fd: 3,
        }
    }

    #[test]
    fn local_consecutive_can_be_globally_random() {
        // Two ranks each write consecutively to a shared file, interleaved
        // in time — the LBANN/FLASH-nofbs effect.
        let resolved = ResolvedTrace {
            accesses: vec![
                acc(0, 1, 0, 0, 10),
                acc(1, 2, 0, 100, 10),
                acc(0, 3, 0, 10, 10),
                acc(1, 4, 0, 110, 10),
            ],
            syncs: vec![],
            seek_mismatches: 0,
            short_reads: 0,
        };
        let local = local_pattern(&resolved);
        assert_eq!(
            local,
            PatternStats {
                consecutive: 2,
                monotonic: 0,
                random: 0
            }
        );
        let global = global_pattern(&resolved);
        assert_eq!(global.random, 1, "interleaving introduces a backwards jump");
        assert!(global.random > 0 || global.monotonic > 0);
    }

    #[test]
    fn separate_files_are_separate_streams() {
        let resolved = ResolvedTrace {
            accesses: vec![
                acc(0, 1, 0, 0, 10),
                acc(0, 2, 1, 0, 10),
                acc(0, 3, 0, 10, 10),
            ],
            syncs: vec![],
            seek_mismatches: 0,
            short_reads: 0,
        };
        let local = local_pattern(&resolved);
        // file 0: 0..10 then 10..20 (consecutive); file 1: single access.
        assert_eq!(
            local,
            PatternStats {
                consecutive: 1,
                monotonic: 0,
                random: 0
            }
        );
    }
}
