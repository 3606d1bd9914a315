//! Per-byte write provenance: tags and the interval map that stores them.

use std::collections::BTreeMap;

use obs::fnv::fnv1a64;

/// Identity of a write: who wrote the byte and the global write sequence
/// number of the operation. Tags let a reader (or the analysis) decide
/// whether it observed the most recent happens-before write or a stale one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WriteTag {
    /// Writer rank.
    pub rank: u32,
    /// Per-rank write sequence number: the position of this write in the
    /// issuing rank's program order. Per-rank (not global) so that a tag
    /// depends only on program order, never on scheduler interleaving —
    /// which is what makes tags comparable across consistency engines.
    pub seq: u64,
}

/// A run of `len` bytes that all carry the same provenance. `None` means
/// the bytes were never written (file holes read as zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagRun {
    pub len: u64,
    pub tag: Option<WriteTag>,
}

/// An interval map from byte ranges to [`WriteTag`]s: the strong engine's
/// write locks, one segment per run of bytes whose lock one rank holds.
///
/// Invariants: segments are disjoint, non-empty, and sorted by start offset.
/// Adjacent segments with equal tags are coalesced.
///
/// ```
/// use pfssim::{SegMap, WriteTag};
/// let mut m = SegMap::new();
/// m.insert(0, 10, WriteTag { rank: 1, seq: 0 });
/// m.insert(5, 8, WriteTag { rank: 2, seq: 0 });
/// let segs: Vec<_> = m.overlapping(0, 10).collect();
/// assert_eq!(segs.len(), 3); // [0,5) rank 1 | [5,8) rank 2 | [8,10) rank 1
/// assert_eq!(segs[1], (5, 8, WriteTag { rank: 2, seq: 0 }));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegMap {
    /// start → (end, tag); `end` is exclusive.
    segs: BTreeMap<u64, (u64, WriteTag)>,
}

impl SegMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `[start, end)` was written with `tag`, overwriting any
    /// previous provenance in that range. Segments it covers are clipped
    /// in place.
    pub fn insert(&mut self, start: u64, end: u64, tag: WriteTag) {
        assert!(start <= end, "invalid range");
        if start == end {
            return;
        }
        // A segment starting before `start` keeps its head, and its tail
        // too if it reaches past `end`.
        if let Some((_, seg)) = self.segs.range_mut(..start).next_back() {
            let (e, t) = *seg;
            if e > start {
                seg.0 = start;
                if e > end {
                    self.segs.insert(end, (e, t));
                }
            }
        }
        // Segments starting inside the range go, but for a tail past `end`.
        while let Some((&s, &(e, t))) = self.segs.range(start..end).next() {
            self.segs.remove(&s);
            if e > end {
                self.segs.insert(end, (e, t));
            }
        }
        self.segs.insert(start, (end, tag));
        self.coalesce_around(start, end);
    }

    /// Merge equal-tag neighbours around the freshly inserted range.
    fn coalesce_around(&mut self, start: u64, end: u64) {
        // Merge with predecessor.
        let mut cur_start = start;
        if let Some((&ps, &(pe, pt))) = self.segs.range(..cur_start).next_back() {
            let (ce, ct) = self.segs[&cur_start];
            if pe == cur_start && pt == ct {
                self.segs.remove(&cur_start);
                self.segs.insert(ps, (ce, ct));
                cur_start = ps;
            }
        }
        // Merge with successor.
        let (ce, ct) = self.segs[&cur_start];
        debug_assert!(ce >= end);
        if let Some((&ns, &(ne, nt))) = self.segs.range(cur_start + 1..).next() {
            if ns == ce && nt == ct {
                self.segs.remove(&ns);
                self.segs.insert(cur_start, (ne, ct));
            }
        }
    }

    /// Every segment overlapping `[start, end)`, clipped to it, as
    /// `(start, end, tag)` in offset order.
    pub fn overlapping(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (u64, u64, WriteTag)> + '_ {
        let head = self
            .segs
            .range(..start)
            .next_back()
            .filter(|(_, &(e, _))| e > start);
        head.into_iter()
            .chain(self.segs.range(start..end))
            .map(move |(&s, &(e, t))| (s.max(start), e.min(end), t))
    }
}

/// Fold the provenance of `runs` into the FNV-1a state `h`, each number
/// as its little-endian bytes.
pub(crate) fn digest_runs(mut h: u64, runs: &[TagRun]) -> u64 {
    for run in runs {
        h = fnv1a64(h, &run.len.to_le_bytes());
        h = match run.tag {
            Some(t) => fnv1a64(
                fnv1a64(h, &(t.rank as u64 + 1).to_le_bytes()),
                &(t.seq + 1).to_le_bytes(),
            ),
            None => fnv1a64(h, &0u64.to_le_bytes()),
        };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(rank: u32, seq: u64) -> WriteTag {
        WriteTag { rank, seq }
    }

    /// The segments overlapping `[s, e)`, clipped, as `(start, end, (rank, seq))`.
    fn segs(m: &SegMap, s: u64, e: u64) -> Vec<(u64, u64, (u32, u64))> {
        m.overlapping(s, e)
            .map(|(s, e, t)| (s, e, (t.rank, t.seq)))
            .collect()
    }

    #[test]
    fn empty_map_is_all_holes() {
        let m = SegMap::new();
        assert!(segs(&m, 0, 10).is_empty());
    }

    #[test]
    fn single_insert() {
        let mut m = SegMap::new();
        m.insert(10, 20, tag(1, 1));
        assert_eq!(segs(&m, 0, 30), vec![(10, 20, (1, 1))]);
    }

    #[test]
    fn overwrite_middle_splits() {
        let mut m = SegMap::new();
        m.insert(0, 30, tag(1, 1));
        m.insert(10, 20, tag(2, 2));
        assert_eq!(
            segs(&m, 0, 30),
            vec![(0, 10, (1, 1)), (10, 20, (2, 2)), (20, 30, (1, 1))]
        );
    }

    #[test]
    fn overwrite_covering_removes_inner() {
        let mut m = SegMap::new();
        m.insert(5, 10, tag(1, 1));
        m.insert(12, 15, tag(1, 2));
        m.insert(0, 20, tag(3, 3));
        assert_eq!(segs(&m, 0, 20), vec![(0, 20, (3, 3))]);
    }

    #[test]
    fn partial_overlap_left_and_right() {
        let mut m = SegMap::new();
        m.insert(0, 10, tag(1, 1));
        m.insert(20, 30, tag(2, 2));
        m.insert(5, 25, tag(3, 3));
        assert_eq!(
            segs(&m, 0, 30),
            vec![(0, 5, (1, 1)), (5, 25, (3, 3)), (25, 30, (2, 2))]
        );
    }

    #[test]
    fn coalesces_equal_adjacent_tags() {
        let mut m = SegMap::new();
        m.insert(0, 10, tag(1, 1));
        m.insert(10, 20, tag(1, 1));
        assert_eq!(segs(&m, 0, 20), vec![(0, 20, (1, 1))]);
    }

    #[test]
    fn digest_changes_with_provenance() {
        let run = |len, tag| TagRun { len, tag };
        let a = [run(10, Some(tag(1, 1)))];
        let b = [run(10, Some(tag(1, 2)))];
        let h = obs::fnv::FNV_OFFSET;
        assert_ne!(digest_runs(h, &a), digest_runs(h, &b));
        assert_ne!(digest_runs(h, &a), digest_runs(h, &[run(10, None)]));
        assert_ne!(
            digest_runs(h, &a),
            digest_runs(h, &[run(9, Some(tag(1, 1)))])
        );
    }

    #[test]
    fn overlapping_is_exact_at_boundaries() {
        let mut m = SegMap::new();
        m.insert(10, 20, tag(1, 1));
        assert_eq!(segs(&m, 10, 20), vec![(10, 20, (1, 1))]);
        assert!(segs(&m, 9, 10).is_empty());
        assert!(segs(&m, 20, 21).is_empty());
        assert_eq!(segs(&m, 15, 16), vec![(15, 16, (1, 1))]);
    }
}
