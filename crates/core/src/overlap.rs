//! Algorithm 1: detecting overlaps.
//!
//! Records are the `(t, r, os, oe, type)` tuples of §5.1 (our
//! [`DataAccess`] uses an *exclusive* end offset `oe = offset + len`).
//! Tuples are sorted by starting offset; for each tuple the sweep scans
//! forward until the next start offset passes the current end — "quadratic
//! in the worst case, \[but\] in practice the running time (sorting
//! excepted) is linear in the number of records".

use std::collections::HashSet;

use recorder::{DataAccess, PathId};

/// Output of overlap detection over one file (or a whole trace when
/// grouped by file).
#[derive(Debug, Clone, Default)]
pub struct OverlapResult {
    /// Index pairs `(i, j)` into the input slice, each an overlapping pair.
    pub pairs: Vec<(u32, u32)>,
    /// The paper's table `P`: which rank pairs overlap. Entries `(r_i,
    /// r_j)` with `r_i <= r_j`, deduplicated and sorted.
    pub rank_pairs: Vec<(u32, u32)>,
}

impl OverlapResult {
    pub fn count(&self) -> usize {
        self.pairs.len()
    }

    pub fn involves_distinct_ranks(&self) -> bool {
        self.rank_pairs.iter().any(|(a, b)| a != b)
    }
}

/// The §5.1 sweep over an offset-sorted index order: for each tuple, scan
/// forward while start offsets stay below its (exclusive) end. The one
/// enumeration of overlapping pairs: [`detect_overlaps`] and
/// [`crate::conflict::detect_conflicts`] both visit pairs through it.
pub(crate) fn sweep(
    accesses: &[DataAccess],
    order: &[u32],
    mut emit: impl FnMut(u32, u32, &DataAccess, &DataAccess),
) {
    for (pos, &i) in order.iter().enumerate() {
        let a = &accesses[i as usize];
        for &j in &order[pos + 1..] {
            let b = &accesses[j as usize];
            if b.offset >= a.end() {
                break; // sorted by start: no later tuple can overlap `a`
            }
            emit(i, j, a, b);
        }
    }
}

fn offset_order(accesses: &[DataAccess]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..accesses.len() as u32).collect();
    order.sort_by_key(|&i| {
        let a = &accesses[i as usize];
        (a.offset, a.end(), a.t_start)
    });
    order
}

/// Algorithm 1 over the accesses of **one file**. The input order is
/// arbitrary; indices in the result refer to the input slice.
///
/// ```
/// use recorder::{AccessKind, DataAccess, Layer, PathId};
/// use semantics_core::overlap::detect_overlaps;
/// let acc = |rank, t, offset, len| DataAccess {
///     rank, t_start: t, t_end: t + 1, file: PathId(0), offset, len,
///     kind: AccessKind::Write, origin: Layer::App, fd: 3,
/// };
/// // Two writes overlapping on byte 10, one disjoint write.
/// let r = detect_overlaps(&[acc(0, 0, 0, 11), acc(1, 1, 10, 10), acc(2, 2, 100, 5)]);
/// assert_eq!(r.count(), 1);
/// assert!(r.involves_distinct_ranks());
/// ```
pub fn detect_overlaps(accesses: &[DataAccess]) -> OverlapResult {
    let mut out = OverlapResult::default();
    // Streaming dedup of the rank table: a seen-set instead of pushing one
    // entry per pair and sort+dedup afterwards.
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    sweep(accesses, &offset_order(accesses), |i, j, a, b| {
        out.pairs.push((i, j));
        let rp = if a.rank <= b.rank {
            (a.rank, b.rank)
        } else {
            (b.rank, a.rank)
        };
        if seen.insert(rp) {
            out.rank_pairs.push(rp);
        }
    });
    out.rank_pairs.sort_unstable();
    out
}

/// O(n²) reference implementation for property testing.
pub fn detect_overlaps_bruteforce(accesses: &[DataAccess]) -> OverlapResult {
    let mut out = OverlapResult::default();
    for i in 0..accesses.len() {
        for j in i + 1..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.offset < b.end() && b.offset < a.end() {
                out.pairs.push((i as u32, j as u32));
                let (lo, hi) = if a.rank <= b.rank {
                    (a.rank, b.rank)
                } else {
                    (b.rank, a.rank)
                };
                out.rank_pairs.push((lo, hi));
            }
        }
    }
    out.rank_pairs.sort_unstable();
    out.rank_pairs.dedup();
    out
}

/// Zero-copy grouping of a trace's accesses by file.
///
/// One stable index sort replaces the per-file `Vec<DataAccess>` clones
/// the analysis used to make: each group is a slice of indices into the
/// original access slice, **in input order** within the group (groups
/// themselves are sorted by [`PathId`]). The whole structure is two flat
/// vectors, no per-file allocation, and the accesses are never copied.
///
/// Overlap convention (shared by every consumer of a group): a
/// [`DataAccess`] covers the half-open byte range `[offset, end())` with
/// `end() = offset + len` **exclusive**, so accesses that merely touch
/// (`a.end() == b.offset`) do not overlap.
#[derive(Debug, Clone, Default)]
pub struct FileGroups {
    /// Indices into the access slice, grouped by file, input order within
    /// each group.
    order: Vec<u32>,
    /// Per-file `(file, start..end)` ranges into `order`, sorted by file.
    ranges: Vec<(PathId, u32, u32)>,
}

impl FileGroups {
    pub fn new(accesses: &[DataAccess]) -> Self {
        let mut order: Vec<u32> = (0..accesses.len() as u32).collect();
        // Stable: equal files keep input order.
        order.sort_by_key(|&i| accesses[i as usize].file);
        let mut ranges: Vec<(PathId, u32, u32)> = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let file = accesses[order[start] as usize].file;
            let mut end = start + 1;
            while end < order.len() && accesses[order[end] as usize].file == file {
                end += 1;
            }
            ranges.push((file, start as u32, end as u32));
            start = end;
        }
        Self { order, ranges }
    }

    /// Number of distinct files.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The `k`-th group (groups are sorted by file).
    pub fn group(&self, k: usize) -> (PathId, &[u32]) {
        let (file, lo, hi) = self.ranges[k];
        (file, &self.order[lo as usize..hi as usize])
    }

    /// Iterate `(file, indices)` groups in file order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &[u32])> + '_ {
        (0..self.len()).map(|k| self.group(k))
    }
}

/// Normalize a pair list into a canonical (sorted, both orders collapsed)
/// set for comparisons in tests.
pub fn canonical_pairs(r: &OverlapResult) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = r
        .pairs
        .iter()
        .map(|&(i, j)| if i <= j { (i, j) } else { (j, i) })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{AccessKind, Layer};

    fn acc(rank: u32, t: u64, offset: u64, len: u64) -> DataAccess {
        DataAccess {
            rank,
            t_start: t,
            t_end: t + 1,
            file: PathId(0),
            offset,
            len,
            kind: AccessKind::Write,
            origin: Layer::App,
            fd: 3,
        }
    }

    #[test]
    fn disjoint_accesses_do_not_overlap() {
        let accs = vec![acc(0, 0, 0, 10), acc(1, 1, 10, 10), acc(2, 2, 20, 10)];
        let r = detect_overlaps(&accs);
        assert!(r.pairs.is_empty());
        assert!(!r.involves_distinct_ranks());
    }

    #[test]
    fn adjacent_is_not_overlap_exclusive_end() {
        // [0,10) and [10,20) share no byte.
        let accs = vec![acc(0, 0, 0, 10), acc(1, 1, 10, 10)];
        assert_eq!(detect_overlaps(&accs).count(), 0);
    }

    #[test]
    fn single_byte_overlap_detected() {
        let accs = vec![acc(0, 0, 0, 11), acc(1, 1, 10, 10)];
        let r = detect_overlaps(&accs);
        assert_eq!(r.count(), 1);
        assert_eq!(r.rank_pairs, vec![(0, 1)]);
        assert!(r.involves_distinct_ranks());
    }

    #[test]
    fn containment_and_identity() {
        let accs = vec![acc(0, 0, 0, 100), acc(0, 1, 10, 5), acc(1, 2, 0, 100)];
        let r = detect_overlaps(&accs);
        assert_eq!(canonical_pairs(&r), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn same_rank_overlap_has_diagonal_rank_pair() {
        let accs = vec![acc(3, 0, 0, 10), acc(3, 1, 5, 10)];
        let r = detect_overlaps(&accs);
        assert_eq!(r.rank_pairs, vec![(3, 3)]);
        assert!(!r.involves_distinct_ranks());
    }

    #[test]
    fn file_groups_preserve_input_order() {
        let mut accs = Vec::new();
        for i in 0..30u64 {
            let mut a = acc((i % 4) as u32, 100 - i, (i * 9) % 40, 8);
            a.file = PathId((i % 3) as u32);
            accs.push(a);
        }
        let groups = FileGroups::new(&accs);
        assert_eq!(groups.len(), 3);
        let mut seen = 0usize;
        let mut last_file = None;
        for (file, idxs) in groups.iter() {
            if let Some(lf) = last_file {
                assert!(file > lf, "groups sorted by file");
            }
            last_file = Some(file);
            assert!(
                idxs.windows(2).all(|w| w[0] < w[1]),
                "input order within group"
            );
            assert!(idxs.iter().all(|&i| accs[i as usize].file == file));
            seen += idxs.len();
        }
        assert_eq!(seen, accs.len());
    }

    #[test]
    fn file_groups_empty_input() {
        let groups = FileGroups::new(&[]);
        assert!(groups.is_empty());
        assert_eq!(groups.iter().count(), 0);
    }

    #[test]
    fn matches_bruteforce_on_dense_case() {
        let accs: Vec<DataAccess> = (0..40)
            .map(|i| acc(i % 4, i as u64, (i as u64 * 7) % 50, 12))
            .collect();
        let fast = detect_overlaps(&accs);
        let slow = detect_overlaps_bruteforce(&accs);
        assert_eq!(canonical_pairs(&fast), canonical_pairs(&slow));
        assert_eq!(fast.rank_pairs, slow.rank_pairs);
    }
}
