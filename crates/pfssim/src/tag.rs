//! Per-byte write provenance: tags, runs of them, and their digest.

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
}
