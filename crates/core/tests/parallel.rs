//! The per-configuration fan-out (`parallel_map_indexed`) returns results
//! in index order for any thread count, and counting-mode overlap
//! detection agrees with the full one.

use recorder::{AccessKind, DataAccess, Layer, PathId};
use semantics_core::overlap::{count_overlaps, detect_overlaps};
use semantics_core::parallel::parallel_map_indexed;
use simrng::SimRng;

const THREAD_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

fn random_access(rng: &mut SimRng, n_ranks: u32, n_files: u32) -> DataAccess {
    let t = rng.range_u64(0, 2000);
    DataAccess {
        rank: rng.range_u32(0, n_ranks),
        t_start: t,
        t_end: t + 1,
        file: PathId(rng.range_u32(0, n_files)),
        offset: rng.range_u64(0, 300),
        len: rng.range_u64(1, 60),
        kind: if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        origin: Layer::App,
        fd: 3,
    }
}

/// Counting mode agrees with full detection: same pair count and the same
/// deduplicated rank-pair list, without materializing the pairs.
#[test]
fn counting_mode_equals_detection() {
    let mut rng = SimRng::seed_from_u64(0xC0);
    for _ in 0..96 {
        let n = rng.range_usize(0, 150);
        let accesses: Vec<DataAccess> = (0..n).map(|_| random_access(&mut rng, 4, 1)).collect();
        let full = detect_overlaps(&accesses);
        let count = count_overlaps(&accesses);
        assert_eq!(count.pairs, full.pairs.len() as u64);
        assert_eq!(count.rank_pairs, full.rank_pairs);
    }
}

/// The generic indexed map preserves order and runs every index once even
/// when the closure's cost is wildly uneven across items.
#[test]
fn indexed_map_uneven_load() {
    for threads in THREAD_COUNTS {
        let out = parallel_map_indexed(64, threads, |i| {
            // Uneven spin so claim order scrambles under real threads.
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 64);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i, "threads={threads}");
        }
    }
}
