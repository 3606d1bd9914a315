//! The per-configuration fan-out (`parallel_map_indexed`) returns results
//! in index order for any thread count.

use semantics_core::parallel::parallel_map_indexed;

const THREAD_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

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
