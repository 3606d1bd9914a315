//! Work-stealing fan-out across scoped threads, with deterministic merge.
//!
//! Everything here is `std`-only (`std::thread::scope` + channels + one
//! atomic claim counter): workers pull the next unclaimed item, results
//! flow back over a channel tagged with their item index, and the caller
//! reassembles them in input order — so the output of a parallel run is
//! bit-identical to the serial one regardless of thread count or
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolve a requested thread count: `0` means "one per available core".
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Run `f(0..n)` across `threads` scoped worker threads (work-stealing via
/// a shared claim counter) and return the results in index order.
///
/// `threads == 0` uses one thread per available core; `threads == 1` (or
/// `n <= 1`) runs inline with no thread or channel overhead, which also
/// makes it the reference the equivalence tests compare against.
pub fn parallel_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                if tx.send((k, f(k))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (k, r) in rx {
        slots[k] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_map_is_in_order_for_any_thread_count() {
        for threads in [0, 1, 2, 3, 8] {
            let out = parallel_map_indexed(17, threads, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn indexed_map_empty() {
        let out: Vec<u32> = parallel_map_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_indexed(2, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }
}
