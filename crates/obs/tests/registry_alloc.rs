//! Recording into a series that already exists allocates nothing: the
//! registry looks a name up by `&str` and allocates only on its first use.
//! A counting global allocator (per thread, so the harness's own threads
//! do not count) checks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn recording_into_an_existing_series_allocates_nothing() {
    let reg = obs::Registry::new();
    let first = allocs_in(|| {
        reg.add("serve.requests", 1);
        reg.set_max("sim.live_tasks", 3);
        reg.observe("serve.request_ns", 900);
    });
    assert!(first > 0, "a name's first use registers it");
    let again = allocs_in(|| {
        for i in 0..1000 {
            reg.add("serve.requests", 1);
            reg.set_max("sim.live_tasks", i);
            reg.observe("serve.request_ns", i * 1000);
            reg.counter("serve.requests");
        }
    });
    assert_eq!(
        again, 0,
        "{again} allocation(s) recording into existing series"
    );
    assert_eq!(reg.counter("serve.requests").get(), 1001);
}
