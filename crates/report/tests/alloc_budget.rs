//! Allocation budget of one cold request.
//!
//! The cold path is deterministic, so the number of heap allocations one
//! `analyze_incremental` call makes is a fixed function of `(config,
//! ranks, seed)` — a regression gate that holds where wall-clock timing on
//! a shared box cannot. A counting global allocator tallies this thread's
//! allocations (the task executor runs every rank on the calling thread),
//! the high-water mark of the bytes they hold live, and what the returned
//! `AnalyzedRun` still holds;
//! task stacks are taken out by mpisim's own per-thread count of them and
//! budgeted on their own: after the first request on a thread the stack
//! pool must serve every one of them.
//!
//! On a budget miss the run is repeated with every 16th allocation's
//! backtrace sampled, and the census is printed by innermost in-repo call
//! site — the same table EXPERIMENTS.md shows.
//!
//! One `#[test]` on purpose: budgets are per thread and the pool-hit check
//! needs its own request order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use hpcapps::AppId;
use iolibs::FaultPlan;
use report_gen::{analyze_incremental, ReportCfg};

/// FLASH-fbs, 64 ranks, seed 2021. Measured 67 282 allocations / 41 MB
/// once a cold request stopped recording a trace, file images became
/// extent maps and HDF5 stopped allocating its participant list per
/// metadata call; 78 314 / 62 MB before (15afc5d), and 384 542 / 149 MB
/// plus 64 MiB of task stacks per request at 862f99e.
const FLASH_ALLOCS: u64 = 75_000;
const FLASH_BYTES: u64 = 45_000_000;
/// FLASH-fbs's peak live bytes and the bytes its `AnalyzedRun` keeps
/// (task stacks excluded). Measured 13.5 MB / 0.22 MB once the cold path
/// kept no trace (the verdict, its conflict reports and pattern counters
/// are all that is left); 17.9 MB / 6.2 MB with one re-based trace, 25.9
/// MB / 15.1 MB before that.
const FLASH_PEAK_BYTES: u64 = 15_000_000;
const FLASH_KEPT_BYTES: u64 = 500_000;
/// ENZO-HDF5, 64 ranks, seed 2021. Measured 19 329 / 11 MB; before,
/// 25 055 / 22 MB with a trace and a contiguous file image.
const ENZO_ALLOCS: u64 = 22_000;
const ENZO_BYTES: u64 = 13_000_000;
/// 64 → 128 ranks may at most this much more than double FLASH-fbs's
/// allocations. Measured 1.93×; before, 3.34× (384 542 → 1 285 818), the
/// Θ(n²) collective term.
const FLASH_DOUBLING: f64 = 2.3;

/// One in this many allocations is backtraced when a census is asked for.
const SAMPLE_EVERY: u64 = 16;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's allocations hold now, and their high-water mark
    /// (both relative to an arbitrary zero: frees of memory allocated
    /// elsewhere count too).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Whether every [`SAMPLE_EVERY`]th allocation is backtraced.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    /// Set while a backtrace is captured: its own allocations do not count.
    static IN_CENSUS: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<HashMap<String, (u64, u64)>> = RefCell::new(HashMap::new());
}

struct Counting;

/// Move [`LIVE`] by `delta` bytes, raising [`PEAK`] with it.
fn live(delta: i64) {
    if IN_CENSUS.with(Cell::get) {
        return;
    }
    let now = LIVE.with(|c| {
        c.set(c.get() + delta);
        c.get()
    });
    PEAK.with(|c| c.set(c.get().max(now)));
}

fn count(layout: Layout) {
    if IN_CENSUS.with(Cell::get) {
        return;
    }
    let n = ALLOCS.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    BYTES.with(|c| c.set(c.get() + layout.size() as u64));
    if n.is_multiple_of(SAMPLE_EVERY) && SAMPLING.with(Cell::get) {
        IN_CENSUS.with(|c| c.set(true));
        let site = call_site(&std::backtrace::Backtrace::force_capture().to_string());
        SITES.with(|s| {
            let mut s = s.borrow_mut();
            let e = s.entry(site).or_insert((0, 0));
            e.0 += SAMPLE_EVERY;
            e.1 += SAMPLE_EVERY * layout.size() as u64;
        });
        IN_CENSUS.with(|c| c.set(false));
    }
}

/// The innermost frame of a rendered backtrace that lies in this repo's
/// crates (skipping this file), as `path:line`.
fn call_site(backtrace: &str) -> String {
    backtrace
        .lines()
        .filter_map(|l| l.trim().strip_prefix("at "))
        .find(|l| l.contains("crates/") && !l.contains("alloc_budget.rs"))
        .map(|l| {
            let l = &l[l.find("crates/").expect("filtered on it")..];
            // Drop the column: `path:line:col` → `path:line`.
            l.rsplit_once(':').map_or(l, |(head, _)| head).to_string()
        })
        .unwrap_or_else(|| "<outside crates/>".to_string())
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised thread-locals
// without destructors (`SITES` is only reached with `SAMPLING` set, which
// the test thread alone does, and never re-entered: `IN_CENSUS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).expect("realloc layout"));
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[derive(Debug, Clone, Copy)]
struct Census {
    allocs: u64,
    bytes: u64,
    stack_allocs: u64,
    /// Most bytes held live at once during the request.
    peak_bytes: u64,
    /// Bytes still held once the request returned: the `AnalyzedRun`.
    kept_bytes: u64,
}

/// One cold request, counted. With `sample`, also fills [`SITES`].
fn request(id: AppId, ranks: u32, sample: bool) -> Census {
    let spec = hpcapps::spec_ref(id);
    let cfg = ReportCfg {
        nranks: ranks,
        seed: 2021,
        ..ReportCfg::default()
    };
    let clean = FaultPlan::none();
    let before = (
        ALLOCS.with(Cell::get),
        BYTES.with(Cell::get),
        mpisim::task_stack_allocs(),
    );
    let live0 = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live0));
    SAMPLING.with(|c| c.set(sample));
    let run = analyze_incremental(&cfg, spec, &spec.params, &clean).expect("clean run");
    SAMPLING.with(|c| c.set(false));
    let (kept, peak) = (LIVE.with(Cell::get) - live0, PEAK.with(Cell::get) - live0);
    let (stacks, stack_bytes) = mpisim::task_stack_allocs();
    let (stacks, stack_bytes) = (stacks - before.2 .0, stack_bytes - before.2 .1);
    let census = Census {
        allocs: ALLOCS.with(Cell::get) - before.0 - stacks,
        bytes: BYTES.with(Cell::get) - before.1 - stack_bytes,
        stack_allocs: stacks,
        // Every stack a request allocates is live at its peak and pooled
        // after it.
        peak_bytes: peak as u64 - stack_bytes,
        kept_bytes: kept as u64 - stack_bytes,
    };
    drop(run);
    census
}

/// Re-run `id` with sampling on and render the top call sites.
fn census_table(id: AppId, ranks: u32) -> String {
    SITES.with(|s| s.borrow_mut().clear());
    let c = request(id, ranks, true);
    let mut rows: Vec<(String, (u64, u64))> = SITES.with(|s| s.borrow_mut().drain().collect());
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
    let mut out = format!(
        "{} allocations, {} bytes; by call site (1 in {SAMPLE_EVERY} sampled):\n",
        c.allocs, c.bytes
    );
    for (site, (allocs, bytes)) in rows.iter().take(12) {
        out.push_str(&format!("  {allocs:>9} allocs {bytes:>12} B  {site}\n"));
    }
    out
}

fn check(id: AppId, name: &str, c: Census, max_allocs: u64, max_bytes: u64) {
    println!(
        "alloc-budget: {name} @64: {} allocations (budget {max_allocs}), {} bytes \
         (budget {max_bytes}), {} task-stack allocations",
        c.allocs, c.bytes, c.stack_allocs
    );
    assert!(
        c.allocs <= max_allocs && c.bytes <= max_bytes,
        "{name} @64 over budget: {} allocations (max {max_allocs}), {} bytes (max {max_bytes})\n{}",
        c.allocs,
        c.bytes,
        census_table(id, 64)
    );
}

#[test]
fn cold_request_allocation_budget() {
    let flash = request(AppId::FlashFbs, 64, false);
    check(
        AppId::FlashFbs,
        "FLASH-fbs",
        flash,
        FLASH_ALLOCS,
        FLASH_BYTES,
    );
    println!(
        "alloc-budget: FLASH-fbs @64: {} bytes live at peak (budget {FLASH_PEAK_BYTES}), {} kept \
         by the analyzed run (budget {FLASH_KEPT_BYTES})",
        flash.peak_bytes, flash.kept_bytes
    );
    assert!(
        flash.peak_bytes <= FLASH_PEAK_BYTES && flash.kept_bytes <= FLASH_KEPT_BYTES,
        "FLASH-fbs @64 holds too much: {} bytes at peak (max {FLASH_PEAK_BYTES}), {} kept \
         (max {FLASH_KEPT_BYTES}) — is the cold path keeping a trace again?",
        flash.peak_bytes,
        flash.kept_bytes
    );

    // Same thread, second request: every task stack comes from the pool.
    let enzo = request(AppId::Enzo, 64, false);
    check(AppId::Enzo, "ENZO-HDF5", enzo, ENZO_ALLOCS, ENZO_BYTES);
    assert_eq!(
        enzo.stack_allocs, 0,
        "second request on this thread allocated task stacks (pool miss)"
    );

    // A repeat costs no more than the first (which also paid one-time
    // initialisation), and again no stacks.
    let again = request(AppId::FlashFbs, 64, false);
    assert!(
        again.allocs <= flash.allocs && again.stack_allocs == 0,
        "FLASH-fbs repeat: {again:?} after {flash:?}"
    );

    let flash128 = request(AppId::FlashFbs, 128, false);
    let growth = flash128.allocs as f64 / flash.allocs as f64;
    println!(
        "alloc-budget: FLASH-fbs 64 -> 128 ranks: {} -> {} allocations ({growth:.2}x, max \
         {FLASH_DOUBLING}x)",
        flash.allocs, flash128.allocs
    );
    assert!(
        growth < FLASH_DOUBLING,
        "FLASH-fbs allocations grew {growth:.2}x from 64 to 128 ranks (max {FLASH_DOUBLING}x) — \
         a per-rank-squared term is back\n{}",
        census_table(AppId::FlashFbs, 128)
    );
}
