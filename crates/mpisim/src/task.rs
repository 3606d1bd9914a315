//! Stackful coroutine tasks for the event-driven world executor.
//!
//! Each simulated rank becomes a *task*: the unchanged rank closure runs on
//! its own heap-allocated stack, and every point where the thread executor
//! would block on a condvar (turn wait, park) instead switches back to the
//! scheduler's native stack. One OS thread drives thousands of ranks; a
//! switch is a handful of instructions (save callee-saved registers, swap
//! stack pointers) instead of a futex round trip through the kernel.
//!
//! The context switch is hand-rolled `global_asm!` for x86_64 System V:
//! callee-saved integer registers are pushed on the outgoing stack, the
//! stack pointers are swapped, and the incoming side pops and returns. No
//! floating-point control state is saved — neither the simulator nor the
//! rank programs modify `mxcsr`/x87 control words, and both sides of every
//! switch run on the same thread. Panics never unwind across a switch:
//! the task entry wraps the closure in `catch_unwind`, so an unwinding
//! rank (fail-stop `SimAbort`, deadlock observation, genuine bug) is
//! caught while still entirely on the task's own stack.
//!
//! On architectures without a switch implementation the executor falls
//! back to thread-per-rank; [`supported`] reports which world you get.
//!
//! Safety invariants, enforced by the `world::run_tasks` driver:
//! * a task is resumed only while suspended (initial state or parked in
//!   [`yield_now`]) and never after [`Task::finished`];
//! * tasks are driven to completion before the driver returns, so borrows
//!   captured by the closure outlive every frame on the task stack;
//! * all switches happen on the driver's thread ([`CURRENT`] is
//!   thread-local, so concurrent worlds on different threads don't mix).
//!
//! Stacks are recycled through a per-thread pool: a thread
//! that runs one world after another (a serve worker, a report fan-out
//! thread) allocates its stacks once instead of paying `n` × 1 MiB of
//! `alloc`/`dealloc` — heap growth, trim, and a first-touch fault per page
//! — on every world. The pool keeps at most [`STACK_POOL_MAX`] stacks; a
//! stack is pooled only with its canary intact and reused only at exactly
//! the size asked for (a world's stacks are all [`DEFAULT_STACK_BYTES`],
//! but the unit tests below run [`MIN_STACK_BYTES`] tasks on the same
//! threads). Nothing is ever read from a recycled stack before it is
//! written: a task starts from a fresh bootstrap frame at the top.

use std::alloc::{alloc, dealloc, Layout};
use std::cell::{Cell, RefCell};
use std::ptr;

/// Whether this build carries a context-switch implementation (and the
/// event-driven executor is therefore available).
pub const fn supported() -> bool {
    cfg!(target_arch = "x86_64")
}

/// Default task stack size: 1 MiB of *virtual* space. Pages are committed
/// on first touch, so idle ranks cost a few KiB of resident memory; deep
/// I/O-library call chains have headroom. Every world's tasks get this size.
pub const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Floor for stack sizes; below this even the harness's startup barrier
/// would risk the canary.
pub const MIN_STACK_BYTES: usize = 64 * 1024;

/// Sentinel written at the low end of every task stack and checked on
/// every switch back to the scheduler: a clobbered canary means the task
/// overflowed its stack and the process must stop before the corruption
/// spreads.
const STACK_CANARY: u64 = 0xdead_c0de_5afe_57ac;

/// Most stacks one thread keeps for reuse. A 4096-rank world followed by
/// 64-rank ones must not pin 4 GiB of address space (and every page the
/// big world touched) forever; 256 covers the rank counts the service
/// answers by default.
pub const STACK_POOL_MAX: usize = 256;

thread_local! {
    /// This thread's idle task stacks, at most [`STACK_POOL_MAX`].
    static STACK_POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };

    /// `(count, bytes)` of the task stacks this thread has allocated (pool
    /// hits do not count); see [`stack_allocs`].
    static STACK_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };

    /// The task currently executing on this thread, if any. Set around
    /// every resume; [`yield_now`] and [`in_task`] read it. A raw pointer
    /// is fine: the pointee is a heap box owned by the driver, which
    /// outlives the resume window.
    static CURRENT: Cell<*mut TaskInner> = const { Cell::new(ptr::null_mut()) };
}

/// How many task stacks the calling thread has allocated so far, and their
/// total bytes. A thread whose pool already holds enough stacks of the
/// current size runs a world without moving either number.
pub fn stack_allocs() -> (u64, u64) {
    STACK_ALLOCS.with(Cell::get)
}

/// Whether the calling code is running inside a task (as opposed to a
/// plain rank thread or the driver itself). The world's wait paths use
/// this to choose yield-to-scheduler over condvar wait.
#[inline]
pub(crate) fn in_task() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Switch from the running task back to the scheduler. The task stays
/// suspended exactly here until the next [`Task::resume`].
///
/// # Panics
/// Panics if called outside a task.
pub(crate) fn yield_now() {
    let p = CURRENT.with(|c| c.get());
    assert!(!p.is_null(), "yield_now outside a task");
    unsafe {
        let inner = &mut *p;
        coro_switch(&mut inner.task_sp, inner.sched_sp);
    }
}

/// Heap stack for one task. Allocated unzeroed so untouched pages are
/// never committed.
struct Stack {
    base: *mut u8,
    layout: Layout,
}

impl Stack {
    /// A stack of `size` bytes: this thread's most recently pooled one if
    /// it has exactly that size, else a fresh allocation. Pooled stacks of
    /// any other size are freed on the way.
    fn acquire(size: usize) -> Stack {
        let size = size.max(MIN_STACK_BYTES) & !15usize;
        let pooled = STACK_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            while let Some(s) = pool.pop() {
                if s.layout.size() == size && s.canary_intact() {
                    return Some(s);
                }
            }
            None
        });
        pooled.unwrap_or_else(|| Stack::new(size))
    }

    /// Hand the stack back to this thread's pool, or free it when the pool
    /// is full or the canary is gone (an overflowed stack is never reused).
    fn release(self) {
        if self.canary_intact() {
            STACK_POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < STACK_POOL_MAX {
                    pool.push(self);
                }
            });
        }
    }

    fn new(size: usize) -> Stack {
        let layout = Layout::from_size_align(size, 16).expect("stack layout");
        // SAFETY: layout has nonzero size.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "task stack allocation failed ({size} B)");
        STACK_ALLOCS.with(|c| c.set((c.get().0 + 1, c.get().1 + size as u64)));
        // SAFETY: base..base+8 is inside the allocation.
        unsafe { (base as *mut u64).write(STACK_CANARY) };
        Stack { base, layout }
    }

    /// One-past-the-end, 16-byte aligned (alloc alignment + masked size).
    fn top(&self) -> *mut u8 {
        // SAFETY: offset stays within the allocation bounds (one past end).
        unsafe { self.base.add(self.layout.size()) }
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: the canary word was written at construction.
        unsafe { (self.base as *const u64).read() == STACK_CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: base/layout are exactly what alloc returned.
        unsafe { dealloc(self.base, self.layout) };
    }
}

/// The switch target state of one task plus its entry closure. Boxed by
/// [`Task`] so the pointer handed to the trampoline stays stable.
struct TaskInner {
    /// Saved stack pointer of the suspended task (initially the crafted
    /// bootstrap frame).
    task_sp: *mut u8,
    /// Saved stack pointer of the scheduler while the task runs; the
    /// task's [`yield_now`] switches back to it.
    sched_sp: *mut u8,
    /// The rank closure; taken exactly once by the entry shim. The
    /// lifetime is erased (see [`Task::new`]) — the driver guarantees the
    /// task completes before captured borrows expire.
    entry: Option<Box<dyn FnOnce()>>,
    finished: bool,
    /// `Some` until drop, which returns it to the pool.
    stack: Option<Stack>,
}

impl TaskInner {
    fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("stack held until drop")
    }
}

impl Drop for TaskInner {
    fn drop(&mut self) {
        if let Some(stack) = self.stack.take() {
            stack.release();
        }
    }
}

/// One resumable task.
pub(crate) struct Task {
    inner: Box<TaskInner>,
}

impl Task {
    /// Create a suspended task that will run `entry` on its own
    /// `stack_bytes`-sized stack when first resumed.
    ///
    /// # Safety
    /// The closure's captured borrows must outlive the task, and the task
    /// must be driven to completion (or never resumed again after a
    /// partial run is abandoned) before they expire. `run_tasks` upholds
    /// this by joining every task before returning.
    pub(crate) unsafe fn new<'a>(stack_bytes: usize, entry: Box<dyn FnOnce() + 'a>) -> Task {
        let stack = Stack::acquire(stack_bytes);
        // Erase the closure lifetime; see the safety contract above.
        let entry: Box<dyn FnOnce() + 'static> =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + 'a>, Box<dyn FnOnce()>>(entry) };
        let mut inner = Box::new(TaskInner {
            task_sp: ptr::null_mut(),
            sched_sp: ptr::null_mut(),
            entry: Some(entry),
            finished: false,
            stack: Some(stack),
        });
        inner.task_sp = bootstrap_frame(inner.stack().top(), &mut *inner as *mut TaskInner);
        Task { inner }
    }

    pub(crate) fn finished(&self) -> bool {
        self.inner.finished
    }

    /// Run the task until it yields or finishes. Must not be called on a
    /// finished task.
    pub(crate) fn resume(&mut self) {
        assert!(!self.inner.finished, "resumed a finished task");
        let inner: *mut TaskInner = &mut *self.inner;
        let prev = CURRENT.with(|c| c.replace(inner));
        // SAFETY: task_sp points at a valid suspended context (bootstrap
        // frame or a yield_now switch-out) on the task's own live stack.
        unsafe {
            coro_switch(&mut (*inner).sched_sp, (*inner).task_sp);
        }
        CURRENT.with(|c| c.set(prev));
        assert!(
            self.inner.stack().canary_intact(),
            "task stack overflow detected (canary clobbered); \
             raise DEFAULT_STACK_BYTES"
        );
    }
}

/// Entry shim running on the task stack: consume the closure, mark the
/// task finished, and switch back to the scheduler for good. Extern "C"
/// so an unwind escaping the closure's own `catch_unwind` aborts loudly
/// instead of unwinding off the bootstrap frame (undefined).
#[no_mangle]
extern "C" fn mpisim_task_entry(inner: *mut TaskInner) -> ! {
    // SAFETY: the trampoline passes the TaskInner pointer stashed by
    // bootstrap_frame; the box outlives the task.
    let inner = unsafe { &mut *inner };
    let entry = inner.entry.take().expect("task entered twice");
    entry();
    inner.finished = true;
    loop {
        // Final switch out. A bug that resumed a finished task would come
        // back here; looping (instead of falling off the frame) keeps
        // that a hang with a clear stack rather than memory corruption —
        // and `Task::resume` asserts against it first.
        // SAFETY: sched_sp was saved by the resume that ran us.
        unsafe { coro_switch(&mut inner.task_sp, inner.sched_sp) };
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::TaskInner;

    // The context switch and the bootstrap trampoline, System V AMD64.
    //
    // mpisim_coro_switch(save: *mut *mut u8 [rdi], to: *mut u8 [rsi]):
    // push the callee-saved integer registers, store rsp through `save`,
    // adopt `to`, pop, return — "returning" on the other context's stack.
    // The bootstrap frame fakes the popped registers and a return address
    // pointing at the trampoline, which moves the TaskInner pointer
    // (stashed in the r12 slot) into rdi and calls the entry shim with
    // the stack 16-byte aligned at the call, as the ABI requires.
    core::arch::global_asm!(
        ".text",
        ".globl mpisim_coro_switch",
        ".type mpisim_coro_switch,@function",
        "mpisim_coro_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size mpisim_coro_switch, . - mpisim_coro_switch",
        ".globl mpisim_task_trampoline",
        ".type mpisim_task_trampoline,@function",
        "mpisim_task_trampoline:",
        "mov rdi, r12",
        "call mpisim_task_entry",
        "ud2",
        ".size mpisim_task_trampoline, . - mpisim_task_trampoline",
    );

    unsafe extern "C" {
        pub(super) unsafe fn mpisim_coro_switch(save: *mut *mut u8, to: *mut u8);
        pub(super) unsafe fn mpisim_task_trampoline();
    }

    /// Craft the initial switch frame at `top` (16-byte aligned, one past
    /// the stack's end): six callee-saved slots and a return address, so
    /// the first switch into the task pops them and "returns" into the
    /// trampoline with rsp back at `top`.
    pub(super) unsafe fn bootstrap_frame(top: *mut u8, inner: *mut TaskInner) -> *mut u8 {
        debug_assert_eq!(top as usize % 16, 0);
        let sp = unsafe { (top as *mut u64).sub(7) };
        unsafe {
            sp.add(0).write(0); // r15
            sp.add(1).write(0); // r14
            sp.add(2).write(0); // r13
            sp.add(3).write(inner as u64); // r12 → rdi in the trampoline
            sp.add(4).write(0); // rbx
            sp.add(5).write(0); // rbp: terminate frame-pointer walks
            sp.add(6)
                .write(mpisim_task_trampoline as *const () as usize as u64);
        }
        sp as *mut u8
    }
}

#[cfg(target_arch = "x86_64")]
use arch::bootstrap_frame;

/// Perform one context switch: save the current stack pointer through
/// `save`, adopt `to`.
///
/// # Safety
/// `to` must be a stack pointer previously produced by this function or
/// [`bootstrap_frame`], on a live stack.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn coro_switch(save: &mut *mut u8, to: *mut u8) {
    unsafe { arch::mpisim_coro_switch(save as *mut *mut u8 as *mut *mut u8, to) }
}

// Unsupported architectures: the executor never constructs tasks (it
// falls back to threads), but the module must still compile.
#[cfg(not(target_arch = "x86_64"))]
unsafe fn coro_switch(_save: &mut *mut u8, _to: *mut u8) {
    unreachable!("task executor unsupported on this architecture")
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn bootstrap_frame(_top: *mut u8, _inner: *mut TaskInner) -> *mut u8 {
    unreachable!("task executor unsupported on this architecture")
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let log = std::cell::RefCell::new(Vec::new());
        let mut t = unsafe {
            Task::new(
                MIN_STACK_BYTES,
                Box::new(|| {
                    log.borrow_mut().push("a");
                    yield_now();
                    log.borrow_mut().push("b");
                    yield_now();
                    log.borrow_mut().push("c");
                }),
            )
        };
        assert!(!t.finished());
        t.resume();
        assert_eq!(*log.borrow(), ["a"]);
        assert!(!t.finished());
        t.resume();
        assert_eq!(*log.borrow(), ["a", "b"]);
        t.resume();
        assert_eq!(*log.borrow(), ["a", "b", "c"]);
        assert!(t.finished());
    }

    #[test]
    fn interleaves_many_tasks() {
        const N: usize = 64;
        let order = std::cell::RefCell::new(Vec::new());
        let order_ref = &order;
        let mut tasks: Vec<Task> = (0..N)
            .map(|i| unsafe {
                Task::new(
                    MIN_STACK_BYTES,
                    Box::new(move || {
                        order_ref.borrow_mut().push(i);
                        yield_now();
                        order_ref.borrow_mut().push(i + N);
                    }),
                )
            })
            .collect();
        for t in tasks.iter_mut() {
            t.resume();
        }
        for t in tasks.iter_mut() {
            t.resume();
            assert!(t.finished());
        }
        let want: Vec<usize> = (0..2 * N).collect();
        assert_eq!(*order.borrow(), want);
    }

    #[test]
    fn panic_is_caught_on_task_stack() {
        let caught = std::cell::Cell::new(false);
        let mut t = unsafe {
            Task::new(
                MIN_STACK_BYTES,
                Box::new(|| {
                    let r = std::panic::catch_unwind(|| panic!("boom"));
                    caught.set(r.is_err());
                }),
            )
        };
        t.resume();
        assert!(t.finished());
        assert!(caught.get());
    }

    fn pooled_stacks() -> usize {
        STACK_POOL.with(|p| p.borrow().len())
    }

    /// Start from an empty pool, whatever ran on this thread before.
    fn drain_pool() {
        STACK_POOL.with(|p| p.borrow_mut().clear());
    }

    #[test]
    fn stack_pool_is_bounded() {
        use crate::world::{World, WorldCfg};

        let run = |n: u32| {
            World::run(&WorldCfg::new(n, 3), |rank| {
                rank.barrier();
            })
            .expect("barrier world");
        };
        drain_pool();
        run(4096);
        assert_eq!(pooled_stacks(), STACK_POOL_MAX, "4096 released, 256 kept");
        let allocated = stack_allocs();
        run(64);
        assert_eq!(pooled_stacks(), STACK_POOL_MAX, "64 taken and handed back");
        assert_eq!(stack_allocs(), allocated, "all 64 came from the pool");
    }

    #[test]
    fn stack_pool_reuses_only_intact_stacks_of_the_same_size() {
        drain_pool();
        let first = Stack::acquire(MIN_STACK_BYTES);
        let base = first.base;
        first.release();
        assert_eq!(pooled_stacks(), 1);
        let again = Stack::acquire(MIN_STACK_BYTES);
        assert_eq!(
            (again.base, pooled_stacks()),
            (base, 0),
            "same size: reused"
        );
        again.release();
        // Another size never gets it, and asking drains the mismatch.
        let bigger = Stack::acquire(2 * MIN_STACK_BYTES);
        assert_eq!(
            (bigger.layout.size(), pooled_stacks()),
            (2 * MIN_STACK_BYTES, 0)
        );
        // SAFETY: the canary word is inside the allocation.
        unsafe { (bigger.base as *mut u64).write(0) };
        bigger.release();
        assert_eq!(pooled_stacks(), 0, "an overflowed stack is never pooled");
    }

    #[test]
    fn in_task_reflects_context() {
        assert!(!in_task());
        let seen = std::cell::Cell::new(false);
        let mut t = unsafe {
            Task::new(
                MIN_STACK_BYTES,
                Box::new(|| {
                    seen.set(in_task());
                }),
            )
        };
        t.resume();
        assert!(!in_task());
        assert!(seen.get());
    }
}
