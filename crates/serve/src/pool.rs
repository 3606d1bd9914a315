//! Fixed worker pool with a bounded queue and explicit backpressure.
//!
//! The accept loop hands each connection to [`WorkerPool::try_submit`].
//! When every worker is busy and the queue is at capacity the submit
//! *fails* — the caller answers 503 + `Retry-After` instead of queueing
//! unboundedly, which is the whole point: under overload the server sheds
//! load at the door with a cheap response rather than stacking up latency
//! until clients time out anyway.
//!
//! Shutdown is graceful by construction: [`WorkerPool::shutdown`] stops
//! accepting new jobs, wakes every worker, and joins them — each worker
//! finishes its in-flight job and then drains whatever is still queued
//! before exiting. A panicking job is caught and counted, never allowed
//! to take its worker thread down.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    wake: Condvar,
    queue_cap: usize,
}

/// The pool; dropping it without [`WorkerPool::shutdown`] also drains.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
    /// Observed by connection handlers to close keep-alive sessions
    /// promptly once shutdown begins.
    draining: Arc<AtomicBool>,
}

/// Submit rejection: the queue is full. Carries the job back so the
/// caller may retry or respond 503.
pub struct QueueFull(pub Job);

impl std::fmt::Debug for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueueFull(..)")
    }
}

impl WorkerPool {
    /// Spawn `workers` threads sharing a queue bounded at `queue_cap`
    /// jobs (both forced to at least 1).
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutting_down: false,
            }),
            wake: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let draining = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            inner,
            workers,
            draining,
        }
    }

    /// Queue a job. Returns the queue depth *after* enqueueing, or the
    /// job back if the queue is full or the pool is shutting down.
    pub fn try_submit(&self, job: Job) -> Result<usize, QueueFull> {
        let mut state = self.inner.state.lock().unwrap();
        if state.shutting_down || state.queue.len() >= self.inner.queue_cap {
            return Err(QueueFull(job));
        }
        state.queue.push_back(job);
        let depth = state.queue.len();
        drop(state);
        self.inner.wake.notify_one();
        Ok(depth)
    }

    /// Jobs currently queued (not counting in-flight ones).
    pub fn queued(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Flag connection handlers should poll to stop serving keep-alive
    /// requests once shutdown begins.
    pub fn draining_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Stop accepting work, finish everything in flight and queued, and
    /// join every worker: what dropping the pool does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.inner.state.lock().unwrap().shutting_down = true;
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = inner.wake.wait(state).unwrap();
            }
        };
        // A handler panic must not kill the worker; it is recorded and the
        // pool keeps serving (the connection drops, which the peer sees as
        // a reset — never a hung server).
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            obs::error!("serve: connection handler panicked (worker survives)");
            if obs::metrics_enabled() {
                obs::metrics().add("serve.handler_panics", 1);
            }
            // Crash forensics: the router's PanicTrap already stamped the
            // dying request's id into the ring; persist the whole ring
            // while the trail is hot.
            obs::flight::dump_postmortem("handler-panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn rejects_when_queue_full_then_recovers() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker until released.
        let g = Arc::clone(&gate);
        pool.try_submit(Box::new(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }))
        .unwrap();
        // Wait until the worker picked the blocker up, then fill the queue.
        while pool.queued() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.try_submit(Box::new(|| {})).unwrap();
        // Queue (cap 1) now full ⇒ rejection.
        assert!(pool.try_submit(Box::new(|| {})).is_err());
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "queued jobs drain");
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(Box::new(|| panic!("boom"))).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.try_submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
