//! SIGINT/SIGTERM → graceful-shutdown flag, without a libc crate.
//!
//! The offline build cannot add `libc` or `signal-hook`, so the handler
//! is registered through a direct `extern "C"` binding to `signal(2)`.
//! The handler body does the only thing that is async-signal-safe here:
//! store into a static atomic. Each server's accept loop is the one
//! reader of [`shutdown_requested`]: it polls it between accepts and, the
//! first time it flips, sets that server's own stop flag, which is all
//! the rest of the server reads — new connections stop being accepted,
//! and in-flight and queued requests are answered.
//!
//! On non-Unix targets the flag still exists (tests and embedders call
//! [`request_shutdown`] directly); only the OS hookup is `cfg`-gated.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been received (or requested in-process).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the shutdown flag from normal (non-signal) code — used by tests
/// and by embedders that manage their own lifecycle.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Reset the flag (process-global; tests that exercise shutdown must be
/// serialized by the caller).
pub fn reset_for_test() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod os {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)` from the platform libc (always linked by std).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operation performed: one atomic store.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Install SIGINT/SIGTERM handlers that set the shutdown flag. Idempotent;
/// a no-op off Unix.
pub fn install_handlers() {
    #[cfg(unix)]
    os::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_for_test();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_test();
        assert!(!shutdown_requested());
    }
}
