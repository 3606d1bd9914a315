//! SIGINT/SIGTERM → process-wide shutdown flag, without a libc crate.
//!
//! The offline build cannot add `libc` or `signal-hook`, so the handler
//! is registered through a direct `extern "C"` binding to `signal(2)`.
//! The handler body does the only thing that is async-signal-safe here:
//! store into a static atomic. It cannot wake a thread, so whoever
//! waits on the flag polls it. `report serve`'s main loop is the one
//! reader of [`shutdown_requested`]: it checks it every 50 ms and, the
//! first time it flips, shuts the server down through its handle, which
//! answers in-flight and queued requests. No server reads the flag.
//!
//! Off Unix the flag still exists; only the OS hookup is `cfg`-gated.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT or SIGTERM has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
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
