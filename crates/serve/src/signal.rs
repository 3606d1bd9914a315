//! SIGINT/SIGTERM → one byte on a self-pipe, without a libc crate.
//!
//! The offline build cannot add `libc` or `signal-hook`, so `signal(2)`
//! and `write(2)` are bound through a direct `extern "C"` block. The
//! handler does the one async-signal-safe thing it needs: it writes one
//! byte to the pipe [`install_handlers`] made. `report serve`'s main
//! thread blocks in [`wait_for_shutdown`] reading the other end, so an
//! idle server's main thread never wakes, and then shuts the server down
//! through its handle, which answers in-flight and queued requests. No
//! server reads the pipe.
//!
//! Off Unix no handler is installed and the wait blocks forever.

#[cfg(unix)]
mod os {
    use std::io::{PipeReader, Read};
    use std::os::fd::IntoRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// The pipe's write end, never closed, so the reader never sees EOF.
    /// The reader takes the first byte and the process exits, so later
    /// signals cannot fill the pipe.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    static READER: OnceLock<PipeReader> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        // SAFETY: one byte from a live local to the fd stored before the
        // handler was installed.
        unsafe { write(WAKE_FD.load(Ordering::Relaxed), &1u8, 1) };
    }

    pub fn install() {
        READER.get_or_init(|| {
            let (reader, writer) = std::io::pipe().expect("serve: cannot create the signal pipe");
            WAKE_FD.store(writer.into_raw_fd(), Ordering::Relaxed);
            let handler = on_signal as extern "C" fn(i32) as *const () as usize;
            unsafe {
                signal(SIGINT, handler);
                signal(SIGTERM, handler);
            }
            reader
        });
    }

    pub fn wait() {
        let reader = READER
            .get()
            .expect("install_handlers before wait_for_shutdown");
        // `read_exact` retries `EINTR`; any other error shuts down too.
        let _ = (&*reader).read_exact(&mut [0u8]);
    }
}

/// Install SIGINT/SIGTERM handlers that write to the shutdown pipe.
/// Idempotent; a no-op off Unix.
pub fn install_handlers() {
    #[cfg(unix)]
    os::install();
}

/// Block until SIGINT or SIGTERM arrives (forever off Unix). Call
/// [`install_handlers`] first.
pub fn wait_for_shutdown() {
    #[cfg(unix)]
    os::wait();
    #[cfg(not(unix))]
    loop {
        std::thread::park();
    }
}
