//! Single-writer lock file.
//!
//! Two live processes appending to one journal would interleave frames
//! and corrupt each other's tails, so `Store::open` first takes an
//! exclusive lock from the kernel (`File::try_lock`) on `dir/LOCK`. The
//! kernel releases it when the holder closes the file or dies, SIGKILL
//! included, so there is nothing stale to detect or reclaim and the file
//! itself is never deleted. Locks on two opens of one file conflict even
//! within a process, which guards against two `Store`s over one
//! directory in-process. The holder writes its pid into the file for the
//! refusal's error message only; an empty or garbage file reads as 0.

use std::fs::{File, TryLockError};
use std::io::Write;
use std::path::Path;

/// Held for the lifetime of the store; closing the file releases it.
#[derive(Debug)]
pub struct LockFile {
    _file: File,
}

impl LockFile {
    /// Lock `dir/LOCK`. `Err` carries the holder pid when the directory
    /// is busy.
    pub fn acquire(dir: &Path) -> Result<LockFile, Result<u32, std::io::Error>> {
        let path = dir.join("LOCK");
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(Err)?;
        match file.try_lock() {
            Ok(()) => {
                // Rewrite the pid only once the lock is ours: truncating
                // at open would blank a live holder's pid.
                let _ = file.set_len(0);
                let _ = file.write_all(std::process::id().to_string().as_bytes());
                Ok(LockFile { _file: file })
            }
            Err(TryLockError::WouldBlock) => {
                let holder = std::fs::read_to_string(&path).unwrap_or_default();
                Err(Ok(holder.trim().parse().unwrap_or(0)))
            }
            Err(TryLockError::Error(e)) => Err(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("store-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn second_acquire_in_same_process_is_refused() {
        let dir = tmpdir("self");
        let lock = LockFile::acquire(&dir).unwrap();
        match LockFile::acquire(&dir) {
            Err(Ok(pid)) => assert_eq!(pid, std::process::id()),
            other => panic!("expected busy lock, got {other:?}"),
        }
        drop(lock);
        // Released on drop: a fresh acquire succeeds.
        LockFile::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_reclaimed() {
        let dir = tmpdir("stale");
        // A pid no live process has, in a file nobody holds a lock on.
        std::fs::write(dir.join("LOCK"), b"0").unwrap();
        LockFile::acquire(&dir).expect("stale lock reclaimed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_lock_is_reclaimed() {
        let dir = tmpdir("garbage");
        std::fs::write(dir.join("LOCK"), b"not a pid").unwrap();
        LockFile::acquire(&dir).expect("garbage lock reclaimed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_refusal_names_a_garbage_holder_as_zero() {
        let dir = tmpdir("garbage-holder");
        let lock = LockFile::acquire(&dir).unwrap();
        std::fs::write(dir.join("LOCK"), b"not a pid").unwrap();
        match LockFile::acquire(&dir) {
            Err(Ok(pid)) => assert_eq!(pid, 0),
            other => panic!("expected busy lock, got {other:?}"),
        }
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
