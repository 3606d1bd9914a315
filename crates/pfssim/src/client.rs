//! The per-process PFS client: file descriptors, cursors, POSIX-style data
//! and metadata calls, and the read-observation log.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::Mutex;

use obs::fnv::{fnv1a64, FNV_OFFSET};

use crate::config::{PfsConfig, SemanticsModel};
use crate::engine;
use crate::error::{FsError, FsResult};
use crate::flags::{OpenFlags, Whence};
use crate::image::FileImage;
use crate::namespace::{normalize, DirEntry};
use crate::state::{lock_state, FileId, PfsState};
use crate::tag::{digest_runs, TagRun, WriteTag};

/// Result of a write: where it landed and its provenance tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOut {
    /// Resolved absolute file offset of the first byte.
    pub offset: u64,
    pub len: u64,
    pub tag: WriteTag,
    /// Extent locks acquired (non-zero only under strong semantics).
    pub locks: u64,
}

/// Result of a read: the bytes, where they came from, and a provenance
/// digest for cross-engine comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOut {
    /// Resolved absolute file offset of the first byte.
    pub offset: u64,
    pub data: Vec<u8>,
    /// Per-byte provenance, run-length encoded.
    pub tags: Vec<TagRun>,
    /// FNV digest of `tags` (and the returned length).
    pub digest: u64,
}

/// `stat`-style metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatInfo {
    pub is_dir: bool,
    /// Size as visible to the calling process (includes its own buffered
    /// writes).
    pub size: u64,
}

/// One entry of the read-observation log: enough to compare what the same
/// deterministic program observed under two different consistency engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Per-client sequence number of the read.
    pub op_idx: u64,
    pub file: FileId,
    pub offset: u64,
    pub len: u64,
    /// Digest of the provenance runs the read returned.
    pub digest: u64,
}

#[derive(Debug, Clone)]
struct FdEntry {
    file: FileId,
    path: String,
    flags: OpenFlags,
    /// The model this descriptor runs under ([`engine::effective`]).
    model: SemanticsModel,
    cursor: u64,
    /// Session-semantics open-time snapshot.
    snapshot: Option<Arc<FileImage>>,
}

/// A per-process client of one [`crate::Pfs`] instance.
///
/// Every data/metadata call takes `now`: the caller's simulated timestamp,
/// used by the eventual engine's propagation delay. Clients are not
/// thread-safe (one per simulated process, like a POSIX process's fd table).
pub struct PfsClient {
    state: Arc<Mutex<PfsState>>,
    cfg: PfsConfig,
    rank: u32,
    /// Unique client-instance (process) identity; owns this client's
    /// buffered writes.
    client_id: u64,
    fds: HashMap<u32, FdEntry>,
    next_fd: u32,
    cwd: String,
    observations: Vec<Observation>,
    next_obs: u64,
    /// One-shot lost-flush fault: when armed, the next fsync/fdatasync is
    /// recorded and counted as a commit but its publish is silently dropped
    /// (the flush never reached commit visibility).
    lost_flush_armed: bool,
}

impl PfsClient {
    pub(crate) fn new(state: Arc<Mutex<PfsState>>, cfg: PfsConfig, rank: u32) -> Self {
        let client_id = {
            let mut st = lock_state(&state);
            let id = st.next_client_id;
            st.next_client_id += 1;
            id
        };
        PfsClient {
            state,
            cfg,
            rank,
            client_id,
            fds: HashMap::new(),
            next_fd: 3, // 0-2 reserved, as in POSIX
            cwd: "/".to_string(),
            observations: Vec::new(),
            next_obs: 0,
            lost_flush_armed: false,
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn semantics(&self) -> SemanticsModel {
        self.cfg.semantics
    }

    /// The read-observation log accumulated so far.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.observations)
    }

    fn fd(&self, fd: u32) -> FsResult<&FdEntry> {
        self.fds.get(&fd).ok_or(FsError::BadFd { fd })
    }

    fn fd_mut(&mut self, fd: u32) -> FsResult<&mut FdEntry> {
        self.fds.get_mut(&fd).ok_or(FsError::BadFd { fd })
    }

    fn norm(&self, path: &str) -> FsResult<String> {
        normalize(&self.cwd, path)
    }

    /// The size of the file open as `e`, as this process sees it.
    fn visible_size(&self, st: &PfsState, e: &FdEntry) -> u64 {
        engine::visible_size(st, e.file, self.client_id, e.snapshot.as_ref())
    }

    /// The extent locks a data op of `len` bytes on `fd` takes: under the
    /// descriptor's model (`O_LAZY` takes none), or the file system's own
    /// if `fd` is not open. Reads only this client's descriptor table.
    pub fn lock_count(&self, fd: u32, len: u64) -> u64 {
        let model = self.fds.get(&fd).map_or(self.cfg.semantics, |e| e.model);
        engine::lock_count(&self.cfg, model, len)
    }

    // ------------------------------------------------------------------
    // Open / close
    // ------------------------------------------------------------------

    /// POSIX `open(2)`; what it does beyond the namespace is the engine's
    /// (`engine::open`: a session open snapshots the published image).
    pub fn open(&mut self, path: &str, flags: OpenFlags, now: u64) -> FsResult<u32> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.opens += 1;
        let existing = st.ns.lookup(&path);
        let file = match existing {
            Some(crate::namespace::Node::File(id)) => {
                if flags.create && flags.excl {
                    return Err(FsError::AlreadyExists { path });
                }
                id
            }
            Some(crate::namespace::Node::Dir) => {
                return Err(FsError::NotAFile { path });
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound { path });
                }
                let id = st.alloc_file();
                st.ns.create_file(&path, id)?;
                id
            }
        };
        if st.file(file).laminated && flags.write {
            return Err(FsError::Denied {
                detail: format!("{path} is laminated (read-only)"),
            });
        }
        if flags.truncate && flags.write {
            // Buffered state from earlier sessions is discarded too.
            st.file_mut(file).truncate(0);
        }
        let model = engine::effective(self.cfg.semantics, flags);
        let snapshot = engine::open(&mut st, &self.cfg, model, file, now);
        drop(st);
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FdEntry {
                file,
                path,
                flags,
                model,
                cursor: 0,
                snapshot,
            },
        );
        Ok(fd)
    }

    /// POSIX `close(2)`: publishes the process's buffered writes under
    /// commit and session semantics (`engine::close`).
    pub fn close(&mut self, fd: u32, _now: u64) -> FsResult<()> {
        let entry = self.fds.remove(&fd).ok_or(FsError::BadFd { fd })?;
        let mut st = lock_state(&self.state);
        st.stats.closes += 1;
        engine::close(&mut st, &self.cfg, entry.model, entry.file, self.client_id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data operations
    // ------------------------------------------------------------------

    /// POSIX `write(2)`: writes at the cursor (or at EOF under `O_APPEND`)
    /// and advances the cursor.
    pub fn write(&mut self, fd: u32, data: &[u8], now: u64) -> FsResult<WriteOut> {
        self.write_at(fd, None, data, now)
    }

    /// POSIX `pwrite(2)`: writes at `offset` without moving the cursor
    /// (and, per POSIX, ignoring `O_APPEND`).
    pub fn pwrite(&mut self, fd: u32, offset: u64, data: &[u8], now: u64) -> FsResult<WriteOut> {
        self.write_at(fd, Some(offset), data, now)
    }

    /// A write at `offset`, or, given none, what `write(2)` does: write at
    /// the cursor (at the visible end of file under `O_APPEND`) and
    /// advance it.
    fn write_at(
        &mut self,
        fd: u32,
        offset: Option<u64>,
        data: &[u8],
        now: u64,
    ) -> FsResult<WriteOut> {
        let e = self.fds.get_mut(&fd).ok_or(FsError::BadFd { fd })?;
        if !e.flags.write {
            return Err(FsError::Denied {
                detail: format!("fd {fd} not open for writing"),
            });
        }
        let mut st = lock_state(&self.state);
        if st.file(e.file).laminated {
            return Err(FsError::Denied {
                detail: format!("{} is laminated", e.path),
            });
        }
        let (client, snapshot) = (self.client_id, e.snapshot.as_ref());
        let at = match offset {
            Some(off) => off,
            None if e.flags.append => engine::visible_size(&st, e.file, client, snapshot),
            None => e.cursor,
        };
        let (tag, locks) = engine::write(
            &mut st, &self.cfg, e.model, client, self.rank, e.file, at, data, now,
        );
        let len = data.len() as u64;
        if offset.is_none() {
            e.cursor = at + len;
        }
        Ok(WriteOut {
            offset: at,
            len,
            tag,
            locks,
        })
    }

    /// POSIX `read(2)`: reads at the cursor, advances it by the bytes
    /// actually read (short reads at EOF, like POSIX).
    pub fn read(&mut self, fd: u32, len: u64, now: u64) -> FsResult<ReadOut> {
        let offset = self.fd(fd)?.cursor;
        let out = self.read_at(fd, offset, len, now)?;
        self.fd_mut(fd)?.cursor = offset + out.data.len() as u64;
        Ok(out)
    }

    /// POSIX `pread(2)`: reads at `offset` without moving the cursor.
    pub fn pread(&mut self, fd: u32, offset: u64, len: u64, now: u64) -> FsResult<ReadOut> {
        self.read_at(fd, offset, len, now)
    }

    fn read_at(&mut self, fd: u32, offset: u64, len: u64, now: u64) -> FsResult<ReadOut> {
        let client_id = self.client_id;
        let cfg = self.cfg;
        let entry = self.fds.get(&fd).ok_or(FsError::BadFd { fd })?;
        if !entry.flags.read {
            return Err(FsError::Denied {
                detail: format!("fd {fd} not open for reading"),
            });
        }
        let model = entry.model;
        let file = entry.file;
        let snapshot = entry.snapshot.clone();
        let mut st = lock_state(&self.state);
        st.stats.reads += 1;
        let (data, tags) = engine::read(
            &mut st,
            &cfg,
            model,
            client_id,
            self.rank,
            file,
            offset,
            len,
            snapshot.as_ref(),
            now,
        );
        st.stats.bytes_read += data.len() as u64;
        let stripe = cfg.stripe_size;
        st.stats
            .stripe_account(offset, data.len() as u64, stripe, false);
        drop(st);
        // FNV-1a over the read's length, then its provenance runs.
        let len_hash = fnv1a64(FNV_OFFSET, &(data.len() as u64).to_le_bytes());
        let digest = digest_runs(len_hash, &tags);
        self.observations.push(Observation {
            op_idx: self.next_obs,
            file,
            offset,
            len,
            digest,
        });
        self.next_obs += 1;
        Ok(ReadOut {
            offset,
            data,
            tags,
            digest,
        })
    }

    /// POSIX `lseek(2)`.
    pub fn lseek(&mut self, fd: u32, offset: i64, whence: Whence, _now: u64) -> FsResult<u64> {
        let entry = self.fd(fd)?;
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => entry.cursor as i64,
            Whence::End => self.visible_size(&lock_state(&self.state), entry) as i64,
        };
        let pos = base + offset;
        if pos < 0 {
            return Err(FsError::Invalid {
                detail: format!("seek to negative offset {pos}"),
            });
        }
        let entry = self.fds.get_mut(&fd).ok_or(FsError::BadFd { fd })?;
        entry.cursor = pos as u64;
        Ok(entry.cursor)
    }

    /// POSIX `fsync(2)`: a commit, which publishes this process's
    /// buffered writes under commit semantics only (`engine::fsync`).
    pub fn fsync(&mut self, fd: u32, _now: u64) -> FsResult<()> {
        let entry = self.fd(fd)?;
        let (model, file) = (entry.model, entry.file);
        let lost = std::mem::take(&mut self.lost_flush_armed);
        let mut st = lock_state(&self.state);
        engine::fsync(&mut st, &self.cfg, model, file, self.client_id, lost);
        Ok(())
    }

    /// Arm a one-shot *lost flush* fault: the next fsync/fdatasync returns
    /// success and counts as a commit, but the publish silently never
    /// happens — the canonical "fsync lied" failure the commit-semantics
    /// verdicts must survive. Injected by the fault harness.
    pub fn arm_lost_flush(&mut self) {
        self.lost_flush_armed = true;
    }

    /// Discard every buffered (pending) extent this client owns, across all
    /// files. Called when the owning simulated process fail-stops: a crashed
    /// process's un-published writes can never become visible, exactly as a
    /// real commit/session PFS would lose a client's write-back cache. The
    /// outcome is deterministic — pending data is invisible to other
    /// processes until publish, and a dead owner can no longer publish.
    pub fn discard_pending(&mut self) {
        let mut st = lock_state(&self.state);
        for node in &mut st.files {
            node.pending.remove(&self.client_id);
        }
    }

    /// POSIX `fdatasync(2)`: same visibility behaviour as [`Self::fsync`].
    pub fn fdatasync(&mut self, fd: u32, now: u64) -> FsResult<()> {
        self.fsync(fd, now)
    }

    /// UnifyFS-style lamination: publish everything (all processes) and
    /// make the file permanently read-only.
    pub fn laminate(&mut self, path: &str, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        let file = st.ns.expect_file(&path)?;
        st.stats.commits += 1;
        engine::publish_all(&mut st, &self.cfg, file);
        st.file_mut(file).laminated = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Metadata operations
    // ------------------------------------------------------------------

    /// POSIX `stat(2)` (also used for `stat64`).
    pub fn stat(&mut self, path: &str, _now: u64) -> FsResult<StatInfo> {
        self.stat_counted("stat", path)
    }

    /// POSIX `lstat(2)` — identical to `stat` here (no symlinks), but
    /// counted under its own name.
    pub fn lstat(&mut self, path: &str, _now: u64) -> FsResult<StatInfo> {
        self.stat_counted("lstat", path)
    }

    fn stat_counted(&mut self, name: &'static str, path: &str) -> FsResult<StatInfo> {
        let path = self.norm(path)?;
        let client_id = self.client_id;
        let mut st = lock_state(&self.state);
        st.stats.count_meta(name);
        match st.ns.lookup(&path) {
            Some(crate::namespace::Node::Dir) => Ok(StatInfo {
                is_dir: true,
                size: 0,
            }),
            Some(crate::namespace::Node::File(id)) => {
                let size = engine::visible_size(&st, id, client_id, None);
                Ok(StatInfo {
                    is_dir: false,
                    size,
                })
            }
            None => Err(FsError::NotFound { path }),
        }
    }

    /// POSIX `fstat(2)`.
    pub fn fstat(&mut self, fd: u32, _now: u64) -> FsResult<StatInfo> {
        let entry = self.fd(fd)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("fstat");
        let size = self.visible_size(&st, entry);
        Ok(StatInfo {
            is_dir: false,
            size,
        })
    }

    /// POSIX `access(2)` — existence check.
    pub fn access(&mut self, path: &str, _now: u64) -> FsResult<bool> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("access");
        Ok(st.ns.exists(&path))
    }

    pub fn mkdir(&mut self, path: &str, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("mkdir");
        st.ns.mkdir(&path)
    }

    pub fn rmdir(&mut self, path: &str, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("rmdir");
        st.ns.rmdir(&path)
    }

    pub fn unlink(&mut self, path: &str, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("unlink");
        st.ns.unlink(&path).map(|_| ())
    }

    pub fn rename(&mut self, from: &str, to: &str, _now: u64) -> FsResult<()> {
        let from = self.norm(from)?;
        let to = self.norm(to)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("rename");
        st.ns.rename(&from, &to)
    }

    pub fn getcwd(&mut self, _now: u64) -> String {
        let mut st = lock_state(&self.state);
        st.stats.count_meta("getcwd");
        self.cwd.clone()
    }

    pub fn chdir(&mut self, path: &str, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("chdir");
        st.ns.expect_dir(&path)?;
        drop(st);
        self.cwd = path;
        Ok(())
    }

    /// `opendir` + N×`readdir` + `closedir`, counted individually for the
    /// metadata census; returns the entries.
    pub fn readdir(&mut self, path: &str, _now: u64) -> FsResult<Vec<DirEntry>> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("opendir");
        let entries = st.ns.list(&path)?;
        for _ in &entries {
            st.stats.count_meta("readdir");
        }
        st.stats.count_meta("closedir");
        Ok(entries)
    }

    /// POSIX `truncate(2)`. Truncation acts on the published image
    /// immediately (metadata operations keep strong semantics, per the
    /// paper's scoping in §3) and discards buffered extents beyond the new
    /// length.
    pub fn truncate(&mut self, path: &str, len: u64, _now: u64) -> FsResult<()> {
        let path = self.norm(path)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("truncate");
        let file = st.ns.expect_file(&path)?;
        st.file_mut(file).truncate(len);
        let published = Arc::clone(&st.file(file).published);
        drop(st);
        self.refresh_own_snapshots(file, &published);
        Ok(())
    }

    /// POSIX `ftruncate(2)`.
    pub fn ftruncate(&mut self, fd: u32, len: u64, _now: u64) -> FsResult<()> {
        let entry = self.fd(fd)?;
        let file = entry.file;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("ftruncate");
        st.file_mut(file).truncate(len);
        let published = Arc::clone(&st.file(file).published);
        drop(st);
        self.refresh_own_snapshots(file, &published);
        Ok(())
    }

    /// After this process truncates a file, its *own* session snapshots of
    /// that file are refreshed (a local cache update, as an NFS client would
    /// do). Other processes' open sessions are untouched: close-to-open
    /// still governs cross-process visibility.
    fn refresh_own_snapshots(&mut self, file: FileId, published: &Arc<FileImage>) {
        for entry in self.fds.values_mut() {
            if entry.file == file && entry.snapshot.is_some() {
                entry.snapshot = Some(Arc::clone(published));
            }
        }
    }

    /// POSIX `dup(2)`. Deviation from POSIX: the duplicate gets an
    /// independent cursor (a shared open-file description is not modelled);
    /// none of the studied applications relies on cursor sharing.
    pub fn dup(&mut self, fd: u32, _now: u64) -> FsResult<u32> {
        let entry = self.fd(fd)?.clone();
        let mut st = lock_state(&self.state);
        st.stats.count_meta("dup");
        drop(st);
        let new_fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(new_fd, entry);
        Ok(new_fd)
    }

    /// POSIX `fcntl(2)` — counted no-op (the studied applications use it
    /// only for flag queries).
    pub fn fcntl(&mut self, fd: u32, _now: u64) -> FsResult<()> {
        self.fd(fd)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("fcntl");
        Ok(())
    }

    /// `umask` — counted no-op.
    pub fn umask(&mut self, _mask: u32, _now: u64) {
        let mut st = lock_state(&self.state);
        st.stats.count_meta("umask");
    }

    /// `fileno` — counted no-op (stdio fd query).
    pub fn fileno(&mut self, fd: u32, _now: u64) -> FsResult<u32> {
        self.fd(fd)?;
        let mut st = lock_state(&self.state);
        st.stats.count_meta("fileno");
        Ok(fd)
    }

    /// `mmap` of a file region, modelled as a counted read without cursor
    /// movement (LBANN-style dataset mapping).
    pub fn mmap(&mut self, fd: u32, offset: u64, len: u64, now: u64) -> FsResult<ReadOut> {
        {
            let mut st = lock_state(&self.state);
            st.stats.count_meta("mmap");
        }
        self.read_at(fd, offset, len, now)
    }

    /// `msync`: counted, with the visibility effect of `fsync`.
    pub fn msync(&mut self, fd: u32, now: u64) -> FsResult<()> {
        {
            let mut st = lock_state(&self.state);
            st.stats.count_meta("msync");
        }
        self.fsync(fd, now)
    }

    /// Open fds (diagnostics; a well-behaved app closes everything).
    pub fn open_fds(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.fds.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The current cursor of `fd` (testing aid).
    pub fn cursor(&self, fd: u32) -> FsResult<u64> {
        Ok(self.fd(fd)?.cursor)
    }
}
