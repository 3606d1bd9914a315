//! Global PFS state: the inode table, pending-write buffers, and the
//! top-level [`Pfs`] handle.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use std::sync::Mutex;

use crate::client::PfsClient;
use crate::config::{PfsConfig, SemanticsModel};
use crate::engine;
use crate::error::FsResult;
use crate::image::FileImage;
use crate::namespace::Namespace;
use crate::stats::PfsStats;
use crate::tag::WriteTag;

/// Opaque file identity (inode number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

impl FileId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A buffered write that is not yet globally visible.
#[derive(Debug, Clone)]
pub(crate) struct PendingExtent {
    pub off: u64,
    /// The write's one copy of its bytes; a publish hands it to the image.
    pub data: Arc<[u8]>,
    pub tag: WriteTag,
}

/// An eventual-semantics write waiting out its propagation delay.
#[derive(Debug, Clone)]
pub(crate) struct DelayedExtent {
    pub mature_at: u64,
    /// Owning client instance (see `PfsState::next_client_id`).
    pub owner: u64,
    pub off: u64,
    pub data: Arc<[u8]>,
    pub tag: WriteTag,
}

/// One file's server-side state.
#[derive(Debug)]
pub(crate) struct FileNode {
    /// The globally visible image. `Arc` so session opens can snapshot it
    /// in O(1); publishing clones on demand (`Arc::make_mut`).
    pub published: Arc<FileImage>,
    /// Laminated (UnifyFS): permanently read-only.
    pub laminated: bool,
    /// Buffered writes per *client instance* (commit / session engines),
    /// in write order. Keyed by client id, not rank: two jobs of a
    /// workflow may reuse rank numbers, and one job's buffered writes must
    /// not become another process's "own" data. Ordered, so a publish of
    /// every owner goes in creation order.
    pub pending: BTreeMap<u64, Vec<PendingExtent>>,
    /// Delay queue (eventual engine), FIFO in global write order.
    pub delayed: VecDeque<DelayedExtent>,
}

impl FileNode {
    pub fn new() -> Self {
        FileNode {
            published: Arc::new(FileImage::new()),
            laminated: false,
            pending: BTreeMap::new(),
            delayed: VecDeque::new(),
        }
    }

    /// Extents buffered and not yet visible: pending under any owner, plus
    /// the eventual engine's delay queue.
    fn buffered(&self) -> u64 {
        self.pending.values().map(|v| v.len() as u64).sum::<u64>() + self.delayed.len() as u64
    }

    /// Truncate (or extend with a hole) to `len`: the published image at
    /// once, and every buffered extent clipped to end by `len`, dropped if
    /// nothing of it is left.
    pub fn truncate(&mut self, len: u64) {
        Arc::make_mut(&mut self.published).truncate(len);
        let clip = |off: u64, data: &mut Arc<[u8]>| {
            let keep = len.saturating_sub(off).min(data.len() as u64) as usize;
            if keep < data.len() {
                *data = Arc::from(&data[..keep]);
            }
            keep > 0
        };
        for extents in self.pending.values_mut() {
            extents.retain_mut(|e| clip(e.off, &mut e.data));
        }
        self.delayed.retain_mut(|e| clip(e.off, &mut e.data));
    }
}

pub(crate) struct PfsState {
    pub files: Vec<FileNode>,
    pub ns: Namespace,
    pub stats: PfsStats,
    /// Per-rank write sequence counters, indexed by rank. Per-rank (not
    /// global) so that a write's tag depends only on the issuing rank's
    /// program order — identical logical writes get identical tags
    /// regardless of how the scheduler interleaved the engines' differing
    /// latencies.
    pub next_write_seq: Vec<u64>,
    /// Client-instance id allocator (a POSIX process identity: every
    /// `Pfs::client` call creates a new one).
    pub next_client_id: u64,
}

/// Poison-tolerant lock acquisition. A simulated rank that fail-stops
/// (controlled unwind) may hold this lock's poison flag; the shared state
/// itself is still consistent — every mutation completes before the guard
/// drops — so survivors keep going instead of cascading panics.
pub(crate) fn lock_state(m: &Mutex<PfsState>) -> std::sync::MutexGuard<'_, PfsState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl PfsState {
    pub fn file(&self, id: FileId) -> &FileNode {
        &self.files[id.index()]
    }

    pub fn file_mut(&mut self, id: FileId) -> &mut FileNode {
        &mut self.files[id.index()]
    }

    pub fn alloc_file(&mut self) -> FileId {
        self.files.push(FileNode::new());
        FileId((self.files.len() - 1) as u32)
    }
}

/// A simulated parallel file system instance. Cheap to clone handles from
/// ([`Pfs::client`]); all state is shared — cloning the `Pfs` itself
/// yields another handle to the *same* file system (jobs of a workflow
/// share one instance).
pub struct Pfs {
    pub(crate) state: Arc<Mutex<PfsState>>,
    pub(crate) cfg: PfsConfig,
}

impl Clone for Pfs {
    fn clone(&self) -> Self {
        Pfs {
            state: Arc::clone(&self.state),
            cfg: self.cfg,
        }
    }
}

impl Pfs {
    pub fn new(cfg: PfsConfig) -> Self {
        let stats = PfsStats::new(cfg.data_servers);
        Pfs {
            state: Arc::new(Mutex::new(PfsState {
                files: Vec::new(),
                ns: Namespace::new(),
                stats,
                next_write_seq: Vec::new(),
                next_client_id: 0,
            })),
            cfg,
        }
    }

    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    pub fn semantics(&self) -> SemanticsModel {
        self.cfg.semantics
    }

    /// A client handle for `rank`. Each simulated process owns one.
    pub fn client(&self, rank: u32) -> PfsClient {
        PfsClient::new(Arc::clone(&self.state), self.cfg, rank)
    }

    /// Snapshot of the server statistics.
    pub fn stats(&self) -> PfsStats {
        let st = lock_state(&self.state);
        PfsStats {
            pending_extents: st.files.iter().map(FileNode::buffered).sum(),
            ..st.stats.clone()
        }
    }

    /// Force-propagate everything: on every file, mature all delayed
    /// writes and publish every client's pending writes, client by client
    /// in creation order (`engine::publish_all`). Used at end of run so
    /// the final on-disk state can be inspected regardless of engine.
    pub fn quiesce(&self) {
        let _span = obs::span("pfssim", "quiesce");
        let mut st = lock_state(&self.state);
        for idx in 0..st.files.len() {
            engine::publish_all(&mut st, &self.cfg, FileId(idx as u32));
        }
        // Mirror this instance's counters into the shared registry: once
        // per run, after the final propagation, so the global totals are
        // deterministic. Reports keep reading the per-instance stats.
        if obs::metrics_enabled() {
            st.stats.publish_to(obs::metrics());
        }
    }

    /// The published image of `path` (call [`Pfs::quiesce`] first if the
    /// run used a buffering engine and you want the final state).
    pub fn published_image(&self, path: &str) -> FsResult<FileImage> {
        let st = lock_state(&self.state);
        let norm = crate::namespace::normalize("/", path)?;
        let id = st.ns.expect_file(&norm)?;
        Ok((*st.file(id).published).clone())
    }

    /// All file paths currently bound in the namespace, sorted.
    pub fn list_files(&self) -> Vec<String> {
        let st = lock_state(&self.state);
        let mut out = Vec::new();
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            if let Ok(entries) = st.ns.list(&dir) {
                for e in entries {
                    let full = if dir == "/" {
                        format!("/{}", e.name)
                    } else {
                        format!("{}/{}", dir, e.name)
                    };
                    if e.is_dir {
                        stack.push(full);
                    } else {
                        out.push(full);
                    }
                }
            }
        }
        out.sort();
        out
    }
}
