//! The consistency engines: what open, write, read, fsync and close do
//! under each of the paper's four semantics categories (§3). This module
//! is the one place a model is decided; the client resolves a descriptor's
//! model once, at open, and hands it here.
//!
//! | model    | a write goes to           | what publishes it                         | a read's base image        | locks                                             |
//! |----------|---------------------------|-------------------------------------------|----------------------------|---------------------------------------------------|
//! | strong   | the published image       | the write itself                          | the published image        | yes; a byte's holder is its last published writer |
//! | commit   | the writer's pending list | `fsync` / `fdatasync` / `msync`, `close`  | the published image        | no                                                |
//! | session  | the writer's pending list | `close` (`fsync` persists only)           | the snapshot taken at open | no                                                |
//! | eventual | the delay queue           | time: `eventual_delay_ns` after the write | the published image        | no                                                |
//!
//! A strong data op takes ceil(len / `lock_granularity`) extent locks and
//! counts a revocation for every run of the range that another rank holds.
//! The write lock of a byte is held by the rank that last wrote it in the
//! published image, so a truncated range has no holder, and a published
//! `O_LAZY` write makes its writer the holder. A delayed extent matures
//! when an open or a read finds it due. A process's buffered writes
//! overlay its base image in write order, whichever descriptor wrote
//! them, so every engine is read-your-writes. `O_LAZY` runs a descriptor
//! of a strong file system under commit ([`effective`]). Lamination and
//! the end of a run publish everything ([`publish_all`]).

use std::sync::Arc;

use crate::config::{PfsConfig, SemanticsModel};
use crate::flags::OpenFlags;
use crate::image::FileImage;
use crate::state::{DelayedExtent, FileId, PendingExtent, PfsState};
use crate::tag::{TagRun, WriteTag};

/// The model a descriptor opened with `flags` runs under on a file
/// system of model `fs`: `O_LAZY` downgrades strong to commit (the §2.2
/// tunable-consistency extension) and never strengthens a relaxed model.
pub(crate) fn effective(fs: SemanticsModel, flags: OpenFlags) -> SemanticsModel {
    match fs {
        SemanticsModel::Strong if flags.lazy => SemanticsModel::Commit,
        _ => fs,
    }
}

/// What an open under `model` does to `file` at `now`: an eventual open
/// first matures the extents due, and a session open returns the snapshot
/// its reads will see (close-to-open: exactly the sessions closed before
/// it).
pub(crate) fn open(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    file: FileId,
    now: u64,
) -> Option<Arc<FileImage>> {
    match model {
        SemanticsModel::Session => Some(Arc::clone(&st.file(file).published)),
        SemanticsModel::Eventual => {
            mature_delayed(st, cfg, file, now);
            None
        }
        SemanticsModel::Strong | SemanticsModel::Commit => None,
    }
}

/// What a close under `model` does: a close is a commit, and the end of a
/// session, so both publish the client's pending writes.
pub(crate) fn close(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    file: FileId,
    client: u64,
) {
    match model {
        SemanticsModel::Commit | SemanticsModel::Session => publish_client(st, cfg, file, client),
        SemanticsModel::Strong | SemanticsModel::Eventual => {}
    }
}

/// What an fsync under `model` does: it counts as a commit everywhere,
/// and publishes the client's pending writes only under commit — session
/// visibility still waits for close-to-open, and eventual propagation is
/// not accelerated. A `lost` flush (an injected fault) publishes nothing.
pub(crate) fn fsync(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    file: FileId,
    client: u64,
    lost: bool,
) {
    st.stats.commits += 1;
    match model {
        SemanticsModel::Commit if !lost => publish_client(st, cfg, file, client),
        _ => {}
    }
}

/// The extent locks a data op of `len` bytes takes under `model`.
pub(crate) fn lock_count(cfg: &PfsConfig, model: SemanticsModel, len: u64) -> u64 {
    match model {
        SemanticsModel::Strong => len.div_ceil(cfg.lock_granularity),
        SemanticsModel::Commit | SemanticsModel::Session | SemanticsModel::Eventual => 0,
    }
}

/// Take the locks of a data op by `rank` on `[off, off+len)` of `file`:
/// count them, and count a revocation for every run of the range whose
/// last writer in the published image is a *different* rank (rank stands
/// in for the client node, as Lustre grants locks per client). Returns
/// the locks taken.
fn lock(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    file: FileId,
    rank: u32,
    off: u64,
    len: u64,
) -> u64 {
    let locks = lock_count(cfg, model, len);
    if locks > 0 {
        let revocations = st
            .file(file)
            .published
            .writer_runs(off, off + len)
            .filter(|&(_, _, r)| r != rank)
            .count() as u64;
        st.stats.locks_acquired += locks;
        st.stats.lock_revocations += revocations;
    }
    locks
}

/// Record a write of `data` at `off` by `rank` at simulated time `now`.
/// Returns `(tag, locks_acquired)`. The bytes are copied once: into the
/// published image's extent (strong), or into the buffered extent that a
/// publish later hands to the image as is.
#[allow(clippy::too_many_arguments)] // explicit engine inputs beat a param struct here
pub(crate) fn write(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    client: u64,
    rank: u32,
    file: FileId,
    off: u64,
    data: &[u8],
    now: u64,
) -> (WriteTag, u64) {
    let r = rank as usize;
    if st.next_write_seq.len() <= r {
        st.next_write_seq.resize(r + 1, 0);
    }
    let seq = st.next_write_seq[r];
    st.next_write_seq[r] += 1;
    let tag = WriteTag { rank, seq };
    let len = data.len() as u64;
    st.stats.writes += 1;
    st.stats.bytes_written += len;
    let locks = lock(st, cfg, model, file, rank, off, len);

    match model {
        SemanticsModel::Strong => {
            st.stats.stripe_account(off, len, cfg.stripe_size, true);
            Arc::make_mut(&mut st.file_mut(file).published).apply(off, data, tag);
        }
        SemanticsModel::Commit | SemanticsModel::Session => {
            // Buffered until publish: this engine must own the bytes.
            let node = st.file_mut(file);
            node.pending.entry(client).or_default().push(PendingExtent {
                off,
                data: Arc::from(data),
                tag,
            });
        }
        SemanticsModel::Eventual => {
            let node = st.file_mut(file);
            node.delayed.push_back(DelayedExtent {
                mature_at: now + cfg.eventual_delay_ns,
                owner: client,
                off,
                data: Arc::from(data),
                tag,
            });
        }
    }
    (tag, locks)
}

/// Publish every pending extent of `client` on `file`, in write order.
/// With `same_process_ordering` disabled (the BurstFS anomaly), the
/// extents are applied in *reverse* order, so a read following two
/// same-process writes to the same bytes can observe the older one.
fn publish_client(st: &mut PfsState, cfg: &PfsConfig, file: FileId, client: u64) {
    let PfsState { files, stats, .. } = st;
    let node = &mut files[file.index()];
    let Some(mut extents) = node.pending.remove(&client) else {
        return;
    };
    if !cfg.same_process_ordering {
        extents.reverse();
    }
    let n = extents.len() as u64;
    let img = Arc::make_mut(&mut node.published);
    for e in extents {
        stats.stripe_account(e.off, e.data.len() as u64, cfg.stripe_size, true);
        img.apply_shared(e.off, e.data, e.tag);
    }
    stats.publishes += n;
}

/// Publish everything buffered on `file`, whatever the model: every
/// delayed extent in global write order, then every client's pending
/// extents, client by client in ascending id (creation order), each in
/// its write order — so where two clients' unpublished writes overlap,
/// the later-created client's bytes win on every run.
pub(crate) fn publish_all(st: &mut PfsState, cfg: &PfsConfig, file: FileId) {
    mature_delayed(st, cfg, file, u64::MAX);
    while let Some(&client) = st.file(file).pending.keys().next() {
        publish_client(st, cfg, file, client);
    }
}

/// Apply every delayed (eventual-semantics) extent whose propagation delay
/// has elapsed by `now`, in global write order.
fn mature_delayed(st: &mut PfsState, cfg: &PfsConfig, file: FileId, now: u64) {
    let PfsState { files, stats, .. } = st;
    let node = &mut files[file.index()];
    let due = node
        .delayed
        .iter()
        .take_while(|e| e.mature_at <= now)
        .count();
    if due == 0 {
        return;
    }
    let img = Arc::make_mut(&mut node.published);
    for e in node.delayed.drain(..due) {
        stats.stripe_account(e.off, e.data.len() as u64, cfg.stripe_size, true);
        img.apply_shared(e.off, e.data, e.tag);
    }
    stats.publishes += due as u64;
}

/// The not-yet-visible extents of `client` on `file`, borrowed, in write
/// order: its pending list, then its entries of the delay queue. The
/// overlay that gives every engine read-your-writes, through any of the
/// client's descriptors.
fn own_extents(
    st: &PfsState,
    file: FileId,
    client: u64,
) -> impl Iterator<Item = (u64, &Arc<[u8]>, WriteTag)> {
    let node = st.file(file);
    let pending = node
        .pending
        .get(&client)
        .into_iter()
        .flatten()
        .map(|e| (e.off, &e.data, e.tag));
    let delayed = node
        .delayed
        .iter()
        .filter(move |d| d.owner == client)
        .map(|d| (d.off, &d.data, d.tag));
    pending.chain(delayed)
}

/// The image a read of `file` starts from: the descriptor's open-time
/// snapshot if it has one (only a session open takes one), the published
/// image otherwise.
fn base<'a>(st: &'a PfsState, file: FileId, snapshot: Option<&'a Arc<FileImage>>) -> &'a FileImage {
    snapshot.unwrap_or(&st.file(file).published)
}

/// The size of `file` as visible to `client`: its base image extended by
/// the client's own buffered writes (an empty write extends nothing).
pub(crate) fn visible_size(
    st: &PfsState,
    file: FileId,
    client: u64,
    snapshot: Option<&Arc<FileImage>>,
) -> u64 {
    let own_max = own_extents(st, file, client)
        .filter(|(_, data, _)| !data.is_empty())
        .map(|(off, data, _)| off + data.len() as u64)
        .max()
        .unwrap_or(0);
    base(st, file, snapshot).size().max(own_max)
}

/// A read of `[off, off+len)` of `file` by `client` (rank `rank`) at
/// `now`: `(bytes, provenance runs)`, short at the visible end of file.
/// It takes its locks, matures what is due under eventual, and reads its
/// base image with the client's own buffered writes applied over it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    client: u64,
    rank: u32,
    file: FileId,
    off: u64,
    len: u64,
    snapshot: Option<&Arc<FileImage>>,
    now: u64,
) -> (Vec<u8>, Vec<TagRun>) {
    lock(st, cfg, model, file, rank, off, len);
    if let SemanticsModel::Eventual = model {
        mature_delayed(st, cfg, file, now);
    }
    let vsize = visible_size(st, file, client, snapshot);
    if off >= vsize || len == 0 {
        return (Vec::new(), Vec::new());
    }
    let end = (off + len).min(vsize);
    let want = end - off;
    let base = base(st, file, snapshot);
    let mut own = own_extents(st, file, client)
        .filter(|&(eoff, data, _)| eoff < end && eoff + data.len() as u64 > off)
        .peekable();
    if end <= base.size() && own.peek().is_none() {
        // Nothing buffered here: the visible range is the base image's own.
        return (base.read(off, want), base.provenance(off, want));
    }
    let mut view = base.window(off, end);
    for (eoff, data, tag) in own {
        view.apply_shared(eoff, Arc::clone(data), tag);
    }
    (view.read(off, want), view.provenance(off, want))
}
