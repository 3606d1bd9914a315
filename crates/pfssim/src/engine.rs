//! The consistency engines: what a write does, what a read sees, and when
//! buffered data becomes globally visible under each of the paper's four
//! semantics categories (§3).

use std::sync::Arc;

use crate::config::{PfsConfig, SemanticsModel};
use crate::image::FileImage;
use crate::state::{DelayedExtent, FileId, PendingExtent, PfsState};
use crate::tag::{SegMap, TagRun, WriteTag};

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

    match model {
        SemanticsModel::Strong => {
            // Extent locks on the lock manager, then apply globally. Any
            // overlap with an extent whose write lock a *different* rank
            // holds costs a revocation callback first.
            let locks = if len == 0 {
                0
            } else {
                len.div_ceil(cfg.lock_granularity)
            };
            st.stats.locks_acquired += locks;
            if len > 0 {
                let revocations = lock_revocations(st, file, rank, off, off + len);
                st.stats.lock_revocations += revocations;
                let node = st.file_mut(file);
                node.write_locks
                    .insert(off, off + len, WriteTag { rank, seq: 0 });
            }
            st.stats.stripe_account(off, len, cfg.stripe_size, true);
            let node = st.file_mut(file);
            Arc::make_mut(&mut node.published).apply(off, data, tag);
            node.publish_version += 1;
            (tag, locks)
        }
        SemanticsModel::Commit | SemanticsModel::Session => {
            let node = st.file_mut(file);
            // Buffered until publish: this engine must own the bytes.
            node.pending.entry(client).or_default().push(PendingExtent {
                off,
                data: Arc::from(data),
                tag,
            });
            st.stats.pending_extents += 1;
            (tag, 0)
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
            st.stats.pending_extents += 1;
            (tag, 0)
        }
    }
}

/// Count the foreign write-lock runs overlapping `[start, end)` on `file`
/// — each is a revocation the lock manager must perform before `rank` can
/// take its own lock.
pub(crate) fn lock_revocations(
    st: &PfsState,
    file: FileId,
    rank: u32,
    start: u64,
    end: u64,
) -> u64 {
    st.file(file)
        .write_locks
        .overlapping(start, end)
        .filter(|&(_, _, t)| t.rank != rank)
        .count() as u64
}

/// Publish every pending extent of `rank` on `file`, in write order —
/// the effect of a commit (commit semantics) or a close (session
/// semantics). With `same_process_ordering` disabled (the BurstFS anomaly),
/// the extents are applied in *reverse* order, so a read following two
/// same-process writes to the same bytes can observe the older one.
pub(crate) fn publish_client(st: &mut PfsState, cfg: &PfsConfig, file: FileId, client: u64) {
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
    node.publish_version += 1;
    stats.publishes += n;
    stats.pending_extents = stats.pending_extents.saturating_sub(n);
}

/// Apply every delayed (eventual-semantics) extent whose propagation delay
/// has elapsed by `now`, in global write order.
pub(crate) fn mature_delayed(st: &mut PfsState, cfg: &PfsConfig, file: FileId, now: u64) {
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
    node.publish_version += 1;
    stats.publishes += due as u64;
    stats.pending_extents = stats.pending_extents.saturating_sub(due as u64);
}

/// The not-yet-visible extents of `client` on `file`, borrowed, in write
/// order — the overlay that gives every engine read-your-writes.
fn own_extents(
    st: &PfsState,
    model: SemanticsModel,
    file: FileId,
    client: u64,
) -> impl Iterator<Item = (u64, &[u8], WriteTag)> {
    let node = st.file(file);
    let pending = match model {
        SemanticsModel::Commit | SemanticsModel::Session => node.pending.get(&client),
        SemanticsModel::Strong | SemanticsModel::Eventual => None,
    };
    let delayed = (model == SemanticsModel::Eventual).then_some(&node.delayed);
    let pending = pending
        .into_iter()
        .flatten()
        .map(|e| (e.off, &e.data[..], e.tag));
    let delayed = delayed
        .into_iter()
        .flatten()
        .filter(move |d| d.owner == client)
        .map(|d| (d.off, &d.data[..], d.tag));
    pending.chain(delayed)
}

/// The size of `file` as visible to `rank`: the base image (published, or
/// the session snapshot if one is given) extended by the rank's own
/// buffered writes.
pub(crate) fn visible_size(
    st: &PfsState,
    model: SemanticsModel,
    file: FileId,
    client: u64,
    snapshot: Option<&Arc<FileImage>>,
) -> u64 {
    let base = match (model, snapshot) {
        (SemanticsModel::Session, Some(s)) => s.size(),
        _ => st.file(file).published.size(),
    };
    let own_max = own_extents(st, model, file, client)
        .map(|(off, data, _)| off + data.len() as u64)
        .max()
        .unwrap_or(0);
    base.max(own_max)
}

/// What `rank` sees when reading `[off, off+len)` of `file`:
/// `(bytes, provenance runs)`. The base image depends on the engine
/// (published for strong/commit/eventual, the open-time snapshot for
/// session); the rank's own buffered writes are overlaid in write order so
/// every engine is read-your-writes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_view(
    st: &mut PfsState,
    cfg: &PfsConfig,
    model: SemanticsModel,
    client: u64,
    file: FileId,
    off: u64,
    len: u64,
    snapshot: Option<&Arc<FileImage>>,
    now: u64,
) -> (Vec<u8>, Vec<TagRun>) {
    if model == SemanticsModel::Eventual {
        mature_delayed(st, cfg, file, now);
    }
    let vsize = visible_size(st, model, file, client, snapshot);
    if off >= vsize || len == 0 {
        return (Vec::new(), Vec::new());
    }
    let end = (off + len).min(vsize);
    let want = end - off;

    let node = st.file(file);
    let base: &FileImage = match (model, snapshot) {
        (SemanticsModel::Session, Some(s)) => s,
        _ => &node.published,
    };
    let mut own = own_extents(st, model, file, client).peekable();
    if own.peek().is_none() {
        // Nothing buffered: the visible range is the base image's own.
        return (base.read(off, want), base.provenance(off, want));
    }

    // Base bytes and provenance, zero-extended to the visible range.
    let mut bytes = base.read(off, want);
    bytes.resize(want as usize, 0);
    let mut tags = SegMap::new();
    let mut pos = off;
    for run in base.provenance(off, want) {
        if let Some(t) = run.tag {
            tags.insert(pos, pos + run.len, t);
        }
        pos += run.len;
    }

    // Overlay own buffered writes, in order.
    for (eoff, data, tag) in own {
        let eend = eoff + data.len() as u64;
        let lo = eoff.max(off);
        let hi = eend.min(end);
        if lo >= hi {
            continue;
        }
        let src = &data[(lo - eoff) as usize..(hi - eoff) as usize];
        bytes[(lo - off) as usize..(hi - off) as usize].copy_from_slice(src);
        tags.insert(lo, hi, tag);
    }

    // Render the tag map into runs covering [off, end).
    let runs = tags.query(off, end);
    (bytes, runs)
}
