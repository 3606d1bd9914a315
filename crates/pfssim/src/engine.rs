//! The consistency engines: what a write does, what a read sees, and when
//! buffered data becomes globally visible under each of the paper's four
//! semantics categories (§3).

use std::sync::Arc;

use crate::config::{PfsConfig, SemanticsModel};
use crate::image::FileImage;
use crate::state::{DelayedExtent, FileId, PendingExtent, PfsState};
use crate::tag::{SegMap, TagRun, WriteTag};

/// Record a write of `data` at `off` by `rank` at simulated time `now`.
/// Returns `(tag, locks_acquired)`. The bytes are borrowed: the strong
/// engine copies them straight into the published image, and only the
/// engines that defer visibility take a copy to hold.
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
    let seq_slot = st.next_write_seq.entry(rank).or_insert(0);
    let seq = *seq_slot;
    *seq_slot += 1;
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
                data: data.to_vec(),
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
                data: data.to_vec(),
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
        .query(start, end)
        .iter()
        .filter(|run| matches!(run.tag, Some(t) if t.rank != rank))
        .count() as u64
}

/// Publish every pending extent of `rank` on `file`, in write order —
/// the effect of a commit (commit semantics) or a close (session
/// semantics). With `same_process_ordering` disabled (the BurstFS anomaly),
/// the extents are applied in *reverse* order, so a read following two
/// same-process writes to the same bytes can observe the older one.
pub(crate) fn publish_client(st: &mut PfsState, cfg: &PfsConfig, file: FileId, client: u64) {
    let node = st.file_mut(file);
    let Some(mut extents) = node.pending.remove(&client) else {
        return;
    };
    if !cfg.same_process_ordering {
        extents.reverse();
    }
    let n = extents.len() as u64;
    let img = Arc::make_mut(&mut node.published);
    let mut stripe_acct = Vec::new();
    for e in &extents {
        img.apply(e.off, &e.data, e.tag);
        stripe_acct.push((e.off, e.data.len() as u64));
    }
    node.publish_version += 1;
    st.stats.publishes += n;
    st.stats.pending_extents = st.stats.pending_extents.saturating_sub(n);
    for (off, len) in stripe_acct {
        st.stats.stripe_account(off, len, cfg.stripe_size, true);
    }
}

/// Apply every delayed (eventual-semantics) extent whose propagation delay
/// has elapsed by `now`, in global write order.
pub(crate) fn mature_delayed(st: &mut PfsState, cfg: &PfsConfig, file: FileId, now: u64) {
    let node = st.file_mut(file);
    if node.delayed.is_empty() {
        return;
    }
    let mut published = 0u64;
    let mut stripe_acct = Vec::new();
    while let Some(front) = node.delayed.front() {
        if front.mature_at > now {
            break;
        }
        let e = node.delayed.pop_front().expect("front exists");
        let img = Arc::make_mut(&mut node.published);
        img.apply(e.off, &e.data, e.tag);
        stripe_acct.push((e.off, e.data.len() as u64));
        published += 1;
    }
    if published > 0 {
        node.publish_version += 1;
        st.stats.publishes += published;
        st.stats.pending_extents = st.stats.pending_extents.saturating_sub(published);
        for (off, len) in stripe_acct {
            st.stats.stripe_account(off, len, cfg.stripe_size, true);
        }
    }
}

/// Owned copy of the not-yet-visible extents of `rank` on `file`, in write
/// order — the overlay that gives every engine read-your-writes.
fn collect_own(
    st: &PfsState,
    model: SemanticsModel,
    file: FileId,
    client: u64,
) -> Vec<(u64, Vec<u8>, WriteTag)> {
    let node = st.file(file);
    match model {
        SemanticsModel::Strong => Vec::new(),
        SemanticsModel::Commit | SemanticsModel::Session => node
            .pending
            .get(&client)
            .map(|v| v.iter().map(|e| (e.off, e.data.clone(), e.tag)).collect())
            .unwrap_or_default(),
        SemanticsModel::Eventual => node
            .delayed
            .iter()
            .filter(|d| d.owner == client)
            .map(|d| (d.off, d.data.clone(), d.tag))
            .collect(),
    }
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
    let own_max = collect_own(st, model, file, client)
        .iter()
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
    for (eoff, data, tag) in collect_own(st, model, file, client) {
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
