//! The immutable file image: contents plus per-byte provenance, as one
//! extent map.
//!
//! Published file state is an [`FileImage`] behind an `Arc`. Session-semantics
//! opens snapshot the `Arc` (O(1)); publishing clones on write via
//! `Arc::make_mut`, so snapshot holders keep their view while the published
//! image moves on — copy-on-publish. A clone copies the map, not the bytes:
//! every extent shares its write's buffer.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::tag::{digest_runs, TagRun, WriteTag};

/// The bytes `[start, end)` of one write, where `start` is the extent's key
/// in [`FileImage::extents`]: they are `bytes[off..off + (end - start)]`.
/// Clipping an extent moves `start`, `end` and `off`; the buffer is the
/// write's own and is never copied.
#[derive(Debug, Clone)]
struct Extent {
    end: u64,
    tag: WriteTag,
    bytes: Arc<[u8]>,
    off: usize,
}

impl Extent {
    /// This extent's bytes within `[lo, hi)`, which must lie inside it.
    fn slice(&self, start: u64, lo: u64, hi: u64) -> &[u8] {
        let from = self.off + (lo - start) as usize;
        &self.bytes[from..from + (hi - lo) as usize]
    }

    /// The part of this extent from `at` on, as an extent starting there.
    fn tail(&self, start: u64, at: u64) -> Extent {
        Extent {
            off: self.off + (at - start) as usize,
            bytes: Arc::clone(&self.bytes),
            ..*self
        }
    }
}

/// A consistent point-in-time view of one file: contents, provenance, and
/// size. Holes (never-written bytes within the size) read as zeros with
/// `None` provenance, like a sparse POSIX file.
#[derive(Debug, Clone, Default)]
pub struct FileImage {
    /// start → the write that last covered `[start, extent.end)`; disjoint,
    /// non-empty, gaps are holes.
    extents: BTreeMap<u64, Extent>,
    size: u64,
}

impl FileImage {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    /// Apply one write extent, copying `bytes` once.
    pub fn apply(&mut self, offset: u64, bytes: &[u8], tag: WriteTag) {
        self.apply_shared(offset, Arc::from(bytes), tag);
    }

    /// Apply one write extent whose buffer the caller already holds: the
    /// image keeps a reference, not a copy. Extents it covers are clipped
    /// in place.
    pub fn apply_shared(&mut self, offset: u64, bytes: Arc<[u8]>, tag: WriteTag) {
        if bytes.is_empty() {
            return;
        }
        let end = offset + bytes.len() as u64;
        // An extent starting before `offset` keeps its head, and its tail
        // too if it reaches past `end`.
        if let Some((&s, x)) = self.extents.range_mut(..offset).next_back() {
            if x.end > offset {
                let tail = (x.end > end).then(|| x.tail(s, end));
                x.end = offset;
                if let Some(tail) = tail {
                    self.extents.insert(end, tail);
                }
            }
        }
        // Extents starting inside the write go, but for a tail past `end`.
        while let Some((&s, x)) = self.extents.range(offset..end).next() {
            let tail = (x.end > end).then(|| x.tail(s, end));
            self.extents.remove(&s);
            if let Some(tail) = tail {
                self.extents.insert(end, tail);
            }
        }
        let whole = Extent {
            end,
            tag,
            bytes,
            off: 0,
        };
        self.extents.insert(offset, whole);
        self.size = self.size.max(end);
    }

    /// Every extent overlapping `[lo, hi)`, clipped to it, as
    /// `(start, end, extent)` in offset order.
    fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64, &Extent)> {
        let head = self
            .extents
            .range(..lo)
            .next_back()
            .filter(|(_, x)| x.end > lo);
        head.into_iter()
            .chain(self.extents.range(lo..hi))
            .map(move |(&s, x)| (s, x.end.min(hi), x))
    }

    /// Who last wrote `[lo, hi)`: one `(start, end, rank)` per run of
    /// contiguous extents of one writer rank, clipped to the range; holes
    /// separate runs and yield none.
    pub(crate) fn writer_runs(
        &self,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        let mut extents = self
            .overlapping(lo, hi)
            .map(move |(s, e, x)| (s.max(lo), e, x.tag.rank))
            .peekable();
        std::iter::from_fn(move || {
            let (start, mut end, rank) = extents.next()?;
            while let Some((_, e, _)) = extents.next_if(|&(s, _, r)| s == end && r == rank) {
                end = e;
            }
            Some((start, end, rank))
        })
    }

    /// The part of this image within `[lo, hi)`, as an image of size `hi`:
    /// the extents overlapping the window, clipped to it and sharing their
    /// buffers, with holes everywhere else.
    pub(crate) fn window(&self, lo: u64, hi: u64) -> FileImage {
        let extents = self
            .overlapping(lo, hi)
            .map(|(s, e, x)| {
                let from = s.max(lo);
                (
                    from,
                    Extent {
                        end: e,
                        ..x.tail(s, from)
                    },
                )
            })
            .collect();
        FileImage { extents, size: hi }
    }

    /// `[offset, offset+len)` clamped to the current size, or `None` when
    /// it is empty.
    fn clamp(&self, offset: u64, len: u64) -> Option<(u64, u64)> {
        (offset < self.size).then(|| (offset, offset.saturating_add(len).min(self.size)))
    }

    /// Read `[offset, offset+len)`, clamped to the current size. Bytes
    /// beyond EOF are not returned (short read), matching POSIX.
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let Some((lo, hi)) = self.clamp(offset, len) else {
            return Vec::new();
        };
        let mut out = vec![0u8; (hi - lo) as usize];
        for (s, e, x) in self.overlapping(lo, hi) {
            let from = s.max(lo);
            out[(from - lo) as usize..(e - lo) as usize].copy_from_slice(x.slice(s, from, e));
        }
        out
    }

    /// Provenance of `[offset, offset+len)` clamped to size: runs covering
    /// the whole range, adjacent runs of one write merged, holes `None`.
    pub fn provenance(&self, offset: u64, len: u64) -> Vec<TagRun> {
        let Some((lo, hi)) = self.clamp(offset, len) else {
            return Vec::new();
        };
        let mut runs: Vec<TagRun> = Vec::new();
        let mut push = |len: u64, tag: Option<WriteTag>| match runs.last_mut() {
            Some(last) if last.tag == tag => last.len += len,
            _ => runs.push(TagRun { len, tag }),
        };
        let mut pos = lo;
        for (s, e, x) in self.overlapping(lo, hi) {
            if s > pos {
                push(s - pos, None);
            }
            push(e - pos.max(s), Some(x.tag));
            pos = e;
        }
        if pos < hi {
            push(hi - pos, None);
        }
        runs
    }

    /// FNV-1a digest of [`FileImage::provenance`] over the clamped range;
    /// a range past the end digests as no runs, salted.
    pub fn digest(&self, offset: u64, len: u64) -> u64 {
        if offset >= self.size {
            return digest_runs(obs::fnv::FNV_OFFSET, &[]) ^ 0x5a5a;
        }
        digest_runs(obs::fnv::FNV_OFFSET, &self.provenance(offset, len))
    }

    /// Truncate (or extend with a hole) to `len`.
    pub fn truncate(&mut self, len: u64) {
        if len < self.size {
            self.extents.split_off(&len);
            if let Some((_, x)) = self.extents.iter_mut().next_back() {
                x.end = x.end.min(len);
            }
        }
        self.size = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(rank: u32, seq: u64) -> WriteTag {
        WriteTag { rank, seq }
    }

    #[test]
    fn write_then_read_back() {
        let mut f = FileImage::new();
        f.apply(10, b"hello", tag(0, 1));
        assert_eq!(f.size(), 15);
        assert_eq!(f.read(10, 5), b"hello");
        // Hole before the write reads as zeros.
        assert_eq!(f.read(0, 10), vec![0u8; 10]);
    }

    #[test]
    fn short_read_at_eof() {
        let mut f = FileImage::new();
        f.apply(0, b"abc", tag(0, 1));
        assert_eq!(f.read(1, 100), b"bc");
        assert_eq!(f.read(3, 10), b"");
        assert_eq!(f.read(100, 10), b"");
    }

    #[test]
    fn provenance_tracks_overwrites() {
        let mut f = FileImage::new();
        f.apply(0, &[1; 10], tag(1, 1));
        f.apply(5, &[2; 10], tag(2, 2));
        let runs = f.provenance(0, 15);
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            TagRun {
                len: 5,
                tag: Some(tag(1, 1))
            }
        );
        assert_eq!(
            runs[1],
            TagRun {
                len: 10,
                tag: Some(tag(2, 2))
            }
        );
    }

    /// `img` holds exactly `model`: one `(byte, writer)` per offset.
    fn assert_matches(img: &FileImage, model: &[(u8, Option<WriteTag>)]) {
        assert_eq!(img.size(), model.len() as u64);
        let want: Vec<u8> = model.iter().map(|&(b, _)| b).collect();
        assert_eq!(img.read(0, u64::MAX / 2), want);
        let mut tags = Vec::new();
        for run in img.provenance(0, img.size()) {
            tags.extend(std::iter::repeat_n(run.tag, run.len as usize));
        }
        let want_tags: Vec<Option<WriteTag>> = model.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, want_tags);
    }

    #[test]
    fn apply_matches_a_byte_by_byte_model() {
        // Overwrites inside the data, writes straddling its end, appends,
        // writes past a hole, and truncations in both directions, against
        // a model that stores one `(byte, writer)` per offset. A clone
        // taken mid-sequence (what a session open snapshots) shares the
        // extents' buffers and must keep matching the model as of the
        // clone while the original moves on.
        let mut rng = simrng::SimRng::seed_from_u64(0x1A6E);
        for _ in 0..50 {
            let mut img = FileImage::new();
            let mut model: Vec<(u8, Option<WriteTag>)> = Vec::new();
            let snap_at = rng.range_u64(0, 40);
            let mut snap = None;
            for seq in 0..40u64 {
                if seq == snap_at {
                    snap = Some((img.clone(), model.clone()));
                }
                if rng.gen_bool(0.15) {
                    let len = rng.range_usize(0, model.len() + 20);
                    img.truncate(len as u64);
                    model.resize(len, (0, None));
                } else {
                    // Offsets up to a little past EOF, so every placement
                    // relative to the current end occurs.
                    let off = rng.range_usize(0, model.len() + 12);
                    let bytes: Vec<u8> = (0..rng.range_usize(0, 24))
                        .map(|_| rng.range_u32(1, 256) as u8)
                        .collect();
                    let t = tag(rng.range_u32(0, 3), seq);
                    img.apply(off as u64, &bytes, t);
                    if !bytes.is_empty() && model.len() < off + bytes.len() {
                        model.resize(off + bytes.len(), (0, None));
                    }
                    for (i, &b) in bytes.iter().enumerate() {
                        model[off + i] = (b, Some(t));
                    }
                }
                assert_matches(&img, &model);
                if let Some((snap_img, snap_model)) = &snap {
                    assert_matches(snap_img, snap_model);
                }
            }
        }
    }

    #[test]
    fn a_window_holds_the_clipped_extents_and_holes_up_to_its_end() {
        let mut f = FileImage::new();
        f.apply(0, b"abcdef", tag(1, 1));
        f.apply(8, b"gh", tag(2, 2));
        let w = f.window(2, 14);
        assert_eq!(w.size(), 14);
        assert_eq!(w.read(0, 14), b"\0\0cdef\0\0gh\0\0\0\0");
        assert_eq!(w.provenance(2, 12), f.window(0, 14).provenance(2, 12));
        let runs: Vec<(u64, Option<WriteTag>)> =
            w.provenance(0, 14).iter().map(|r| (r.len, r.tag)).collect();
        assert_eq!(
            runs,
            [
                (2, None),
                (4, Some(tag(1, 1))),
                (2, None),
                (2, Some(tag(2, 2))),
                (4, None)
            ]
        );
    }

    #[test]
    fn writer_runs_merge_touching_extents_of_one_rank() {
        let mut f = FileImage::new();
        f.apply(0, b"aa", tag(0, 1));
        f.apply(2, b"bb", tag(0, 2));
        f.apply(4, b"cc", tag(1, 1));
        f.apply(8, b"dd", tag(1, 2));
        let runs: Vec<_> = f.writer_runs(1, 9).collect();
        assert_eq!(runs, [(1, 4, 0), (4, 6, 1), (8, 9, 1)]);
        assert_eq!(f.writer_runs(6, 8).count(), 0, "a hole has no writer");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut f = FileImage::new();
        f.apply(0, &[7; 20], tag(0, 1));
        f.truncate(5);
        assert_eq!(f.size(), 5);
        assert_eq!(f.read(0, 20), vec![7; 5]);
        assert!(f.provenance(0, 20).iter().all(|r| r.len <= 5));
        f.truncate(10);
        assert_eq!(f.size(), 10);
        assert_eq!(f.read(0, 10), [vec![7; 5], vec![0; 5]].concat());
    }

    #[test]
    fn digest_distinguishes_writers() {
        let mut a = FileImage::new();
        a.apply(0, b"xxxx", tag(1, 10));
        let mut b = FileImage::new();
        b.apply(0, b"xxxx", tag(2, 11));
        assert_ne!(a.digest(0, 4), b.digest(0, 4));
    }
}
