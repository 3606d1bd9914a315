//! The immutable file image: contents plus per-byte provenance.
//!
//! Published file state is an [`FileImage`] behind an `Arc`. Session-semantics
//! opens snapshot the `Arc` (O(1)); publishing clones on write via
//! `Arc::make_mut`, so snapshot holders keep their view while the published
//! image moves on — copy-on-publish.

use crate::tag::{SegMap, TagRun, WriteTag};

/// A consistent point-in-time view of one file: contents, provenance, and
/// size. Holes (never-written bytes within the size) read as zeros with
/// `None` provenance, like a sparse POSIX file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileImage {
    data: Vec<u8>,
    tags: SegMap,
    size: u64,
}

impl FileImage {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    /// Apply one write extent. Only a hole between the current end of data
    /// and `offset` is zero-filled; bytes the write itself supplies are
    /// copied once — overwritten in place where they land on existing data,
    /// appended where they extend it.
    pub fn apply(&mut self, offset: u64, bytes: &[u8], tag: WriteTag) {
        if bytes.is_empty() {
            return;
        }
        let end = offset + bytes.len() as u64;
        let start = offset as usize;
        if self.data.len() < start {
            self.data.resize(start, 0);
        }
        let overwrite = (self.data.len() - start).min(bytes.len());
        self.data[start..start + overwrite].copy_from_slice(&bytes[..overwrite]);
        self.data.extend_from_slice(&bytes[overwrite..]);
        self.tags.insert(offset, end, tag);
        self.size = self.size.max(end);
    }

    /// Read `[offset, offset+len)`, clamped to the current size. Bytes
    /// beyond EOF are not returned (short read), matching POSIX.
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        if offset >= self.size {
            return Vec::new();
        }
        let end = (offset + len).min(self.size);
        let mut out = vec![0u8; (end - offset) as usize];
        let avail = self.data.len() as u64;
        if offset < avail {
            let copy_end = end.min(avail);
            out[..(copy_end - offset) as usize]
                .copy_from_slice(&self.data[offset as usize..copy_end as usize]);
        }
        out
    }

    /// Provenance of `[offset, offset+len)` clamped to size.
    pub fn provenance(&self, offset: u64, len: u64) -> Vec<TagRun> {
        if offset >= self.size {
            return Vec::new();
        }
        let end = (offset + len).min(self.size);
        self.tags.query(offset, end)
    }

    /// Provenance digest over the clamped range (see [`SegMap::digest`]).
    pub fn digest(&self, offset: u64, len: u64) -> u64 {
        if offset >= self.size {
            return SegMap::new().digest(0, 0) ^ 0x5a5a;
        }
        let end = (offset + len).min(self.size);
        self.tags.digest(offset, end)
    }

    /// Truncate (or extend with a hole) to `len`.
    pub fn truncate(&mut self, len: u64) {
        if len < self.size {
            self.data.truncate(len as usize);
            // Re-insert a dummy query barrier: easiest correct approach is
            // rebuilding the tag map restricted to [0, len).
            let mut tags = SegMap::new();
            for (s, e, t) in self.tags.iter() {
                if s < len {
                    tags.insert(s, e.min(len), t);
                }
            }
            self.tags = tags;
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

    #[test]
    fn apply_matches_a_byte_by_byte_model() {
        // Overwrites inside the data, writes straddling its end, appends,
        // writes past a hole, and truncations in both directions, against
        // a model that stores one `(byte, writer)` per offset.
        let mut rng = simrng::SimRng::seed_from_u64(0x1A6E);
        for _ in 0..50 {
            let mut img = FileImage::new();
            let mut model: Vec<(u8, Option<WriteTag>)> = Vec::new();
            for seq in 0..40u64 {
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
        }
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
