//! Compact binary trace codec.
//!
//! Layout:
//! ```text
//! magic "RTRC" | version u8
//! varint n_paths | (varint len, utf8 bytes)*
//! varint n_ranks | (zigzag skew)*
//! per rank: varint n_records | records
//! ```
//! Records are delta-encoded in time (`t_start` as delta from the previous
//! record's `t_start`, `t_end` as delta from own `t_start`), which keeps
//! traces small since records are near-sorted.

use crate::record::{Arg, Func, Layer, MetaKind, PathId, Record, SeekWhence, Wire};
use crate::traceset::TraceSet;

const MAGIC: &[u8; 4] = b"RTRC";
const VERSION: u8 = 1;

/// Codec error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    BadMagic,
    BadVersion(u8),
    Truncated,
    BadTag(u8),
    BadUtf8,
    /// A record names a path id the trace's path table does not have.
    BadPath(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad trace magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "truncated trace"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid utf8 in path table"),
            CodecError::BadPath(id) => write!(f, "path id {id} outside the path table"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Minimal byte reader over a borrowed slice (replaces `bytes::Bytes`,
/// which the offline build cannot depend on).
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut Reader<'_>) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = buf.get_u8()?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One argument on the wire; the layouts are listed on [`Wire`].
fn put_arg(buf: &mut Vec<u8>, arg: Arg) {
    match arg {
        Arg::U32(v) | Arg::Flags(v) => put_varint(buf, v as u64),
        Arg::U64(v) => put_varint(buf, v),
        Arg::I64(v) => put_varint(buf, zigzag(v)),
        Arg::Path(p) => put_varint(buf, p.0 as u64),
        Arg::Whence(w) => buf.push(w.to_u8()),
        Arg::Meta(m) => buf.push(m.to_u8()),
    }
}

/// Read one argument of type `wire`. The bytes are untrusted: an id, whence
/// or metadata kind the trace cannot contain is an error here, so nothing
/// downstream indexes with it.
fn get_arg(buf: &mut Reader<'_>, wire: Wire, n_paths: usize) -> Result<Arg, CodecError> {
    Ok(match wire {
        Wire::U32 => Arg::U32(get_varint(buf)? as u32),
        Wire::Flags => Arg::Flags(get_varint(buf)? as u32),
        Wire::U64 => Arg::U64(get_varint(buf)?),
        Wire::I64 => Arg::I64(unzigzag(get_varint(buf)?)),
        Wire::Path => {
            let id = get_varint(buf)?;
            if id >= n_paths as u64 {
                return Err(CodecError::BadPath(id));
            }
            Arg::Path(PathId(id as u32))
        }
        Wire::Whence => {
            let b = buf.get_u8()?;
            Arg::Whence(SeekWhence::try_from_u8(b).ok_or(CodecError::BadTag(b))?)
        }
        Wire::Meta => {
            let b = buf.get_u8()?;
            Arg::Meta(MetaKind::try_from_u8(b).ok_or(CodecError::BadTag(b))?)
        }
    })
}

impl TraceSet {
    /// Serialize to the binary trace format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.total_records() * 8);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        put_varint(&mut buf, self.paths.len() as u64);
        for p in &self.paths {
            put_varint(&mut buf, p.len() as u64);
            buf.extend_from_slice(p.as_bytes());
        }
        put_varint(&mut buf, self.ranks.len() as u64);
        for &s in &self.skews_ns {
            put_varint(&mut buf, zigzag(s));
        }
        for rank in &self.ranks {
            put_varint(&mut buf, rank.len() as u64);
            let mut prev_start = 0u64;
            for rec in rank {
                put_varint(&mut buf, zigzag(rec.t_start as i64 - prev_start as i64));
                put_varint(&mut buf, rec.t_end - rec.t_start.min(rec.t_end));
                prev_start = rec.t_start;
                buf.push(rec.layer.to_u8());
                buf.push(rec.origin.to_u8());
                buf.push(rec.func.tag());
                rec.func.for_each_arg(|_, arg| put_arg(&mut buf, arg));
            }
        }
        buf
    }

    /// Deserialize from the binary trace format.
    pub fn decode(data: &[u8]) -> Result<TraceSet, CodecError> {
        let mut buf = Reader { data, pos: 0 };
        if buf.take(4)? != MAGIC.as_slice() {
            return Err(CodecError::BadMagic);
        }
        let version = buf.get_u8()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let n_paths = get_varint(&mut buf)? as usize;
        // Counts are untrusted: cap pre-allocations by the bytes actually
        // present so a corrupt header cannot demand an absurd allocation.
        let mut paths = Vec::with_capacity(n_paths.min(buf.remaining()));
        for _ in 0..n_paths {
            let len = get_varint(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(CodecError::Truncated);
            }
            let bytes = buf.take(len)?;
            paths.push(String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)?);
        }
        let n_ranks = get_varint(&mut buf)? as usize;
        let mut skews_ns = Vec::with_capacity(n_ranks.min(buf.remaining()));
        for _ in 0..n_ranks {
            skews_ns.push(unzigzag(get_varint(&mut buf)?));
        }
        let mut ranks = Vec::with_capacity(n_ranks.min(buf.remaining() + 1));
        for rank in 0..n_ranks {
            let n = get_varint(&mut buf)? as usize;
            let mut records = Vec::with_capacity(n.min(buf.remaining()));
            let mut prev_start = 0u64;
            for _ in 0..n {
                // Wrapping arithmetic: corrupt deltas must not trip the
                // debug-mode overflow checks — they decode to garbage
                // values that downstream validation rejects, not a panic.
                let delta = unzigzag(get_varint(&mut buf)?);
                let t_start = (prev_start as i64).wrapping_add(delta) as u64;
                let dur = get_varint(&mut buf)?;
                prev_start = t_start;
                let l = buf.get_u8()?;
                let layer = Layer::try_from_u8(l).ok_or(CodecError::BadTag(l))?;
                let o = buf.get_u8()?;
                let origin = Layer::try_from_u8(o).ok_or(CodecError::BadTag(o))?;
                let tag = buf.get_u8()?;
                let func = Func::from_args(tag, |wire| get_arg(&mut buf, wire, paths.len()))?
                    .ok_or(CodecError::BadTag(tag))?;
                records.push(Record {
                    t_start,
                    t_end: t_start.saturating_add(dur),
                    rank: rank as u32,
                    layer,
                    origin,
                    func,
                });
            }
            ranks.push(records);
        }
        Ok(TraceSet {
            paths,
            ranks,
            skews_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut b = Reader { data: &buf, pos: 0 };
        for &v in &values {
            assert_eq!(get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-5i64, 0, 1, -1, i64::MAX, i64::MIN, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TraceSet::decode(b"xxxx\x01"), Err(CodecError::BadMagic));
        assert_eq!(TraceSet::decode(b"RT"), Err(CodecError::Truncated));
        assert_eq!(
            TraceSet::decode(b"RTRC\x07"),
            Err(CodecError::BadVersion(7))
        );
    }

    #[test]
    fn path_id_outside_the_table_is_rejected() {
        let mut ts = TraceSet {
            paths: vec!["/only".into()],
            ranks: vec![vec![Record {
                t_start: 0,
                t_end: 1,
                rank: 0,
                layer: Layer::Posix,
                origin: Layer::App,
                func: Func::MetaPath2 {
                    op: MetaKind::Rename,
                    path: PathId(0),
                    path2: PathId(0),
                },
            }]],
            skews_ns: vec![0],
        };
        assert_eq!(TraceSet::decode(&ts.encode()).as_ref(), Ok(&ts));
        ts.ranks[0][0].func.for_each_path_mut(|p| p.0 += 1);
        assert_eq!(TraceSet::decode(&ts.encode()), Err(CodecError::BadPath(1)));
    }

    #[test]
    fn empty_traceset_roundtrip() {
        let ts = TraceSet::default();
        assert_eq!(TraceSet::decode(&ts.encode()).unwrap(), ts);
    }
}
