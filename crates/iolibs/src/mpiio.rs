//! MPI-IO model: independent (`write_at`) and collective (`write_at_all`)
//! file access with ROMIO-style two-phase collective buffering.
//!
//! The paper's FLASH analysis (§6.2.2) hinges on exactly this behaviour:
//! "when collective I/O is enabled, the MPI-IO library aggregates I/O
//! accesses and only six aggregator processes access the PFS". Collective
//! calls here shuffle each rank's contribution to a small set of aggregator
//! ranks over simulated point-to-point messages (leaving happens-before
//! edges in the trace), and only the aggregators issue POSIX I/O.

use pfssim::{FsResult, OpenFlags};
use recorder::{Func, Layer};

use crate::harness::{AppCtx, Fd};

/// Tag reserved for two-phase shuffle traffic (below `u32::MAX`, which the
/// runtime's built-in collectives use).
const SHUFFLE_TAG: u32 = u32::MAX - 1;

/// Collective-buffering buffer size: aggregators drain their file domain
/// in pieces of this size (ROMIO's `cb_buffer_size`), so one collective
/// produces a *consecutive* run of POSIX writes per aggregator.
pub const CB_BUFFER: u64 = 8 * 1024;

/// File-system hints, as MPI_Info would carry them.
#[derive(Debug, Clone, Copy)]
pub struct MpiIoHints {
    /// Number of collective-buffering aggregators (`cb_nodes`). The paper
    /// observed 6 for FLASH on 64 ranks.
    pub cb_nodes: u32,
}

impl Default for MpiIoHints {
    fn default() -> Self {
        MpiIoHints { cb_nodes: 6 }
    }
}

/// An open MPI-IO file handle (every rank of the communicator holds one).
pub struct MpiFile {
    fh: u32,
    fd: Fd,
    path: String,
    hints: MpiIoHints,
}

impl MpiFile {
    /// Collective create-or-open. Rank 0 creates (and truncates, if
    /// `truncate`), everyone else opens the existing file read-write.
    pub fn open(ctx: &mut AppCtx, path: &str, truncate: bool, hints: MpiIoHints) -> FsResult<Self> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            let fh = ctx.alloc_lib_id();
            let fd = if ctx.rank() == 0 {
                let mut flags = OpenFlags::rdwr_create();
                flags.truncate = truncate;
                let fd = ctx.open(path, flags)?;
                ctx.barrier();
                fd
            } else {
                ctx.barrier();
                ctx.open(path, OpenFlags::rdwr())?
            };
            Ok(Self::opened(ctx, fh, fd, path, hints))
        })
    }

    /// The handle of a completed open and the record of the call.
    fn opened(ctx: &AppCtx, fh: u32, fd: Fd, path: &str, hints: MpiIoHints) -> (Self, Func) {
        let file = MpiFile {
            fh,
            fd,
            path: path.to_string(),
            hints,
        };
        let path = ctx.intern(path);
        (file, Func::MpiFileOpen { path, fh })
    }

    /// `MPI_File_open` on `MPI_COMM_SELF`: a per-rank file, no
    /// collectivity (the HACC-IO N-N configuration). Collective calls on
    /// such a handle are not meaningful; use `write_at`/`read_at`.
    pub fn open_independent(ctx: &mut AppCtx, path: &str, hints: MpiIoHints) -> FsResult<Self> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            let fh = ctx.alloc_lib_id();
            let fd = ctx.open(path, OpenFlags::rdwr_create())?;
            Ok(Self::opened(ctx, fh, fd, path, hints))
        })
    }

    /// Non-collective close (for handles from
    /// [`MpiFile::open_independent`]).
    pub fn close_independent(self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            ctx.close(self.fd)?;
            Ok(((), Func::MpiFileClose { fh: self.fh }))
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// The underlying POSIX fd on this rank (testing aid).
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// Independent positional write.
    pub fn write_at(&self, ctx: &mut AppCtx, offset: u64, data: &[u8]) -> FsResult<()> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            ctx.pwrite(self.fd, offset, data)?;
            let (fh, count) = (self.fh, data.len() as u64);
            Ok(((), Func::MpiFileWriteAt { fh, offset, count }))
        })
    }

    /// Independent positional read.
    pub fn read_at(&self, ctx: &mut AppCtx, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            let out = ctx.pread(self.fd, offset, len)?;
            let (fh, count) = (self.fh, len);
            Ok((out.data, Func::MpiFileReadAt { fh, offset, count }))
        })
    }

    /// The aggregator ranks for this communicator: `cb_nodes` ranks spread
    /// evenly, like ROMIO's default placement.
    pub fn aggregators(&self, nranks: u32) -> Vec<u32> {
        let n = self.hints.cb_nodes.clamp(1, nranks);
        let stride = nranks / n;
        (0..n).map(|i| i * stride).collect()
    }

    /// Collective write: two-phase. Every rank contributes `(offset, data)`
    /// (possibly empty); contributions are shuffled to the aggregators,
    /// which write their file domains with large contiguous POSIX writes.
    pub fn write_at_all(&self, ctx: &mut AppCtx, offset: u64, data: &[u8]) -> FsResult<()> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            let count = self.shuffle_and_write(ctx, offset, data)?;
            let fh = self.fh;
            Ok(((), Func::MpiFileWriteAtAll { fh, offset, count }))
        })
    }

    /// The body of [`MpiFile::write_at_all`]; returns the byte count the
    /// call records (0 when no rank had anything to write).
    fn shuffle_and_write(&self, ctx: &mut AppCtx, offset: u64, data: &[u8]) -> FsResult<u64> {
        let nranks = ctx.nranks();
        let aggs = self.aggregators(nranks);

        // Phase 0: exchange extents so everyone knows the file domain.
        let extents = ctx.allgather(&encode_extent(offset, data.len() as u64));
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (off, len) in extents.iter().map(decode_extent) {
            if len > 0 {
                lo = lo.min(off);
                hi = hi.max(off + len);
            }
        }
        if hi <= lo {
            ctx.barrier();
            return Ok(0); // nothing to write anywhere
        }
        let domain = (hi - lo).div_ceil(aggs.len() as u64);

        // Phase 1: ship my pieces to the owning aggregators. Every rank
        // sends exactly one (possibly empty) message per aggregator —
        // itself included — so the receive side matches deterministically.
        for (ai, &agg) in aggs.iter().enumerate() {
            let d_lo = lo + ai as u64 * domain;
            let d_hi = (d_lo + domain).min(hi);
            let piece = slice_overlap(offset, data, d_lo, d_hi);
            let mut msg = Vec::with_capacity(8 + piece.map_or(0, |(_, s)| s.len()));
            match piece {
                Some((poff, bytes)) => {
                    msg.extend_from_slice(&poff.to_le_bytes());
                    msg.extend_from_slice(bytes);
                }
                None => msg.extend_from_slice(&u64::MAX.to_le_bytes()),
            }
            ctx.send(agg, SHUFFLE_TAG, msg);
        }

        // Phase 2: aggregators write their domain. The received messages
        // are kept as they arrived; their pieces, in file order, are
        // drained through one collective buffer — the only copy between
        // the shuffle message and the file system.
        if aggs.contains(&ctx.rank()) {
            let mut pieces: Vec<(u64, Vec<u8>)> = Vec::new();
            for src in 0..nranks {
                let msg = ctx.recv(src, SHUFFLE_TAG);
                let poff = u64::from_le_bytes(msg[..8].try_into().expect("piece header"));
                if poff != u64::MAX {
                    pieces.push((poff, msg));
                }
            }
            pieces.sort_by_key(|(o, _)| *o);
            // `buf` holds the unwritten tail of the current maximal
            // contiguous run, which starts at file offset `buf_off`.
            let mut buf: Vec<u8> = Vec::with_capacity(CB_BUFFER as usize);
            let mut buf_off = 0u64;
            for (poff, msg) in &pieces {
                if buf_off + buf.len() as u64 != *poff {
                    if !buf.is_empty() {
                        ctx.pwrite(self.fd, buf_off, &buf)?;
                        buf.clear();
                    }
                    buf_off = *poff;
                }
                let mut bytes = &msg[8..];
                while !bytes.is_empty() {
                    let n = bytes.len().min(CB_BUFFER as usize - buf.len());
                    buf.extend_from_slice(&bytes[..n]);
                    bytes = &bytes[n..];
                    if buf.len() == CB_BUFFER as usize {
                        ctx.pwrite(self.fd, buf_off, &buf)?;
                        buf_off += CB_BUFFER;
                        buf.clear();
                    }
                }
            }
            if !buf.is_empty() {
                ctx.pwrite(self.fd, buf_off, &buf)?;
            }
        }
        ctx.barrier();
        Ok(data.len() as u64)
    }

    /// Collective read: aggregators read their file domain once and serve
    /// every rank's requested pieces from memory.
    pub fn read_at_all(&self, ctx: &mut AppCtx, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            let (out, count) = self.read_and_scatter(ctx, offset, len)?;
            let fh = self.fh;
            Ok((out, Func::MpiFileReadAtAll { fh, offset, count }))
        })
    }

    /// The body of [`MpiFile::read_at_all`]; returns the bytes and the
    /// count the call records (0 when no rank asked for anything).
    fn read_and_scatter(
        &self,
        ctx: &mut AppCtx,
        offset: u64,
        len: u64,
    ) -> FsResult<(Vec<u8>, u64)> {
        let aggs = self.aggregators(ctx.nranks());

        let extents = ctx.allgather(&encode_extent(offset, len));
        let wants = || extents.iter().map(decode_extent);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (off, l) in wants() {
            if l > 0 {
                lo = lo.min(off);
                hi = hi.max(off + l);
            }
        }
        if hi <= lo {
            ctx.barrier();
            return Ok((Vec::new(), 0)); // nothing to read anywhere
        }
        let domain = (hi - lo).div_ceil(aggs.len() as u64);

        // Aggregators read their domain and push pieces to every rank.
        if aggs.contains(&ctx.rank()) {
            let ai = aggs
                .iter()
                .position(|&a| a == ctx.rank())
                .expect("is aggregator");
            let d_lo = lo + ai as u64 * domain;
            let d_hi = (d_lo + domain).min(hi);
            let buf = if d_hi > d_lo {
                ctx.pread(self.fd, d_lo, d_hi - d_lo)?.data
            } else {
                Vec::new()
            };
            for (dst, (woff, wlen)) in wants().enumerate() {
                let p_lo = woff.max(d_lo);
                let p_hi = (woff + wlen).min(d_hi).min(d_lo + buf.len() as u64);
                let mut msg = Vec::new();
                if p_hi > p_lo {
                    msg.extend_from_slice(&p_lo.to_le_bytes());
                    msg.extend_from_slice(&buf[(p_lo - d_lo) as usize..(p_hi - d_lo) as usize]);
                } else {
                    msg.extend_from_slice(&u64::MAX.to_le_bytes());
                }
                ctx.send(dst as u32, SHUFFLE_TAG, msg);
            }
        }

        // Everyone assembles their requested range from aggregator pieces.
        let mut out = vec![0u8; len as usize];
        let mut filled_hi = offset;
        for &agg in &aggs {
            let msg = ctx.recv(agg, SHUFFLE_TAG);
            let poff = u64::from_le_bytes(msg[..8].try_into().expect("piece header"));
            if poff != u64::MAX {
                let bytes = &msg[8..];
                let s = (poff - offset) as usize;
                out[s..s + bytes.len()].copy_from_slice(bytes);
                filled_hi = filled_hi.max(poff + bytes.len() as u64);
            }
        }
        out.truncate((filled_hi.saturating_sub(offset)) as usize);
        ctx.barrier();
        Ok((out, len))
    }

    /// `MPI_File_sync`: every rank flushes its own fd (a commit under
    /// commit semantics — the ranks that actually wrote publish here).
    pub fn sync(&self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            ctx.fsync(self.fd)?;
            Ok(((), Func::MpiFileSync { fh: self.fh }))
        })
    }

    /// Collective close.
    pub fn close(self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::MpiIo, |ctx| {
            ctx.close(self.fd)?;
            ctx.barrier();
            Ok(((), Func::MpiFileClose { fh: self.fh }))
        })
    }
}

/// One rank's `(offset, len)` contribution, as the collectives exchange it.
fn encode_extent(offset: u64, len: u64) -> [u8; 16] {
    let mut extent = [0u8; 16];
    extent[..8].copy_from_slice(&offset.to_le_bytes());
    extent[8..].copy_from_slice(&len.to_le_bytes());
    extent
}

fn decode_extent(e: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(e[..8].try_into().expect("extent")),
        u64::from_le_bytes(e[8..].try_into().expect("extent")),
    )
}

/// The overlap of `[offset, offset + data.len())` with `[lo, hi)`, as
/// `(absolute_offset, bytes)`.
fn slice_overlap(offset: u64, data: &[u8], lo: u64, hi: u64) -> Option<(u64, &[u8])> {
    let end = offset + data.len() as u64;
    let s = offset.max(lo);
    let e = end.min(hi);
    if s >= e {
        return None;
    }
    Some((s, &data[(s - offset) as usize..(e - offset) as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_overlap_cases() {
        let data = b"abcdefgh";
        assert_eq!(slice_overlap(10, data, 0, 9), None);
        assert_eq!(slice_overlap(10, data, 18, 30), None);
        assert_eq!(slice_overlap(10, data, 0, 100), Some((10, &data[..])));
        assert_eq!(slice_overlap(10, data, 12, 14), Some((12, &b"cd"[..])));
        assert_eq!(slice_overlap(10, data, 14, 100), Some((14, &b"efgh"[..])));
    }
}
