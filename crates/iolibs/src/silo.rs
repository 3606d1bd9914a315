//! Silo (multi-file / PMPIO baton) model, as used by MACSio.
//!
//! MACSio's Silo driver writes N ranks into M files (the N-M pattern of
//! Table 3) with "baton passing": within each group of N/M ranks, only the
//! baton holder has the file open; it writes its block at a rank-strided
//! offset, updates the file's directory table — twice, once to add its
//! objects and once to finalize the TOC count, the same bytes by the same
//! process in one session: the WAW-S of Table 4 — then closes the file and
//! hands the baton to the next rank. Because every baton hand-off is a
//! close followed by an open, the *cross-rank* TOC overwrites are exactly
//! the close-to-open pattern session semantics permits: no WAW-D.

use pfssim::{FsResult, OpenFlags};
use recorder::Layer;

use crate::harness::AppCtx;

/// Tag used for baton hand-off messages.
const BATON_TAG: u32 = u32::MAX - 3;

/// Size of the directory (TOC) region at the start of each Silo file.
pub const SILO_TOC: u64 = 256;

/// Options for a multi-file Silo dump.
#[derive(Debug, Clone, Copy)]
pub struct SiloOpts {
    /// Number of files (M of the N-M pattern).
    pub n_files: u32,
    /// Bytes each rank writes per dump.
    pub block_bytes: u64,
}

impl Default for SiloOpts {
    fn default() -> Self {
        SiloOpts {
            n_files: 8,
            block_bytes: 4096,
        }
    }
}

/// One collective multi-file Silo dump (the whole PMPIO create → baton →
/// close cycle). Every rank must call this.
pub struct SiloFile;

impl SiloFile {
    /// Perform dump number `dump_idx` into `<dir>/dump_<idx>.<file>.silo`.
    pub fn dump(ctx: &mut AppCtx, dir: &str, dump_idx: u32, opts: SiloOpts) -> FsResult<()> {
        ctx.lib_call(Layer::Silo, |ctx| {
            let id = ctx.alloc_lib_id();
            let nranks = ctx.nranks();
            let n_files = opts.n_files.clamp(1, nranks);
            let group = nranks.div_ceil(n_files);
            let file_idx = ctx.rank() / group;
            let rank_in_group = ctx.rank() % group;
            let first = file_idx * group;
            let path = format!("{dir}/dump_{dump_idx}.{file_idx}.silo");

            if ctx.rank() == 0 {
                ctx.mkdir_p(dir)?;
            }
            ctx.barrier();

            // Wait for the baton from the previous rank in the group.
            if rank_in_group != 0 {
                ctx.recv(ctx.rank() - 1, BATON_TAG);
            }

            let fd = if rank_in_group == 0 {
                // DBCreate: first writer creates the file and the TOC.
                let fd = ctx.open(&path, OpenFlags::rdwr_create())?;
                ctx.pwrite(fd, 0, &vec![b'S'; SILO_TOC as usize])?;
                fd
            } else {
                // DBOpen: subsequent writers open after the predecessor's
                // close (the PMPIO hand-off).
                ctx.access(&path)?;
                ctx.open(&path, OpenFlags::rdwr())?
            };
            // Write this rank's block at its strided offset, streamed in
            // per-variable pieces (mesh + fields), as MACSio does.
            let off = SILO_TOC + rank_in_group as u64 * opts.block_bytes;
            let block = vec![ctx.rank() as u8; opts.block_bytes as usize];
            let piece = (opts.block_bytes / 4).max(1) as usize;
            let mut pos = 0usize;
            while pos < block.len() {
                let end = (pos + piece).min(block.len());
                ctx.pwrite(fd, off + pos as u64, &block[pos..end])?;
                pos = end;
            }
            // Update the TOC for the new objects…
            let toc_slot = 8 + (rank_in_group as u64 % 8) * 16;
            ctx.pwrite(fd, toc_slot, &[1u8; 16])?;
            // …and finalize the directory count — the same bytes again, by
            // the same process, in the same session (WAW-S).
            ctx.pwrite(fd, toc_slot, &[2u8; 16])?;
            ctx.close(fd)?;

            // Pass the baton.
            let last_in_group = first + group.min(nranks - first) - 1;
            if ctx.rank() != last_in_group {
                ctx.send(ctx.rank() + 1, BATON_TAG, vec![1]);
            }
            ctx.barrier();
            Ok(((), ctx.named_call("DBPutAll", id as u64, opts.block_bytes)))
        })
    }
}
