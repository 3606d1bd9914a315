//! ADIOS2 (BP4-style) model, as used by LAMMPS-ADIOS.
//!
//! A `.bp` output is a *directory*: `data.<i>` subfiles written by a small
//! set of aggregators (the M-M pattern of Table 3), plus the global
//! metadata files `md.0` and `md.idx` maintained by rank 0. Each step
//! appends an index entry to `md.idx` **and overwrites a single status
//! byte** at a fixed offset — "in LAMMPS-ADIOS the conflict is due to the
//! overwriting of a single byte of the ADIOS metadata file (*/md.idx)"
//! (§6.3): the WAW-S Table 4 reports.

use pfssim::{FsResult, OpenFlags};
use recorder::Layer;

use crate::harness::{AppCtx, Fd};

/// Tag for shuffling payload to the ADIOS aggregators.
const ADIOS_TAG: u32 = u32::MAX - 2;

/// Size of one `md.idx` step entry.
pub const IDX_ENTRY: u64 = 64;
/// Offset of the status byte rewritten every step.
pub const IDX_STATUS_OFF: u64 = 0;
/// `md.idx` header size (entries are appended after it).
pub const IDX_HEADER: u64 = 64;

/// An open ADIOS "engine" (one `.bp` directory).
pub struct AdiosWriter {
    id: u32,
    dir: String,
    n_writers: u32,
    /// Subfile fd on aggregator ranks, `None` elsewhere.
    data_fd: Option<Fd>,
    /// `md.idx` and `md.0` fds on rank 0.
    idx_fd: Option<Fd>,
    md_fd: Option<Fd>,
    step: u64,
    /// Tail of this aggregator's subfile.
    data_tail: u64,
    md_tail: u64,
}

impl AdiosWriter {
    /// Which aggregator serves `rank`.
    fn aggregator_of(rank: u32, nranks: u32, n_writers: u32) -> u32 {
        let group = nranks.div_ceil(n_writers);
        (rank / group) * group
    }

    fn is_aggregator(ctx: &AppCtx, n_writers: u32) -> bool {
        Self::aggregator_of(ctx.rank(), ctx.nranks(), n_writers) == ctx.rank()
    }

    /// `adios2::Engine` open in write mode. Collective.
    pub fn open(ctx: &mut AppCtx, dir: &str, n_writers: u32) -> FsResult<AdiosWriter> {
        ctx.lib_call(Layer::Adios, |ctx| {
            let id = ctx.alloc_lib_id();
            let n_writers = n_writers.clamp(1, ctx.nranks());
            ctx.getcwd()?; // engine resolves the output path
            if ctx.rank() == 0 {
                ctx.mkdir_p(dir)?;
                // BP4 marks an output in progress with a sentinel file,
                // removed again when the engine closes.
                let sentinel = format!("{dir}/.active");
                let fd = ctx.open(&sentinel, OpenFlags::wronly_create_trunc())?;
                ctx.close(fd)?;
            }
            ctx.barrier();
            let data_fd = if Self::is_aggregator(ctx, n_writers) {
                let sub = ctx.rank() / ctx.nranks().div_ceil(n_writers);
                Some(ctx.open(
                    &format!("{dir}/data.{sub}"),
                    OpenFlags::wronly_create_trunc(),
                )?)
            } else {
                None
            };
            let (idx_fd, md_fd) = if ctx.rank() == 0 {
                let idx_path = format!("{dir}/md.idx");
                if ctx.access(&idx_path)? {
                    ctx.unlink(&idx_path)?; // stale index from a previous run
                }
                let idx = ctx.open(&idx_path, OpenFlags::rdwr_create())?;
                ctx.pwrite(idx, 0, &vec![0u8; IDX_HEADER as usize])?;
                let md = ctx.open(&format!("{dir}/md.0"), OpenFlags::wronly_create_trunc())?;
                (Some(idx), Some(md))
            } else {
                (None, None)
            };
            let writer = AdiosWriter {
                id,
                dir: dir.to_string(),
                n_writers,
                data_fd,
                idx_fd,
                md_fd,
                step: 0,
                data_tail: 0,
                md_tail: 0,
            };
            Ok((writer, ctx.named_call("adios_open", id as u64, 0)))
        })
    }

    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// One output step: every rank ships its payload to its aggregator;
    /// aggregators append to their subfile; rank 0 appends an index entry
    /// to `md.idx`, appends to `md.0`, and rewrites the status byte.
    pub fn write_step(&mut self, ctx: &mut AppCtx, payload: &[u8]) -> FsResult<()> {
        ctx.lib_call(Layer::Adios, |ctx| {
            let agg = Self::aggregator_of(ctx.rank(), ctx.nranks(), self.n_writers);
            ctx.send(agg, ADIOS_TAG, payload.to_vec());
            if let Some(fd) = self.data_fd {
                let group = ctx.nranks().div_ceil(self.n_writers);
                let lo = ctx.rank();
                let hi = (lo + group).min(ctx.nranks());
                let mut blob = Vec::new();
                for src in lo..hi {
                    blob.extend_from_slice(&ctx.recv(src, ADIOS_TAG));
                }
                ctx.pwrite(fd, self.data_tail, &blob)?;
                self.data_tail += blob.len() as u64;
            }
            if ctx.rank() == 0 {
                let idx_fd = self.idx_fd.expect("rank 0 holds md.idx");
                let md_fd = self.md_fd.expect("rank 0 holds md.0");
                // Append the step index entry…
                ctx.pwrite(
                    idx_fd,
                    IDX_HEADER + self.step * IDX_ENTRY,
                    &[1u8; IDX_ENTRY as usize],
                )?;
                // …append variable metadata…
                ctx.pwrite(md_fd, self.md_tail, &[2u8; 256])?;
                // …and overwrite the single status byte (the WAW-S).
                ctx.pwrite(idx_fd, IDX_STATUS_OFF, &[self.step as u8])?;
                self.md_tail += 256;
            }
            ctx.barrier();
            self.step += 1;
            let func = ctx.named_call("adios_write", self.id as u64, payload.len() as u64);
            Ok(((), func))
        })
    }

    /// Engine close. Collective; removes the in-progress sentinel.
    pub fn close(self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::Adios, |ctx| {
            for fd in [self.data_fd, self.idx_fd, self.md_fd]
                .into_iter()
                .flatten()
            {
                ctx.close(fd)?;
            }
            if ctx.rank() == 0 {
                ctx.unlink(&format!("{}/.active", self.dir))?;
            }
            ctx.barrier();
            Ok(((), ctx.named_call("adios_close", self.id as u64, 0)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_assignment_groups_ranks() {
        // 8 ranks, 2 writers → groups of 4, aggregators 0 and 4.
        for r in 0..4 {
            assert_eq!(AdiosWriter::aggregator_of(r, 8, 2), 0);
        }
        for r in 4..8 {
            assert_eq!(AdiosWriter::aggregator_of(r, 8, 2), 4);
        }
    }
}
