//! NetCDF (classic format) model, as used single-process by LAMMPS-NetCDF.
//!
//! The classic format keeps a header at the start of the file containing
//! `numrecs`, the count of records along the unlimited dimension. Appending
//! a record therefore (a) appends the record data and (b) rewrites the
//! header's `numrecs` field — the same bytes, by the same process, with no
//! intervening close: the WAW-S conflict Table 4 reports for LAMMPS-NetCDF.

use pfssim::{FsResult, OpenFlags};
use recorder::Layer;

use crate::harness::{AppCtx, Fd};

/// Size of the classic-format header this model writes.
pub const NC_HEADER: u64 = 1024;
/// Offset of the `numrecs` field inside the header.
pub const NC_NUMRECS_OFF: u64 = 4;

/// A NetCDF file opened by a single process.
pub struct NcFile {
    id: u32,
    fd: Fd,
    path: String,
    /// Next free offset for record data.
    tail: u64,
    numrecs: u64,
}

impl NcFile {
    /// `nc_create` + `nc_enddef`: create the file and write the header.
    pub fn create(ctx: &mut AppCtx, path: &str) -> FsResult<NcFile> {
        ctx.lib_call(Layer::NetCdf, |ctx| {
            let id = ctx.alloc_lib_id();
            ctx.access(path)?;
            let _ = ctx.stat(path);
            let fd = ctx.open(path, OpenFlags::rdwr_create())?;
            ctx.pwrite(fd, 0, &vec![b'C'; NC_HEADER as usize])?;
            let file = NcFile {
                id,
                fd,
                path: path.to_string(),
                tail: NC_HEADER,
                numrecs: 0,
            };
            Ok((file, ctx.named_call("nc_create", id as u64, 0)))
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// `nc_put_vara` along the unlimited dimension: append the record and
    /// rewrite the header's `numrecs` field (the WAW-S).
    pub fn put_record(&mut self, ctx: &mut AppCtx, data: &[u8]) -> FsResult<()> {
        ctx.lib_call(Layer::NetCdf, |ctx| {
            // Record data goes out in per-variable pieces (≤ 2 KiB), then
            // the header's numrecs field is rewritten.
            let mut pos = 0usize;
            while pos < data.len() {
                let end = (pos + 2048).min(data.len());
                ctx.pwrite(self.fd, self.tail + pos as u64, &data[pos..end])?;
                pos = end;
            }
            ctx.pwrite(
                self.fd,
                NC_NUMRECS_OFF,
                &(self.numrecs + 1).to_be_bytes()[4..],
            )?;
            self.tail += data.len() as u64;
            self.numrecs += 1;
            let func = ctx.named_call("nc_put_vara", self.id as u64, data.len() as u64);
            Ok(((), func))
        })
    }

    /// `nc_sync`: flush to storage.
    pub fn sync(&mut self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::NetCdf, |ctx| {
            ctx.fsync(self.fd)?;
            Ok(((), ctx.named_call("nc_sync", self.id as u64, 0)))
        })
    }

    /// `nc_close`.
    pub fn close(self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::NetCdf, |ctx| {
            ctx.close(self.fd)?;
            Ok(((), ctx.named_call("nc_close", self.id as u64, 0)))
        })
    }
}
