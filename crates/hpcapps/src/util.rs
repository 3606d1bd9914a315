//! Shared helpers for the application replicas.

use iolibs::{AppCtx, Fd, H5File};
use pfssim::FsResult;

/// Positional write of `data` at `offset`, streamed in `n` roughly equal
/// consecutive pieces — how real applications emit buffers (per-row /
/// per-variable loops), and what gives Figure 1(b) its locally-consecutive
/// shape.
pub fn pwrite_chunks(ctx: &mut AppCtx, fd: Fd, offset: u64, data: &[u8], n: u32) -> FsResult<()> {
    let n = n.max(1) as u64;
    let len = data.len() as u64;
    let chunk = len.div_ceil(n).max(1);
    let mut pos = 0u64;
    while pos < len {
        let end = (pos + chunk).min(len);
        ctx.pwrite(fd, offset + pos, &data[pos as usize..end as usize])?;
        pos = end;
    }
    Ok(())
}

/// HDF5 hyperslab write streamed in `n` sub-slabs.
pub fn h5_write_chunks(
    ctx: &mut AppCtx,
    file: &mut H5File,
    dset: &iolibs::hdf5::H5Dataset,
    offset_in_dset: u64,
    data: &[u8],
    n: u32,
) -> FsResult<()> {
    let n = n.max(1) as u64;
    let len = data.len() as u64;
    let chunk = len.div_ceil(n).max(1);
    let mut pos = 0u64;
    while pos < len {
        let end = (pos + chunk).min(len);
        file.write(
            ctx,
            dset,
            offset_in_dset + pos,
            &data[pos as usize..end as usize],
        )?;
        pos = end;
    }
    Ok(())
}
