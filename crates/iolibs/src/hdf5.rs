//! HDF5 model: the library's *I/O footprint*, not its data model.
//!
//! What matters to the paper and is reproduced here:
//!
//! * **Metadata interspersed with data** (§6.2.1): each dataset gets an
//!   object header allocated immediately before its data, so header writes
//!   land between large data extents — the source of the "random" accesses
//!   the paper attributes to HDF5.
//! * **Deferred, cached metadata**: dirty metadata lives in the library's
//!   cache and reaches the file only on eviction, `H5Fflush`, or close.
//!   An application that never flushes writes each metadata block exactly
//!   once (at close) — which is why most HDF5 applications in Table 4 show
//!   *no* conflicts.
//! * **Distributed metadata writes** (§6.2.2, Figure 2): with independent
//!   (non-collective) metadata, a subset of ranks (every `metadata_stride`-th
//!   rank — ~30 of 64 in the paper's FLASH runs) performs the small
//!   metadata writes; with `collective_metadata` only rank 0 does.
//! * **`H5Fflush` semantics** (§6.3): a flush writes all dirty metadata —
//!   each participant its own symbol-table slot (rewritten at *every*
//!   flush → same-process WAW), and the superblock by a *rotating*
//!   participant (the rank that dirtied it last → cross-process WAW across
//!   consecutive flushes — FLASH's conflict). The flush ends in `fsync` on
//!   every rank: a commit, which is exactly why the same pattern is safe
//!   under commit semantics but not under session semantics.
//! * **Cache-eviction read-back**: creating more datasets than
//!   `metadata_cache_slots` evicts (writes) the oldest header; later
//!   B-tree traversals must read an evicted block back — a same-process
//!   read-after-write within one open session (ENZO's RAW-S).
//! * **open/close artifacts**: `access`+`getcwd` on create, `fstat` and a
//!   superblock read on open, `ftruncate` on close (the extra metadata
//!   operations Figure 3 shows for ParaDiS-HDF5).

use std::collections::VecDeque;

use pfssim::{FsResult, OpenFlags};
use recorder::{Func, Layer};

use crate::harness::{AppCtx, Fd};
use crate::mpiio::{MpiFile, MpiIoHints};

/// Size of the HDF5 superblock at offset 0.
pub const SUPERBLOCK: u64 = 96;
/// Size of one object header.
pub const OBJ_HEADER: u64 = 272;
/// Size of one symbol-table entry in the superblock extension.
pub const SYMTAB_ENTRY: u64 = 32;
/// Start of the symbol-table region (after the superblock).
pub const SYMTAB_BASE: u64 = SUPERBLOCK;
/// Number of symbol-table slots (the region is `SYMTAB_SLOTS × 32` bytes).
pub const SYMTAB_SLOTS: u64 = 64;
/// First byte after the fixed metadata region; object headers and data are
/// allocated from here.
pub const ALLOC_BASE: u64 = SYMTAB_BASE + SYMTAB_SLOTS * SYMTAB_ENTRY;

/// HDF5 file access properties.
#[derive(Debug, Clone, Copy)]
pub struct H5Opts {
    /// Single-process file (no communicator): all I/O by the calling rank,
    /// no barriers. Used by applications with per-rank or rank-0-only files.
    pub serial: bool,
    /// Route dataset writes through MPI-IO collective buffering.
    pub collective_data: bool,
    /// Only rank 0 performs metadata I/O (one of the paper's two FLASH
    /// fixes, §6.3).
    pub collective_metadata: bool,
    /// Every `metadata_stride`-th rank participates in metadata writes
    /// (2 → 32 of 64 ranks, matching the paper's "~30 processes").
    pub metadata_stride: u32,
    /// Metadata cache capacity (object headers). Creating more datasets
    /// evicts the oldest header to the file; creating more than *twice*
    /// this many forces read-backs of evicted blocks.
    pub metadata_cache_slots: u32,
    /// MPI-IO hints for collective data.
    pub hints: MpiIoHints,
}

impl Default for H5Opts {
    fn default() -> Self {
        H5Opts {
            serial: false,
            collective_data: false,
            collective_metadata: false,
            metadata_stride: 2,
            metadata_cache_slots: 16,
            hints: MpiIoHints::default(),
        }
    }
}

impl H5Opts {
    pub fn serial() -> Self {
        H5Opts {
            serial: true,
            ..Default::default()
        }
    }

    pub fn collective() -> Self {
        H5Opts {
            collective_data: true,
            ..Default::default()
        }
    }

    pub fn with_collective_metadata(mut self) -> Self {
        self.collective_metadata = true;
        self
    }

    pub fn with_cache_slots(mut self, slots: u32) -> Self {
        self.metadata_cache_slots = slots;
        self
    }
}

/// A dataset handle (identical on every participating rank).
#[derive(Debug, Clone)]
pub struct H5Dataset {
    pub id: u32,
    pub name: String,
    /// Absolute file offset of the dataset's first data byte.
    pub data_off: u64,
    pub size: u64,
}

enum Storage {
    Posix(Fd),
    Mpi(MpiFile),
}

/// A metadata cache entry: the object header of dataset `k`, owned by the
/// metadata participant `owner`.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    k: u32,
    header_off: u64,
    owner: u32,
}

/// An open HDF5 file.
pub struct H5File {
    id: u32,
    path: String,
    storage: Storage,
    opts: H5Opts,
    /// File-space allocation cursor (kept in lockstep on all ranks: every
    /// rank executes the same collective calls with the same sizes).
    alloc_cursor: u64,
    n_datasets: u32,
    flush_count: u32,
    /// Dirty metadata cache (FIFO eviction).
    cache: VecDeque<CacheEntry>,
    /// Headers already written to the file (evicted or flushed).
    written: Vec<CacheEntry>,
    /// Participants that own at least one dataset (they have a dirty
    /// symbol-table slot).
    owners_used: Vec<u32>,
}

impl H5File {
    /// How many ranks write metadata under the current options: this rank
    /// alone (serial), rank 0 (collective metadata), or every
    /// `metadata_stride`-th rank.
    fn participant_count(&self, ctx: &AppCtx) -> u32 {
        if self.opts.serial || self.opts.collective_metadata {
            1
        } else {
            ctx.nranks().div_ceil(self.stride())
        }
    }

    /// The `i`-th metadata-writing rank, counting round-robin.
    fn participant(&self, ctx: &AppCtx, i: u64) -> u32 {
        if self.opts.serial {
            ctx.rank()
        } else if self.opts.collective_metadata {
            0
        } else {
            (i % u64::from(self.participant_count(ctx))) as u32 * self.stride()
        }
    }

    fn stride(&self) -> u32 {
        self.opts.metadata_stride.max(1)
    }

    fn fd_for_posix(&self) -> Fd {
        match &self.storage {
            Storage::Posix(fd) => *fd,
            Storage::Mpi(mf) => mf.fd(),
        }
    }

    /// The symbol-table slot of `participant`: its position among the
    /// metadata-writing ranks (0 for a rank that is not one of them).
    fn symtab_off(&self, ctx: &AppCtx, participant: u32) -> u64 {
        let strided = !self.opts.serial && !self.opts.collective_metadata;
        let idx =
            if strided && participant.is_multiple_of(self.stride()) && participant < ctx.nranks() {
                u64::from(participant / self.stride())
            } else {
                0
            };
        SYMTAB_BASE + (idx % SYMTAB_SLOTS) * SYMTAB_ENTRY
    }

    /// `H5Fcreate`: create a fresh file. Collective unless `opts.serial`.
    pub fn create(ctx: &mut AppCtx, path: &str, opts: H5Opts) -> FsResult<H5File> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let id = ctx.alloc_lib_id();
            ctx.getcwd()?;
            ctx.access(path)?;
            let _ = ctx.lstat(path); // existence probe (ENOENT on fresh files)
            let storage = if opts.serial {
                let fd = ctx.open(path, OpenFlags::rdwr_create())?;
                ctx.fstat(fd)?;
                Storage::Posix(fd)
            } else if opts.collective_data {
                Storage::Mpi(MpiFile::open(ctx, path, false, opts.hints)?)
            } else {
                // Independent mode: every rank holds its own POSIX fd.
                let fd = if ctx.rank() == 0 {
                    let fd = ctx.open(path, OpenFlags::rdwr_create())?;
                    ctx.barrier();
                    fd
                } else {
                    ctx.barrier();
                    ctx.open(path, OpenFlags::rdwr())?
                };
                ctx.fstat(fd)?;
                Storage::Posix(fd)
            };
            let file = H5File {
                id,
                path: path.to_string(),
                storage,
                opts,
                alloc_cursor: ALLOC_BASE,
                n_datasets: 0,
                flush_count: 0,
                cache: VecDeque::new(),
                written: Vec::new(),
                owners_used: Vec::new(),
            };
            let path = ctx.intern(path);
            Ok((file, Func::H5Fcreate { path, id }))
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// `H5Dcreate`: allocate an object header + data space for a dataset of
    /// `total_bytes` (the global size across all ranks). Collective unless
    /// serial. Metadata stays in the cache; over-capacity creation evicts
    /// the oldest header to the file, and deep B-tree traversals read
    /// previously evicted blocks back (the ENZO RAW-S).
    pub fn create_dataset(
        &mut self,
        ctx: &mut AppCtx,
        name: &str,
        total_bytes: u64,
    ) -> FsResult<H5Dataset> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let k = self.n_datasets;
            self.n_datasets += 1;
            let header_off = self.alloc_cursor;
            let data_off = header_off + OBJ_HEADER;
            self.alloc_cursor = (data_off + total_bytes).div_ceil(8) * 8;

            let owner = self.participant(ctx, u64::from(k));
            if !self.owners_used.contains(&owner) {
                self.owners_used.push(owner);
            }
            self.cache.push_back(CacheEntry {
                k,
                header_off,
                owner,
            });

            // Eviction: cache over capacity → oldest header is written out by
            // its owner.
            if self.cache.len() > self.opts.metadata_cache_slots as usize {
                let victim = self.cache.pop_front().expect("non-empty");
                if ctx.rank() == victim.owner {
                    let fd = self.fd_for_posix();
                    ctx.pwrite(fd, victim.header_off, &vec![0xa5u8; OBJ_HEADER as usize])?;
                }
                self.written.push(victim);
            }

            // B-tree traversal: inserting dataset k needs the node containing
            // dataset k - 2·slots, which was evicted earlier — read it back.
            let depth = 2 * self.opts.metadata_cache_slots;
            if k >= depth {
                let needed = k - depth;
                if let Some(e) = self.written.iter().find(|e| e.k == needed).copied() {
                    if ctx.rank() == e.owner {
                        ctx.pread(self.fd_for_posix(), e.header_off, OBJ_HEADER)?;
                    }
                }
            }

            if !self.opts.serial {
                ctx.barrier();
            }
            let dset = H5Dataset {
                id: ctx.alloc_lib_id(),
                name: name.to_string(),
                data_off,
                size: total_bytes,
            };
            let func = Func::H5Dcreate {
                file: self.id,
                name: ctx.intern(name),
                id: dset.id,
            };
            Ok((dset, func))
        })
    }

    /// `H5Dwrite` of this rank's hyperslab `[offset_in_dset, +data.len())`.
    /// Collective (two-phase via MPI-IO) when the file was opened with
    /// `collective_data`, independent POSIX otherwise.
    pub fn write(
        &mut self,
        ctx: &mut AppCtx,
        dset: &H5Dataset,
        offset_in_dset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let abs = dset.data_off + offset_in_dset;
            match &self.storage {
                Storage::Mpi(mf) => mf.write_at_all(ctx, abs, data)?,
                Storage::Posix(fd) => {
                    ctx.pwrite(*fd, abs, data)?;
                }
            }
            let (dset, count) = (dset.id, data.len() as u64);
            Ok(((), Func::H5Dwrite { dset, count }))
        })
    }

    /// `H5Dread` of `[offset_in_dset, +len)`.
    pub fn read(
        &mut self,
        ctx: &mut AppCtx,
        dset: &H5Dataset,
        offset_in_dset: u64,
        len: u64,
    ) -> FsResult<Vec<u8>> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let abs = dset.data_off + offset_in_dset;
            let data = match &self.storage {
                Storage::Mpi(mf) => mf.read_at_all(ctx, abs, len)?,
                Storage::Posix(fd) => ctx.pread(*fd, abs, len)?.data,
            };
            let (dset, count) = (dset.id, len);
            Ok((data, Func::H5Dread { dset, count }))
        })
    }

    /// Write out all dirty metadata. `sb_writer` writes the superblock.
    /// Runs inside the caller's [`AppCtx::lib_call`].
    fn write_dirty_metadata(&mut self, ctx: &mut AppCtx, sb_writer: u32) -> FsResult<()> {
        let fd = self.fd_for_posix();
        // Cached headers, each by its owner, oldest first.
        let entries: Vec<CacheEntry> = self.cache.drain(..).collect();
        for e in entries {
            if ctx.rank() == e.owner {
                ctx.pwrite(fd, e.header_off, &vec![0xa5u8; OBJ_HEADER as usize])?;
            }
            self.written.push(e);
        }
        // Each dataset-owning participant rewrites its symbol-table slot
        // (dirty again after every batch of creations).
        if self.owners_used.contains(&ctx.rank()) {
            let off = self.symtab_off(ctx, ctx.rank());
            ctx.pwrite(fd, off, &vec![0x5au8; SYMTAB_ENTRY as usize])?;
        }
        // Superblock, by the designated writer.
        if ctx.rank() == sb_writer {
            ctx.pwrite(fd, 0, &vec![0x89u8; SUPERBLOCK as usize])?;
        }
        Ok(())
    }

    /// `H5Fflush`: write all dirty metadata, then fsync on every rank.
    ///
    /// The superblock writer *rotates* across flushes (the participant that
    /// dirtied the cache entry last), producing FLASH's cross-process WAW
    /// under session semantics; the trailing fsync is the commit that makes
    /// the same pattern conflict-free under commit semantics.
    pub fn flush(&mut self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let sb_writer = self.participant(ctx, u64::from(self.flush_count));
            self.flush_count += 1;
            self.write_dirty_metadata(ctx, sb_writer)?;
            ctx.fsync(self.fd_for_posix())?;
            if !self.opts.serial {
                ctx.barrier();
            }
            Ok(((), Func::H5Fflush { id: self.id }))
        })
    }

    /// `H5Fclose`: implies a final flush of dirty metadata (superblock by
    /// the first participant), truncates the file to its allocated size,
    /// and closes every rank's handle. An application that never called
    /// `H5Fflush` writes each metadata block exactly once, here.
    pub fn close(mut self, ctx: &mut AppCtx) -> FsResult<()> {
        ctx.lib_call(Layer::Hdf5, |ctx| {
            let owner = self.participant(ctx, 0);
            self.write_dirty_metadata(ctx, owner)?;
            let fd = self.fd_for_posix();
            if ctx.rank() == owner {
                ctx.ftruncate(fd, self.alloc_cursor)?;
            }
            ctx.fsync(fd)?;
            match self.storage {
                Storage::Mpi(mf) => mf.close(ctx)?,
                Storage::Posix(fd) => {
                    ctx.close(fd)?;
                    if !self.opts.serial {
                        ctx.barrier();
                    }
                }
            }
            Ok(((), Func::H5Fclose { id: self.id }))
        })
    }
}
