//! Integration tests of the full simulated I/O stack: harness + POSIX layer
//! + library models, validated through the recorder's offset resolution.

use iolibs::{
    run_app, AdiosWriter, AppCtx, H5File, H5Opts, MpiFile, MpiIoHints, NcFile, RunConfig, SiloFile,
    SiloOpts,
};
use pfssim::{OpenFlags, PfsConfig, SemanticsModel};
use recorder::{adjust, offset, AccessKind, Func, Layer};

fn cfg(nranks: u32, seed: u64) -> RunConfig {
    RunConfig::new(nranks, seed)
}

/// Resolve a run's trace (barrier-adjusted, as the analysis would).
fn resolved(outcome: &iolibs::RunOutcome) -> offset::ResolvedTrace {
    offset::resolve(&adjust::apply(&outcome.trace))
}

#[test]
fn harness_emits_startup_barrier_and_skews() {
    let out = run_app(&cfg(4, 1), |_ctx: &mut AppCtx| {});
    assert_eq!(out.trace.nranks(), 4);
    assert_eq!(out.trace.skews_ns.len(), 4);
    for rank in 0..4 {
        let recs = out.trace.rank_records(rank);
        assert!(
            recs.iter()
                .any(|r| matches!(r.func, Func::MpiBarrier { epoch: 0 })),
            "startup barrier missing on rank {rank}"
        );
    }
}

#[test]
fn posix_roundtrip_and_resolution() {
    let out = run_app(&cfg(2, 2), |ctx: &mut AppCtx| {
        let path = format!("/out_{}", ctx.rank());
        let fd = ctx.open(&path, OpenFlags::rdwr_create()).unwrap();
        ctx.write(fd, &[ctx.rank() as u8; 100]).unwrap();
        ctx.write(fd, &[7; 50]).unwrap();
        ctx.lseek(fd, 0, pfssim::Whence::Set).unwrap();
        let data = ctx.read(fd, 100).unwrap().data;
        assert_eq!(data, vec![ctx.rank() as u8; 100]);
        ctx.close(fd).unwrap();
    });
    let r = resolved(&out);
    assert_eq!(r.seek_mismatches, 0);
    // Per rank: two writes (0..100, 100..150) and one read (0..100).
    for rank in 0..2 {
        let acc: Vec<_> = r.accesses.iter().filter(|a| a.rank == rank).collect();
        assert_eq!(acc.len(), 3);
        assert_eq!(
            (acc[0].offset, acc[0].len, acc[0].kind),
            (0, 100, AccessKind::Write)
        );
        assert_eq!(
            (acc[1].offset, acc[1].len, acc[1].kind),
            (100, 50, AccessKind::Write)
        );
        assert_eq!(
            (acc[2].offset, acc[2].len, acc[2].kind),
            (0, 100, AccessKind::Read)
        );
    }
    // Final file contents verified through the PFS.
    let img = out.pfs.published_image("/out_1").unwrap();
    assert_eq!(img.read(0, 100), vec![1u8; 100]);
    assert_eq!(img.read(100, 50), vec![7u8; 50]);
}

#[test]
fn traces_are_deterministic_per_seed() {
    let program = |ctx: &mut AppCtx| {
        let fd = ctx
            .open(&format!("/f{}", ctx.rank()), OpenFlags::rdwr_create())
            .unwrap();
        ctx.write(fd, &[1; 64]).unwrap();
        ctx.barrier();
        ctx.close(fd).unwrap();
    };
    let a = run_app(&cfg(6, 42), program);
    let b = run_app(&cfg(6, 42), program);
    assert_eq!(
        a.trace.encode(),
        b.trace.encode(),
        "same seed ⇒ identical trace bytes"
    );
    let c = run_app(&cfg(6, 43), program);
    assert_ne!(
        a.trace.encode(),
        c.trace.encode(),
        "different seed ⇒ different interleaving"
    );
}

#[test]
fn mpiio_collective_write_uses_only_aggregators() {
    let nranks = 16;
    let chunk = 1000u64;
    let out = run_app(&cfg(nranks, 3), |ctx: &mut AppCtx| {
        let mf = MpiFile::open(ctx, "/shared", true, MpiIoHints { cb_nodes: 4 }).unwrap();
        let off = ctx.rank() as u64 * chunk;
        let data = vec![ctx.rank() as u8; chunk as usize];
        mf.write_at_all(ctx, off, &data).unwrap();
        mf.close(ctx).unwrap();
    });
    // Only the 4 aggregators (ranks 0,4,8,12) issued POSIX writes.
    let mut writers: Vec<u32> = out
        .trace
        .ranks
        .iter()
        .flatten()
        .filter(|r| r.layer == Layer::Posix && matches!(r.func, Func::Pwrite { .. }))
        .map(|r| r.rank)
        .collect();
    writers.sort_unstable();
    writers.dedup();
    assert_eq!(writers, vec![0, 4, 8, 12]);
    // Every rank recorded the MPI-IO-level collective call.
    for rank in 0..nranks {
        assert!(out
            .trace
            .rank_records(rank)
            .iter()
            .any(|r| matches!(r.func, Func::MpiFileWriteAtAll { .. })));
    }
    // And the file contents are exactly the concatenated rank chunks.
    let img = out.pfs.published_image("/shared").unwrap();
    assert_eq!(img.size(), nranks as u64 * chunk);
    for rank in 0..nranks {
        assert_eq!(
            img.read(rank as u64 * chunk, chunk),
            vec![rank as u8; chunk as usize],
            "rank {rank} chunk corrupted by aggregation"
        );
    }
}

#[test]
fn mpiio_collective_read_returns_each_ranks_slice() {
    let nranks = 8;
    let chunk = 512u64;
    let out = run_app(&cfg(nranks, 9), |ctx: &mut AppCtx| {
        let mf = MpiFile::open(ctx, "/in", true, MpiIoHints { cb_nodes: 2 }).unwrap();
        let off = ctx.rank() as u64 * chunk;
        mf.write_at_all(ctx, off, &vec![ctx.rank() as u8 + 1; chunk as usize])
            .unwrap();
        mf.sync(ctx).unwrap();
        let data = mf.read_at_all(ctx, off, chunk).unwrap();
        assert_eq!(data, vec![ctx.rank() as u8 + 1; chunk as usize]);
        mf.close(ctx).unwrap();
    });
    drop(out);
}

#[test]
fn hdf5_no_flush_means_no_metadata_overwrites() {
    // A plain HDF5 writer (no explicit H5Fflush) writes each metadata
    // block exactly once — the reason LAMMPS-HDF5/QMCPACK/Chombo show no
    // conflicts in Table 4.
    let out = run_app(&cfg(1, 5), |ctx: &mut AppCtx| {
        let mut f = H5File::create(ctx, "/dump.h5", H5Opts::serial()).unwrap();
        for i in 0..4 {
            let d = f.create_dataset(ctx, &format!("var{i}"), 1 << 12).unwrap();
            f.write(ctx, &d, 0, &vec![i as u8; 1 << 12]).unwrap();
        }
        f.close(ctx).unwrap();
    });
    let r = resolved(&out);
    // Group writes by (offset, len) and check no byte is written twice.
    let mut writes: Vec<(u64, u64)> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .map(|a| (a.offset, a.end()))
        .collect();
    writes.sort_unstable();
    for w in writes.windows(2) {
        assert!(w[0].1 <= w[1].0, "metadata overwrite without flush: {w:?}");
    }
}

#[test]
fn hdf5_flush_rotates_superblock_writer() {
    // Shared file, independent metadata, multiple flushes: the superblock
    // (offset 0) must be written by different ranks across flushes — the
    // FLASH WAW-D mechanism.
    let out = run_app(&cfg(8, 7), |ctx: &mut AppCtx| {
        let mut f = H5File::create(ctx, "/ckpt.h5", H5Opts::default()).unwrap();
        for i in 0..4 {
            let d = f.create_dataset(ctx, &format!("d{i}"), 8 * 256).unwrap();
            f.write(ctx, &d, ctx.rank() as u64 * 256, &[i as u8; 256])
                .unwrap();
            f.flush(ctx).unwrap();
        }
        f.close(ctx).unwrap();
    });
    let r = resolved(&out);
    let mut sb_writers: Vec<u32> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write && a.offset == 0)
        .map(|a| a.rank)
        .collect();
    assert!(
        sb_writers.len() >= 4,
        "superblock written once per flush + close"
    );
    sb_writers.dedup();
    assert!(
        sb_writers.len() > 1,
        "superblock writer must rotate: {sb_writers:?}"
    );
    // H5Fflush issues fsync (a commit) on every rank.
    assert!(r.syncs.iter().any(|s| s.kind == recorder::SyncKind::Commit));
}

#[test]
fn hdf5_collective_metadata_pins_rank0() {
    let out = run_app(&cfg(8, 7), |ctx: &mut AppCtx| {
        let mut f = H5File::create(
            ctx,
            "/ckpt.h5",
            H5Opts::default().with_collective_metadata(),
        )
        .unwrap();
        for i in 0..4 {
            let d = f.create_dataset(ctx, &format!("d{i}"), 8 * 256).unwrap();
            f.write(ctx, &d, ctx.rank() as u64 * 256, &[i as u8; 256])
                .unwrap();
            f.flush(ctx).unwrap();
        }
        f.close(ctx).unwrap();
    });
    let r = resolved(&out);
    // All small metadata writes (superblock + symtab, below ALLOC_BASE)
    // come from rank 0.
    for a in r.accesses.iter().filter(|a| a.kind == AccessKind::Write) {
        if a.offset < iolibs::hdf5::ALLOC_BASE {
            assert_eq!(
                a.rank, 0,
                "collective metadata must pin metadata I/O to rank 0"
            );
        }
    }
}

#[test]
fn hdf5_cache_eviction_causes_read_back() {
    // Serial file with many datasets: deep B-tree traversals read evicted
    // metadata blocks back (ENZO's RAW-S mechanism).
    let out = run_app(&cfg(1, 11), |ctx: &mut AppCtx| {
        let mut f = H5File::create(ctx, "/enzo.h5", H5Opts::serial().with_cache_slots(4)).unwrap();
        for i in 0..12 {
            let d = f.create_dataset(ctx, &format!("grid{i}"), 512).unwrap();
            f.write(ctx, &d, 0, &[i as u8; 512]).unwrap();
        }
        f.close(ctx).unwrap();
    });
    let r = resolved(&out);
    let reads: Vec<_> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Read)
        .collect();
    assert!(!reads.is_empty(), "expected metadata read-backs");
    // Each read-back hits bytes previously written by the same rank.
    let writes: Vec<_> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .collect();
    for rd in &reads {
        assert!(
            writes
                .iter()
                .any(|w| w.t_start < rd.t_start && w.offset < rd.end() && rd.offset < w.end()),
            "read-back at {} did not hit a prior write",
            rd.offset
        );
    }
}

#[test]
fn netcdf_rewrites_numrecs_every_record() {
    let out = run_app(&cfg(1, 13), |ctx: &mut AppCtx| {
        let mut nc = NcFile::create(ctx, "/dump.nc").unwrap();
        for _ in 0..3 {
            nc.put_record(ctx, &[9u8; 128]).unwrap();
        }
        nc.close(ctx).unwrap();
    });
    let r = resolved(&out);
    let numrecs_writes = r
        .accesses
        .iter()
        .filter(|a| {
            a.kind == AccessKind::Write && a.offset == iolibs::netcdf::NC_NUMRECS_OFF && a.len == 4
        })
        .count();
    assert_eq!(
        numrecs_writes, 3,
        "numrecs rewritten once per record (WAW-S source)"
    );
}

#[test]
fn adios_overwrites_status_byte_on_rank0() {
    let out = run_app(&cfg(8, 17), |ctx: &mut AppCtx| {
        let mut w = AdiosWriter::open(ctx, "/lj.bp", 2).unwrap();
        for _ in 0..3 {
            w.write_step(ctx, &vec![ctx.rank() as u8; 256]).unwrap();
        }
        w.close(ctx).unwrap();
    });
    let r = resolved(&out);
    let status_writes: Vec<_> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write && a.len == 1 && a.offset == 0)
        .collect();
    assert_eq!(
        status_writes.len(),
        3,
        "status byte rewritten once per step"
    );
    assert!(status_writes.iter().all(|a| a.rank == 0));
    // Subfiles exist for both aggregators.
    assert!(out.pfs.published_image("/lj.bp/data.0").is_ok());
    assert!(out.pfs.published_image("/lj.bp/data.1").is_ok());
    assert!(out.pfs.published_image("/lj.bp/md.idx").is_ok());
}

#[test]
fn silo_baton_produces_waw_s_within_session_only() {
    let out = run_app(&cfg(8, 19), |ctx: &mut AppCtx| {
        SiloFile::dump(
            ctx,
            "/macsio",
            0,
            SiloOpts {
                n_files: 2,
                block_bytes: 1024,
            },
        )
        .unwrap();
    });
    let r = resolved(&out);
    // Each rank double-writes its TOC slot: find same-rank overlapping
    // write pairs with no close in between — they must exist…
    let writes: Vec<_> = r
        .accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .collect();
    let mut same_rank_overwrites = 0;
    for (i, w1) in writes.iter().enumerate() {
        for w2 in &writes[i + 1..] {
            if w1.rank == w2.rank
                && w1.file == w2.file
                && w1.offset < w2.end()
                && w2.offset < w1.end()
            {
                same_rank_overwrites += 1;
            }
        }
    }
    assert!(
        same_rank_overwrites >= 8,
        "every rank overwrites its TOC slot"
    );
    // …and the baton order means each rank's session is closed before the
    // next rank opens: check per-file open/close alternation.
    let mut last_close: std::collections::HashMap<recorder::PathId, u64> = Default::default();
    for s in &r.syncs {
        match s.kind {
            recorder::SyncKind::Open => {
                if let Some(&t) = last_close.get(&s.file) {
                    assert!(t <= s.t, "baton open before predecessor close");
                }
            }
            recorder::SyncKind::Close => {
                last_close.insert(s.file, s.t);
            }
            recorder::SyncKind::Commit => {}
        }
    }
}

#[test]
fn origin_attribution_is_preserved() {
    let out = run_app(&cfg(2, 23), |ctx: &mut AppCtx| {
        // App-level POSIX…
        let fd = ctx
            .open(&format!("/app_{}", ctx.rank()), OpenFlags::rdwr_create())
            .unwrap();
        ctx.write(fd, &[1; 8]).unwrap();
        ctx.close(fd).unwrap();
        // …and HDF5-issued POSIX.
        let mut f = H5File::create(ctx, &format!("/h5_{}", ctx.rank()), H5Opts::serial()).unwrap();
        let d = f.create_dataset(ctx, "x", 64).unwrap();
        f.write(ctx, &d, 0, &[2; 64]).unwrap();
        f.close(ctx).unwrap();
    });
    let posix_origins: std::collections::HashSet<Layer> = out
        .trace
        .ranks
        .iter()
        .flatten()
        .filter(|r| r.layer == Layer::Posix)
        .map(|r| r.origin)
        .collect();
    assert!(posix_origins.contains(&Layer::App));
    assert!(posix_origins.contains(&Layer::Hdf5));
}

#[test]
fn semantics_choice_does_not_change_the_trace_shape() {
    // For a race-free program the *set of operations* is identical across
    // engines (timings differ through lock latency): compare record func
    // sequences per rank.
    let program = |ctx: &mut AppCtx| {
        let fd = ctx
            .open(&format!("/f{}", ctx.rank()), OpenFlags::rdwr_create())
            .unwrap();
        ctx.write(fd, &[1; 256]).unwrap();
        ctx.fsync(fd).unwrap();
        ctx.close(fd).unwrap();
        ctx.barrier();
    };
    let strong = run_app(&cfg(4, 31), program);
    let session = run_app(&cfg(4, 31).with_semantics(SemanticsModel::Session), program);
    for rank in 0..4 {
        let f1: Vec<&'static str> = strong
            .trace
            .rank_records(rank)
            .iter()
            .map(|r| r.func.name())
            .collect();
        let f2: Vec<&'static str> = session
            .trace
            .rank_records(rank)
            .iter()
            .map(|r| r.func.name())
            .collect();
        assert_eq!(f1, f2, "rank {rank} op sequence must be engine-independent");
    }
}

#[test]
fn a_run_uses_the_file_system_its_config_names() {
    // The configured file system, engine included, is the one the run gets:
    // no other field of the config overrides it.
    let mut cfg = cfg(2, 3);
    cfg.pfs = PfsConfig::default().with_semantics(SemanticsModel::Commit);
    let out = run_app(&cfg, |ctx: &mut AppCtx| {
        assert_eq!(
            ctx.semantics(),
            SemanticsModel::Commit,
            "rank {}",
            ctx.rank()
        );
    });
    assert_eq!(out.pfs.config().semantics, SemanticsModel::Commit);
}

#[test]
fn a_lazy_descriptor_on_a_strong_pfs_runs_as_on_a_commit_pfs() {
    // `O_LAZY` runs a descriptor of a strong file system under commit
    // semantics: pfssim takes no extent locks for it, so the harness
    // charges no lock round trips either, and the run is timed as one on
    // a commit file system.
    let program = |ctx: &mut AppCtx| {
        let fd = ctx
            .open(
                &format!("/f{}", ctx.rank()),
                OpenFlags::rdwr_create().with_lazy(),
            )
            .unwrap();
        ctx.write(fd, &[1; 4096]).unwrap();
        ctx.pwrite(fd, 8192, &[2; 4096]).unwrap();
        ctx.pread(fd, 0, 4096).unwrap();
        ctx.fsync(fd).unwrap();
        ctx.close(fd).unwrap();
        ctx.barrier();
    };
    let strong = run_app(&cfg(2, 5), program);
    let commit = run_app(&cfg(2, 5).with_semantics(SemanticsModel::Commit), program);
    assert_eq!(strong.pfs.stats().locks_acquired, 0);
    assert_eq!(strong.trace.encode(), commit.trace.encode());
    assert_eq!(strong.final_time_ns, commit.final_time_ns);
}
