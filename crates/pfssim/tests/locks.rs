//! Lock-manager behaviour under the strong engine: acquisitions scale with
//! extents, revocations appear only when different clients touch the same
//! extent — the §3.1 cost model ("the metadata server, where the locks are
//! normally maintained, may become a bottleneck").

use pfssim::{OpenFlags, Pfs, PfsConfig, SemanticsModel};

fn strong() -> Pfs {
    Pfs::new(PfsConfig {
        semantics: SemanticsModel::Strong,
        lock_granularity: 1 << 20,
        ..PfsConfig::default()
    })
}

#[test]
fn disjoint_writers_never_revoke() {
    let fs = strong();
    for rank in 0..8u32 {
        let mut c = fs.client(rank);
        let flags = if rank == 0 {
            OpenFlags::rdwr_create()
        } else {
            OpenFlags::rdwr()
        };
        let fd = c.open("/shared", flags, rank as u64).unwrap();
        c.pwrite(fd, rank as u64 * 4096, &[1u8; 4096], 10 + rank as u64)
            .unwrap();
        c.close(fd, 20 + rank as u64).unwrap();
    }
    let s = fs.stats();
    assert_eq!(s.locks_acquired, 8);
    assert_eq!(
        s.lock_revocations, 0,
        "N-1 strided writers own disjoint extents"
    );
}

#[test]
fn shared_extent_ping_pong_revokes() {
    // Two clients alternately rewriting the same header block: every
    // write after the first revokes the other's lock.
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/shared", OpenFlags::rdwr_create(), 0).unwrap();
    let fdb = b.open("/shared", OpenFlags::rdwr(), 1).unwrap();
    for i in 0..5u64 {
        a.pwrite(fda, 0, &[1u8; 96], 10 + i * 2).unwrap();
        b.pwrite(fdb, 0, &[2u8; 96], 11 + i * 2).unwrap();
    }
    let s = fs.stats();
    assert_eq!(
        s.lock_revocations, 9,
        "every handoff after the first write revokes"
    );
}

#[test]
fn same_client_rewrites_do_not_revoke() {
    let fs = strong();
    let mut a = fs.client(0);
    let fd = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    for i in 0..10u64 {
        a.pwrite(fd, 0, &[i as u8; 128], i).unwrap();
    }
    assert_eq!(fs.stats().lock_revocations, 0);
}

#[test]
fn foreign_read_after_write_counts_as_revocation() {
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    a.pwrite(fda, 0, &[7u8; 256], 1).unwrap();
    let fdb = b.open("/f", OpenFlags::rdonly(), 2).unwrap();
    b.pread(fdb, 0, 256, 3).unwrap();
    let s = fs.stats();
    assert_eq!(
        s.lock_revocations, 1,
        "the reader must downgrade the writer's lock"
    );
}

// A byte's write lock is held by its last writer in the published image.

#[test]
fn a_truncated_range_has_no_holder() {
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    a.pwrite(fda, 0, &[1u8; 256], 1).unwrap();
    a.ftruncate(fda, 0, 2).unwrap();
    let fdb = b.open("/f", OpenFlags::rdwr(), 3).unwrap();
    b.pwrite(fdb, 0, &[2u8; 256], 4).unwrap();
    assert_eq!(fs.stats().lock_revocations, 0);
}

#[test]
fn a_published_lazy_write_makes_its_writer_the_holder() {
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a
        .open("/f", OpenFlags::rdwr_create().with_lazy(), 0)
        .unwrap();
    a.pwrite(fda, 0, &[1u8; 256], 1).unwrap();
    a.fsync(fda, 2).unwrap();
    let fdb = b.open("/f", OpenFlags::rdwr(), 3).unwrap();
    b.pwrite(fdb, 0, &[2u8; 256], 4).unwrap();
    assert_eq!(fs.stats().lock_revocations, 1);
}

#[test]
fn one_revocation_per_run_of_one_holder() {
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    a.pwrite(fda, 0, &[1u8; 100], 1).unwrap();
    a.pwrite(fda, 100, &[1u8; 100], 2).unwrap();
    let fdb = b.open("/f", OpenFlags::rdwr(), 3).unwrap();
    b.pwrite(fdb, 0, &[2u8; 200], 4).unwrap();
    assert_eq!(fs.stats().lock_revocations, 1);
}

#[test]
fn relaxed_engines_never_lock_or_revoke() {
    for model in [
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let fs = Pfs::new(PfsConfig::default().with_semantics(model));
        let mut a = fs.client(0);
        let mut b = fs.client(1);
        let fda = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
        a.pwrite(fda, 0, &[1u8; 4096], 1).unwrap();
        a.close(fda, 2).unwrap();
        let fdb = b.open("/f", OpenFlags::rdwr(), 3).unwrap();
        b.pwrite(fdb, 0, &[2u8; 4096], 4).unwrap();
        b.close(fdb, 5).unwrap();
        let s = fs.stats();
        assert_eq!((s.locks_acquired, s.lock_revocations), (0, 0), "{model:?}");
    }
}

#[test]
fn lock_count_scales_with_granularity() {
    let fs = Pfs::new(PfsConfig {
        semantics: SemanticsModel::Strong,
        lock_granularity: 1024,
        ..PfsConfig::default()
    });
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.pwrite(fd, 0, &[0u8; 10 * 1024], 1).unwrap();
    assert_eq!(fs.stats().locks_acquired, 10);
}
