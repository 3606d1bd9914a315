//! O_LAZY tunable consistency (§2.2): a strong-consistency PFS can be
//! downgraded per descriptor to commit-style buffered writes — the PDL
//! POSIX HPC-extensions proposal the paper describes ("options to
//! introduce laziness into the API … API calls to flush caches … when
//! operating on files where the O_LAZY flag was supplied to open").

use pfssim::{OpenFlags, Pfs, PfsConfig, SemanticsModel, Whence};

fn strong() -> Pfs {
    Pfs::new(PfsConfig::default().with_semantics(SemanticsModel::Strong))
}

#[test]
fn lazy_writes_invisible_until_flush() {
    let fs = strong();
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a
        .open("/f", OpenFlags::wronly_create_trunc().with_lazy(), 0)
        .unwrap();
    a.write(fda, b"hello", 1).unwrap();

    let fdb = b.open("/f", OpenFlags::rdonly(), 2).unwrap();
    assert_eq!(
        b.read(fdb, 5, 3).unwrap().data,
        b"",
        "lazy write is buffered"
    );

    a.fsync(fda, 4).unwrap(); // the O_LAZY flush call
    b.lseek(fdb, 0, Whence::Set, 5).unwrap();
    assert_eq!(b.read(fdb, 5, 6).unwrap().data, b"hello", "flush publishes");
}

#[test]
fn lazy_close_publishes() {
    let fs = strong();
    let mut a = fs.client(0);
    let fda = a
        .open("/f", OpenFlags::wronly_create_trunc().with_lazy(), 0)
        .unwrap();
    a.write(fda, b"zz", 1).unwrap();
    a.close(fda, 2).unwrap();
    assert_eq!(fs.published_image("/f").unwrap().read(0, 2), b"zz");
}

#[test]
fn lazy_descriptor_keeps_read_your_writes() {
    let fs = strong();
    let mut a = fs.client(0);
    let fd = a
        .open("/f", OpenFlags::rdwr_create().with_lazy(), 0)
        .unwrap();
    a.write(fd, b"abc", 1).unwrap();
    a.lseek(fd, 0, Whence::Set, 2).unwrap();
    assert_eq!(a.read(fd, 3, 3).unwrap().data, b"abc");
    assert_eq!(
        a.fstat(fd, 4).unwrap().size,
        3,
        "own view includes buffered bytes"
    );
}

#[test]
fn a_process_reads_its_lazy_writes_through_a_plain_descriptor() {
    let fs = strong();
    let mut a = fs.client(0);
    let lazy_fd = a
        .open("/f", OpenFlags::rdwr_create().with_lazy(), 0)
        .unwrap();
    let plain_fd = a.open("/f", OpenFlags::rdonly(), 1).unwrap();
    a.pwrite(lazy_fd, 0, b"mine", 2).unwrap();
    assert_eq!(a.pread(plain_fd, 0, 4, 3).unwrap().data, b"mine");
    assert_eq!(a.fstat(plain_fd, 4).unwrap().size, 4);
}

#[test]
fn lazy_skips_the_lock_manager() {
    let fs = strong();
    let mut strict = fs.client(0);
    let mut lazy = fs.client(1);
    let fd1 = strict
        .open("/strict", OpenFlags::wronly_create_trunc(), 0)
        .unwrap();
    strict.write(fd1, &[1u8; 4096], 1).unwrap();
    let before = fs.stats().locks_acquired;
    assert!(before > 0);

    let fd2 = lazy
        .open("/lazy", OpenFlags::wronly_create_trunc().with_lazy(), 2)
        .unwrap();
    lazy.write(fd2, &[1u8; 4096], 3).unwrap();
    assert_eq!(
        fs.stats().locks_acquired,
        before,
        "lazy writes bypass the lock manager entirely — the §2.2 performance motivation"
    );
}

#[test]
fn mixed_descriptors_on_one_file() {
    // A strict writer and a lazy writer on the same file: the strict bytes
    // are immediately global, the lazy bytes appear at flush.
    let fs = strong();
    let mut s = fs.client(0);
    let mut l = fs.client(1);
    let mut r = fs.client(2);
    let fds = s.open("/mix", OpenFlags::rdwr_create(), 0).unwrap();
    let fdl = l.open("/mix", OpenFlags::rdwr().with_lazy(), 1).unwrap();
    s.pwrite(fds, 0, b"S", 2).unwrap();
    l.pwrite(fdl, 1, b"L", 3).unwrap();

    let fdr = r.open("/mix", OpenFlags::rdonly(), 4).unwrap();
    assert_eq!(
        r.pread(fdr, 0, 2, 5).unwrap().data,
        b"S",
        "only the strict byte is visible"
    );
    l.fsync(fdl, 6).unwrap();
    assert_eq!(r.pread(fdr, 0, 2, 7).unwrap().data, b"SL");
}

#[test]
fn lazy_is_a_noop_on_relaxed_engines() {
    for model in [
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let fs = Pfs::new(
            PfsConfig::default()
                .with_semantics(model)
                .with_eventual_delay_ns(1_000_000),
        );
        let mut a = fs.client(0);
        let mut b = fs.client(1);
        let fda = a
            .open("/f", OpenFlags::wronly_create_trunc().with_lazy(), 0)
            .unwrap();
        a.write(fda, b"x", 1).unwrap();
        // Same visibility as without the flag: not visible before any
        // commit/close under every relaxed engine.
        let fdb = b.open("/f", OpenFlags::rdonly(), 2).unwrap();
        assert_eq!(b.read(fdb, 1, 3).unwrap().data, b"", "{model:?}");
    }
}
