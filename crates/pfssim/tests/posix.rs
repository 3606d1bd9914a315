//! POSIX-surface tests: cursors, flags, seeks, metadata operations, and
//! error paths. These behaviours are exactly what the paper's offset
//! resolution (§5.1) has to interpret, so they must be right.

use pfssim::{FsError, OpenFlags, Pfs, PfsConfig, SemanticsModel, Whence};

fn strong() -> Pfs {
    Pfs::new(PfsConfig::default().with_semantics(SemanticsModel::Strong))
}

#[test]
fn write_advances_cursor_pwrite_does_not() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, b"abcd", 1).unwrap();
    assert_eq!(c.cursor(fd).unwrap(), 4);
    c.pwrite(fd, 100, b"zz", 2).unwrap();
    assert_eq!(c.cursor(fd).unwrap(), 4, "pwrite must not move the cursor");
}

#[test]
fn read_advances_cursor_pread_does_not() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, b"abcdef", 1).unwrap();
    c.lseek(fd, 0, Whence::Set, 2).unwrap();
    assert_eq!(c.read(fd, 3, 3).unwrap().data, b"abc");
    assert_eq!(c.cursor(fd).unwrap(), 3);
    assert_eq!(c.pread(fd, 0, 2, 4).unwrap().data, b"ab");
    assert_eq!(c.cursor(fd).unwrap(), 3, "pread must not move the cursor");
}

#[test]
fn short_read_at_eof_advances_by_actual() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, b"abc", 1).unwrap();
    c.lseek(fd, 1, Whence::Set, 2).unwrap();
    let out = c.read(fd, 100, 3).unwrap();
    assert_eq!(out.data, b"bc");
    assert_eq!(c.cursor(fd).unwrap(), 3);
    // Reading at EOF returns empty and leaves the cursor alone.
    assert_eq!(c.read(fd, 10, 4).unwrap().data, b"");
    assert_eq!(c.cursor(fd).unwrap(), 3);
}

#[test]
fn lseek_set_cur_end() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, &[9u8; 100], 1).unwrap();
    assert_eq!(c.lseek(fd, 10, Whence::Set, 2).unwrap(), 10);
    assert_eq!(c.lseek(fd, 5, Whence::Cur, 3).unwrap(), 15);
    assert_eq!(c.lseek(fd, -5, Whence::Cur, 4).unwrap(), 10);
    assert_eq!(c.lseek(fd, 0, Whence::End, 5).unwrap(), 100);
    assert_eq!(c.lseek(fd, -20, Whence::End, 6).unwrap(), 80);
    assert!(matches!(
        c.lseek(fd, -101, Whence::End, 7),
        Err(FsError::Invalid { .. })
    ));
    // Seeking past EOF is legal; a write there creates a hole.
    assert_eq!(c.lseek(fd, 200, Whence::Set, 8).unwrap(), 200);
    c.write(fd, b"x", 9).unwrap();
    c.lseek(fd, 150, Whence::Set, 10).unwrap();
    let out = c.read(fd, 10, 11).unwrap();
    assert_eq!(out.data, vec![0u8; 10], "hole reads as zeros");
}

#[test]
fn o_trunc_resets_existing_file() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::wronly_create_trunc(), 0).unwrap();
    c.write(fd, &[1u8; 50], 1).unwrap();
    c.close(fd, 2).unwrap();
    let fd = c.open("/f", OpenFlags::wronly_create_trunc(), 3).unwrap();
    assert_eq!(c.fstat(fd, 4).unwrap().size, 0, "O_TRUNC zeroes the size");
    c.close(fd, 5).unwrap();
}

#[test]
fn o_excl_fails_on_existing() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c
        .open("/f", OpenFlags::rdwr_create().with_excl(), 0)
        .unwrap();
    c.close(fd, 1).unwrap();
    assert!(matches!(
        c.open("/f", OpenFlags::rdwr_create().with_excl(), 2),
        Err(FsError::AlreadyExists { .. })
    ));
}

#[test]
fn open_modes_enforced() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::wronly_create_trunc(), 0).unwrap();
    assert!(matches!(c.read(fd, 1, 1), Err(FsError::Denied { .. })));
    c.close(fd, 2).unwrap();
    let fd = c.open("/f", OpenFlags::rdonly(), 3).unwrap();
    assert!(matches!(c.write(fd, b"x", 4), Err(FsError::Denied { .. })));
}

#[test]
fn missing_file_and_bad_fd() {
    let fs = strong();
    let mut c = fs.client(0);
    assert!(matches!(
        c.open("/missing", OpenFlags::rdonly(), 0),
        Err(FsError::NotFound { .. })
    ));
    assert!(matches!(c.read(99, 1, 1), Err(FsError::BadFd { fd: 99 })));
    assert!(matches!(c.close(99, 2), Err(FsError::BadFd { fd: 99 })));
}

#[test]
fn create_in_missing_directory_fails() {
    let fs = strong();
    let mut c = fs.client(0);
    assert!(matches!(
        c.open("/nodir/f", OpenFlags::rdwr_create(), 0),
        Err(FsError::NotFound { .. })
    ));
    c.mkdir("/nodir", 1).unwrap();
    assert!(c.open("/nodir/f", OpenFlags::rdwr_create(), 2).is_ok());
}

#[test]
fn stat_fstat_and_sizes() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/d", 0).unwrap();
    assert!(c.stat("/d", 1).unwrap().is_dir);
    let fd = c.open("/d/f", OpenFlags::rdwr_create(), 2).unwrap();
    c.write(fd, &[1u8; 77], 3).unwrap();
    assert_eq!(c.stat("/d/f", 4).unwrap().size, 77);
    assert_eq!(c.fstat(fd, 5).unwrap().size, 77);
    assert_eq!(c.lstat("/d/f", 6).unwrap().size, 77);
    // Each is counted under its own name, `lstat` not also as a `stat`.
    let meta = fs.stats().meta_ops;
    assert_eq!((meta["stat"], meta["fstat"], meta["lstat"]), (2, 1, 1));
}

#[test]
fn stat_sees_own_buffered_size_under_commit() {
    let fs = Pfs::new(PfsConfig::default().with_semantics(SemanticsModel::Commit));
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fd = a.open("/f", OpenFlags::wronly_create_trunc(), 0).unwrap();
    a.write(fd, &[1u8; 10], 1).unwrap();
    assert_eq!(
        a.stat("/f", 2).unwrap().size,
        10,
        "own view includes pending"
    );
    assert_eq!(b.stat("/f", 3).unwrap().size, 0, "other view does not");
}

#[test]
fn unlink_rename_rmdir() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/d", 0).unwrap();
    let fd = c.open("/d/a", OpenFlags::rdwr_create(), 1).unwrap();
    c.close(fd, 2).unwrap();
    c.rename("/d/a", "/d/b", 3).unwrap();
    assert!(!c.access("/d/a", 4).unwrap());
    assert!(c.access("/d/b", 5).unwrap());
    assert!(matches!(c.rmdir("/d", 6), Err(FsError::NotEmpty { .. })));
    c.unlink("/d/b", 7).unwrap();
    c.rmdir("/d", 8).unwrap();
    assert!(!c.access("/d", 9).unwrap());
}

#[test]
fn cwd_and_relative_paths() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/work", 0).unwrap();
    c.chdir("/work", 1).unwrap();
    assert_eq!(c.getcwd(2), "/work");
    let fd = c.open("rel.txt", OpenFlags::rdwr_create(), 3).unwrap();
    c.close(fd, 4).unwrap();
    assert!(c.access("/work/rel.txt", 5).unwrap());
}

#[test]
fn readdir_lists_and_counts() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/d", 0).unwrap();
    for name in ["x", "y", "z"] {
        let fd = c
            .open(&format!("/d/{name}"), OpenFlags::rdwr_create(), 1)
            .unwrap();
        c.close(fd, 2).unwrap();
    }
    let entries = c.readdir("/d", 3).unwrap();
    assert_eq!(entries.len(), 3);
    let stats = fs.stats();
    assert_eq!(stats.meta_ops["opendir"], 1);
    assert_eq!(stats.meta_ops["readdir"], 3);
    assert_eq!(stats.meta_ops["closedir"], 1);
}

#[test]
fn truncate_and_ftruncate() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, &[5u8; 100], 1).unwrap();
    c.ftruncate(fd, 40, 2).unwrap();
    assert_eq!(c.fstat(fd, 3).unwrap().size, 40);
    c.truncate("/f", 10, 4).unwrap();
    assert_eq!(c.stat("/f", 5).unwrap().size, 10);
}

#[test]
fn truncate_trims_pending_writes() {
    let fs = Pfs::new(PfsConfig::default().with_semantics(SemanticsModel::Commit));
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    c.write(fd, &[1u8; 100], 1).unwrap(); // pending
    c.ftruncate(fd, 10, 2).unwrap();
    c.fsync(fd, 3).unwrap();
    let img = fs.published_image("/f").unwrap();
    assert_eq!(
        img.size(),
        10,
        "pending beyond the truncation point is dropped"
    );
    assert_eq!(img.read(0, 100), vec![1u8; 10]);
}

#[test]
fn dup_fcntl_umask_fileno_counted() {
    let fs = strong();
    let mut c = fs.client(0);
    let fd = c.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    let fd2 = c.dup(fd, 1).unwrap();
    assert_ne!(fd, fd2);
    c.fcntl(fd, 2).unwrap();
    c.umask(0o022, 3);
    c.fileno(fd, 4).unwrap();
    let stats = fs.stats();
    assert_eq!(stats.meta_ops["dup"], 1);
    assert_eq!(stats.meta_ops["fcntl"], 1);
    assert_eq!(stats.meta_ops["umask"], 1);
    assert_eq!(stats.meta_ops["fileno"], 1);
}

#[test]
fn mmap_reads_and_msync_commits() {
    let fs = Pfs::new(PfsConfig::default().with_semantics(SemanticsModel::Commit));
    let mut a = fs.client(0);
    let fd = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
    a.write(fd, b"mapped", 1).unwrap();
    let out = a.mmap(fd, 0, 6, 2).unwrap();
    assert_eq!(out.data, b"mapped");
    a.msync(fd, 3).unwrap();
    let img = fs.published_image("/f").unwrap();
    assert_eq!(
        img.read(0, 6),
        b"mapped",
        "msync publishes under commit semantics"
    );
    let stats = fs.stats();
    assert_eq!(stats.meta_ops["mmap"], 1);
    assert_eq!(stats.meta_ops["msync"], 1);
}

#[test]
fn list_files_walks_namespace() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/a", 0).unwrap();
    c.mkdir("/a/b", 1).unwrap();
    for p in ["/top", "/a/f1", "/a/b/f2"] {
        let fd = c.open(p, OpenFlags::rdwr_create(), 2).unwrap();
        c.close(fd, 3).unwrap();
    }
    assert_eq!(fs.list_files(), vec!["/a/b/f2", "/a/f1", "/top"]);
}

#[test]
fn opening_directory_as_file_fails() {
    let fs = strong();
    let mut c = fs.client(0);
    c.mkdir("/d", 0).unwrap();
    assert!(matches!(
        c.open("/d", OpenFlags::rdonly(), 1),
        Err(FsError::NotAFile { .. })
    ));
}
