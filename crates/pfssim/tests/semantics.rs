//! Tests of the four consistency engines: who sees which write, when.
//! Each scenario plays the roles of "process A" (writer, rank 0) and
//! "process B" (reader, rank 1) with explicit simulated timestamps.

use pfssim::{OpenFlags, Pfs, PfsConfig, SemanticsModel};

fn pfs(model: SemanticsModel) -> Pfs {
    Pfs::new(
        PfsConfig::default()
            .with_semantics(model)
            .with_eventual_delay_ns(1_000_000),
    )
}

const W: OpenFlags = OpenFlags::wronly_create_trunc();
const R: OpenFlags = OpenFlags::rdonly();

#[test]
fn strong_write_immediately_visible() {
    let fs = pfs(SemanticsModel::Strong);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"hello", 10).unwrap();

    let fdb = b.open("/f", R, 20).unwrap();
    let out = b.read(fdb, 5, 30).unwrap();
    assert_eq!(out.data, b"hello");
    assert_eq!(out.tags.len(), 1);
    assert_eq!(out.tags[0].tag.unwrap().rank, 0);
}

#[test]
fn commit_write_invisible_until_fsync() {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"hello", 10).unwrap();

    let fdb = b.open("/f", R, 20).unwrap();
    assert_eq!(
        b.read(fdb, 5, 30).unwrap().data,
        b"",
        "uncommitted write hidden"
    );

    a.fsync(fda, 40).unwrap();
    b.lseek(fdb, 0, pfssim::Whence::Set, 45).unwrap();
    assert_eq!(
        b.read(fdb, 5, 50).unwrap().data,
        b"hello",
        "fsync publishes"
    );
}

#[test]
fn commit_close_also_publishes() {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"xy", 10).unwrap();
    a.close(fda, 20).unwrap();

    let fdb = b.open("/f", R, 30).unwrap();
    assert_eq!(b.read(fdb, 2, 40).unwrap().data, b"xy");
}

#[test]
fn session_fsync_does_not_publish() {
    let fs = pfs(SemanticsModel::Session);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"hello", 10).unwrap();
    a.fsync(fda, 20).unwrap();

    let fdb = b.open("/f", R, 30).unwrap();
    assert_eq!(
        b.read(fdb, 5, 40).unwrap().data,
        b"",
        "session semantics: fsync persists but does not publish"
    );
}

#[test]
fn session_close_to_open_visibility() {
    let fs = pfs(SemanticsModel::Session);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"hello", 10).unwrap();

    // B opens *before* A closes: B's session must not observe A's write,
    // even after the close happens.
    let fdb_early = b.open("/f", R, 15).unwrap();
    a.close(fda, 20).unwrap();
    assert_eq!(
        b.read(fdb_early, 5, 30).unwrap().data,
        b"",
        "open preceded the writer's close"
    );

    // B reopens after the close: now the write is visible.
    let fdb_late = b.open("/f", R, 40).unwrap();
    assert_eq!(b.read(fdb_late, 5, 50).unwrap().data, b"hello");
}

#[test]
fn eventual_visibility_by_delay_only() {
    let fs = pfs(SemanticsModel::Eventual); // delay = 1_000_000 ns
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"hello", 1000).unwrap(); // matures at 1_001_000
    a.fsync(fda, 2000).unwrap(); // must NOT accelerate propagation
    a.close(fda, 3000).unwrap(); // nor close

    let fdb = b.open("/f", R, 5000).unwrap();
    assert_eq!(b.read(fdb, 5, 10_000).unwrap().data, b"", "before delay");

    b.lseek(fdb, 0, pfssim::Whence::Set, 0).unwrap();
    assert_eq!(
        b.read(fdb, 5, 2_000_000).unwrap().data,
        b"hello",
        "after delay the write propagates with no commit at all"
    );
}

#[test]
fn read_your_writes_under_every_engine() {
    for model in SemanticsModel::ALL {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
        a.write(fd, b"abc", 10).unwrap();
        a.lseek(fd, 0, pfssim::Whence::Set, 11).unwrap();
        let out = a.read(fd, 3, 20).unwrap();
        assert_eq!(
            out.data, b"abc",
            "read-your-writes violated under {model:?}"
        );
    }
}

#[test]
fn same_process_waw_order_preserved_by_default() {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let fd = a.open("/f", W, 0).unwrap();
    a.write(fd, b"old", 10).unwrap();
    a.lseek(fd, 0, pfssim::Whence::Set, 11).unwrap();
    a.write(fd, b"new", 20).unwrap();
    a.close(fd, 30).unwrap();
    let img = fs.published_image("/f").unwrap();
    assert_eq!(img.read(0, 3), b"new");
}

#[test]
fn burstfs_mode_may_reorder_same_process_writes() {
    let cfg = PfsConfig::default()
        .with_semantics(SemanticsModel::Commit)
        .with_burstfs_reordering();
    let fs = Pfs::new(cfg);
    let mut a = fs.client(0);
    let fd = a.open("/f", W, 0).unwrap();
    a.write(fd, b"old", 10).unwrap();
    a.lseek(fd, 0, pfssim::Whence::Set, 11).unwrap();
    a.write(fd, b"new", 20).unwrap();
    a.close(fd, 30).unwrap();
    let img = fs.published_image("/f").unwrap();
    // The BurstFS anomaly (§3.5): a read after two same-process writes can
    // return the older value.
    assert_eq!(img.read(0, 3), b"old");
}

#[test]
fn observation_logs_identical_when_no_sharing() {
    // A program where each rank works on its own file observes identical
    // provenance under strong and session semantics — the signal the
    // semantics-matrix experiment relies on.
    let run = |model| {
        let fs = pfs(model);
        let mut obs = Vec::new();
        for rank in 0..4u32 {
            let mut c = fs.client(rank);
            let path = format!("/own_{rank}");
            let fd = c.open(&path, OpenFlags::rdwr_create(), 0).unwrap();
            c.write(fd, &[rank as u8; 64], 10).unwrap();
            c.lseek(fd, 0, pfssim::Whence::Set, 11).unwrap();
            c.read(fd, 64, 20).unwrap();
            c.close(fd, 30).unwrap();
            obs.extend(c.take_observations());
        }
        obs
    };
    let strong = run(SemanticsModel::Strong);
    let session = run(SemanticsModel::Session);
    assert_eq!(strong.len(), session.len());
    for (s, w) in strong.iter().zip(&session) {
        assert_eq!(
            s.digest, w.digest,
            "no-sharing program must be engine-invariant"
        );
    }
}

#[test]
fn observation_logs_differ_on_stale_read() {
    // Writer publishes nothing before the reader's read: session-stale.
    let run = |model| {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let mut b = fs.client(1);
        let fda = a.open("/shared", W, 0).unwrap();
        a.write(fda, b"payload", 10).unwrap();
        a.fsync(fda, 20).unwrap(); // commit point
        let fdb = b.open("/shared", R, 30).unwrap();
        let _ = b.read(fdb, 7, 40).unwrap();
        b.take_observations()[0].digest
    };
    let strong = run(SemanticsModel::Strong);
    let commit = run(SemanticsModel::Commit);
    let session = run(SemanticsModel::Session);
    // fsync is a commit: commit semantics agree with strong here.
    assert_eq!(strong, commit);
    // …but session semantics return stale (empty) data: different digest.
    assert_ne!(strong, session);
}

#[test]
fn laminate_publishes_everything_and_freezes() {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let mut b = fs.client(1);
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"data", 10).unwrap();
    // No fsync/close — laminate must still publish.
    b.laminate("/f", 20).unwrap();
    let img = fs.published_image("/f").unwrap();
    assert_eq!(img.read(0, 4), b"data");
    // Writes after lamination are denied.
    assert!(a.write(fda, b"more", 30).is_err());
    assert!(b.open("/f", W, 40).is_err());
    let fdb = b.open("/f", R, 50).unwrap();
    assert_eq!(b.read(fdb, 4, 60).unwrap().data, b"data");
}

#[test]
fn locks_counted_only_under_strong() {
    for model in SemanticsModel::ALL {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/f", W, 0).unwrap();
        let out = a.write(fd, &[0u8; 4096], 10).unwrap();
        let stats = fs.stats();
        if model == SemanticsModel::Strong {
            assert!(out.locks > 0);
            assert!(stats.locks_acquired > 0);
        } else {
            assert_eq!(out.locks, 0);
            assert_eq!(stats.locks_acquired, 0, "{model:?} must not lock");
        }
    }
}

#[test]
fn pending_and_publish_stats() {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let fd = a.open("/f", W, 0).unwrap();
    a.write(fd, b"1", 1).unwrap();
    a.write(fd, b"2", 2).unwrap();
    assert_eq!(fs.stats().pending_extents, 2);
    assert_eq!(fs.stats().publishes, 0);
    a.fsync(fd, 3).unwrap();
    assert_eq!(fs.stats().pending_extents, 0);
    assert_eq!(fs.stats().publishes, 2);
}

/// Two buffered extents at offsets 0 and 100 under commit semantics; the
/// caller then drops some of them without a publish.
fn two_buffered_extents() -> (Pfs, pfssim::PfsClient, u32) {
    let fs = pfs(SemanticsModel::Commit);
    let mut a = fs.client(0);
    let fd = a.open("/f", W, 0).unwrap();
    a.pwrite(fd, 0, b"abcd", 1).unwrap();
    a.pwrite(fd, 100, b"efgh", 2).unwrap();
    assert_eq!(fs.stats().pending_extents, 2);
    (fs, a, fd)
}

#[test]
fn pending_extents_falls_when_a_crashed_client_is_discarded() {
    let (fs, mut a, _) = two_buffered_extents();
    a.discard_pending();
    assert_eq!(fs.stats().pending_extents, 0);
}

#[test]
fn pending_extents_falls_when_a_reopen_truncates() {
    let (fs, mut a, _) = two_buffered_extents();
    a.open("/f", W, 3).unwrap();
    assert_eq!(fs.stats().pending_extents, 0);
}

#[test]
fn pending_extents_falls_by_the_extents_a_truncate_drops() {
    let (fs, mut a, fd) = two_buffered_extents();
    a.ftruncate(fd, 50, 3).unwrap();
    assert_eq!(fs.stats().pending_extents, 1);
}

#[test]
fn an_empty_write_extends_no_file() {
    for model in [
        SemanticsModel::Strong,
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/f", W, 0).unwrap();
        a.pwrite(fd, 100, b"", 1).unwrap();
        assert_eq!(a.fstat(fd, 2).unwrap().size, 0, "{model:?}");
    }
}

#[test]
fn quiesce_flushes_all_engines() {
    for model in [
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/f", W, 0).unwrap();
        a.write(fd, b"zz", 10).unwrap();
        // Neither fsync nor close: only quiesce makes it durable/visible.
        fs.quiesce();
        let img = fs.published_image("/f").unwrap();
        assert_eq!(img.read(0, 2), b"zz", "quiesce must flush under {model:?}");
    }
}

#[test]
fn publishing_everything_picks_one_final_image() {
    // Two clients buffer overlapping writes and neither commits: quiesce
    // and laminate publish them client by client in creation order, so
    // every fresh file system ends with the later-created client's bytes.
    let final_image = |laminate: bool| {
        let fs = pfs(SemanticsModel::Commit);
        let mut a = fs.client(0);
        let mut b = fs.client(1);
        let fda = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
        let fdb = b.open("/f", OpenFlags::rdwr_create(), 1).unwrap();
        a.pwrite(fda, 0, b"aaaa", 2).unwrap();
        b.pwrite(fdb, 0, b"bbbb", 3).unwrap();
        if laminate {
            a.laminate("/f", 4).unwrap();
        } else {
            fs.quiesce();
        }
        fs.published_image("/f").unwrap().read(0, 4)
    };
    for _ in 0..64 {
        assert_eq!(final_image(false), b"bbbb", "quiesce");
        assert_eq!(final_image(true), b"bbbb", "laminate");
    }
}

#[test]
fn own_writes_past_the_published_end_read_as_holes_up_to_them() {
    // A reader's visible size includes its buffered writes, so a read that
    // overlaps none of them but runs past the base image's end returns
    // holes up to the visible end rather than a short read.
    for model in [
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/f", OpenFlags::rdwr_create(), 0).unwrap();
        a.pwrite(fd, 0, b"abc", 1).unwrap();
        a.close(fd, 2).unwrap();
        fs.quiesce();
        let fd = a.open("/f", OpenFlags::rdwr_create(), 3).unwrap();
        a.pwrite(fd, 100, b"zz", 4).unwrap();
        let out = a.pread(fd, 1, 50, 5).unwrap();
        assert_eq!(out.data, [&b"bc"[..], &[0; 48]].concat(), "{model:?}");
        let runs: Vec<(u64, Option<u32>)> = out
            .tags
            .iter()
            .map(|r| (r.len, r.tag.map(|t| t.rank)))
            .collect();
        assert_eq!(runs, [(2, Some(0)), (48, None)], "{model:?}");
    }
}

#[test]
fn append_positions_at_visible_eof() {
    for model in SemanticsModel::ALL {
        let fs = pfs(model);
        let mut a = fs.client(0);
        let fd = a.open("/log", OpenFlags::append_create(), 0).unwrap();
        a.write(fd, b"aaa", 1).unwrap();
        let out = a.write(fd, b"bbb", 2).unwrap();
        assert_eq!(
            out.offset, 3,
            "append must see own buffered EOF under {model:?}"
        );
        a.close(fd, 3).unwrap();
        fs.quiesce();
        assert_eq!(fs.published_image("/log").unwrap().read(0, 6), b"aaabbb");
    }
}

#[test]
fn session_snapshot_isolates_concurrent_overwrites() {
    let fs = pfs(SemanticsModel::Session);
    let mut a = fs.client(0);
    let mut b = fs.client(1);

    // Session 1: A writes v1 and closes → published.
    let fda = a.open("/f", W, 0).unwrap();
    a.write(fda, b"v1", 1).unwrap();
    a.close(fda, 2).unwrap();

    // B opens and snapshots v1.
    let fdb = b.open("/f", R, 3).unwrap();

    // Session 2: A overwrites with v2 and closes.
    let fda2 = a.open("/f", OpenFlags::rdwr(), 4).unwrap();
    a.write(fda2, b"v2", 5).unwrap();
    a.close(fda2, 6).unwrap();

    // B still reads v1 through its open session.
    assert_eq!(b.read(fdb, 2, 7).unwrap().data, b"v1");
    // A fresh open sees v2.
    let fdb2 = b.open("/f", R, 8).unwrap();
    assert_eq!(b.read(fdb2, 2, 9).unwrap().data, b"v2");
}

#[test]
fn stripe_accounting_spreads_over_servers() {
    let cfg = PfsConfig {
        semantics: SemanticsModel::Strong,
        stripe_size: 1024,
        data_servers: 4,
        ..PfsConfig::default()
    };
    let fs = Pfs::new(cfg);
    let mut a = fs.client(0);
    let fd = a.open("/big", W, 0).unwrap();
    a.write(fd, &vec![1u8; 8192], 1).unwrap();
    let stats = fs.stats();
    assert_eq!(
        stats.server_bytes_written,
        vec![2048; 4],
        "round-robin striping"
    );
}

/// Read digests are compared across engines and runs, so their values
/// are pinned: recorded before the hash moved to `obs::fnv`. The script
/// covers hidden, published, overwritten, short, past-EOF and sparse
/// reads under three engines.
#[test]
fn scripted_read_digests_keep_their_values() {
    let script = |model| {
        let fs = Pfs::new(PfsConfig::default().with_semantics(model));
        let mut a = fs.client(0);
        let mut b = fs.client(1);
        let fda = a.open("/f", W, 0).unwrap();
        a.write(fda, b"hello world", 10).unwrap();
        let fdb = b.open("/f", R, 20).unwrap();
        let mut digests = vec![b.read(fdb, 5, 30).unwrap().digest];
        a.fsync(fda, 40).unwrap();
        b.lseek(fdb, 0, pfssim::Whence::Set, 45).unwrap();
        digests.push(b.read(fdb, 11, 50).unwrap().digest);
        a.lseek(fda, 3, pfssim::Whence::Set, 55).unwrap();
        a.write(fda, b"XY", 60).unwrap();
        a.close(fda, 70).unwrap();
        b.close(fdb, 75).unwrap();
        let fdb = b.open("/f", R, 80).unwrap();
        digests.push(b.read(fdb, 4, 90).unwrap().digest);
        digests.push(b.read(fdb, 64, 100).unwrap().digest);
        digests.push(b.read(fdb, 8, 110).unwrap().digest);
        let fdc = b.open("/f", OpenFlags::rdwr(), 120).unwrap();
        b.lseek(fdc, 20, pfssim::Whence::Set, 125).unwrap();
        b.write(fdc, b"tail", 130).unwrap();
        b.lseek(fdc, 0, pfssim::Whence::Set, 135).unwrap();
        digests.push(b.read(fdc, 24, 140).unwrap().digest);
        digests
    };
    // An empty read, "hello world" by rank 0, "helX" after the overwrite,
    // the rest of the file, EOF, and a sparse file with rank 1's tail.
    let (empty, whole, head, rest, sparse) = (
        0x22c6_4032_281a_39c5,
        0x2536_78bb_5754_2ea5,
        0x0db6_9ae9_8fa1_8ac0,
        0xe049_e4e5_735e_7e66,
        0x2dc8_c032_1a60_e097,
    );
    let tail = [head, rest, empty, sparse];
    let cases = [
        (SemanticsModel::Strong, [0x9fe6_c162_c9a7_78e5, whole]),
        (SemanticsModel::Commit, [empty, whole]),
        (SemanticsModel::Session, [empty, empty]),
    ];
    for (model, first) in cases {
        assert_eq!(script(model), [&first[..], &tail[..]].concat(), "{model:?}");
    }
}
