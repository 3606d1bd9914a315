//! The POSIX face of two-phase collective I/O is part of the trace: which
//! aggregator issues which `pwrite(offset, len)`, in which order, decides
//! the access patterns and conflict pairs the analysis reports. The
//! fixtures below were recorded from the implementation that coalesced
//! pieces into owned runs before draining them (commit `862f99e`); the
//! single-buffer drain must reproduce them call for call.

use iolibs::mpiio::CB_BUFFER;
use iolibs::{run_app, AppCtx, MpiFile, MpiIoHints, RunConfig};
use recorder::{Func, Layer};

const RANKS: u32 = 8;

/// Run one collective write where rank `r` contributes `extent(r)` =
/// `(offset, len)`, and return every MPI-IO-issued `pwrite` as
/// `(rank, offset, len)` in rank order, program order within a rank. Also
/// checks the file holds exactly what was contributed.
fn pwrites(extent: impl Fn(u32) -> (u64, u64) + Sync) -> Vec<(u32, u64, u64)> {
    let out = run_app(&RunConfig::new(RANKS, 11), |ctx: &mut AppCtx| {
        let mf = MpiFile::open(ctx, "/c", true, MpiIoHints { cb_nodes: 3 }).unwrap();
        let (off, len) = extent(ctx.rank());
        mf.write_at_all(ctx, off, &vec![ctx.rank() as u8 + 1; len as usize])
            .unwrap();
        mf.close(ctx).unwrap();
    });
    let img = out.pfs.published_image("/c").unwrap();
    // Later ranks win where contributions overlap (pieces are drained in
    // offset order, ties in rank order), so check in that order too.
    let mut want = vec![0u8; img.size() as usize];
    for r in 0..RANKS {
        let (off, len) = extent(r);
        want[off as usize..(off + len) as usize].fill(r as u8 + 1);
    }
    assert_eq!(img.read(0, img.size()), want, "file contents");
    let mut seq = Vec::new();
    for r in 0..RANKS {
        for rec in out.trace.rank_records(r) {
            if let (Layer::MpiIo, Func::Pwrite { offset, count, .. }) = (rec.origin, rec.func) {
                seq.push((r, offset, count));
            }
        }
    }
    seq
}

#[test]
fn ragged_contiguous_contributions() {
    // Back-to-back pieces of growing size: each aggregator's domain is one
    // run assembled from several ranks' pieces, longer than the buffer.
    let len = |r: u32| 1000 + 700 * r as u64;
    let off = |r: u32| (0..r).map(len).sum::<u64>();
    assert_eq!(
        pwrites(|r| (off(r), len(r))),
        [
            (0, 0, 8192),
            (0, 8192, 1008),
            (2, 9200, 8192),
            (2, 17392, 1008),
            (4, 18400, 8192),
            (4, 26592, 1008),
        ]
    );
}

#[test]
fn gapped_contributions_with_an_idle_rank() {
    // 3000-byte pieces every 5000 bytes, rank 3 contributing nothing:
    // every piece is its own run, cut where a domain boundary crosses it.
    assert_eq!(
        pwrites(|r| (r as u64 * 5000, if r == 3 { 0 } else { 3000 })),
        [
            (0, 0, 3000),
            (0, 5000, 3000),
            (0, 10000, 2667),
            (2, 12667, 333),
            (2, 20000, 3000),
            (2, 25000, 334),
            (4, 25334, 2666),
            (4, 30000, 3000),
            (4, 35000, 3000),
        ]
    );
}

#[test]
fn pieces_larger_than_the_buffer() {
    // 20 000-byte pieces, contiguous: a run spans pieces and a piece spans
    // buffers, so buffers fill mid-piece and pieces end mid-buffer. Every
    // domain drains as full buffers plus one remainder.
    let total = RANKS as u64 * 20_000;
    let domain = total.div_ceil(3);
    let mut want = Vec::new();
    for (ai, agg) in [0u32, 2, 4].into_iter().enumerate() {
        let mut pos = ai as u64 * domain;
        let hi = (pos + domain).min(total);
        while pos < hi {
            let n = CB_BUFFER.min(hi - pos);
            want.push((agg, pos, n));
            pos += n;
        }
    }
    assert_eq!(want.len(), 21);
    assert_eq!(want[6], (0, 49152, 4182));
    assert_eq!(want[20], (4, 155820, 4180));
    assert_eq!(pwrites(|r| (r as u64 * 20_000, 20_000)), want);
}

#[test]
fn overlapping_contribution_starts_a_new_run() {
    // Ranks 6 and 7 write the same range: rank 7's piece sorts after rank
    // 6's, overlaps the run so far, and is drained as a run of its own.
    assert_eq!(
        pwrites(|r| (r.min(6) as u64 * 4000, 4000)),
        [
            (0, 0, 8192),
            (0, 8192, 1142),
            (2, 9334, 8192),
            (2, 17526, 1142),
            (4, 18668, 8192),
            (4, 26860, 1140),
            (4, 24000, 4000),
        ]
    );
}

#[test]
fn empty_collectives_still_leave_their_mpiio_record() {
    // Every rank reads, then writes, zero bytes: no shuffle, no POSIX I/O,
    // but each rank made both collective calls and its MPI-IO layer trace
    // must say so.
    let out = run_app(&RunConfig::new(4, 5), |ctx: &mut AppCtx| {
        let mf = MpiFile::open(ctx, "/e", true, MpiIoHints::default()).unwrap();
        assert_eq!(mf.read_at_all(ctx, 64, 0).unwrap(), Vec::<u8>::new());
        mf.write_at_all(ctx, 64, &[]).unwrap();
        mf.close(ctx).unwrap();
    });
    for r in 0..4 {
        let calls: Vec<Func> = out
            .trace
            .rank_records(r)
            .iter()
            .filter(|rec| rec.layer == Layer::MpiIo)
            .map(|rec| rec.func)
            .filter(|f| !matches!(f, Func::MpiFileOpen { .. } | Func::MpiFileClose { .. }))
            .collect();
        let fh = match calls.first() {
            Some(&Func::MpiFileReadAtAll { fh, .. }) => fh,
            other => panic!("rank {r}: first collective is {other:?}"),
        };
        assert_eq!(
            calls,
            [
                Func::MpiFileReadAtAll {
                    fh,
                    offset: 64,
                    count: 0
                },
                Func::MpiFileWriteAtAll {
                    fh,
                    offset: 64,
                    count: 0
                },
            ],
            "rank {r}"
        );
    }
}
