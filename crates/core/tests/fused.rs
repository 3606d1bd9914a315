//! Equivalence of the fused session+commit conflict sweep.
//!
//! The contract: for any trace, [`detect_conflicts_fused`] produces a
//! session report and a commit report *equal* (pairs, pair order,
//! counters) to two separate [`detect_conflicts`] runs — and to the
//! scan-variant extension — so the fused pipeline can replace the separate
//! passes without changing a byte of any artifact.

use recorder::{AccessKind, DataAccess, Layer, PathId, ResolvedTrace, SyncEvent, SyncKind};
use semantics_core::conflict::{
    detect_conflicts, detect_conflicts_opt, AnalysisModel, ConflictOptions,
};
use semantics_core::{detect_conflicts_fused, AnalysisContext};
use simrng::SimRng;

fn random_access(rng: &mut SimRng, n_ranks: u32, n_files: u32) -> DataAccess {
    let t = rng.range_u64(0, 2000);
    DataAccess {
        rank: rng.range_u32(0, n_ranks),
        t_start: t,
        t_end: t + 1,
        file: PathId(rng.range_u32(0, n_files)),
        offset: rng.range_u64(0, 300),
        len: rng.range_u64(1, 60),
        kind: if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        origin: Layer::App,
        fd: 3,
    }
}

fn random_trace(rng: &mut SimRng, n_files: u32) -> ResolvedTrace {
    let n = rng.range_usize(0, 120);
    let mut accesses: Vec<DataAccess> = (0..n).map(|_| random_access(rng, 4, n_files)).collect();
    accesses.sort_by_key(|a| (a.t_start, a.rank));
    accesses.dedup_by_key(|a| a.t_start);
    let mut syncs: Vec<SyncEvent> = (0..rng.range_usize(0, 30))
        .map(|_| SyncEvent {
            rank: rng.range_u32(0, 4),
            t: rng.range_u64(0, 2000),
            file: PathId(rng.range_u32(0, n_files)),
            kind: match rng.range_u32(0, 3) {
                0 => SyncKind::Open,
                1 => SyncKind::Close,
                _ => SyncKind::Commit,
            },
        })
        .collect();
    syncs.sort_by_key(|s| (s.t, s.rank));
    ResolvedTrace {
        accesses,
        syncs,
        seek_mismatches: 0,
        short_reads: 0,
    }
}

/// Fused reports equal the two separate detections on random multi-file
/// traces.
#[test]
fn fused_equals_separate_on_random_traces() {
    let mut rng = SimRng::seed_from_u64(0xF05E_D);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 6);
        let session = detect_conflicts(&trace, AnalysisModel::Session);
        let commit = detect_conflicts(&trace, AnalysisModel::Commit);
        let ctx = AnalysisContext::new(&trace);
        let fused = detect_conflicts_fused(&ctx);
        assert_eq!(fused.session, session);
        assert_eq!(fused.commit, commit);
    }
}

/// The fused sweep also agrees with the scan-variant extension
/// (`binary_search: false`) — both sides of the paper's §5.2
/// implementation cross-check.
#[test]
fn fused_equals_scan_variant() {
    let mut rng = SimRng::seed_from_u64(0x5CA_4);
    let scan = ConflictOptions {
        binary_search: false,
        ..ConflictOptions::default()
    };
    for _ in 0..48 {
        let trace = random_trace(&mut rng, 5);
        let ctx = AnalysisContext::new(&trace);
        let fused = detect_conflicts_fused(&ctx);
        assert_eq!(
            fused.session,
            detect_conflicts_opt(&trace, AnalysisModel::Session, scan)
        );
        assert_eq!(
            fused.commit,
            detect_conflicts_opt(&trace, AnalysisModel::Commit, scan)
        );
    }
}

/// One context serves repeated fused queries: re-running against the same
/// context is deterministic and identical to a fresh context's answer.
#[test]
fn context_reuse_is_deterministic() {
    let mut rng = SimRng::seed_from_u64(0xCAFE_12);
    for _ in 0..16 {
        let trace = random_trace(&mut rng, 4);
        let ctx = AnalysisContext::new(&trace);
        let first = ctx.fused_conflicts();
        let again = ctx.fused_conflicts();
        assert_eq!(first, again);
        let fresh = AnalysisContext::new(&trace);
        assert_eq!(fresh.fused_conflicts(), first);
    }
}
