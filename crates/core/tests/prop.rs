//! Property-style tests for the analysis algorithms.
//!
//! Offline build: instead of `proptest`, each property runs over a few
//! hundred pseudo-random cases generated from pinned [`simrng`] seeds, so
//! failures reproduce exactly by rerunning the test.

use recorder::{AccessKind, DataAccess, Layer, PathId, ResolvedTrace, SyncEvent, SyncKind};
use semantics_core::conflict::{detect_conflicts, extend, extend_scan, AnalysisModel};
use semantics_core::overlap::{canonical_pairs, detect_overlaps, detect_overlaps_bruteforce};
use simrng::SimRng;

fn random_access(rng: &mut SimRng, n_ranks: u32) -> DataAccess {
    let t = rng.range_u64(0, 1000);
    DataAccess {
        rank: rng.range_u32(0, n_ranks),
        t_start: t,
        t_end: t + 1,
        file: PathId(0),
        offset: rng.range_u64(0, 200),
        len: rng.range_u64(1, 50),
        kind: if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        origin: Layer::App,
        fd: 3,
    }
}

fn random_sync(rng: &mut SimRng, n_ranks: u32) -> SyncEvent {
    SyncEvent {
        rank: rng.range_u32(0, n_ranks),
        t: rng.range_u64(0, 1000),
        file: PathId(0),
        kind: match rng.range_u32(0, 3) {
            0 => SyncKind::Open,
            1 => SyncKind::Close,
            _ => SyncKind::Commit,
        },
    }
}

fn random_accesses(rng: &mut SimRng, max: usize, n_ranks: u32) -> Vec<DataAccess> {
    let n = rng.range_usize(0, max + 1);
    (0..n).map(|_| random_access(rng, n_ranks)).collect()
}

fn random_trace(rng: &mut SimRng) -> ResolvedTrace {
    let mut accesses = random_accesses(rng, 60, 4);
    let mut syncs: Vec<SyncEvent> = (0..rng.range_usize(0, 20))
        .map(|_| random_sync(rng, 4))
        .collect();
    accesses.sort_by_key(|a| (a.t_start, a.rank));
    // Unique timestamps: the §5.2 premise is that synchronized conflicting
    // operations are strictly ordered in time (they sit tens of
    // milliseconds apart in real traces), so simultaneous accesses are out
    // of the detector's domain.
    accesses.dedup_by_key(|a| a.t_start);
    syncs.sort_by_key(|s| (s.t, s.rank));
    ResolvedTrace {
        accesses,
        syncs,
        seek_mismatches: 0,
        short_reads: 0,
    }
}

/// Algorithm 1 equals the O(n²) reference.
#[test]
fn overlap_sweep_matches_bruteforce() {
    let mut rng = SimRng::seed_from_u64(0xA1);
    for _ in 0..128 {
        let accesses = random_accesses(&mut rng, 80, 4);
        let fast = detect_overlaps(&accesses);
        let slow = detect_overlaps_bruteforce(&accesses);
        assert_eq!(canonical_pairs(&fast), canonical_pairs(&slow));
        assert_eq!(fast.rank_pairs, slow.rank_pairs);
    }
}

/// Overlap detection is insensitive to input permutation.
#[test]
fn overlap_permutation_invariant() {
    let mut rng = SimRng::seed_from_u64(0xA2);
    for _ in 0..128 {
        let accesses = random_accesses(&mut rng, 40, 4);
        let base = detect_overlaps(&accesses);
        let mut shuffled = accesses.clone();
        rng.shuffle(&mut shuffled);
        let shuf = detect_overlaps(&shuffled);
        assert_eq!(shuf.pairs.len(), base.pairs.len());
        assert_eq!(shuf.rank_pairs, base.rank_pairs);
    }
}

/// [`random_trace`] spread over `n_files` files.
fn random_multifile_trace(rng: &mut SimRng, n_files: u32) -> ResolvedTrace {
    let mut trace = random_trace(rng);
    for a in &mut trace.accesses {
        a.file = PathId(rng.range_u32(0, n_files));
    }
    for s in &mut trace.syncs {
        s.file = PathId(rng.range_u32(0, n_files));
    }
    trace
}

/// The table (binary-search) extension equals the scan oracle, record for
/// record.
#[test]
fn conflict_variants_agree() {
    let mut rng = SimRng::seed_from_u64(0xA3);
    for _ in 0..128 {
        let trace = random_trace(&mut rng);
        assert_eq!(extend(&trace), extend_scan(&trace));
    }
}

/// The detector's candidate enumeration held to brute force, not only to
/// the other engine: `detect_conflicts` reports *exactly* the brute-force
/// overlapping pairs (per file) whose earlier access by `(t_start, rank)`
/// is a write and whose scan extension satisfies the model's condition,
/// written out here from §5.2.
#[test]
fn conflicts_are_exactly_the_bruteforce_overlaps_that_satisfy_the_model() {
    type Key = (u32, (u32, u64, u64, u64), (u32, u64, u64, u64));
    let id = |a: &DataAccess| (a.rank, a.t_start, a.offset, a.len);
    let mut rng = SimRng::seed_from_u64(0xA9);
    let mut checked = 0;
    for _ in 0..128 {
        let n_files = 5;
        let trace = random_multifile_trace(&mut rng, n_files);
        let ext = extend_scan(&trace);
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            let mut want: Vec<Key> = Vec::new();
            for f in 0..n_files {
                let idxs: Vec<usize> = (0..ext.len())
                    .filter(|&i| ext[i].access.file == PathId(f))
                    .collect();
                let accs: Vec<DataAccess> = idxs.iter().map(|&i| ext[i].access).collect();
                for (i, j) in detect_overlaps_bruteforce(&accs).pairs {
                    let (a, b) = (&ext[idxs[i as usize]], &ext[idxs[j as usize]]);
                    let (first, second) =
                        if (a.access.t_start, a.access.rank) <= (b.access.t_start, b.access.rank) {
                            (a, b)
                        } else {
                            (b, a)
                        };
                    if first.access.kind != AccessKind::Write {
                        continue;
                    }
                    let (t1, t2) = (first.access.t_start, second.access.t_start);
                    let synchronized = match model {
                        AnalysisModel::Commit => first.tc_commit.is_some_and(|tc| tc <= t2),
                        AnalysisModel::Session => match (first.tc_close, second.to) {
                            (Some(tc), Some(to)) => t1 < tc && tc < to && to < t2,
                            _ => false,
                        },
                    };
                    if !synchronized {
                        want.push((f, id(&first.access), id(&second.access)));
                    }
                }
            }
            let report = detect_conflicts(&trace, model);
            let mut got: Vec<Key> = report
                .pairs
                .iter()
                .map(|p| (p.file.0, id(&p.first), id(&p.second)))
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{model:?}");
            checked += got.len();
        }
    }
    assert!(checked > 1000, "the property saw only {checked} pairs");
}

/// Commit conflicts are a subset of session conflicts: a close is a
/// commit, so a writer's next commit comes no later than its next close,
/// and every commit-visible conflict is also session-visible.
#[test]
fn commit_subset_of_session() {
    let mut rng = SimRng::seed_from_u64(0xA4);
    for _ in 0..128 {
        let trace = random_trace(&mut rng);
        let commit = detect_conflicts(&trace, AnalysisModel::Commit);
        let session = detect_conflicts(&trace, AnalysisModel::Session);
        // Pair sets: every commit conflict must appear among session ones.
        let key = |p: &semantics_core::ConflictPair| {
            (
                p.first.rank,
                p.first.t_start,
                p.second.rank,
                p.second.t_start,
                p.first.offset,
            )
        };
        let skeys: std::collections::HashSet<_> = session.pairs.iter().map(key).collect();
        for p in &commit.pairs {
            assert!(
                skeys.contains(&key(p)),
                "commit conflict missing under session: {p:?}"
            );
        }
    }
}

/// Conflicts are invariant under a uniform time shift.
#[test]
fn conflicts_invariant_under_time_shift() {
    let mut rng = SimRng::seed_from_u64(0xA5);
    for _ in 0..128 {
        let trace = random_trace(&mut rng);
        let shift = rng.range_u64(0, 10_000);
        let shifted = ResolvedTrace {
            accesses: trace
                .accesses
                .iter()
                .map(|a| DataAccess {
                    t_start: a.t_start + shift,
                    t_end: a.t_end + shift,
                    ..*a
                })
                .collect(),
            syncs: trace
                .syncs
                .iter()
                .map(|s| SyncEvent {
                    t: s.t + shift,
                    ..*s
                })
                .collect(),
            seek_mismatches: 0,
            short_reads: 0,
        };
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            let a = detect_conflicts(&trace, model);
            let b = detect_conflicts(&shifted, model);
            assert_eq!(a.total(), b.total());
            assert_eq!(a.table4_marks(), b.table4_marks());
        }
    }
}

/// Removing all sync events can only add conflicts (sync events only ever
/// clear conditions 3 and 4).
#[test]
fn syncs_only_reduce_conflicts() {
    let mut rng = SimRng::seed_from_u64(0xA6);
    for _ in 0..128 {
        let trace = random_trace(&mut rng);
        let no_sync = ResolvedTrace {
            accesses: trace.accesses.clone(),
            syncs: vec![],
            seek_mismatches: 0,
            short_reads: 0,
        };
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            let with = detect_conflicts(&trace, model);
            let without = detect_conflicts(&no_sync, model);
            assert!(without.total() >= with.total(), "{model:?}");
        }
    }
}

/// The advisor's proposed commit insertions always eliminate every
/// commit-semantics conflict, on arbitrary traces.
#[test]
fn advisor_is_always_sufficient() {
    let mut rng = SimRng::seed_from_u64(0xA8);
    for _ in 0..96 {
        let trace = random_trace(&mut rng);
        let advice = semantics_core::advisor::advise_commits(&trace);
        assert!(
            advice.is_sufficient(),
            "{} conflicts survive {} insertions",
            advice.after.total(),
            advice.insertions.len()
        );
        // And it never proposes more insertions than there were
        // conflicting first-writes.
        assert!(advice.insertions.len() as u64 <= advice.before.total());
    }
}
