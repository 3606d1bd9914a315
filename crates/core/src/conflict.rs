//! Conflict detection under commit and session semantics (§5.2).
//!
//! Two tuples `(t₁, r₁, os₁, oe₁, type₁)` and `(t₂, r₂, os₂, oe₂, type₂)`
//! with `t₁ < t₂` are a conflict pair if:
//!
//! 1. they overlap;
//! 2. the first operation is a write (a write-after-read pair cannot
//!    conflict, since race-free programs synchronize the read before the
//!    write starts);
//! 3. **commit semantics**: `r₁` executes no commit operation between `t₁`
//!    and `t₂` (commit operations: fsync, fdatasync, close — footnote 2);
//! 4. **session semantics**: there is no close by `r₁` at `t_c` and open
//!    by `r₂` at `t_o` with `t₁ < t_c < t_o < t₂`.
//!
//! As in the paper, each record is extended with `to` (time of the last
//! preceding open) and `tc` (time of the first succeeding close/commit by
//! the same process). [`extend`] searches the per-process open/commit
//! tables (binary search); [`extend_scan`] marks records by traversing each
//! process in timestamp order and is the independent oracle the tests hold
//! [`extend`] to, record for record.
//!
//! This is the detector for a trace **at rest** (`tracetool`, the facade,
//! [`crate::apprun`], [`crate::advisor`]) and the reference the streaming
//! engine ([`crate::incremental`]) is held byte-identical to. Candidates
//! come from Algorithm 1 itself ([`crate::overlap`]'s sweep), so what
//! brute force checks is what this module enumerates.

use std::collections::BTreeMap;

use recorder::{AccessKind, DataAccess, PathId, ResolvedTrace, SyncKind};

use crate::overlap::{sweep, FileGroups};

/// Which relaxed model the detector is checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisModel {
    Commit,
    Session,
}

/// RAW or WAW (§4.1; write-after-read cannot conflict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// Read-after-write.
    Raw,
    /// Write-after-write.
    Waw,
}

/// Same process (S) or distinct processes (D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictScope {
    Same,
    Distinct,
}

/// One detected conflict pair, `first.t_start < second.t_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictPair {
    pub file: PathId,
    pub first: DataAccess,
    pub second: DataAccess,
    pub kind: ConflictKind,
    pub scope: ConflictScope,
}

/// Summary of all conflicts found in one trace under one model — one row
/// of Table 4.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictReport {
    pub model_checked: Option<AnalysisModel>,
    pub pairs: Vec<ConflictPair>,
    pub waw_same: u64,
    pub waw_distinct: u64,
    pub raw_same: u64,
    pub raw_distinct: u64,
}

impl ConflictReport {
    pub fn total(&self) -> u64 {
        self.waw_same + self.waw_distinct + self.raw_same + self.raw_distinct
    }

    pub fn has_distinct_process_conflicts(&self) -> bool {
        self.waw_distinct + self.raw_distinct > 0
    }

    pub fn has_same_process_conflicts(&self) -> bool {
        self.waw_same + self.raw_same > 0
    }

    /// The four ✓-columns of Table 4: (WAW-S, WAW-D, RAW-S, RAW-D).
    pub fn table4_marks(&self) -> (bool, bool, bool, bool) {
        (
            self.waw_same > 0,
            self.waw_distinct > 0,
            self.raw_same > 0,
            self.raw_distinct > 0,
        )
    }

    pub(crate) fn add(&mut self, pair: ConflictPair) {
        match (pair.kind, pair.scope) {
            (ConflictKind::Waw, ConflictScope::Same) => self.waw_same += 1,
            (ConflictKind::Waw, ConflictScope::Distinct) => self.waw_distinct += 1,
            (ConflictKind::Raw, ConflictScope::Same) => self.raw_same += 1,
            (ConflictKind::Raw, ConflictScope::Distinct) => self.raw_distinct += 1,
        }
        self.pairs.push(pair);
    }
}

/// One event table keyed by `(rank, file)`: a sorted key vector with
/// ranges into one flat, per-key ascending timestamp array. A lookup is a
/// single binary search over a dense `Vec` — this replaces the former
/// `BTreeMap<(u32, PathId), Vec<u64>>` per table (three pointer-chasing
/// maps and one `Vec` allocation per key).
#[derive(Debug, Default)]
struct SortedTable {
    keys: Vec<(u32, PathId)>,
    /// Parallel to `keys`: `times[start..end]` for that key.
    ranges: Vec<(u32, u32)>,
    times: Vec<u64>,
}

impl SortedTable {
    fn build(mut events: Vec<((u32, PathId), u64)>) -> Self {
        // Sorting (key, t) groups keys AND orders each key's times.
        events.sort_unstable();
        let mut t = SortedTable::default();
        let mut start = 0;
        while start < events.len() {
            let key = events[start].0;
            let mut end = start + 1;
            while end < events.len() && events[end].0 == key {
                end += 1;
            }
            t.keys.push(key);
            t.ranges
                .push((t.times.len() as u32, (t.times.len() + end - start) as u32));
            t.times.extend(events[start..end].iter().map(|e| e.1));
            start = end;
        }
        t
    }

    fn slice(&self, key: (u32, PathId)) -> &[u64] {
        match self.keys.binary_search(&key) {
            Ok(k) => {
                let (lo, hi) = self.ranges[k];
                &self.times[lo as usize..hi as usize]
            }
            Err(_) => &[],
        }
    }

    /// Last event `<= t` — an open at the same instant as the access
    /// counts as preceding it (matching the scan variant's event order
    /// `open < access < close/commit` at equal times).
    fn last_before(&self, key: (u32, PathId), t: u64) -> Option<u64> {
        let v = self.slice(key);
        let idx = v.partition_point(|&x| x <= t);
        if idx == 0 {
            None
        } else {
            Some(v[idx - 1])
        }
    }

    /// First event `>= t` — a close/commit at the same instant as the
    /// access counts as succeeding it.
    fn first_after(&self, key: (u32, PathId), t: u64) -> Option<u64> {
        let v = self.slice(key);
        let idx = v.partition_point(|&x| x < t);
        v.get(idx).copied()
    }
}

/// Per-(rank, file) synchronization tables, each sorted by time.
#[derive(Debug, Default)]
struct SyncTables {
    opens: SortedTable,
    closes: SortedTable,
    commits: SortedTable, // fsync/fdatasync AND close
}

impl SyncTables {
    fn build(resolved: &ResolvedTrace) -> Self {
        let mut opens = Vec::new();
        let mut closes = Vec::new();
        let mut commits = Vec::new();
        for s in &resolved.syncs {
            let key = (s.rank, s.file);
            match s.kind {
                SyncKind::Open => opens.push((key, s.t)),
                SyncKind::Close => {
                    closes.push((key, s.t));
                    commits.push((key, s.t));
                }
                SyncKind::Commit => commits.push((key, s.t)),
            }
        }
        SyncTables {
            opens: SortedTable::build(opens),
            closes: SortedTable::build(closes),
            commits: SortedTable::build(commits),
        }
    }
}

/// The per-record extension of §5.2: `to` and `tc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendedAccess {
    pub access: DataAccess,
    /// Time of the last preceding `open` by this process on this file.
    pub to: Option<u64>,
    /// Time of the first succeeding `close` by this process on this file.
    pub tc_close: Option<u64>,
    /// Time of the first succeeding commit (`fsync`/`fdatasync`/`close`).
    pub tc_commit: Option<u64>,
}

/// Extend every access via binary search in the per-process sync tables
/// (the paper's suggested O(log n)-per-record variant), in input order.
pub fn extend(resolved: &ResolvedTrace) -> Vec<ExtendedAccess> {
    let tables = SyncTables::build(resolved);
    resolved
        .accesses
        .iter()
        .map(|a| {
            let key = (a.rank, a.file);
            ExtendedAccess {
                access: *a,
                to: tables.opens.last_before(key, a.t_start),
                tc_close: tables.closes.first_after(key, a.t_start),
                tc_commit: tables.commits.first_after(key, a.t_start),
            }
        })
        .collect()
}

/// Extend every access by one forward + one backward scan over each
/// process's records in timestamp order (the paper's alternative "mark
/// while traversing" variant). Shares nothing with the sync tables, which
/// is what makes it the extension oracle: `tests/prop.rs` holds
/// [`extend`] equal to it, record for record, on random traces.
pub fn extend_scan(resolved: &ResolvedTrace) -> Vec<ExtendedAccess> {
    // Merge accesses and syncs per (rank, file) in time order.
    #[derive(Clone, Copy)]
    enum Ev {
        Acc(usize),
        Open(u64),
        Close(u64),
        Commit(u64),
    }
    let mut per_key: BTreeMap<(u32, PathId), Vec<(u64, Ev)>> = BTreeMap::new();
    for (i, a) in resolved.accesses.iter().enumerate() {
        per_key
            .entry((a.rank, a.file))
            .or_default()
            .push((a.t_start, Ev::Acc(i)));
    }
    for s in &resolved.syncs {
        let ev = match s.kind {
            SyncKind::Open => Ev::Open(s.t),
            SyncKind::Close => Ev::Close(s.t),
            SyncKind::Commit => Ev::Commit(s.t),
        };
        per_key.entry((s.rank, s.file)).or_default().push((s.t, ev));
    }

    let mut out: Vec<ExtendedAccess> = resolved
        .accesses
        .iter()
        .map(|a| ExtendedAccess {
            access: *a,
            to: None,
            tc_close: None,
            tc_commit: None,
        })
        .collect();

    for events in per_key.values_mut() {
        // Stable order: syncs at the same instant as an access sort as the
        // binary-search variant treats them (open: strictly before; close /
        // commit: strictly after). Order same-time events as
        // open < access < close/commit.
        events.sort_by_key(|(t, ev)| {
            (
                *t,
                match ev {
                    Ev::Open(_) => 0u8,
                    Ev::Acc(_) => 1,
                    Ev::Close(_) => 2,
                    Ev::Commit(_) => 2,
                },
            )
        });
        // Forward: last open seen so far.
        let mut last_open: Option<u64> = None;
        for (_, ev) in events.iter() {
            match ev {
                Ev::Open(t) => last_open = Some(*t),
                Ev::Acc(i) => out[*i].to = last_open,
                _ => {}
            }
        }
        // Backward: next close / next commit.
        let mut next_close: Option<u64> = None;
        let mut next_commit: Option<u64> = None;
        for (_, ev) in events.iter().rev() {
            match ev {
                Ev::Close(t) => {
                    next_close = Some(*t);
                    next_commit = Some(next_commit.map_or(*t, |c: u64| c.min(*t)));
                }
                Ev::Commit(t) => next_commit = Some(next_commit.map_or(*t, |c: u64| c.min(*t))),
                Ev::Acc(i) => {
                    out[*i].tc_close = next_close;
                    out[*i].tc_commit = next_commit;
                }
                Ev::Open(_) => {}
            }
        }
    }
    out
}

/// Detect all conflict pairs in `resolved` under `model`: extend every
/// record, then per file (in [`PathId`] order) sort by `(offset, end)` —
/// stably, so ties keep input order — run Algorithm 1's sweep, order each
/// overlapping pair by `(t_start, rank)`, and keep it if conditions 2–4
/// hold. That emission order is part of the contract: the streaming engine
/// reproduces it.
pub fn detect_conflicts(resolved: &ResolvedTrace, model: AnalysisModel) -> ConflictReport {
    let accesses = &resolved.accesses;
    let extended = extend(resolved);
    let mut report = ConflictReport {
        model_checked: Some(model),
        ..Default::default()
    };
    for (file, idxs) in FileGroups::new(accesses).iter() {
        let mut order = idxs.to_vec();
        order.sort_by_key(|&i| (accesses[i as usize].offset, accesses[i as usize].end()));
        sweep(accesses, &order, |i, j, a, b| {
            let (first, second) = if (a.t_start, a.rank) <= (b.t_start, b.rank) {
                (&extended[i as usize], &extended[j as usize])
            } else {
                (&extended[j as usize], &extended[i as usize])
            };
            // Condition 2: write-after-read is not a potential conflict.
            if first.access.kind == AccessKind::Write && conflicting(first, second, model) {
                report.add(classify_pair(file, &first.access, &second.access));
            }
        });
    }
    report
}

/// Conditions 3 and 4 of §5.2 on plain timestamps — the one statement of
/// them, shared by this detector and the streaming one. A write at `t1`
/// and an overlapping later access at `t2` conflict under `model` unless:
///
/// * **commit** (3): the writer's first commit at or after `t1`, `tc1`,
///   is not after `t2`;
/// * **session** (4): the writer's first close at or after `t1`, `tc1`,
///   and the second process's last open at or before `t2`, `to2`, satisfy
///   `t1 < tc1 < to2 < t2`.
#[inline]
pub(crate) fn unsynchronized(
    model: AnalysisModel,
    t1: u64,
    tc1: Option<u64>,
    to2: Option<u64>,
    t2: u64,
) -> bool {
    match model {
        AnalysisModel::Commit => tc1.is_none_or(|tc| tc > t2),
        AnalysisModel::Session => !matches!(
            (tc1, to2),
            (Some(tc), Some(to)) if t1 < tc && tc < to && to < t2
        ),
    }
}

/// Conditions 3/4 for an ordered, extended candidate pair: `tc1` is the
/// writer's next close under session semantics (only a close publishes).
fn conflicting(first: &ExtendedAccess, second: &ExtendedAccess, model: AnalysisModel) -> bool {
    let tc1 = match model {
        AnalysisModel::Session => first.tc_close,
        AnalysisModel::Commit => first.tc_commit,
    };
    unsynchronized(
        model,
        first.access.t_start,
        tc1,
        second.to,
        second.access.t_start,
    )
}

pub(crate) fn classify_pair(file: PathId, first: &DataAccess, second: &DataAccess) -> ConflictPair {
    let kind = match second.kind {
        AccessKind::Read => ConflictKind::Raw,
        AccessKind::Write => ConflictKind::Waw,
    };
    let scope = if first.rank == second.rank {
        ConflictScope::Same
    } else {
        ConflictScope::Distinct
    };
    ConflictPair {
        file,
        first: *first,
        second: *second,
        kind,
        scope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{Layer, SyncEvent};

    const F: PathId = PathId(0);

    fn acc(rank: u32, t: u64, offset: u64, len: u64, kind: AccessKind) -> DataAccess {
        DataAccess {
            rank,
            t_start: t,
            t_end: t + 1,
            file: F,
            offset,
            len,
            kind,
            origin: Layer::App,
            fd: 3,
        }
    }

    fn sync(rank: u32, t: u64, kind: SyncKind) -> SyncEvent {
        SyncEvent {
            rank,
            t,
            file: F,
            kind,
        }
    }

    fn resolved(accesses: Vec<DataAccess>, syncs: Vec<SyncEvent>) -> ResolvedTrace {
        ResolvedTrace {
            accesses,
            syncs,
            seek_mismatches: 0,
            short_reads: 0,
        }
    }

    #[test]
    fn raw_distinct_without_sync_conflicts_under_both_models() {
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Write),
                acc(1, 50, 0, 100, AccessKind::Read),
            ],
            vec![sync(0, 1, SyncKind::Open), sync(1, 2, SyncKind::Open)],
        );
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            let rep = detect_conflicts(&r, model);
            assert_eq!(rep.total(), 1, "{model:?}");
            assert_eq!(rep.table4_marks(), (false, false, false, true));
        }
    }

    #[test]
    fn commit_between_clears_commit_conflict_only() {
        // write(r0)@10, fsync(r0)@20, read(r1)@50.
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Write),
                acc(1, 50, 0, 100, AccessKind::Read),
            ],
            vec![
                sync(0, 1, SyncKind::Open),
                sync(1, 2, SyncKind::Open),
                sync(0, 20, SyncKind::Commit),
            ],
        );
        assert_eq!(detect_conflicts(&r, AnalysisModel::Commit).total(), 0);
        // Session: r1 opened before the fsync (and an fsync is not a
        // close) → still a conflict.
        assert_eq!(detect_conflicts(&r, AnalysisModel::Session).total(), 1);
    }

    #[test]
    fn close_to_open_clears_session_conflict() {
        // write(r0)@10, close(r0)@20, open(r1)@30, read(r1)@50.
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Write),
                acc(1, 50, 0, 100, AccessKind::Read),
            ],
            vec![
                sync(0, 1, SyncKind::Open),
                sync(0, 20, SyncKind::Close),
                sync(1, 30, SyncKind::Open),
            ],
        );
        assert_eq!(detect_conflicts(&r, AnalysisModel::Session).total(), 0);
        assert_eq!(detect_conflicts(&r, AnalysisModel::Commit).total(), 0);
    }

    #[test]
    fn open_before_close_still_session_conflict() {
        // write(r0)@10, open(r1)@15, close(r0)@20, read(r1)@50: the reader's
        // session began before the writer's close.
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Write),
                acc(1, 50, 0, 100, AccessKind::Read),
            ],
            vec![
                sync(0, 1, SyncKind::Open),
                sync(1, 15, SyncKind::Open),
                sync(0, 20, SyncKind::Close),
            ],
        );
        let rep = detect_conflicts(&r, AnalysisModel::Session);
        assert_eq!(rep.total(), 1);
        assert_eq!(rep.table4_marks(), (false, false, false, true));
        // Commit: the close at 20 is a commit before the read at 50.
        assert_eq!(detect_conflicts(&r, AnalysisModel::Commit).total(), 0);
    }

    #[test]
    fn war_is_never_a_conflict() {
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Read),
                acc(1, 50, 0, 100, AccessKind::Write),
            ],
            vec![sync(0, 1, SyncKind::Open), sync(1, 2, SyncKind::Open)],
        );
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            assert_eq!(detect_conflicts(&r, model).total(), 0);
        }
    }

    #[test]
    fn waw_same_process_classified() {
        let r = resolved(
            vec![
                acc(0, 10, 0, 10, AccessKind::Write),
                acc(0, 20, 5, 10, AccessKind::Write),
            ],
            vec![sync(0, 1, SyncKind::Open)],
        );
        let rep = detect_conflicts(&r, AnalysisModel::Session);
        assert_eq!(rep.table4_marks(), (true, false, false, false));
        assert_eq!(rep.pairs[0].scope, ConflictScope::Same);
    }

    #[test]
    fn non_overlapping_never_conflicts() {
        let r = resolved(
            vec![
                acc(0, 10, 0, 10, AccessKind::Write),
                acc(1, 20, 10, 10, AccessKind::Write),
            ],
            vec![],
        );
        for model in [AnalysisModel::Commit, AnalysisModel::Session] {
            assert_eq!(detect_conflicts(&r, model).total(), 0);
        }
    }

    #[test]
    fn scan_and_binary_search_variants_agree() {
        // A denser scenario with several files, opens, closes and commits.
        let mut accesses = Vec::new();
        let mut syncs = Vec::new();
        for rank in 0..4u32 {
            syncs.push(sync(rank, rank as u64, SyncKind::Open));
            for k in 0..6u64 {
                accesses.push(acc(
                    rank,
                    10 + k * 17 + rank as u64,
                    (k * 13 + rank as u64 * 7) % 60,
                    20,
                    if k % 3 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                ));
                if k == 2 {
                    syncs.push(sync(rank, 11 + k * 17 + rank as u64, SyncKind::Commit));
                }
            }
            syncs.push(sync(rank, 200 + rank as u64, SyncKind::Close));
        }
        let r = resolved(accesses, syncs);
        assert_eq!(extend(&r), extend_scan(&r));
    }

    #[test]
    fn session_conflicts_are_superset_of_commit_conflicts_here() {
        // Commit-visible scenarios are also session-visible when every
        // commit is an fsync (not a close).
        let r = resolved(
            vec![
                acc(0, 10, 0, 100, AccessKind::Write),
                acc(1, 50, 0, 100, AccessKind::Write),
                acc(0, 70, 50, 10, AccessKind::Write),
                acc(1, 90, 55, 10, AccessKind::Read),
            ],
            vec![
                sync(0, 1, SyncKind::Open),
                sync(1, 2, SyncKind::Open),
                sync(0, 60, SyncKind::Commit),
            ],
        );
        let c = detect_conflicts(&r, AnalysisModel::Commit);
        let s = detect_conflicts(&r, AnalysisModel::Session);
        assert!(s.total() >= c.total());
    }
}
