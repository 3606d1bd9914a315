//! The shared [`AnalysisContext`]: every per-trace index the analyses
//! need, built **once** per resolved trace.
//!
//! The pipeline used to pay for the same trace six times — both conflict
//! detections, the two low-level pattern passes, the high-level
//! classifier, and the metadata census each re-derived their own per-file
//! grouping and sort order. The context fuses that bookkeeping:
//!
//! * [`FileGroups`] — the zero-copy per-file grouping (Algorithm 1 runs
//!   per file);
//! * the sync tables + the §5.2 `to`/`tc` extension — the per-process
//!   open/close/commit windows both conflict models consult;
//! * a per-file **offset-sorted** index order — the sweep order shared by
//!   overlap enumeration and both conflict detections;
//! * per-`(rank, file)` and per-file **time-sorted** orders — the streams
//!   of Figure 1's local/global classification (built lazily);
//! * a lazily-built [`HbIndex`] over the adjusted trace for §5.2's
//!   happens-before validation.
//!
//! Every index is derived with the *same* stable sort keys the standalone
//! entry points use, so routing an analysis through the context changes
//! its cost, never its output — `tests/fused.rs` holds the fused sweep to
//! the separate detections and to the scan-variant oracle, and
//! `crates/report/tests/incremental_identity.rs` holds every rendered
//! artifact to the independently written streaming analyzer.

use std::sync::OnceLock;

use recorder::{DataAccess, PathId, ResolvedTrace, TraceSet};

use crate::conflict::{
    detect_conflicts_fused, detect_conflicts_in, AnalysisModel, ConflictOptions, ConflictReport,
    ExtendedAccess, FusedReports, SyncTables,
};
use crate::hb::{validate_conflicts_with, HbIndex, HbValidation};
use crate::metadata::MetadataCensus;
use crate::overlap::FileGroups;
use crate::patterns::highlevel::{self, ClassifyOptions, HighLevelReport};
use crate::patterns::lowlevel::{classify_global_in, classify_local_in, PatternStats};

/// All shared per-trace analysis state. Construct once with
/// [`AnalysisContext::new`] (or [`AnalysisContext::with_adjusted`] when
/// the census / happens-before validation are needed too), then run any
/// number of analyses against it.
pub struct AnalysisContext<'a> {
    resolved: &'a ResolvedTrace,
    /// The adjusted trace the resolved one came from; needed by the
    /// metadata census and the happens-before index.
    adjusted: Option<&'a TraceSet>,
    groups: FileGroups,
    sync: SyncTables,
    extended: Vec<ExtendedAccess>,
    /// `groups.order()` with each file's range re-sorted (stably) by
    /// `(offset_start, offset_end)` — the sweep order of Algorithm 1 and
    /// both conflict detections.
    conflict_order: Vec<u32>,
    /// Lazily-built stream orders for Figure 1 (local: `(rank, file)`;
    /// global: `(file, t_start, rank)`).
    local_order: OnceLock<Vec<u32>>,
    global_order: OnceLock<Vec<u32>>,
    hb: OnceLock<HbIndex>,
}

impl<'a> AnalysisContext<'a> {
    /// Build the context over a resolved trace. Eagerly materializes the
    /// grouping, sync tables, extension, and the per-file sweep order;
    /// the pattern orders and the happens-before index are built on first
    /// use.
    pub fn new(resolved: &'a ResolvedTrace) -> Self {
        Self::build(resolved, None)
    }

    /// [`AnalysisContext::new`], additionally carrying the adjusted trace
    /// so [`AnalysisContext::census`] and
    /// [`AnalysisContext::validate`] are available.
    pub fn with_adjusted(resolved: &'a ResolvedTrace, adjusted: &'a TraceSet) -> Self {
        Self::build(resolved, Some(adjusted))
    }

    fn build(resolved: &'a ResolvedTrace, adjusted: Option<&'a TraceSet>) -> Self {
        let accesses = &resolved.accesses;
        let _span = obs::span("core", "ctx:build").with_arg("accesses", accesses.len());
        let groups = FileGroups::new(accesses);
        let (sync, extended) = crate::conflict::extend_with_tables(resolved);
        // Same stable key as the standalone per-file sort — `(offset,
        // end)` over ranges that are in input order — so the sweep
        // enumerates pairs in exactly the order the standalone detectors
        // do.
        let mut conflict_order = groups.order().to_vec();
        for k in 0..groups.len() {
            let (_, lo, hi) = groups.bounds(k);
            conflict_order[lo..hi].sort_by_key(|&i| {
                let a = &accesses[i as usize];
                (a.offset, a.end())
            });
        }
        AnalysisContext {
            resolved,
            adjusted,
            groups,
            sync,
            extended,
            conflict_order,
            local_order: OnceLock::new(),
            global_order: OnceLock::new(),
            hb: OnceLock::new(),
        }
    }

    pub fn resolved(&self) -> &ResolvedTrace {
        self.resolved
    }

    pub fn accesses(&self) -> &[DataAccess] {
        &self.resolved.accesses
    }

    /// The adjusted trace, if the context was built with one.
    pub fn adjusted(&self) -> Option<&TraceSet> {
        self.adjusted
    }

    pub fn groups(&self) -> &FileGroups {
        &self.groups
    }

    /// The §5.2 `to`/`tc` extension (binary-search variant), in input
    /// order.
    pub fn extended(&self) -> &[ExtendedAccess] {
        &self.extended
    }

    /// Time of the last `open` by `rank` on `file` at or before `t` — a
    /// direct query into the retained sync tables.
    pub fn last_open(&self, rank: u32, file: PathId, t: u64) -> Option<u64> {
        self.sync.last_open((rank, file), t)
    }

    /// Time of the first `close` by `rank` on `file` at or after `t`.
    pub fn next_close(&self, rank: u32, file: PathId, t: u64) -> Option<u64> {
        self.sync.next_close((rank, file), t)
    }

    /// Time of the first commit (`fsync`/`fdatasync`/`close`) by `rank`
    /// on `file` at or after `t`.
    pub fn next_commit(&self, rank: u32, file: PathId, t: u64) -> Option<u64> {
        self.sync.next_commit((rank, file), t)
    }

    /// Number of distinct files.
    pub fn file_count(&self) -> usize {
        self.groups.len()
    }

    /// The `k`-th file's accesses in sweep (offset-sorted) order.
    pub fn conflict_group(&self, k: usize) -> (PathId, &[u32]) {
        let (file, lo, hi) = self.groups.bounds(k);
        (file, &self.conflict_order[lo..hi])
    }

    /// Fused session+commit conflict detection.
    pub fn fused_conflicts(&self) -> FusedReports {
        let _span = obs::span("core", "conflicts:fused");
        detect_conflicts_fused(self)
    }

    /// Single-model detection reusing this context's indexes.
    pub fn conflicts(&self, model: AnalysisModel) -> ConflictReport {
        detect_conflicts_in(self, model, ConflictOptions::default())
    }

    /// Figure 1(b): the local pattern, streaming per `(rank, file)`.
    pub fn local_pattern(&self) -> PatternStats {
        let _span = obs::span("core", "pattern:local");
        let accs = self.accesses();
        let order = self.local_order.get_or_init(|| {
            let mut order: Vec<u32> = (0..accs.len() as u32).collect();
            // Stable: within a (rank, file) stream the input (time) order
            // holds.
            order.sort_by_key(|&i| (accs[i as usize].rank, accs[i as usize].file));
            order
        });
        classify_local_in(accs, order)
    }

    /// Figure 1(a): the global pattern, streaming per file in global
    /// (adjusted) time order.
    pub fn global_pattern(&self) -> PatternStats {
        let _span = obs::span("core", "pattern:global");
        let accs = self.accesses();
        let order = self.global_order.get_or_init(|| {
            let mut order: Vec<u32> = (0..accs.len() as u32).collect();
            order.sort_by_key(|&i| {
                let a = &accs[i as usize];
                (a.file, a.t_start, a.rank)
            });
            order
        });
        classify_global_in(accs, order)
    }

    /// Table 3 classification, reusing the per-file grouping.
    pub fn highlevel(&self, nranks: u32) -> HighLevelReport {
        self.highlevel_opt(nranks, ClassifyOptions::default())
    }

    pub fn highlevel_opt(&self, nranks: u32, opts: ClassifyOptions) -> HighLevelReport {
        let _span = obs::span("core", "highlevel");
        highlevel::classify_grouped(self.accesses(), &self.groups, nranks, opts)
    }

    /// Figure 3's metadata census over the adjusted trace.
    ///
    /// # Panics
    /// Panics if the context was built without an adjusted trace.
    pub fn census(&self) -> MetadataCensus {
        let _span = obs::span("core", "census");
        MetadataCensus::from_trace(self.require_adjusted())
    }

    /// The happens-before index over the adjusted trace, built on first
    /// use and shared by every subsequent validation.
    ///
    /// # Panics
    /// Panics if the context was built without an adjusted trace.
    pub fn hb_index(&self) -> &HbIndex {
        let adjusted = self.require_adjusted();
        self.hb.get_or_init(|| {
            let _span = obs::span("core", "hb:build");
            HbIndex::build(adjusted)
        })
    }

    /// §5.2 validation of a conflict report against the happens-before
    /// order, reusing the context's index (and one scratch buffer across
    /// all queried pairs).
    pub fn validate(&self, report: &ConflictReport) -> HbValidation {
        let _span = obs::span("core", "hb:validate").with_arg("pairs", report.pairs.len());
        validate_conflicts_with(self.hb_index(), report)
    }

    fn require_adjusted(&self) -> &'a TraceSet {
        self.adjusted
            .expect("AnalysisContext built without an adjusted trace (use with_adjusted)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{AccessKind, Layer, SyncEvent, SyncKind};

    fn acc(rank: u32, t: u64, file: u32, offset: u64, len: u64, kind: AccessKind) -> DataAccess {
        DataAccess {
            rank,
            t_start: t,
            t_end: t + 1,
            file: PathId(file),
            offset,
            len,
            kind,
            origin: Layer::App,
            fd: 3,
        }
    }

    fn dense_trace() -> ResolvedTrace {
        let mut accesses = Vec::new();
        let mut syncs = Vec::new();
        for rank in 0..4u32 {
            syncs.push(SyncEvent {
                rank,
                t: rank as u64,
                file: PathId(0),
                kind: SyncKind::Open,
            });
            for k in 0..8u64 {
                accesses.push(acc(
                    rank,
                    10 + k * 17 + rank as u64,
                    (k % 2) as u32,
                    (k * 13 + rank as u64 * 7) % 60,
                    20,
                    if k % 3 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                ));
            }
            syncs.push(SyncEvent {
                rank,
                t: 200 + rank as u64,
                file: PathId(0),
                kind: SyncKind::Close,
            });
        }
        ResolvedTrace {
            accesses,
            syncs,
            seek_mismatches: 0,
            short_reads: 0,
        }
    }

    #[test]
    fn conflict_order_is_offset_sorted_per_file() {
        let r = dense_trace();
        let ctx = AnalysisContext::new(&r);
        for k in 0..ctx.file_count() {
            let (file, order) = ctx.conflict_group(k);
            assert!(order.iter().all(|&i| r.accesses[i as usize].file == file));
            assert!(order.windows(2).all(|w| {
                let a = &r.accesses[w[0] as usize];
                let b = &r.accesses[w[1] as usize];
                (a.offset, a.end()) <= (b.offset, b.end())
            }));
        }
    }

    #[test]
    fn context_analyses_match_standalone() {
        let r = dense_trace();
        let ctx = AnalysisContext::new(&r);
        assert_eq!(
            ctx.conflicts(AnalysisModel::Session),
            crate::conflict::detect_conflicts(&r, AnalysisModel::Session)
        );
        assert_eq!(ctx.local_pattern(), crate::patterns::local_pattern(&r));
        assert_eq!(ctx.global_pattern(), crate::patterns::global_pattern(&r));
        let hl_ctx = ctx.highlevel(4);
        let hl = crate::patterns::highlevel::classify(&r, 4);
        assert_eq!(hl_ctx.label(), hl.label());
        assert_eq!(hl_ctx.per_file.len(), hl.per_file.len());
    }

    #[test]
    fn sync_queries_match_extension() {
        let r = dense_trace();
        let ctx = AnalysisContext::new(&r);
        for (i, e) in ctx.extended().iter().enumerate() {
            let a = &r.accesses[i];
            assert_eq!(ctx.last_open(a.rank, a.file, a.t_start), e.to);
            assert_eq!(ctx.next_close(a.rank, a.file, a.t_start), e.tc_close);
            assert_eq!(ctx.next_commit(a.rank, a.file, a.t_start), e.tc_commit);
        }
    }

    #[test]
    fn fused_matches_separate() {
        let r = dense_trace();
        let ctx = AnalysisContext::new(&r);
        let fused = ctx.fused_conflicts();
        assert_eq!(
            fused.session,
            crate::conflict::detect_conflicts(&r, AnalysisModel::Session)
        );
        assert_eq!(
            fused.commit,
            crate::conflict::detect_conflicts(&r, AnalysisModel::Commit)
        );
    }
}
