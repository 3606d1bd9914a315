//! The fault campaign: §6.3 pushed past the happy path.
//!
//! The paper derives each application's weakest workable consistency
//! model from *complete* traces. This module re-asks the question under
//! injected faults: seeded rank crashes, transient I/O errors, lost
//! flushes, and delayed messages, swept across seeds × fault kinds ×
//! applications. Two properties are on trial:
//!
//! 1. **Graceful degradation** — no combination may panic the stack.
//!    Crashed ranks leave trace prefixes that the analysis labels
//!    ([`Completeness`]) and processes anyway; transient errors are
//!    retried inside the simulated clock; a lost flush silently skips
//!    commit visibility.
//! 2. **Semantic sensitivity** — a crash *before* the commit point is
//!    exactly the scenario commit semantics does not protect, so FLASH's
//!    commit-model verdict must flip for well-placed crashes while every
//!    happy-path verdict stays at its Table 4 value.
//!
//! Everything is deterministic: `(seed, plan, program)` fixes the trace,
//! combinations are enumerated in a fixed order and fanned out with
//! [`semantics_core::parallel_map_indexed`], so campaign artifacts are
//! byte-identical across runs and thread counts.

use std::fmt::Write as _;

use hpcapps::{AppId, AppSpec};
use iolibs::{FaultKind, FaultPlan, IoFault};
use semantics_core::verdict::Completeness;

use crate::runner::{analyze_isolated, analyze_with_params, ConfigOutcome, ReportCfg};

/// Campaign shape. The defaults satisfy the smoke-test floor
/// (≥8 seeds × ≥4 fault kinds × ≥5 applications) at a world size small
/// enough for CI.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCfg {
    /// World size; the campaign default is 8 (the flip mechanism needs
    /// only two metadata participants, and CI pays per rank).
    pub nranks: u32,
    /// First world seed; seeds `base_seed..base_seed + n_seeds` are run.
    pub base_seed: u64,
    pub n_seeds: u64,
    /// Fault-site op indices are drawn from `[1, max_op]`.
    pub max_op: u64,
    /// Op range for the FLASH crash sweep. Deeper than `max_op` because
    /// the flip window (superblock pwrite committed, fsync not) sits
    /// near the *end* of each checkpoint's flush sequence — a few
    /// hundred ops into the per-rank program at quick scale.
    pub sweep_max_op: u64,
    pub threads: usize,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        CampaignCfg {
            nranks: 8,
            base_seed: 7000,
            n_seeds: 8,
            max_op: 64,
            sweep_max_op: 300,
            threads: 0,
        }
    }
}

/// Aggregate outcome counters, for the exit-code decision and CI greps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    pub runs: usize,
    /// Fully analyzed (complete trace — faults absorbed or never fired).
    pub complete: usize,
    /// Analyzed from a partial trace (≥1 rank crashed).
    pub partial: usize,
    /// Whole-run failures surfaced as structured errors (e.g. deadlock).
    pub degraded: usize,
    /// Unwinding panics — the campaign's red line; must stay zero.
    pub panics: usize,
}

/// The injected fault kinds and how many sites each plan draws. Crashes
/// get a single site (the classic fail-stop model); recoverable kinds
/// get two so retry paths see back-to-back injections.
fn fault_kinds() -> [(FaultKind, usize); 6] {
    [
        (FaultKind::Crash, 1),
        (FaultKind::Io(IoFault::Eintr), 2),
        (FaultKind::Io(IoFault::Eio), 2),
        (FaultKind::Io(IoFault::Enospc), 2),
        (FaultKind::Io(IoFault::LostFlush), 2),
        (
            FaultKind::MsgDelay {
                delay_ns: 2_000_000,
            },
            2,
        ),
    ]
}

/// The campaign's application subset: the FLASH shared-file workload plus
/// a spread of I/O stacks (HDF5, POSIX shared + file-per-process, MPI-IO).
fn campaign_specs() -> Vec<&'static AppSpec> {
    [
        AppId::FlashFbs,
        AppId::Enzo,
        AppId::Nwchem,
        AppId::Macsio,
        AppId::HaccIoPosix,
        AppId::VpicIo,
    ]
    .iter()
    .map(|&id| hpcapps::spec_ref(id))
    .collect()
}

/// Run the full campaign and render its table. Returns the rendered
/// artifact and the aggregate counters.
pub fn campaign(camp: &CampaignCfg) -> (String, CampaignStats) {
    let kinds = fault_kinds();
    let specs = campaign_specs();
    // Fixed enumeration order: spec-major, then kind, then seed. The
    // parallel fan-out returns results in this order, so the rendered
    // table is byte-identical across thread counts.
    let mut combos: Vec<(&'static AppSpec, FaultKind, usize, u64)> = Vec::new();
    for spec in &specs {
        for &(kind, count) in &kinds {
            for s in 0..camp.n_seeds {
                combos.push((spec, kind, count, camp.base_seed + s));
            }
        }
    }

    obs::info!(
        "fault campaign: {} combinations ({} apps x {} kinds x {} seeds)",
        combos.len(),
        specs.len(),
        kinds.len(),
        camp.n_seeds
    );
    let results = semantics_core::parallel_map_indexed(combos.len(), camp.threads, |k| {
        let (spec, kind, count, seed) = combos[k];
        let cfg = ReportCfg {
            nranks: camp.nranks,
            seed,
            ..ReportCfg::default()
        };
        let plan = FaultPlan::seeded(seed, camp.nranks, kind, count, camp.max_op);
        let params = spec.params.quick();
        (
            plan.describe(),
            analyze_isolated(&cfg, spec, &params, &plan),
        )
    });

    let mut stats = CampaignStats::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault campaign: {} apps x {} fault kinds x {} seeds = {} runs ({} ranks, quick scale)",
        specs.len(),
        kinds.len(),
        camp.n_seeds,
        combos.len(),
        camp.nranks
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>5}  {:<30} {:<9} {:>7} {:>7}  {}",
        "configuration", "seed", "plan", "status", "sess-D", "comm-D", "completeness"
    );
    for ((spec, _kind, _count, seed), (plan, outcome)) in combos.iter().zip(&results) {
        stats.runs += 1;
        match outcome {
            ConfigOutcome::Ok(run) => {
                if run.completeness.is_partial() {
                    stats.partial += 1;
                } else {
                    stats.complete += 1;
                }
                let _ = writeln!(
                    out,
                    "  {:<22} {:>5}  {:<30} {:<9} {:>7} {:>7}  {}",
                    spec.config_name(),
                    seed,
                    plan,
                    if run.completeness.is_partial() {
                        "PARTIAL"
                    } else {
                        "OK"
                    },
                    run.session.waw_distinct + run.session.raw_distinct,
                    run.commit.waw_distinct + run.commit.raw_distinct,
                    run.completeness.label().trim_start(),
                );
            }
            ConfigOutcome::Degraded {
                error, panicked, ..
            } => {
                stats.degraded += 1;
                if *panicked {
                    stats.panics += 1;
                }
                let _ = writeln!(
                    out,
                    "  {:<22} {:>5}  {:<30} {:<9} {}",
                    spec.config_name(),
                    seed,
                    plan,
                    if *panicked { "PANIC" } else { "DEGRADED" },
                    error,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "  totals: {} runs | {} complete | {} partial | {} degraded | panics: {}",
        stats.runs, stats.complete, stats.partial, stats.degraded, stats.panics
    );
    (out, stats)
}

/// The capstone experiment: sweep a single-rank crash across op indices
/// in FLASH-fbs and show the commit-semantics verdict flipping.
///
/// Mechanism: `H5Fflush` rotates the superblock writer across the
/// metadata participants. Crash the writer *after* its superblock
/// `pwrite` but *before* the covering `fsync` and the write is never
/// committed; when a later flush's (different) writer rewrites offset 0,
/// the pair is a distinct-process WAW that commit semantics does not
/// order — the exact window §3.3's commit model leaves open. The
/// happy-path run, re-analyzed at the same scale, must keep its Table 4
/// verdict (commit suffices).
///
/// Returns the rendered table and whether at least one crash point
/// flipped the verdict.
pub fn flash_crash_sweep(camp: &CampaignCfg) -> (String, bool) {
    let spec = hpcapps::spec_ref(AppId::FlashFbs);
    let params = spec.params.quick();
    let cfg = ReportCfg {
        nranks: camp.nranks,
        seed: camp.base_seed,
        ..ReportCfg::default()
    };

    let happy = analyze_with_params(&cfg, spec, &params);
    let happy_commit_d = happy.commit.waw_distinct + happy.commit.raw_distinct;

    // Sweep every rank (the rotating writer means the vulnerable rank
    // depends on flush count and metadata stride) across the op range.
    // The range must reach past the last dataset flush of a checkpoint:
    // only a crash there leaves survivors on a barrier-only path (file
    // close) that rewrites the superblock — any earlier crash cascades
    // through the next collective MPI-IO shuffle and kills every rank
    // before a second offset-0 write exists.
    let mut points: Vec<(u32, u64)> = Vec::new();
    for rank in 0..camp.nranks {
        for at_op in 1..=camp.sweep_max_op {
            points.push((rank, at_op));
        }
    }
    obs::info!(
        "FLASH crash sweep: {} crash points ({} ranks x {} ops)",
        points.len(),
        camp.nranks,
        camp.sweep_max_op
    );
    let results = semantics_core::parallel_map_indexed(points.len(), camp.threads, |k| {
        let (rank, at_op) = points[k];
        let plan = FaultPlan::none().with_crash(rank, at_op);
        analyze_isolated(&cfg, spec, &params, &plan)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "FLASH crash sweep: single-rank crash x {} ranks x op 1..={} ({} runs, quick scale)",
        camp.nranks,
        camp.sweep_max_op,
        points.len()
    );
    let _ = writeln!(
        out,
        "  happy path: required {} | commit distinct-process conflicts: {}",
        happy.verdict.required.name(),
        happy_commit_d
    );

    let mut flipped = 0usize;
    let mut unflipped = 0usize;
    let mut failures = 0usize;
    for ((rank, at_op), outcome) in points.iter().zip(&results) {
        match outcome {
            ConfigOutcome::Ok(run) => {
                let commit_d = run.commit.waw_distinct + run.commit.raw_distinct;
                if commit_d > happy_commit_d {
                    flipped += 1;
                    let _ = writeln!(
                        out,
                        "  FLIP crash@r{rank}:op{at_op:<4} commit WAW-D:{} RAW-D:{} | required {}{}",
                        run.commit.waw_distinct,
                        run.commit.raw_distinct,
                        run.verdict.required.name(),
                        run.completeness.label(),
                    );
                } else {
                    unflipped += 1;
                }
            }
            ConfigOutcome::Degraded { error, .. } => {
                failures += 1;
                let _ = writeln!(out, "  DEGRADED crash@r{rank}:op{at_op} {error}");
            }
        }
    }
    let _ = writeln!(
        out,
        "  swept {} crash points: {} flip the commit verdict, {} leave it intact, {} degraded",
        points.len(),
        flipped,
        unflipped,
        failures
    );
    let _ = writeln!(
        out,
        "  crash-before-commit flips FLASH's commit-semantics verdict: {}",
        if flipped > 0 {
            "yes"
        } else {
            "NO (expected yes)"
        }
    );
    (out, flipped > 0)
}

/// Re-derive the happy-path verdicts at campaign scale so the sweep's
/// "unchanged" claim is checked against the same world size, not the
/// 64-rank Table 4 run.
pub fn happy_path_verdicts(camp: &CampaignCfg) -> String {
    let specs = campaign_specs();
    let results = semantics_core::parallel_map_indexed(specs.len(), camp.threads, |k| {
        let cfg = ReportCfg {
            nranks: camp.nranks,
            seed: camp.base_seed,
            ..ReportCfg::default()
        };
        analyze_with_params(&cfg, specs[k], &specs[k].params.quick())
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Happy-path verdicts at campaign scale ({} ranks, quick):",
        camp.nranks
    );
    for run in &results {
        let (ws, wd, rs, rd) = run.session.table4_marks();
        let _ = writeln!(
            out,
            "  {:<22} session WAW-S:{} WAW-D:{} RAW-S:{} RAW-D:{} | required {} | {}",
            run.name(),
            mark(ws),
            mark(wd),
            mark(rs),
            mark(rd),
            run.verdict.required.name(),
            match &run.completeness {
                Completeness::Complete => "complete",
                Completeness::Partial { .. } => "PARTIAL (unexpected)",
            },
        );
    }
    out
}

fn mark(b: bool) -> char {
    if b {
        'x'
    } else {
        '-'
    }
}
