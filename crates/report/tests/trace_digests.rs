//! Raw simulator output, pinned across commits. One row per registered
//! configuration × fault plan × seed: the FNV-1a 64 digest and byte length
//! of the encoded trace of an 8-rank, quick-scale run. `reports/` pins
//! derived artifacts of clean 64-rank runs only; this pins the trace bytes
//! themselves, faulted runs included, so a scheduler or clock change that
//! moves any timestamp shows up here as a named row.
//!
//! On a mismatch the test prints every row it computed, in the golden's
//! format: if the move is intended, the printed block is the new
//! `golden/trace_digests.txt` (run with `--nocapture`).
//!
//! `golden/per_op_trace_digests.txt` pins the same rows under per-op
//! grants (`WorldCfg::per_op_lockstep`), the schedule `sched_robustness.rs`
//! takes as its reference: `sched_equivalence.rs` compares two executors
//! under one grant policy, so it cannot see a change to that policy.
//!
//! `golden/stream_counters.txt` pins, the same way, what the streaming
//! analyzer counted while a run was in flight — counters that depend on
//! when barrier epochs reach it, which no trace byte records.

use std::sync::Arc;

use hpcapps::{AppSpec, ScaleParams};
use iolibs::{
    run_app_result, ExecModel, FaultKind, FaultPlan, IoFault, RunConfig, RunSink, SinkHandle,
};
use obs::fnv::{fnv1a64, FNV_OFFSET};
use recorder::Record;
use semantics_core::incremental::StreamingAnalyzer;

const NRANKS: u32 = 8;
const SEEDS: [u64; 3] = [7, 8, 9];
/// Fault sites are drawn from op indices `[1, MAX_OP]`, as in the default
/// fault campaign.
const MAX_OP: u64 = 64;

/// The plans of one row group: name, kind and site count (the campaign's
/// counts — one crash, two of every recoverable kind).
fn plans() -> [(&'static str, Option<(FaultKind, usize)>); 5] {
    [
        ("clean", None),
        ("crash", Some((FaultKind::Crash, 1))),
        ("eio", Some((FaultKind::Io(IoFault::Eio), 2))),
        ("lost-flush", Some((FaultKind::Io(IoFault::LostFlush), 2))),
        (
            "msg-delay",
            Some((
                FaultKind::MsgDelay {
                    delay_ns: 2_000_000,
                },
                2,
            )),
        ),
    ]
}

/// The rows of every plan named in `only` (all plans when empty), in
/// golden order, with ranks run under `exec`, granted the turn per
/// operation when `per_op` holds.
fn rows(exec: ExecModel, per_op: bool, only: &[&str]) -> Vec<String> {
    let mut cells = Vec::new();
    for spec in hpcapps::specs() {
        for (plan_name, plan) in plans() {
            if !only.is_empty() && !only.contains(&plan_name) {
                continue;
            }
            for seed in SEEDS {
                cells.push((spec, plan_name, plan, seed));
            }
        }
    }
    semantics_core::parallel_map_indexed(cells.len(), 0, |k| {
        let (spec, plan_name, plan, seed) = cells[k];
        let faults = plan.map_or_else(FaultPlan::none, |(kind, count)| {
            FaultPlan::seeded(seed, NRANKS, kind, count, MAX_OP)
        });
        let mut cfg = RunConfig::new(NRANKS, seed)
            .with_faults(faults)
            .with_label(spec.config_name());
        cfg.world.exec = exec;
        if per_op {
            cfg.world = cfg.world.per_op_lockstep();
        }
        let params = spec.params.quick();
        let cell = match run_app_result(&cfg, |ctx| spec.run_with(ctx, &params)) {
            Ok(out) => {
                let bytes = out.trace.encode();
                let digest = fnv1a64(FNV_OFFSET, &bytes);
                format!("{digest:016x} {:>8}", bytes.len())
            }
            Err(e) => format!("error: {e}"),
        };
        format!("{:<22} {plan_name:<10} {seed} {cell}", spec.config_name())
    })
}

fn golden() -> Vec<&'static str> {
    include_str!("golden/trace_digests.txt").lines().collect()
}

/// Compare computed rows with a golden; on a mismatch print every row, in
/// the golden's format, and fail naming how many moved.
fn assert_golden(what: &str, rows: &[String], golden: &[&str]) {
    if rows != golden {
        for row in rows {
            println!("{row}");
        }
        let moved = rows.iter().zip(golden).filter(|(r, g)| r != g).count();
        panic!(
            "{moved} {what} rows moved ({} computed, {} golden)",
            rows.len(),
            golden.len()
        );
    }
}

#[test]
fn trace_digests_match_golden() {
    let rows = rows(ExecModel::Tasks, false, &[]);
    assert_golden("trace digest", &rows, &golden());
}

#[test]
fn per_op_trace_digests_match_golden() {
    let golden: Vec<&str> = include_str!("golden/per_op_trace_digests.txt")
        .lines()
        .collect();
    let rows = rows(ExecModel::Tasks, true, &[]);
    assert_golden("per-op trace digest", &rows, &golden);
}

struct Analyzer(Arc<StreamingAnalyzer>);

impl RunSink for Analyzer {
    fn push(&self, rank: u32, records: &[Record], frontier: u64) {
        self.0.push(rank, records, frontier);
    }
    fn rank_done(&self, rank: u32) {
        self.0.rank_done(rank);
    }
    fn epoch_released(&self, epoch: u64) {
        self.0.epoch_released(epoch);
    }
    fn assembly_remap(&self, remap: &[u32]) {
        self.0.set_remap(remap);
    }
}

/// Every Table 4 configuration at the paper's scale (64 ranks, seed 2021),
/// then every registered configuration × {crash, msg-delay} × seeds 7/8/9
/// at 8 ranks, quick scale: the streaming analyzer's working-set and pair
/// counters, and its conflict totals under both models.
#[test]
fn stream_counters_match_golden() {
    let mut cells: Vec<(&'static AppSpec, ScaleParams, u32, u64, FaultPlan)> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4)
        .map(|s| (s, s.params, 64, 2021, FaultPlan::none()))
        .collect();
    let faulted: Vec<(FaultKind, usize)> = plans()
        .into_iter()
        .filter(|(name, _)| ["crash", "msg-delay"].contains(name))
        .filter_map(|(_, plan)| plan)
        .collect();
    for spec in hpcapps::specs() {
        for &(kind, count) in &faulted {
            for seed in SEEDS {
                let faults = FaultPlan::seeded(seed, NRANKS, kind, count, MAX_OP);
                cells.push((spec, spec.params.quick(), NRANKS, seed, faults));
            }
        }
    }
    let rows = semantics_core::parallel_map_indexed(cells.len(), 0, |k| {
        let (spec, params, nranks, seed, ref faults) = cells[k];
        let analyzer = Arc::new(StreamingAnalyzer::new(nranks));
        let mut cfg = RunConfig::new(nranks, seed)
            .with_faults(faults.clone())
            .with_label(spec.config_name())
            .with_sink(SinkHandle::new(Arc::new(Analyzer(Arc::clone(&analyzer)))));
        cfg.world.exec = ExecModel::Tasks;
        let cell = match run_app_result(&cfg, |ctx| spec.run_with(ctx, &params)) {
            Ok(_) => {
                let inc = analyzer.finalize();
                format!(
                    "peak={} pairs={} pruned={} session={} commit={}",
                    inc.peak_live_intervals,
                    inc.pairs_checked,
                    inc.pruned_intervals,
                    inc.session.total(),
                    inc.commit.total()
                )
            }
            Err(e) => format!("error: {e}"),
        };
        format!(
            "{:<22} {nranks:>2} {seed:>4} {} {cell}",
            spec.config_name(),
            faults.describe()
        )
    });
    let golden: Vec<&str> = include_str!("golden/stream_counters.txt").lines().collect();
    assert_golden("stream counter", &rows, &golden);
}

/// A crash fires under the turn and a delayed message is taken by the
/// receive that waits for it, so faulted schedules, like clean ones, do not
/// depend on the executor: the thread-per-rank oracle reproduces every
/// crash and message-delay row.
#[test]
fn faulted_rows_are_the_same_under_threads() {
    let golden = golden();
    for row in rows(ExecModel::Threads, false, &["crash", "msg-delay"]) {
        assert!(golden.contains(&row.as_str()), "not in golden: {row}");
    }
}
