//! The §6.1 scale-invariance claim: "we ran all applications at two
//! different scales … our results confirmed our expectation, as we found
//! no differences due to scale in the I/O patterns for any application".
//! Re-run a set of configurations at a baseline world size and at each
//! swept one ([`rank_sweep`]), and compare the Table 3 labels and Table 4
//! marks; the scale study is the sweep with one swept size.

use std::fmt::Write as _;

use hpcapps::AppSpec;

use crate::runner::{analyze, ReportCfg};

/// One configuration's verdict stability across the rank sweep: the
/// paper-scale baseline plus one cell per swept rank count.
pub struct RankSweepRow {
    pub config: String,
    pub baseline_ranks: u32,
    pub baseline_label: String,
    pub baseline_marks: (bool, bool, bool, bool),
    /// `(ranks, label, marks, analysis wall seconds)` per swept count.
    pub cells: Vec<(u32, String, (bool, bool, bool, bool), f64)>,
}

impl RankSweepRow {
    /// Whether every swept cell reproduces the baseline verdicts.
    pub fn stable(&self) -> bool {
        self.cells.iter().all(|(_, label, marks, _)| {
            *label == self.baseline_label && *marks == self.baseline_marks
        })
    }
}

/// The §6.1 claim pushed past the paper's own scales: re-run `specs` at
/// each count in `ranks` (the counts the event-loop executor and the
/// streaming analyzer make tractable) and compare Table 3 labels and
/// Table 4 marks against the paper-scale baseline.
pub fn rank_sweep(
    base: &ReportCfg,
    specs: &[&'static AppSpec],
    baseline: u32,
    ranks: &[u32],
) -> Vec<RankSweepRow> {
    specs
        .iter()
        .map(|&spec| {
            let run_at = |nranks: u32| {
                let t = std::time::Instant::now();
                let run = analyze(&ReportCfg { nranks, ..*base }, spec);
                (
                    run.highlevel.label(),
                    run.session.table4_marks(),
                    t.elapsed().as_secs_f64(),
                )
            };
            let (baseline_label, baseline_marks, _) = run_at(baseline);
            let cells = ranks
                .iter()
                .map(|&r| {
                    let (label, marks, secs) = run_at(r);
                    (r, label, marks, secs)
                })
                .collect();
            RankSweepRow {
                config: spec.config_name(),
                baseline_ranks: baseline,
                baseline_label,
                baseline_marks,
                cells,
            }
        })
        .collect()
}

/// Rendered rank sweep.
pub fn rank_sweep_report(rows: &[RankSweepRow], ranks: &[u32]) -> String {
    let mut out = String::new();
    let counts = ranks
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let _ = writeln!(
        out,
        "Rank sweep: verdict stability at {counts} ranks vs the paper-scale baseline"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<22} {}: {} @ {} ranks, marks {:?}",
            row.config,
            if row.stable() { "stable" } else { "DIFFERS" },
            row.baseline_label,
            row.baseline_ranks,
            row.baseline_marks,
        );
        for (r, label, marks, secs) in &row.cells {
            let _ = writeln!(
                out,
                "      {r:>5} ranks → {label} | marks {marks:?} ({secs:.1}s)"
            );
        }
    }
    let all = rows.iter().all(|r| r.stable());
    let _ = writeln!(
        out,
        "  → Table 3 labels and Table 4 marks {} from {} to {} ranks",
        if all { "are stable" } else { "DIFFER" },
        rows.first().map_or(0, |r| r.baseline_ranks),
        ranks.iter().copied().max().unwrap_or(0),
    );
    out
}

/// Rendered scale study: [`rank_sweep`] with `small` as the baseline and
/// `large` as the one swept count.
pub fn scale_study(base: &ReportCfg, specs: &[&'static AppSpec], small: u32, large: u32) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Scale study (§6.1): {small} vs {large} ranks");
    let rows = rank_sweep(base, specs, small, &[large]);
    for row in &rows {
        let (_, large_label, large_marks, _) = &row.cells[0];
        let _ = writeln!(
            out,
            "  {:<22} {}: {} / {} ranks → {} | marks {:?} vs {:?}",
            row.config,
            if row.stable() { "invariant" } else { "DIFFERS" },
            row.baseline_label,
            large,
            large_label,
            row.baseline_marks,
            large_marks,
        );
    }
    let all = rows.iter().all(|r| r.stable());
    let _ = writeln!(
        out,
        "  → patterns and conflict marks {} across scales",
        if all { "are invariant" } else { "DIFFER" }
    );
    out
}
