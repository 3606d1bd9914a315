//! The semantics-matrix experiment (beyond the paper): *execute* every
//! configuration under each consistency engine and observe — via per-byte
//! write provenance — whether any read actually returned stale data.
//!
//! The deterministic scheduler guarantees the identical operation sequence
//! under every engine (application control flow does not depend on read
//! contents), so diffing each rank's read-observation log against the
//! strong-consistency run reveals exactly the reads the weaker engine
//! changed. This turns the paper's *static* prediction (Table 4 +
//! §3-categorization) into a *dynamic* check; the prediction is drawn at
//! rest from the strong run's own trace.

use std::fmt::Write as _;

use hpcapps::AppSpec;
use iolibs::{run_app, RunConfig, RunOutcome};
use pfssim::{Observation, SemanticsModel};

use crate::runner::ReportCfg;

/// Outcome of one (configuration, engine) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCell {
    pub engine: SemanticsModel,
    /// Reads whose provenance differed from the strong-consistency run.
    pub stale_reads: u64,
    /// Total reads compared.
    pub total_reads: u64,
    /// Files whose final (quiesced) provenance differs from the strong
    /// run — the footprint of WAW misordering, which reads alone cannot
    /// reveal.
    pub diverged_files: u64,
}

/// One configuration's row.
pub struct MatrixRow {
    pub config: String,
    pub cells: Vec<MatrixCell>,
    /// The static verdict's prediction of the weakest safe model.
    pub predicted: semantics_core::ConsistencyModel,
}

/// The run (its trace and per-rank observation logs) plus a digest of
/// every file's final (quiesced) contents + provenance.
fn execute(
    cfg: &ReportCfg,
    spec: &AppSpec,
    model: SemanticsModel,
) -> (RunOutcome, Vec<(String, u64)>) {
    let run_cfg = RunConfig::new(cfg.nranks, cfg.seed)
        .with_max_skew_ns(cfg.max_skew_ns)
        .with_semantics(model);
    let out = run_app(&run_cfg, |ctx| spec.run(ctx));
    // run_app already quiesced the file system.
    let images: Vec<(String, u64)> = out
        .pfs
        .list_files()
        .into_iter()
        .map(|path| {
            let img = out.pfs.published_image(&path).expect("listed file exists");
            let size = img.size();
            (path, img.digest(0, size) ^ size.rotate_left(17))
        })
        .collect();
    (out, images)
}

fn diff(strong: &[Vec<Observation>], other: &[Vec<Observation>]) -> (u64, u64) {
    let mut stale = 0u64;
    let mut total = 0u64;
    for (s_rank, o_rank) in strong.iter().zip(other) {
        // Read counts can genuinely differ: a read-until-EOF loop ends
        // early when the engine has not propagated the writer's data yet
        // (eventual consistency). Every unmatched read counts as stale.
        for (s, o) in s_rank.iter().zip(o_rank) {
            total += 1;
            if (s.offset, s.len) != (o.offset, o.len) || s.digest != o.digest {
                stale += 1;
            }
        }
        let missing = s_rank.len().abs_diff(o_rank.len()) as u64;
        total += missing;
        stale += missing;
    }
    (stale, total)
}

/// Run one configuration under every engine and diff against strong.
pub fn semantics_matrix_row(cfg: &ReportCfg, spec: &'static AppSpec) -> MatrixRow {
    let (strong, strong_imgs) = execute(cfg, spec, SemanticsModel::Strong);
    let mut cells = Vec::new();
    for model in [
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ] {
        let (out, imgs) = execute(cfg, spec, model);
        let (stale_reads, total_reads) = diff(&strong.observations, &out.observations);
        assert_eq!(
            strong_imgs.len(),
            imgs.len(),
            "same file set under every engine"
        );
        let diverged_files = strong_imgs
            .iter()
            .zip(&imgs)
            .filter(|((p1, d1), (p2, d2))| {
                debug_assert_eq!(p1, p2);
                d1 != d2
            })
            .count() as u64;
        cells.push(MatrixCell {
            engine: model,
            stale_reads,
            total_reads,
            diverged_files,
        });
    }
    // Static prediction: the strong run is the one the verdict pipelines
    // simulate, so its trace is analyzed at rest.
    MatrixRow {
        config: spec.config_name(),
        cells,
        predicted: crate::runner::analyze_at_rest(spec, strong)
            .verdict
            .required,
    }
}

/// The whole matrix, rendered.
pub fn semantics_matrix(cfg: &ReportCfg, specs: &[&'static AppSpec]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Semantics matrix ({} ranks): stale reads observed when actually executing on each engine",
        cfg.nranks
    );
    let _ = writeln!(
        out,
        "  {:<22} | {:>14} | {:>14} | {:>14} | predicted weakest safe",
        "configuration", "commit", "session", "eventual"
    );
    for &spec in specs {
        let row = semantics_matrix_row(cfg, spec);
        let cell =
            |c: &MatrixCell| format!("{}/{} f:{}", c.stale_reads, c.total_reads, c.diverged_files);
        let _ = writeln!(
            out,
            "  {:<22} | {:>14} | {:>14} | {:>14} | {}",
            row.config,
            cell(&row.cells[0]),
            cell(&row.cells[1]),
            cell(&row.cells[2]),
            row.predicted.name(),
        );
    }
    let _ = writeln!(
        out,
        "  (stale/total reads vs strong; f: = files whose final bytes/provenance diverged)"
    );
    out
}
