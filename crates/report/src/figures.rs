//! Figure regeneration: the data series behind Figures 1, 2 and 3.

use std::fmt::Write as _;

use recorder::{AccessKind, Layer, MetaKind};
use semantics_core::patterns::AccessClass;

use crate::runner::AnalyzedRun;

/// Figure 1: low-level access-pattern percentages, global (a) and local
/// (b), one row per configuration.
pub fn fig1(runs: &[AnalyzedRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: low-level access patterns (% consecutive / monotonic / random)"
    );
    let _ = writeln!(
        out,
        "  {:<22} | {:>24} | {:>24}",
        "configuration", "(a) global (PFS view)", "(b) local (per process)"
    );
    for r in runs {
        let g = &r.global;
        let l = &r.local;
        let _ = writeln!(
            out,
            "  {:<22} | {:>6.1} {:>7.1} {:>7.1}  | {:>6.1} {:>7.1} {:>7.1}",
            r.name(),
            g.pct(AccessClass::Consecutive),
            g.pct(AccessClass::Monotonic),
            g.pct(AccessClass::Random),
            l.pct(AccessClass::Consecutive),
            l.pct(AccessClass::Monotonic),
            l.pct(AccessClass::Random),
        );
    }
    out
}

/// Figure 1 as CSV (for plotting).
pub fn fig1_csv(runs: &[AnalyzedRun]) -> String {
    let mut out = String::from(
        "config,global_consecutive,global_monotonic,global_random,local_consecutive,local_monotonic,local_random\n",
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
            r.name(),
            r.global.pct(AccessClass::Consecutive),
            r.global.pct(AccessClass::Monotonic),
            r.global.pct(AccessClass::Random),
            r.local.pct(AccessClass::Consecutive),
            r.local.pct(AccessClass::Monotonic),
            r.local.pct(AccessClass::Random),
        );
    }
    out
}

/// Figure 2: the FLASH write-access detail — CSV series `(panel, rank,
/// t_us, offset, len, origin)` for the checkpoint/plot files of one FLASH
/// run, the data behind the paper's six scatter plots.
///
/// `fbs` selects panels (a,b,c) (collective) vs (d,e,f) (independent).
/// Reads the run's trace: `run` must be analyzed at rest
/// ([`crate::runner::analyze_with_faults`]).
pub fn fig2_csv(run: &AnalyzedRun, fbs: bool) -> String {
    let mode = if fbs { "fbs" } else { "nofbs" };
    let mut out = String::from("panel,rank,t_us,offset,len,kind,origin\n");
    for a in &run.resolved().accesses {
        if a.kind != AccessKind::Write {
            continue;
        }
        // Checkpoint files → panels a/b (or d/e); plot files → panel c.
        // File identity is a PathId; the path table distinguishes
        // chk/plt names.
        let path = run.trace().path(a.file);
        let panel = if path.contains("chk") {
            if fbs {
                "ab"
            } else {
                "de"
            }
        } else if path.contains("plt") {
            "c"
        } else {
            continue;
        };
        let _ = writeln!(
            out,
            "{panel}_{mode},{},{:.1},{},{},write,{}",
            a.rank,
            a.t_start as f64 / 1000.0,
            a.offset,
            a.len,
            a.origin.name(),
        );
    }
    out
}

/// Summary of the Figure 2 phenomena, checked numerically: how many ranks
/// write checkpoint data vs metadata under each mode. `run` must be
/// analyzed at rest, as for [`fig2_csv`].
pub fn fig2_summary(run: &AnalyzedRun, label: &str) -> String {
    let mut data_writers: Vec<u32> = Vec::new();
    let mut meta_writers: Vec<u32> = Vec::new();
    for a in &run.resolved().accesses {
        if a.kind != AccessKind::Write {
            continue;
        }
        let path = run.trace().path(a.file);
        if !path.contains("chk") {
            continue;
        }
        // Metadata writes are the small ones below the HDF5 allocation
        // base; data writes are the large dataset extents.
        if a.len >= 1024 {
            data_writers.push(a.rank);
        } else {
            meta_writers.push(a.rank);
        }
    }
    data_writers.sort_unstable();
    data_writers.dedup();
    meta_writers.sort_unstable();
    meta_writers.dedup();
    format!(
        "Figure 2 [{}]: checkpoint data written by {} rank(s), metadata by {} rank(s)\n",
        label,
        data_writers.len(),
        meta_writers.len()
    )
}

/// Figure 3: the metadata-operation matrix. One row per monitored POSIX
/// op that is used by at least one configuration; cells name the issuing
/// layers.
pub fn fig3(runs: &[AnalyzedRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: metadata operations used (op → per-config layers)"
    );
    for &op in MetaKind::ALL {
        let mut cells: Vec<String> = Vec::new();
        for r in runs {
            let layers = r.census.layers_for(op);
            if !layers.is_empty() {
                let tags: String = layers
                    .iter()
                    .map(|l| match l {
                        Layer::App => "A",
                        Layer::MpiIo | Layer::Mpi => "M",
                        Layer::Hdf5 => "H",
                        Layer::NetCdf => "N",
                        Layer::Adios => "D",
                        Layer::Silo => "S",
                        Layer::Posix => "P",
                    })
                    .collect();
                cells.push(format!("{}:{}", r.name(), tags));
            }
        }
        if !cells.is_empty() {
            let _ = writeln!(out, "  {:<10} {}", op.name(), cells.join(" "));
        }
    }
    let unused: Vec<&str> = MetaKind::ALL
        .iter()
        .filter(|&&op| runs.iter().all(|r| r.census.layers_for(op).is_empty()))
        .map(|op| op.name())
        .collect();
    let _ = writeln!(
        out,
        "  unused by every configuration: {}",
        unused.join(", ")
    );
    out
}

/// Figure 3 as CSV: `config,op,layer,count`.
pub fn fig3_csv(runs: &[AnalyzedRun]) -> String {
    let mut out = String::from("config,op,layer,count\n");
    for r in runs {
        for (op, by_layer) in &r.census.counts {
            for (layer, n) in by_layer {
                let _ = writeln!(out, "{},{},{},{}", r.name(), op.name(), layer.name(), n);
            }
        }
    }
    out
}
