//! Text renderings of the paper's tables, paper-expected vs measured.

use std::fmt::Write as _;

use semantics_core::{ConsistencyModel, PfsRegistry};

use crate::runner::AnalyzedRun;

fn mark(b: bool) -> &'static str {
    if b {
        "x"
    } else {
        " "
    }
}

/// Table 1: HPC file systems and their consistency semantics (static
/// registry).
pub fn table1() -> String {
    let reg = PfsRegistry::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: HPC file systems and their consistency semantics"
    );
    for model in ConsistencyModel::ALL {
        let names: Vec<&str> = reg.by_model(model).iter().map(|e| e.name).collect();
        let _ = writeln!(
            out,
            "  {:>8} consistency | {}",
            model.name(),
            names.join(", ")
        );
    }
    out
}

/// Table 2: build and link configurations (provenance of the original
/// study; reproduced verbatim as metadata).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: build and link configurations of the original study"
    );
    let rows = [
        (
            "ENZO, NWChem, GAMESS, LAMMPS, QMCPACK, Nek5000, GTC, MILC-QCD, HACC-IO, VPIC-IO",
            "Intel 19.1.0",
            "Intel MPI 2018",
            "HDF5 1.12.0",
        ),
        ("pF3D-IO, VASP", "Intel 18.0.1", "MVAPICH 2.2", "-"),
        ("LBANN", "GCC 7.3.0", "MVAPICH 2.3", "HDF5 1.10.5"),
        (
            "ParaDiS, Chombo, FLASH, MACSio",
            "Intel 19.1.0",
            "Intel MPI 2018",
            "HDF5 1.8.20",
        ),
    ];
    for (apps, cc, mpi, hdf5) in rows {
        let _ = writeln!(out, "  {cc:<13} {mpi:<15} {hdf5:<12} | {apps}");
    }
    let _ = writeln!(
        out,
        "  (other I/O libraries: ADIOS 2.5.0, NetCDF 4.3.3.1, Silo 4.10.2; here: simulated models)"
    );
    out
}

/// Table 3: high-level access patterns — paper-expected vs measured.
pub fn table3(runs: &[AnalyzedRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: high-level access patterns ({} ranks)\n  {:<22} {:<22} {:<22} ok",
        runs.first().map_or(0, |r| r.nranks),
        "configuration",
        "paper",
        "measured"
    );
    for r in runs {
        let measured = r.highlevel.label();
        let ok = if measured == r.spec.expected_table3 {
            "="
        } else {
            "!"
        };
        let _ = writeln!(
            out,
            "  {:<22} {:<22} {:<22} {}",
            r.name(),
            r.spec.expected_table3,
            measured,
            ok
        );
    }
    out
}

/// Table 4: conflicts under session semantics (and the commit-semantics
/// comparison of §6.3) — paper-expected vs measured.
pub fn table4(runs: &[AnalyzedRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: conflicts with session semantics ({} ranks)",
        runs.first().map_or(0, |r| r.nranks)
    );
    let _ = writeln!(
        out,
        "  {:<22} | paper WAW S D RAW S D | meas WAW S D RAW S D | commit | required",
        "configuration"
    );
    for r in runs.iter().filter(|r| r.spec.in_table4) {
        let e = r.spec.expected_session;
        let (ws, wd, rs, rd) = r.session.table4_marks();
        let commit_total = r.commit.total();
        let _ = writeln!(
            out,
            "  {:<22} |       {}   {}     {}   {} |      {}   {}     {}   {} | {:>6} | {}",
            r.name(),
            mark(e.waw_s),
            mark(e.waw_d),
            mark(e.raw_s),
            mark(e.raw_d),
            mark(ws),
            mark(wd),
            mark(rs),
            mark(rd),
            commit_total,
            r.verdict.required.name(),
        );
    }
    let weaker_ok: Vec<&AnalyzedRun> = runs
        .iter()
        .filter(|r| r.spec.in_table4 && r.session.has_distinct_process_conflicts())
        .collect();
    let _ = writeln!(
        out,
        "  → configurations with distinct-process conflicts under session semantics: {}",
        weaker_ok
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    out
}

/// Table 5: application configurations (registry descriptions).
pub fn table5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: applications and configurations");
    for s in hpcapps::all_specs() {
        let _ = writeln!(
            out,
            "  {:<22} [{:<6}] {}",
            s.config_name(),
            s.iolib,
            s.table5
        );
    }
    out
}

/// §6.3: the two one-line FLASH fixes, shown by re-running the fixed
/// variants.
pub fn flash_fix<R: std::borrow::Borrow<AnalyzedRun>>(runs: &[R]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "FLASH fixes (§6.3): conflicts under session semantics");
    for r in runs {
        let r = r.borrow();
        let (ws, wd, rs, rd) = r.session.table4_marks();
        let _ = writeln!(
            out,
            "  {:<22} WAW-S:{} WAW-D:{} RAW-S:{} RAW-D:{}  (pairs: {}, required: {})",
            r.name(),
            mark(ws),
            mark(wd),
            mark(rs),
            mark(rd),
            r.session.total(),
            r.verdict.required.name(),
        );
    }
    let _ = writeln!(
        out,
        "  → both fixes eliminate the cross-process WAW; the application then runs on any\n    session-consistency PFS (same-process pairs permitting)."
    );
    out
}
