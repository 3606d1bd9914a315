//! # report-gen — regenerating the paper's tables and figures
//!
//! One module per experiment, all driven by [`runner`], which executes an
//! application replica through the simulated stack with the streaming
//! analyzer attached (resolve → conflicts → patterns → census →
//! happens-before while the run is in flight; then the verdict). The
//! readers of a trace run without one instead: the run records its trace,
//! and the at-rest pipeline analyzes it afterwards
//! ([`runner::analyze_with_faults`]).
//!
//! | Paper artifact | Module / function |
//! |---|---|
//! | Table 1 (PFS categorization) | [`tables::table1`] |
//! | Table 2 (build configurations) | [`tables::table2`] |
//! | Table 3 (high-level patterns) | [`tables::table3`] |
//! | Table 4 (session conflicts) | [`tables::table4`] |
//! | Table 5 (application configs) | [`tables::table5`] |
//! | Figure 1 (low-level pattern %) | [`figures::fig1`] |
//! | Figure 2 (FLASH access detail) | [`figures::fig2_csv`] |
//! | Figure 3 (metadata census) | [`figures::fig3`] |
//! | §5.2 validation | [`hbval::validate`] |
//! | §6.1 scale invariance | [`scale::scale_study`] |
//! | §6.3 FLASH fixes | [`tables::flash_fix`] |
//! | semantics-matrix (extension) | [`matrix::semantics_matrix`] |
//! | fault campaign (extension) | [`faultcamp::campaign`] / [`faultcamp::flash_crash_sweep`] |
//!
//! The command line is [`cli`] (the grammar types and the one parser) and
//! [`cmd`] (the `report` binary's grammar table and its commands).

pub mod cli;
pub mod cmd;
pub mod faultcamp;
pub mod figures;
pub mod hbval;
pub mod json;
pub mod matrix;
pub mod runner;
pub mod scale;
pub mod serve_backend;
pub mod tables;

pub use serve_backend::ReportBackend;

pub use runner::{
    analyze, analyze_all_isolated, analyze_all_threaded, analyze_at_rest, analyze_incremental,
    analyze_isolated, analyze_with_faults, analyze_with_params, isolated, AnalyzedRun,
    ConfigOutcome, ReportCfg,
};
