//! # iolibs — behavioural models of the HPC I/O library stack
//!
//! The paper's applications perform I/O "using the POSIX API and a variety
//! of I/O libraries: MPI-IO, HDF5, Silo, NetCDF or ADIOS2" (§6.1), and many
//! of its findings are about behaviour those libraries *introduce*: HDF5
//! metadata interspersed with data causing random accesses (§6.2.1), MPI-IO
//! collective aggregation reducing the number of PFS writers (§6.2.2), the
//! ADIOS `md.idx` single-byte overwrite causing a WAW conflict (§6.3), HDF5
//! `H5Fflush` causing FLASH's cross-process WAW (§6.3).
//!
//! This crate models each library's *I/O footprint* — the POSIX calls it
//! issues on behalf of the application, in which order, from which ranks —
//! on top of:
//!
//! * [`mpisim`] for rank scheduling, simulated time and communication,
//! * [`pfssim`] for file contents and consistency behaviour,
//! * [`recorder`] for the multi-level trace.
//!
//! [`AppCtx`] bundles all three per rank and is what application replicas
//! program against; [`run_app`] executes an SPMD closure on every rank and
//! assembles the [`recorder::TraceSet`].

pub mod adios;
mod harness;
pub mod hdf5;
pub mod mpiio;
pub mod netcdf;
pub mod silo;
pub mod sink;

pub use adios::AdiosWriter;
pub use harness::{
    run_app, run_app_result, run_pipeline, AppCtx, Fd, OrFailStop, PipelineOutcome, RunConfig,
    RunOutcome,
};
pub use hdf5::{H5File, H5Opts};
pub use mpiio::{MpiFile, MpiIoHints};
pub use mpisim::{
    ExecModel, FaultKind, FaultPlan, FaultSite, IoFault, SimError, DEFAULT_MAX_SKEW_NS, MAX_RANKS,
};
pub use netcdf::NcFile;
pub use silo::{SiloFile, SiloOpts};
pub use sink::{RunSink, SinkHandle};
