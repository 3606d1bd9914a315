//! # pfssim — a parallel file system simulator with pluggable consistency
//!
//! The paper's applications ran on Lustre (strong POSIX consistency) and the
//! analysis *predicts* which of them would still be correct on PFSs with
//! commit, session, or eventual consistency (§3). This crate substitutes a
//! simulated PFS so those predictions can be both *generated* (it produces
//! POSIX-level operations with correct offset/flag semantics for tracing)
//! and *tested* (each run can execute under any of the four consistency
//! engines, and per-byte write provenance makes stale reads observable).
//!
//! ## Consistency engines (§3 of the paper)
//!
//! * [`SemanticsModel::Strong`] — writes are globally visible on return
//!   (sequential consistency under the happens-before order); every data
//!   operation passes through the extent lock manager, whose traffic
//!   statistics feed the motivation benchmarks.
//! * [`SemanticsModel::Commit`] — writes are buffered per process and become
//!   globally visible when the writer *commits* (`fsync`, `fdatasync`,
//!   `close`, or `laminate`) — the UnifyFS/BurstFS/SymphonyFS model.
//! * [`SemanticsModel::Session`] — writes become visible to processes that
//!   `open` the file *after* the writer `close`d it (close-to-open, the
//!   NFS/Gfarm-BB/IME model). `fsync` persists but does not publish.
//! * [`SemanticsModel::Eventual`] — writes propagate after a configurable
//!   delay regardless of commits (the PLFS/echofs model).
//!
//! Every engine provides read-your-writes for a single process (the paper
//! notes BurstFS as the lone exception).
//!
//! ## Provenance
//!
//! Every written byte carries a [`WriteTag`] (writer rank + global write
//! sequence number). Reads can return the tags they observed, and every
//! client keeps an *observation log*; running the identical deterministic
//! program under two engines and diffing the logs reveals exactly which
//! reads returned stale data — the experiment behind the report's
//! `semantics-matrix`.

mod client;
mod config;
mod engine;
mod error;
mod flags;
mod image;
mod namespace;
mod state;
mod stats;
mod tag;

pub use client::{Observation, PfsClient, ReadOut, StatInfo, WriteOut};
pub use config::{PfsConfig, SemanticsModel};
pub use error::{FsError, FsResult};
pub use flags::{OpenFlags, Whence};
pub use image::FileImage;
pub use namespace::DirEntry;
pub use state::{FileId, Pfs};
pub use stats::PfsStats;
pub use tag::{SegMap, TagRun, WriteTag};
