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
//! One module, `engine`, decides what open, write, read, fsync and close
//! do under each model; the client resolves a descriptor's model once, at
//! open (`O_LAZY` runs a strong file system's descriptor under commit).
//!
//! | model | a write goes to | what publishes it | a read's base image | locks |
//! |-------|-----------------|-------------------|---------------------|-------|
//! | [`SemanticsModel::Strong`] | the published image | the write itself | the published image | yes; a byte's holder is its last published writer |
//! | [`SemanticsModel::Commit`] | the writer's pending list | `fsync` / `fdatasync` / `msync`, `close` | the published image | no |
//! | [`SemanticsModel::Session`] | the writer's pending list | `close` (`fsync` persists only) | the snapshot taken at open | no |
//! | [`SemanticsModel::Eventual`] | the delay queue | time: [`PfsConfig::eventual_delay_ns`] after the write | the published image | no |
//!
//! Strong is sequential consistency under the happens-before order: every
//! data operation passes through the extent lock manager, whose traffic
//! statistics feed the motivation benchmarks. Commit is the
//! UnifyFS/BurstFS/SymphonyFS model, session (close-to-open) the
//! NFS/Gfarm-BB/IME model, eventual the PLFS/echofs model. Lamination
//! ([`PfsClient::laminate`]) and [`Pfs::quiesce`] publish everything,
//! client by client in creation order.
//!
//! Every engine provides read-your-writes for a single process (the paper
//! notes BurstFS as the lone exception): a process's own buffered writes
//! overlay its base image in write order, through any of its descriptors.
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
pub use tag::{TagRun, WriteTag};
