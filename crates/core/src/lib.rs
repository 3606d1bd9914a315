//! # semantics-core — the paper's analysis algorithms
//!
//! Everything in §3–§5 of *File System Semantics Requirements of HPC
//! Applications* (HPDC '21) lives here:
//!
//! * [`model`] — the consistency-semantics categorization of §3
//!   (strong / commit / session / eventual) and the PFS registry of
//!   Table 1.
//! * [`overlap`] — Algorithm 1: detecting overlapping accesses by a sorted
//!   sweep over `(t, r, os, oe, type)` tuples.
//! * [`conflict`] — §5.2: which overlaps are potential conflicts
//!   (RAW-[S|D] / WAW-[S|D]) under commit and session semantics, using the
//!   per-record `to` (last preceding open) / `tc` (first succeeding
//!   close-or-commit) extension — binary search, with the paper's scan
//!   variant as the test oracle.
//! * [`patterns`] — §4/§6.2: local and global consecutive / monotonic /
//!   random classification (Figure 1) and the high-level X-Y pattern
//!   classification of Table 3.
//! * [`metadata`] — §6.4: the metadata-operation census of Figure 3.
//! * [`hb`] — the §5.2 validation: matched sends/receives and barriers
//!   as one time-ordered edge list, and one forward pass per pair checking
//!   that timestamp-ordered conflicting operations are synchronized.
//! * [`verdict`] — the headline question: the weakest consistency model
//!   under which an application runs correctly.
//!
//! Two engines, chosen by what the input is. A trace **at rest** (a file
//! `tracetool` loads, a trace an example just captured) gets the
//! algorithms above as published: [`conflict::detect_conflicts`],
//! [`patterns::local_pattern`], [`patterns::global_pattern`],
//! [`patterns::classify`], [`hb::validate_conflicts`] — the only batch
//! code, and the reference. A trace **in flight** (anything that runs a
//! simulation) streams through [`incremental::StreamingAnalyzer`], which
//! is held byte-identical to them and shares the paper's definitions.
//!
//! Extensions beyond the paper:
//!
//! * [`apprun`] — the per-run artifact report (§7: function counters, I/O
//!   sizes, conflicts per file).
//! * [`meta_conflict`] — metadata-conflict detection, the paper's stated
//!   future work: cross-process namespace dependencies that
//!   relaxed-metadata PFSs can break.
//! * [`advisor`] — §4.1's practical payoff: propose (and verify) the
//!   `fsync` insertions that make a trace conflict-free under commit
//!   semantics.

pub mod advisor;
pub mod apprun;
pub mod cachekey;
pub mod conflict;
pub mod hb;
pub mod incremental;
pub mod meta_conflict;
pub mod metadata;
pub mod model;
pub mod overlap;
pub mod parallel;
pub mod patterns;
pub mod verdict;

/// The JSON document type lives in `obs` with the workspace's one parser;
/// re-exported so `semantics_core::json::Json` keeps resolving.
pub use obs::json;

pub use cachekey::{CacheKey, CacheKeyBuilder};
pub use conflict::{AnalysisModel, ConflictKind, ConflictPair, ConflictReport, ConflictScope};
pub use incremental::{IncrementalOutput, StreamingAnalyzer};
pub use model::{ConsistencyModel, PfsEntry, PfsRegistry};
pub use overlap::{detect_overlaps, detect_overlaps_bruteforce, FileGroups, OverlapResult};
pub use parallel::parallel_map_indexed;
pub use verdict::{required_model, Completeness, Verdict};
