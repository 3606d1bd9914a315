//! The per-run detailed report.
//!
//! The paper's published artifact includes "a detailed report for each
//! application run, including information such as I/O sizes, function
//! counters, conflicts detected for each file" (§7). This module builds
//! that report from a trace: global statistics, then a per-file breakdown
//! of accesses, patterns, and conflicts under both relaxed models.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use recorder::stats::TraceStats;
use recorder::{offset, AccessKind, PathId, TraceSet};

use crate::conflict::{detect_conflicts, AnalysisModel, ConflictKind, ConflictScope};
use crate::patterns::lowlevel::{classify_stream, PatternStats};
use crate::verdict::{required_model, Verdict};

/// Per-file digest of accesses and conflicts.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    pub path: String,
    pub readers: Vec<u32>,
    pub writers: Vec<u32>,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Local (per-rank stream) pattern statistics for this file.
    pub local: PatternStats,
    /// Conflict pair counts under session semantics:
    /// (WAW-S, WAW-D, RAW-S, RAW-D).
    pub session_conflicts: (u64, u64, u64, u64),
    /// Same under commit semantics.
    pub commit_conflicts: (u64, u64, u64, u64),
}

/// The full per-run report.
#[derive(Debug, Clone)]
pub struct AppRunReport {
    pub stats: TraceStats,
    pub files: Vec<FileReport>,
    pub verdict: Verdict,
    pub seek_mismatches: u64,
}

/// Build the detailed report for one (adjusted) trace.
pub fn build(trace: &TraceSet) -> AppRunReport {
    let resolved = offset::resolve(trace);
    let stats = TraceStats::from_trace(trace);
    let session = detect_conflicts(&resolved, AnalysisModel::Session);
    let commit = detect_conflicts(&resolved, AnalysisModel::Commit);
    let verdict = required_model(&session, &commit);

    let mut files: BTreeMap<PathId, FileReport> = BTreeMap::new();
    let mut streams: BTreeMap<(PathId, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for a in &resolved.accesses {
        let f = files.entry(a.file).or_insert_with(|| FileReport {
            path: trace.path(a.file).to_string(),
            ..Default::default()
        });
        match a.kind {
            AccessKind::Read => {
                f.bytes_read += a.len;
                if !f.readers.contains(&a.rank) {
                    f.readers.push(a.rank);
                }
            }
            AccessKind::Write => {
                f.bytes_written += a.len;
                if !f.writers.contains(&a.rank) {
                    f.writers.push(a.rank);
                }
            }
        }
        streams
            .entry((a.file, a.rank))
            .or_default()
            .push((a.offset, a.len));
    }
    for ((file, _), stream) in streams {
        if let Some(f) = files.get_mut(&file) {
            f.local.merge(&classify_stream(stream));
        }
    }
    for (report, model) in [(&session, 0usize), (&commit, 1usize)] {
        for p in &report.pairs {
            let Some(f) = files.get_mut(&p.file) else {
                continue;
            };
            let slot = match model {
                0 => &mut f.session_conflicts,
                _ => &mut f.commit_conflicts,
            };
            match (p.kind, p.scope) {
                (ConflictKind::Waw, ConflictScope::Same) => slot.0 += 1,
                (ConflictKind::Waw, ConflictScope::Distinct) => slot.1 += 1,
                (ConflictKind::Raw, ConflictScope::Same) => slot.2 += 1,
                (ConflictKind::Raw, ConflictScope::Distinct) => slot.3 += 1,
            }
        }
    }
    let mut files: Vec<FileReport> = files.into_values().collect();
    files.iter_mut().for_each(|f| {
        f.readers.sort_unstable();
        f.writers.sort_unstable();
    });
    files.sort_by(|a, b| a.path.cmp(&b.path));
    AppRunReport {
        stats,
        files,
        verdict,
        seek_mismatches: resolved.seek_mismatches,
    }
}

impl AppRunReport {
    /// Render as the artifact-style text report.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== run report: {title} ===");
        let _ = writeln!(
            out,
            "records: {} | files: {} | bytes written: {} | bytes read: {}",
            self.stats.total_records(),
            self.files.len(),
            self.stats.bytes_written,
            self.stats.bytes_read,
        );
        let _ = writeln!(
            out,
            "small writes (<4KiB): {:.1}% | seek mismatches: {}",
            100.0 * self.stats.small_write_fraction(4096),
            self.seek_mismatches
        );
        let _ = writeln!(out, "function counters:");
        for (name, n) in &self.stats.function_counters {
            let _ = writeln!(out, "  {name:<22} {n}");
        }
        let _ = writeln!(out, "per-file breakdown:");
        for f in &self.files {
            let _ = writeln!(
                out,
                "  {:<40} writers:{:<3} readers:{:<3} W:{:<9} R:{:<9}",
                f.path,
                f.writers.len(),
                f.readers.len(),
                f.bytes_written,
                f.bytes_read,
            );
            let (ws, wd, rs, rd) = f.session_conflicts;
            if ws + wd + rs + rd > 0 {
                let (cws, cwd, crs, crd) = f.commit_conflicts;
                let _ = writeln!(
                    out,
                    "    conflicts session WAW-S:{ws} WAW-D:{wd} RAW-S:{rs} RAW-D:{rd} | commit WAW-S:{cws} WAW-D:{cwd} RAW-S:{crs} RAW-D:{crd}"
                );
            }
        }
        let _ = writeln!(
            out,
            "verdict: weakest sufficient model = {} (strict: {}, same-process conflicts: {})",
            self.verdict.required.name(),
            self.verdict.required_strict.name(),
            self.verdict.same_process_conflicts,
        );
        out
    }

    /// Files that have any conflict under session semantics.
    pub fn conflicting_files(&self) -> Vec<&FileReport> {
        self.files
            .iter()
            .filter(|f| {
                let (a, b, c, d) = f.session_conflicts;
                a + b + c + d > 0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{Func, Layer, Record, SeekWhence};

    const F: PathId = PathId(0);

    fn posix(rank: u32, t: u64, func: Func) -> Record {
        Record {
            t_start: t,
            t_end: t + 1,
            rank,
            layer: Layer::Posix,
            origin: Layer::App,
            func,
        }
    }

    fn trace() -> TraceSet {
        let flags = 0b111; // read|write|create
        TraceSet {
            paths: vec!["/x".into()],
            ranks: vec![vec![
                posix(
                    0,
                    0,
                    Func::Open {
                        path: F,
                        flags,
                        fd: 3,
                    },
                ),
                posix(0, 1, Func::Write { fd: 3, count: 100 }),
                posix(
                    0,
                    2,
                    Func::Lseek {
                        fd: 3,
                        offset: 0,
                        whence: SeekWhence::Set,
                        ret: 0,
                    },
                ),
                posix(0, 3, Func::Write { fd: 3, count: 100 }), // WAW-S
                posix(
                    0,
                    4,
                    Func::Read {
                        fd: 3,
                        count: 50,
                        ret: 50,
                    },
                ), // cursor at 100
                posix(0, 5, Func::Close { fd: 3 }),
            ]],
            skews_ns: vec![0],
        }
    }

    #[test]
    fn per_file_conflicts_and_counters() {
        let r = build(&trace());
        assert_eq!(r.files.len(), 1);
        let f = &r.files[0];
        assert_eq!(f.path, "/x");
        assert_eq!(f.writers, vec![0]);
        assert_eq!(f.readers, vec![0]);
        assert_eq!(f.bytes_written, 200);
        assert_eq!(f.bytes_read, 50);
        let (ws, wd, rs, rd) = f.session_conflicts;
        assert_eq!((ws, wd, rs, rd), (1, 0, 0, 0));
        assert_eq!(r.stats.calls("write"), 2);
        assert_eq!(r.conflicting_files().len(), 1);
        assert!(r.verdict.same_process_conflicts);
        let text = r.render("unit");
        assert!(text.contains("/x"));
        assert!(text.contains("WAW-S:1"));
    }
}
