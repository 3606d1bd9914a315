//! Combining traces of multiple *jobs* into one analyzable trace — the
//! substrate for workflow analysis (§7 lists "complex HPC workflows
//! consisting of multiple applications" as future work).
//!
//! Jobs run one after another against the same file system but share no
//! MPI world: rank `r` of job `j` becomes global rank `j·nranks + r`,
//! timestamps are shifted so jobs do not overlap in time, and MPI
//! identifiers (message sequence numbers, barrier epochs) are disambiguated
//! per job so no spurious cross-job happens-before edges appear — the
//! whole point of workflow analysis is that there are none.

use crate::record::{Func, PathId};
use crate::traceset::{Interner, TraceSet};

/// Disambiguation stride for per-job MPI identifiers.
const JOB_ID_STRIDE: u64 = 1 << 48;

/// Merge job traces that are already on one absolute timeline (workflow
/// stages with chained clocks): ranks, paths, and MPI identifiers are
/// remapped, timestamps are left untouched.
pub fn merge_jobs(jobs: &[TraceSet]) -> TraceSet {
    let mut interner = Interner::new();
    let mut ranks = Vec::new();
    let mut skews = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let remap: Vec<PathId> = job.paths.iter().map(|p| interner.intern(p)).collect();
        let rank_offset = ranks.len() as u32;
        for records in &job.ranks {
            let mut out = Vec::with_capacity(records.len());
            for rec in records {
                let mut r = *rec;
                r.rank += rank_offset;
                remap_ids(&mut r.func, &remap, rank_offset, j as u64);
                out.push(r);
            }
            ranks.push(out);
        }
        skews.extend_from_slice(&job.skews_ns);
    }
    TraceSet {
        paths: interner.into_names(),
        ranks,
        skews_ns: skews,
    }
}

/// Combine job traces into a single trace. `gap_ns` is the simulated
/// scheduler gap inserted between consecutive jobs.
pub fn combine_jobs(jobs: &[TraceSet], gap_ns: u64) -> TraceSet {
    let mut interner = Interner::new();
    let mut ranks = Vec::new();
    let mut skews = Vec::new();
    let mut time_offset = 0u64;

    for (j, job) in jobs.iter().enumerate() {
        // Path remapping into the merged table.
        let remap: Vec<PathId> = job.paths.iter().map(|p| interner.intern(p)).collect();
        let rank_offset = ranks.len() as u32;
        let mut job_end = 0u64;
        for records in &job.ranks {
            let mut out = Vec::with_capacity(records.len());
            for rec in records {
                let mut r = *rec;
                r.t_start += time_offset;
                r.t_end += time_offset;
                r.rank += rank_offset;
                remap_ids(&mut r.func, &remap, rank_offset, j as u64);
                job_end = job_end.max(r.t_end);
                out.push(r);
            }
            ranks.push(out);
        }
        skews.extend_from_slice(&job.skews_ns);
        time_offset = job_end + gap_ns;
    }

    TraceSet {
        paths: interner.into_names(),
        ranks,
        skews_ns: skews,
    }
}

/// Move one call of job `job` into the combined trace: its paths into the
/// merged table, its peers and MPI identifiers into the job's own range.
fn remap_ids(func: &mut Func, paths: &[PathId], rank_offset: u32, job: u64) {
    func.for_each_path_mut(|p| *p = paths[p.0 as usize]);
    match func {
        Func::MpiSend { dst, seq, .. } => {
            *dst += rank_offset;
            *seq += job * JOB_ID_STRIDE;
        }
        Func::MpiRecv { src, seq, .. } => {
            *src += rank_offset;
            *seq += job * JOB_ID_STRIDE;
        }
        Func::MpiBarrier { epoch } => *epoch += job * JOB_ID_STRIDE,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Layer, Record};

    fn job(paths: Vec<&str>, records: Vec<Record>) -> TraceSet {
        let nranks = records.iter().map(|r| r.rank + 1).max().unwrap_or(1) as usize;
        let mut ranks = vec![Vec::new(); nranks];
        for r in records {
            ranks[r.rank as usize].push(r);
        }
        TraceSet {
            paths: paths.into_iter().map(String::from).collect(),
            ranks,
            skews_ns: vec![0; nranks],
        }
    }

    fn rec(rank: u32, t: u64, func: Func) -> Record {
        Record {
            t_start: t,
            t_end: t + 10,
            rank,
            layer: Layer::Posix,
            origin: Layer::App,
            func,
        }
    }

    #[test]
    fn ranks_times_and_paths_are_remapped() {
        let a = job(
            vec!["/shared", "/a_only"],
            vec![
                rec(
                    0,
                    100,
                    Func::Open {
                        path: PathId(0),
                        flags: 7,
                        fd: 3,
                    },
                ),
                rec(
                    1,
                    200,
                    Func::Open {
                        path: PathId(1),
                        flags: 1,
                        fd: 3,
                    },
                ),
            ],
        );
        let b = job(
            vec!["/b_only", "/shared"],
            vec![rec(
                0,
                50,
                Func::Open {
                    path: PathId(1),
                    flags: 1,
                    fd: 4,
                },
            )],
        );
        let c = combine_jobs(&[a, b], 1000);
        assert_eq!(c.nranks(), 3);
        // Job B's rank 0 is global rank 2, shifted past job A's end (210)
        // plus the gap.
        let rec_b = &c.ranks[2][0];
        assert_eq!(rec_b.rank, 2);
        assert_eq!(rec_b.t_start, 210 + 1000 + 50);
        // "/shared" resolves to the same id in both jobs.
        let shared = c.path_id("/shared").unwrap();
        let Func::Open { path: pa, .. } = c.ranks[0][0].func else {
            panic!()
        };
        let Func::Open { path: pb, .. } = rec_b.func else {
            panic!()
        };
        assert_eq!(pa, shared);
        assert_eq!(pb, shared);
        assert!(c.path_id("/a_only").is_some());
        assert!(c.path_id("/b_only").is_some());
    }

    #[test]
    fn mpi_identifiers_do_not_collide_across_jobs() {
        let mk = |seq| {
            job(
                vec![],
                vec![
                    rec(
                        0,
                        1,
                        Func::MpiSend {
                            dst: 1,
                            tag: 0,
                            seq,
                        },
                    ),
                    rec(
                        1,
                        2,
                        Func::MpiRecv {
                            src: 0,
                            tag: 0,
                            seq,
                        },
                    ),
                    rec(0, 3, Func::MpiBarrier { epoch: 0 }),
                    rec(1, 3, Func::MpiBarrier { epoch: 0 }),
                ],
            )
        };
        let c = combine_jobs(&[mk(7), mk(7)], 10);
        let mut seqs = Vec::new();
        let mut epochs = Vec::new();
        for r in c.ranks.iter().flatten() {
            match r.func {
                Func::MpiSend { seq, dst, .. } => {
                    seqs.push(seq);
                    assert!(dst < 4);
                }
                Func::MpiBarrier { epoch } => epochs.push(epoch),
                _ => {}
            }
        }
        seqs.dedup();
        assert_eq!(seqs.len(), 2, "same seq in two jobs must stay distinct");
        epochs.sort_unstable();
        epochs.dedup();
        assert_eq!(epochs.len(), 2, "barrier epochs must not merge across jobs");
    }

    #[test]
    fn empty_input() {
        let c = combine_jobs(&[], 10);
        assert_eq!(c.nranks(), 0);
        assert_eq!(c.total_records(), 0);
    }
}
