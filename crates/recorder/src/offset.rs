//! Offset resolution (§5.1 of the paper).
//!
//! "Calculating the offset of an I/O operation is not always
//! straightforward. For functions like `pwrite`, the offset and length are
//! included in the arguments of the call, but for functions like `write`,
//! the offset is not specified, but depends on previous accesses to the
//! file. Therefore, the algorithm tracks the most up-to-date offset for
//! each file."
//!
//! This pass walks all POSIX records of a trace in (adjusted) global time
//! order, maintains a cursor per `(rank, fd)` and a size per file, and
//! produces:
//!
//! * [`DataAccess`] tuples — the `(t, r, os, oe, type)` records Algorithm 1
//!   and the conflict detector consume, and
//! * [`SyncEvent`]s — the per-process open / close / commit times that the
//!   commit- and session-semantics conflict conditions (§5.2, conditions 3
//!   and 4) query.

use crate::record::{Func, IdMap, Layer, PathId, Record, SeekWhence};
use crate::traceset::TraceSet;

/// Open-flag bit assignments, matching `pfssim::OpenFlags::to_bits` (the
/// tracer records that encoding; validated by cross-crate tests).
pub mod flag_bits {
    pub const READ: u32 = 1;
    pub const WRITE: u32 = 1 << 1;
    pub const CREATE: u32 = 1 << 2;
    pub const TRUNC: u32 = 1 << 3;
    pub const APPEND: u32 = 1 << 4;
    pub const EXCL: u32 = 1 << 5;
}

/// Read or write, the `type` of the paper's record tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// One resolved data access: the paper's `(t, r, os, oe, type)` tuple plus
/// provenance details. `oe` is exclusive (`offset + len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    pub rank: u32,
    pub t_start: u64,
    pub t_end: u64,
    pub file: PathId,
    pub offset: u64,
    pub len: u64,
    pub kind: AccessKind,
    /// The layer whose code issued the POSIX call.
    pub origin: Layer,
    pub fd: u32,
}

impl DataAccess {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Synchronization-relevant events per process and file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// `open` — starts a session.
    Open,
    /// `close` — ends a session *and* acts as a commit (footnote 2 of the
    /// paper counts `close` among the commit operations).
    Close,
    /// `fsync` / `fdatasync` — a commit.
    Commit,
}

/// One open/close/commit with its (adjusted) timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEvent {
    pub rank: u32,
    pub t: u64,
    pub file: PathId,
    pub kind: SyncKind,
}

/// The output of offset resolution over a whole trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedTrace {
    /// All data accesses, in global (adjusted) time order.
    pub accesses: Vec<DataAccess>,
    /// All sync events, in global time order.
    pub syncs: Vec<SyncEvent>,
    /// `lseek` records whose whence-derived cursor disagreed with the
    /// recorded return value. Non-zero means the pure §5.1 resolution could
    /// not reconstruct some seek (e.g. `SEEK_END` racing buffered writers);
    /// the recorded return value wins in that case.
    pub seek_mismatches: u64,
    /// Reads whose cursor-derived length had to be taken from the recorded
    /// return value (EOF clamping).
    pub short_reads: u64,
}

#[derive(Debug, Clone, Copy)]
struct FdState {
    file: PathId,
    cursor: u64,
    flags: u32,
}

/// Resolve offsets for every POSIX data access in `trace`. The trace should
/// already be barrier-adjusted (see [`crate::adjust`]); resolution walks
/// records in global `t_start` order, which is exactly the paper's "track
/// the most up-to-date offset for each file".
pub fn resolve(trace: &TraceSet) -> ResolvedTrace {
    let mut r = StreamResolver::new();
    for rec in trace.merged_by_time() {
        r.push(&rec);
    }
    r.finish()
}

/// Incremental offset resolution: the exact per-record step function of
/// [`resolve`], packaged so records can be fed one at a time as a run
/// streams them out. Feeding the records of a trace in `(t_start, rank)`
/// order (the [`TraceSet::merged_by_time`] order) produces a
/// [`ResolvedTrace`] identical to `resolve`'s — both call the same step on
/// the same sequence.
#[derive(Debug, Default)]
pub struct StreamResolver {
    fds: IdMap<(u32, u32), FdState>,
    sizes: IdMap<PathId, u64>,
    out: ResolvedTrace,
}

impl StreamResolver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next record in global `(t_start, rank)` order. Non-POSIX
    /// records are ignored, as in the batch pass.
    pub fn push(&mut self, rec: &Record) {
        resolve_record(rec, &mut self.fds, &mut self.sizes, &mut self.out);
    }

    /// Everything resolved so far. New entries are appended to
    /// `accesses`/`syncs` as records are pushed, so a consumer can track
    /// its own high-water mark and process only the suffix.
    pub fn resolved(&self) -> &ResolvedTrace {
        &self.out
    }

    pub fn finish(self) -> ResolvedTrace {
        self.out
    }
}

fn resolve_record(
    rec: &Record,
    fds: &mut IdMap<(u32, u32), FdState>,
    sizes: &mut IdMap<PathId, u64>,
    out: &mut ResolvedTrace,
) {
    if rec.layer != Layer::Posix {
        return;
    }
    let rank = rec.rank;
    match rec.func {
        Func::Open { path, flags, fd } => {
            fds.insert(
                (rank, fd),
                FdState {
                    file: path,
                    cursor: 0,
                    flags,
                },
            );
            if flags & flag_bits::TRUNC != 0 && flags & flag_bits::WRITE != 0 {
                sizes.insert(path, 0);
            } else {
                sizes.entry(path).or_insert(0);
            }
            out.syncs.push(SyncEvent {
                rank,
                t: rec.t_start,
                file: path,
                kind: SyncKind::Open,
            });
        }
        Func::Close { fd } => {
            if let Some(st) = fds.remove(&(rank, fd)) {
                out.syncs.push(SyncEvent {
                    rank,
                    t: rec.t_start,
                    file: st.file,
                    kind: SyncKind::Close,
                });
            }
        }
        Func::Fsync { fd } | Func::Fdatasync { fd } => {
            if let Some(st) = fds.get(&(rank, fd)) {
                out.syncs.push(SyncEvent {
                    rank,
                    t: rec.t_start,
                    file: st.file,
                    kind: SyncKind::Commit,
                });
            }
        }
        Func::Write { fd, count } => {
            if let Some(st) = fds.get_mut(&(rank, fd)) {
                let size = sizes.entry(st.file).or_insert(0);
                let offset = if st.flags & flag_bits::APPEND != 0 {
                    *size
                } else {
                    st.cursor
                };
                if count > 0 {
                    out.accesses.push(DataAccess {
                        rank,
                        t_start: rec.t_start,
                        t_end: rec.t_end,
                        file: st.file,
                        offset,
                        len: count,
                        kind: AccessKind::Write,
                        origin: rec.origin,
                        fd,
                    });
                }
                st.cursor = offset + count;
                *size = (*size).max(offset + count);
            }
        }
        Func::Pwrite { fd, offset, count } => {
            if let Some(st) = fds.get(&(rank, fd)) {
                if count > 0 {
                    out.accesses.push(DataAccess {
                        rank,
                        t_start: rec.t_start,
                        t_end: rec.t_end,
                        file: st.file,
                        offset,
                        len: count,
                        kind: AccessKind::Write,
                        origin: rec.origin,
                        fd,
                    });
                }
                let size = sizes.entry(st.file).or_insert(0);
                *size = (*size).max(offset + count);
            }
        }
        Func::Read { fd, count, ret } => {
            if let Some(st) = fds.get_mut(&(rank, fd)) {
                if ret < count {
                    out.short_reads += 1;
                }
                if ret > 0 {
                    out.accesses.push(DataAccess {
                        rank,
                        t_start: rec.t_start,
                        t_end: rec.t_end,
                        file: st.file,
                        offset: st.cursor,
                        len: ret,
                        kind: AccessKind::Read,
                        origin: rec.origin,
                        fd,
                    });
                }
                st.cursor += ret;
            }
        }
        Func::Pread {
            fd, offset, ret, ..
        }
        | Func::Mmap {
            fd,
            offset,
            count: ret,
        } => {
            // (Mmap is modelled as a positional read of `count` bytes.)
            if let Some(st) = fds.get(&(rank, fd)) {
                if ret > 0 {
                    out.accesses.push(DataAccess {
                        rank,
                        t_start: rec.t_start,
                        t_end: rec.t_end,
                        file: st.file,
                        offset,
                        len: ret,
                        kind: AccessKind::Read,
                        origin: rec.origin,
                        fd,
                    });
                }
            }
        }
        Func::Lseek {
            fd,
            offset,
            whence,
            ret,
        } => {
            if let Some(st) = fds.get_mut(&(rank, fd)) {
                let size = *sizes.entry(st.file).or_insert(0);
                let base = match whence {
                    SeekWhence::Set => 0i64,
                    SeekWhence::Cur => st.cursor as i64,
                    SeekWhence::End => size as i64,
                };
                let derived = (base + offset).max(0) as u64;
                if derived != ret {
                    out.seek_mismatches += 1;
                    st.cursor = ret; // the recorded return value wins
                } else {
                    st.cursor = derived;
                }
            }
        }
        Func::Ftruncate { fd, len } => {
            if let Some(st) = fds.get(&(rank, fd)) {
                sizes.insert(st.file, len);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

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

    fn single_rank(records: Vec<Record>) -> TraceSet {
        TraceSet {
            paths: vec!["/f".into()],
            ranks: vec![records],
            skews_ns: vec![0],
        }
    }

    const P: PathId = PathId(0);

    #[test]
    fn cursor_writes_are_consecutive() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::WRITE | flag_bits::CREATE,
                    fd: 3,
                },
            ),
            posix(0, 10, Func::Write { fd: 3, count: 100 }),
            posix(0, 20, Func::Write { fd: 3, count: 50 }),
            posix(0, 30, Func::Close { fd: 3 }),
        ]);
        let r = resolve(&trace);
        assert_eq!(r.accesses.len(), 2);
        assert_eq!((r.accesses[0].offset, r.accesses[0].len), (0, 100));
        assert_eq!((r.accesses[1].offset, r.accesses[1].len), (100, 50));
        assert_eq!(r.seek_mismatches, 0);
    }

    #[test]
    fn seek_set_cur_end_resolution() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::WRITE | flag_bits::READ | flag_bits::CREATE,
                    fd: 3,
                },
            ),
            posix(0, 1, Func::Write { fd: 3, count: 100 }),
            posix(
                0,
                2,
                Func::Lseek {
                    fd: 3,
                    offset: 10,
                    whence: SeekWhence::Set,
                    ret: 10,
                },
            ),
            posix(0, 3, Func::Write { fd: 3, count: 5 }),
            posix(
                0,
                4,
                Func::Lseek {
                    fd: 3,
                    offset: 5,
                    whence: SeekWhence::Cur,
                    ret: 20,
                },
            ),
            posix(0, 5, Func::Write { fd: 3, count: 5 }),
            posix(
                0,
                6,
                Func::Lseek {
                    fd: 3,
                    offset: -10,
                    whence: SeekWhence::End,
                    ret: 90,
                },
            ),
            posix(0, 7, Func::Write { fd: 3, count: 5 }),
        ]);
        let r = resolve(&trace);
        let offs: Vec<u64> = r.accesses.iter().map(|a| a.offset).collect();
        assert_eq!(offs, vec![0, 10, 20, 90]);
        assert_eq!(r.seek_mismatches, 0);
    }

    #[test]
    fn append_flag_positions_at_eof() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::WRITE | flag_bits::CREATE | flag_bits::APPEND,
                    fd: 3,
                },
            ),
            posix(0, 1, Func::Write { fd: 3, count: 10 }),
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
            posix(0, 3, Func::Write { fd: 3, count: 10 }), // append ignores the seek
        ]);
        let r = resolve(&trace);
        assert_eq!(r.accesses[0].offset, 0);
        assert_eq!(
            r.accesses[1].offset, 10,
            "O_APPEND writes at EOF regardless of cursor"
        );
    }

    #[test]
    fn cross_rank_appends_resolved_globally() {
        // Two ranks appending to a shared file in interleaved time order.
        let flags = flag_bits::WRITE | flag_bits::CREATE | flag_bits::APPEND;
        let trace = TraceSet {
            paths: vec!["/shared".into()],
            ranks: vec![
                vec![
                    posix(
                        0,
                        0,
                        Func::Open {
                            path: P,
                            flags,
                            fd: 3,
                        },
                    ),
                    posix(0, 10, Func::Write { fd: 3, count: 5 }),
                    posix(0, 30, Func::Write { fd: 3, count: 5 }),
                ],
                vec![
                    posix(
                        1,
                        1,
                        Func::Open {
                            path: P,
                            flags,
                            fd: 3,
                        },
                    ),
                    posix(1, 20, Func::Write { fd: 3, count: 7 }),
                ],
            ],
            skews_ns: vec![0, 0],
        };
        let r = resolve(&trace);
        let by_time: Vec<(u32, u64)> = r.accesses.iter().map(|a| (a.rank, a.offset)).collect();
        assert_eq!(by_time, vec![(0, 0), (1, 5), (0, 12)]);
    }

    #[test]
    fn o_trunc_resets_size() {
        let flags = flag_bits::WRITE | flag_bits::CREATE | flag_bits::TRUNC;
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags,
                    fd: 3,
                },
            ),
            posix(0, 1, Func::Write { fd: 3, count: 100 }),
            posix(0, 2, Func::Close { fd: 3 }),
            posix(
                0,
                3,
                Func::Open {
                    path: P,
                    flags,
                    fd: 4,
                },
            ),
            posix(
                0,
                4,
                Func::Lseek {
                    fd: 4,
                    offset: 0,
                    whence: SeekWhence::End,
                    ret: 0,
                },
            ),
            posix(0, 5, Func::Write { fd: 4, count: 5 }),
        ]);
        let r = resolve(&trace);
        assert_eq!(
            r.accesses[1].offset, 0,
            "O_TRUNC reset the size so SEEK_END is 0"
        );
        assert_eq!(r.seek_mismatches, 0);
    }

    #[test]
    fn reads_use_return_value() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::READ | flag_bits::WRITE | flag_bits::CREATE,
                    fd: 3,
                },
            ),
            posix(0, 1, Func::Write { fd: 3, count: 10 }),
            posix(
                0,
                2,
                Func::Lseek {
                    fd: 3,
                    offset: 5,
                    whence: SeekWhence::Set,
                    ret: 5,
                },
            ),
            posix(
                0,
                3,
                Func::Read {
                    fd: 3,
                    count: 100,
                    ret: 5,
                },
            ), // short read at EOF
            posix(
                0,
                4,
                Func::Read {
                    fd: 3,
                    count: 100,
                    ret: 0,
                },
            ), // EOF: no access emitted
        ]);
        let r = resolve(&trace);
        let reads: Vec<&DataAccess> = r
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .collect();
        assert_eq!(reads.len(), 1);
        assert_eq!((reads[0].offset, reads[0].len), (5, 5));
        assert_eq!(r.short_reads, 2);
    }

    #[test]
    fn sync_events_capture_open_close_commit() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::WRITE | flag_bits::CREATE,
                    fd: 3,
                },
            ),
            posix(0, 1, Func::Write { fd: 3, count: 1 }),
            posix(0, 2, Func::Fsync { fd: 3 }),
            posix(0, 3, Func::Close { fd: 3 }),
        ]);
        let r = resolve(&trace);
        let kinds: Vec<SyncKind> = r.syncs.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SyncKind::Open, SyncKind::Commit, SyncKind::Close]
        );
        assert_eq!(r.syncs[1].t, 2);
    }

    #[test]
    fn seek_mismatch_detected_and_ret_wins() {
        let trace = single_rank(vec![
            posix(
                0,
                0,
                Func::Open {
                    path: P,
                    flags: flag_bits::WRITE | flag_bits::CREATE,
                    fd: 3,
                },
            ),
            // Recorded ret says 42 but derivation says 10.
            posix(
                0,
                1,
                Func::Lseek {
                    fd: 3,
                    offset: 10,
                    whence: SeekWhence::Set,
                    ret: 42,
                },
            ),
            posix(0, 2, Func::Write { fd: 3, count: 1 }),
        ]);
        let r = resolve(&trace);
        assert_eq!(r.seek_mismatches, 1);
        assert_eq!(r.accesses[0].offset, 42);
    }

    #[test]
    fn operations_on_unknown_fd_are_ignored() {
        let trace = single_rank(vec![
            posix(0, 0, Func::Write { fd: 9, count: 10 }),
            posix(
                0,
                1,
                Func::Read {
                    fd: 9,
                    count: 10,
                    ret: 10,
                },
            ),
            posix(0, 2, Func::Close { fd: 9 }),
        ]);
        let r = resolve(&trace);
        assert!(r.accesses.is_empty());
        assert!(r.syncs.is_empty());
    }
}
