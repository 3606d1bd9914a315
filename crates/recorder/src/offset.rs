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

impl ResolvedTrace {
    /// What a [`StreamResolver`] fed the same records counts.
    pub fn counts(&self) -> ResolveCounts {
        ResolveCounts {
            accesses: self.accesses.len() as u64,
            syncs: self.syncs.len() as u64,
            seek_mismatches: self.seek_mismatches,
            short_reads: self.short_reads,
        }
    }
}

/// What one record resolves to. Most records resolve to nothing: they only
/// move a cursor or a file size, or are not POSIX at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    Access(DataAccess),
    Sync(SyncEvent),
}

/// The totals of a resolution: how many accesses and sync events it
/// produced, and its two anomalies (see [`ResolvedTrace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveCounts {
    pub accesses: u64,
    pub syncs: u64,
    pub seek_mismatches: u64,
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
    // Only POSIX records resolve to anything, and a stable sort of them
    // alone keeps the relative order `TraceSet::merged_by_time` gives
    // them.
    let mut posix: Vec<&Record> = trace
        .ranks
        .iter()
        .flatten()
        .filter(|rec| rec.layer == Layer::Posix)
        .collect();
    posix.sort_by_key(|rec| (rec.t_start, rec.rank));
    let mut r = StreamResolver::new();
    let mut out = ResolvedTrace::default();
    for rec in posix {
        match r.push(rec) {
            Some(Resolved::Access(a)) => out.accesses.push(a),
            Some(Resolved::Sync(s)) => out.syncs.push(s),
            None => {}
        }
    }
    out.seek_mismatches = r.counts.seek_mismatches;
    out.short_reads = r.counts.short_reads;
    out
}

/// Incremental offset resolution: the per-record step function of
/// [`resolve`], so records can be fed one at a time as a run streams them
/// out. It keeps the cursor and size state resolution needs and counts
/// what it emits, but not the emitted events: [`resolve`] collects them
/// into a [`ResolvedTrace`], a streaming consumer uses each one and drops
/// it. Fed a trace's records in `(t_start, rank)` order (the
/// [`TraceSet::merged_by_time`] order), it emits exactly `resolve`'s
/// accesses and sync events, in `resolve`'s order.
#[derive(Debug, Default)]
pub struct StreamResolver {
    fds: IdMap<(u32, u32), FdState>,
    sizes: IdMap<PathId, u64>,
    counts: ResolveCounts,
}

impl StreamResolver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next record in global `(t_start, rank)` order and get what
    /// it resolves to. Non-POSIX records resolve to nothing, as in the
    /// batch pass.
    pub fn push(&mut self, rec: &Record) -> Option<Resolved> {
        let out = self.step(rec);
        match out {
            Some(Resolved::Access(_)) => self.counts.accesses += 1,
            Some(Resolved::Sync(_)) => self.counts.syncs += 1,
            None => {}
        }
        out
    }

    /// Totals over every record pushed so far.
    pub fn counts(&self) -> ResolveCounts {
        self.counts
    }

    fn step(&mut self, rec: &Record) -> Option<Resolved> {
        if rec.layer != Layer::Posix {
            return None;
        }
        let rank = rec.rank;
        let access = |file, fd, offset, len, kind| {
            (len > 0).then_some(Resolved::Access(DataAccess {
                rank,
                t_start: rec.t_start,
                t_end: rec.t_end,
                file,
                offset,
                len,
                kind,
                origin: rec.origin,
                fd,
            }))
        };
        let sync = |file, kind| {
            Some(Resolved::Sync(SyncEvent {
                rank,
                t: rec.t_start,
                file,
                kind,
            }))
        };
        let (fds, sizes) = (&mut self.fds, &mut self.sizes);
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
                sync(path, SyncKind::Open)
            }
            Func::Close { fd } => sync(fds.remove(&(rank, fd))?.file, SyncKind::Close),
            Func::Fsync { fd } | Func::Fdatasync { fd } => {
                sync(fds.get(&(rank, fd))?.file, SyncKind::Commit)
            }
            Func::Write { fd, count } => {
                let st = fds.get_mut(&(rank, fd))?;
                let size = sizes.entry(st.file).or_insert(0);
                let offset = if st.flags & flag_bits::APPEND != 0 {
                    *size
                } else {
                    st.cursor
                };
                st.cursor = offset + count;
                *size = (*size).max(offset + count);
                access(st.file, fd, offset, count, AccessKind::Write)
            }
            Func::Pwrite { fd, offset, count } => {
                let file = fds.get(&(rank, fd))?.file;
                let size = sizes.entry(file).or_insert(0);
                *size = (*size).max(offset + count);
                access(file, fd, offset, count, AccessKind::Write)
            }
            Func::Read { fd, count, ret } => {
                let st = fds.get_mut(&(rank, fd))?;
                if ret < count {
                    self.counts.short_reads += 1;
                }
                let offset = st.cursor;
                st.cursor += ret;
                access(st.file, fd, offset, ret, AccessKind::Read)
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
                access(
                    fds.get(&(rank, fd))?.file,
                    fd,
                    offset,
                    ret,
                    AccessKind::Read,
                )
            }
            Func::Lseek {
                fd,
                offset,
                whence,
                ret,
            } => {
                let st = fds.get_mut(&(rank, fd))?;
                let size = *sizes.entry(st.file).or_insert(0);
                let base = match whence {
                    SeekWhence::Set => 0i64,
                    SeekWhence::Cur => st.cursor as i64,
                    SeekWhence::End => size as i64,
                };
                let derived = (base + offset).max(0) as u64;
                if derived != ret {
                    self.counts.seek_mismatches += 1;
                    st.cursor = ret; // the recorded return value wins
                } else {
                    st.cursor = derived;
                }
                None
            }
            Func::Ftruncate { fd, len } => {
                sizes.insert(fds.get(&(rank, fd))?.file, len);
                None
            }
            _ => None,
        }
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
