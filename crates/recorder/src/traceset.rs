//! Trace assembly: the shared path interner, the per-rank tracer handle,
//! and the merged [`TraceSet`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::record::{Func, Layer, PathId, Record};

/// Interns path and name strings into dense [`PathId`]s.
#[derive(Debug, Default)]
pub struct Interner {
    by_name: HashMap<String, PathId>,
    names: Vec<String>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn intern(&mut self, s: &str) -> PathId {
        if let Some(&id) = self.by_name.get(s) {
            return id;
        }
        let id = PathId(self.names.len() as u32);
        self.names.push(s.to_string());
        self.by_name.insert(s.to_string(), id);
        id
    }

    pub fn get(&self, id: PathId) -> &str {
        &self.names[id.0 as usize]
    }

    pub fn lookup(&self, s: &str) -> Option<PathId> {
        self.by_name.get(s).copied()
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Interner shared by all ranks of one run. Ids are handed out in call
/// order, which rank threads race for; [`TraceSet::assemble`] renumbers
/// them canonically.
pub type SharedInterner = Arc<Mutex<Interner>>;

/// Create a fresh shared interner.
pub fn shared_interner() -> SharedInterner {
    Arc::new(Mutex::new(Interner::new()))
}

/// The per-rank trace sink. One per simulated process; the harness collects
/// them into a [`TraceSet`] at the end of the run.
#[derive(Debug)]
pub struct RankTracer {
    rank: u32,
    interner: SharedInterner,
    records: Vec<Record>,
}

impl RankTracer {
    pub fn new(rank: u32, interner: SharedInterner) -> Self {
        RankTracer {
            rank,
            interner,
            records: Vec::new(),
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn intern(&self, s: &str) -> PathId {
        self.interner.lock().expect("interner poisoned").intern(s)
    }

    /// Append one record. `t_start`/`t_end` must already be this rank's
    /// local-clock (skewed) timestamps.
    pub fn record(&mut self, t_start: u64, t_end: u64, layer: Layer, origin: Layer, func: Func) {
        self.records.push(Record {
            t_start,
            t_end,
            rank: self.rank,
            layer,
            origin,
            func,
        });
    }

    /// Merge `other` — further records of this rank from a second,
    /// time-sorted source (the MPI runtime's event log) — into the stream:
    /// one two-way merge on `t_start`, this tracer's record first on a
    /// tie. The stream itself need not be sorted (a library-level record
    /// is appended after the POSIX records it spans); each of its records
    /// is simply preceded by the `other` records that start before it.
    pub fn merge_by_time(&mut self, other: impl ExactSizeIterator<Item = Record>) {
        let mut merged = Vec::with_capacity(self.records.len() + other.len());
        let mut other = other.peekable();
        for rec in self.records.drain(..) {
            while let Some(o) = other.next_if(|o| o.t_start < rec.t_start) {
                merged.push(o);
            }
            merged.push(rec);
        }
        merged.extend(other);
        self.records = merged;
    }

    pub fn records(&self) -> &[Record] {
        &self.records
    }

    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

/// A complete multi-rank trace: per-rank record streams (each in local
/// program order) plus the interned string table and the skew offsets the
/// simulator applied (kept for validation experiments; a real tracer would
/// not know them).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSet {
    pub paths: Vec<String>,
    /// `ranks[r]` = records of rank `r`, in emission (program) order.
    pub ranks: Vec<Vec<Record>>,
    /// Ground-truth per-rank clock skew (ns) injected by the simulator.
    pub skews_ns: Vec<i64>,
}

/// The canonical renumbering of `interner`'s ids: `remap[id]` is the
/// id's position in sorted-name order. Interning races between rank
/// threads would otherwise make the id assignment — and therefore the
/// encoded trace — nondeterministic even though the schedule is not.
pub fn canonical_remap(interner: &Interner) -> Vec<u32> {
    let names = &interner.names;
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].cmp(&names[b]));
    let mut remap = vec![0u32; names.len()];
    for (new, &old) in order.iter().enumerate() {
        remap[old] = new as u32;
    }
    remap
}

impl TraceSet {
    /// Assemble from per-rank tracers, renumbering path ids by `remap`
    /// (what [`canonical_remap`] computed for `interner`). Panics if
    /// tracers are not exactly ranks `0..n` in order.
    pub fn assemble(
        interner: &Interner,
        remap: &[u32],
        tracers: Vec<RankTracer>,
        skews_ns: Vec<i64>,
    ) -> Self {
        for (i, t) in tracers.iter().enumerate() {
            assert_eq!(t.rank as usize, i, "tracers must be rank-ordered");
        }
        let mut paths = vec![String::new(); remap.len()];
        for (old, &new) in remap.iter().enumerate() {
            paths[new as usize] = interner.names[old].clone();
        }
        let mut ranks: Vec<Vec<Record>> = tracers.into_iter().map(|t| t.into_records()).collect();
        for records in &mut ranks {
            for rec in records {
                rec.func.for_each_path_mut(|p| p.0 = remap[p.0 as usize]);
            }
        }
        TraceSet {
            paths,
            ranks,
            skews_ns,
        }
    }

    pub fn nranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    pub fn path(&self, id: PathId) -> &str {
        &self.paths[id.0 as usize]
    }

    pub fn path_id(&self, path: &str) -> Option<PathId> {
        self.paths
            .iter()
            .position(|p| p == path)
            .map(|i| PathId(i as u32))
    }

    pub fn total_records(&self) -> usize {
        self.ranks.iter().map(|r| r.len()).sum()
    }

    /// All records of all ranks, merged by `t_start` (stable: ties keep
    /// rank order) — the "global view from the PFS's perspective".
    pub fn merged_by_time(&self) -> Vec<Record> {
        let mut all: Vec<Record> = self.ranks.iter().flatten().copied().collect();
        all.sort_by_key(|r| (r.t_start, r.rank));
        all
    }

    /// Iterate records of one rank.
    pub fn rank_records(&self, rank: u32) -> &[Record] {
        &self.ranks[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("/x");
        let b = i.intern("/y");
        let a2 = i.intern("/x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.get(b), "/y");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn assemble_merges_tracers() {
        let shared = shared_interner();
        let mut t0 = RankTracer::new(0, Arc::clone(&shared));
        let mut t1 = RankTracer::new(1, Arc::clone(&shared));
        let p = t0.intern("/f");
        t0.record(
            0,
            1,
            Layer::Posix,
            Layer::App,
            Func::Open {
                path: p,
                flags: 0,
                fd: 3,
            },
        );
        t1.record(2, 3, Layer::Posix, Layer::App, Func::Close { fd: 3 });
        let interner = shared.lock().expect("interner poisoned");
        let ts = TraceSet::assemble(
            &interner,
            &canonical_remap(&interner),
            vec![t0, t1],
            vec![5, -5],
        );
        assert_eq!(ts.nranks(), 2);
        assert_eq!(ts.total_records(), 2);
        assert_eq!(ts.path(p), "/f");
        assert_eq!(ts.skews_ns, vec![5, -5]);
    }

    #[test]
    fn merge_by_time_is_a_stable_two_way_merge() {
        let close = |fd| Func::Close { fd };
        let mut t = RankTracer::new(0, shared_interner());
        // Unsorted on purpose: the library-level span (t=10) is recorded
        // after the POSIX call (t=20) it contains.
        for (ts, fd) in [(5, 1), (20, 2), (10, 3), (30, 4)] {
            t.record(ts, ts + 1, Layer::Posix, Layer::App, close(fd));
        }
        let mpi = [(5, 10), (7, 11), (25, 12), (40, 13)].map(|(ts, fd)| Record {
            t_start: ts,
            t_end: ts + 1,
            rank: 0,
            layer: Layer::Mpi,
            origin: Layer::Mpi,
            func: close(fd),
        });
        t.merge_by_time(mpi.into_iter());
        let fds: Vec<u32> = t
            .records()
            .iter()
            .map(|r| match r.func {
                Func::Close { fd } => fd,
                _ => unreachable!(),
            })
            .collect();
        // Own record first on the t=5 tie; 11 (t=7) before 2 (t=20); 12
        // (t=25) waits behind 3 (t=10) only because 3 follows 2 in the
        // stream and 25 > 20 and 25 > 10; 13 trails.
        assert_eq!(fds, [1, 10, 11, 2, 3, 12, 4, 13]);
    }

    #[test]
    fn merged_by_time_is_sorted() {
        let shared = shared_interner();
        let mut t0 = RankTracer::new(0, Arc::clone(&shared));
        let mut t1 = RankTracer::new(1, Arc::clone(&shared));
        t0.record(10, 11, Layer::Posix, Layer::App, Func::Close { fd: 1 });
        t0.record(30, 31, Layer::Posix, Layer::App, Func::Close { fd: 2 });
        t1.record(20, 21, Layer::Posix, Layer::App, Func::Close { fd: 3 });
        let interner = shared.lock().expect("interner poisoned");
        let ts = TraceSet::assemble(
            &interner,
            &canonical_remap(&interner),
            vec![t0, t1],
            vec![0, 0],
        );
        let merged = ts.merged_by_time();
        let starts: Vec<u64> = merged.iter().map(|r| r.t_start).collect();
        assert_eq!(starts, vec![10, 20, 30]);
    }
}
