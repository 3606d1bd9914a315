//! High-level access-pattern classification (Table 3).
//!
//! `X-Y` notation: X is how many processes perform data I/O (`N` = all,
//! `M` = a proper subset, `1` = one), Y how many files they touch. The
//! shape is **consecutive** (each stream is one contiguous run),
//! **strided** (each process owns one region of a shared file, region
//! starts arithmetic in process order — `offset ≈ a·i + b`), or
//! **strided-cyclic** (processes own one region per round, rounds
//! regularly spaced). "A small amount of extra metadata introduced by the
//! I/O library" is excluded via a size threshold, as the paper's
//! definition allows.

use std::collections::BTreeMap;

use recorder::{DataAccess, PathId, ResolvedTrace};

use crate::overlap::FileGroups;

/// One letter of the X-Y pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Letter {
    N,
    M,
    One,
}

impl Letter {
    pub fn symbol(self) -> &'static str {
        match self {
            Letter::N => "N",
            Letter::M => "M",
            Letter::One => "1",
        }
    }
}

/// Shape of the accesses (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    Consecutive,
    Strided,
    StridedCyclic,
    Irregular,
}

impl ShapeClass {
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Consecutive => "consecutive",
            ShapeClass::Strided => "strided",
            ShapeClass::StridedCyclic => "strided cyclic",
            ShapeClass::Irregular => "irregular",
        }
    }
}

/// The fitted parameters of a strided pattern: the `i`-th participating
/// process accesses offset `a·i + b` (§6.2: "at each I/O phase, process i
/// accesses the file at offset ai + b").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFit {
    /// Inter-process stride `a` (0 for fully-overlapping streams).
    pub a: u64,
    /// Base offset `b`.
    pub b: u64,
    /// Cycle pitch between rounds (strided-cyclic only).
    pub cycle: Option<u64>,
}

/// Classification of one file.
#[derive(Debug, Clone)]
pub struct FilePattern {
    pub file: PathId,
    /// Distinct ranks with (above-threshold) data accesses, sorted.
    pub writers: Vec<u32>,
    pub shape: ShapeClass,
    pub bytes: u64,
    /// For strided / strided-cyclic files: the fitted `a·i + b` parameters.
    pub stride: Option<StrideFit>,
}

/// The result: per-file classifications plus the dominant overall label.
#[derive(Debug, Clone)]
pub struct HighLevelReport {
    pub per_file: Vec<FilePattern>,
    pub x: Letter,
    pub y: Letter,
    pub shape: ShapeClass,
    /// Ranks participating in the dominant file group.
    pub participating_ranks: u32,
    /// Files in the dominant group.
    pub group_files: u32,
}

impl HighLevelReport {
    /// `"N-1 strided"`-style label.
    pub fn label(&self) -> String {
        format!(
            "{}-{} {}",
            self.x.symbol(),
            self.y.symbol(),
            self.shape.name()
        )
    }

    pub fn xy(&self) -> String {
        format!("{}-{}", self.x.symbol(), self.y.symbol())
    }
}

/// Accesses smaller than this are library metadata and are ignored.
pub const META_THRESHOLD: u64 = 512;

/// A maximal contiguous region written by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    start: u64,
    end: u64,
}

/// Coalesce one rank's stream (in time order) into contiguous regions.
/// Regions merge only while accesses are exactly consecutive.
fn regions_of(stream: &[(u64, u64)]) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    for &(off, len) in stream {
        match regions.last_mut() {
            Some(r) if r.end == off => r.end = off + len,
            _ => regions.push(Region {
                start: off,
                end: off + len,
            }),
        }
    }
    regions
}

/// Are `starts` an arithmetic progression (stride may be zero — fully
/// overlapping streams like LBANN's whole-file reads)?
fn arithmetic(starts: &[u64]) -> bool {
    if starts.len() < 2 {
        return true;
    }
    let d = starts[1].wrapping_sub(starts[0]);
    starts.windows(2).all(|w| w[1].wrapping_sub(w[0]) == d)
}

fn classify_file(per_writer: &BTreeMap<u32, Vec<(u64, u64)>>) -> (ShapeClass, Option<StrideFit>) {
    // Single-accessor file: classify by stream continuity. Small allocation
    // gaps (HDF5 headers/alignment) make transitions monotonic rather than
    // strictly consecutive; both count as in-order here — Table 3 has no
    // finer bucket for unshared files.
    if per_writer.len() == 1 {
        let stream = per_writer.values().next().expect("one writer");
        let mut in_order = 0u64;
        let mut random = 0u64;
        let mut prev_end: Option<u64> = None;
        for &(off, len) in stream {
            if let Some(pe) = prev_end {
                if off >= pe {
                    in_order += 1;
                } else {
                    random += 1;
                }
            }
            prev_end = Some(off + len);
        }
        return if random * 4 <= in_order + random {
            (ShapeClass::Consecutive, None)
        } else {
            (ShapeClass::Irregular, None)
        };
    }

    let regions: Vec<(u32, Vec<Region>)> = per_writer
        .iter()
        .map(|(&r, s)| (r, regions_of(s)))
        .collect();

    // Consecutive: every writer produced exactly one contiguous region,
    // and either the file is unshared or all streams cover the same range
    // from the same start (e.g., everyone reads the whole file).
    let all_single = regions.iter().all(|(_, rs)| rs.len() == 1);
    if all_single {
        let starts: Vec<u64> = regions.iter().map(|(_, rs)| rs[0].start).collect();
        if regions.len() == 1 || starts.iter().all(|&s| s == starts[0]) {
            return (ShapeClass::Consecutive, None);
        }
        // One region per writer at distinct offsets: strided if arithmetic
        // in writer order.
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        return if arithmetic(&sorted) {
            let a = if sorted.len() > 1 {
                sorted[1] - sorted[0]
            } else {
                0
            };
            (
                ShapeClass::Strided,
                Some(StrideFit {
                    a,
                    b: sorted[0],
                    cycle: None,
                }),
            )
        } else {
            (ShapeClass::Irregular, None)
        };
    }

    // Multiple regions per writer: look for per-round stridedness.
    let k = regions[0].1.len();
    if !regions.iter().all(|(_, rs)| rs.len() == k) {
        return (ShapeClass::Irregular, None);
    }
    let mut fit = StrideFit {
        a: 0,
        b: u64::MAX,
        cycle: None,
    };
    for round in 0..k {
        let mut starts: Vec<u64> = regions.iter().map(|(_, rs)| rs[round].start).collect();
        starts.sort_unstable();
        if !arithmetic(&starts) {
            return (ShapeClass::Irregular, None);
        }
        if round == 0 {
            fit.a = if starts.len() > 1 {
                starts[1] - starts[0]
            } else {
                0
            };
            fit.b = starts[0];
        }
    }
    // Cyclic if every writer's rounds are equally spaced with a common
    // cycle length.
    let cycle = regions[0].1[1].start - regions[0].1[0].start;
    let cyclic = regions
        .iter()
        .all(|(_, rs)| rs.windows(2).all(|w| w[1].start - w[0].start == cycle));
    if cyclic {
        fit.cycle = Some(cycle);
        (ShapeClass::StridedCyclic, Some(fit))
    } else {
        (ShapeClass::Strided, Some(fit))
    }
}

/// Classify a resolved trace. `nranks` is the world size (needed to tell
/// `N` from `M`). Files are taken in [`PathId`] order with input (time)
/// order inside each — the order the streaming engine's buckets fill in.
pub fn classify(resolved: &ResolvedTrace, nranks: u32) -> HighLevelReport {
    let accesses = &resolved.accesses;
    let groups = FileGroups::new(accesses);
    let buckets = groups.iter().map(|(file, idxs)| {
        let mut b = FileBuckets::default();
        for &i in idxs {
            b.add(&accesses[i as usize]);
        }
        (file, b)
    });
    classify_from_buckets(buckets, nranks)
}

/// Per-file, per-direction accumulation state: above-threshold accesses
/// bucketed per rank in arrival (time) order. Each file is classified by
/// its *dominant* direction (LBANN's dataset is written once by rank 0 but
/// read in full by every rank — the reads are its pattern). Exposed so the
/// streaming analyzer can accumulate buckets online and finish through
/// the exact same [`classify_from_buckets`] as [`classify`].
#[derive(Debug, Clone, Default)]
pub struct FileBuckets {
    /// `[writes, reads]`, each rank → `(offset, len)` stream in time order.
    dirs: [BTreeMap<u32, Vec<(u64, u64)>>; 2],
    dir_bytes: [u64; 2],
}

impl FileBuckets {
    /// Account one access (below-threshold accesses are ignored, as
    /// library metadata).
    pub fn add(&mut self, a: &DataAccess) {
        if a.len < META_THRESHOLD {
            return;
        }
        let d = match a.kind {
            recorder::AccessKind::Write => 0,
            recorder::AccessKind::Read => 1,
        };
        self.dirs[d]
            .entry(a.rank)
            .or_default()
            .push((a.offset, a.len));
        self.dir_bytes[d] += a.len;
    }

    pub fn is_empty(&self) -> bool {
        self.dirs[0].is_empty() && self.dirs[1].is_empty()
    }
}

/// Finish the Table 3 classification from per-file buckets supplied in
/// [`PathId`] order. Files whose buckets are empty (only library metadata)
/// are skipped.
pub fn classify_from_buckets(
    buckets: impl Iterator<Item = (PathId, FileBuckets)>,
    nranks: u32,
) -> HighLevelReport {
    let mut per_file: Vec<FilePattern> = Vec::new();
    for (file, b) in buckets {
        if b.is_empty() {
            continue; // only below-threshold (library metadata) accesses
        }
        let [w, r] = b.dir_bytes;
        let (dominant, total) = if w >= r { (0, w) } else { (1, r) };
        let [writes, reads] = b.dirs;
        let per_writer = if dominant == 0 { writes } else { reads };
        let (shape, stride) = classify_file(&per_writer);
        per_file.push(FilePattern {
            file,
            writers: per_writer.keys().copied().collect(),
            shape,
            bytes: total,
            stride,
        });
    }

    // Group files by (shape, writer count) and pick the group with the
    // most bytes as the application's dominant pattern.
    let mut groups: BTreeMap<(u8, usize), (u64, Vec<&FilePattern>)> = BTreeMap::new();
    for fp in &per_file {
        let shape_key = match fp.shape {
            ShapeClass::Consecutive => 0u8,
            ShapeClass::Strided => 1,
            ShapeClass::StridedCyclic => 2,
            ShapeClass::Irregular => 3,
        };
        let e = groups
            .entry((shape_key, fp.writers.len()))
            .or_insert((0, Vec::new()));
        e.0 += fp.bytes;
        e.1.push(fp);
    }
    let dominant = groups.into_values().max_by_key(|(b, _)| *b);

    let (x, y, shape, participating, nfiles) = match dominant {
        None => (Letter::One, Letter::One, ShapeClass::Consecutive, 0, 0),
        Some((_, group)) => {
            let mut union: Vec<u32> = group.iter().flat_map(|fp| fp.writers.clone()).collect();
            union.sort_unstable();
            union.dedup();
            let w = union.len() as u32;
            let writers_per_file = group.iter().map(|fp| fp.writers.len()).max().unwrap_or(0);
            let x = if w >= nranks {
                Letter::N
            } else if w == 1 {
                Letter::One
            } else {
                Letter::M
            };
            let y = if writers_per_file <= 1 {
                x // unshared: one file (set) per writer
            } else if writers_per_file as u32 == w {
                Letter::One // every writer shares the file
            } else {
                Letter::M // groups of writers share each file
            };
            let shape = group[0].shape;
            (x, y, shape, w, group.len() as u32)
        }
    };

    HighLevelReport {
        per_file,
        x,
        y,
        shape,
        participating_ranks: participating,
        group_files: nfiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{AccessKind, DataAccess, Layer};

    fn acc(rank: u32, t: u64, file: u32, offset: u64, len: u64) -> DataAccess {
        DataAccess {
            rank,
            t_start: t,
            t_end: t + 1,
            file: PathId(file),
            offset,
            len,
            kind: AccessKind::Write,
            origin: Layer::App,
            fd: 3,
        }
    }

    fn resolved(accesses: Vec<DataAccess>) -> ResolvedTrace {
        ResolvedTrace {
            accesses,
            syncs: vec![],
            seek_mismatches: 0,
            short_reads: 0,
        }
    }

    #[test]
    fn n_n_consecutive() {
        // 4 ranks, each appending to its own file.
        let mut a = Vec::new();
        for r in 0..4u32 {
            a.push(acc(r, r as u64, r, 0, 1024));
            a.push(acc(r, 10 + r as u64, r, 1024, 1024));
        }
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.label(), "N-N consecutive");
    }

    #[test]
    fn n_1_strided() {
        // 4 ranks, one shared file, one region per rank at rank*4096.
        let a: Vec<DataAccess> = (0..4u32)
            .map(|r| acc(r, r as u64, 0, r as u64 * 4096, 4096))
            .collect();
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.label(), "N-1 strided");
    }

    #[test]
    fn m_1_strided_cyclic() {
        // 2 of 8 ranks write a shared file in 3 rounds with a fixed cycle.
        let mut a = Vec::new();
        let cycle = 8192u64;
        for round in 0..3u64 {
            for (i, r) in [0u32, 4].iter().enumerate() {
                a.push(acc(
                    *r,
                    round * 10 + *r as u64,
                    0,
                    round * cycle + i as u64 * 2048,
                    2048,
                ));
            }
        }
        let rep = classify(&resolved(a), 8);
        assert_eq!(rep.label(), "M-1 strided cyclic");
        // The fitted parameters: offset = 2048·i + 0, cycle 8192.
        let fit = rep.per_file[0].stride.expect("cyclic pattern has a fit");
        assert_eq!(
            fit,
            StrideFit {
                a: 2048,
                b: 0,
                cycle: Some(8192)
            }
        );
    }

    #[test]
    fn stride_fit_for_plain_strided() {
        let a: Vec<DataAccess> = (0..4u32)
            .map(|r| acc(r, r as u64, 0, 100 + r as u64 * 4096, 4096))
            .collect();
        let rep = classify(&resolved(a), 4);
        let fit = rep.per_file[0].stride.expect("strided pattern has a fit");
        assert_eq!(
            fit,
            StrideFit {
                a: 4096,
                b: 100,
                cycle: None
            }
        );
        // Consecutive files carry no fit.
        let c = vec![acc(0, 1, 0, 0, 4096)];
        let rep = classify(&resolved(c), 4);
        assert_eq!(rep.per_file[0].stride, None);
    }

    #[test]
    fn rounds_strided_but_irregular_cycle_is_strided() {
        // Per-round strided, but round spacing varies (FLASH-nofbs-like).
        let mut a = Vec::new();
        let round_starts = [0u64, 10_000, 50_000]; // irregular pitch
        for (j, base) in round_starts.iter().enumerate() {
            for r in 0..4u32 {
                a.push(acc(
                    r,
                    j as u64 * 10 + r as u64,
                    0,
                    base + r as u64 * 2048,
                    2048,
                ));
            }
        }
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.label(), "N-1 strided");
    }

    #[test]
    fn shared_whole_file_reads_are_consecutive() {
        // LBANN: every rank reads the whole file from 0 in two chunks.
        let mut a = Vec::new();
        for r in 0..4u32 {
            a.push(acc(r, r as u64, 0, 0, 4096));
            a.push(acc(r, 10 + r as u64, 0, 4096, 4096));
        }
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.label(), "N-1 consecutive");
    }

    #[test]
    fn n_m_when_groups_share_files() {
        // 8 ranks, 2 files, 4 writers each at strided offsets.
        let mut a = Vec::new();
        for r in 0..8u32 {
            let file = r / 4;
            let slot = (r % 4) as u64;
            a.push(acc(r, r as u64, file, slot * 4096, 4096));
        }
        let rep = classify(&resolved(a), 8);
        assert_eq!(rep.xy(), "N-M");
        assert_eq!(rep.shape, ShapeClass::Strided);
    }

    #[test]
    fn one_one_single_writer() {
        let a = vec![acc(0, 1, 0, 0, 4096), acc(0, 2, 0, 4096, 4096)];
        let rep = classify(&resolved(a), 64);
        assert_eq!(rep.label(), "1-1 consecutive");
    }

    #[test]
    fn metadata_below_threshold_ignored() {
        // Strided big writes plus tiny metadata writes at offset 0 from
        // many ranks: metadata must not change the classification.
        let mut a = Vec::new();
        for r in 0..4u32 {
            a.push(acc(r, r as u64, 0, r as u64 * 8192, 8192));
            a.push(acc(r, 100 + r as u64, 0, 0, 64)); // metadata
        }
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.label(), "N-1 strided");
    }

    #[test]
    fn dominant_group_wins() {
        // Big N-1 strided checkpoint + small 1-1 log file.
        let mut a = Vec::new();
        for r in 0..4u32 {
            a.push(acc(r, r as u64, 0, r as u64 * 65536, 65536));
        }
        a.push(acc(0, 100, 1, 0, 1024));
        let rep = classify(&resolved(a), 4);
        assert_eq!(rep.xy(), "N-1");
    }
}
