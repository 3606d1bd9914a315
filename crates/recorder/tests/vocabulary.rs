//! The trace vocabulary pinned from outside: what every traced call looks
//! like on the wire and in the TSV export, recorded from a build of the
//! commit *before* the vocabulary was folded into one declaration.
//!
//! `golden/all_variants.hex` and `golden/all_variants.tsv` were written by
//! that build from [`all_variants`]; they change only with a format
//! version bump.

use std::collections::BTreeSet;
use std::convert::Infallible;

use recorder::{Arg, Func, Layer, MetaKind, PathId, Record, SeekWhence, TraceSet, Wire};

/// One record of every variant (three of `lseek`, one per whence), with
/// extreme argument values, over two ranks so the TSV's global time merge
/// has something to interleave.
fn all_variants() -> TraceSet {
    let p = PathId;
    let funcs = [
        Func::Open {
            path: p(0),
            flags: 0x241,
            fd: 3,
        },
        Func::Close { fd: u32::MAX },
        Func::Read {
            fd: 3,
            count: u64::MAX,
            ret: 0,
        },
        Func::Write {
            fd: 0,
            count: 1 << 40,
        },
        Func::Pread {
            fd: 4,
            offset: u64::MAX,
            count: 127,
            ret: 128,
        },
        Func::Pwrite {
            fd: 4,
            offset: 16_383,
            count: 16_384,
        },
        Func::Lseek {
            fd: 3,
            offset: -1,
            whence: SeekWhence::Set,
            ret: 0,
        },
        Func::Lseek {
            fd: 3,
            offset: i64::MIN,
            whence: SeekWhence::Cur,
            ret: u64::MAX,
        },
        Func::Lseek {
            fd: 3,
            offset: i64::MAX,
            whence: SeekWhence::End,
            ret: 77,
        },
        Func::Fsync { fd: 3 },
        Func::Fdatasync { fd: 128 },
        Func::Ftruncate {
            fd: 3,
            len: 1 << 63,
        },
        Func::Mmap {
            fd: 5,
            offset: 4096,
            count: 0,
        },
        Func::MetaPath {
            op: MetaKind::Mmap,
            path: p(5),
        },
        Func::MetaPath2 {
            op: MetaKind::Rename,
            path: p(1),
            path2: p(2),
        },
        Func::MetaFd {
            op: MetaKind::Ftruncate,
            fd: 9,
        },
        Func::MetaPlain {
            op: MetaKind::Umask,
        },
        Func::MpiBarrier { epoch: 1 << 48 },
        Func::MpiSend {
            dst: 1,
            tag: u32::MAX,
            seq: 300,
        },
        Func::MpiRecv {
            src: 0,
            tag: 0,
            seq: u64::MAX,
        },
        Func::MpiFileOpen { path: p(3), fh: 1 },
        Func::MpiFileClose { fh: 1 },
        Func::MpiFileWriteAt {
            fh: 1,
            offset: 1,
            count: 2,
        },
        Func::MpiFileWriteAtAll {
            fh: 2,
            offset: 3,
            count: 4,
        },
        Func::MpiFileReadAt {
            fh: 3,
            offset: 5,
            count: 6,
        },
        Func::MpiFileReadAtAll {
            fh: 4,
            offset: 7,
            count: 8,
        },
        Func::MpiFileSync { fh: u32::MAX },
        Func::H5Fcreate { path: p(4), id: 10 },
        Func::H5Fopen { path: p(4), id: 11 },
        Func::H5Fclose { id: 10 },
        Func::H5Fflush { id: 11 },
        Func::H5Dcreate {
            file: 10,
            name: p(2),
            id: 20,
        },
        Func::H5Dopen {
            file: 11,
            name: p(2),
            id: 21,
        },
        Func::H5Dwrite {
            dset: 20,
            count: u64::MAX,
        },
        Func::H5Dread { dset: 21, count: 0 },
        Func::H5Dclose { id: 20 },
        Func::LibCall {
            name: p(1),
            a: 0,
            b: u64::MAX,
        },
    ];
    let mut ranks = vec![Vec::new(), Vec::new()];
    for (i, func) in funcs.into_iter().enumerate() {
        let rank = i % 2;
        // Mostly rising; every seventh record starts before its
        // predecessor, as a library-level span recorded after the POSIX
        // calls it contains does.
        let t_start = if i % 7 == 6 {
            1_000 * i as u64 - 2_500
        } else {
            1_000 * i as u64 + (1 << (i % 40))
        };
        ranks[rank].push(Record {
            t_start,
            t_end: t_start + (i as u64 % 5) * 300,
            rank: rank as u32,
            layer: Layer::ALL[i % Layer::ALL.len()],
            origin: Layer::ALL[(i / 3) % Layer::ALL.len()],
            func,
        });
    }
    TraceSet {
        paths: [
            "/a",
            "name with space",
            "dset/ü",
            "/scratch/out.h5",
            "",
            "/z",
        ]
        .map(String::from)
        .to_vec(),
        ranks,
        skews_ns: vec![-20_000, 19_999],
    }
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn all_variants_encode_to_the_recorded_bytes() {
    let golden = from_hex(include_str!("golden/all_variants.hex"));
    let trace = all_variants();
    assert_eq!(trace.encode(), golden);
    assert_eq!(TraceSet::decode(&golden).expect("golden decodes"), trace);
}

#[test]
fn all_variants_export_the_recorded_tsv() {
    assert_eq!(
        recorder::tsv::to_tsv(&all_variants()),
        include_str!("golden/all_variants.tsv")
    );
}

/// Every row of the vocabulary table, exercised through the public
/// surface alone: a row cannot exist without wire, text and remap support.
#[test]
fn every_row_round_trips_names_itself_and_yields_its_paths() {
    const N_PATHS: u32 = 40;
    let mut names = BTreeSet::new();
    for (i, &tag) in Func::TAGS.iter().enumerate() {
        assert_eq!(tag as usize, i, "tags are dense and in declaration order");
        // Extreme, and distinct per argument so a swapped pair shows.
        let mut given = Vec::new();
        let built = Func::from_args(tag, |wire| {
            let n = given.len() as u32;
            let arg = match wire {
                Wire::U32 => Arg::U32(u32::MAX - n),
                Wire::Flags => Arg::Flags(u32::MAX - n),
                Wire::U64 => Arg::U64(u64::MAX - n as u64),
                Wire::I64 => Arg::I64(i64::MIN + n as i64),
                Wire::Path => Arg::Path(PathId(N_PATHS - 1 - n)),
                Wire::Whence => Arg::Whence(SeekWhence::End),
                // A metadata row is named after its operation: a different
                // one per row keeps the names below distinct.
                Wire::Meta => Arg::Meta(MetaKind::ALL[i]),
            };
            given.push(arg);
            Ok::<_, Infallible>(arg)
        });
        let Ok(Some(mut func)) = built else {
            panic!("tag {tag} is in Func::TAGS");
        };
        assert_eq!(func.tag(), tag);

        // The visitor hands back what the constructor was given, in order.
        let mut seen = Vec::new();
        func.for_each_arg(|label, arg| {
            assert!(!label.is_empty());
            seen.push(arg);
        });
        assert_eq!(seen, given, "tag {tag}");

        assert!(!func.name().is_empty());
        assert!(names.insert(func.name()), "{} names two rows", func.name());

        // Wire: encode → decode is the identity.
        let trace = TraceSet {
            paths: (0..N_PATHS).map(|p| format!("/p{p}")).collect(),
            ranks: vec![vec![Record {
                t_start: 7,
                t_end: 9,
                rank: 0,
                layer: Layer::Posix,
                origin: Layer::App,
                func,
            }]],
            skews_ns: vec![0],
        };
        assert_eq!(TraceSet::decode(&trace.encode()).as_ref(), Ok(&trace));

        // Text: one `label=value` per argument but the metadata operation,
        // which is the function name.
        let tsv = recorder::tsv::to_tsv(&trace);
        let shown = given.iter().filter(|a| !matches!(a, Arg::Meta(_))).count();
        let args = tsv.lines().nth(1).and_then(|l| l.split('\t').nth(6));
        assert_eq!(args.map(|a| a.matches('=').count()), Some(shown), "{tsv}");

        // Remap: exactly the row's path arguments, each rewritable.
        let paths: Vec<PathId> = given
            .iter()
            .filter_map(|a| match a {
                Arg::Path(p) => Some(*p),
                _ => None,
            })
            .collect();
        let mut visited = Vec::new();
        func.for_each_path_mut(|p| {
            visited.push(*p);
            p.0 = 0;
        });
        assert_eq!(visited, paths, "tag {tag}");
        func.for_each_arg(|_, arg| {
            if let Arg::Path(p) = arg {
                assert_eq!(p, PathId(0));
            }
        });
    }
    assert_eq!(Func::TAGS.len(), 35);
    assert_eq!(
        Func::from_args(35, |_| -> Result<Arg, Infallible> { unreachable!() }),
        Ok(None)
    );
}
