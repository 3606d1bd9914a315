//! Human-readable TSV export of a trace, one record per line:
//! `rank  t_start  t_end  layer  origin  func  args…`

use std::fmt::Write as _;

use crate::record::{Arg, Record};
use crate::traceset::TraceSet;

/// One record as a line: the six fixed columns, then `label=value` for
/// each argument in wire order, space-separated.
fn line(out: &mut String, trace: &TraceSet, rec: &Record) {
    let _ = write!(
        out,
        "{}\t{}\t{}\t{}\t{}\t{}\t",
        rec.rank,
        rec.t_start,
        rec.t_end,
        rec.layer.name(),
        rec.origin.name(),
        rec.func.name(),
    );
    let mut sep = "";
    rec.func.for_each_arg(|label, arg| {
        let _ = match arg {
            // The operation is the record's function name, not an argument.
            Arg::Meta(_) => return,
            Arg::U32(v) => write!(out, "{sep}{label}={v}"),
            Arg::Flags(v) => write!(out, "{sep}{label}={v:#x}"),
            Arg::U64(v) => write!(out, "{sep}{label}={v}"),
            Arg::I64(v) => write!(out, "{sep}{label}={v}"),
            Arg::Path(p) => write!(out, "{sep}{label}={}", trace.path(p)),
            Arg::Whence(w) => write!(out, "{sep}{label}={}", w.name()),
        };
        sep = " ";
    });
    out.push('\n');
}

/// Export the whole trace, merged in global time order, with a header line.
pub fn to_tsv(trace: &TraceSet) -> String {
    let mut out = String::new();
    out.push_str("rank\tt_start\tt_end\tlayer\torigin\tfunc\targs\n");
    for rec in trace.merged_by_time() {
        line(&mut out, trace, &rec);
    }
    out
}

/// Export a single rank's records in program order.
pub fn rank_to_tsv(trace: &TraceSet, rank: u32) -> String {
    let mut out = String::new();
    out.push_str("rank\tt_start\tt_end\tlayer\torigin\tfunc\targs\n");
    for rec in trace.rank_records(rank) {
        line(&mut out, trace, rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Func, Layer, PathId};

    #[test]
    fn tsv_contains_paths_and_names() {
        let trace = TraceSet {
            paths: vec!["/data/ckpt.h5".into()],
            ranks: vec![vec![Record {
                t_start: 5,
                t_end: 9,
                rank: 0,
                layer: Layer::Posix,
                origin: Layer::Hdf5,
                func: Func::Open {
                    path: PathId(0),
                    flags: 0x6,
                    fd: 3,
                },
            }]],
            skews_ns: vec![0],
        };
        let tsv = to_tsv(&trace);
        assert!(tsv.contains("/data/ckpt.h5"));
        assert!(tsv.contains("POSIX"));
        assert!(tsv.contains("HDF5"));
        assert!(tsv.contains("open"));
        assert_eq!(tsv.lines().count(), 2);
    }
}
