//! Ground-truth validation of the §5.1 offset resolution: the analysis
//! reconstructs offsets from open flags, seeks and byte counts alone; the
//! simulator knows where every operation *actually* landed. For random
//! single-file op sequences (including appends, seeks, truncates and
//! short reads) the two must agree exactly. Cases come from pinned
//! [`simrng`] seeds so the suite runs with no registry dependencies.

use iolibs::{run_app, AppCtx, RunConfig};
use recorder::{adjust, offset, AccessKind};
use simrng::SimRng;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u16),
    Pwrite(u32, u16),
    Read(u16),
    Pread(u32, u16),
    SeekSet(u32),
    SeekEnd(i16),
    Truncate(u32),
    Fsync,
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.range_u32(0, 8) {
        0 => Op::Write(rng.range_u64(1, 2000) as u16),
        1 => Op::Pwrite(rng.range_u64(0, 5000) as u32, rng.range_u64(1, 2000) as u16),
        2 => Op::Read(rng.range_u64(1, 2000) as u16),
        3 => Op::Pread(rng.range_u64(0, 5000) as u32, rng.range_u64(1, 2000) as u16),
        4 => Op::SeekSet(rng.range_u64(0, 5000) as u32),
        5 => Op::SeekEnd(rng.range_i64_inclusive(-500, -1) as i16),
        6 => Op::Truncate(rng.range_u64(0, 5000) as u32),
        _ => Op::Fsync,
    }
}

/// Execute the ops on rank 0 (rank 1 idles at barriers) and record the
/// simulator-reported `(offset, len, is_write)` of every data access.
fn ground_truth(ops: &[Op], append: bool) -> (Vec<(u64, u64, bool)>, recorder::TraceSet) {
    let ops = ops.to_vec();
    let out = run_app(&RunConfig::new(1, 5), move |ctx: &mut AppCtx| {
        let mut flags = pfssim::OpenFlags::rdwr_create();
        flags.append = append;
        let fd = ctx.open("/gt", flags).unwrap();
        let mut truth: Vec<(u64, u64, bool)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write(l) => {
                    let w = ctx.write(fd, &vec![1u8; l as usize]).unwrap();
                    truth.push((w.offset, w.len, true));
                }
                Op::Pwrite(o, l) => {
                    let w = ctx.pwrite(fd, o as u64, &vec![2u8; l as usize]).unwrap();
                    truth.push((w.offset, w.len, true));
                }
                Op::Read(l) => {
                    let r = ctx.read(fd, l as u64).unwrap();
                    if !r.data.is_empty() {
                        truth.push((r.offset, r.data.len() as u64, false));
                    }
                }
                Op::Pread(o, l) => {
                    let r = ctx.pread(fd, o as u64, l as u64).unwrap();
                    if !r.data.is_empty() {
                        truth.push((r.offset, r.data.len() as u64, false));
                    }
                }
                Op::SeekSet(o) => {
                    ctx.lseek(fd, o as i64, pfssim::Whence::Set).unwrap();
                }
                Op::SeekEnd(d) => {
                    let _ = ctx.lseek(fd, d as i64, pfssim::Whence::End);
                }
                Op::Truncate(l) => ctx.ftruncate(fd, l as u64).unwrap(),
                Op::Fsync => ctx.fsync(fd).unwrap(),
            }
        }
        ctx.close(fd).unwrap();
        // The rank closure cannot return values through run_app's plumbing
        // here, so hand the ground truth out through a shared slot.
        *TRUTH.lock().unwrap() = truth;
    });
    let truth = TRUTH.lock().unwrap().clone();
    (truth, out.trace)
}

static TRUTH: std::sync::Mutex<Vec<(u64, u64, bool)>> = std::sync::Mutex::new(Vec::new());

#[test]
fn resolver_matches_simulator() {
    let mut rng = SimRng::seed_from_u64(0x0FF5E7);
    for _ in 0..48 {
        let ops: Vec<Op> = (0..rng.range_usize(1, 30))
            .map(|_| random_op(&mut rng))
            .collect();
        let append = rng.gen_bool(0.5);
        let (truth, trace) = ground_truth(&ops, append);
        let resolved = offset::resolve(&adjust::apply(&trace));
        assert_eq!(
            resolved.seek_mismatches, 0,
            "pure §5.1 derivation must suffice"
        );
        let derived: Vec<(u64, u64, bool)> = resolved
            .accesses
            .iter()
            .map(|a| (a.offset, a.len, a.kind == AccessKind::Write))
            .collect();
        assert_eq!(derived, truth);
    }
}

/// The open flags a trace carries are `pfssim::OpenFlags::to_bits`, and
/// the resolver decodes them with `recorder::offset::flag_bits`: the two
/// agree on every constructor, and only `O_LAZY` (which the resolver
/// ignores) lies outside `flag_bits`.
#[test]
fn flag_bits_decode_what_open_flags_encode() {
    use offset::flag_bits as b;
    use pfssim::OpenFlags;
    for f in [
        OpenFlags::rdonly(),
        OpenFlags::wronly_create_trunc(),
        OpenFlags::rdwr_create(),
        OpenFlags::rdwr(),
        OpenFlags::append_create(),
        OpenFlags::rdwr_create().with_excl(),
        OpenFlags::rdwr_create().with_lazy(),
    ] {
        let bits = f.to_bits();
        let fields = [
            (b::READ, f.read),
            (b::WRITE, f.write),
            (b::CREATE, f.create),
            (b::TRUNC, f.truncate),
            (b::APPEND, f.append),
            (b::EXCL, f.excl),
        ];
        for (bit, set) in fields {
            assert_eq!(bits & bit != 0, set, "{f:?}: bit {bit:#x}");
        }
        let known = fields.iter().fold(0, |acc, &(bit, _)| acc | bit);
        assert_eq!(bits & !known != 0, f.lazy, "{f:?}");
    }
}
