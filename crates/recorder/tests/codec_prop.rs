//! Property-style test: any trace survives an encode/decode roundtrip
//! bit-exactly. Cases are generated from pinned [`simrng`] seeds instead
//! of `proptest` so the suite runs with no registry dependencies.

use std::convert::Infallible;

use recorder::{Arg, Func, Layer, MetaKind, PathId, Record, SeekWhence, TraceSet, Wire};
use simrng::SimRng;

const N_PATHS: u32 = 8;

fn path_id(rng: &mut SimRng) -> PathId {
    PathId(rng.range_u32(0, N_PATHS))
}

fn meta_kind(rng: &mut SimRng) -> MetaKind {
    MetaKind::ALL[rng.range_usize(0, MetaKind::ALL.len())]
}

fn layer(rng: &mut SimRng) -> Layer {
    Layer::ALL[rng.range_usize(0, Layer::ALL.len())]
}

fn whence(rng: &mut SimRng) -> SeekWhence {
    [SeekWhence::Set, SeekWhence::Cur, SeekWhence::End][rng.range_usize(0, 3)]
}

/// One call drawn from the vocabulary table: a uniformly chosen row, each
/// argument uniform over its wire type.
fn func(rng: &mut SimRng) -> Func {
    let tag = Func::TAGS[rng.range_usize(0, Func::TAGS.len())];
    let drawn = Func::from_args(tag, |wire| {
        Ok::<_, Infallible>(match wire {
            Wire::U32 => Arg::U32(rng.next_u32()),
            Wire::Flags => Arg::Flags(rng.next_u32()),
            Wire::U64 => Arg::U64(rng.next_u64()),
            Wire::I64 => Arg::I64(rng.next_u64() as i64),
            Wire::Path => Arg::Path(path_id(rng)),
            Wire::Whence => Arg::Whence(whence(rng)),
            Wire::Meta => Arg::Meta(meta_kind(rng)),
        })
    });
    match drawn {
        Ok(Some(func)) => func,
        Ok(None) => unreachable!("tag {tag} is in Func::TAGS"),
    }
}

fn rank_records(rng: &mut SimRng, rank: u32) -> Vec<Record> {
    // Non-decreasing timestamps within the rank, like real traces.
    let n = rng.range_usize(0, 50);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.range_u64(0, 1_000_000);
            let dur = rng.range_u64(0, 1000);
            Record {
                t_start: t,
                t_end: t + dur,
                rank,
                layer: layer(rng),
                origin: layer(rng),
                func: func(rng),
            }
        })
        .collect()
}

#[test]
fn encode_decode_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xC0DEC);
    for _ in 0..128 {
        let trace = TraceSet {
            paths: (0..N_PATHS).map(|i| format!("/p{i}")).collect(),
            ranks: (0..3).map(|r| rank_records(&mut rng, r)).collect(),
            skews_ns: (0..3)
                .map(|_| rng.range_i64_inclusive(-20_000, 19_999))
                .collect(),
        };
        let encoded = trace.encode();
        let decoded = TraceSet::decode(&encoded).expect("decode");
        assert_eq!(decoded, trace);
    }
}

#[test]
fn decode_never_panics_on_garbage() {
    let mut rng = SimRng::seed_from_u64(0xBADD);
    for _ in 0..256 {
        let n = rng.range_usize(0, 256);
        let data: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        let _ = TraceSet::decode(&data);
    }
}

/// One realistic encoded trace to corrupt.
fn sample_encoded(seed: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = TraceSet {
        paths: (0..N_PATHS).map(|i| format!("/p{i}")).collect(),
        ranks: (0..3).map(|r| rank_records(&mut rng, r)).collect(),
        skews_ns: (0..3)
            .map(|_| rng.range_i64_inclusive(-20_000, 19_999))
            .collect(),
    };
    trace.encode()
}

/// Decode a possibly corrupt buffer; whatever still decodes must also
/// survive every pass a `tracetool` command runs over a loaded trace. The
/// decoder is the only gate between a file and those passes, so anything
/// they index with (a path id above all) has to be checked there.
fn decode_and_walk(data: &[u8]) {
    if let Ok(trace) = TraceSet::decode(data) {
        let _ = recorder::tsv::to_tsv(&trace);
        let _ = recorder::offset::resolve(&trace);
        let _ = recorder::stats::TraceStats::from_trace(&trace);
    }
}

/// Truncating a valid trace at *every* byte boundary returns a
/// [`recorder::CodecError`] (or, for a lucky prefix, a valid subset) —
/// never a panic. This is the crash-salvage contract: a trace cut short
/// by a dying writer must still be decodable or cleanly rejected.
#[test]
fn truncation_at_every_boundary_is_an_error_not_a_panic() {
    let encoded = sample_encoded(0x7A11C0DE);
    assert!(encoded.len() > 64, "sample trace too small to exercise");
    for cut in 0..encoded.len() {
        decode_and_walk(&encoded[..cut]);
    }
    // The untruncated buffer still decodes.
    TraceSet::decode(&encoded).expect("full buffer decodes");
}

/// Flipping any single bit of a valid trace never panics the decoder:
/// it either fails with a [`recorder::CodecError`] or decodes to some
/// (garbage but well-formed) trace.
#[test]
fn single_bit_flips_never_panic() {
    let encoded = sample_encoded(0xB17F11B5);
    for byte in 0..encoded.len() {
        for bit in 0..8 {
            let mut corrupt = encoded.clone();
            corrupt[byte] ^= 1 << bit;
            decode_and_walk(&corrupt);
        }
    }
}

/// Seeded multi-byte corruption (several random bytes rewritten at once)
/// never panics the decoder.
#[test]
fn random_byte_smashes_never_panic() {
    let encoded = sample_encoded(0x5EEDBEEF);
    let mut rng = SimRng::seed_from_u64(0x5EEDBEEF);
    for _ in 0..256 {
        let mut corrupt = encoded.clone();
        let hits = rng.range_usize(1, 8);
        for _ in 0..hits {
            let at = rng.range_usize(0, corrupt.len());
            corrupt[at] = rng.next_u32() as u8;
        }
        decode_and_walk(&corrupt);
    }
}
