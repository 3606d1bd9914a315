//! FNV-1a, the workspace's one dependency-free hash: store frame
//! checksums, cache-key fingerprints (and so ring placement), pfssim read
//! digests. Unlike `RandomState` it is stable across runs, builds and
//! machines, so a store written by one build opens in the next.
//!
//! **The multiplier is not the published prime**: `0x1000_0000_01b3`, one
//! hex digit longer than FNV's `0x100_0000_01b3` — a typo in the first
//! FNV body that every persisted checksum and fingerprint has been
//! computed with since, so it stays, pinned by the tests below.
//! `cluster::ring` keeps a private copy with the published prime (that
//! crate has no dependencies by design, and its vnode points always used
//! it).

/// The 64-bit FNV offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier every persisted hash was computed with.
const MULTIPLIER: u64 = 0x1000_0000_01b3;

/// Offset basis of the second lane of [`fnv1a128`].
const LOW_OFFSET: u64 = 0x6c62_272e_07bb_0142;

/// 64-bit FNV-1a over `bytes`, continuing from state `seed` — pass
/// [`FNV_OFFSET`] to start a hash, or a previous result to extend one.
#[inline]
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(MULTIPLIER);
    }
    h
}

/// A 128-bit fingerprint as `(high, low)`: two 64-bit lanes with distinct
/// offset bases, the low one over a rotated and whitened byte. Not the
/// official 128-bit variant (which needs 128-bit multiplies), but stable
/// and with the same dispersion at cache-key scale. The high lane is
/// [`fnv1a64`] from [`FNV_OFFSET`].
pub fn fnv1a128(bytes: &[u8]) -> (u64, u64) {
    let mut hi = FNV_OFFSET;
    let mut lo = LOW_OFFSET;
    for &b in bytes {
        hi ^= b as u64;
        hi = hi.wrapping_mul(MULTIPLIER);
        lo ^= (b as u64).rotate_left(17) ^ 0xa5;
        lo = lo.wrapping_mul(MULTIPLIER);
    }
    (hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values the workspace's FNV has always produced, recorded from
    /// `store::frame::fnv1a64` before it moved here. Only the empty input
    /// agrees with the published FNV-1a vectors
    /// (`"a"` → `0xaf63dc4c8601ec8c`, `"foobar"` → `0x85944171f73967e8`).
    #[test]
    fn workspace_fnv1a64_vectors() {
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn a_hash_extends_across_calls() {
        assert_eq!(
            fnv1a64(fnv1a64(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a64(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn the_high_lane_is_fnv1a64() {
        for s in [&b""[..], b"a", b"foobar", b"app=FLASH\0ranks=64"] {
            assert_eq!(fnv1a128(s).0, fnv1a64(FNV_OFFSET, s));
        }
        assert_eq!(fnv1a128(b""), (FNV_OFFSET, LOW_OFFSET));
    }
}
