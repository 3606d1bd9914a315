//! On-disk record framing shared by the journal and snapshot segments.
//!
//! Every record — a `(key, value)` pair — is written as one frame:
//!
//! ```text
//! +----------+----------+-------------+-----------+-----------+
//! | key_len  | val_len  | checksum    | key bytes | val bytes |
//! | u32 LE   | u32 LE   | u64 LE      |           |           |
//! +----------+----------+-------------+-----------+-----------+
//! ```
//!
//! The checksum is FNV-1a 64 over the two length words *and* both
//! payloads, so a bit flip anywhere in the frame — including in the
//! lengths, which would otherwise reframe the rest of the file — fails
//! verification. Decoding distinguishes a frame that *cannot be complete*
//! (fewer bytes than it claims: the torn tail a dying writer leaves) from
//! one that is demonstrably corrupt (insane lengths, checksum mismatch),
//! because recovery reports them differently; both end the valid prefix.

use obs::fnv::{fnv1a64, FNV_OFFSET};

/// Frame header: two `u32` lengths plus the `u64` checksum.
pub const HEADER_LEN: usize = 16;

/// Sanity ceiling on key length (canonical cache keys are < 1 KiB).
pub const MAX_KEY_LEN: u32 = 1 << 20;

/// Sanity ceiling on value length (rendered artifact bundles are KBs).
pub const MAX_VAL_LEN: u32 = 1 << 28;

/// The frame checksum: FNV-1a over `key_len ∥ val_len ∥ key ∥ value`.
pub fn checksum(key: &[u8], val: &[u8]) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &(key.len() as u32).to_le_bytes());
    h = fnv1a64(h, &(val.len() as u32).to_le_bytes());
    h = fnv1a64(h, key);
    fnv1a64(h, val)
}

/// Append one encoded frame to `buf`.
///
/// Panics if `key` or `val` exceed the sanity ceilings — callers hold
/// canonical cache keys and rendered response bundles, both orders of
/// magnitude smaller.
pub fn encode_into(buf: &mut Vec<u8>, key: &[u8], val: &[u8]) {
    assert!(
        key.len() <= MAX_KEY_LEN as usize,
        "key exceeds frame ceiling"
    );
    assert!(
        val.len() <= MAX_VAL_LEN as usize,
        "value exceeds frame ceiling"
    );
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum(key, val).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(val);
}

/// Total bytes one `(key, value)` frame occupies on disk.
pub fn frame_len(key: &[u8], val: &[u8]) -> usize {
    HEADER_LEN + key.len() + val.len()
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does — the torn tail a crashed
    /// writer leaves behind.
    Incomplete,
    /// The frame is self-inconsistent: absurd lengths or a checksum
    /// mismatch. Bit rot, a torn *overwrite*, or hostile bytes.
    Corrupt,
}

/// Decode the frame starting at `at`. Returns `(key, value, next_offset)`
/// on success; never panics on any input.
pub fn decode_at(buf: &[u8], at: usize) -> Result<(&[u8], &[u8], usize), FrameError> {
    let rest = buf.get(at..).ok_or(FrameError::Incomplete)?;
    if rest.len() < HEADER_LEN {
        return Err(FrameError::Incomplete);
    }
    let key_len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    let val_len = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let expect = u64::from_le_bytes(rest[8..16].try_into().unwrap());
    if key_len > MAX_KEY_LEN || val_len > MAX_VAL_LEN {
        return Err(FrameError::Corrupt);
    }
    let (key_len, val_len) = (key_len as usize, val_len as usize);
    let body = &rest[HEADER_LEN..];
    if body.len() < key_len + val_len {
        return Err(FrameError::Incomplete);
    }
    let key = &body[..key_len];
    let val = &body[key_len..key_len + val_len];
    if checksum(key, val) != expect {
        return Err(FrameError::Corrupt);
    }
    Ok((key, val, at + HEADER_LEN + key_len + val_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Frames a store already holds on disk must keep decoding: these
    /// bytes were recorded before the checksum moved to `obs::fnv`.
    #[test]
    fn fixed_frames_keep_their_bytes() {
        let cases: [(&[u8], &[u8], &str, u64); 3] = [
            (
                b"",
                b"",
                "0000000000000000c5391a283240c622",
                0x22c6_4032_281a_39c5,
            ),
            (
                b"k",
                b"v",
                "0100000001000000a4130f8cfb6028ce6b76",
                0xce28_60fb_8c0f_13a4,
            ),
            (
                b"app=FLASH\0ranks=64",
                b"{\n  \"verdict\": \"session\"\n}\n",
                "120000001b000000170a67e87541e5146170703d464c4153480072616e6b733d3634\
                 7b0a20202276657264696374223a202273657373696f6e220a7d0a",
                0x14e5_4175_e867_0a17,
            ),
        ];
        for (key, val, bytes, sum) in cases {
            let mut buf = Vec::new();
            encode_into(&mut buf, key, val);
            assert_eq!(hex(&buf), bytes);
            assert_eq!(checksum(key, val), sum);
            assert_eq!(decode_at(&buf, 0).unwrap(), (key, val, buf.len()));
        }
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"app=FLASH\0cfg=fbs", b"verdict bytes");
        encode_into(&mut buf, b"", b"");
        encode_into(&mut buf, b"k2", &[0u8; 300]);
        let (k, v, next) = decode_at(&buf, 0).unwrap();
        assert_eq!(k, b"app=FLASH\0cfg=fbs");
        assert_eq!(v, b"verdict bytes");
        let (k, v, next) = decode_at(&buf, next).unwrap();
        assert_eq!((k, v), (&b""[..], &b""[..]));
        let (k, v, next) = decode_at(&buf, next).unwrap();
        assert_eq!(k, b"k2");
        assert_eq!(v, &[0u8; 300][..]);
        assert_eq!(next, buf.len());
        assert_eq!(decode_at(&buf, next), Err(FrameError::Incomplete));
    }

    #[test]
    fn every_truncation_is_incomplete_or_corrupt() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"key", b"value-bytes");
        for cut in 0..buf.len() {
            assert!(decode_at(&buf[..cut], 0).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"some-key", b"some-value");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_at(&bad, 0).is_err(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn insane_lengths_are_corrupt_not_incomplete() {
        let mut buf = vec![0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&(MAX_KEY_LEN + 1).to_le_bytes());
        assert_eq!(decode_at(&buf, 0), Err(FrameError::Corrupt));
    }
}
