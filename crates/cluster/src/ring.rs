//! Fixed virtual-node consistent-hash ring.
//!
//! The ring is a sorted array of `(point, node)` pairs. Each member node
//! contributes [`VNODES_PER_NODE`] points, derived by hashing
//! `"node:{id}:vnode:{v}"` with FNV-1a — so ring construction is a pure
//! function of the member id set and every process that agrees on the
//! members agrees on the ring.
//!
//! A key is owned by the node whose point is the first one at or after
//! the key's fingerprint (wrapping at the top of the u64 space). Lookup
//! is a binary search; the ring is rebuilt wholesale on membership
//! change, which at fleet sizes of interest (single digits to low
//! hundreds of nodes) is microseconds.

/// Virtual nodes contributed by each member. 64 points per node keeps
/// the largest/smallest slice ratio under ~1.6 for small fleets without
/// making the ring table noticeable in cache.
pub const VNODES_PER_NODE: usize = 64;

/// FNV-1a 64-bit with the published prime. This crate has no
/// dependencies by design (the route table is pure data and arithmetic),
/// so it keeps this four-line copy instead of using `obs::fnv`. The two
/// are not the same function: `obs::fnv` multiplies by
/// `0x1000_0000_01b3`, the value every persisted store checksum and
/// cache-key fingerprint was computed with, while vnode points have
/// always used the published `0x100_0000_01b3`. Each is pinned by its
/// own test, so neither can drift.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The point on the ring for one virtual node.
fn vnode_point(node: u32, vnode: usize) -> u64 {
    let label = format!("node:{node}:vnode:{vnode}");
    fnv1a64(label.as_bytes())
}

/// An immutable consistent-hash ring over a set of member node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Sorted by point. Ties (astronomically unlikely with distinct
    /// labels, but cheap to make deterministic) break toward the lower
    /// node id.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Build the ring for a member set. Duplicate ids are ignored;
    /// an empty member set yields an empty ring (no owner for any key).
    pub fn build(members: &[u32]) -> Ring {
        let mut ids: Vec<u32> = members.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut points = Vec::with_capacity(ids.len() * VNODES_PER_NODE);
        for &id in &ids {
            for v in 0..VNODES_PER_NODE {
                points.push((vnode_point(id, v), id));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// The node owning `point` (the high word of a key's 128-bit
    /// fingerprint), or `None` for an empty ring.
    pub fn owner(&self, point: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let idx = self.points.partition_point(|&(p, _)| p < point);
        let idx = if idx == self.points.len() { 0 } else { idx };
        Some(self.points[idx].1)
    }

    /// Fraction of the u64 keyspace owned by `node`, in [0, 1].
    pub fn slice_fraction(&self, node: u32) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut owned: u128 = 0;
        // Arc ending at points[i] (exclusive of the previous point,
        // inclusive of this one) belongs to points[i].1; the arc from the
        // last point wraps around to the first.
        for i in 0..self.points.len() {
            if self.points[i].1 != node {
                continue;
            }
            let hi = self.points[i].0;
            let lo = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            let span = hi.wrapping_sub(lo) as u128;
            // A single-point ring owns everything.
            owned += if span == 0 && self.points.len() == 1 {
                1u128 << 64
            } else {
                span
            };
        }
        owned as f64 / (1u128 << 64) as f64
    }

    /// Sorted distinct member ids present on the ring.
    pub fn members(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.points.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of points on the ring (members × [`VNODES_PER_NODE`]).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a64_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ring_is_deterministic_and_order_insensitive() {
        let a = Ring::build(&[1, 2, 3]);
        let b = Ring::build(&[3, 1, 2, 2]);
        assert_eq!(a, b);
        assert_eq!(a.members(), vec![1, 2, 3]);
        assert_eq!(a.len(), 3 * VNODES_PER_NODE);
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let r = Ring::build(&[]);
        assert_eq!(r.owner(42), None);
        assert_eq!(r.slice_fraction(1), 0.0);
        assert!(r.is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let r = Ring::build(&[7]);
        for p in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(r.owner(p), Some(7));
        }
        let f = r.slice_fraction(7);
        assert!((f - 1.0).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    fn slices_are_roughly_balanced_and_sum_to_one() {
        let members = [1u32, 2, 3, 4];
        let r = Ring::build(&members);
        let mut total = 0.0;
        for &m in &members {
            let f = r.slice_fraction(m);
            assert!(f > 0.10 && f < 0.45, "node {m} owns fraction {f}");
            total += f;
        }
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn adding_a_member_moves_only_a_minority_of_keys() {
        let before = Ring::build(&[1, 2, 3]);
        let after = Ring::build(&[1, 2, 3, 4]);
        let mut moved = 0u32;
        let samples = 4096u64;
        for i in 0..samples {
            // Spread sample points over the whole space.
            let p = fnv1a64(&i.to_le_bytes());
            let was = before.owner(p).unwrap();
            let now = after.owner(p).unwrap();
            if was != now {
                // Consistent hashing: keys only ever move TO the new node.
                assert_eq!(now, 4, "key moved between old nodes {was}->{now}");
                moved += 1;
            }
        }
        let frac = moved as f64 / samples as f64;
        assert!(frac > 0.05 && frac < 0.50, "moved fraction {frac}");
    }

    #[test]
    fn owner_matches_linear_scan() {
        let r = Ring::build(&[10, 20, 30]);
        for i in 0..512u64 {
            let p = fnv1a64(&i.to_be_bytes());
            let fast = r.owner(p).unwrap();
            // Reference: smallest point >= p, else smallest overall.
            let slow = r
                .points
                .iter()
                .filter(|&&(q, _)| q >= p)
                .min()
                .or_else(|| r.points.iter().min())
                .unwrap()
                .1;
            assert_eq!(fast, slow, "point {p:#x}");
        }
    }
}
