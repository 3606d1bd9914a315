//! Consistent-hash route table for the sharded serving fleet.
//!
//! One serve process per node, each authoritative for a slice of the
//! cache-key space. This crate holds the pieces that must be *agreed
//! on* by every node and are therefore pure functions of small inputs:
//!
//! * [`Ring`] — a fixed virtual-node consistent-hash ring over the high
//!   word of the store's 128-bit dual-FNV cache-key fingerprint. Same
//!   members in → same ring out, on every node, every process, every
//!   platform.
//! * [`Peer`] / [`parse_peers`] — the static seed table
//!   (`--peers 1=host:port,...`): the universe of nodes the fleet can
//!   contain. The *active member set* is a subset and changes with
//!   join/decommission.
//! * [`ClusterState`] — a node's live view: seed table, active member
//!   set, the ring built from it, an **ownership epoch** that increments
//!   on every committed membership change (so stale routing is
//!   detectable, not silently wrong), and per-peer liveness bits fed by
//!   the serve tier's prober.
//! * [`plan_change`] — the *decisions* of a join or decommission (who
//!   may ask, the next member set and epoch, which slices move where),
//!   as a pure function of the current view.
//!
//! What this crate deliberately does **not** contain: HTTP, the store,
//! or any I/O at all. Routing decisions, proxying, liveness probing and
//! segment handoff live in `crates/serve`, which executes these
//! decisions over its client/server machinery.

mod membership;
mod ring;

pub use membership::{format_members, parse_members, parse_peers, Peer};
pub use ring::{Ring, VNODES_PER_NODE};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Forwarding hop budget. A healthy ring resolves in one hop; two hops
/// happen transiently mid-rebalance when nodes disagree on the epoch.
/// Anything deeper is a misconfigured ring and is rejected with a
/// loop-detected error rather than bounced until a socket times out.
pub const MAX_HOPS: u32 = 4;

struct ViewInner {
    epoch: u64,
    members: Vec<u32>,
    ring: Ring,
}

/// One node's live view of the fleet.
pub struct ClusterState {
    node_id: u32,
    peers: Vec<Peer>,
    /// Parallel to `peers`; flipped by the prober and by proxy failures.
    alive: Vec<AtomicBool>,
    inner: Mutex<ViewInner>,
}

impl ClusterState {
    /// Build the initial view: every seed peer is an active member,
    /// epoch 1. `node_id` must appear in the seed table.
    pub fn new(node_id: u32, peers: Vec<Peer>) -> Result<ClusterState, String> {
        if !peers.iter().any(|p| p.id == node_id) {
            return Err(format!("--cluster-id {node_id} is not in --peers"));
        }
        let members: Vec<u32> = peers.iter().map(|p| p.id).collect();
        let ring = Ring::build(&members);
        let alive = peers.iter().map(|_| AtomicBool::new(true)).collect();
        Ok(ClusterState {
            node_id,
            peers,
            alive,
            inner: Mutex::new(ViewInner {
                epoch: 1,
                members,
                ring,
            }),
        })
    }

    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// The full seed table (sorted by id, includes self).
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    pub fn peer_addr(&self, id: u32) -> Option<&str> {
        self.peers
            .iter()
            .find(|p| p.id == id)
            .map(|p| p.addr.as_str())
    }

    pub fn self_addr(&self) -> &str {
        self.peer_addr(self.node_id).expect("self is in seed table")
    }

    /// Owner of a fingerprint point under the current ring, plus the
    /// epoch that ring belongs to (read atomically together).
    pub fn owner_of(&self, point: u64) -> (Option<u32>, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.ring.owner(point), inner.epoch)
    }

    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Current `(epoch, active members)` snapshot.
    pub fn view(&self) -> (u64, Vec<u32>) {
        let inner = self.inner.lock().unwrap();
        (inner.epoch, inner.members.clone())
    }

    pub fn is_member(&self, id: u32) -> bool {
        self.inner.lock().unwrap().members.contains(&id)
    }

    /// Fraction of the keyspace this view assigns to `id`.
    pub fn slice_fraction(&self, id: u32) -> f64 {
        self.inner.lock().unwrap().ring.slice_fraction(id)
    }

    /// Atomically switch to a new member set at a strictly newer epoch.
    /// Commits are idempotent per epoch: replaying the same `(epoch,
    /// members)` is accepted, a *conflicting* member set at a known
    /// epoch is not.
    pub fn commit(&self, epoch: u64, members: &[u32]) -> Result<(), String> {
        let mut ids: Vec<u32> = members.to_vec();
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            if !self.peers.iter().any(|p| p.id == id) {
                return Err(format!("commit: node {id} is not in the seed table"));
            }
        }
        let mut inner = self.inner.lock().unwrap();
        if epoch < inner.epoch || (epoch == inner.epoch && ids != inner.members) {
            return Err(format!(
                "commit: stale epoch {epoch} (current {})",
                inner.epoch
            ));
        }
        if epoch == inner.epoch {
            return Ok(());
        }
        inner.ring = Ring::build(&ids);
        inner.members = ids;
        inner.epoch = epoch;
        Ok(())
    }

    /// Flip a peer's liveness bit. Returns true if the bit changed
    /// (so callers can log transitions, not every probe). Self is
    /// always alive.
    pub fn set_alive(&self, id: u32, alive: bool) -> bool {
        if id == self.node_id {
            return false;
        }
        let Some(idx) = self.peers.iter().position(|p| p.id == id) else {
            return false;
        };
        self.alive[idx].swap(alive, Ordering::Relaxed) != alive
    }

    pub fn is_alive(&self, id: u32) -> bool {
        if id == self.node_id {
            return true;
        }
        self.peers
            .iter()
            .position(|p| p.id == id)
            .map(|idx| self.alive[idx].load(Ordering::Relaxed))
            .unwrap_or(false)
    }
}

/// A membership change a node asks for on its own behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    Join,
    Decommission,
}

/// Why a change is refused before anything moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    AlreadyMember,
    NotMember,
    LastMember,
}

/// The view a change commits to, and what must move before it may.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub epoch: u64,
    /// The new member set, ascending.
    pub members: Vec<u32>,
    /// `(src, dst)` transfers: `dst` pulls from `src` the records the
    /// new ring assigns to `dst`. All must verify before any commit.
    pub pulls: Vec<(u32, u32)>,
}

/// Decide a membership change for `node` against the committed view
/// `(epoch, members)`. A joiner pulls its slice from every current
/// member; a leaver's records are pulled by every remaining member.
pub fn plan_change(
    change: Change,
    node: u32,
    epoch: u64,
    members: &[u32],
) -> Result<Plan, Refusal> {
    let is_member = members.contains(&node);
    let mut next: Vec<u32> = members.iter().copied().filter(|&m| m != node).collect();
    next.sort_unstable();
    let pulls = match change {
        Change::Join if is_member => return Err(Refusal::AlreadyMember),
        Change::Decommission if !is_member => return Err(Refusal::NotMember),
        Change::Decommission if next.is_empty() => return Err(Refusal::LastMember),
        Change::Join => next.iter().map(|&m| (m, node)).collect(),
        Change::Decommission => next.iter().map(|&m| (node, m)).collect(),
    };
    if change == Change::Join {
        next.push(node);
        next.sort_unstable();
    }
    Ok(Plan {
        epoch: epoch + 1,
        members: next,
        pulls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers3() -> Vec<Peer> {
        parse_peers("1=127.0.0.1:9001,2=127.0.0.1:9002,3=127.0.0.1:9003").unwrap()
    }

    #[test]
    fn new_requires_self_in_seed_table() {
        assert!(ClusterState::new(9, peers3()).is_err());
        let st = ClusterState::new(2, peers3()).unwrap();
        assert_eq!(st.node_id(), 2);
        assert_eq!(st.self_addr(), "127.0.0.1:9002");
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.view().1, vec![1, 2, 3]);
    }

    #[test]
    fn commit_rejects_stale_and_accepts_replay() {
        let st = ClusterState::new(1, peers3()).unwrap();
        st.commit(2, &[1, 2]).unwrap();
        assert_eq!(st.epoch(), 2);
        assert!(!st.is_member(3));
        // Idempotent replay of the same commit.
        st.commit(2, &[1, 2]).unwrap();
        // Conflicting member set at the same epoch.
        assert!(st.commit(2, &[1, 3]).is_err());
        // Stale epoch.
        assert!(st.commit(1, &[1, 2, 3]).is_err());
        // Unknown node id.
        assert!(st.commit(3, &[1, 2, 9]).is_err());
        assert_eq!(st.epoch(), 2);
    }

    #[test]
    fn ownership_follows_committed_members() {
        let st = ClusterState::new(1, peers3()).unwrap();
        st.commit(2, &[1]).unwrap();
        for p in [0u64, 7, u64::MAX] {
            assert_eq!(st.owner_of(p), (Some(1), 2));
        }
        let f = st.slice_fraction(1);
        assert!((f - 1.0).abs() < 1e-9);
        assert_eq!(st.slice_fraction(2), 0.0);
    }

    #[test]
    fn liveness_bits_flip_and_self_is_always_alive() {
        let st = ClusterState::new(1, peers3()).unwrap();
        assert!(st.is_alive(2));
        assert!(st.set_alive(2, false), "first flip reports a change");
        assert!(!st.set_alive(2, false), "repeat does not");
        assert!(!st.is_alive(2));
        assert!(st.set_alive(2, true));
        assert!(st.is_alive(2));
        assert!(!st.set_alive(1, false), "self cannot be marked dead");
        assert!(st.is_alive(1));
        assert!(!st.is_alive(42), "unknown ids are dead");
    }

    #[test]
    fn plan_refuses_changes_that_make_no_sense() {
        use {Change::*, Refusal::*};
        assert_eq!(plan_change(Join, 2, 1, &[1, 2, 3]), Err(AlreadyMember));
        assert_eq!(plan_change(Decommission, 3, 4, &[1, 2]), Err(NotMember));
        assert_eq!(plan_change(Decommission, 2, 7, &[2]), Err(LastMember));
    }

    #[test]
    fn plan_join_pulls_from_every_member_into_the_joiner() {
        let plan = plan_change(Change::Join, 2, 5, &[3, 1]).unwrap();
        assert_eq!(plan.epoch, 6);
        assert_eq!(plan.members, vec![1, 2, 3], "member set is sorted");
        assert_eq!(plan.pulls, vec![(1, 2), (3, 2)]);
    }

    #[test]
    fn plan_decommission_hands_the_leaver_to_every_remaining_member() {
        let plan = plan_change(Change::Decommission, 3, 1, &[1, 2, 3]).unwrap();
        assert_eq!(plan.epoch, 2);
        assert_eq!(plan.members, vec![1, 2]);
        assert_eq!(plan.pulls, vec![(3, 1), (3, 2)]);
        // The plan is exactly what ClusterState::commit accepts next.
        let st = ClusterState::new(3, peers3()).unwrap();
        st.commit(plan.epoch, &plan.members).unwrap();
        assert_eq!(st.view(), (2, vec![1, 2]));
    }
}
