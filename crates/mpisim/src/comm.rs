//! Communication primitives: barrier, point-to-point, and collectives.
//!
//! All collectives are built from buffered sends and blocking receives on a
//! reserved tag, so every collective leaves point-to-point happens-before
//! edges in the event log — the same edges §5.2 of the paper reconstructs
//! ("we matched sends to receives and collective function invocations").

use std::sync::Arc;

use crate::clock::{cost, OpClass};
use crate::event::{EventKind, MpiEvent};
use crate::sched::{BlockReason, Payload};
use crate::world::Rank;

/// Tag reserved for collective traffic. User tags must stay below this.
pub const COLLECTIVE_TAG: u32 = u32::MAX;

/// What a barrier participation looked like, in true simulated time.
/// Every participant of one epoch observes the same `t_exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierInfo {
    pub epoch: u64,
    pub t_enter: u64,
    pub t_exit: u64,
    /// Whether this rank's arrival released the epoch: true on exactly one
    /// participant, or on none when a crash was the departure the epoch
    /// waited for.
    pub released: bool,
}

/// Completion record of a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendInfo {
    pub seq: u64,
    pub t_start: u64,
    pub t_end: u64,
}

/// Completion record of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    pub src: u32,
    pub tag: u32,
    pub seq: u64,
    pub t_start: u64,
    pub t_end: u64,
}

impl Rank {
    /// Block until every *live* rank has entered the barrier. All
    /// participants of one epoch observe the same exit time: a barrier
    /// starts at every rank before it completes at any rank. A crashed
    /// rank counts as departed (ULFM-style), so survivors still release;
    /// a rank crashing while peers wait triggers the same release from
    /// `SimState::crash_rank`.
    pub fn barrier(&self) -> BarrierInfo {
        let mut st = self.turn_begin();
        let epoch = st.barrier_epoch;
        let (t_enter, _) = st.spend(self.rank, cost(OpClass::Barrier, 0));
        st.barrier_count += 1;
        st.release_barrier_if_complete();
        // The last live arrival releases the epoch and keeps the turn;
        // everyone else parks until the release.
        let released = st.barrier_epoch > epoch;
        if !released {
            st = self.park(st, BlockReason::Barrier { epoch });
        }
        // The release set every participant's clock to the release time:
        // the releaser's by its own arrival, every parked one's at release.
        let t_exit = st.last_t[self.rank as usize];
        st.events[self.rank as usize].push(MpiEvent {
            rank: self.rank,
            t_start: t_enter,
            t_end: t_exit,
            kind: EventKind::Barrier { epoch },
        });
        if released {
            self.turn_end(st);
        }
        BarrierInfo {
            epoch,
            t_enter,
            t_exit,
            released,
        }
    }

    /// Post a buffered message; completes locally without waiting for the
    /// matching receive (standard-mode send with eager buffering).
    pub fn send(&self, dst: u32, tag: u32, payload: Vec<u8>) -> SendInfo {
        self.send_payload(dst, tag, Payload::Owned(payload))
    }

    fn send_payload(&self, dst: u32, tag: u32, payload: Payload) -> SendInfo {
        assert!(dst < self.nranks(), "send to invalid rank {dst}");
        let me = self.rank as usize;
        let len = payload.len() as u64;
        let mut st = self.turn_begin();
        let (t_start, t_end) = st.spend(self.rank, cost(OpClass::Send, len));
        let seq = st.put_msg(self.rank, dst, tag, payload);
        st.events[me].push(MpiEvent {
            rank: self.rank,
            t_start,
            t_end,
            kind: EventKind::Send { dst, tag, seq },
        });
        self.turn_end(st);
        SendInfo {
            seq,
            t_start,
            t_end,
        }
    }

    /// Block until a message from `src` with `tag` is available, then
    /// consume it. Matching is FIFO per `(src, dst, tag)` channel, like MPI's
    /// non-overtaking rule; a delayed message is received no earlier than
    /// its delivery time. If `src` has crashed and the channel is drained,
    /// no message can ever arrive: this rank fail-stops with
    /// [`crate::SimError::PeerCrashed`] (cascading job death — survivors'
    /// partial traces are salvaged by the layers above).
    pub fn recv(&self, src: u32, tag: u32) -> (Vec<u8>, RecvInfo) {
        let (payload, info) = self.recv_payload(src, tag);
        (payload.into_vec(), info)
    }

    fn recv_payload(&self, src: u32, tag: u32) -> (Payload, RecvInfo) {
        assert!(src < self.nranks(), "recv from invalid rank {src}");
        let me = self.rank as usize;
        loop {
            let mut st = self.turn_begin();
            if let Some(msg) = st.take_msg(src, self.rank, tag) {
                if msg.visible_at > st.clock_ns {
                    if let Some(base) = st.trace_pid_base {
                        let dst = obs::Arg::U(self.rank as u64);
                        st.buf_instant(
                            base + me as u64,
                            "delayed-delivery",
                            msg.visible_at,
                            vec![("dst", dst)],
                        );
                    }
                    st.clock_ns = msg.visible_at;
                }
                let len = msg.payload.len() as u64;
                let (t_start, t_end) = st.spend(self.rank, cost(OpClass::Recv, len));
                st.events[me].push(MpiEvent {
                    rank: self.rank,
                    t_start,
                    t_end,
                    kind: EventKind::Recv {
                        src,
                        tag,
                        seq: msg.seq,
                    },
                });
                self.turn_end(st);
                return (
                    msg.payload,
                    RecvInfo {
                        src,
                        tag,
                        seq: msg.seq,
                        t_start,
                        t_end,
                    },
                );
            }
            if st.is_crashed(src) {
                let err = crate::error::SimError::PeerCrashed {
                    rank: self.rank,
                    peer: src,
                };
                self.abort_with(st, err);
            }
            let st = self.park(st, BlockReason::Recv);
            drop(st); // woken by a send or a peer crash: loop and re-check
        }
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// all ranks.
    pub fn bcast(&self, root: u32, data: &[u8]) -> Vec<u8> {
        self.bcast_payload(root, data).into_vec()
    }

    /// [`Rank::bcast`] without the per-rank copy: the root's bytes are one
    /// allocation that every destination's message (and the returned
    /// payload, on every rank) points into.
    fn bcast_payload(&self, root: u32, data: &[u8]) -> Payload {
        if self.rank == root {
            let shared: Arc<[u8]> = Arc::from(data);
            for dst in 0..self.nranks() {
                if dst != root {
                    self.send_payload(dst, COLLECTIVE_TAG, Payload::Shared(Arc::clone(&shared)));
                }
            }
            Payload::Shared(shared)
        } else {
            self.recv_payload(root, COLLECTIVE_TAG).0
        }
    }

    /// Gather each rank's buffer at `root`. Returns `Some(buffers)` indexed
    /// by rank at the root, `None` elsewhere.
    pub fn gather(&self, root: u32, mine: &[u8]) -> Option<Vec<Vec<u8>>> {
        if self.rank == root {
            let mut out = vec![Vec::new(); self.nranks() as usize];
            out[root as usize] = mine.to_vec();
            for src in 0..self.nranks() {
                if src != root {
                    out[src as usize] = self.recv(src, COLLECTIVE_TAG).0;
                }
            }
            Some(out)
        } else {
            self.send(root, COLLECTIVE_TAG, mine.to_vec());
            None
        }
    }

    /// Gather everyone's buffer on every rank (gather at 0, then one framed
    /// broadcast — Θ(n) messages, not Θ(n²)). Every rank gets a view over
    /// the one framed buffer rank 0 assembled, so the collective allocates
    /// Θ(n) in total, not a `Vec` per part per rank.
    pub fn allgather(&self, mine: &[u8]) -> Gathered {
        if self.rank == 0 {
            let n = self.nranks();
            let mut framed = Vec::with_capacity(4 + n as usize * (4 + mine.len()));
            framed.extend_from_slice(&n.to_le_bytes());
            push_frame(&mut framed, mine);
            for src in 1..n {
                push_frame(&mut framed, &self.recv_payload(src, COLLECTIVE_TAG).0);
            }
            Gathered {
                framed: self.bcast_payload(0, &framed),
            }
        } else {
            self.send(0, COLLECTIVE_TAG, mine.to_vec());
            Gathered {
                framed: self.bcast_payload(0, &[]),
            }
        }
    }

    /// Reduce each rank's `u64` at rank 0 with `combine`, then broadcast
    /// the 8-byte result — the skeleton under every scalar all-reduce.
    ///
    /// Same message count as an `allgather`-based formulation (a gather
    /// leg plus a broadcast leg, `n-1` messages each), but Θ(n) payload
    /// bytes instead of Θ(n²): the broadcast carries one scalar, not the
    /// framed concatenation of every contribution. At thousands of ranks
    /// the framed variant dominated entire runs — each of `n` receivers
    /// got its own clone of an `n`-entry blob.
    fn allreduce_u64(&self, mine: u64, combine: impl Fn(u64, u64) -> u64) -> u64 {
        let gathered = self.gather(0, &mine.to_le_bytes());
        if self.rank == 0 {
            let total = gathered
                .expect("root gather")
                .iter()
                .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("u64 payload")))
                .fold(None, |acc: Option<u64>, v| {
                    Some(acc.map_or(v, |a| combine(a, v)))
                })
                .unwrap_or(0);
            self.bcast_payload(0, &total.to_le_bytes());
            total
        } else {
            let b = self.bcast_payload(0, &[]);
            u64::from_le_bytes((*b).try_into().expect("u64 payload"))
        }
    }

    /// Sum-reduce a `u64` across all ranks; result on every rank.
    pub fn allreduce_sum_u64(&self, mine: u64) -> u64 {
        self.allreduce_u64(mine, |a, b| a.wrapping_add(b))
    }

    /// Max-reduce a `u64` across all ranks; result on every rank.
    pub fn allreduce_max_u64(&self, mine: u64) -> u64 {
        self.allreduce_u64(mine, std::cmp::max)
    }

    /// Exclusive prefix sum: rank r receives the sum over ranks < r.
    /// Scalar gather + scalar scatter — Θ(n) payload bytes, the same
    /// message count as the gather+broadcast shape above.
    pub fn exscan_sum_u64(&self, mine: u64) -> u64 {
        let gathered = self.gather(0, &mine.to_le_bytes());
        if self.rank == 0 {
            let vals: Vec<u64> = gathered
                .expect("root gather")
                .iter()
                .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("u64 payload")))
                .collect();
            let mut acc = 0u64;
            let prefixes: Vec<Vec<u8>> = vals
                .iter()
                .map(|&v| {
                    let p = acc.to_le_bytes().to_vec();
                    acc = acc.wrapping_add(v);
                    p
                })
                .collect();
            let mine_out = self.scatter(0, Some(&prefixes));
            u64::from_le_bytes(mine_out.as_slice().try_into().expect("u64 payload"))
        } else {
            let b = self.scatter(0, None);
            u64::from_le_bytes(b.as_slice().try_into().expect("u64 payload"))
        }
    }

    /// Scatter: rank `root`'s `parts[d]` is delivered to rank `d`.
    pub fn scatter(&self, root: u32, parts: Option<&[Vec<u8>]>) -> Vec<u8> {
        if self.rank == root {
            let parts = parts.expect("root must supply the parts");
            assert_eq!(parts.len(), self.nranks() as usize);
            for (dst, buf) in parts.iter().enumerate() {
                if dst as u32 != root {
                    self.send(dst as u32, COLLECTIVE_TAG, buf.clone());
                }
            }
            parts[root as usize].clone()
        } else {
            self.recv(root, COLLECTIVE_TAG).0
        }
    }

    /// Combined send+receive with one partner each way (`MPI_Sendrecv`):
    /// posts the send first (buffered), then blocks on the receive, so
    /// symmetric exchanges cannot deadlock.
    pub fn sendrecv(
        &self,
        dst: u32,
        send_tag: u32,
        payload: Vec<u8>,
        src: u32,
        recv_tag: u32,
    ) -> Vec<u8> {
        self.send(dst, send_tag, payload);
        self.recv(src, recv_tag).0
    }
}

/// Append one length-prefixed part to allgather's framed buffer (which
/// starts with the part count).
fn push_frame(framed: &mut Vec<u8>, part: &[u8]) {
    framed.extend_from_slice(&(part.len() as u32).to_le_bytes());
    framed.extend_from_slice(part);
}

/// What [`Rank::allgather`] returns: every rank's contribution, indexed
/// by rank, as slices of the framed buffer the broadcast leg delivered.
#[derive(Debug, Clone)]
pub struct Gathered {
    framed: Payload,
}

impl Gathered {
    /// Number of parts (the world size).
    pub fn len(&self) -> usize {
        u32::from_le_bytes(self.framed[..4].try_into().expect("frame count")) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parts in rank order.
    pub fn iter(&self) -> Frames<'_> {
        Frames {
            rest: &self.framed[4..],
            left: self.len(),
        }
    }
}

impl<'a> IntoIterator for &'a Gathered {
    type Item = &'a [u8];
    type IntoIter = Frames<'a>;

    fn into_iter(self) -> Frames<'a> {
        self.iter()
    }
}

/// Iterator over the parts of a [`Gathered`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (len, rest) = self.rest.split_at(4);
        let len = u32::from_le_bytes(len.try_into().expect("frame len")) as usize;
        let (part, rest) = rest.split_at(len);
        self.rest = rest;
        Some(part)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Frames<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(parts: &[&[u8]]) -> Gathered {
        let mut buf = (parts.len() as u32).to_le_bytes().to_vec();
        for p in parts {
            push_frame(&mut buf, p);
        }
        Gathered {
            framed: Payload::Shared(Arc::from(buf)),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let big = [9u8; 100];
        let cases: [&[&[u8]]; 4] = [
            &[&[1, 2, 3], &[], &big],
            &[],
            &[&[]],
            &[&[], &[], &[7], &[]],
        ];
        for parts in cases {
            let g = framed(parts);
            assert_eq!(g.len(), parts.len());
            assert_eq!(g.is_empty(), parts.is_empty());
            assert_eq!(g.iter().len(), parts.len());
            assert_eq!(g.iter().collect::<Vec<_>>(), parts);
            // A second pass sees the same parts: the view borrows, it
            // does not consume.
            assert_eq!((&g).into_iter().collect::<Vec<_>>(), parts);
        }
    }
}
