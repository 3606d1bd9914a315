//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is part of the world configuration: it names, ahead of
//! time, which rank misbehaves at which *operation index* (the per-rank
//! count of simulated operations — every `timed_op`, send, receive and
//! barrier entry increments it). Because the scheduler is deterministic,
//! `(seed, plan, program)` fully determines when each fault fires and
//! therefore the entire trace; running the same plan twice yields
//! byte-identical artifacts.
//!
//! Four fault kinds are modelled:
//!
//! * **Crash** — the rank fail-stops at the chosen op boundary
//!   ([`crate::SimError::RankCrashed`]). Like every site it fires at the
//!   first op at or after its index, which for a crash is the index itself:
//!   every op is checked for one. Survivors keep running: barriers
//!   release once every *live* rank has arrived (ULFM-style departure),
//!   and a receive from a dead peer with a drained channel fail-stops the
//!   receiver too ([`crate::SimError::PeerCrashed`]) — a cascading job
//!   death, as on a real machine, but every rank's partial trace survives.
//! * **Transient I/O error** — `EINTR`/`EIO`/`ENOSPC`-style failures
//!   surfaced to the I/O harness at the first POSIX call at or after the
//!   chosen index. The harness absorbs them with bounded
//!   retry-with-backoff in simulated time.
//! * **Lost flush** — the next commit operation (`fsync`/`fdatasync`)
//!   at or after the chosen index reports success but never publishes the
//!   buffered writes: data that never reaches commit visibility.
//! * **Message delay** — the first point-to-point send at or after the
//!   chosen index is delivered only after `delay_ns` of simulated time:
//!   the receive that takes it starts no earlier than the delivery time,
//!   and messages behind it on the same channel wait for it.

use crate::SimError;
use simrng::SimRng;

/// A transient I/O misbehaviour, in POSIX errno vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// `EINTR`: the call was interrupted; retrying succeeds.
    Eintr,
    /// `EIO`: a transient device error.
    Eio,
    /// `ENOSPC`: the target was briefly out of space.
    Enospc,
    /// The next commit op succeeds but its buffered writes are never
    /// published (a flush acknowledged by a tier that lost it).
    LostFlush,
}

impl IoFault {
    pub const TRANSIENT: [IoFault; 3] = [IoFault::Eintr, IoFault::Eio, IoFault::Enospc];

    pub fn name(self) -> &'static str {
        match self {
            IoFault::Eintr => "EINTR",
            IoFault::Eio => "EIO",
            IoFault::Enospc => "ENOSPC",
            IoFault::LostFlush => "LOST_FLUSH",
        }
    }
}

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop the rank at exactly the chosen op index.
    Crash,
    /// Inject an I/O fault at the first file-system call at or after the
    /// chosen index.
    Io(IoFault),
    /// Delay delivery of the first send at or after the chosen index.
    MsgDelay { delay_ns: u64 },
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Io(IoFault::Eintr) => "io-eintr",
            FaultKind::Io(IoFault::Eio) => "io-eio",
            FaultKind::Io(IoFault::Enospc) => "io-enospc",
            FaultKind::Io(IoFault::LostFlush) => "lost-flush",
            FaultKind::MsgDelay { .. } => "msg-delay",
        }
    }
}

/// One planned fault: `kind` strikes `rank` at (or, for deferred kinds,
/// after) its `at_op`-th simulated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    pub rank: u32,
    pub at_op: u64,
    pub kind: FaultKind,
}

/// The complete, pre-committed fault schedule of one world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// The empty plan: a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Add one fault site (builder-style).
    pub fn with(mut self, rank: u32, at_op: u64, kind: FaultKind) -> Self {
        self.sites.push(FaultSite { rank, at_op, kind });
        self
    }

    pub fn with_crash(self, rank: u32, at_op: u64) -> Self {
        self.with(rank, at_op, FaultKind::Crash)
    }

    /// Draw `count` fault sites of `kind` from a seeded RNG: victim ranks
    /// uniform over the world, op indices uniform over `[1, max_op]`.
    /// The draw is part of the determinism contract — a given
    /// `(seed, nranks, kind, count, max_op)` always yields the same plan.
    pub fn seeded(seed: u64, nranks: u32, kind: FaultKind, count: usize, max_op: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ PLAN_SEED_TWEAK);
        let mut plan = FaultPlan::none();
        for _ in 0..count {
            let rank = rng.range_u32(0, nranks.max(1));
            let at_op = 1 + rng.range_u64(0, max_op.max(1));
            plan.sites.push(FaultSite { rank, at_op, kind });
        }
        plan
    }

    /// Check that every site names a rank of a world of `nranks` ranks;
    /// the first that does not is [`SimError::InvalidRank`]. A front end
    /// that takes a plan from outside checks it before building a world,
    /// which asserts it.
    pub fn check_ranks(&self, nranks: u32) -> Result<(), SimError> {
        match self.sites.iter().find(|s| s.rank >= nranks) {
            Some(s) => Err(SimError::InvalidRank {
                rank: s.rank,
                nranks,
            }),
            None => Ok(()),
        }
    }

    /// A short deterministic description, for table rows and logs.
    /// [`FaultPlan::parse`] accepts exactly this format back.
    pub fn describe(&self) -> String {
        if self.sites.is_empty() {
            return "none".to_string();
        }
        self.sites
            .iter()
            .map(|s| format!("{}@r{}:op{}", s.kind.name(), s.rank, s.at_op))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parse a plan back from its [`describe`](FaultPlan::describe)
    /// rendering — `"none"`, `""`, or a comma-separated list of
    /// `kind@rN:opM` sites (`msg-delay` takes an optional `:NNns` delay
    /// suffix, default 5 ms). This is what lets a serving layer accept
    /// what-if fault plans as query parameters: the description *is* the
    /// wire format, and `(seed, parsed plan, program)` determines the
    /// trace exactly as if the plan had been built in-process.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.is_empty() || text == "none" {
            return Ok(FaultPlan::none());
        }
        let mut plan = FaultPlan::none();
        for part in text.split(',') {
            let part = part.trim();
            let (kind_name, site) = part
                .split_once('@')
                .ok_or_else(|| format!("fault site {part:?}: expected kind@rN:opM"))?;
            let mut fields = site.split(':');
            let rank_field = fields.next().unwrap_or("");
            let op_field = fields
                .next()
                .ok_or_else(|| format!("fault site {part:?}: missing :opM"))?;
            let rank: u32 = rank_field
                .strip_prefix('r')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("fault site {part:?}: bad rank {rank_field:?}"))?;
            let at_op: u64 = op_field
                .strip_prefix("op")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("fault site {part:?}: bad op index {op_field:?}"))?;
            let kind = match kind_name {
                "crash" => FaultKind::Crash,
                "io-eintr" => FaultKind::Io(IoFault::Eintr),
                "io-eio" => FaultKind::Io(IoFault::Eio),
                "io-enospc" => FaultKind::Io(IoFault::Enospc),
                "lost-flush" => FaultKind::Io(IoFault::LostFlush),
                "msg-delay" => {
                    let delay_ns = match fields.next() {
                        None => 5_000_000,
                        Some(d) => d
                            .strip_suffix("ns")
                            .and_then(|n| n.parse().ok())
                            .ok_or_else(|| format!("fault site {part:?}: bad delay {d:?}"))?,
                    };
                    FaultKind::MsgDelay { delay_ns }
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            if let Some(extra) = fields.next() {
                return Err(format!("fault site {part:?}: trailing field {extra:?}"));
            }
            plan.sites.push(FaultSite { rank, at_op, kind });
        }
        Ok(plan)
    }
}

/// Seed tweak separating the plan-generation RNG stream from the
/// scheduler and skew streams derived from the same world seed.
const PLAN_SEED_TWEAK: u64 = 0xfa17_fa17_fa17_fa17;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 8, FaultKind::Crash, 3, 100);
        let b = FaultPlan::seeded(7, 8, FaultKind::Crash, 3, 100);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 8, FaultKind::Crash, 3, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn parse_roundtrips_describe() {
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_crash(1, 10),
            FaultPlan::none()
                .with_crash(3, 7)
                .with(2, 5, FaultKind::Io(IoFault::Eio))
                .with(0, 9, FaultKind::Io(IoFault::LostFlush)),
            FaultPlan::seeded(11, 8, FaultKind::Io(IoFault::Enospc), 4, 64),
            FaultPlan::none().with(
                1,
                4,
                FaultKind::MsgDelay {
                    delay_ns: 5_000_000,
                },
            ),
        ];
        for plan in plans {
            let parsed = FaultPlan::parse(&plan.describe()).expect("parse own description");
            assert_eq!(parsed, plan, "roundtrip of {:?}", plan.describe());
        }
    }

    #[test]
    fn parse_accepts_explicit_delay_and_none_spellings() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse(" none ").unwrap(), FaultPlan::none());
        let p = FaultPlan::parse("msg-delay@r2:op8:250000ns").unwrap();
        assert_eq!(
            p.sites(),
            &[FaultSite {
                rank: 2,
                at_op: 8,
                kind: FaultKind::MsgDelay { delay_ns: 250_000 },
            }]
        );
    }

    #[test]
    fn parse_rejects_malformed_sites() {
        for bad in [
            "crash",
            "crash@x1:op2",
            "crash@r1",
            "crash@r1:2",
            "crash@r1:op2:junk",
            "explode@r1:op2",
            "msg-delay@r1:op2:fast",
            "crash@r-1:op2",
            "crash@r1:op2,,",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn builder_accumulates_sites() {
        let p = FaultPlan::none()
            .with_crash(1, 10)
            .with(2, 5, FaultKind::Io(IoFault::Eio));
        assert_eq!(p.sites().len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.describe(), "crash@r1:op10,io-eio@r2:op5");
    }
}
