//! PFS configuration and the consistency-model selector.

/// The four consistency-semantics categories the paper defines in §3,
/// ordered from strongest to weakest. The analysis side defines the same
/// lattice (in `semantics-core`); this copy selects the *execution engine*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SemanticsModel {
    /// POSIX sequential consistency: a write is visible to every subsequent
    /// (happens-before ordered) read as soon as it returns. §3.1.
    Strong,
    /// Writes become globally visible when the writing process commits
    /// (`fsync`/`fdatasync`/`close`/laminate). §3.2.
    Commit,
    /// Close-to-open: writes become visible to processes that open the file
    /// after the writer closed it. §3.3.
    Session,
    /// Writes propagate after an unspecified delay, with no commit
    /// operation required (and commits do not accelerate visibility). §3.4.
    Eventual,
}

impl std::fmt::Display for SemanticsModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl SemanticsModel {
    pub const ALL: [SemanticsModel; 4] = [
        SemanticsModel::Strong,
        SemanticsModel::Commit,
        SemanticsModel::Session,
        SemanticsModel::Eventual,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SemanticsModel::Strong => "strong",
            SemanticsModel::Commit => "commit",
            SemanticsModel::Session => "session",
            SemanticsModel::Eventual => "eventual",
        }
    }

    /// True if this model is at least as strong as `other`
    /// (strong ≥ commit ≥ session ≥ eventual).
    pub fn at_least(self, other: SemanticsModel) -> bool {
        self <= other
    }
}

/// Static configuration of a simulated PFS instance.
#[derive(Debug, Clone, Copy)]
pub struct PfsConfig {
    /// Which consistency engine executes data operations.
    pub semantics: SemanticsModel,
    /// Stripe size in bytes (data is striped round-robin over the data
    /// servers, as on Lustre).
    pub stripe_size: u64,
    /// Number of data servers (OSTs).
    pub data_servers: u32,
    /// Propagation delay for [`SemanticsModel::Eventual`], in simulated
    /// nanoseconds.
    pub eventual_delay_ns: u64,
    /// Lock granularity in bytes for the strong engine's extent locks
    /// (Lustre-style). Each data operation acquires
    /// ceil(len / lock_granularity) locks, all counted by the lock manager.
    pub lock_granularity: u64,
    /// If false, two writes by the *same* process to the same bytes may be
    /// published out of order (the BurstFS anomaly discussed in §3.5).
    /// Defaults to true: same-process ordering is preserved.
    pub same_process_ordering: bool,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            semantics: SemanticsModel::Strong,
            stripe_size: 1 << 20, // 1 MiB, Lustre default
            data_servers: 8,
            eventual_delay_ns: 50_000_000, // 50 ms
            lock_granularity: 1 << 20,
            same_process_ordering: true,
        }
    }
}

impl PfsConfig {
    pub fn with_semantics(mut self, semantics: SemanticsModel) -> Self {
        self.semantics = semantics;
        self
    }

    pub fn with_eventual_delay_ns(mut self, ns: u64) -> Self {
        self.eventual_delay_ns = ns;
        self
    }

    pub fn with_burstfs_reordering(mut self) -> Self {
        self.same_process_ordering = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order() {
        use SemanticsModel::*;
        assert!(Strong.at_least(Commit));
        assert!(Commit.at_least(Session));
        assert!(Session.at_least(Eventual));
        assert!(Strong.at_least(Strong));
        assert!(!Eventual.at_least(Session));
        assert!(!Session.at_least(Commit));
    }
}
