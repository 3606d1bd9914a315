//! Server-side statistics: metadata operation counters, lock-manager and
//! data-server traffic. These feed the motivation benchmarks (strong
//! consistency ⇒ lock/metadata-server bottleneck, §3.1) and the per-server
//! load reports.

use std::collections::BTreeMap;

/// Aggregate server-side statistics of one PFS instance.
#[derive(Debug, Clone, Default)]
pub struct PfsStats {
    /// Total write calls that reached the file system.
    pub writes: u64,
    /// Total read calls.
    pub reads: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Extent locks acquired (strong semantics only) — the lock-manager
    /// traffic the paper blames for the metadata-server bottleneck.
    pub locks_acquired: u64,
    /// Lock revocations: a client touched an extent whose write lock was
    /// last held by a *different* client (the Lustre-style callback storm
    /// that makes shared-file strong consistency expensive).
    pub lock_revocations: u64,
    /// open / close round trips to the metadata server.
    pub opens: u64,
    pub closes: u64,
    /// Explicit commits (fsync / fdatasync / laminate).
    pub commits: u64,
    /// Publish events (pending extents becoming globally visible).
    pub publishes: u64,
    /// Extents buffered and not yet visible: every client's pending writes
    /// plus the delay queue, over all files, counted from those buffers
    /// when [`crate::Pfs::stats`] takes the snapshot (0 in the running
    /// instance's own copy).
    pub pending_extents: u64,
    /// Metadata operation counts, keyed by POSIX function name (the
    /// `pfssim.meta.<name>` counters). Figure 3's census is computed from
    /// the trace, not from these.
    pub meta_ops: BTreeMap<&'static str, u64>,
    /// Per-data-server bytes written, indexed by server (striped layout).
    pub server_bytes_written: Vec<u64>,
    /// Per-data-server bytes read.
    pub server_bytes_read: Vec<u64>,
}

impl PfsStats {
    pub fn new(data_servers: u32) -> Self {
        PfsStats {
            server_bytes_written: vec![0; data_servers as usize],
            server_bytes_read: vec![0; data_servers as usize],
            ..Default::default()
        }
    }

    /// Count one call of the POSIX metadata function `name`.
    pub fn count_meta(&mut self, name: &'static str) {
        *self.meta_ops.entry(name).or_insert(0) += 1;
    }

    /// Mirror this instance's counters into a shared [`obs::Registry`]
    /// under `pfssim.*` names. Called once per run at quiesce time, so
    /// the global totals accumulate deterministically across configs and
    /// thread counts while reports keep reading per-instance stats.
    pub fn publish_to(&self, reg: &obs::Registry) {
        reg.add("pfssim.writes", self.writes);
        reg.add("pfssim.reads", self.reads);
        reg.add("pfssim.bytes_written", self.bytes_written);
        reg.add("pfssim.bytes_read", self.bytes_read);
        reg.add("pfssim.locks_acquired", self.locks_acquired);
        reg.add("pfssim.lock_revocations", self.lock_revocations);
        reg.add("pfssim.opens", self.opens);
        reg.add("pfssim.closes", self.closes);
        reg.add("pfssim.commits", self.commits);
        reg.add("pfssim.publishes", self.publishes);
        for (name, n) in &self.meta_ops {
            reg.add(&format!("pfssim.meta.{name}"), *n);
        }
        for (s, b) in self.server_bytes_written.iter().enumerate() {
            if *b > 0 {
                reg.add(&format!("pfssim.server{s}.bytes_written"), *b);
            }
        }
        for (s, b) in self.server_bytes_read.iter().enumerate() {
            if *b > 0 {
                reg.add(&format!("pfssim.server{s}.bytes_read"), *b);
            }
        }
    }

    /// Attribute `len` bytes at `offset` to data servers under a
    /// round-robin stripe layout.
    pub fn stripe_account(&mut self, offset: u64, len: u64, stripe: u64, write: bool) {
        let n = self.server_bytes_written.len() as u64;
        if n == 0 || len == 0 {
            return;
        }
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe_idx = pos / stripe;
            let server = (stripe_idx % n) as usize;
            let stripe_end = (stripe_idx + 1) * stripe;
            let chunk = stripe_end.min(end) - pos;
            if write {
                self.server_bytes_written[server] += chunk;
            } else {
                self.server_bytes_read[server] += chunk;
            }
            pos += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_accounting_round_robin() {
        let mut s = PfsStats::new(4);
        // 10 bytes at offset 0 with stripe 4 → servers 0,1,2 get 4,4,2.
        s.stripe_account(0, 10, 4, true);
        assert_eq!(s.server_bytes_written, vec![4, 4, 2, 0]);
        // Offset 4 → starts at server 1.
        s.stripe_account(4, 4, 4, false);
        assert_eq!(s.server_bytes_read, vec![0, 4, 0, 0]);
    }

    #[test]
    fn meta_counting() {
        let mut s = PfsStats::new(1);
        s.count_meta("stat");
        s.count_meta("stat");
        s.count_meta("unlink");
        assert_eq!(s.meta_ops["stat"], 2);
        assert_eq!(s.meta_ops.values().sum::<u64>(), 3);
    }
}
