//! # store — the crash-safe persistent verdict store
//!
//! The serve tier's cache dies with the process, so every restart used
//! to replay the full cold penalty — yet a semantics verdict is a pure
//! function of its cache key, expensive to derive and cheap to reuse.
//! This crate gives derived artifacts a durability story, from scratch
//! on `std` alone:
//!
//! * [`journal`] — an append-only write-ahead log of `(canonical key →
//!   artifact bytes)` frames, each length-prefixed and FNV-checksummed
//!   ([`frame`]), fsynced per append: a record is *committed* exactly
//!   when `put` returns.
//! * [`snapshot`] — periodic compaction of the whole map into an
//!   immutable segment (write `.tmp`, fsync, atomic rename, fsync dir),
//!   so recovery replays `snapshot + journal tail` instead of an
//!   unbounded log. Compaction never truncates a live journal in
//!   place; it rotates to a fresh one and only then deletes the old
//!   generation, so no crash point loses a committed record.
//! * recovery — replays the longest valid journal prefix and
//!   **quarantines** the corrupt suffix (torn tail, bit flip) to a side
//!   file; an invalid snapshot segment is quarantined whole (`.bad`)
//!   and recovery falls back to the previous generation plus every
//!   surviving journal. Never panics, never serves unverified bytes.
//! * [`lock`] — a kernel lock (`File::try_lock`) on a `LOCK` file so two
//!   live processes cannot interleave appends into one journal; the
//!   kernel releases it when its holder dies, SIGKILL included.
//!
//! Fault injection mirrors the PR 3 machinery: [`CrashPoint`] stops a
//! compaction between any two durability steps (after the tmp write,
//! after the rename, after the new journal) and poisons the handle, so
//! tests can drop + reopen and assert recovery from that exact state.
//!
//! Observability: `store.journal_appends`, `store.recovered_records`,
//! `store.quarantined_bytes`, `store.snapshot_compactions`, `store.hits`
//! (the last counted by the serve router).

pub mod frame;
pub mod journal;
pub mod lock;
pub mod snapshot;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A compaction step boundary at which an injected crash stops the
/// store — the moments a real crash would carve the directory apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// `snapshot-<g+1>.tmp` written and fsynced, rename not issued.
    AfterTmpWrite,
    /// Segment renamed into place; journal rotation not started.
    AfterRename,
    /// New-generation journal created; old generation not yet deleted.
    AfterNewJournal,
}

/// Store failure modes.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// The directory's lock file is held by a live process.
    Locked {
        holder_pid: u32,
    },
    /// An injected [`CrashPoint`] fired; the handle is now poisoned.
    InjectedCrash(CrashPoint),
    /// The handle was poisoned by an earlier injected crash.
    Poisoned,
    /// An imported segment failed byte verification (bad magic, tag
    /// mismatch, frame checksum, count); nothing was replayed.
    InvalidSegment(&'static str),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Locked { holder_pid } => write!(
                f,
                "store directory is locked by live pid {holder_pid} \
                 (one live process per store dir)"
            ),
            StoreError::InjectedCrash(p) => write!(f, "injected crash at {p:?}"),
            StoreError::Poisoned => write!(f, "store poisoned by an injected crash"),
            StoreError::InvalidSegment(why) => {
                write!(f, "segment failed verification: {why}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Tunables; `Default` matches `report serve`.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Journal size that triggers an automatic compaction on `put`.
    pub compact_threshold_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            // Small enough that a long-lived service compacts routinely,
            // large enough that compaction never dominates appends.
            compact_threshold_bytes: 8 << 20,
        }
    }
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Records loaded from the snapshot segment.
    pub snapshot_records: u64,
    /// Records replayed from journal(s) on top of the snapshot.
    pub journal_records: u64,
    /// Bytes quarantined from corrupt journal suffixes and invalid
    /// snapshot segments.
    pub quarantined_bytes: u64,
    /// Generation the store resumed at.
    pub generation: u64,
}

impl RecoveryStats {
    /// Every record recovery handed back to the cache tier.
    pub fn recovered_records(&self) -> u64 {
        self.snapshot_records + self.journal_records
    }
}

struct Inner {
    map: HashMap<String, Arc<Vec<u8>>>,
    journal: journal::Journal,
    gen: u64,
    crash_point: Option<CrashPoint>,
    poisoned: bool,
}

/// The persistent tier: an in-memory map mirrored by journal +
/// snapshot. `get` is a map lookup; `put` is a durable append.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    recovery: RecoveryStats,
    inner: Mutex<Inner>,
    _lock: lock::LockFile,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

/// Generations present in the directory, scanned from file names.
#[derive(Default)]
struct DirScan {
    snapshots: Vec<u64>,
    journals: Vec<u64>,
    tmp_files: Vec<PathBuf>,
    max_gen: u64,
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

fn scan_dir(dir: &Path) -> std::io::Result<DirScan> {
    let mut scan = DirScan::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = parse_gen(name, "snapshot-", ".seg") {
            scan.snapshots.push(gen);
            scan.max_gen = scan.max_gen.max(gen);
        } else if let Some(gen) = parse_gen(name, "journal-", ".log") {
            scan.journals.push(gen);
            scan.max_gen = scan.max_gen.max(gen);
        } else if name.ends_with(".tmp") {
            scan.tmp_files.push(entry.path());
        }
    }
    scan.snapshots.sort_unstable();
    scan.journals.sort_unstable();
    Ok(scan)
}

impl Store {
    /// Open (creating if needed) the store at `dir`: take the lock,
    /// recover snapshot + journal tail, quarantine anything corrupt,
    /// and clean stale generations up.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir)?;
        let lock = lock::LockFile::acquire(dir).map_err(|e| match e {
            Ok(holder_pid) => StoreError::Locked { holder_pid },
            Err(io) => StoreError::Io(io),
        })?;

        let scan = scan_dir(dir)?;
        let mut stats = RecoveryStats::default();
        let mut map: HashMap<String, Arc<Vec<u8>>> = HashMap::new();

        // Highest snapshot generation that fully validates wins; invalid
        // segments are quarantined whole and recovery falls back.
        let mut chosen_snapshot = None;
        let mut had_bad_snapshot = false;
        for &gen in scan.snapshots.iter().rev() {
            match snapshot::load(dir, gen) {
                Ok(entries) => {
                    stats.snapshot_records = entries.len() as u64;
                    for (k, v) in entries {
                        map.insert(k, Arc::new(v));
                    }
                    chosen_snapshot = Some(gen);
                    break;
                }
                Err(snapshot::SnapError::Io(e)) => return Err(StoreError::Io(e)),
                Err(snapshot::SnapError::Invalid(why)) => {
                    let path = dir.join(snapshot::file_name(gen));
                    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    let bad = dir.join(format!("{}.bad", snapshot::file_name(gen)));
                    std::fs::rename(&path, &bad)?;
                    stats.quarantined_bytes += size;
                    had_bad_snapshot = true;
                    obs::warn!(
                        "store: quarantined invalid snapshot gen {gen} ({why}, {size} bytes)"
                    );
                }
            }
        }
        let base_gen = chosen_snapshot.unwrap_or_else(|| {
            // No snapshot: resume at the oldest journal still present
            // (normally generation 0) so none of them is skipped.
            scan.journals.first().copied().unwrap_or(0)
        });

        // Replay the base generation's journal, then any newer journals
        // a crashed or corrupted compaction left behind, oldest first —
        // later appends overwrite earlier ones.
        let mut recovered = journal::recover(dir, base_gen)?;
        stats.quarantined_bytes += recovered.quarantined_bytes;
        let mut replay_tail =
            |entries: Vec<(String, Vec<u8>)>, map: &mut HashMap<String, Arc<Vec<u8>>>| {
                stats.journal_records += entries.len() as u64;
                for (k, v) in entries {
                    map.insert(k, Arc::new(v));
                }
            };
        replay_tail(std::mem::take(&mut recovered.entries), &mut map);
        let extra_journals: Vec<u64> = scan
            .journals
            .iter()
            .copied()
            .filter(|&g| g > base_gen)
            .collect();
        for &gen in &extra_journals {
            let extra = journal::recover(dir, gen)?;
            stats.quarantined_bytes += extra.quarantined_bytes;
            replay_tail(extra.entries, &mut map);
        }

        stats.generation = base_gen;
        let store = Store {
            dir: dir.to_path_buf(),
            opts,
            recovery: stats,
            inner: Mutex::new(Inner {
                map,
                journal: recovered.journal,
                gen: base_gen,
                crash_point: None,
                poisoned: false,
            }),
            _lock: lock,
        };

        // An anomalous layout (journals from several generations, or a
        // quarantined snapshot) is normalized by compacting immediately:
        // one fresh snapshot above every generation seen, then the sweep
        // below deletes the stragglers.
        if !extra_journals.is_empty() || had_bad_snapshot {
            let mut inner = store.inner.lock().unwrap();
            inner.gen = scan.max_gen;
            store.compact_locked(&mut inner)?;
        }
        store.sweep_stale()?;

        if obs::metrics_enabled() {
            let m = obs::metrics();
            m.add(
                "store.recovered_records",
                store.recovery.recovered_records(),
            );
            m.add("store.quarantined_bytes", store.recovery.quarantined_bytes);
        }
        Ok(store)
    }

    /// Delete files from generations other than the current one —
    /// superseded snapshots/journals and abandoned `.tmp` segments.
    /// Quarantine files are kept for post-mortems.
    fn sweep_stale(&self) -> Result<(), StoreError> {
        let gen = self.inner.lock().unwrap().gen;
        let scan = scan_dir(&self.dir)?;
        for g in scan.snapshots.into_iter().filter(|&g| g != gen) {
            let _ = std::fs::remove_file(self.dir.join(snapshot::file_name(g)));
        }
        for g in scan.journals.into_iter().filter(|&g| g != gen) {
            let _ = std::fs::remove_file(self.dir.join(journal::file_name(g)));
        }
        for tmp in scan.tmp_files {
            let _ = std::fs::remove_file(tmp);
        }
        let _ = journal::sync_dir(&self.dir);
        Ok(())
    }

    /// Look a canonical key up. Keys are exact canonical strings, so a
    /// hit can never alias a different query.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.inner.lock().unwrap().map.get(key).cloned()
    }

    /// Durably record `key → value`: journal append + fsync, then the
    /// in-memory map. Auto-compacts once the journal outgrows the
    /// configured threshold.
    pub fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err(StoreError::Poisoned);
        }
        inner.journal.append(key.as_bytes(), value)?;
        inner.map.insert(key.to_string(), Arc::new(value.to_vec()));
        if obs::metrics_enabled() {
            obs::metrics().add("store.journal_appends", 1);
        }
        if inner.journal.bytes() > self.opts.compact_threshold_bytes {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Compact now: snapshot the whole map and rotate the journal.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err(StoreError::Poisoned);
        }
        self.compact_locked(&mut inner)
    }

    /// Drain-time flush: compact only when the journal holds records,
    /// so a restart recovers from the snapshot alone.
    pub fn compact_if_dirty(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return Err(StoreError::Poisoned);
        }
        if inner.journal.records() == 0 {
            return Ok(());
        }
        self.compact_locked(&mut inner)
    }

    fn crash_check(&self, inner: &mut Inner, at: CrashPoint) -> Result<(), StoreError> {
        if inner.crash_point == Some(at) {
            inner.poisoned = true;
            return Err(StoreError::InjectedCrash(at));
        }
        Ok(())
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let next = inner.gen + 1;
        // Deterministic segment bytes: sorted keys, immutable once
        // renamed.
        let mut items: Vec<(&str, &[u8])> = inner
            .map
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        snapshot::write_tmp(&self.dir, next, items.into_iter())?;
        self.crash_check(inner, CrashPoint::AfterTmpWrite)?;

        std::fs::rename(
            self.dir.join(snapshot::tmp_name(next)),
            self.dir.join(snapshot::file_name(next)),
        )?;
        journal::sync_dir(&self.dir)?;
        self.crash_check(inner, CrashPoint::AfterRename)?;

        let new_journal = journal::Journal::create(&self.dir, next)?;
        journal::sync_dir(&self.dir)?;
        self.crash_check(inner, CrashPoint::AfterNewJournal)?;

        let old = inner.gen;
        let _ = std::fs::remove_file(self.dir.join(journal::file_name(old)));
        let _ = std::fs::remove_file(self.dir.join(snapshot::file_name(old)));
        let _ = journal::sync_dir(&self.dir);
        inner.gen = next;
        inner.journal = new_journal;
        if obs::metrics_enabled() {
            obs::metrics().add("store.snapshot_compactions", 1);
        }
        Ok(())
    }

    /// Serialize every entry whose key satisfies `pred` as one segment
    /// in the snapshot byte format, stamped with `tag` (the cluster tier
    /// passes the ownership epoch under negotiation). Keys are sorted,
    /// so the same map slice always yields the same bytes — the importer
    /// can compare counts and the transfer is reproducible. Returns the
    /// segment and the number of records in it.
    pub fn export_segment(&self, tag: u64, pred: impl Fn(&str) -> bool) -> (Vec<u8>, u64) {
        let inner = self.inner.lock().unwrap();
        let mut items: Vec<(&str, &[u8])> = inner
            .map
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        let records = items.len() as u64;
        (snapshot::encode(tag, items.into_iter()), records)
    }

    /// Verify `raw` against `tag` and replay every record through the
    /// normal durable put path (journal append + fsync each). All-or-
    /// nothing on verification: a segment that fails any check replays
    /// zero records. Returns the number of records imported.
    pub fn import_segment(&self, tag: u64, raw: &[u8]) -> Result<u64, StoreError> {
        let entries = match snapshot::parse(raw, tag) {
            Ok(entries) => entries,
            Err(snapshot::SnapError::Invalid(why)) => return Err(StoreError::InvalidSegment(why)),
            Err(snapshot::SnapError::Io(e)) => return Err(StoreError::Io(e)),
        };
        let n = entries.len() as u64;
        for (k, v) in &entries {
            self.put(k, v)?;
        }
        Ok(n)
    }

    /// Snapshot of the canonical keys currently held (sorted). Used by
    /// the cluster tier to partition the keyspace for handoff.
    pub fn keys(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut keys: Vec<String> = inner.map.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Arm (or disarm) the compaction fault injector.
    pub fn set_crash_point(&self, at: Option<CrashPoint>) {
        self.inner.lock().unwrap().crash_point = at;
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current snapshot/journal generation.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().gen
    }

    /// Journal length in bytes (header included).
    pub fn journal_bytes(&self) -> u64 {
        self.inner.lock().unwrap().journal.bytes()
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("store-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> Store {
        Store::open(dir, StoreOptions::default()).unwrap()
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let s = open(&dir);
            s.put("k1", b"v1").unwrap();
            s.put("k2", b"v2").unwrap();
            s.put("k1", b"v1-new").unwrap();
            assert_eq!(s.get("k1").unwrap().as_slice(), b"v1-new");
        }
        let s = open(&dir);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("k1").unwrap().as_slice(), b"v1-new");
        assert_eq!(s.get("k2").unwrap().as_slice(), b"v2");
        assert_eq!(s.recovery().journal_records, 3);
        assert_eq!(s.recovery().quarantined_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_moves_records_to_snapshot_and_rotates() {
        let dir = tmpdir("compact");
        {
            let s = open(&dir);
            for n in 0..10 {
                s.put(&format!("key-{n}"), format!("val-{n}").as_bytes())
                    .unwrap();
            }
            s.compact().unwrap();
            assert_eq!(s.generation(), 1);
            s.put("post", b"compaction").unwrap();
        }
        let s = open(&dir);
        assert_eq!(s.len(), 11);
        assert_eq!(s.recovery().snapshot_records, 10);
        assert_eq!(s.recovery().journal_records, 1);
        assert_eq!(s.recovery().generation, 1);
        assert_eq!(s.get("post").unwrap().as_slice(), b"compaction");
        // Old generation files are gone.
        assert!(!dir.join(journal::file_name(0)).exists());
        assert!(!dir.join(snapshot::file_name(0)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = tmpdir("auto");
        let s = Store::open(
            &dir,
            StoreOptions {
                compact_threshold_bytes: 256,
            },
        )
        .unwrap();
        for n in 0..64 {
            s.put(&format!("key-{n}"), &[7u8; 32]).unwrap();
        }
        assert!(s.generation() > 0, "threshold never compacted");
        assert_eq!(s.len(), 64);
        drop(s);
        let s = open(&dir);
        assert_eq!(s.len(), 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rename_and_rotation_loses_nothing() {
        // The classic hazard: the snapshot is renamed into place but the
        // journal was never rotated or deleted. Recovery must come back
        // with every committed record exactly once.
        for at in [
            CrashPoint::AfterTmpWrite,
            CrashPoint::AfterRename,
            CrashPoint::AfterNewJournal,
        ] {
            let dir = tmpdir(&format!("crash-{at:?}"));
            {
                let s = open(&dir);
                for n in 0..8 {
                    s.put(&format!("key-{n}"), format!("val-{n}").as_bytes())
                        .unwrap();
                }
                s.set_crash_point(Some(at));
                match s.compact() {
                    Err(StoreError::InjectedCrash(p)) => assert_eq!(p, at),
                    other => panic!("expected injected crash, got {other:?}"),
                }
                // Poisoned: no further appends allowed.
                assert!(matches!(s.put("x", b"y"), Err(StoreError::Poisoned)));
            }
            let s = open(&dir);
            assert_eq!(s.len(), 8, "crash at {at:?} lost records");
            for n in 0..8 {
                assert_eq!(
                    s.get(&format!("key-{n}")).unwrap().as_slice(),
                    format!("val-{n}").as_bytes(),
                    "crash at {at:?}"
                );
            }
            // And the store is fully usable again.
            s.put("after", b"crash").unwrap();
            s.compact().unwrap();
            drop(s);
            let s = open(&dir);
            assert_eq!(s.len(), 9);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_without_losing_journal() {
        let dir = tmpdir("badsnap");
        {
            let s = open(&dir);
            s.put("a", b"1").unwrap();
            s.compact().unwrap();
            s.put("b", b"2").unwrap();
        }
        // Rot a byte in the middle of the snapshot segment.
        let seg = dir.join(snapshot::file_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();

        let s = open(&dir);
        // The snapshot was quarantined; the journal tail still holds b,
        // and a (only in the bad snapshot) is genuinely lost — recovery
        // reports the quarantine instead of inventing bytes.
        assert!(s.recovery().quarantined_bytes > 0);
        assert_eq!(s.get("b").unwrap().as_slice(), b"2");
        assert!(s.get("a").is_none());
        assert!(dir.join(format!("{}.bad", snapshot::file_name(1))).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_export_import_roundtrip_is_durable() {
        let src_dir = tmpdir("seg-src");
        let dst_dir = tmpdir("seg-dst");
        let src = open(&src_dir);
        for n in 0..8 {
            src.put(&format!("key-{n}"), format!("val-{n}").as_bytes())
                .unwrap();
        }
        // Export only the even keys; tag is the epoch under negotiation.
        let (seg, records) = src.export_segment(7, |k| {
            k.trim_start_matches("key-").parse::<u32>().unwrap() % 2 == 0
        });
        assert_eq!(records, 4);
        {
            let dst = open(&dst_dir);
            assert_eq!(dst.import_segment(7, &seg).unwrap(), 4);
            assert_eq!(dst.get("key-2").unwrap().as_slice(), b"val-2");
            assert!(dst.get("key-1").is_none());
        }
        // Imported records went through the journal: they survive reopen.
        let dst = open(&dst_dir);
        assert_eq!(dst.len(), 4);
        assert_eq!(dst.get("key-6").unwrap().as_slice(), b"val-6");
        assert_eq!(dst.keys().len(), 4);
        std::fs::remove_dir_all(&src_dir).unwrap();
        std::fs::remove_dir_all(&dst_dir).unwrap();
    }

    #[test]
    fn import_rejects_wrong_tag_and_corruption_wholesale() {
        let src_dir = tmpdir("seg-bad-src");
        let dst_dir = tmpdir("seg-bad-dst");
        let src = open(&src_dir);
        src.put("a", b"1").unwrap();
        src.put("b", b"2").unwrap();
        let (seg, _) = src.export_segment(3, |_| true);
        let dst = open(&dst_dir);
        // Wrong epoch tag: rejected before any replay.
        assert!(matches!(
            dst.import_segment(4, &seg),
            Err(StoreError::InvalidSegment(_))
        ));
        // Any single corrupt byte rejects the whole segment.
        let mut bad = seg.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            dst.import_segment(3, &bad),
            Err(StoreError::InvalidSegment(_))
        ));
        // A truncated segment likewise.
        assert!(matches!(
            dst.import_segment(3, &seg[..seg.len() - 1]),
            Err(StoreError::InvalidSegment(_))
        ));
        assert_eq!(dst.len(), 0, "failed imports replayed records");
        assert_eq!(dst.import_segment(3, &seg).unwrap(), 2);
        std::fs::remove_dir_all(&src_dir).unwrap();
        std::fs::remove_dir_all(&dst_dir).unwrap();
    }

    #[test]
    fn two_stores_on_one_dir_are_refused() {
        let dir = tmpdir("locked");
        let first = open(&dir);
        match Store::open(&dir, StoreOptions::default()) {
            Err(StoreError::Locked { holder_pid }) => {
                assert_eq!(holder_pid, std::process::id())
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(first);
        open(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_lock_file_naming_a_live_pid_but_unlocked_opens() {
        // What a SIGKILLed holder leaves once its pid is reused by a live
        // process: only the kernel's lock says who holds the store.
        let dir = tmpdir("live-pid");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("LOCK"), std::process::id().to_string()).unwrap();
        open(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let dir = tmpdir("concurrent");
        let s = Arc::new(open(&dir));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for n in 0..50u32 {
                        let key = format!("key-{}", (t * 13 + n) % 31);
                        s.put(&key, &n.to_le_bytes()).unwrap();
                        let _ = s.get(&key);
                    }
                });
            }
        });
        let total = s.len();
        drop(s);
        let s = open(&dir);
        assert_eq!(s.len(), total);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
