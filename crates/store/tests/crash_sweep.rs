//! Crash-point sweep: the store's fault model, exercised exhaustively.
//!
//! The contract under test — for *any* byte-level damage to the journal
//! tail and *any* compaction crash point:
//!
//! 1. recovery never panics;
//! 2. every fully-committed record comes back exactly (committed prefix,
//!    nothing more, nothing less);
//! 3. damaged suffixes are quarantined deterministically — same damage,
//!    same quarantine file, same surviving prefix;
//! 4. the recovered store accepts appends and survives another cycle.
//!
//! Cases are generated from pinned [`simrng`] seeds (the workspace's
//! `proptest` substitute — no registry dependencies), plus exhaustive
//! sweeps over every truncation offset and every tail-byte bit flip.

use std::path::{Path, PathBuf};

use simrng::SimRng;
use store::{journal, CrashPoint, Store, StoreError, StoreOptions};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Store {
    Store::open(dir, StoreOptions::default()).unwrap()
}

/// Seed a store with `n` records via the public API and return the
/// expected map.
fn seed_store(dir: &Path, n: usize) -> Vec<(String, Vec<u8>)> {
    let s = open(dir);
    let mut expect = Vec::new();
    for i in 0..n {
        let key = format!("app=demo\0cfg=c{i}\0ranks=8");
        let val = format!("verdict-bytes-{i}-{}", "x".repeat(i * 7 % 23));
        s.put(&key, val.as_bytes()).unwrap();
        expect.push((key, val.into_bytes()));
    }
    expect
}

fn assert_store_matches(s: &Store, expect: &[(String, Vec<u8>)]) {
    assert_eq!(s.len(), expect.len());
    for (k, v) in expect {
        assert_eq!(
            s.get(k).map(|b| b.to_vec()),
            Some(v.clone()),
            "record {k:?} diverged"
        );
    }
}

/// Truncate the journal at every possible byte length. Recovery must
/// keep exactly the records whose frames survived whole — the committed
/// prefix — and never panic or invent a record.
#[test]
fn truncation_sweep_recovers_exactly_the_committed_prefix() {
    let dir = tmpdir("truncate");
    let expect = seed_store(&dir, 4);
    let jpath = dir.join(journal::file_name(0));
    let pristine = std::fs::read(&jpath).unwrap();

    // Frame boundaries: offsets at which exactly k records are committed.
    let mut boundaries = vec![journal::HEADER_LEN];
    {
        let mut at = journal::HEADER_LEN;
        for (k, v) in &expect {
            at += store::frame::frame_len(k.as_bytes(), v);
            boundaries.push(at);
        }
    }
    assert_eq!(*boundaries.last().unwrap(), pristine.len());

    for cut in 0..=pristine.len() {
        // Restore pristine bytes, then cut. (The LOCK file stays, but
        // nobody holds its lock between opens: Store::drop releases it.)
        std::fs::write(&jpath, &pristine[..cut]).unwrap();
        // Remove earlier quarantine files so each iteration is clean.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("quarantine-"))
            {
                std::fs::remove_file(p).unwrap();
            }
        }

        let committed = boundaries.iter().filter(|&&b| b <= cut).count().max(1) - 1;
        let s = Store::open(&dir, StoreOptions::default())
            .unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        assert_store_matches(&s, &expect[..committed]);

        // A cut inside a frame (or inside the header) quarantines the
        // torn bytes; a cut exactly on a boundary leaves nothing to
        // quarantine. `cut == 0` is the empty file: nothing to save.
        let on_boundary = boundaries.contains(&cut);
        assert_eq!(
            s.recovery().quarantined_bytes > 0,
            !on_boundary && cut > 0,
            "cut {cut}: unexpected quarantine state"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flip every bit of the final record's bytes, one at a time. The
/// damaged record must never be served; every earlier record must
/// survive; recovery must never panic.
#[test]
fn tail_bit_flip_sweep_never_serves_damaged_bytes() {
    let dir = tmpdir("bitflip");
    let expect = seed_store(&dir, 3);
    let jpath = dir.join(journal::file_name(0));
    let pristine = std::fs::read(&jpath).unwrap();
    let last_frame_start =
        pristine.len() - store::frame::frame_len(expect[2].0.as_bytes(), &expect[2].1);

    for byte in last_frame_start..pristine.len() {
        for bit in 0..8 {
            let mut bad = pristine.clone();
            bad[byte] ^= 1 << bit;
            std::fs::write(&jpath, &bad).unwrap();
            let s = Store::open(&dir, StoreOptions::default())
                .unwrap_or_else(|e| panic!("flip {byte}:{bit}: open failed: {e}"));
            // The first two records are untouched and must survive; the
            // damaged third must be quarantined, never served wrong.
            for (k, v) in &expect[..2] {
                assert_eq!(s.get(k).map(|b| b.to_vec()), Some(v.clone()));
            }
            if let Some(got) = s.get(&expect[2].0) {
                assert_eq!(
                    got.as_slice(),
                    expect[2].1.as_slice(),
                    "flip {byte}:{bit} served corrupted bytes"
                );
            }
            assert!(
                s.recovery().quarantined_bytes > 0,
                "flip {byte}:{bit} went undetected"
            );
            drop(s);
            // Clean quarantine files between iterations.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let p = entry.unwrap().path();
                if p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("quarantine-"))
                {
                    std::fs::remove_file(p).unwrap();
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deterministic quarantine: the same damage yields the same surviving
/// records and the same quarantine file name, every time.
#[test]
fn quarantine_is_deterministic() {
    let mut rng = SimRng::seed_from_u64(0x5709E);
    for case in 0..20 {
        let dir = tmpdir(&format!("det-{case}"));
        let n = 1 + rng.range_usize(0, 5);
        let expect = seed_store(&dir, n);
        let jpath = dir.join(journal::file_name(0));
        let pristine = std::fs::read(&jpath).unwrap();
        let byte = rng.range_usize(journal::HEADER_LEN, pristine.len());
        let mut bad = pristine.clone();
        bad[byte] ^= 1 << rng.range_u32(0, 8);

        let mut outcomes = Vec::new();
        for _ in 0..2 {
            std::fs::write(&jpath, &bad).unwrap();
            for entry in std::fs::read_dir(&dir).unwrap() {
                let p = entry.unwrap().path();
                if p.file_name()
                    .and_then(|nm| nm.to_str())
                    .is_some_and(|nm| nm.starts_with("quarantine-"))
                {
                    std::fs::remove_file(p).unwrap();
                }
            }
            let s = Store::open(&dir, StoreOptions::default()).unwrap();
            let mut keys: Vec<String> = expect
                .iter()
                .filter(|(k, _)| s.get(k).is_some())
                .map(|(k, _)| k.clone())
                .collect();
            keys.sort();
            let qfile: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.unwrap().file_name().into_string().ok())
                .filter(|nm| nm.starts_with("quarantine-"))
                .collect();
            outcomes.push((keys, s.recovery().quarantined_bytes, qfile));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "case {case}: nondeterministic recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every compaction crash point, against a store that then keeps living:
/// reopen recovers all records, appends keep working, and a second
/// crash-recover cycle is just as safe.
#[test]
fn compaction_crash_points_then_continued_use() {
    for at in [
        CrashPoint::AfterTmpWrite,
        CrashPoint::AfterRename,
        CrashPoint::AfterNewJournal,
    ] {
        let dir = tmpdir(&format!("cycle-{at:?}"));
        let mut expect = seed_store(&dir, 6);
        {
            let s = open(&dir);
            s.set_crash_point(Some(at));
            assert!(matches!(s.compact(), Err(StoreError::InjectedCrash(_))));
            assert!(matches!(s.put("k", b"v"), Err(StoreError::Poisoned)));
        }
        // First recovery: everything back, store usable.
        {
            let s = open(&dir);
            assert_store_matches(&s, &expect);
            s.put("post-crash", b"alive").unwrap();
            expect.push(("post-crash".into(), b"alive".to_vec()));
            // Crash a *second* compaction at the same point.
            s.set_crash_point(Some(at));
            assert!(s.compact().is_err());
        }
        // Second recovery: still everything.
        {
            let s = open(&dir);
            assert_store_matches(&s, &expect);
            s.compact().unwrap();
        }
        // And a clean compaction leaves a store that recovers from the
        // snapshot alone.
        let s = open(&dir);
        assert_store_matches(&s, &expect);
        assert_eq!(s.recovery().journal_records, 0);
        assert_eq!(s.recovery().snapshot_records, expect.len() as u64);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Seeded random torture: interleave puts, compactions, injected
/// crashes, and random tail damage; after every cycle the store must
/// hold exactly the committed state.
#[test]
fn randomized_crash_recover_torture() {
    let mut rng = SimRng::seed_from_u64(0x70A7);
    let dir = tmpdir("torture");
    let mut expect: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
    let _ = open(&dir); // create the directory layout

    for round in 0..30 {
        let s = open(&dir);
        // The store must hold exactly what committed so far.
        assert_eq!(s.len(), expect.len(), "round {round}");
        for (k, v) in &expect {
            assert_eq!(
                s.get(k).map(|b| b.to_vec()),
                Some(v.clone()),
                "round {round}: {k}"
            );
        }
        // A few puts.
        for _ in 0..rng.range_usize(1, 6) {
            let k = format!("key-{}", rng.range_u32(0, 40));
            let v = vec![rng.next_u32() as u8; rng.range_usize(1, 64)];
            s.put(&k, &v).unwrap();
            expect.insert(k, v);
        }
        // Sometimes compact; sometimes crash the compaction.
        match rng.range_u32(0, 4) {
            0 => s.compact().unwrap(),
            1 => {
                let at = [
                    CrashPoint::AfterTmpWrite,
                    CrashPoint::AfterRename,
                    CrashPoint::AfterNewJournal,
                ][rng.range_usize(0, 3)];
                s.set_crash_point(Some(at));
                assert!(s.compact().is_err());
            }
            _ => {}
        }
        drop(s);
        // Sometimes tear the journal tail — only damages the *file*,
        // never a committed record boundary we still expect: simulate
        // by appending garbage (a torn in-flight frame).
        if rng.range_u32(0, 3) == 0 {
            use std::io::Write as _;
            let scan: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with("journal-"))
                })
                .collect();
            if let Some(j) = scan.first() {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(j.path())
                    .unwrap();
                let garbage: Vec<u8> = (0..rng.range_usize(1, 40))
                    .map(|_| rng.next_u32() as u8)
                    .collect();
                f.write_all(&garbage).unwrap();
            }
        }
    }
    let s = open(&dir);
    assert_eq!(s.len(), expect.len());
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}
