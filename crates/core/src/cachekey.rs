//! Stable cache-key derivation for derived-analysis results.
//!
//! A consistency verdict (and everything else the analysis produces) is a
//! pure function of the simulated run's inputs: the application
//! configuration, the world size, the seed, the semantics model under
//! inspection, and the fault plan. The serving layer caches analysis
//! results under a key derived from exactly those components, so the key
//! must be *stable* — identical across processes, platforms, and thread
//! counts — which rules out `std`'s `RandomState` hashing.
//!
//! A [`CacheKey`] carries two things:
//!
//! * the **canonical string** — `app=FLASH\0cfg=fbs\0…` — compared on
//!   lookup, so hash collisions can never alias two distinct queries;
//! * a **128-bit FNV-1a fingerprint** of that string
//!   ([`obs::fnv::fnv1a128`]), used for shard selection, ring placement
//!   and cheap inequality tests.
//!
//! Component order is significant (the builder renders them in insertion
//! order), and each component is a tagged `name=value` pair separated by
//! NUL — a byte that cannot appear in any component value — so
//! `("ab", "c")` and `("a", "bc")` can never produce the same canonical
//! form.

use obs::fnv::fnv1a128;

/// Incrementally builds a [`CacheKey`] from tagged components.
#[derive(Debug, Default, Clone)]
pub struct CacheKeyBuilder {
    canonical: String,
}

impl CacheKeyBuilder {
    pub fn new() -> Self {
        CacheKeyBuilder::default()
    }

    /// Append one tagged string component. NUL bytes in `value` are
    /// rejected by replacement (they cannot occur in config names, model
    /// names, or fault-plan descriptions; replacing keeps the canonical
    /// form unambiguous even for hostile input).
    pub fn push(mut self, name: &str, value: &str) -> Self {
        if !self.canonical.is_empty() {
            self.canonical.push('\0');
        }
        self.canonical.push_str(name);
        self.canonical.push('=');
        for c in value.chars() {
            self.canonical.push(if c == '\0' { '\u{fffd}' } else { c });
        }
        self
    }

    /// Append one tagged integer component.
    pub fn push_u64(self, name: &str, value: u64) -> Self {
        let rendered = value.to_string();
        self.push(name, &rendered)
    }

    pub fn finish(self) -> CacheKey {
        let fp = fnv1a128(self.canonical.as_bytes());
        CacheKey {
            canonical: self.canonical,
            fp,
        }
    }
}

/// A finished key: canonical string plus 128-bit fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    canonical: String,
    fp: (u64, u64),
}

impl CacheKey {
    /// The canonical `name=value\0…` rendering — the equality witness.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Rehydrate a key from its canonical rendering (the form the
    /// persistent store indexes by), recomputing the fingerprint. The
    /// cluster tier uses this to place stored records back on the
    /// consistent-hash ring when partitioning a store for handoff.
    pub fn from_canonical(canonical: String) -> CacheKey {
        let fp = fnv1a128(canonical.as_bytes());
        CacheKey { canonical, fp }
    }

    /// The stable 128-bit fingerprint as two words.
    pub fn fingerprint(&self) -> (u64, u64) {
        self.fp
    }

    /// A stable shard index in `[0, shards)` derived from the
    /// fingerprint's high word (the low word picks hash-map buckets, so
    /// using distinct words keeps the two decorrelated).
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        (self.fp.0 as usize) % shards.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_key(app: &str, cfg: &str, ranks: u64, seed: u64, model: &str) -> CacheKey {
        CacheKeyBuilder::new()
            .push("app", app)
            .push("cfg", cfg)
            .push_u64("ranks", ranks)
            .push_u64("seed", seed)
            .push("model", model)
            .push("faults", "none")
            .finish()
    }

    /// Stores and rings place records by these fingerprints, so they must
    /// not move: the values were recorded before the hash moved to
    /// `obs::fnv`.
    #[test]
    fn canonical_keys_keep_their_fingerprints() {
        let cases = [
            (
                CacheKeyBuilder::new().finish(),
                (0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142),
            ),
            (
                verdict_key("FLASH", "fbs", 64, 2021, "session"),
                (0x253f_8b22_1674_2372, 0x150b_fd7a_0ca9_9c44),
            ),
            (
                CacheKeyBuilder::new()
                    .push("view", "conflicts")
                    .push("app", "ENZO")
                    .push("cfg", "HDF5 \u{e9}\u{1F600}")
                    .push_u64("ranks", u64::MAX)
                    .finish(),
                (0x3645_2ae3_5f1e_26bc, 0xc9a5_baba_2206_fc20),
            ),
        ];
        for (key, fp) in cases {
            assert_eq!(key.fingerprint(), fp, "{:?}", key.canonical());
            assert_eq!(CacheKey::from_canonical(key.canonical().to_string()), key);
        }
    }

    #[test]
    fn identical_inputs_identical_keys() {
        let a = verdict_key("FLASH", "fbs", 64, 2021, "session");
        let b = verdict_key("FLASH", "fbs", 64, 2021, "session");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn any_component_change_changes_the_key() {
        let base = verdict_key("FLASH", "fbs", 64, 2021, "session");
        for other in [
            verdict_key("FLASH", "nofbs", 64, 2021, "session"),
            verdict_key("Enzo", "fbs", 64, 2021, "session"),
            verdict_key("FLASH", "fbs", 8, 2021, "session"),
            verdict_key("FLASH", "fbs", 64, 2022, "session"),
            verdict_key("FLASH", "fbs", 64, 2021, "commit"),
        ] {
            assert_ne!(base.canonical(), other.canonical());
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn component_boundaries_cannot_alias() {
        let a = CacheKeyBuilder::new()
            .push("x", "ab")
            .push("y", "c")
            .finish();
        let b = CacheKeyBuilder::new()
            .push("x", "a")
            .push("y", "bc")
            .finish();
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn shard_is_stable_and_in_range() {
        let k = verdict_key("FLASH", "fbs", 64, 2021, "both");
        let s = k.shard(16);
        assert!(s < 16);
        assert_eq!(s, verdict_key("FLASH", "fbs", 64, 2021, "both").shard(16));
    }

    #[test]
    fn nul_in_value_is_sanitized_not_ambiguous() {
        let tricky = CacheKeyBuilder::new().push("a", "x\0b=y").finish();
        let plain = CacheKeyBuilder::new()
            .push("a", "x")
            .push("b", "y")
            .finish();
        assert_ne!(tricky.canonical(), plain.canonical());
    }
}
