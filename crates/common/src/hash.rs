//! Stable, portable content hashing.
//!
//! `std::collections::hash_map::DefaultHasher` is explicitly *not*
//! guaranteed to produce the same digests across Rust releases, so anything
//! that persists or compares hashes over time — the `cool-serve` schedule
//! cache keys, golden files, sharding decisions — must not use it. This
//! module pins the 64-bit FNV-1a function instead: trivially simple, well
//! distributed for short keys, and byte-for-byte identical everywhere.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
///
/// # Examples
///
/// ```
/// use cool_common::hash::fnv1a_64;
///
/// // Stable across processes, platforms, and Rust releases.
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
/// assert_ne!(fnv1a_64(b"sensors=100"), fnv1a_64(b"seed=100"));
/// ```
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental FNV-1a hasher for multi-part keys.
///
/// Feeding parts one by one is equivalent to feeding their concatenation,
/// so callers that need injective multi-field keys should interpose an
/// explicit separator via [`StableHasher::write_sep`].
///
/// # Examples
///
/// ```
/// use cool_common::hash::{fnv1a_64, StableHasher};
///
/// let mut h = StableHasher::new();
/// h.write(b"scenario");
/// h.write_sep();
/// h.write(b"greedy");
/// assert_ne!(h.finish(), fnv1a_64(b"scenariogreedy"));
/// ```
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a field separator that cannot appear in UTF-8 text (byte
    /// `0xFF`), making `("ab","c")` hash differently from `("a","bc")`.
    pub fn write_sep(&mut self) {
        self.write(&[0xff]);
    }

    /// Feeds an integer in fixed-width little-endian form.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Formatted text streams into the hash: `write!(hasher, ...)` feeds the
/// bytes the same text would hold as a `String`, without building it.
///
/// ```
/// use cool_common::hash::{fnv1a_64, StableHasher};
/// use std::fmt::Write as _;
///
/// let mut h = StableHasher::new();
/// write!(h, "n={}\n", 2000).unwrap();
/// assert_eq!(h.finish(), fnv1a_64(b"n=2000\n"));
/// ```
impl std::fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = StableHasher::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn separator_distinguishes_field_splits() {
        let digest = |a: &[u8], b: &[u8]| {
            let mut h = StableHasher::new();
            h.write(a);
            h.write_sep();
            h.write(b);
            h.finish()
        };
        assert_ne!(digest(b"ab", b"c"), digest(b"a", b"bc"));
    }

    #[test]
    fn u64_fields_are_fixed_width() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write(&1u64.to_le_bytes());
        b.write(&2u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }
}
