//! A content-addressed LRU cache for computed schedule responses.
//!
//! The paper's online setting re-solves the same deployments every working
//! period; the daemon therefore memoises the **full response body** keyed
//! by everything that body depends on: the canonical scenario text, the
//! algorithm selector, and the request context that shapes the body's lint
//! warnings (see [`crate::api::resolve`]). Keys compare by full content —
//! the stable FNV-1a digest ([`CacheKey::hash`]) is only a fast-reject
//! prefix, so hash collisions can never alias two different requests to
//! one cached response.

use cool_common::hash::StableHasher;

/// A collision-free cache key: digest for fast rejection, full canonical
/// content for equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Stable FNV-1a digest of (canonical scenario, algorithm), plus the
    /// context for keys built by [`CacheKey::with_context`].
    pub hash: u64,
    /// Canonical scenario normal form ([`cool_scenario::Scenario::canonical`]).
    pub canonical: String,
    /// Algorithm selector including its parameters, e.g. `lp-rounding:16`.
    pub algorithm: String,
    /// Request inputs beyond (scenario, algorithm) that the keyed body
    /// depends on; empty for keys built by [`CacheKey::new`].
    pub context: String,
}

impl CacheKey {
    /// Builds the key and its digest from the canonical scenario form and
    /// the parameterised algorithm selector.
    #[must_use]
    pub fn new(canonical: String, algorithm: String) -> Self {
        let hash = digest(&[&canonical, &algorithm]);
        CacheKey {
            hash,
            canonical,
            algorithm,
            context: String::new(),
        }
    }

    /// As [`CacheKey::new`], plus a request context that takes part in both
    /// the digest and equality.
    #[must_use]
    pub fn with_context(canonical: String, algorithm: String, context: String) -> Self {
        let hash = digest(&[&canonical, &algorithm, &context]);
        CacheKey {
            hash,
            canonical,
            algorithm,
            context,
        }
    }
}

/// FNV-1a over the parts, separator between consecutive parts.
fn digest(parts: &[&str]) -> u64 {
    let mut hasher = StableHasher::new();
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            hasher.write_sep();
        }
        hasher.write(part.as_bytes());
    }
    hasher.finish()
}

/// A fixed-capacity least-recently-used map.
///
/// Entries are held most-recent-first; `get` refreshes recency, `insert`
/// evicts the least recently used entry once `capacity` is exceeded. The
/// linear scan is deliberate: service caches hold at most a few hundred
/// entries, where a `Vec` beats pointer-chasing structures.
#[derive(Debug)]
pub struct LruCache<K: Eq, V> {
    capacity: usize,
    /// Most recently used first.
    entries: Vec<(K, V)>,
}

impl<K: Eq, V: Clone> LruCache<K, V> {
    /// A cache retaining at most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(idx);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts (or replaces) `key`, returning the entry evicted to make
    /// room, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(idx);
        }
        self.entries.insert(0, (key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop()
        } else {
            None
        }
    }

    /// Keys from most to least recently used (for tests/introspection).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let mut cache = LruCache::new(1);
        assert!(cache.insert("a", 1).is_none());
        let evicted = cache.insert("b", 2);
        assert_eq!(evicted, Some(("a", 1)));
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.get(&"b"), Some(2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch `a`; inserting `c` must now evict `b`.
        assert_eq!(cache.get(&"a"), Some(1));
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"c"), Some(3));
    }

    #[test]
    fn reinsert_replaces_without_growth() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&"a"), Some(10));
    }

    #[test]
    fn replace_at_capacity_does_not_evict() {
        // Re-inserting an existing key while the cache is full must
        // replace in place: no eviction, and the other resident survives.
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.len(), cache.capacity());
        let evicted = cache.insert("a", 10);
        assert_eq!(evicted, None, "replacement must not evict");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.get(&"b"), Some(2), "bystander entry survives");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut cache = LruCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), Some(1));
    }

    #[test]
    fn keys_report_recency_order() {
        let mut cache = LruCache::new(3);
        cache.insert(1, ());
        cache.insert(2, ());
        cache.insert(3, ());
        cache.get(&1);
        let order: Vec<i32> = cache.keys().copied().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn cache_key_equality_is_content_not_hash() {
        let a = CacheKey::new("sensors=1\n".into(), "greedy".into());
        let b = CacheKey::new("sensors=1\n".into(), "greedy".into());
        let c = CacheKey::new("sensors=1\n".into(), "lp-rounding:16".into());
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Same concatenated bytes, different field split → different keys.
        let d = CacheKey::new("sensors=1\ngr".into(), "eedy".into());
        assert_ne!(a, d);
        assert_ne!(a.hash, d.hash, "separator keeps digests apart too");
    }

    #[test]
    fn context_takes_part_in_equality_and_digest() {
        let plain = CacheKey::new("sensors=1\n".into(), "greedy".into());
        let empty = CacheKey::with_context("sensors=1\n".into(), "greedy".into(), String::new());
        let audit = CacheKey::with_context("sensors=1\n".into(), "greedy".into(), "audit".into());
        assert_eq!(plain.context, "");
        assert_ne!(plain, audit);
        assert_ne!(plain.hash, audit.hash);
        assert_ne!(empty.hash, plain.hash, "a context part is always hashed");
        assert_eq!(
            audit,
            CacheKey::with_context("sensors=1\n".into(), "greedy".into(), "audit".into())
        );
    }
}
