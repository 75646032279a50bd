//! N-way sharding of the daemon's shared state by content-address hash.
//!
//! One mutex per shard instead of one mutex per store: requests for
//! different content addresses proceed on different cores without
//! contending, while requests for the *same* address still serialize on
//! the same shard (preserving the byte-identical cache-hit contract).
//!
//! Shard choice is deterministic: the schedule cache shards on
//! [`CacheKey::hash`](crate::cache::CacheKey) (already an FNV-1a content
//! address), the session store on `fnv1a_64(session_id)`. With one shard
//! both types degenerate to exactly the PR 2 single-lock behaviour.

use crate::cache::{CacheKey, LruCache};
use cool_common::hash::fnv1a_64;
use cool_session::{SessionEntry, SessionInstance, SessionStore, SessionStoreError};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a shard, riding through a poisoned mutex (the daemon's state is
/// all counters and LRU lists — always internally consistent).
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The schedule cache, split into independently-locked LRU shards.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<LruCache<CacheKey, String>>>,
}

impl ShardedCache {
    /// `shards` independently-locked LRUs totalling (at least)
    /// `total_capacity` entries; each shard gets an equal slice, rounded
    /// up so capacity never drops below the single-lock configuration.
    #[must_use]
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lives in.
    #[must_use]
    pub fn shard_of(&self, key: &CacheKey) -> usize {
        (key.hash % self.shards.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its recency within its shard.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        lock(&self.shards[self.shard_of(key)]).get(key)
    }

    /// Inserts, returning the entry its shard evicted (if any) and the
    /// shard's new population.
    pub fn insert(&self, key: CacheKey, value: String) -> (Option<(CacheKey, String)>, usize) {
        let shard = self.shard_of(&key);
        let mut guard = lock(&self.shards[shard]);
        let evicted = guard.insert(key, value);
        (evicted, guard.len())
    }

    /// Entries in one shard.
    #[must_use]
    pub fn shard_len(&self, shard: usize) -> usize {
        lock(&self.shards[shard]).len()
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.shard_len(s)).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The session store, split into independently-locked shards keyed by
/// session id (itself the FNV-1a content address of the scenario).
#[derive(Debug)]
pub struct ShardedSessions {
    shards: Vec<Mutex<SessionStore>>,
}

impl ShardedSessions {
    /// `shards` independently-locked stores totalling (at least)
    /// `total_capacity` live sessions.
    #[must_use]
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedSessions {
            shards: (0..shards)
                .map(|_| Mutex::new(SessionStore::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: &str) -> usize {
        (fnv1a_64(id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Stores `entry` in the shard its content address maps to, returning
    /// `(id, evicted_id)` exactly like [`SessionStore::put`].
    pub fn put(&self, entry: SessionEntry) -> (String, Option<String>) {
        let id = SessionStore::session_id(entry.instance());
        lock(&self.shards[self.shard_of(&id)]).put(id, entry)
    }

    /// Locks the shard holding `id` for get/patch/delete. The caller runs
    /// its whole read-modify-render under this one guard, exactly as it
    /// did under the single store lock.
    pub fn lock_for(&self, id: &str) -> MutexGuard<'_, SessionStore> {
        lock(&self.shards[self.shard_of(id)])
    }

    /// Deletes `id` from its shard.
    ///
    /// # Errors
    ///
    /// Forwards [`SessionStoreError`] misses (`Gone` / `NotFound`).
    pub fn delete(&self, id: &str) -> Result<(), SessionStoreError> {
        self.lock_for(id).delete(id)
    }

    /// Live sessions across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard index `instance`'s session id would map to (useful for
    /// tests asserting shard placement).
    #[must_use]
    pub fn shard_for_instance(&self, instance: &SessionInstance) -> usize {
        self.shard_of(&SessionStore::session_id(instance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;

    fn key(tag: &str) -> CacheKey {
        CacheKey::new(tag.to_string(), "greedy".to_string())
    }

    #[test]
    fn sharded_cache_round_trips_and_counts() {
        let cache = ShardedCache::new(4, 16);
        assert_eq!(cache.shard_count(), 4);
        assert!(cache.is_empty());
        for i in 0..8 {
            let (evicted, _) = cache.insert(key(&format!("scenario {i}")), format!("body {i}"));
            assert!(evicted.is_none());
        }
        assert_eq!(cache.len(), 8);
        for i in 0..8 {
            assert_eq!(
                cache.get(&key(&format!("scenario {i}"))).as_deref(),
                Some(format!("body {i}").as_str())
            );
        }
        assert!(cache.get(&key("missing")).is_none());
    }

    #[test]
    fn same_key_always_lands_in_the_same_shard() {
        let cache = ShardedCache::new(3, 9);
        let k = key("stable");
        assert_eq!(cache.shard_of(&k), cache.shard_of(&k.clone()));
        cache.insert(k.clone(), "v1".to_string());
        let (_, shard_len) = cache.insert(k.clone(), "v2".to_string());
        assert_eq!(shard_len, 1, "reinsert replaces, never duplicates");
        assert_eq!(cache.get(&k).as_deref(), Some("v2"));
    }

    #[test]
    fn one_shard_degenerates_to_the_single_lock_cache() {
        let cache = ShardedCache::new(1, 2);
        cache.insert(key("a"), "a".into());
        cache.insert(key("b"), "b".into());
        let (evicted, _) = cache.insert(key("c"), "c".into());
        assert!(evicted.is_some(), "total capacity still enforced");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sessions_shard_by_content_address() {
        let sessions = ShardedSessions::new(4, 8);
        assert_eq!(sessions.shard_count(), 4);
        let scenario = cool_scenario::Scenario::parse("sensors = 12\ntargets = 2\n").unwrap();
        let instance = SessionInstance::from_scenario(&scenario).unwrap();
        let expected_shard = sessions.shard_for_instance(&instance);
        let entry = SessionEntry::solve(instance).unwrap();
        let (id, evicted) = sessions.put(entry);
        assert!(evicted.is_none());
        assert_eq!(sessions.shard_of(&id), expected_shard);
        assert_eq!(sessions.len(), 1);
        assert!(sessions.lock_for(&id).get(&id).is_ok());
        sessions.delete(&id).unwrap();
        assert_eq!(sessions.len(), 0);
        assert!(matches!(
            sessions.lock_for(&id).get(&id),
            Err(SessionStoreError::Gone)
        ));
    }
}
