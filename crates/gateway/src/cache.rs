//! Deterministic result cache with one TTL for every function.
//!
//! Idempotent invocations can be answered at the gateway edge without
//! touching a replica — the `<10ms cached path` of ROADMAP item 4. The
//! cache is a plain expiry map over the virtual clock: no wall time, no
//! random eviction, so a cached run replays bit-identically. Lookups
//! classify as *hit* (entry alive), *stale* (entry present but past its
//! TTL — removed and re-fetched), *miss* (no entry), or *bypass* (no TTL
//! configured, i.e. the cache is off).

use std::collections::BTreeMap;

use prebake_sim::time::{SimDuration, SimInstant};

/// Virtual time a cache hit takes to serve at the edge. The whole point
/// of the cache: this must sit well under the 10ms bar.
pub const CACHED_SERVE: SimDuration = SimDuration::from_micros(500);

/// Result-cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// TTL applied to every function. `None` turns the cache off: every
    /// lookup and insert bypasses it.
    pub default_ttl: Option<SimDuration>,
    /// Entry ceiling. At capacity, inserting a new key evicts the entry
    /// closest to expiry (smallest key on ties) — deterministic, and the
    /// entry least worth keeping.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            default_ttl: None,
            capacity: 1024,
        }
    }
}

/// What a lookup found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup<V> {
    /// A live entry: the cached value and its age.
    Hit {
        /// Cached value (cloned out; cheap for `Bytes`/`()` values).
        value: V,
        /// Time since the entry was inserted.
        age: SimDuration,
    },
    /// An entry existed but its TTL elapsed; it was removed.
    Stale {
        /// Time since the expired entry was inserted.
        age: SimDuration,
    },
    /// No entry under this key.
    Miss,
    /// No TTL is configured — the cache is off.
    Bypass,
}

/// What an insert did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsert {
    /// The value was stored; `evicted` reports whether capacity forced
    /// another entry out.
    Stored {
        /// An existing entry was evicted to make room.
        evicted: bool,
    },
    /// No TTL is configured; nothing was stored.
    Bypass,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    inserted: SimInstant,
    expires: SimInstant,
}

/// The expiry map. Keys are caller-defined (the fleet keys by function
/// name; the standalone gateway by function + request-body hash).
#[derive(Debug, Clone)]
pub struct ResultCache<V> {
    config: CacheConfig,
    entries: BTreeMap<String, Entry<V>>,
}

impl<V: Clone> ResultCache<V> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> ResultCache<V> {
        ResultCache {
            config,
            entries: BTreeMap::new(),
        }
    }

    /// Looks `key` up at virtual time `now`. A stale entry is removed so
    /// the following insert refreshes it. Every function shares the one
    /// TTL, so `_function` is not read.
    pub fn lookup(&mut self, key: &str, _function: &str, now: SimInstant) -> CacheLookup<V> {
        if self.config.default_ttl.is_none() {
            return CacheLookup::Bypass;
        }
        let Some(entry) = self.entries.get(key) else {
            return CacheLookup::Miss;
        };
        let age = now.saturating_duration_since(entry.inserted);
        if now < entry.expires {
            CacheLookup::Hit {
                value: entry.value.clone(),
                age,
            }
        } else {
            self.entries.remove(key);
            CacheLookup::Stale { age }
        }
    }

    /// Stores `value` under `key` with the TTL, evicting the
    /// closest-to-expiry entry if at capacity. Replacing an existing key
    /// never evicts. As in [`ResultCache::lookup`], `_function` is not
    /// read.
    pub fn insert(&mut self, key: &str, _function: &str, value: V, now: SimInstant) -> CacheInsert {
        let Some(ttl) = self.config.default_ttl else {
            return CacheInsert::Bypass;
        };
        let capacity = self.config.capacity.max(1);
        let mut evicted = false;
        if !self.entries.contains_key(key) && self.entries.len() >= capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.expires, (*k).clone()))
                .map(|(k, _)| k.clone())
                .expect("non-empty at capacity");
            self.entries.remove(&victim);
            evicted = true;
        }
        self.entries.insert(
            key.to_owned(),
            Entry {
                value,
                inserted: now,
                expires: now + ttl,
            },
        );
        CacheInsert::Stored { evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ttl_ms: u64) -> CacheConfig {
        CacheConfig {
            default_ttl: Some(SimDuration::from_millis(ttl_ms)),
            ..CacheConfig::default()
        }
    }

    #[test]
    fn hit_within_ttl_stale_after() {
        let mut c: ResultCache<u32> = ResultCache::new(cfg(100));
        let t0 = SimInstant::EPOCH;
        assert_eq!(c.lookup("k", "f", t0), CacheLookup::Miss);
        c.insert("k", "f", 7, t0);
        let hit = c.lookup("k", "f", t0 + SimDuration::from_millis(99));
        assert!(matches!(hit, CacheLookup::Hit { value: 7, .. }));
        // Exactly at the TTL boundary the entry is already stale.
        let stale = c.lookup("k", "f", t0 + SimDuration::from_millis(100));
        assert!(matches!(stale, CacheLookup::Stale { .. }));
        // The stale lookup removed it: next probe is a plain miss.
        assert_eq!(
            c.lookup("k", "f", t0 + SimDuration::from_millis(100)),
            CacheLookup::Miss
        );
    }

    #[test]
    fn unlisted_function_bypasses_without_default() {
        let mut c: ResultCache<u32> = ResultCache::new(CacheConfig::default());
        assert_eq!(
            c.lookup("x", "other", SimInstant::EPOCH),
            CacheLookup::Bypass
        );
        assert_eq!(
            c.insert("x", "other", 1, SimInstant::EPOCH),
            CacheInsert::Bypass
        );
        assert!(c.entries.is_empty());
    }

    #[test]
    fn capacity_evicts_closest_to_expiry() {
        let mut c: ResultCache<u32> = ResultCache::new(CacheConfig {
            capacity: 2,
            ..cfg(1000)
        });
        let t0 = SimInstant::EPOCH;
        c.insert("a", "f", 1, t0); // expires at 1000ms
        c.insert("b", "f", 2, t0 + SimDuration::from_millis(10)); // 1010ms
        let out = c.insert("c", "f", 3, t0 + SimDuration::from_millis(20));
        assert_eq!(out, CacheInsert::Stored { evicted: true });
        assert_eq!(c.entries.len(), 2);
        // "a" (earliest expiry) was the victim.
        assert_eq!(
            c.lookup("a", "f", t0 + SimDuration::from_millis(30)),
            CacheLookup::Miss
        );
        assert!(matches!(
            c.lookup("b", "f", t0 + SimDuration::from_millis(30)),
            CacheLookup::Hit { value: 2, .. }
        ));
    }

    #[test]
    fn replacing_a_key_never_evicts() {
        let mut c: ResultCache<u32> = ResultCache::new(CacheConfig {
            capacity: 1,
            ..cfg(1000)
        });
        c.insert("a", "f", 1, SimInstant::EPOCH);
        let out = c.insert("a", "f", 2, SimInstant::EPOCH + SimDuration::from_millis(5));
        assert_eq!(out, CacheInsert::Stored { evicted: false });
        assert!(matches!(
            c.lookup("a", "f", SimInstant::EPOCH + SimDuration::from_millis(6)),
            CacheLookup::Hit { value: 2, .. }
        ));
    }
}
