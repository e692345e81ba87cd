//! LRU cache for per-user top-K results with explicit invalidation.
//!
//! Determinism notes: recency is tracked with a logical `u64` stamp (no
//! wall clock — lint rule D3 bans `Instant::now` here), and both indices
//! are `BTreeMap`s so every traversal order is fixed. A cache hit returns
//! a value that is bit-identical to what a recompute would produce (the
//! engine is pure given frozen weights), so caching never changes
//! responses — only latency.

use scenerec_core::Recommendation;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: one entry per (user, k, precision-tag) triple. The tag
/// (`scenerec_core::Precision::tag`) rides in the key so results
/// computed at one precision can never answer a request served at
/// another, even if a cache ever outlives or spans engines.
type Key = (u32, u32, u8);

#[derive(Debug, Clone)]
struct Slot {
    stamp: u64,
    /// The cache epoch this entry was inserted under; entries from older
    /// epochs are treated as misses and dropped lazily on lookup.
    epoch: u64,
    recs: Vec<Recommendation>,
}

/// A bounded least-recently-used map from (user, k) to ranked results.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    next_stamp: u64,
    /// Current epoch. `bump_epoch` is the O(1) whole-cache invalidation
    /// a shard swap uses: every live entry instantly becomes stale
    /// without walking or freeing anything under the lock; stale entries
    /// are collected lazily by `get`. With one cache per shard this is
    /// what makes a single shard's swap leave every *other* shard's warm
    /// entries untouched — the engine-global `clear` is no longer the
    /// only invalidation.
    epoch: u64,
    entries: BTreeMap<Key, Slot>,
    /// Reverse index: logical stamp -> key, used to find the LRU victim.
    recency: BTreeMap<u64, Key>,
    /// Lifetime hit/miss counters, shared via [`CacheStats`].
    stats: Arc<CacheStats>,
}

/// Lifetime hit/miss counters for one [`ResultCache`], kept per-cache
/// (not in the global obs registry) so per-cache stats stay
/// deterministic even when tests or engines run in parallel in one
/// process.
///
/// The counters are atomics in a shared handle ([`ResultCache::stats`])
/// rather than plain fields, so reading them never requires the mutex
/// the cache itself lives behind: the engine's fast path updates them
/// while it holds its cache lock, and a stats poller reads them without
/// ever contending for that lock (the regression
/// `cache_stats_reads_do_not_take_the_cache_lock` in `engine.rs` pins
/// this).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheStats {
    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            next_stamp: 0,
            epoch: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            stats: Arc::new(CacheStats::default()),
        }
    }

    /// A shared handle to this cache's lifetime hit/miss counters,
    /// readable without whatever lock guards the cache itself.
    pub fn stats(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// Looks up `(user, k, tag)`, refreshing its recency on a hit.
    /// Entries inserted under an older epoch count as misses and are
    /// dropped here (lazy collection after [`ResultCache::bump_epoch`]).
    pub fn get(&mut self, user: u32, k: u32, tag: u8) -> Option<Vec<Recommendation>> {
        if !self.touch(user, k, tag) {
            return None;
        }
        self.entries
            .get(&(user, k, tag))
            .map(|slot| slot.recs.clone())
    }

    /// [`Self::get`] without cloning the result: counts the hit or miss,
    /// refreshes recency on a hit, and reports which it was.
    pub fn touch(&mut self, user: u32, k: u32, tag: u8) -> bool {
        let Some(slot) = self.entries.get_mut(&(user, k, tag)) else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if slot.epoch != self.epoch {
            let old = slot.stamp;
            self.entries.remove(&(user, k, tag));
            self.recency.remove(&old);
            self.reset_stamps_if_empty();
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        let old = slot.stamp;
        slot.stamp = self.next_stamp;
        self.recency.remove(&old);
        self.recency.insert(self.next_stamp, (user, k, tag));
        self.next_stamp += 1;
        true
    }

    /// The live entry for `(user, k, tag)`, if any, without refreshing
    /// its recency or counting a hit or miss — a batch looks ahead with
    /// this and then replays the real [`Self::touch`]/[`Self::insert`]
    /// sequence, so the cache's state and counters match serving the
    /// batch one request at a time.
    pub fn peek(&self, user: u32, k: u32, tag: u8) -> Option<Vec<Recommendation>> {
        self.entries
            .get(&(user, k, tag))
            .filter(|slot| slot.epoch == self.epoch)
            .map(|slot| slot.recs.clone())
    }

    /// Inserts a result, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, user: u32, k: u32, tag: u8, recs: Vec<Recommendation>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(old) = self.entries.get(&(user, k, tag)) {
            self.recency.remove(&old.stamp);
        } else if self.entries.len() >= self.capacity {
            // Evict the entry with the smallest (oldest) stamp.
            if let Some((&oldest, &victim)) = self.recency.iter().next() {
                self.recency.remove(&oldest);
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            (user, k, tag),
            Slot {
                stamp: self.next_stamp,
                epoch: self.epoch,
                recs,
            },
        );
        self.recency.insert(self.next_stamp, (user, k, tag));
        self.next_stamp += 1;
    }

    /// Drops every cached result for `user` (all k values, all
    /// precisions). Call after the user's seen-set or embedding changes.
    /// (Named distinctly from `FrozenEngine::invalidate_user` so the
    /// lint call graph can tell the lock-taking engine wrapper from this
    /// pure map operation.)
    pub fn evict_user(&mut self, user: u32) {
        let doomed: Vec<Key> = self
            .entries
            .range((user, 0, 0)..=(user, u32::MAX, u8::MAX))
            .map(|(&key, _)| key)
            .collect();
        for key in doomed {
            if let Some(slot) = self.entries.remove(&key) {
                self.recency.remove(&slot.stamp);
            }
        }
        self.reset_stamps_if_empty();
    }

    /// Drops everything (hit/miss counters survive — they describe the
    /// cache's lifetime, not its current contents).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.reset_stamps_if_empty();
    }

    /// Invalidation used to leave `next_stamp` wherever the dropped
    /// entries had pushed it, so a cache's internal state after
    /// invalidate-then-refill depended on its history rather than its
    /// contents. With no live entries there is no stamp to collide with,
    /// so an empty cache can always rewind to 0 — refilled caches then
    /// stamp (and evict) identically to freshly built ones.
    fn reset_stamps_if_empty(&mut self) {
        if self.entries.is_empty() {
            self.next_stamp = 0;
        }
    }

    /// Invalidates every current entry in O(1) by advancing the epoch.
    /// Stale entries are collected lazily: a later `get` on one removes
    /// it and counts a miss; an untouched stale entry ages out through
    /// ordinary LRU eviction. Lifetime hit/miss counters survive, same
    /// as [`ResultCache::clear`].
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The current epoch (starts at 0, advances on every
    /// [`ResultCache::bump_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cached entries. After a `bump_epoch` this may still
    /// count stale entries that no `get` has collected yet.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.stats.hits()
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.stats.misses()
    }

    /// The next logical recency stamp — exposed for the regression test
    /// pinning stamp behavior across invalidate-then-refill.
    pub fn next_stamp(&self) -> u64 {
        self.next_stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenerec_graph::ItemId;

    fn rec(item: u32, score: f32) -> Vec<Recommendation> {
        vec![Recommendation {
            item: ItemId(item),
            score,
        }]
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = ResultCache::new(4);
        assert!(c.get(1, 10, 0).is_none());
        c.insert(1, 10, 0, rec(7, 0.5));
        assert_eq!(c.get(1, 10, 0), Some(rec(7, 0.5)));
        // Different k is a different entry.
        assert!(c.get(1, 5, 0).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(1, 1, 0, rec(1, 0.1));
        c.insert(2, 1, 0, rec(2, 0.2));
        // Touch user 1 so user 2 becomes the LRU victim.
        assert!(c.get(1, 1, 0).is_some());
        c.insert(3, 1, 0, rec(3, 0.3));
        assert_eq!(c.len(), 2);
        assert!(c.get(1, 1, 0).is_some());
        assert!(c.get(2, 1, 0).is_none());
        assert!(c.get(3, 1, 0).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c = ResultCache::new(2);
        c.insert(1, 1, 0, rec(1, 0.1));
        c.insert(1, 1, 0, rec(9, 0.9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 1, 0), Some(rec(9, 0.9)));
    }

    #[test]
    fn invalidate_user_drops_all_k() {
        let mut c = ResultCache::new(8);
        c.insert(1, 1, 0, rec(1, 0.1));
        c.insert(1, 5, 0, rec(1, 0.1));
        c.insert(2, 1, 0, rec(2, 0.2));
        c.evict_user(1);
        assert!(c.get(1, 1, 0).is_none());
        assert!(c.get(1, 5, 0).is_none());
        assert!(c.get(2, 1, 0).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = ResultCache::new(0);
        c.insert(1, 1, 0, rec(1, 0.1));
        assert!(c.get(1, 1, 0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let mut c = ResultCache::new(4);
        assert!(c.get(1, 1, 0).is_none());
        c.insert(1, 1, 0, rec(1, 0.1));
        assert!(c.get(1, 1, 0).is_some());
        assert!(c.get(1, 1, 0).is_some());
        assert!(c.get(2, 1, 0).is_none());
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    /// Regression test: invalidation used to leave the recency stamp
    /// counter advanced, so a cache refilled after invalidation stamped
    /// (and therefore evicted) differently from a freshly built one.
    /// Pin the full observable state across invalidate-then-refill.
    #[test]
    fn invalidate_then_refill_matches_fresh_cache() {
        let fill = |c: &mut ResultCache| {
            c.insert(1, 1, 0, rec(1, 0.1));
            c.insert(2, 1, 0, rec(2, 0.2));
            assert!(c.get(1, 1, 0).is_some());
        };

        let mut fresh = ResultCache::new(2);
        fill(&mut fresh);

        let mut recycled = ResultCache::new(2);
        fill(&mut recycled);
        recycled.evict_user(1);
        recycled.evict_user(2);
        assert!(recycled.is_empty());
        assert_eq!(recycled.next_stamp(), 0, "empty cache rewinds its stamps");
        let (hits, misses) = (recycled.hits(), recycled.misses());
        fill(&mut recycled);

        assert_eq!(recycled.len(), fresh.len());
        assert_eq!(recycled.next_stamp(), fresh.next_stamp());
        // Same future behavior: the next insert evicts the same victim.
        fresh.insert(3, 1, 0, rec(3, 0.3));
        recycled.insert(3, 1, 0, rec(3, 0.3));
        assert_eq!(
            fresh.get(2, 1, 0).is_some(),
            recycled.get(2, 1, 0).is_some()
        );
        assert_eq!(
            fresh.get(1, 1, 0).is_some(),
            recycled.get(1, 1, 0).is_some()
        );
        // Counters kept counting across the invalidation (lifetime stats).
        assert_eq!(recycled.hits(), hits + fresh.hits());
        assert_eq!(recycled.misses(), misses + fresh.misses());
    }

    #[test]
    fn clear_also_rewinds_stamps() {
        let mut c = ResultCache::new(2);
        c.insert(1, 1, 0, rec(1, 0.1));
        assert!(c.get(1, 1, 0).is_some());
        c.clear();
        assert_eq!(c.next_stamp(), 0);
    }

    /// Regression test for engine-global invalidation: epoch bumps
    /// invalidate in O(1) — pre-bump entries answer as misses (and are
    /// collected), post-bump entries hit — with the hit/miss counters
    /// tracking exactly that.
    #[test]
    fn bump_epoch_invalidates_lazily_with_correct_counters() {
        let mut c = ResultCache::new(8);
        assert_eq!(c.epoch(), 0);
        c.insert(1, 10, 0, rec(1, 0.5));
        c.insert(2, 10, 0, rec(2, 0.25));
        assert!(c.get(1, 10, 0).is_some());
        assert_eq!((c.hits(), c.misses()), (1, 0));

        c.bump_epoch();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.len(), 2, "invalidation is lazy; nothing walked yet");
        assert!(c.get(1, 10, 0).is_none(), "stale epoch answers as a miss");
        assert_eq!(c.len(), 1, "the touched stale entry was collected");
        assert_eq!((c.hits(), c.misses()), (1, 1));

        // Fresh inserts under the new epoch hit normally; the untouched
        // stale entry for user 2 still misses when finally probed.
        c.insert(1, 10, 0, rec(9, 0.9));
        assert_eq!(c.get(1, 10, 0), Some(rec(9, 0.9)));
        assert!(c.get(2, 10, 0).is_none());
        assert_eq!((c.hits(), c.misses()), (2, 2));
        assert_eq!(c.len(), 1);
    }

    /// An epoch-emptied cache rewinds its stamps exactly like
    /// `evict_user` / `clear` do, so refill behavior matches a fresh
    /// cache (the invariant `invalidate_then_refill_matches_fresh_cache`
    /// pins for the eager paths).
    #[test]
    fn epoch_collection_rewinds_stamps_when_empty() {
        let mut c = ResultCache::new(4);
        c.insert(1, 1, 0, rec(1, 0.1));
        c.bump_epoch();
        assert!(c.get(1, 1, 0).is_none());
        assert!(c.is_empty());
        assert_eq!(c.next_stamp(), 0, "empty cache rewinds its stamps");
    }

    /// The precision tag partitions the key space: same (user, k) at a
    /// different precision is a distinct entry, and user invalidation
    /// sweeps every precision.
    #[test]
    fn precision_tag_separates_entries() {
        let mut c = ResultCache::new(8);
        c.insert(1, 10, 0, rec(1, 0.5));
        c.insert(1, 10, 2, rec(2, 0.25));
        assert_eq!(c.get(1, 10, 0), Some(rec(1, 0.5)));
        assert_eq!(c.get(1, 10, 2), Some(rec(2, 0.25)));
        assert!(c.get(1, 10, 1).is_none());
        c.evict_user(1);
        assert!(c.get(1, 10, 0).is_none());
        assert!(c.get(1, 10, 2).is_none());
    }
}
