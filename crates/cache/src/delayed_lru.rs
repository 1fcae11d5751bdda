//! Delayed LRU: admit an object only on its *second* request within a
//! sliding history window.
//!
//! Karlsson & Mahalingam ("Do we need replica placement algorithms in
//! content delivery networks?", WCW 2002 — reference \[15\] of the paper)
//! found this simple admission filter makes plain caching competitive with
//! replica placement; the paper cites that result as motivation, so the
//! policy is included for the ablation benchmarks.

use crate::lru::LruCache;
use crate::stats::CacheStats;
use crate::traits::{Cache, ObjectKey};
use std::collections::{HashMap, VecDeque};

/// LRU cache with a second-touch admission filter. The history of
/// recently-seen-but-not-admitted keys is itself bounded (FIFO) so the
/// filter cannot grow without limit.
#[derive(Debug)]
pub struct DelayedLruCache {
    inner: LruCache,
    /// Once-seen keys awaiting their second touch, each mapped to the
    /// sequence number of its live entry in `history_order`. A queue entry
    /// whose sequence no longer matches is stale (its key was admitted, or
    /// re-seen later) and is skipped on pop instead of evicting the key's
    /// newer entry.
    history: HashMap<ObjectKey, u64>,
    history_order: VecDeque<(u64, ObjectKey)>,
    history_cap: usize,
    next_seq: u64,
}

impl DelayedLruCache {
    /// Default history size: plenty for the reproduction's working sets.
    const DEFAULT_HISTORY: usize = 1 << 16;

    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_history(capacity_bytes, Self::DEFAULT_HISTORY)
    }

    /// `history_entries` bounds how many distinct once-seen keys the
    /// admission filter remembers.
    pub fn with_history(capacity_bytes: u64, history_entries: usize) -> Self {
        Self {
            inner: LruCache::new(capacity_bytes),
            history: HashMap::new(),
            history_order: VecDeque::new(),
            history_cap: history_entries.max(1),
            next_seq: 0,
        }
    }

    /// Number of keys currently in the admission history.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    fn note_seen(&mut self, key: ObjectKey) -> bool {
        if self.history.remove(&key).is_some() {
            // Second touch: admit. The key's queue entry is now stale; its
            // sequence number no longer resolves in `history`, so pops skip
            // it rather than dropping a future re-seen entry for this key.
            return true;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.history.insert(key, seq);
        self.history_order.push_back((seq, key));
        while self.history.len() > self.history_cap {
            match self.history_order.pop_front() {
                // Tombstone skip: only a queue entry that still owns its
                // key may evict it from the history.
                Some((s, old)) => {
                    if self.history.get(&old) == Some(&s) {
                        self.history.remove(&old);
                    }
                }
                None => break,
            }
        }
        // Stale entries make the queue longer than the live history; keep
        // the overhead bounded by compacting once it doubles.
        if self.history_order.len() > self.history_cap.saturating_mul(2) {
            let history = &self.history;
            self.history_order
                .retain(|(s, k)| history.get(k) == Some(s));
        }
        false
    }
}

impl Cache for DelayedLruCache {
    fn lookup(&mut self, key: ObjectKey) -> bool {
        self.inner.lookup(key)
    }

    fn insert(&mut self, key: ObjectKey, bytes: u64) {
        if self.inner.contains(key) {
            return;
        }
        if self.note_seen(key) {
            self.inner.insert(key, bytes);
        }
        // First touch: filtered, intentionally not counted as a rejection
        // (the object was declined by policy, not by capacity).
    }

    fn contains(&self, key: ObjectKey) -> bool {
        self.inner.contains(key)
    }

    fn remove(&mut self, key: ObjectKey) -> bool {
        self.inner.remove(key)
    }

    fn clear(&mut self) {
        self.inner.clear();
        self.history.clear();
        self.history_order.clear();
        self.next_seq = 0;
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn set_capacity(&mut self, bytes: u64) {
        self.inner.set_capacity(bytes);
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> ObjectKey {
        ObjectKey::new(0, i)
    }

    #[test]
    fn first_touch_not_admitted() {
        let mut c = DelayedLruCache::new(100);
        c.insert(k(1), 10);
        assert!(!c.contains(k(1)));
        assert_eq!(c.history_len(), 1);
    }

    #[test]
    fn second_touch_admitted() {
        let mut c = DelayedLruCache::new(100);
        c.insert(k(1), 10);
        c.insert(k(1), 10);
        assert!(c.contains(k(1)));
        assert_eq!(c.history_len(), 0);
    }

    #[test]
    fn access_pattern_needs_two_misses() {
        let mut c = DelayedLruCache::new(100);
        assert!(!c.access(k(1), 10)); // miss, noted
        assert!(!c.access(k(1), 10)); // miss, admitted
        assert!(c.access(k(1), 10)); // hit
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn one_hit_wonders_never_pollute() {
        let mut c = DelayedLruCache::new(30);
        c.insert(k(1), 10);
        c.insert(k(1), 10); // admitted, resident
        for i in 100..200 {
            c.insert(k(i), 10); // one-hit wonders, all filtered
        }
        assert!(c.contains(k(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn history_is_bounded() {
        let mut c = DelayedLruCache::with_history(100, 4);
        for i in 0..10 {
            c.insert(k(i), 1);
        }
        assert!(c.history_len() <= 4);
        // k(0) aged out of history: a second touch is treated as first.
        c.insert(k(0), 1);
        assert!(!c.contains(k(0)));
    }

    #[test]
    fn premature_drop_of_reseen_key_regression() {
        // Regression: admission used to leave the admitted key's queue
        // entry behind. If the key was later evicted and seen again, the
        // queue held the key twice; overflowing the history then popped the
        // STALE front entry, which erased the key's fresh history entry —
        // even though it was not the oldest live one — so the genuine
        // second touch was treated as a first touch, while the key that
        // should have aged out (the true FIFO victim) survived.
        let mut c = DelayedLruCache::with_history(100, 2);
        c.insert(k(1), 1);
        c.insert(k(1), 1); // admitted; queue entry for k(1) is now stale
        assert!(c.contains(k(1)));
        assert!(c.remove(k(1)), "evict the admitted copy");
        c.insert(k(2), 1); // oldest live entry — the rightful FIFO victim
        c.insert(k(1), 1); // re-seen: fresh entry, NEWER than k(2)'s
        c.insert(k(3), 1); // overflow (3 live > cap 2): pop must skip the
                           // stale k(1) front entry and age out k(2)
        assert!(c.history_len() <= 2, "bound counts live entries");
        c.insert(k(1), 1); // k(1)'s genuine second touch
        assert!(
            c.contains(k(1)),
            "re-seen key lost its fresh history entry to a stale pop"
        );
        // And the rightful victim really aged out: k(2)'s next touch is a
        // first touch again.
        c.insert(k(2), 1);
        assert!(!c.contains(k(2)), "k(2) should have been the FIFO victim");
    }

    #[test]
    fn queue_overhead_stays_bounded_under_admission_churn() {
        // Admit/evict the same keys repeatedly: every admission strands a
        // stale queue entry; compaction must keep the queue near the cap.
        let mut c = DelayedLruCache::with_history(10, 8);
        for round in 0..1000u32 {
            let key = k(round % 16);
            c.insert(key, 1);
            if c.contains(key) {
                c.remove(key);
            }
        }
        assert!(c.history_len() <= 8);
        assert!(
            c.history_order.len() <= 16,
            "queue grew unboundedly: {}",
            c.history_order.len()
        );
    }

    #[test]
    fn clear_resets_history() {
        let mut c = DelayedLruCache::new(100);
        c.insert(k(1), 1);
        c.clear();
        assert_eq!(c.history_len(), 0);
        c.insert(k(1), 1);
        assert!(!c.contains(k(1)), "history survived clear");
    }
}
