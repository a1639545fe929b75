//! The LRU solve cache: canonical key → rendered result bytes.
//!
//! Values are the *exact* response payloads the server would render for
//! a fresh solve, stored as `Arc<str>` so a hit hands back the same
//! bytes without copying. Capacity is counted in payload bytes (the
//! quantity that actually bounds memory), not entries; recency is a
//! monotone tick per entry and eviction removes the smallest tick. That
//! makes eviction a linear scan — O(entries) — which is the right trade
//! for a cache whose entries are whole solve results (hundreds, not
//! millions) and keeps the structure a single `HashMap`.
//!
//! ## Lineage invalidation
//!
//! Every entry records the content hash of the graph version it was
//! solved against. When a graph mutates, the server retires the
//! superseded version: matching entries are dropped and the hash joins
//! a tombstone set so a solve that was already in flight when the
//! mutation landed cannot re-insert a stale ancestor entry afterwards.
//! Only the mutated lineage is touched — entries for other graphs
//! survive, which is the whole point over a full flush. Hashes are
//! content-addressed, so a mutation chain that returns a graph to an
//! earlier content state *revives* that hash (the server passes it
//! back through [`SolveCache::revive_graphs`]): any entry or in-flight
//! insert under it describes byte-identical content and is safe to
//! serve again. The tombstone set grows by at most one hash per
//! mutation — a few dozen bytes per churn event, negligible next to
//! the payloads.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

struct Entry {
    payload: Arc<str>,
    last_used: u64,
    /// Content hash of the graph version this payload was solved
    /// against; the handle lineage invalidation retires by.
    graph_hash: u64,
}

/// A byte-bounded LRU map from canonical solve key to rendered payload.
pub struct SolveCache {
    entries: HashMap<u64, Entry>,
    capacity_bytes: usize,
    bytes: usize,
    tick: u64,
    /// Graph versions superseded by a mutation: inserts for these are
    /// refused so late-finishing solves cannot resurrect retired state.
    retired: HashSet<u64>,
}

impl SolveCache {
    /// An empty cache bounded at `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        SolveCache {
            entries: HashMap::new(),
            capacity_bytes,
            bytes: 0,
            tick: 0,
            retired: HashSet::new(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.payload)
        })
    }

    /// Inserts `key → payload` for a solve against graph version
    /// `graph_hash`, evicting least-recently-used entries until the byte
    /// budget holds again. Returns how many entries were evicted. A
    /// payload larger than the whole budget is not cached at all (it
    /// would only evict everything and then itself), and an insert for a
    /// retired graph version is refused — the solve raced a mutation and
    /// its result must not outlive the version it describes.
    pub fn insert(&mut self, key: u64, graph_hash: u64, payload: Arc<str>) -> u64 {
        if payload.len() > self.capacity_bytes || self.retired.contains(&graph_hash) {
            return 0;
        }
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                payload: Arc::clone(&payload),
                last_used: self.tick,
                graph_hash,
            },
        ) {
            self.bytes -= old.payload.len();
        }
        self.bytes += payload.len();
        // The new payload fits the budget on its own, so the scan finds
        // another entry for as long as the cache is over budget.
        let mut evicted = 0;
        while self.bytes > self.capacity_bytes {
            let oldest = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(gone) = oldest.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            self.bytes -= gone.payload.len();
            evicted += 1;
        }
        evicted
    }

    /// Retires graph versions superseded by a mutation: drops every
    /// entry solved against them and tombstones the hashes against
    /// in-flight re-inserts. Returns how many entries were dropped.
    pub fn retire_graphs(&mut self, hashes: &[u64]) -> u64 {
        self.retired.extend(hashes.iter().copied());
        let mut dropped = 0;
        self.entries.retain(|_, e| {
            let doomed = hashes.contains(&e.graph_hash);
            if doomed {
                self.bytes -= e.payload.len();
                dropped += 1;
            }
            !doomed
        });
        dropped
    }

    /// Un-tombstones graph versions that are live again — a mutation
    /// chain produced content identical to an earlier version, so its
    /// (content-addressed, byte-identical) entries are valid once more.
    pub fn revive_graphs(&mut self, hashes: &[u64]) {
        for h in hashes {
            self.retired.remove(h);
        }
    }

    /// The distinct graph hashes current entries were solved against,
    /// sorted. Test introspection for the lineage-invalidation
    /// invariant; not part of the serving surface.
    pub fn graph_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.entries.values().map(|e| e.graph_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    }

    /// Total payload bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: u64 = 0xabcd;

    fn payload(n: usize) -> Arc<str> {
        Arc::from("x".repeat(n))
    }

    #[test]
    fn hit_returns_the_stored_bytes() {
        let mut c = SolveCache::new(100);
        c.insert(1, G, Arc::from("result-one"));
        assert_eq!(c.get(1).as_deref(), Some("result-one"));
        assert_eq!(c.get(2), None);
        assert_eq!(c.bytes(), 10);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = SolveCache::new(30);
        c.insert(1, G, payload(10));
        c.insert(2, G, payload(10));
        c.insert(3, G, payload(10));
        // Touch 1 so 2 becomes the LRU entry.
        c.get(1);
        let evicted = c.insert(4, G, payload(10));
        assert_eq!(evicted, 1);
        assert!(c.get(2).is_none(), "LRU entry should be gone");
        assert!(c.get(1).is_some() && c.get(3).is_some() && c.get(4).is_some());
        assert_eq!(c.bytes(), 30);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = SolveCache::new(50);
        c.insert(1, G, payload(20));
        c.insert(1, G, payload(30));
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_payload_is_not_cached() {
        let mut c = SolveCache::new(10);
        c.insert(1, G, payload(5));
        assert_eq!(c.insert(2, G, payload(11)), 0);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some(), "existing entries survive the refusal");
    }

    #[test]
    fn eviction_can_cascade() {
        let mut c = SolveCache::new(20);
        c.insert(1, G, payload(10));
        c.insert(2, G, payload(10));
        // A payload of exactly the budget evicts every other entry and
        // leaves the cache at budget, never itself.
        assert_eq!(c.insert(3, G, payload(20)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 20);
        assert!(c.get(3).is_some());
        // Growing an entry to the budget in place evicts only the others.
        c.insert(3, G, payload(10));
        c.insert(4, G, payload(10));
        assert_eq!(c.insert(3, G, payload(20)), 1);
        assert_eq!((c.len(), c.bytes()), (1, 20));
    }

    #[test]
    fn retire_drops_only_the_named_lineage() {
        let mut c = SolveCache::new(100);
        c.insert(1, 0xa, payload(10));
        c.insert(2, 0xa, payload(10));
        c.insert(3, 0xb, payload(10));
        assert_eq!(c.retire_graphs(&[0xa]), 2);
        assert!(c.get(1).is_none() && c.get(2).is_none());
        assert_eq!(c.get(3).as_deref(), Some(&*"x".repeat(10)));
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.graph_hashes(), vec![0xb]);
    }

    #[test]
    fn retired_graphs_refuse_late_inserts_until_revived() {
        let mut c = SolveCache::new(100);
        c.retire_graphs(&[0xa]);
        c.insert(1, 0xa, payload(10));
        assert!(c.get(1).is_none(), "stale in-flight insert refused");
        c.insert(2, 0xb, payload(10));
        assert!(c.get(2).is_some(), "other lineages unaffected");
        // A mutation chain that returns to this content revives it.
        c.revive_graphs(&[0xa]);
        c.insert(3, 0xa, payload(10));
        assert!(c.get(3).is_some());
    }
}
