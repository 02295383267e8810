//! The sharded-LRU embedding cache.
//!
//! The daemon's whole reason to exist is that Theorem-1 construction is
//! the expensive part of serving a request: embeddings are pure functions
//! of `(family, seed, nodes → r, theorem)`, so concurrent `Simulate`
//! requests for the same guest should build once and share. Entries are
//! `Arc<XEmbedding>` — a hit clones a pointer, never the map — and the
//! key space is split over [`SHARDS`] independently-locked shards so the
//! worker pool doesn't serialise on one mutex. Hit/miss tallies are
//! relaxed atomics readable while the workers run.
//!
//! Next to its embedding an entry keeps the `EmbedScore` the first
//! `Embed` for its key computed, so a warm `Embed` is a lookup and a
//! copy of four numbers. It also keeps one `SimSlot` per engine
//! workload, filled by the first `Simulate` that runs it, so a warm
//! `Simulate` is a lookup too. Scores and slots live and die with their
//! entry. The guest tree is deliberately not kept: at 12 bytes per node
//! it would outweigh the embedding (DESIGN.md §12).
//!
//! A capacity of 0 disables caching entirely (every lookup misses, every
//! insert is dropped, nothing is memoized) — the cold-cache baseline
//! `loadgen` compares against.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use xtree_core::XEmbedding;
use xtree_sim::workload::WORKLOADS;
use xtree_telemetry::Counters;

/// Number of independently-locked shards.
pub const SHARDS: usize = 8;

/// What an embedding is a pure function of. `nodes` determines the host
/// height `r` (the optimal X-tree for the guest at the theorem's load),
/// so the key is exactly the `(family, seed, r, theorem)` identity of a
/// construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EmbeddingKey {
    /// Index into `TreeFamily::ALL`.
    pub family: u8,
    /// Guest size (determines the host height).
    pub nodes: u64,
    /// Tree-generation seed.
    pub seed: u64,
    /// 1 = Theorem 1, 2 = Theorem 2 (injectivized).
    pub theorem: u8,
    /// Host-topology tag (`xtree_host::HOST_XTREE` etc.). The cached
    /// `XEmbedding` is host-independent — it is always the Theorem-1/2
    /// X-tree map that the host backends re-interpret — but the entry's
    /// score is not: dilation, load, and congestion are measured on this
    /// host, so the tag is part of what the cached value is a function
    /// of.
    pub host: u8,
}

/// The host-specific fields of an `EmbedOk` reply: how an entry's
/// embedding scores on the key's host. A pure function of the key, so
/// it is computed once, by the first `Embed` for that key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EmbedScore {
    /// Maximum host distance over guest edges.
    pub dilation: u64,
    /// Maximum guests on one host vertex.
    pub max_load: u64,
    /// Maximum guest-edge routes over one host edge.
    pub congestion: u64,
    /// True if no two guests share a host vertex.
    pub injective: bool,
}

/// One engine workload's `SimulateOk` report fields for an entry, and
/// the engine events of the run that produced them. Like [`EmbedScore`],
/// a pure function of the key (and the workload), so the first
/// `Simulate` to run the workload fills it and later ones copy it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SimSlot {
    /// Total cycles across all rounds.
    pub cycles: u64,
    /// Dilation-only lower bound.
    pub ideal_cycles: u64,
    /// Maximum traffic over a single directed link in any round.
    pub max_link_traffic: u64,
    /// The run's engine events, added to the server's counters by every
    /// reply the slot serves.
    pub events: Counters,
}

/// An entry's simulation slots, indexed like `WORKLOADS`.
pub(crate) type SimSlots = [Option<SimSlot>; WORKLOADS.len()];

struct Entry {
    emb: Arc<XEmbedding>,
    /// `None` until an `Embed` scores the entry (a `Simulate` miss
    /// inserts without one).
    score: Option<EmbedScore>,
    /// Each `None` until a `Simulate` runs that workload.
    sims: SimSlots,
    /// Shard-local logical clock value of the last touch.
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<EmbeddingKey, Entry>,
    tick: u64,
}

/// A fixed-capacity, sharded, least-recently-used embedding cache.
pub struct EmbeddingCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; 0 disables the cache.
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EmbeddingCache {
    /// A cache holding at most `cap` embeddings in total (rounded up to a
    /// multiple of [`SHARDS`]); `cap = 0` disables caching.
    pub fn new(cap: usize) -> Self {
        EmbeddingCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: cap.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EmbeddingKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts the
    /// hit/miss either way.
    pub fn get(&self, key: &EmbeddingKey) -> Option<Arc<XEmbedding>> {
        self.touch(key, |e| Arc::clone(&e.emb))
    }

    /// [`get`](Self::get), also returning the entry's score if an `Embed`
    /// has stored one. Counts exactly like `get`, and copies no slot.
    pub(crate) fn lookup(
        &self,
        key: &EmbeddingKey,
    ) -> Option<(Arc<XEmbedding>, Option<EmbedScore>)> {
        self.touch(key, |e| (Arc::clone(&e.emb), e.score))
    }

    /// [`get`](Self::get), also returning the entry's simulation slots.
    /// Counts exactly like `get`.
    pub(crate) fn lookup_sims(&self, key: &EmbeddingKey) -> Option<(Arc<XEmbedding>, SimSlots)> {
        self.touch(key, |e| (Arc::clone(&e.emb), e.sims))
    }

    /// The one counted lookup behind `get`, `lookup` and `lookup_sims`:
    /// on a hit, refreshes the entry's recency and returns `read` of it.
    fn touch<T>(&self, key: &EmbeddingKey, read: impl FnOnce(&Entry) -> T) -> Option<T> {
        if self.per_shard_cap == 0 {
            self.misses.fetch_add(1, Relaxed);
            return None;
        }
        let mut shard = self.shard(key).lock().expect("cache poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let found = read(entry);
                drop(shard);
                self.hits.fetch_add(1, Relaxed);
                Some(found)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// `key`'s embedding if the cache holds it, as a lookup would return
    /// it, but neither counted nor touched: the re-check a miss makes just
    /// before it builds, in case a racing request inserted the key after
    /// this one's counted lookup.
    pub(crate) fn peek(&self, key: &EmbeddingKey) -> Option<Arc<XEmbedding>> {
        if self.per_shard_cap == 0 {
            return None;
        }
        let shard = self.shard(key).lock().expect("cache poisoned");
        shard.map.get(key).map(|e| Arc::clone(&e.emb))
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least-recently
    /// used entry when it is full. No-op on a disabled cache.
    ///
    /// A miss re-checks with `peek` before it builds, so two workers
    /// build the same cold key only when their builds overlap. Then both
    /// insert; the second insert just replaces the first's embedding with
    /// an equal value (keeping any score and slots already stored), so
    /// correctness is unaffected — the race costs one duplicate
    /// construction, not a wrong answer.
    pub fn insert(&self, key: EmbeddingKey, emb: Arc<XEmbedding>) {
        if self.per_shard_cap == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock().expect("cache poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.emb = emb;
            entry.last_used = tick;
            return;
        }
        if shard.map.len() >= self.per_shard_cap {
            // O(shard) scan for the LRU victim: shards are small (cap /
            // SHARDS entries), so a linked-list LRU would buy nothing.
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            key,
            Entry {
                emb,
                score: None,
                sims: [None; WORKLOADS.len()],
                last_used: tick,
            },
        );
    }

    /// Stores `score` on `key`'s entry. Neither a lookup nor a touch: the
    /// hit/miss counts and the recency order stay as they are, and an
    /// entry evicted since its lookup is not brought back.
    pub(crate) fn set_score(&self, key: &EmbeddingKey, score: EmbedScore) {
        self.update(key, |e| e.score = Some(score));
    }

    /// Stores workload `idx`'s `slot` on `key`'s entry, exactly as
    /// [`set_score`](Self::set_score) stores a score.
    pub(crate) fn set_sim(&self, key: &EmbeddingKey, idx: usize, slot: SimSlot) {
        self.update(key, |e| e.sims[idx] = Some(slot));
    }

    /// Applies `write` to `key`'s entry if it is held, without counting or
    /// touching it.
    fn update(&self, key: &EmbeddingKey, write: impl FnOnce(&mut Entry)) {
        if self.per_shard_cap == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().expect("cache poisoned");
        if let Some(entry) = shard.map.get_mut(key) {
            write(entry);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Embeddings currently held across all shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").map.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> EmbeddingKey {
        EmbeddingKey {
            family: 0,
            nodes: 48,
            seed,
            theorem: 1,
            host: 0,
        }
    }

    fn emb(height: u8) -> Arc<XEmbedding> {
        Arc::new(XEmbedding {
            height,
            map: vec![0],
        })
    }

    #[test]
    fn hit_after_insert_shares_the_allocation() {
        let c = EmbeddingCache::new(8);
        assert!(c.get(&key(1)).is_none());
        let e = emb(3);
        c.insert(key(1), Arc::clone(&e));
        let back = c.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&back, &e), "hits share, never copy");
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.entries(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let c = EmbeddingCache::new(64);
        c.insert(key(1), emb(1));
        c.insert(key(2), emb(2));
        let k3 = EmbeddingKey {
            theorem: 2,
            ..key(1)
        };
        c.insert(k3, emb(3));
        assert_eq!(c.entries(), 3);
        assert_eq!(c.get(&key(1)).unwrap().height, 1);
        assert_eq!(c.get(&k3).unwrap().height, 3);
    }

    #[test]
    fn lru_eviction_keeps_the_recently_touched() {
        // One entry per shard: every insert past the first in a shard
        // evicts its LRU. Use keys that land in the same shard by brute
        // force: insert many and cap total growth instead.
        let c = EmbeddingCache::new(8); // per-shard cap 1
        for s in 0..64 {
            c.insert(key(s), emb((s % 50) as u8));
        }
        assert!(
            c.entries() <= SHARDS,
            "cap 8 across {SHARDS} shards holds ≤ 1 each, got {}",
            c.entries()
        );
    }

    #[test]
    fn scores_stay_with_their_entry() {
        let c = EmbeddingCache::new(8);
        let score = EmbedScore {
            dilation: 3,
            max_load: 16,
            congestion: 40,
            injective: false,
        };
        c.set_score(&key(1), score); // no entry yet: nothing to score
        c.insert(key(1), emb(3));
        assert_eq!(c.lookup(&key(1)).unwrap().1, None, "inserted unscored");
        c.set_score(&key(1), score);
        assert_eq!(c.lookup(&key(1)).unwrap().1, Some(score));
        // A duplicate build re-inserting the key keeps the score.
        c.insert(key(1), emb(3));
        assert_eq!(c.lookup(&key(1)).unwrap().1, Some(score));
        assert!(c.lookup(&key(2)).is_none());
        assert_eq!((c.hits(), c.misses()), (3, 1), "set_score is not a lookup");
        assert_eq!(c.entries(), 1);
    }

    fn slot(cycles: u64) -> SimSlot {
        SimSlot {
            cycles,
            ideal_cycles: cycles / 2,
            max_link_traffic: 3,
            events: Counters {
                hops: 10 * cycles,
                ..Counters::default()
            },
        }
    }

    const EMPTY: SimSlots = [None; WORKLOADS.len()];

    #[test]
    fn sim_slots_stay_with_their_entry() {
        let c = EmbeddingCache::new(8);
        c.set_sim(&key(1), 0, slot(5)); // no entry yet: nothing to fill
        c.insert(key(1), emb(3));
        assert_eq!(c.lookup_sims(&key(1)).unwrap().1, EMPTY, "inserted empty");
        c.set_sim(&key(1), 2, slot(7));
        c.set_sim(&key(1), 0, slot(4));
        let filled = [Some(slot(4)), None, Some(slot(7)), None];
        assert_eq!(c.lookup_sims(&key(1)).unwrap().1, filled);
        // A duplicate build re-inserting the key keeps the slots, and a
        // score stored next to them leaves them alone.
        c.insert(key(1), emb(3));
        c.set_score(
            &key(1),
            EmbedScore {
                dilation: 3,
                max_load: 16,
                congestion: 40,
                injective: false,
            },
        );
        assert_eq!(c.lookup_sims(&key(1)).unwrap().1, filled);
        assert!(c.lookup_sims(&key(2)).is_none());
        assert_eq!((c.hits(), c.misses()), (3, 1), "set_sim is not a lookup");

        // A disabled cache memoizes nothing.
        let off = EmbeddingCache::new(0);
        off.insert(key(1), emb(3));
        off.set_sim(&key(1), 0, slot(1));
        assert!(off.lookup_sims(&key(1)).is_none());
    }

    /// `n` keys that land in `key(0)`'s shard.
    fn same_shard(c: &EmbeddingCache, n: usize) -> Vec<EmbeddingKey> {
        let first = c.shard(&key(0));
        (0..)
            .map(key)
            .filter(|k| std::ptr::eq(c.shard(k), first))
            .take(n)
            .collect()
    }

    #[test]
    fn slot_writes_do_not_touch_and_evicted_slots_are_gone() {
        let c = EmbeddingCache::new(2 * SHARDS); // two entries per shard
        let k = same_shard(&c, 3);
        c.insert(k[0], emb(1));
        c.insert(k[1], emb(2));
        // Not a touch: k[0] stays the shard's least recent entry.
        c.set_sim(&k[0], 0, slot(5));
        c.insert(k[2], emb(3));
        assert!(c.lookup_sims(&k[0]).is_none(), "the LRU entry went");
        c.set_sim(&k[0], 0, slot(5));
        assert!(
            c.lookup_sims(&k[0]).is_none(),
            "a slot write does not bring back an evicted entry"
        );
        c.insert(k[0], emb(1));
        assert_eq!(
            c.lookup_sims(&k[0]).unwrap().1,
            EMPTY,
            "a rebuilt entry starts with empty slots"
        );
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let c = EmbeddingCache::new(0);
        c.insert(key(1), emb(1));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.entries(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1, "disabled lookups still count misses");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = EmbeddingCache::new(32);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = key(i % 8);
                        if c.get(&k).is_none() {
                            c.insert(k, emb(t));
                        }
                    }
                });
            }
        });
        assert_eq!(c.hits() + c.misses(), 400);
        assert!(c.entries() <= 8);
    }
}
