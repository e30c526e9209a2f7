//! The cross-session frame store behind the [`FrameStore`] backend API.
//!
//! Far-BE frames depend only on world geometry — the grid point, the
//! leaf region and the near-BE object set (the paper's three lookup
//! criteria, §5.3) — never on which session requested them. A fleet
//! host can therefore keep one server-side store per game and satisfy
//! misses from *any* room out of frames rendered for *any other* room,
//! multiplying the effective cache population by the number of
//! concurrent sessions.
//!
//! Consumers (rooms, the pre-render farm, the socket serving plane)
//! program against the [`FrameStore`] trait. [`LocalStore`] is its one
//! backend; the benchmark's timed store wraps a [`LocalStore`] behind
//! the same trait to time every call from outside.
//!
//! The local store keeps one [`FrameCache`] per `(game, leaf region)`
//! in the session-free [`CacheVersion::FLEET`] configuration: lookups
//! only ever match within one leaf (criterion 2), so a lookup reads one
//! small cache, and a cache that an eviction or a replacement empties
//! is dropped. Everything the store holds — the caches, their head
//! index, the clock, the byte count and the counters — sits behind one
//! `parking_lot` mutex, and each operation draws its clock ticket under
//! it, so every call lands whole: an insert with the evictions it
//! triggers, a cost-aware admission check with the insert it guards.
//!
//! One byte budget spans every cache, and eviction runs one *global*
//! LRU: the victim is the entry with the smallest stamp anywhere. Each
//! cache threads its entries onto a recency list whose head is its
//! least recently used entry, and a B-tree head index maps each
//! cache's head stamp to the cache, so the victim is the index's first
//! key: O(log leaves), whatever the number of frames. One ticket stamps
//! at most one entry, so stamps are unique and key the index alone.
//!
//! The index is exact except for caches a hit has moved. A hit touches
//! its frame, which in a leaf cache of a handful of frames is nearly
//! always the head; but a hit only *raises* a head stamp, so instead of
//! a B-tree remove and insert it flags the cache stale and lists its
//! filed stamp once. The store re-files its listed caches before any
//! other operation on a cache and before its oldest entry is read.

use crate::farm::render_cost_ms;
use coterie_core::{
    CacheConfig, CacheQuery, CacheVersion, EvictionPolicy, FrameCache, FrameMeta, FrameSource,
};
use coterie_world::GameId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// How the store treats a speculative insert that would overflow the
/// byte budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Admission {
    /// Admit everything; the global LRU evicts the oldest frame
    /// (the original fleet behaviour, and the `--predictor none`
    /// byte-identity baseline).
    #[default]
    Lru,
    /// Score the candidate's `predicted-reuse × render cost` against
    /// the value of the globally-oldest frame (the one an over-budget
    /// insert would evict): speculation not worth the eviction is
    /// refused. Demand-rendered frames are always admitted.
    CostAware,
}

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Payload budget across every leaf cache, bytes.
    pub capacity_bytes: u64,
    /// Over-budget admission policy for speculative inserts.
    pub admission: Admission,
}

impl Default for StoreConfig {
    /// 256 MB — enough for a small fleet without swamping a test
    /// machine.
    fn default() -> Self {
        StoreConfig {
            capacity_bytes: 256 * 1024 * 1024,
            admission: Admission::Lru,
        }
    }
}

/// Aggregate store counters (monotonic over the store's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a qualifying frame.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Frames inserted.
    pub insertions: u64,
    /// Duplicate insertions skipped (a frame for the same position,
    /// leaf and near set was already present at the same size).
    pub duplicates: u64,
    /// Re-inserts that replaced an existing frame with a
    /// different-sized payload (the old size is debited before the new
    /// one is credited, so the byte budget cannot drift).
    pub replacements: u64,
    /// Frames evicted by the global LRU.
    pub evictions: u64,
    /// Speculatively rendered frames admitted (pre-render farm
    /// backfill, as opposed to demand-rendered misses).
    pub spec_rendered: u64,
    /// Distinct speculative frames that served at least one hit.
    pub spec_used: u64,
    /// Lookups whose winning frame was speculative.
    pub spec_hits: u64,
    /// Speculative inserts refused by cost-aware admission.
    pub spec_rejected: u64,
}

impl StoreStats {
    /// Hit ratio in `[0, 1]` (0 before any lookup).
    ///
    /// Computed in `f64` so zero-traffic stores yield 0 (never NaN)
    /// and astronomically large counters cannot overflow the integer
    /// sum.
    pub fn hit_ratio(&self) -> f64 {
        let served = self.hits as f64;
        let total = served + self.misses as f64;
        if total == 0.0 {
            0.0
        } else {
            served / total
        }
    }

    /// Speculation precision in `[0, 1]`: the fraction of
    /// speculatively rendered frames that were ever used (0 before any
    /// speculative render). Low precision means the farm burned GPU
    /// time on frames nobody walked into.
    /// Clamped to `[0, 1]` so degenerate counter combinations (e.g.
    /// partially saturated merges) still report a sane ratio.
    pub fn spec_precision(&self) -> f64 {
        if self.spec_rendered == 0 {
            0.0
        } else {
            (self.spec_used as f64 / self.spec_rendered as f64).min(1.0)
        }
    }

    /// Speculation recall in `[0, 1]`: of the lookups that could not
    /// be served by a demand-rendered frame (speculative hits plus
    /// outright misses), the fraction speculation saved. High recall
    /// means the farm is pre-rendering the frames rooms actually
    /// stall on.
    ///
    /// The candidate sum is computed in `f64`, so stores with
    /// degenerate (near-`u64::MAX`) counters still yield a finite,
    /// bounded ratio instead of an overflow panic.
    pub fn spec_recall(&self) -> f64 {
        let candidates = self.spec_hits as f64 + self.misses as f64;
        if candidates == 0.0 {
            0.0
        } else {
            self.spec_hits as f64 / candidates
        }
    }

    /// Element-wise sum, for fleets aggregating per-room stores.
    ///
    /// Uses saturating addition, which keeps the fold associative and
    /// commutative for *any* operand values (`min(Σ, u64::MAX)` is
    /// independent of grouping).
    pub fn merged(self, other: StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            insertions: self.insertions.saturating_add(other.insertions),
            duplicates: self.duplicates.saturating_add(other.duplicates),
            replacements: self.replacements.saturating_add(other.replacements),
            evictions: self.evictions.saturating_add(other.evictions),
            spec_rendered: self.spec_rendered.saturating_add(other.spec_rendered),
            spec_used: self.spec_used.saturating_add(other.spec_used),
            spec_hits: self.spec_hits.saturating_add(other.spec_hits),
            spec_rejected: self.spec_rejected.saturating_add(other.spec_rejected),
        }
    }
}

/// The backend API every frame-store consumer programs against.
///
/// `Room`, the pre-render farm and the socket serving plane take
/// `&dyn FrameStore` / `Arc<dyn FrameStore>`, so the store is chosen
/// once at construction and nothing else in the pipeline knows which
/// one it got: a [`LocalStore`], or the benchmark's timed store, which
/// wraps one to time every call. All methods take `&self` — stores are
/// internally synchronized — and `Send + Sync` is a supertrait so trait
/// objects cross worker threads.
pub trait FrameStore: Send + Sync {
    /// Looks up a frame for `query` among every frame any session of
    /// `game` has contributed, applying the paper's three criteria
    /// with the closest qualifying frame winning. A hit refreshes the
    /// frame's global recency.
    fn lookup(&self, game: GameId, query: &CacheQuery) -> bool;

    /// Inserts a demand-rendered frame contributed by any session of
    /// `game`. Returns whether the frame was admitted (duplicates are
    /// skipped).
    fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool;

    /// Inserts a frame rendered speculatively by the pre-render farm;
    /// `reuse_score` is the predictor's reuse estimate, weighted by the
    /// payload's simulated render cost and, under cost-aware admission,
    /// scored against the eviction victim.
    fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool;

    /// Aggregate counters.
    fn stats(&self) -> StoreStats;

    /// The over-budget admission policy for speculative inserts.
    fn admission(&self) -> Admission;

    /// The global byte budget.
    fn capacity_bytes(&self) -> u64;

    /// Total cached payload bytes.
    fn bytes(&self) -> u64;

    /// Number of cached frames.
    fn len(&self) -> usize;

    /// Whether the store holds no frame.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-frame store bookkeeping carried as the cache payload: how the
/// frame came to exist and what keeping it is worth.
#[derive(Debug, Clone, Copy)]
struct FrameTag {
    /// Rendered by the speculative farm (vs a demand miss).
    speculative: bool,
    /// A lookup has hit this frame at least once.
    used: bool,
    /// Admission value: predicted reuse × simulated render cost.
    value: f64,
}

/// A `(game, leaf region)` pair: the key of one leaf cache.
type LeafKey = (GameId, u32);

/// A leaf cache and whether a hit has moved its head since it was filed
/// in the head index (the `stale` list then names its filed stamp).
#[derive(Debug)]
struct Leaf {
    cache: FrameCache<FrameTag>,
    stale: bool,
}

/// Everything a [`LocalStore`] holds, behind its one lock.
#[derive(Debug, Default)]
struct State {
    /// The leaf caches with frames, none of them empty.
    caches: HashMap<LeafKey, Leaf>,
    /// The head index: the stamp of every cache's least recently used
    /// entry, so the oldest entry is the first key once `stale` is
    /// re-filed.
    heads: BTreeMap<u64, LeafKey>,
    /// The filed stamp of every cache flagged stale, once each.
    stale: Vec<u64>,
    /// Logical clock: every lookup and insert takes a ticket, so
    /// `last_access` stamps totally order accesses across caches.
    clock: u64,
    /// Payload bytes across every cache.
    bytes: u64,
    stats: StoreStats,
}

impl State {
    fn ticket(&mut self) -> u64 {
        self.clock += 1;
        self.clock - 1
    }

    /// Re-files every cache a hit has moved at its true head stamp.
    fn refile(&mut self) {
        for filed in self.stale.drain(..) {
            let key = self.heads.remove(&filed).expect("a stale cache is filed");
            let leaf = self.caches.get_mut(&key).expect("a stale cache is kept");
            leaf.stale = false;
            let head = leaf.cache.oldest_access().expect("a hit empties no cache");
            self.heads.insert(head, key);
        }
    }

    /// Re-files the stale caches, runs `op` on the cache of `key`
    /// (`None` if there is none and `create` is unset), then re-files
    /// the cache in the head index if `op` changed its oldest entry and
    /// drops it if `op` emptied it. Every mutation of a leaf cache goes
    /// through here.
    fn on_cache<R>(
        &mut self,
        key: LeafKey,
        create: bool,
        op: impl FnOnce(&mut FrameCache<FrameTag>) -> R,
    ) -> Option<R> {
        self.refile();
        let leaf = if create {
            self.caches.entry(key).or_insert_with(|| Leaf {
                cache: FrameCache::new(CacheConfig {
                    capacity_bytes: u64::MAX, // budget is enforced globally
                    policy: EvictionPolicy::Lru,
                    version: CacheVersion::FLEET,
                }),
                stale: false,
            })
        } else {
            self.caches.get_mut(&key)?
        };
        let before = leaf.cache.oldest_access();
        let result = op(&mut leaf.cache);
        let after = leaf.cache.oldest_access();
        if before != after {
            if let Some(stamp) = before {
                self.heads.remove(&stamp);
            }
            if let Some(stamp) = after {
                let filed = self.heads.insert(stamp, key);
                debug_assert!(filed.is_none(), "stamp {stamp} heads two caches");
            }
        }
        if after.is_none() {
            self.caches.remove(&key);
        }
        Some(result)
    }

    /// The stamp and cache of the oldest entry, `None` when empty: the
    /// one victim search every LRU decision shares.
    fn oldest(&mut self) -> Option<(u64, LeafKey)> {
        self.refile();
        self.heads
            .first_key_value()
            .map(|(&stamp, &key)| (stamp, key))
    }

    fn evict_oldest(&mut self) -> Option<u64> {
        let (_, key) = self.oldest()?;
        let freed = self
            .on_cache(key, false, FrameCache::evict_lru)
            .flatten()
            .expect("an indexed cache holds a frame");
        self.bytes -= freed;
        self.stats.evictions += 1;
        Some(freed)
    }

    /// Inserts one frame, `speculative` carrying a speculative frame's
    /// admission value: refuses speculation that cost-aware admission
    /// finds worth less than the eviction victim, skips a duplicate,
    /// replaces a frame of the same key and another size, then evicts
    /// the globally oldest frames until the budget holds again.
    fn insert(
        &mut self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        speculative: Option<f64>,
        config: &StoreConfig,
    ) -> bool {
        if let Some(value) = speculative {
            if config.admission == Admission::CostAware
                && self.bytes + size_bytes > config.capacity_bytes
            {
                let victim = self.oldest().and_then(|(_, key)| {
                    let (_, tag) = self.caches[&key].cache.oldest_entry()?;
                    Some(tag.value)
                });
                if victim.is_some_and(|v| v >= value) {
                    self.stats.spec_rejected += 1;
                    return false;
                }
            }
        }
        let tag = FrameTag {
            speculative: speculative.is_some(),
            used: false,
            value: speculative.unwrap_or(0.0),
        };
        let ticket = self.ticket();
        let dup_probe = CacheQuery {
            grid: meta.grid,
            pos: meta.pos,
            leaf: meta.leaf,
            near_hash: meta.near_hash,
            dist_thresh: 0.0,
        };
        let mut replaced = None;
        let admitted = self
            .on_cache((game, meta.leaf.0), true, |cache| {
                match cache.peek_size(&dup_probe) {
                    // Same key, same payload size: genuine duplicate.
                    Some(old_size) if old_size == size_bytes => return false,
                    // Same key, different payload size (e.g. re-rendered
                    // at another quality level): replace.
                    Some(_) => replaced = cache.remove_matching(&dup_probe),
                    None => {}
                }
                cache.advance_clock(ticket);
                cache.insert(meta, FrameSource::Fleet, tag, size_bytes, meta.pos);
                true
            })
            .unwrap_or(false);
        if !admitted {
            self.stats.duplicates += 1;
            return false;
        }
        if let Some(old_size) = replaced {
            self.bytes -= old_size;
            self.stats.replacements += 1;
        }
        self.stats.insertions += 1;
        self.stats.spec_rendered += tag.speculative as u64;
        self.bytes += size_bytes;
        while self.bytes > config.capacity_bytes && self.evict_oldest().is_some() {}
        true
    }
}

/// The in-process [`FrameStore`] backend: one store shared by every
/// room of the fleet.
///
/// Thread-safe behind one mutex. Determinism note: the store is
/// deterministic for a fixed *sequence* of operations; fleet runs that
/// need byte-identical reports must serialize their store calls (the
/// [`crate::Fleet`] epoch loop visits rooms in id order for exactly
/// this reason).
#[derive(Debug)]
pub struct LocalStore {
    config: StoreConfig,
    state: Mutex<State>,
}

impl LocalStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.capacity_bytes > 0, "store capacity must be positive");
        LocalStore {
            config,
            state: Mutex::new(State::default()),
        }
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The access stamp of this store's oldest entry (`None` when
    /// empty): the entry the next over-budget insert evicts.
    pub fn oldest_stamp(&self) -> Option<u64> {
        self.state.lock().oldest().map(|(stamp, _)| stamp)
    }

    /// Evicts this store's single oldest entry, returning the bytes
    /// freed (`None` when empty). Budget enforcement evicts through
    /// this; it is public so a caller can drain the store in LRU order.
    pub fn evict_oldest(&self) -> Option<u64> {
        self.state.lock().evict_oldest()
    }
}

impl FrameStore for LocalStore {
    fn lookup(&self, game: GameId, query: &CacheQuery) -> bool {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let ticket = state.ticket();
        let found = state
            .caches
            .get_mut(&(game, query.leaf.0))
            .and_then(|leaf| {
                let filed = leaf.cache.oldest_access();
                leaf.cache.advance_clock(ticket);
                let found = leaf.cache.lookup_mut(query).map(|tag| {
                    let first_use = tag.speculative && !tag.used;
                    tag.used = true;
                    (tag.speculative, first_use)
                });
                // A hit only ever raises the head stamp, so a cache whose
                // head moved is flagged and listed stale, not re-filed.
                if !leaf.stale && leaf.cache.oldest_access() != filed {
                    leaf.stale = true;
                    state.stale.extend(filed);
                }
                found
            });
        let stats = &mut state.stats;
        let Some((speculative, first_use)) = found else {
            stats.misses += 1;
            return false;
        };
        stats.hits += 1;
        stats.spec_hits += speculative as u64;
        stats.spec_used += first_use as u64;
        true
    }

    fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool {
        let mut state = self.state.lock();
        state.insert(game, meta, size_bytes, None, &self.config)
    }

    fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool {
        let value = reuse_score * render_cost_ms(size_bytes);
        let mut state = self.state.lock();
        state.insert(game, meta, size_bytes, Some(value), &self.config)
    }

    fn stats(&self) -> StoreStats {
        self.state.lock().stats
    }

    fn admission(&self) -> Admission {
        self.config.admission
    }

    fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes
    }

    fn bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    fn len(&self) -> usize {
        let state = self.state.lock();
        state.caches.values().map(|l| l.cache.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::{GridPoint, LeafId, Vec2};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn meta(ix: i32, iz: i32, leaf: u32, hash: u64) -> FrameMeta {
        FrameMeta {
            grid: GridPoint::new(ix, iz),
            pos: Vec2::new(ix as f64 * 0.1, iz as f64 * 0.1),
            leaf: LeafId(leaf),
            near_hash: hash,
        }
    }

    fn query(m: &FrameMeta, dist_thresh: f64) -> CacheQuery {
        CacheQuery {
            grid: m.grid,
            pos: m.pos,
            leaf: m.leaf,
            near_hash: m.near_hash,
            dist_thresh,
        }
    }

    /// Leaf caches held, how many of them are empty, head-index keys,
    /// and the sum of the caches' own byte counts. Panics unless every
    /// cache has one head key: its true head stamp, or for a cache
    /// flagged stale the stamp it is listed under.
    fn census(store: &LocalStore) -> (usize, usize, usize, u64) {
        let state = store.state.lock();
        let listed: HashMap<LeafKey, u64> = state
            .stale
            .iter()
            .map(|&stamp| (state.heads[&stamp], stamp))
            .collect();
        assert_eq!(
            listed.len(),
            state.stale.len(),
            "a cache listed stale twice"
        );
        for (&key, leaf) in &state.caches {
            let filed = if leaf.stale {
                listed.get(&key).copied()
            } else {
                leaf.cache.oldest_access()
            };
            let found = filed.is_some_and(|stamp| state.heads.get(&stamp) == Some(&key));
            assert!(found, "{key:?} is not filed at {filed:?}");
        }
        assert_eq!(
            state.heads.len(),
            state.caches.len(),
            "one head key per cache"
        );
        let flagged = state.caches.values().filter(|l| l.stale).count();
        assert_eq!(flagged, listed.len(), "every listed cache is flagged");
        let empty = state.caches.values().filter(|l| l.cache.is_empty()).count();
        let bytes = state.caches.values().map(|l| l.cache.bytes()).sum();
        (state.caches.len(), empty, state.heads.len(), bytes)
    }

    #[test]
    fn cross_session_frames_hit_without_session_id() {
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        // "Session A" contributes; "session B" asks for a nearby point.
        assert!(store.insert(GameId::VikingVillage, m, 500_000));
        let near = meta(11, 10, 3, 7);
        assert!(store.lookup(GameId::VikingVillage, &query(&near, 0.5)));
        assert_eq!(store.stats().hits, 1);
        assert!((store.stats().hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trait_object_backend_is_swappable() {
        // The whole point of the redesign: callers hold `&dyn
        // FrameStore` and never know the backend.
        let local = LocalStore::new(StoreConfig::default());
        let store: &dyn FrameStore = &local;
        let m = meta(4, 4, 2, 9);
        assert!(store.insert(GameId::Fps, m, 1000));
        assert!(store.lookup(GameId::Fps, &query(&m, 0.5)));
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.admission(), Admission::Lru);
        assert_eq!(store.bytes(), 1000);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn games_are_isolated() {
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        store.insert(GameId::VikingVillage, m, 100);
        assert!(
            !store.lookup(GameId::Fps, &query(&m, 5.0)),
            "a frame from one game must never serve another"
        );
    }

    #[test]
    fn three_criteria_still_apply() {
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        store.insert(GameId::VikingVillage, m, 100);
        // Wrong leaf.
        let mut q = query(&m, 5.0);
        q.leaf = LeafId(4);
        assert!(!store.lookup(GameId::VikingVillage, &q));
        // Wrong near set.
        let mut q = query(&m, 5.0);
        q.near_hash = 8;
        assert!(!store.lookup(GameId::VikingVillage, &q));
        // Too far.
        let far = meta(80, 10, 3, 7);
        assert!(!store.lookup(GameId::VikingVillage, &query(&far, 0.5)));
    }

    #[test]
    fn duplicates_are_skipped() {
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        assert!(store.insert(GameId::VikingVillage, m, 100));
        assert!(!store.insert(GameId::VikingVillage, m, 100));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().duplicates, 1);
        assert_eq!(store.bytes(), 100);
    }

    #[test]
    fn reinsert_with_different_size_keeps_budget_exact() {
        // Regression: re-inserting the same key with a different-sized
        // payload used to be skipped as a "duplicate", leaving the byte
        // budget tracking the *old* size forever. Under the old code
        // repeated re-encodes made `bytes()` drift away from the true
        // sum of entry sizes; now the old size is debited before the
        // new one is credited.
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        assert!(store.insert(GameId::VikingVillage, m, 100));
        assert_eq!(store.bytes(), 100);
        // Same key, larger payload (re-rendered at a higher quality).
        assert!(store.insert(GameId::VikingVillage, m, 900));
        assert_eq!(store.len(), 1, "replacement must not add an entry");
        assert_eq!(
            store.bytes(),
            900,
            "budget must track the live payload, not the original insert"
        );
        // And shrink back down.
        assert!(store.insert(GameId::VikingVillage, m, 40));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 40);
        let stats = store.stats();
        assert_eq!(stats.replacements, 2);
        assert_eq!(stats.duplicates, 0);
        // Hammer the path: any drift compounds, so after many cycles
        // the budget must still equal the single live entry's size.
        for round in 0..200u64 {
            let size = 50 + (round * 37) % 400;
            store.insert(GameId::VikingVillage, m, size);
            assert_eq!(store.len(), 1);
            let expect = if store.stats().duplicates > 0 {
                store.bytes() // a same-size round is a no-op
            } else {
                size
            };
            assert_eq!(store.bytes(), expect, "drift after round {round}");
        }
    }

    #[test]
    fn same_size_reinsert_is_still_a_duplicate() {
        let store = LocalStore::new(StoreConfig::default());
        let m = meta(10, 10, 3, 7);
        assert!(store.insert(GameId::VikingVillage, m, 100));
        assert!(!store.insert(GameId::VikingVillage, m, 100));
        assert_eq!(store.stats().duplicates, 1);
        assert_eq!(store.stats().replacements, 0);
        assert_eq!(store.bytes(), 100);
    }

    #[test]
    fn speculative_frames_are_tracked_through_use() {
        let store = LocalStore::new(StoreConfig::default());
        let a = meta(10, 10, 3, 7);
        let b = meta(20, 20, 3, 7);
        assert!(store.insert_speculative(GameId::VikingVillage, a, 100, 1.0));
        assert!(store.insert_speculative(GameId::VikingVillage, b, 100, 1.0));
        assert_eq!(store.stats().spec_rendered, 2);
        // Two hits on the same speculative frame: spec_hits counts
        // both, spec_used counts the frame once.
        assert!(store.lookup(GameId::VikingVillage, &query(&a, 0.5)));
        assert!(store.lookup(GameId::VikingVillage, &query(&a, 0.5)));
        let stats = store.stats();
        assert_eq!(stats.spec_hits, 2);
        assert_eq!(stats.spec_used, 1);
        assert!((stats.spec_precision() - 0.5).abs() < 1e-12);
        assert!((stats.spec_recall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_aware_admission_refuses_low_value_speculation() {
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 250,
            admission: Admission::CostAware,
        });
        let a = meta(10, 10, 1, 7);
        let b = meta(10, 10, 2, 7);
        assert!(store.insert_speculative(GameId::VikingVillage, a, 150, 5.0));
        // Over budget, but worth more than the resident frame: admitted
        // (and the LRU evicts `a`).
        assert!(store.insert_speculative(GameId::VikingVillage, b, 150, 6.0));
        // A near-zero reuse score is worth less than the resident
        // frame, so the insert is refused and nothing is evicted.
        let c = meta(10, 10, 3, 7);
        assert!(!store.insert_speculative(GameId::VikingVillage, c, 150, 0.0));
        assert_eq!(store.stats().spec_rejected, 1);
        assert!(store.lookup(GameId::VikingVillage, &query(&b, 0.5)));
        // A high-value candidate still gets in (and LRU evicts).
        let d = meta(10, 10, 4, 7);
        assert!(store.insert_speculative(GameId::VikingVillage, d, 150, 50.0));
    }

    #[test]
    fn lru_admission_always_admits_speculation() {
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 250,
            ..StoreConfig::default()
        });
        let a = meta(10, 10, 1, 7);
        let b = meta(10, 10, 2, 7);
        let c = meta(10, 10, 3, 7);
        assert!(store.insert_speculative(GameId::VikingVillage, a, 150, 5.0));
        assert!(store.insert_speculative(GameId::VikingVillage, b, 150, 5.0));
        assert!(store.insert_speculative(GameId::VikingVillage, c, 150, 0.0));
        assert_eq!(store.stats().spec_rejected, 0);
        assert!(store.stats().evictions > 0);
    }

    #[test]
    fn budget_evicts_globally_oldest_across_leaves() {
        // Three frames of 100 B in *different leaves* (hence different
        // leaf caches) under a 250 B budget: the first-inserted frame
        // is the globally oldest and must be the one evicted.
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 250,
            ..StoreConfig::default()
        });
        let a = meta(10, 10, 1, 7);
        let b = meta(10, 10, 2, 7);
        let c = meta(10, 10, 3, 7);
        store.insert(GameId::VikingVillage, a, 100);
        store.insert(GameId::VikingVillage, b, 100);
        store.insert(GameId::VikingVillage, c, 100);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.bytes() <= 250);
        assert!(
            !store.lookup(GameId::VikingVillage, &query(&a, 0.5)),
            "oldest evicted"
        );
        assert!(store.lookup(GameId::VikingVillage, &query(&b, 0.5)));
        assert!(store.lookup(GameId::VikingVillage, &query(&c, 0.5)));
    }

    #[test]
    fn hits_refresh_global_recency() {
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 250,
            ..StoreConfig::default()
        });
        let a = meta(10, 10, 1, 7);
        let b = meta(10, 10, 2, 7);
        store.insert(GameId::VikingVillage, a, 100);
        store.insert(GameId::VikingVillage, b, 100);
        // Touch a: b becomes globally oldest.
        assert!(store.lookup(GameId::VikingVillage, &query(&a, 0.5)));
        let c = meta(10, 10, 3, 7);
        store.insert(GameId::VikingVillage, c, 100);
        assert!(
            store.lookup(GameId::VikingVillage, &query(&a, 0.5)),
            "refreshed frame kept"
        );
        assert!(
            !store.lookup(GameId::VikingVillage, &query(&b, 0.5)),
            "stale frame evicted"
        );
    }

    #[test]
    fn stats_ratios_are_finite_for_degenerate_counters() {
        // Zero-traffic store: all ratios are 0, not NaN.
        let zero = StoreStats::default();
        assert_eq!(zero.hit_ratio(), 0.0);
        assert_eq!(zero.spec_precision(), 0.0);
        assert_eq!(zero.spec_recall(), 0.0);
        // Saturated counters: no overflow panic, ratios stay in [0,1].
        let max = StoreStats {
            hits: u64::MAX,
            misses: u64::MAX,
            spec_hits: u64::MAX,
            spec_rendered: u64::MAX,
            spec_used: u64::MAX,
            ..StoreStats::default()
        };
        for r in [max.hit_ratio(), max.spec_precision(), max.spec_recall()] {
            assert!(r.is_finite() && (0.0..=1.0).contains(&r), "ratio {r}");
        }
        // merged saturates instead of wrapping.
        let merged = max.merged(max);
        assert_eq!(merged.hits, u64::MAX);
    }

    #[test]
    fn concurrent_access_is_safe() {
        // Smoke test: hammer the store from several threads. Results
        // are not asserted deterministic here (the fleet serializes for
        // that) — only that counters and budget stay coherent.
        let store = std::sync::Arc::new(LocalStore::new(StoreConfig {
            capacity_bytes: 10_000,
            ..StoreConfig::default()
        }));
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..200i32 {
                        let m = meta(i, t, (i % 5) as u32, 7);
                        store.insert(GameId::Fps, m, 100);
                        store.lookup(GameId::Fps, &query(&m, 0.5));
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(store.bytes() <= 10_000);
        assert!(stats.insertions > 0);
        // Whatever the interleaving was, the books balance: the budget
        // counter equals what the caches hold, every cache is filed in
        // the head index, and evicting the oldest empties the store.
        let (caches, empty, heads, cache_bytes) = census(&store);
        assert_eq!(store.bytes(), cache_bytes);
        assert_eq!(store.bytes(), store.len() as u64 * 100);
        assert_eq!((empty, heads), (0, caches));
        for left in (0..store.len()).rev() {
            assert_eq!(store.evict_oldest(), Some(100));
            assert_eq!(store.len(), left);
        }
        assert_eq!(store.evict_oldest(), None);
        assert_eq!(store.bytes(), 0);
        assert_eq!(census(&store), (0, 0, 0, 0));
    }

    #[test]
    fn budget_holds_under_concurrent_writers_and_drains_in_stamp_order() {
        // Each call lands whole under the store's one lock: a reader
        // never sees an insert's bytes before the evictions they force,
        // and no two entries share a stamp. Every frame has its own
        // size, so a frame evicted twice shows up as a repeated size.
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 20_000,
            ..StoreConfig::default()
        });
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let bytes = store.bytes();
                    assert!(bytes <= store.capacity_bytes(), "{bytes} B over budget");
                }
            });
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || {
                        for i in 0..500u64 {
                            let m = meta(i as i32, t as i32, (i % 7) as u32, 7);
                            assert!(store.insert(GameId::Fps, m, 1000 + t * 500 + i));
                            store.lookup(GameId::Fps, &query(&m, 0.5));
                        }
                    })
                })
                .collect();
            let writers: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Release);
            reader.join().expect("the budget held");
            assert!(writers.into_iter().all(|w| w.is_ok()), "a writer panicked");
        });
        assert_eq!(store.stats().insertions, 2_000);
        let (len, bytes) = (store.len(), store.bytes());
        assert_eq!(census(&store).3, bytes);
        let mut stamps = Vec::new();
        let mut freed: Vec<u64> = std::iter::from_fn(|| {
            stamps.extend(store.oldest_stamp());
            store.evict_oldest()
        })
        .collect();
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "drain stamps {stamps:?}"
        );
        assert_eq!((stamps.len(), freed.len()), (len, len));
        assert_eq!(freed.iter().sum::<u64>(), bytes);
        freed.sort_unstable();
        freed.dedup();
        assert_eq!(freed.len(), len, "a frame evicted twice");
        assert_eq!(census(&store), (0, 0, 0, 0));
    }

    #[test]
    fn emptied_leaf_caches_are_freed() {
        // A store that holds ~8 frames roams across 2 500 leaves. Every
        // leaf it leaves behind has had its last frame evicted; its
        // cache must go with it, or a long-running server grows with
        // every leaf it has ever visited.
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 8 * 1500,
            ..StoreConfig::default()
        });
        for leaf in 0..2_500u32 {
            for i in 0..3 {
                assert!(store.insert(GameId::Fps, meta(i * 10, 0, leaf, 7), 1500));
            }
            let (caches, empty, heads, _) = census(&store);
            assert_eq!(empty, 0, "an emptied cache outlived its last frame");
            assert_eq!(heads, caches);
            assert!(
                caches <= store.len(),
                "{caches} caches for {} frames",
                store.len()
            );
        }
        assert_eq!(store.len(), 8);
        // Replacing a leaf's only frame keeps its cache; evicting it
        // drops the cache.
        let lone = LocalStore::new(StoreConfig::default());
        assert!(lone.insert(GameId::Fps, meta(1, 1, 9, 7), 100));
        assert!(lone.insert(GameId::Fps, meta(1, 1, 9, 7), 200));
        assert_eq!(census(&lone), (1, 0, 1, 200));
        assert_eq!(lone.evict_oldest(), Some(200));
        assert_eq!(census(&lone), (0, 0, 0, 0));
    }
}
