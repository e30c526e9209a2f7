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
//! program against the [`FrameStore`] trait, so the backend is
//! swappable at construction time:
//!
//! - [`LocalStore`] — one in-process store (this module).
//! - [`crate::ShardedStore`] — a fleet-wide store partitioned across
//!   worker processes by consistent hashing (see [`crate::shard`]).
//!
//! The local store stripes by `(game, leaf region)`: lookups only ever
//! match within one leaf (criterion 2), so a stripe holds everything a
//! lookup can see and stripes never need to cooperate on reads. Each
//! stripe keeps one [`FrameCache`] per `(game, leaf)` in the session-free
//! [`CacheVersion::FLEET`] configuration behind a `parking_lot` mutex;
//! a cache that an eviction or a replacement empties is dropped, so the
//! store holds no more caches than it holds leaves with frames.
//!
//! A single global byte budget spans all stripes, and eviction runs one
//! *global* LRU: every cache is stamped from one atomic clock and the
//! victim is always the entry with the smallest stamp anywhere. Finding
//! it costs no scan. Each cache threads its entries onto a recency list,
//! so its least recently used entry is the list head; each stripe keeps
//! a `BTreeSet` head index of `(head stamp, game, leaf)`, one key per
//! cache; and the global victim is the smallest of the stripes' first
//! keys. One victim costs O(stripes · log leaves), whatever the number
//! of frames. The index is keyed by the whole triple because stamps are
//! unique only while operations are serialized: a worker takes its
//! ticket before it takes the stripe lock, so with several workers two
//! caches can carry the same head stamp, and a stamp-keyed index would
//! drop one of them from eviction for good. Equal stamps go to the
//! lowest stripe, then the lowest `(game, leaf)`.
//!
//! The index is exact except for caches a hit has moved. A hit touches
//! its frame, which in a leaf cache of a handful of frames is nearly
//! always the head; but a hit only *raises* a head stamp, so instead of
//! a B-tree remove and insert it flags the cache stale and lists it once
//! under its filed stamp. A stripe re-files its listed caches before any
//! other operation on a cache and before its oldest entry is read. Checking
//! each stripe's first key against its cache on every read instead would
//! cost every eviction a hash probe per stripe, and a full store evicts on
//! every insert.

use crate::farm::render_cost_ms;
use coterie_core::{
    CacheConfig, CacheQuery, CacheVersion, EvictionPolicy, FrameCache, FrameMeta, FrameSource,
};
use coterie_world::GameId;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Global payload budget across all stripes, bytes.
    pub capacity_bytes: u64,
    /// Number of mutex-guarded stripes (lock striping width).
    pub shards: usize,
    /// Over-budget admission policy for speculative inserts.
    pub admission: Admission,
}

impl Default for StoreConfig {
    /// 256 MB over 16 stripes — enough for a small fleet without
    /// swamping a test machine.
    fn default() -> Self {
        StoreConfig {
            capacity_bytes: 256 * 1024 * 1024,
            shards: 16,
            admission: Admission::Lru,
        }
    }
}

/// Aggregate store counters (monotonic over the store's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a qualifying frame in an owned partition.
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
    /// Operations routed to a remote-owned partition (sharded backend;
    /// always 0 for a [`LocalStore`]).
    pub forwards: u64,
    /// Lookups served out of a worker's local hot-replica cache instead
    /// of the remote owner (sharded backend; always 0 locally).
    pub replica_hits: u64,
    /// Hot entries copied into a replica cache by the epoch exchange
    /// (sharded backend; always 0 locally).
    pub replica_inserts: u64,
}

impl StoreStats {
    /// Hit ratio in `[0, 1]` (0 before any lookup). Replica hits are
    /// genuine store hits — the frame was served without a render —
    /// so they count toward the numerator and the traffic total.
    ///
    /// Computed in `f64` so zero-traffic partitions yield 0 (never
    /// NaN) and astronomically large counters cannot overflow the
    /// integer sum.
    pub fn hit_ratio(&self) -> f64 {
        let served = self.hits as f64 + self.replica_hits as f64;
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
    /// The candidate sum is computed in `f64`, so partitions with
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

    /// Element-wise sum, for fleets aggregating per-partition stores.
    ///
    /// Uses saturating addition, which keeps the fold associative and
    /// commutative for *any* operand values (`min(Σ, u64::MAX)` is
    /// independent of grouping) — sharded fleets merge stats from many
    /// partitions in whatever order the exchange visits them, and the
    /// result must not depend on that order.
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
            forwards: self.forwards.saturating_add(other.forwards),
            replica_hits: self.replica_hits.saturating_add(other.replica_hits),
            replica_inserts: self.replica_inserts.saturating_add(other.replica_inserts),
        }
    }
}

/// The backend API every frame-store consumer programs against.
///
/// `Room`, the pre-render farm and the socket serving plane take
/// `&dyn FrameStore` / `Arc<dyn FrameStore>`, so the backend is chosen
/// once at construction (`--store local|sharded`) and nothing else in
/// the pipeline knows which one it got. All methods take `&self` —
/// backends are internally synchronized — and `Send + Sync` is a
/// supertrait so trait objects cross worker threads.
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
    /// `reuse_score` is the predictor's reuse estimate, scored against
    /// the eviction victim under cost-aware admission.
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
/// in the head index (the stripe's `stale` list then names it).
#[derive(Debug)]
struct Leaf {
    cache: FrameCache<FrameTag>,
    stale: bool,
}

/// One lock-striped stripe: the leaf caches of every `(game, leaf)`
/// pair that hashes to it, none of them empty.
#[derive(Debug, Default)]
struct Stripe {
    caches: HashMap<LeafKey, Leaf>,
    /// The head index: `(stamp, game, leaf)` of every cache's least
    /// recently used entry, so the stripe's oldest entry is the first
    /// key once `stale` is re-filed. The cache key is part of the index
    /// key because two caches can carry the same stamp (see the module
    /// doc).
    heads: BTreeSet<(u64, LeafKey)>,
    /// `(filed stamp, key)` of every cache flagged stale, once each.
    stale: Vec<(u64, LeafKey)>,
}

impl Stripe {
    /// Re-files every cache a hit has moved at its true head stamp.
    fn refile(&mut self) {
        for (filed, key) in self.stale.drain(..) {
            let leaf = self.caches.get_mut(&key).expect("a stale cache is kept");
            leaf.stale = false;
            let head = leaf.cache.oldest_access().expect("a hit empties no cache");
            self.heads.remove(&(filed, key));
            self.heads.insert((head, key));
        }
    }

    /// Runs the lookup `op` on the cache of `key` (`None` if there is
    /// none). A hit only ever raises the head stamp, so a cache whose
    /// head moved is flagged and listed stale instead of re-filed.
    fn lookup<R>(
        &mut self,
        key: LeafKey,
        op: impl FnOnce(&mut FrameCache<FrameTag>) -> R,
    ) -> Option<R> {
        let leaf = self.caches.get_mut(&key)?;
        let filed = leaf.cache.oldest_access();
        let result = op(&mut leaf.cache);
        if !leaf.stale && leaf.cache.oldest_access() != filed {
            leaf.stale = true;
            self.stale.extend(filed.map(|stamp| (stamp, key)));
        }
        Some(result)
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
        let cache = &mut leaf.cache;
        let before = cache.oldest_access();
        let result = op(cache);
        let after = cache.oldest_access();
        if before != after {
            if let Some(stamp) = before {
                self.heads.remove(&(stamp, key));
            }
            if let Some(stamp) = after {
                self.heads.insert((stamp, key));
            }
        }
        if after.is_none() {
            self.caches.remove(&key);
        }
        Some(result)
    }
}

/// A recent insert, recorded for the sharded backend's epoch-batched
/// hot-entry adverts.
#[derive(Debug, Clone, Copy)]
pub struct RecentInsert {
    /// Game the frame belongs to.
    pub game: GameId,
    /// Frame identity (grid point, position, leaf, near-set hash).
    pub meta: FrameMeta,
    /// Payload size, bytes.
    pub bytes: u64,
    /// Global-clock stamp of the insert.
    pub stamp: u64,
    /// Admission value carried by the frame's tag.
    pub value: f64,
}

/// Upper bound on buffered [`RecentInsert`]s between advert drains, so
/// an owner that is never drained cannot grow without bound.
const RECENT_CAP: usize = 1024;

/// The in-process [`FrameStore`] backend: one store shared by every
/// room of the fleet (or one partition of the sharded fabric).
///
/// Thread-safe (atomics + per-stripe mutexes). Determinism note: the
/// store itself is deterministic for a fixed *sequence* of operations;
/// fleet runs that need byte-identical reports must serialize their
/// store mutations (the [`crate::Fleet`] epoch loop visits rooms in id
/// order for exactly this reason).
#[derive(Debug)]
pub struct LocalStore {
    config: StoreConfig,
    stripes: Vec<Mutex<Stripe>>,
    /// Global logical clock; every operation takes a ticket, so
    /// serialized operations stamp `last_access` in one total order
    /// across stripes (concurrent ones may tie; see the module doc). Shared
    /// (`Arc`) so the sharded fabric can stamp all its partitions from
    /// one clock and keep cross-partition LRU coherent.
    clock: Arc<AtomicU64>,
    /// Live byte budget. Starts at `config.capacity_bytes`; the sharded
    /// fabric's anti-entropy pass may rebalance it between partitions.
    capacity: AtomicU64,
    /// Global payload bytes across stripes.
    bytes: AtomicU64,
    /// When set, inserts are also buffered as [`RecentInsert`]s for
    /// the sharded backend's epoch adverts (off by default: the local
    /// backend never pays for bookkeeping it does not use).
    advertise: AtomicBool,
    recent: Mutex<Vec<RecentInsert>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    duplicates: AtomicU64,
    replacements: AtomicU64,
    evictions: AtomicU64,
    spec_rendered: AtomicU64,
    spec_used: AtomicU64,
    spec_hits: AtomicU64,
    spec_rejected: AtomicU64,
}

impl LocalStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or the capacity is zero.
    pub fn new(config: StoreConfig) -> Self {
        LocalStore::new_with_clock(config, Arc::new(AtomicU64::new(0)))
    }

    /// [`LocalStore::new`] with an externally shared global clock: the
    /// sharded fabric hands every partition the same `Arc` so access
    /// stamps are totally ordered *across* partitions and the
    /// fleet-wide LRU stays coherent.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LocalStore::new`].
    pub fn new_with_clock(config: StoreConfig, clock: Arc<AtomicU64>) -> Self {
        assert!(config.shards > 0, "store needs at least one stripe");
        assert!(config.capacity_bytes > 0, "store capacity must be positive");
        LocalStore {
            config,
            stripes: (0..config.shards)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            clock,
            capacity: AtomicU64::new(config.capacity_bytes),
            bytes: AtomicU64::new(0),
            advertise: AtomicBool::new(false),
            recent: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spec_rendered: AtomicU64::new(0),
            spec_used: AtomicU64::new(0),
            spec_hits: AtomicU64::new(0),
            spec_rejected: AtomicU64::new(0),
        }
    }

    /// The construction-time configuration (the *live* budget may have
    /// been rebalanced since; see [`LocalStore::capacity_bytes`]).
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Total cached payload bytes across stripes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The live byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Rebalances the live byte budget (sharded anti-entropy). Shrinking
    /// below current occupancy only takes effect at the caller's next
    /// eviction sweep — the store never evicts inside this call.
    pub fn set_capacity_bytes(&self, capacity_bytes: u64) {
        self.capacity
            .store(capacity_bytes.max(1), Ordering::Relaxed);
    }

    /// Number of cached frames across stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .caches
                    .values()
                    .map(|l| l.cache.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether no stripe holds any frame.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            spec_rendered: self.spec_rendered.load(Ordering::Relaxed),
            spec_used: self.spec_used.load(Ordering::Relaxed),
            spec_hits: self.spec_hits.load(Ordering::Relaxed),
            spec_rejected: self.spec_rejected.load(Ordering::Relaxed),
            forwards: 0,
            replica_hits: 0,
            replica_inserts: 0,
        }
    }

    /// Turns on [`RecentInsert`] buffering (sharded fabric only).
    pub fn set_advertise(&self, on: bool) {
        self.advertise.store(on, Ordering::Relaxed);
    }

    /// Drains the buffered recent inserts (newest last). Empty unless
    /// advertising was enabled via [`LocalStore::set_advertise`].
    pub fn drain_recent(&self) -> Vec<RecentInsert> {
        std::mem::take(&mut *self.recent.lock())
    }

    /// FNV-1a over the stripe key, so `(game, leaf)` pairs spread
    /// evenly across stripes.
    fn stripe_index(&self, game: GameId, leaf: u32) -> usize {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in (game as u32)
            .to_le_bytes()
            .into_iter()
            .chain(leaf.to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.stripes.len() as u64) as usize
    }

    fn fresh_ticket(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a frame for `query` among every frame any session of
    /// `game` has contributed. Applies the paper's three criteria with
    /// the closest qualifying frame winning; a hit refreshes the
    /// frame's global recency.
    pub fn lookup(&self, game: GameId, query: &CacheQuery) -> bool {
        let ticket = self.fresh_ticket();
        let mut stripe = self.stripes[self.stripe_index(game, query.leaf.0)].lock();
        let mut spec_hit = false;
        let mut first_use = false;
        let hit = stripe
            .lookup((game, query.leaf.0), |cache| {
                cache.advance_clock(ticket);
                match cache.lookup_mut(query) {
                    Some(tag) => {
                        if tag.speculative {
                            spec_hit = true;
                            first_use = !tag.used;
                        }
                        tag.used = true;
                        true
                    }
                    None => false,
                }
            })
            .unwrap_or(false);
        drop(stripe);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if spec_hit {
                self.spec_hits.fetch_add(1, Ordering::Relaxed);
            }
            if first_use {
                self.spec_used.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts a demand-rendered frame contributed by any session of
    /// `game`. Duplicates (a frame already covering the exact position,
    /// leaf and near set at the same size) are skipped so backfill
    /// cannot bloat the store. Returns whether the frame was admitted.
    pub fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool {
        self.insert_tagged(
            game,
            meta,
            size_bytes,
            FrameTag {
                speculative: false,
                used: false,
                value: 0.0,
            },
        )
    }

    /// Inserts a frame rendered speculatively by the pre-render farm.
    /// `reuse_score` is the predictor's estimate of how soon/often the
    /// frame will be requested; the admission value is that score
    /// weighted by the simulated render cost of the payload, so
    /// cost-aware admission keeps expensive frames it expects to reuse
    /// and refuses cheap long-shots over a full budget.
    pub fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool {
        let value = reuse_score * render_cost_ms(size_bytes);
        if self.config.admission == Admission::CostAware
            && self.bytes.load(Ordering::Relaxed) + size_bytes > self.capacity_bytes()
        {
            // Admitting would evict the globally-oldest frame; only do
            // it if this candidate is worth more than that victim.
            let victim_value = self.oldest_value();
            if victim_value.map(|v| v >= value).unwrap_or(false) {
                self.spec_rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        let admitted = self.insert_tagged(
            game,
            meta,
            size_bytes,
            FrameTag {
                speculative: true,
                used: false,
                value,
            },
        );
        if admitted {
            self.spec_rendered.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Where this store's oldest entry lives — stripe, cache and stamp —
    /// or `None` when the store is empty: the smallest first key of the
    /// stripes' head indexes, each made exact first. The one victim
    /// search every LRU decision shares.
    fn oldest(&self) -> Option<(usize, LeafKey, u64)> {
        let mut oldest: Option<(usize, LeafKey, u64)> = None;
        for (si, stripe) in self.stripes.iter().enumerate() {
            let mut stripe = stripe.lock();
            stripe.refile();
            if let Some(&(stamp, key)) = stripe.heads.first() {
                if oldest.map(|(_, _, v)| stamp < v).unwrap_or(true) {
                    oldest = Some((si, key, stamp));
                }
            }
        }
        oldest
    }

    /// The admission value of the globally-oldest frame (the one an
    /// over-budget insert would evict), if any.
    fn oldest_value(&self) -> Option<f64> {
        let (si, key, _) = self.oldest()?;
        let stripe = self.stripes[si].lock();
        let (_, tag) = stripe.caches.get(&key)?.cache.oldest_entry()?;
        Some(tag.value)
    }

    /// The access stamp of this store's oldest entry (`None` when
    /// empty). The sharded fabric compares stamps across partitions —
    /// all drawn from one shared clock — to find the *globally* oldest
    /// frame during anti-entropy eviction.
    pub fn oldest_stamp(&self) -> Option<u64> {
        self.oldest().map(|(_, _, stamp)| stamp)
    }

    /// Evicts this store's single oldest entry, returning the bytes
    /// freed (`None` when empty). Used by the sharded fabric's global
    /// eviction sweep and by local budget enforcement.
    pub fn evict_oldest(&self) -> Option<u64> {
        loop {
            let (si, key, _) = self.oldest()?;
            // The stripe lock was released in between: under concurrent
            // use another thread may have evicted that cache's last
            // entry first, and the search simply runs again.
            let evicted = self.stripes[si]
                .lock()
                .on_cache(key, false, FrameCache::evict_lru);
            if let Some(freed) = evicted.flatten() {
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return Some(freed);
            }
        }
    }

    fn insert_tagged(&self, game: GameId, meta: FrameMeta, size_bytes: u64, tag: FrameTag) -> bool {
        let ticket = self.fresh_ticket();
        let dup_probe = CacheQuery {
            grid: meta.grid,
            pos: meta.pos,
            leaf: meta.leaf,
            near_hash: meta.near_hash,
            dist_thresh: 0.0,
        };
        let mut stripe = self.stripes[self.stripe_index(game, meta.leaf.0)].lock();
        let mut replaced = None;
        let admitted = stripe
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
        drop(stripe);
        if !admitted {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(old_size) = replaced {
            // Debit the old bytes *before* crediting the new so the
            // global budget tracks the true sum of entry sizes.
            self.bytes.fetch_sub(old_size, Ordering::Relaxed);
            self.replacements.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size_bytes, Ordering::Relaxed);
        if self.advertise.load(Ordering::Relaxed) {
            let mut recent = self.recent.lock();
            if recent.len() < RECENT_CAP {
                recent.push(RecentInsert {
                    game,
                    meta,
                    bytes: size_bytes,
                    stamp: ticket,
                    value: tag.value,
                });
            }
        }
        self.enforce_budget();
        true
    }

    /// Evicts globally-oldest frames until the byte budget holds (or
    /// nothing is left to evict).
    fn enforce_budget(&self) {
        while self.bytes.load(Ordering::Relaxed) > self.capacity_bytes() {
            if self.evict_oldest().is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
impl LocalStore {
    /// Leaf caches held, how many of them are empty, head-index keys,
    /// and the sum of the caches' own byte counts. Panics unless every
    /// cache has one head key: its true head stamp, or for a cache
    /// flagged stale the stamp it is listed under.
    fn census(&self) -> (usize, usize, usize, u64) {
        let (mut caches, mut empty, mut heads, mut bytes) = (0, 0, 0, 0);
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            let listed: HashMap<LeafKey, u64> = stripe
                .stale
                .iter()
                .map(|&(stamp, key)| (key, stamp))
                .collect();
            assert_eq!(
                listed.len(),
                stripe.stale.len(),
                "a cache listed stale twice"
            );
            for (&key, leaf) in &stripe.caches {
                let filed = if leaf.stale {
                    listed.get(&key).copied()
                } else {
                    leaf.cache.oldest_access()
                };
                let found = filed.is_some_and(|stamp| stripe.heads.contains(&(stamp, key)));
                assert!(found, "{key:?} is not filed at {filed:?}");
            }
            assert_eq!(
                stripe.heads.len(),
                stripe.caches.len(),
                "one head key per cache"
            );
            let flagged = stripe.caches.values().filter(|l| l.stale).count();
            assert_eq!(flagged, listed.len(), "every listed cache is flagged");
            caches += stripe.caches.len();
            empty += stripe
                .caches
                .values()
                .filter(|l| l.cache.is_empty())
                .count();
            heads += stripe.heads.len();
            bytes += stripe.caches.values().map(|l| l.cache.bytes()).sum::<u64>();
        }
        (caches, empty, heads, bytes)
    }
}

impl FrameStore for LocalStore {
    fn lookup(&self, game: GameId, query: &CacheQuery) -> bool {
        LocalStore::lookup(self, game, query)
    }

    fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool {
        LocalStore::insert(self, game, meta, size_bytes)
    }

    fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool {
        LocalStore::insert_speculative(self, game, meta, size_bytes, reuse_score)
    }

    fn stats(&self) -> StoreStats {
        LocalStore::stats(self)
    }

    fn admission(&self) -> Admission {
        self.config.admission
    }

    fn capacity_bytes(&self) -> u64 {
        LocalStore::capacity_bytes(self)
    }

    fn bytes(&self) -> u64 {
        LocalStore::bytes(self)
    }

    fn len(&self) -> usize {
        LocalStore::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::{GridPoint, LeafId, Vec2};

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
            shards: 4,
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
            shards: 4,
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
    fn budget_evicts_globally_oldest_across_stripes() {
        // Three frames of 100 B in *different leaves* (hence different
        // stripes) under a 250 B budget: the first-inserted frame is
        // the globally oldest and must be the one evicted.
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 250,
            shards: 4,
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
            shards: 4,
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
    fn shared_clock_orders_stamps_across_stores() {
        // Two partitions on one clock: entries inserted later into the
        // *other* partition must carry younger stamps, so the fabric's
        // global eviction can compare them directly.
        let clock = Arc::new(AtomicU64::new(0));
        let a = LocalStore::new_with_clock(StoreConfig::default(), clock.clone());
        let b = LocalStore::new_with_clock(StoreConfig::default(), clock);
        a.insert(GameId::Fps, meta(1, 1, 1, 7), 100);
        b.insert(GameId::Fps, meta(2, 2, 2, 7), 100);
        a.insert(GameId::Fps, meta(3, 3, 3, 7), 100);
        let oldest_a = a.oldest_stamp().unwrap();
        let oldest_b = b.oldest_stamp().unwrap();
        assert!(oldest_a < oldest_b, "a's first insert is globally oldest");
        // Evicting the global minimum frees a's first frame.
        assert_eq!(a.evict_oldest(), Some(100));
        assert!(!a.lookup(GameId::Fps, &query(&meta(1, 1, 1, 7), 0.1)));
        assert!(a.lookup(GameId::Fps, &query(&meta(3, 3, 3, 7), 0.1)));
    }

    #[test]
    fn capacity_rebalance_takes_effect_on_next_insert() {
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 1000,
            shards: 4,
            ..StoreConfig::default()
        });
        store.insert(GameId::Fps, meta(1, 1, 1, 7), 400);
        store.insert(GameId::Fps, meta(2, 2, 2, 7), 400);
        assert_eq!(store.len(), 2);
        // Shrink the live budget below occupancy: nothing evicts yet…
        store.set_capacity_bytes(500);
        assert_eq!(store.len(), 2);
        // …but the next insert's budget sweep trims to the new cap.
        store.insert(GameId::Fps, meta(3, 3, 3, 7), 400);
        assert!(store.bytes() <= 500, "bytes {} over cap", store.bytes());
    }

    #[test]
    fn recent_inserts_buffer_only_when_advertising() {
        let store = LocalStore::new(StoreConfig::default());
        store.insert(GameId::Fps, meta(1, 1, 1, 7), 100);
        assert!(store.drain_recent().is_empty(), "off by default");
        store.set_advertise(true);
        store.insert(GameId::Fps, meta(2, 2, 2, 7), 150);
        store.insert_speculative(GameId::Fps, meta(3, 3, 3, 7), 200, 1.0);
        let recent = store.drain_recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].bytes, 150);
        assert_eq!(recent[1].bytes, 200);
        assert!(recent[0].stamp < recent[1].stamp);
        assert!(store.drain_recent().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn stats_ratios_are_finite_for_degenerate_counters() {
        // Zero-traffic partition: all ratios are 0, not NaN.
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
            replica_hits: u64::MAX,
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
            shards: 4,
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
        let (caches, empty, heads, cache_bytes) = store.census();
        assert_eq!(store.bytes(), cache_bytes);
        assert_eq!(store.bytes(), store.len() as u64 * 100);
        assert_eq!((empty, heads), (0, caches));
        for left in (0..store.len()).rev() {
            assert_eq!(store.evict_oldest(), Some(100));
            assert_eq!(store.len(), left);
        }
        assert_eq!(store.evict_oldest(), None);
        assert_eq!(store.bytes(), 0);
        assert_eq!(store.census(), (0, 0, 0, 0));
    }

    #[test]
    fn equal_stamps_in_one_stripe_evict_each_entry_once() {
        // With several workers a ticket is drawn before the stripe lock
        // is taken, so two caches can end up with the same head stamp.
        // Forced here without threads by rewinding the shared clock
        // between inserts into two leaves of one stripe; an index keyed
        // by the stamp alone would file one cache over the other and
        // never evict its frames.
        let clock = Arc::new(AtomicU64::new(0));
        let store = LocalStore::new_with_clock(
            StoreConfig {
                shards: 4,
                ..StoreConfig::default()
            },
            clock.clone(),
        );
        let game = GameId::Fps;
        let first = store.stripe_index(game, 0);
        let twin = (1..)
            .find(|&leaf| store.stripe_index(game, leaf) == first)
            .expect("some leaf shares a stripe with leaf 0");
        let mut sizes = Vec::new();
        for round in 0..3u64 {
            for leaf in [0, twin] {
                clock.store(10 + round, Ordering::Relaxed);
                let size = 100 + sizes.len() as u64;
                assert!(store.insert(game, meta(round as i32 * 40, 0, leaf, 7), size));
                sizes.push(size);
            }
        }
        assert_eq!(store.census().2, 2, "one head-index key per cache");
        let mut stamps = Vec::new();
        let mut freed: Vec<u64> = std::iter::from_fn(|| {
            stamps.extend(store.oldest_stamp());
            store.evict_oldest()
        })
        .collect();
        assert_eq!(stamps, [11, 11, 12, 12, 13, 13], "the two caches tie");
        freed.sort_unstable();
        assert_eq!(freed, sizes, "every entry evicted exactly once");
        assert_eq!((store.bytes(), store.len()), (0, 0));
        assert_eq!(store.oldest_stamp(), None);
        assert_eq!(store.stats().evictions, 6);
    }

    #[test]
    fn emptied_leaf_caches_are_freed() {
        // A store that holds ~8 frames roams across 2 500 leaves. Every
        // leaf it leaves behind has had its last frame evicted; its
        // cache must go with it, or a long-running server grows with
        // every leaf it has ever visited.
        let store = LocalStore::new(StoreConfig {
            capacity_bytes: 8 * 1500,
            shards: 4,
            ..StoreConfig::default()
        });
        for leaf in 0..2_500u32 {
            for i in 0..3 {
                assert!(store.insert(GameId::Fps, meta(i * 10, 0, leaf, 7), 1500));
            }
            let (caches, empty, heads, _) = store.census();
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
        assert_eq!(lone.census(), (1, 0, 1, 200));
        assert_eq!(lone.evict_oldest(), Some(200));
        assert_eq!(lone.census(), (0, 0, 0, 0));
    }
}
