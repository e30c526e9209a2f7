//! The far-BE frame cache (§5.3 of the paper).
//!
//! Each Coterie client caches prefetched far-BE frames. A lookup for grid
//! point *k* returns a cached frame as a hit only when three criteria
//! hold:
//!
//! 1. the cached frame's grid point is within the leaf region's
//!    `dist_thresh` of *k*,
//! 2. both grid points lie in the *same leaf region* (regions may use
//!    different cutoff radii, which would leave a near/far gap),
//! 3. the corresponding near BEs contain the *same set of objects*, so
//!    the merge has no missing parts.
//!
//! Among qualifying frames the closest one wins. Replacement is LRU or
//! FLF ("furthest location first", evicting the frame furthest from the
//! player's current position); the paper finds both effective because
//! temporal and spatial locality coincide (§7).
//!
//! [`CacheVersion`] reproduces the five lookup configurations of Table 4
//! used for the inter-player-similarity study (§4.6).

use coterie_world::{GridPoint, LeafId, Vec2};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How a candidate cached frame may match a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchMode {
    /// Only the identical grid point matches.
    Exact,
    /// Any frame satisfying the three similarity criteria matches.
    Similar,
}

/// Where a cached frame came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameSource {
    /// Prefetched by this client for itself.
    SelfPrefetch,
    /// Overheard from a reply to another player (promiscuous mode).
    Overheard,
    /// Produced by another session of the same game and shared through a
    /// server-side fleet store. Far-BE frames depend only on world
    /// geometry (grid point, leaf region, near-BE object set), never on
    /// which session rendered them, so cross-session reuse is sound
    /// whenever the same three criteria hold.
    Fleet,
}

/// One of the paper's five cache configurations (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheVersion {
    /// Matching allowed against self-prefetched (intra-player) frames.
    pub intra: Option<MatchMode>,
    /// Matching allowed against overheard (inter-player) frames.
    pub inter: Option<MatchMode>,
    /// Matching allowed against fleet-shared (cross-session) frames.
    pub fleet: Option<MatchMode>,
}

impl CacheVersion {
    /// Version 1: reuse intra-player frames, exact matches only.
    pub const V1: CacheVersion = CacheVersion {
        intra: Some(MatchMode::Exact),
        inter: None,
        fleet: None,
    };
    /// Version 2: reuse inter-player (overheard) frames, exact only.
    pub const V2: CacheVersion = CacheVersion {
        intra: None,
        inter: Some(MatchMode::Exact),
        fleet: None,
    };
    /// Version 3: reuse intra-player frames, similar matches (the final
    /// Coterie design).
    pub const V3: CacheVersion = CacheVersion {
        intra: Some(MatchMode::Similar),
        inter: None,
        fleet: None,
    };
    /// Version 4: reuse inter-player frames, similar matches.
    pub const V4: CacheVersion = CacheVersion {
        intra: None,
        inter: Some(MatchMode::Similar),
        fleet: None,
    };
    /// Version 5: both intra- and inter-player similar matches.
    pub const V5: CacheVersion = CacheVersion {
        intra: Some(MatchMode::Similar),
        inter: Some(MatchMode::Similar),
        fleet: None,
    };
    /// Fleet store configuration: session-id-free similar matching
    /// against frames contributed by any session of the same game.
    pub const FLEET: CacheVersion = CacheVersion {
        intra: Some(MatchMode::Similar),
        inter: None,
        fleet: Some(MatchMode::Similar),
    };

    /// All five versions in Table 4 order.
    pub const ALL: [CacheVersion; 5] = [Self::V1, Self::V2, Self::V3, Self::V4, Self::V5];

    /// Table row label ("Version 1" ... "Version 5", "Fleet").
    pub fn label(&self) -> &'static str {
        if self.fleet.is_some() {
            return if *self == Self::FLEET {
                "Fleet"
            } else {
                "custom"
            };
        }
        match (self.intra, self.inter) {
            (Some(MatchMode::Exact), None) => "Version 1",
            (None, Some(MatchMode::Exact)) => "Version 2",
            (Some(MatchMode::Similar), None) => "Version 3",
            (None, Some(MatchMode::Similar)) => "Version 4",
            (Some(MatchMode::Similar), Some(MatchMode::Similar)) => "Version 5",
            _ => "custom",
        }
    }

    /// The match mode applicable to a frame from `source`, if any.
    fn mode_for(&self, source: FrameSource) -> Option<MatchMode> {
        match source {
            FrameSource::SelfPrefetch => self.intra,
            FrameSource::Overheard => self.inter,
            FrameSource::Fleet => self.fleet,
        }
    }

    /// Whether frames from `source` should be admitted at all.
    pub fn admits(&self, source: FrameSource) -> bool {
        self.mode_for(source).is_some()
    }

    /// Whether frames from some source match by grid point alone.
    fn has_exact(&self) -> bool {
        [self.intra, self.inter, self.fleet].contains(&Some(MatchMode::Exact))
    }
}

/// Eviction policy (§5.3 "Cache replacement policy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least recently used.
    Lru,
    /// Furthest location first: evict the frame furthest from the
    /// player's current position in the virtual world.
    Flf,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes; `u64::MAX` emulates the infinite cache of the
    /// §4.6 trace study.
    pub capacity_bytes: u64,
    /// Replacement policy.
    pub policy: EvictionPolicy,
    /// Lookup/admission version.
    pub version: CacheVersion,
}

impl Default for CacheConfig {
    /// The shipping Coterie configuration: Version 3 with LRU in a
    /// phone-memory-sized cache (512 MB of the Pixel 2's 4 GB).
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024 * 1024,
            policy: EvictionPolicy::Lru,
            version: CacheVersion::V3,
        }
    }
}

impl CacheConfig {
    /// An unbounded trace-study cache with the given version.
    pub fn infinite(version: CacheVersion) -> Self {
        CacheConfig {
            capacity_bytes: u64::MAX,
            policy: EvictionPolicy::Lru,
            version,
        }
    }
}

/// Metadata stored alongside each cached frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameMeta {
    /// Grid point the frame was rendered for.
    pub grid: GridPoint,
    /// World position of that grid point.
    pub pos: Vec2,
    /// Leaf region containing the grid point.
    pub leaf: LeafId,
    /// Hash of the near-BE object set at the grid point (criterion 3).
    pub near_hash: u64,
}

/// A cache lookup request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheQuery {
    /// Grid point being rendered.
    pub grid: GridPoint,
    /// Its world position.
    pub pos: Vec2,
    /// Its leaf region.
    pub leaf: LeafId,
    /// Its near-BE object-set hash.
    pub near_hash: u64,
    /// The leaf region's calibrated distance threshold, meters.
    pub dist_thresh: f64,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that returned a frame.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted so far.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot index meaning "none": the end of the recency list or of the
/// free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    meta: FrameMeta,
    source: FrameSource,
    payload: T,
    size_bytes: u64,
    last_access: u64,
    /// Recency-list neighbours (slot indexes): `prev` is the next less
    /// recently used entry, `next` the next more recently used one.
    prev: u32,
    next: u32,
}

/// One slab slot: a cached frame, or a link of the free list.
#[derive(Debug, Clone)]
enum Slot<T> {
    Live(Entry<T>),
    Free { next_free: u32 },
}

/// The per-client far-BE frame cache.
///
/// Generic over the payload so the §4.6 trace study can run with `()`
/// payloads ("there is no need to generate and manipulate the actual far
/// BE frames") while the full system caches encoded frames.
///
/// Entries live in a slab and are threaded onto one recency list, `head`
/// the least and `tail` the most recently used. Invariant: walking the
/// list from `head` visits every live entry once, in strictly ascending
/// `last_access`. It holds because every stamp is a fresh `clock + 1`,
/// the clock only moves forward ([`FrameCache::advance_clock`] takes a
/// max), and a stamped entry always goes to the tail. The least recently
/// used entry is therefore always `head`, with no search.
#[derive(Debug, Clone)]
pub struct FrameCache<T> {
    config: CacheConfig,
    slots: Vec<Slot<T>>,
    /// First slot of the free list ([`NIL`] when every slot is live).
    free: u32,
    /// Live entries; a `u32` like the slot indexes.
    live: u32,
    head: u32,
    tail: u32,
    /// Spatial buckets (2 m cells) of slot indexes for similar lookups,
    /// each in insertion order.
    buckets: HashMap<(i32, i32), Vec<u32>>,
    clock: u64,
    bytes: u64,
    stats: CacheStats,
}

/// Spatial bucket edge length, meters.
const BUCKET_M: f64 = 2.0;

impl<T> FrameCache<T> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        FrameCache {
            config,
            slots: Vec::new(),
            free: NIL,
            live: 0,
            head: NIL,
            tail: NIL,
            buckets: HashMap::new(),
            clock: 0,
            bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total cached payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn bucket_of(pos: Vec2) -> (i32, i32) {
        (
            (pos.x / BUCKET_M).floor() as i32,
            (pos.z / BUCKET_M).floor() as i32,
        )
    }

    fn entry(&self, slot: u32) -> &Entry<T> {
        match &self.slots[slot as usize] {
            Slot::Live(e) => e,
            Slot::Free { .. } => unreachable!("slot {slot} is linked or bucketed but free"),
        }
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry<T> {
        match &mut self.slots[slot as usize] {
            Slot::Live(e) => e,
            Slot::Free { .. } => unreachable!("slot {slot} is linked or bucketed but free"),
        }
    }

    /// Takes `slot` out of the recency list, joining its neighbours.
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Appends `slot` at the most-recent end of the recency list.
    fn push_tail(&mut self, slot: u32) {
        let tail = self.tail;
        debug_assert!(
            tail == NIL || self.entry(tail).last_access < self.entry(slot).last_access,
            "recency list must stay in ascending last_access order"
        );
        let e = self.entry_mut(slot);
        e.prev = tail;
        e.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.entry_mut(t).next = slot,
        }
        self.tail = slot;
    }

    /// Stamps `slot` with a fresh access time and makes it the most
    /// recently used entry.
    fn touch(&mut self, slot: u32) -> &mut Entry<T> {
        self.clock += 1;
        self.unlink(slot);
        self.entry_mut(slot).last_access = self.clock;
        self.push_tail(slot);
        self.entry_mut(slot)
    }

    /// Removes the entry in `slot` from the list, its bucket and the
    /// slab, and returns it. Every removal path ends here.
    fn remove_slot(&mut self, slot: u32) -> Entry<T> {
        self.unlink(slot);
        let freed = Slot::Free {
            next_free: self.free,
        };
        let Slot::Live(e) = std::mem::replace(&mut self.slots[slot as usize], freed) else {
            unreachable!("slot {slot} was just unlinked, so it is live");
        };
        self.free = slot;
        self.live -= 1;
        self.bytes -= e.size_bytes;
        if let Some(v) = self.buckets.get_mut(&Self::bucket_of(e.meta.pos)) {
            v.retain(|&x| x != slot);
        }
        e
    }

    /// Inserts a frame. `player_pos` is the inserting player's current
    /// position, used by FLF eviction. Frames from sources the version
    /// does not admit are dropped (e.g. overheard frames under V1/V3).
    pub fn insert(
        &mut self,
        meta: FrameMeta,
        source: FrameSource,
        payload: T,
        size_bytes: u64,
        player_pos: Vec2,
    ) {
        if !self.config.version.admits(source) {
            return;
        }
        self.clock += 1;
        while self.bytes.saturating_add(size_bytes) > self.config.capacity_bytes && self.live > 0 {
            self.evict_one(player_pos);
        }
        let entry = Slot::Live(Entry {
            meta,
            source,
            payload,
            size_bytes,
            last_access: self.clock,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "frame cache slab is full");
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
            slot => {
                let Slot::Free { next_free } =
                    std::mem::replace(&mut self.slots[slot as usize], entry)
                else {
                    unreachable!("slot {slot} is on the free list but live");
                };
                self.free = next_free;
                slot
            }
        };
        self.live += 1;
        self.bytes += size_bytes;
        self.push_tail(slot);
        self.buckets
            .entry(Self::bucket_of(meta.pos))
            .or_default()
            .push(slot);
    }

    fn evict_one(&mut self, player_pos: Vec2) {
        let victim = match self.config.policy {
            EvictionPolicy::Lru => self.head,
            EvictionPolicy::Flf => self.furthest_from(player_pos),
        };
        self.evict_slot(victim);
    }

    /// Evicts the entry in `victim`, returning its size ([`NIL`]: the
    /// cache is empty and nothing happens).
    fn evict_slot(&mut self, victim: u32) -> Option<u64> {
        if victim == NIL {
            return None;
        }
        self.stats.evictions += 1;
        Some(self.remove_slot(victim).size_bytes)
    }

    /// The entry furthest from `player_pos` ([`NIL`] when empty); among
    /// equally far entries the least recently used. FLF depends on where
    /// the player stands now, so unlike LRU it has to look at every entry.
    fn furthest_from(&self, player_pos: Vec2) -> u32 {
        let mut victim = NIL;
        let mut furthest = f64::NEG_INFINITY;
        let mut slot = self.head;
        while slot != NIL {
            let e = self.entry(slot);
            let d = e.meta.pos.distance_sq(player_pos);
            assert!(!d.is_nan(), "finite distances");
            if d > furthest {
                victim = slot;
                furthest = d;
            }
            slot = e.next;
        }
        victim
    }

    /// Looks up a frame for `query`, counting a hit or miss. Returns the
    /// payload of the best (closest) qualifying frame.
    pub fn lookup(&mut self, query: &CacheQuery) -> Option<&T> {
        self.lookup_mut(query).map(|payload| &*payload)
    }

    /// [`FrameCache::lookup`] returning a mutable payload reference, so
    /// callers can mark per-frame state at hit time (e.g. a fleet store
    /// recording that a speculatively rendered frame was actually
    /// used). Counts and refreshes recency exactly like `lookup`.
    pub fn lookup_mut(&mut self, query: &CacheQuery) -> Option<&mut T> {
        match self.find_best(query) {
            Some(slot) => {
                self.stats.hits += 1;
                Some(&mut self.touch(slot).payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether a lookup would hit, without touching counters or recency.
    pub fn peek(&self, query: &CacheQuery) -> bool {
        self.find_best(query).is_some()
    }

    /// Payload size of the best qualifying frame for `query`, without
    /// touching counters or recency. A fleet store uses this to detect
    /// a re-insert that would *replace* an existing frame with a
    /// different-sized payload (the byte budget must debit the old size
    /// before crediting the new one).
    pub fn peek_size(&self, query: &CacheQuery) -> Option<u64> {
        self.find_best(query)
            .map(|slot| self.entry(slot).size_bytes)
    }

    /// Removes the best qualifying frame for `query`, returning its
    /// payload size. Unlike eviction this does not count toward
    /// [`CacheStats::evictions`] — it is the first half of a
    /// replace-in-place, not a capacity decision.
    pub fn remove_matching(&mut self, query: &CacheQuery) -> Option<u64> {
        let slot = self.find_best(query)?;
        Some(self.remove_slot(slot).size_bytes)
    }

    /// The cache's logical access clock (monotonic; bumped on insert and
    /// hit).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Raises the logical clock to at least `clock`.
    ///
    /// A fleet store sharing one recency order across many leaf caches
    /// stamps every cache from a global clock; without this, each
    /// cache's private clock would restart at zero and cross-cache LRU
    /// comparisons would be meaningless.
    pub fn advance_clock(&mut self, clock: u64) {
        self.clock = self.clock.max(clock);
    }

    /// The `last_access` stamp of the least recently used entry, if any.
    pub fn oldest_access(&self) -> Option<u64> {
        self.oldest_entry().map(|(stamp, _)| stamp)
    }

    /// The least recently used entry's stamp and payload, if any. A
    /// fleet store's cost-aware admission scores a candidate frame
    /// against the globally-oldest entry — the one an over-budget
    /// insert would evict.
    pub fn oldest_entry(&self) -> Option<(u64, &T)> {
        if self.head == NIL {
            return None;
        }
        let e = self.entry(self.head);
        Some((e.last_access, &e.payload))
    }

    /// Evicts the least recently used entry regardless of the configured
    /// policy, returning its payload size. Used by a fleet store to run
    /// one global LRU across its leaf caches (the cache holding the
    /// globally oldest entry is asked to evict).
    pub fn evict_lru(&mut self) -> Option<u64> {
        self.evict_slot(self.head)
    }

    /// The slot of the closest qualifying frame, ties going to the first
    /// in walk order: buckets by row, then column, each in insertion order.
    ///
    /// Only the buckets within `s` of the query are walked, `s` being `r`
    /// raised to one bucket width (2 m) when some source matches exactly:
    /// per axis `bucket_of(pos − m) ..= bucket_of(pos + m)`, with
    /// `m = s + 1e-9 · (1 + s + |x| + |z|)`. An entry in a column left of
    /// the range has `e.x < fl(q.x − m)`, which is off by less than
    /// `2⁻⁵² · (|q.x| + m)`, so its `x` leg, and the distance that is
    /// never shorter, still exceeds `s` after rounding (likewise on the
    /// right and on `z`). That rules out every similar match. An exact
    /// match ignores `r` and needs only the query's grid point, but the
    /// positions that snap to one grid point lie within a lattice spacing
    /// of each other (at most 0.39 m in every game), well inside 2 m. No
    /// entry outside the range can qualify, and the ones that do are
    /// visited in the order any larger walk visits them. When the range
    /// has more cells than the cache has buckets (a huge or infinite
    /// `r`), the bucket keys inside it are walked instead, sorted into
    /// that order.
    fn find_best(&self, query: &CacheQuery) -> Option<u32> {
        let radius = query.dist_thresh.max(0.0);
        let Vec2 { x, z } = query.pos;
        let s = if self.config.version.has_exact() {
            radius.max(BUCKET_M)
        } else {
            radius
        };
        let m = s + 1e-9 * (1.0 + s + x.abs() + z.abs());
        let (x0, z0) = Self::bucket_of(Vec2::new(x - m, z - m));
        let (x1, z1) = Self::bucket_of(Vec2::new(x + m, z + m));
        let mut best: Option<(u32, f64)> = None;
        let mut visit = |slots: &[u32]| {
            for &slot in slots {
                let e = self.entry(slot);
                let d = e.meta.pos.distance(query.pos);
                let qualifies = match self.config.version.mode_for(e.source) {
                    Some(MatchMode::Exact) => e.meta.grid == query.grid,
                    Some(MatchMode::Similar) => {
                        e.meta.leaf == query.leaf
                            && e.meta.near_hash == query.near_hash
                            && d <= radius
                    }
                    None => false,
                };
                if qualifies && best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((slot, d));
                }
            }
        };
        let cells = |lo: i32, hi: i32| u64::from(hi.abs_diff(lo)) + 1;
        if cells(x0, x1).saturating_mul(cells(z0, z1)) <= self.buckets.len() as u64 {
            for bz in z0..=z1 {
                for bx in x0..=x1 {
                    if let Some(slots) = self.buckets.get(&(bx, bz)) {
                        visit(slots);
                    }
                }
            }
        } else {
            let mut reached: Vec<_> = self
                .buckets
                .iter()
                .filter(|(&(bx, bz), _)| (x0..=x1).contains(&bx) && (z0..=z1).contains(&bz))
                .collect();
            reached.sort_unstable_by_key(|&(&(bx, bz), _)| (bz, bx));
            for (_, slots) in reached {
                visit(slots);
            }
        }
        best.map(|(slot, _)| slot)
    }
}

#[cfg(test)]
impl<T> FrameCache<T> {
    /// Panics unless the slab, the recency list, the free list and the
    /// buckets describe the same set of live entries.
    fn check_invariants(&self) {
        let live_slots = self
            .slots
            .iter()
            .filter(|slot| matches!(slot, Slot::Live(_)))
            .count();
        assert_eq!(live_slots, self.len(), "live counter");

        let (mut listed, mut bytes) = (0, 0);
        let (mut slot, mut prev) = (self.head, NIL);
        let mut last_stamp = None;
        while slot != NIL {
            let e = self.entry(slot); // panics if the list reaches a free slot
            assert_eq!(e.prev, prev, "back link of slot {slot}");
            assert!(last_stamp < Some(e.last_access), "stamps ascend");
            last_stamp = Some(e.last_access);
            assert!(e.last_access <= self.clock, "stamp from the future");
            listed += 1;
            assert!(listed <= self.len(), "recency list cycles");
            bytes += e.size_bytes;
            (prev, slot) = (slot, e.next);
        }
        assert_eq!(self.tail, prev, "tail");
        assert_eq!(listed, self.len(), "list visits every live entry");
        assert_eq!(bytes, self.bytes, "byte counter");

        let mut free = 0;
        let mut slot = self.free;
        while slot != NIL {
            let Slot::Free { next_free } = self.slots[slot as usize] else {
                panic!("live slot {slot} on the free list");
            };
            free += 1;
            assert!(free <= self.slots.len(), "free list cycles");
            slot = next_free;
        }
        assert_eq!(
            free + self.len(),
            self.slots.len(),
            "every slot is live or free"
        );

        let mut bucketed = std::collections::HashSet::new();
        for (cell, slots) in &self.buckets {
            for &slot in slots {
                assert_eq!(Self::bucket_of(self.entry(slot).meta.pos), *cell);
                assert!(bucketed.insert(slot), "slot {slot} bucketed twice");
            }
        }
        assert_eq!(bucketed.len(), self.len(), "buckets hold every live slot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meta(ix: i32, iz: i32, leaf: u32, hash: u64) -> FrameMeta {
        FrameMeta {
            grid: GridPoint::new(ix, iz),
            pos: Vec2::new(ix as f64 * 0.1, iz as f64 * 0.1),
            leaf: LeafId(leaf),
            near_hash: hash,
        }
    }

    fn query_for(m: &FrameMeta, dist_thresh: f64) -> CacheQuery {
        CacheQuery {
            grid: m.grid,
            pos: m.pos,
            leaf: m.leaf,
            near_hash: m.near_hash,
            dist_thresh,
        }
    }

    #[test]
    fn exact_version_hits_only_identical_grid_point() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V1));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        assert_eq!(c.lookup(&query_for(&m, 5.0)), Some(&42));
        // A neighbouring grid point misses under exact matching.
        let near = meta(11, 10, 0, 7);
        assert_eq!(c.lookup(&query_for(&near, 5.0)), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn similar_version_hits_within_dist_thresh() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        let near = meta(12, 10, 0, 7); // 0.2 m away
        assert_eq!(c.lookup(&query_for(&near, 0.3)), Some(&42));
        let far = meta(60, 10, 0, 7); // 5 m away
        assert_eq!(c.lookup(&query_for(&far, 0.3)), None);
    }

    #[test]
    fn similar_match_requires_same_leaf() {
        // Criterion 2: different leaf regions may use different cutoffs,
        // leaving a near/far gap.
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        let mut q = query_for(&meta(11, 10, 1, 7), 5.0);
        q.pos = m.pos;
        assert_eq!(c.lookup(&q), None, "cross-leaf reuse must be rejected");
    }

    #[test]
    fn similar_match_requires_same_near_set() {
        // Criterion 3: a different near-object set would leave holes
        // after merging.
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        let q = query_for(&meta(11, 10, 0, 8), 5.0);
        assert_eq!(c.lookup(&q), None, "near-set mismatch must be rejected");
    }

    #[test]
    fn closest_qualifying_frame_wins() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let a = meta(0, 0, 0, 7);
        let b = meta(8, 0, 0, 7);
        c.insert(a, FrameSource::SelfPrefetch, 1, 100, a.pos);
        c.insert(b, FrameSource::SelfPrefetch, 2, 100, b.pos);
        // Query at 0.5 m: closer to b (0.8 m) than a (0.0 m)? a is at 0,
        // query at (0.5, 0): a is 0.5 away, b is 0.3 away -> b wins.
        let mut q = query_for(&meta(5, 0, 0, 7), 2.0);
        q.pos = Vec2::new(0.5, 0.0);
        assert_eq!(c.lookup(&q), Some(&2));
    }

    #[test]
    fn version_gating_of_sources() {
        // V1/V3 ignore overheard frames entirely; V2/V4 ignore
        // self-prefetched ones.
        let m = meta(10, 10, 0, 7);
        let mut v3: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        v3.insert(m, FrameSource::Overheard, 42, 100, m.pos);
        assert!(v3.is_empty(), "V3 must not admit overheard frames");

        let mut v4: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V4));
        v4.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        assert!(v4.is_empty(), "V4 must not admit self-prefetched frames");
        v4.insert(m, FrameSource::Overheard, 42, 100, m.pos);
        assert_eq!(v4.len(), 1);
        assert_eq!(v4.lookup(&query_for(&meta(11, 10, 0, 7), 0.5)), Some(&42));
    }

    #[test]
    fn v5_admits_both_sources() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V5));
        let a = meta(0, 0, 0, 7);
        let b = meta(100, 0, 0, 7);
        c.insert(a, FrameSource::SelfPrefetch, 1, 100, a.pos);
        c.insert(b, FrameSource::Overheard, 2, 100, b.pos);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&query_for(&a, 0.5)), Some(&1));
        assert_eq!(c.lookup(&query_for(&b, 0.5)), Some(&2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let config = CacheConfig {
            capacity_bytes: 250,
            policy: EvictionPolicy::Lru,
            version: CacheVersion::V3,
        };
        let mut c: FrameCache<u32> = FrameCache::new(config);
        let a = meta(0, 0, 0, 7);
        let b = meta(50, 0, 0, 7);
        c.insert(a, FrameSource::SelfPrefetch, 1, 100, a.pos);
        c.insert(b, FrameSource::SelfPrefetch, 2, 100, b.pos);
        // Touch a so b becomes LRU.
        assert!(c.lookup(&query_for(&a, 0.5)).is_some());
        let d = meta(100, 0, 0, 7);
        c.insert(d, FrameSource::SelfPrefetch, 3, 100, d.pos);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&query_for(&a, 0.5)), "recently used entry kept");
        assert!(!c.peek(&query_for(&b, 0.5)), "LRU entry evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn flf_evicts_furthest_from_player() {
        let config = CacheConfig {
            capacity_bytes: 250,
            policy: EvictionPolicy::Flf,
            version: CacheVersion::V3,
        };
        let mut c: FrameCache<u32> = FrameCache::new(config);
        let near = meta(0, 0, 0, 7);
        let far = meta(500, 0, 0, 7); // 50 m away
        c.insert(near, FrameSource::SelfPrefetch, 1, 100, Vec2::ZERO);
        c.insert(far, FrameSource::SelfPrefetch, 2, 100, Vec2::ZERO);
        // Player is at origin; inserting a third entry evicts `far`.
        let c3 = meta(5, 0, 0, 7);
        c.insert(c3, FrameSource::SelfPrefetch, 3, 100, Vec2::ZERO);
        assert!(c.peek(&query_for(&near, 0.5)));
        assert!(!c.peek(&query_for(&far, 0.5)), "furthest entry evicted");
    }

    #[test]
    fn peek_does_not_affect_stats() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        assert!(c.peek(&query_for(&m, 0.5)));
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn hit_ratio_computation() {
        let s = CacheStats {
            hits: 8,
            misses: 2,
            evictions: 0,
        };
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn version_labels() {
        assert_eq!(CacheVersion::V1.label(), "Version 1");
        assert_eq!(CacheVersion::V5.label(), "Version 5");
        assert_eq!(CacheVersion::ALL.len(), 5);
    }

    #[test]
    fn fleet_version_admits_fleet_frames_session_free() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::FLEET));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::Fleet, 42, 100, m.pos);
        assert_eq!(c.len(), 1);
        // Similar matching applies: a nearby grid point in the same
        // leaf with the same near set hits.
        assert_eq!(c.lookup(&query_for(&meta(11, 10, 0, 7), 0.5)), Some(&42));
        // Overheard frames stay excluded (fleet reuse is server-side).
        c.insert(meta(20, 20, 0, 7), FrameSource::Overheard, 9, 100, m.pos);
        assert_eq!(c.len(), 1);
        assert_eq!(CacheVersion::FLEET.label(), "Fleet");
    }

    #[test]
    fn paper_versions_reject_fleet_frames() {
        for v in CacheVersion::ALL {
            let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(v));
            let m = meta(10, 10, 0, 7);
            c.insert(m, FrameSource::Fleet, 42, 100, m.pos);
            assert!(c.is_empty(), "{} must not admit fleet frames", v.label());
        }
    }

    #[test]
    fn global_clock_orders_lru_across_caches() {
        // Two leaf caches stamped from one global clock: the entry
        // inserted earliest (globally) is the one evict_lru removes.
        let mut a: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::FLEET));
        let mut b: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::FLEET));
        a.advance_clock(10);
        let ma = meta(0, 0, 0, 7);
        a.insert(ma, FrameSource::Fleet, 1, 100, ma.pos);
        b.advance_clock(a.clock() + 5);
        let mb = meta(50, 0, 0, 7);
        b.insert(mb, FrameSource::Fleet, 2, 100, mb.pos);
        assert!(a.oldest_access() < b.oldest_access());
        assert_eq!(a.evict_lru(), Some(100));
        assert!(a.is_empty());
        assert_eq!(a.stats().evictions, 1);
        assert_eq!(b.oldest_access(), Some(17));
        assert_eq!(b.evict_lru(), Some(100));
        assert_eq!(b.evict_lru(), None);
    }

    #[test]
    fn zero_dist_thresh_still_matches_same_position() {
        let mut c: FrameCache<u32> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let m = meta(10, 10, 0, 7);
        c.insert(m, FrameSource::SelfPrefetch, 42, 100, m.pos);
        assert_eq!(c.lookup(&query_for(&m, 0.0)), Some(&42));
    }

    #[test]
    fn huge_and_infinite_thresholds_find_the_closest_frame() {
        // A reach of `r / 2 m` buckets overflowed `i32` here: a debug
        // build panicked, a release build probed one wrong bucket.
        let mut c: FrameCache<usize> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let spots = [
            (-4e6, 3e6),
            (40.0, -9.0),
            (1e12, 0.5),
            (-7.0, -7.0),
            (3.0, 3.0),
        ];
        for (i, &(x, z)) in spots.iter().enumerate() {
            let m = FrameMeta {
                grid: GridPoint::new(i as i32, 0),
                pos: Vec2::new(x, z),
                leaf: LeafId(0),
                near_hash: 7,
            };
            c.insert(m, FrameSource::SelfPrefetch, i, 100, m.pos);
        }
        let mut q = query_for(&meta(0, 0, 0, 7), 0.0);
        for at in [
            Vec2::new(1e6, -2e6),
            Vec2::new(-6.0, -5.0),
            Vec2::new(5e11, 0.0),
        ] {
            q.pos = at;
            let closest = (0..spots.len())
                .min_by(|&a, &b| {
                    let d = |i: usize| Vec2::new(spots[i].0, spots[i].1).distance(at);
                    d(a).total_cmp(&d(b))
                })
                .unwrap();
            for dist_thresh in [f64::INFINITY, f64::MAX, 1e300] {
                q.dist_thresh = dist_thresh;
                assert_eq!(c.lookup(&q), Some(&closest), "r {dist_thresh} at {at}");
            }
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Insert { ix: i32, iz: i32, size: u64 },
        Lookup { ix: i32, iz: i32, dist_thresh: f64 },
        RemoveMatching { ix: i32, iz: i32 },
        EvictLru,
        AdvanceClock(u64),
    }

    fn cache_op() -> impl Strategy<Value = CacheOp> {
        (0u32..10, -30i32..30, -30i32..30, 1u64..400, 0.0f64..1.5).prop_map(
            |(kind, ix, iz, size, dist_thresh)| match kind {
                0..=3 => CacheOp::Insert { ix, iz, size },
                4..=6 => CacheOp::Lookup {
                    ix,
                    iz,
                    dist_thresh,
                },
                7 => CacheOp::RemoveMatching { ix, iz },
                8 => CacheOp::EvictLru,
                _ => CacheOp::AdvanceClock(size % 50),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fails if a removal path forgets to unlink, or a freed slot
        /// is reused while a bucket still names it.
        #[test]
        fn recency_list_and_buckets_track_the_live_entries(
            ops in proptest::collection::vec(cache_op(), 1..150),
            capacity in 400u64..4_000,
            lru in proptest::bool::ANY,
        ) {
            let mut c: FrameCache<u32> = FrameCache::new(CacheConfig {
                capacity_bytes: capacity,
                policy: if lru { EvictionPolicy::Lru } else { EvictionPolicy::Flf },
                version: CacheVersion::V3,
            });
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    CacheOp::Insert { ix, iz, size } => {
                        let m = meta(ix, iz, 0, 7);
                        c.insert(m, FrameSource::SelfPrefetch, i as u32, size, Vec2::ZERO);
                    }
                    CacheOp::Lookup { ix, iz, dist_thresh } => {
                        let before = c.clock();
                        let hit = c.lookup(&query_for(&meta(ix, iz, 0, 7), dist_thresh)).is_some();
                        // A hit becomes the most recently used entry.
                        prop_assert_eq!(c.clock(), before + hit as u64);
                        if hit {
                            prop_assert_eq!(c.entry(c.tail).last_access, c.clock());
                        }
                    }
                    CacheOp::RemoveMatching { ix, iz } => {
                        let len = c.len();
                        let removed = c.remove_matching(&query_for(&meta(ix, iz, 0, 7), 0.5));
                        prop_assert_eq!(c.len() + removed.is_some() as usize, len);
                    }
                    CacheOp::EvictLru => {
                        let oldest = c.oldest_access();
                        let evicted = c.evict_lru();
                        prop_assert_eq!(evicted.is_some(), oldest.is_some());
                        prop_assert!(c.oldest_access().is_none() || c.oldest_access() > oldest);
                    }
                    CacheOp::AdvanceClock(by) => c.advance_clock(c.clock() + by),
                }
                c.check_invariants();
            }
        }
    }
}
