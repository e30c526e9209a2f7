//! The sharded [`FrameStore`] backend: a fleet-wide store partitioned
//! across worker processes.
//!
//! One process dies at one machine's worth of rooms; the ROADMAP's top
//! open item is letting the *fleet* share frames. This module shards
//! the store by consistent hashing on `(game, leaf region)` — the same
//! key the lookup criteria confine a match to, so any query can be
//! answered entirely by the partition that owns its leaf:
//!
//! * [`HashRing`] — 64 virtual nodes per shard on a `u64` ring. Keys
//!   spread evenly (balance proptested) and resharding `N → N+1` moves
//!   only `~1/(N+1)` of the keys (minimal-movement proptested).
//! * [`ShardFabric`] — the partitions (one [`LocalStore`] per worker,
//!   all stamped from one shared global clock), per-worker hot-replica
//!   caches, and the epoch exchange. Workers batch their inserts since
//!   the last epoch into [`WireMessage::ShardAdvert`] messages plus a
//!   [`WireMessage::ShardUsage`] digest, genuinely encoded through
//!   `coterie_net::wire` and reassembled at each peer — the same bytes
//!   a multi-process deployment puts on a socket ([`crate::Fleet`]
//!   drives all workers in one process; `coterie-server`'s shard
//!   coordinator drives the same messages over real sockets).
//! * Anti-entropy: each partition enforces only its *local* byte cap
//!   between epochs (so a hot shard can absorb skew), and the epoch
//!   exchange reconciles the usage digests — while the fleet-wide sum
//!   exceeds the global budget, the entry with the globally-oldest
//!   stamp is evicted, wherever it lives. Because every stamp comes
//!   from the one shared clock, this is exactly the single-process
//!   global LRU, restored at epoch granularity.
//! * [`ShardedStore`] — worker `w`'s view of the fabric, implementing
//!   [`FrameStore`]. Lookups for owned leaves go straight to the local
//!   partition; for remote leaves the replica cache is tried first
//!   (`replica_hits`) and the owner partition only on replica miss
//!   (`forwards`). Inserts always route to the owner.
//!
//! Determinism: the fabric has no threads of its own. Given the same
//! serialized operation sequence (the fleet's room-id-ordered epoch
//! loop) and the same epoch boundaries, every counter, eviction and
//! advert is reproduced exactly — per-shard byte-identity holds just
//! as it does for the local backend.

use crate::store::{FrameStore, LocalStore, RecentInsert, StoreConfig, StoreStats};
use coterie_core::{CacheQuery, FrameMeta};
use coterie_net::wire::{FrameAssembler, ShardEntry, WireMessage, MAX_SHARD_ENTRIES};
use coterie_world::{GameId, GridPoint, LeafId, Vec2};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which [`FrameStore`] backend a fleet constructs (`--store`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// One in-process [`LocalStore`] (today's behaviour, byte-identical).
    #[default]
    Local,
    /// The partitioned [`ShardFabric`] with per-worker [`ShardedStore`]
    /// views.
    Sharded,
}

impl StoreBackend {
    /// All backends, in CLI order.
    pub const ALL: [StoreBackend; 2] = [StoreBackend::Local, StoreBackend::Sharded];

    /// Parses a `--store` argument.
    pub fn parse(s: &str) -> Option<StoreBackend> {
        match s {
            "local" => Some(StoreBackend::Local),
            "sharded" => Some(StoreBackend::Sharded),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Local => "local",
            StoreBackend::Sharded => "sharded",
        }
    }
}

/// Virtual nodes per shard. 64 points smooth the ring enough that the
/// loaded-to-lightest partition ratio stays small (proptested) while
/// keeping owner lookup a binary search over a few hundred points.
const VNODES_PER_SHARD: u64 = 64;

/// splitmix64: a strong 64-bit mixer (fixed constants, no state), used
/// for both ring points and keys so placement is stable across runs
/// and processes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The consistent-hash key of a store partition: mixes the game id and
/// leaf region into one point on the ring.
pub fn partition_key(game: GameId, leaf: u32) -> u64 {
    splitmix64(((game as u64) << 32) ^ leaf as u64)
}

/// A consistent-hash ring assigning `(game, leaf)` partitions to shard
/// owners.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, u16)>,
    shards: u16,
}

impl HashRing {
    /// A ring over `shards` workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u16) -> Self {
        assert!(shards > 0, "ring needs at least one shard");
        let mut points = Vec::with_capacity(shards as usize * VNODES_PER_SHARD as usize);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                // Mix shard and vnode into one seed; collisions across
                // shards are broken deterministically by the shard id
                // carried next to the point.
                let point = splitmix64(((shard as u64) << 32) | vnode);
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `(game, leaf)`: the first ring point at or
    /// after the key, wrapping past the top.
    pub fn owner(&self, game: GameId, leaf: u32) -> u16 {
        self.owner_of(partition_key(game, leaf))
    }

    /// The shard owning a raw key hash.
    pub fn owner_of(&self, key: u64) -> u16 {
        let ix = self.points.partition_point(|&(p, _)| p < key);
        let ix = if ix == self.points.len() { 0 } else { ix };
        self.points[ix].1
    }
}

/// Sharding counters surfaced in [`crate::FleetMetrics`] and the fleet
/// report's `exchange:` note.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Fleet width.
    pub shards: usize,
    /// Store operations routed to a remote-owned partition.
    pub forwards: u64,
    /// Lookups served from a worker's hot-replica cache.
    pub replica_hits: u64,
    /// Hot entries replicated by the epoch exchange.
    pub replica_inserts: u64,
    /// Exchange messages put on the wire plane.
    pub wire_msgs: u64,
    /// Exchange bytes put on the wire plane (length prefixes included).
    pub wire_bytes: u64,
    /// Epoch-boundary evictions made by anti-entropy to restore the
    /// global byte budget.
    pub anti_entropy_evictions: u64,
}

/// The latest [`WireMessage::ShardUsage`] digest received from a peer.
#[derive(Debug, Clone, Copy, Default)]
struct UsageDigest {
    bytes: u64,
    oldest_stamp: u64,
    epoch: u64,
}

/// The partitioned fleet-wide store: every worker's partitions,
/// replica caches, ring and exchange state.
///
/// Construct once per fleet, then hand each worker its view with
/// [`ShardFabric::store_view`].
#[derive(Debug)]
pub struct ShardFabric {
    ring: HashRing,
    /// Partition `w` holds the `(game, leaf)` caches owned by worker
    /// `w`. All partitions stamp from one shared clock, so access
    /// recency is totally ordered fleet-wide.
    partitions: Vec<LocalStore>,
    /// Worker `w`'s hot-replica cache of remote-owned entries.
    replicas: Vec<LocalStore>,
    /// Global byte budget anti-entropy restores each epoch.
    global_budget: u64,
    /// Exchange epoch counter.
    epoch: AtomicU64,
    /// Latest usage digest decoded from each peer (indexed by shard).
    usage: Mutex<Vec<UsageDigest>>,
    forwards: AtomicU64,
    replica_hits: AtomicU64,
    replica_inserts: AtomicU64,
    wire_msgs: AtomicU64,
    wire_bytes: AtomicU64,
    anti_entropy_evictions: AtomicU64,
}

impl ShardFabric {
    /// Builds a fabric of `shards` workers sharing `config`'s global
    /// byte budget.
    ///
    /// Budget split: each partition's *local* cap is the full global
    /// budget less the replica reserve — skew between epochs never
    /// force-evicts a hot partition early; anti-entropy restores the
    /// global sum at each exchange. One eighth of the budget is
    /// reserved for the replica caches, split evenly across workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (or under [`StoreConfig`]'s own
    /// invariants).
    pub fn new(shards: usize, config: StoreConfig) -> Arc<ShardFabric> {
        assert!(shards > 0, "fabric needs at least one shard");
        assert!(shards <= u16::MAX as usize, "shard index must fit u16");
        let clock = Arc::new(AtomicU64::new(0));
        let replica_reserve = config.capacity_bytes / 8;
        let partition_cap = (config.capacity_bytes - replica_reserve).max(1);
        let replica_cap = (replica_reserve / shards as u64).max(1);
        let partitions: Vec<LocalStore> = (0..shards)
            .map(|_| {
                let store = LocalStore::new_with_clock(
                    StoreConfig {
                        capacity_bytes: partition_cap,
                        ..config
                    },
                    clock.clone(),
                );
                store.set_advertise(true);
                store
            })
            .collect();
        let replicas = (0..shards)
            .map(|_| {
                LocalStore::new_with_clock(
                    StoreConfig {
                        capacity_bytes: replica_cap,
                        ..config
                    },
                    clock.clone(),
                )
            })
            .collect();
        Arc::new(ShardFabric {
            ring: HashRing::new(shards as u16),
            partitions,
            replicas,
            global_budget: partition_cap,
            epoch: AtomicU64::new(0),
            usage: Mutex::new(vec![UsageDigest::default(); shards]),
            forwards: AtomicU64::new(0),
            replica_hits: AtomicU64::new(0),
            replica_inserts: AtomicU64::new(0),
            wire_msgs: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
            anti_entropy_evictions: AtomicU64::new(0),
        })
    }

    /// Fleet width.
    pub fn shards(&self) -> usize {
        self.partitions.len()
    }

    /// The ring (for tests and the server-plane coordinator).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Worker `w`'s [`FrameStore`] view.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn store_view(self: &Arc<Self>, worker: usize) -> ShardedStore {
        assert!(worker < self.partitions.len(), "worker out of range");
        ShardedStore {
            fabric: Arc::clone(self),
            worker,
        }
    }

    /// Total cached payload bytes fleet-wide (partitions + replicas).
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(LocalStore::bytes).sum::<u64>()
            + self.replicas.iter().map(LocalStore::bytes).sum::<u64>()
    }

    /// Total cached frames fleet-wide (partitions + replicas).
    pub fn total_len(&self) -> usize {
        self.partitions.iter().map(LocalStore::len).sum::<usize>()
            + self.replicas.iter().map(LocalStore::len).sum::<usize>()
    }

    /// Fleet-wide merged stats: every partition's counters plus the
    /// fabric-level forwarding/replication counters. Replica caches'
    /// *internal* counters are bookkeeping duplicates (each replica
    /// hit is already counted once, fabric-level) and are excluded.
    pub fn stats(&self) -> StoreStats {
        let mut merged = self
            .partitions
            .iter()
            .map(LocalStore::stats)
            .fold(StoreStats::default(), StoreStats::merged);
        merged.forwards = self.forwards.load(Ordering::Relaxed);
        merged.replica_hits = self.replica_hits.load(Ordering::Relaxed);
        merged.replica_inserts = self.replica_inserts.load(Ordering::Relaxed);
        merged
    }

    /// Sharding counters for reports.
    pub fn metrics(&self) -> ShardMetrics {
        ShardMetrics {
            shards: self.shards(),
            forwards: self.forwards.load(Ordering::Relaxed),
            replica_hits: self.replica_hits.load(Ordering::Relaxed),
            replica_inserts: self.replica_inserts.load(Ordering::Relaxed),
            wire_msgs: self.wire_msgs.load(Ordering::Relaxed),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            anti_entropy_evictions: self.anti_entropy_evictions.load(Ordering::Relaxed),
        }
    }

    /// Runs one epoch exchange: every worker encodes its usage digest
    /// and hot-entry adverts as real wire frames, every peer reassembles
    /// and applies them, then anti-entropy reconciles the global byte
    /// budget. Call at epoch boundaries, outside the room tick loop.
    pub fn exchange(&self) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let shards = self.partitions.len();
        for w in 0..shards {
            let part = &self.partitions[w];
            let recent = part.drain_recent();
            let mut frames: Vec<Vec<u8>> = Vec::with_capacity(1 + recent.len() / MAX_SHARD_ENTRIES);
            frames.push(
                WireMessage::ShardUsage {
                    shard: w as u16,
                    epoch,
                    bytes: part.bytes(),
                    clock: 0, // informational; the fabric clock is shared
                    oldest_stamp: part.oldest_stamp().unwrap_or(u64::MAX),
                }
                .encode_frame(),
            );
            for chunk in recent.chunks(MAX_SHARD_ENTRIES) {
                frames.push(
                    WireMessage::ShardAdvert {
                        shard: w as u16,
                        epoch,
                        entries: chunk.iter().map(entry_of).collect(),
                    }
                    .encode_frame(),
                );
            }
            // Deliver to every peer through the real receive path: the
            // exact bytes a socket deployment would carry.
            for p in 0..shards {
                if p == w {
                    continue;
                }
                let mut asm = FrameAssembler::new();
                for frame in &frames {
                    asm.push(frame);
                    self.wire_msgs.fetch_add(1, Ordering::Relaxed);
                    self.wire_bytes
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                }
                while let Some(msg) = asm
                    .next_message()
                    .expect("self-encoded exchange frames decode")
                {
                    self.apply(p, msg);
                }
            }
            // The sender's own digest (peers' copies were just applied).
            self.usage.lock()[w] = UsageDigest {
                bytes: part.bytes(),
                oldest_stamp: part.oldest_stamp().unwrap_or(u64::MAX),
                epoch,
            };
        }
        self.anti_entropy();
    }

    /// Applies one decoded exchange message at receiving worker `p`.
    fn apply(&self, p: usize, msg: WireMessage) {
        match msg {
            WireMessage::ShardUsage {
                shard,
                epoch,
                bytes,
                oldest_stamp,
                ..
            } => {
                let mut usage = self.usage.lock();
                if let Some(slot) = usage.get_mut(shard as usize) {
                    if epoch >= slot.epoch {
                        *slot = UsageDigest {
                            bytes,
                            oldest_stamp,
                            epoch,
                        };
                    }
                }
            }
            WireMessage::ShardAdvert { entries, .. } => {
                for e in entries {
                    if self.replicas[p].insert(e.game, meta_of(&e), e.bytes) {
                        self.replica_inserts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Other message families never travel on the in-process
            // exchange.
            _ => {}
        }
    }

    /// Restores the fleet-wide byte budget using the usage digests:
    /// while the partitions' sum exceeds the global budget, evict the
    /// entry with the globally-oldest stamp (ties broken toward the
    /// lowest shard, deterministically). Stamps come from the one
    /// shared clock, so this reproduces the single-process global LRU
    /// at epoch granularity.
    fn anti_entropy(&self) {
        let mut usage = self.usage.lock();
        let mut total: u64 = usage.iter().map(|u| u.bytes).sum();
        while total > self.global_budget {
            let victim = usage
                .iter()
                .enumerate()
                .filter(|(_, u)| u.oldest_stamp != u64::MAX)
                .min_by_key(|(w, u)| (u.oldest_stamp, *w))
                .map(|(w, _)| w);
            let Some(w) = victim else {
                break;
            };
            let Some(freed) = self.partitions[w].evict_oldest() else {
                // Digest was stale and the partition is empty: refresh
                // it and keep going.
                usage[w].bytes = self.partitions[w].bytes();
                usage[w].oldest_stamp = u64::MAX;
                continue;
            };
            self.anti_entropy_evictions.fetch_add(1, Ordering::Relaxed);
            total = total.saturating_sub(freed);
            usage[w].bytes = self.partitions[w].bytes();
            usage[w].oldest_stamp = self.partitions[w].oldest_stamp().unwrap_or(u64::MAX);
        }
    }
}

/// Converts a partition's recent-insert record to its wire form.
fn entry_of(r: &RecentInsert) -> ShardEntry {
    ShardEntry {
        game: r.game,
        grid_ix: r.meta.grid.ix,
        grid_iz: r.meta.grid.iz,
        pos_x: r.meta.pos.x,
        pos_z: r.meta.pos.z,
        leaf: r.meta.leaf.0,
        near_hash: r.meta.near_hash,
        bytes: r.bytes,
        stamp: r.stamp,
        value: r.value,
    }
}

/// Reconstructs a store key from a wire entry.
fn meta_of(e: &ShardEntry) -> FrameMeta {
    FrameMeta {
        grid: GridPoint::new(e.grid_ix, e.grid_iz),
        pos: Vec2::new(e.pos_x, e.pos_z),
        leaf: LeafId(e.leaf),
        near_hash: e.near_hash,
    }
}

/// Worker `w`'s view of the [`ShardFabric`], implementing
/// [`FrameStore`]. Cheap to clone (an `Arc` and an index).
#[derive(Debug, Clone)]
pub struct ShardedStore {
    fabric: Arc<ShardFabric>,
    worker: usize,
}

impl ShardedStore {
    /// The fabric behind this view.
    pub fn fabric(&self) -> &Arc<ShardFabric> {
        &self.fabric
    }

    /// This view's worker index.
    pub fn worker(&self) -> usize {
        self.worker
    }
}

impl FrameStore for ShardedStore {
    fn lookup(&self, game: GameId, query: &CacheQuery) -> bool {
        let owner = self.fabric.ring.owner(game, query.leaf.0) as usize;
        if owner == self.worker {
            return self.fabric.partitions[owner].lookup(game, query);
        }
        // Remote-owned leaf: hot-replica cache first (a local hit
        // avoids the forward entirely), owner partition on miss.
        if self.fabric.replicas[self.worker].lookup(game, query) {
            self.fabric.replica_hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.fabric.forwards.fetch_add(1, Ordering::Relaxed);
        self.fabric.partitions[owner].lookup(game, query)
    }

    fn insert(&self, game: GameId, meta: FrameMeta, size_bytes: u64) -> bool {
        let owner = self.fabric.ring.owner(game, meta.leaf.0) as usize;
        if owner != self.worker {
            self.fabric.forwards.fetch_add(1, Ordering::Relaxed);
        }
        self.fabric.partitions[owner].insert(game, meta, size_bytes)
    }

    fn insert_speculative(
        &self,
        game: GameId,
        meta: FrameMeta,
        size_bytes: u64,
        reuse_score: f64,
    ) -> bool {
        let owner = self.fabric.ring.owner(game, meta.leaf.0) as usize;
        if owner != self.worker {
            self.fabric.forwards.fetch_add(1, Ordering::Relaxed);
        }
        self.fabric.partitions[owner].insert_speculative(game, meta, size_bytes, reuse_score)
    }

    fn stats(&self) -> StoreStats {
        self.fabric.stats()
    }

    fn admission(&self) -> crate::store::Admission {
        self.fabric.partitions[0].config().admission
    }

    fn capacity_bytes(&self) -> u64 {
        self.fabric.global_budget
    }

    fn bytes(&self) -> u64 {
        self.fabric.total_bytes()
    }

    fn len(&self) -> usize {
        self.fabric.total_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Admission;

    fn meta(ix: i32, iz: i32, leaf: u32) -> FrameMeta {
        FrameMeta {
            grid: GridPoint::new(ix, iz),
            pos: Vec2::new(ix as f64 * 0.1, iz as f64 * 0.1),
            leaf: LeafId(leaf),
            near_hash: 7,
        }
    }

    fn query(m: &FrameMeta) -> CacheQuery {
        CacheQuery {
            grid: m.grid,
            pos: m.pos,
            leaf: m.leaf,
            near_hash: m.near_hash,
            dist_thresh: 0.5,
        }
    }

    #[test]
    fn ring_owner_is_stable_and_in_range() {
        let ring = HashRing::new(4);
        for leaf in 0..1000u32 {
            let owner = ring.owner(GameId::Fps, leaf);
            assert!(owner < 4);
            assert_eq!(owner, ring.owner(GameId::Fps, leaf), "stable");
        }
        // Games with the same leaf ids land independently.
        let same = (0..1000u32)
            .filter(|&l| ring.owner(GameId::Fps, l) == ring.owner(GameId::VikingVillage, l))
            .count();
        assert!(same < 1000, "games must not be perfectly correlated");
    }

    #[test]
    fn cross_shard_insert_is_visible_to_every_view() {
        let fabric = ShardFabric::new(4, StoreConfig::default());
        let views: Vec<ShardedStore> = (0..4).map(|w| fabric.store_view(w)).collect();
        let m = meta(10, 10, 3);
        // Whichever view inserts, every view's lookup finds the frame
        // (replica miss → forward to owner).
        assert!(views[2].insert(GameId::Fps, m, 1000));
        for v in &views {
            assert!(v.lookup(GameId::Fps, &query(&m)), "view {}", v.worker());
        }
        let stats = fabric.stats();
        assert_eq!(stats.hits + stats.replica_hits, 4);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn exchange_populates_replicas_and_serves_local_hits() {
        let fabric = ShardFabric::new(2, StoreConfig::default());
        let m = meta(10, 10, 3);
        let owner = fabric.ring().owner(GameId::Fps, 3) as usize;
        let other = 1 - owner;
        fabric.store_view(owner).insert(GameId::Fps, m, 1000);
        assert_eq!(fabric.metrics().forwards, 0, "owner insert is local");
        fabric.exchange();
        let metrics = fabric.metrics();
        assert_eq!(metrics.replica_inserts, 1);
        assert!(metrics.wire_msgs >= 2, "usage + advert per peer");
        assert!(metrics.wire_bytes > 0);
        // The non-owner now hits its replica without forwarding.
        assert!(fabric.store_view(other).lookup(GameId::Fps, &query(&m)));
        let metrics = fabric.metrics();
        assert_eq!(metrics.replica_hits, 1);
        assert_eq!(metrics.forwards, 0);
    }

    #[test]
    fn anti_entropy_restores_global_budget_with_global_lru_order() {
        // Two shards, tiny budget. Partition caps allow local skew; the
        // exchange must trim the fleet-wide sum back under the global
        // budget by evicting the globally oldest entries.
        let fabric = ShardFabric::new(
            2,
            StoreConfig {
                capacity_bytes: 800,
                shards: 4,
                admission: Admission::Lru,
            },
        );
        let global_budget = 800 - 800 / 8; // partition cap = global budget
        let views: Vec<ShardedStore> = (0..2).map(|w| fabric.store_view(w)).collect();
        // Spread inserts over many leaves so both partitions fill.
        let mut inserted = 0u64;
        for leaf in 0..10u32 {
            let m = meta(leaf as i32 * 30, 0, leaf);
            let owner = fabric.ring().owner(GameId::Fps, leaf) as usize;
            views[owner].insert(GameId::Fps, m, 150);
            inserted += 150;
        }
        assert!(inserted > global_budget, "test must overfill the budget");
        fabric.exchange();
        let partition_sum: u64 = fabric.partitions.iter().map(LocalStore::bytes).sum();
        assert!(
            partition_sum <= global_budget,
            "sum {partition_sum} over global budget {global_budget}"
        );
        assert!(fabric.metrics().anti_entropy_evictions > 0);
        // The survivors are the youngest entries: the oldest remaining
        // stamp must be younger than every evicted stamp, i.e. the
        // global minimum stamp strictly increased.
        let oldest_left = fabric
            .partitions
            .iter()
            .filter_map(LocalStore::oldest_stamp)
            .min()
            .unwrap();
        assert!(oldest_left > 0, "entry with stamp 0 was the first victim");
    }

    #[test]
    fn single_shard_fabric_never_forwards() {
        let fabric = ShardFabric::new(1, StoreConfig::default());
        let view = fabric.store_view(0);
        let m = meta(5, 5, 2);
        assert!(view.insert(GameId::Fps, m, 500));
        assert!(view.lookup(GameId::Fps, &query(&m)));
        fabric.exchange();
        let metrics = fabric.metrics();
        assert_eq!(metrics.forwards, 0);
        assert_eq!(metrics.wire_msgs, 0, "no peers, no wire traffic");
        assert_eq!(metrics.replica_inserts, 0);
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let run = || {
            let fabric = ShardFabric::new(
                3,
                StoreConfig {
                    capacity_bytes: 64 * 1024,
                    shards: 4,
                    admission: Admission::Lru,
                },
            );
            let views: Vec<ShardedStore> = (0..3).map(|w| fabric.store_view(w)).collect();
            for round in 0..50u32 {
                for (w, v) in views.iter().enumerate() {
                    let leaf = (round * 7 + w as u32) % 23;
                    let m = meta((round as i32) * 40, w as i32 * 40, leaf);
                    v.insert(GameId::Fps, m, 900 + (round as u64 % 5) * 100);
                    v.lookup(GameId::Fps, &query(&m));
                }
                if round % 5 == 4 {
                    fabric.exchange();
                }
            }
            (fabric.stats(), fabric.metrics(), fabric.total_bytes())
        };
        assert_eq!(run(), run());
    }
}
