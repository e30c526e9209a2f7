//! The serving core: everything between a decoded `Pose` and an
//! encoded `Frame`, shared by all worker threads.
//!
//! [`ServiceCore`] hosts the `coterie-serve` fleet machinery behind the
//! wire protocol: the cross-room frame store (a private [`LocalStore`]
//! by default, or any [`FrameStore`] passed to
//! [`ServiceCore::with_store`], such as the benchmark's timed store)
//! answers the paper's three-criteria similarity lookup
//! (session-id-free, so any room's frames serve any room of the same
//! game), the [`PrerenderFarm`] turns misses into speculative neighbour
//! renders,
//! and a per-room quality controller converts egress-queue waits into
//! degrade notices — the paper's "ship smaller frames until the link
//! recovers" loop, driven by *measured* socket backpressure instead of
//! a simulated budget.
//!
//! The store tracks identity and byte accounting only; the codec-encoded
//! payloads live in a bounded FIFO payload cache alongside it. Frames
//! are produced by a deterministic procedural renderer and encoded with
//! the real `coterie-codec` transform — real serialization cost on the
//! server, real decode cost on the client, without dragging the full
//! panorama renderer into the per-request path. The procedural field is
//! rank-2 separable, a sum of two outer products whose phases are seeded
//! by the grid point, so each row is filled from per-column factors
//! taken once per frame and two per-row factors: 384 `sin`/`cos` calls
//! at full scale where a per-pixel field takes 32 768. On `roam_cold`
//! (traced, 2-vCPU Xeon VM, one pinned CPU) that took
//! `server.service.render_us` from ~127 µs to ~9 µs per frame, and the
//! encode (~31 µs) is now the largest cost of a miss.

use coterie_codec::{EncodedFrame, Encoder, Quality};
use coterie_core::cache::{CacheQuery, FrameMeta};
use coterie_frame::LumaFrame;
use coterie_serve::farm::PrerenderFarm;
use coterie_serve::{FrameStore, LocalStore, StoreConfig};
use coterie_telemetry::{Stage, TelemetrySink, TrackId, SERVE_PID, VSYNC_BUDGET_MS};
use coterie_world::{GameId, GameSpec, GridPoint, LeafId, Scene, Vec2};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive poses that waited or lost their frame before a room degrades.
pub const DEGRADE_AFTER_DROPS: u32 = 4;
/// Consecutive clean deliveries before a degraded room recovers a step.
pub const RECOVER_AFTER_CLEAN: u32 = 64;
/// Multiplicative degrade step, per-mille scale.
pub const DEGRADE_STEP: f64 = 0.75;
/// Multiplicative recovery step.
pub const RECOVER_STEP: f64 = 1.15;
/// Floor the controller never degrades below, per-mille.
pub const MIN_SCALE_PM: u16 = 250;

/// Base far-BE frame width at full scale, px. Height is half (the
/// far-field band of an equirect panorama).
pub const BASE_WIDTH: u32 = 128;

/// Payload-cache entry cap. The frame store owns the byte budget and
/// LRU; this FIFO cap only bounds the payload map when store churn
/// outpaces it.
const PAYLOAD_CACHE_ENTRIES: usize = 4096;

/// Per-game world state, built lazily on first join.
struct World {
    scene: Scene,
    spec: GameSpec,
    /// Similarity threshold for store lookups, meters.
    dist_thresh: f64,
    /// Near-set radius fed to criterion 3's hash, meters.
    near_radius: f64,
}

/// Per-room controller state.
struct RoomState {
    next_player: u32,
    players: u32,
    scale_pm: u16,
    drop_streak: u32,
    clean_streak: u32,
    /// Last scale that survived a full clean streak.
    last_stable_pm: u16,
    /// Recovery never climbs past this; lowered to `last_stable_pm`
    /// when a higher scale degrades, so the controller converges on the
    /// highest sustainable scale instead of ping-ponging across it.
    /// Sticky for the room's lifetime (rooms reset when they empty).
    ceiling_pm: u16,
}

/// The result of serving one pose.
pub struct FrameReply {
    /// The encoded far-BE frame.
    pub encoded: Arc<EncodedFrame>,
    /// Whether the shared store already had a similar frame.
    pub store_hit: bool,
    /// The room's current quality scale, per-mille.
    pub scale_pm: u16,
    /// Whether the frame was rendered and encoded for this pose, not
    /// taken from the payload cache.
    pub rendered: bool,
}

/// Aggregate service counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Poses served with a frame reply.
    pub frames_served: u64,
    /// Replies answered from the shared store.
    pub store_hits: u64,
    /// Replies that rendered + encoded on demand.
    pub store_misses: u64,
    /// Degrade / recover notices generated.
    pub scale_changes: u64,
}

/// [`ServiceStats`] as the workers count it: statistics only, so relaxed.
#[derive(Default)]
struct ServiceCounters {
    frames_served: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    scale_changes: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Shared serving state; one per server, `Arc`-shared across workers.
pub struct ServiceCore {
    /// Written once per game, read on every pose.
    worlds: RwLock<HashMap<GameId, Arc<World>>>,
    store: Arc<dyn FrameStore>,
    payloads: Mutex<PayloadCache>,
    farm: Mutex<PrerenderFarm>,
    rooms: Mutex<HashMap<(GameId, u32), RoomState>>,
    stats: ServiceCounters,
    encoder: Encoder,
    telemetry: TelemetrySink,
    world_seed: u64,
}

struct PayloadCache {
    map: HashMap<(GameId, u64, u16), Arc<EncodedFrame>>,
    order: VecDeque<(GameId, u64, u16)>,
}

impl ServiceCore {
    /// A core with the given store budget and telemetry sink (pass a
    /// disabled sink for untraced runs). The store is a private
    /// [`LocalStore`] — today's single-process behaviour, byte for
    /// byte.
    pub fn new(store_bytes: u64, world_seed: u64, telemetry: TelemetrySink) -> ServiceCore {
        ServiceCore::with_store(
            Arc::new(LocalStore::new(StoreConfig {
                capacity_bytes: store_bytes,
                ..StoreConfig::default()
            })),
            world_seed,
            telemetry,
        )
    }

    /// A core serving from the given [`FrameStore`] — the seam the
    /// benchmark's timed store plugs into to time every store call from
    /// outside (a test double fits the same way).
    pub fn with_store(
        store: Arc<dyn FrameStore>,
        world_seed: u64,
        telemetry: TelemetrySink,
    ) -> ServiceCore {
        ServiceCore {
            worlds: RwLock::new(HashMap::new()),
            store,
            payloads: Mutex::new(PayloadCache {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            farm: Mutex::new(PrerenderFarm::new()),
            rooms: Mutex::new(HashMap::new()),
            stats: ServiceCounters::default(),
            encoder: Encoder::new(Quality::CRF25),
            telemetry,
            world_seed,
        }
    }

    /// The frame store (occupancy gauges, hit-ratio reporting).
    pub fn store(&self) -> &dyn FrameStore {
        self.store.as_ref()
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.stats;
        ServiceStats {
            frames_served: c.frames_served.load(Ordering::Relaxed),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_misses: c.store_misses.load(Ordering::Relaxed),
            scale_changes: c.scale_changes.load(Ordering::Relaxed),
        }
    }

    /// The vsync budget advertised in `Welcome`.
    pub fn budget_ms(&self) -> f64 {
        VSYNC_BUDGET_MS
    }

    fn world(&self, game: GameId) -> Arc<World> {
        if let Some(world) = self.worlds.read().get(&game) {
            return world.clone();
        }
        let mut worlds = self.worlds.write();
        worlds
            .entry(game)
            .or_insert_with(|| {
                let spec = GameSpec::for_game(game);
                let scene = spec.build_scene(self.world_seed);
                let spacing = scene.grid().spacing();
                Arc::new(World {
                    scene,
                    spec,
                    dist_thresh: spacing * 0.75,
                    near_radius: spacing * 2.0,
                })
            })
            .clone()
    }

    /// The game's spec and scene, for trajectory-driven tooling that
    /// wants to share the server's lazily-built world.
    pub fn world_handles(&self, game: GameId) -> (GameSpec, Arc<Scene>) {
        // The load generator builds its own scene from the same seed;
        // this accessor exists for in-process harnesses.
        let w = self.world(game);
        (
            w.spec.clone(),
            Arc::new(w.spec.build_scene(self.world_seed)),
        )
    }

    /// Admits a player into `(game, room)` and returns its player id
    /// and the room's current scale.
    pub fn join(&self, game: GameId, room: u32) -> (u32, u16) {
        // Touch the world so first-pose latency doesn't pay scene
        // construction.
        let _ = self.world(game);
        let mut rooms = self.rooms.lock();
        let state = rooms.entry((game, room)).or_insert(RoomState {
            next_player: 0,
            players: 0,
            scale_pm: 1000,
            drop_streak: 0,
            clean_streak: 0,
            last_stable_pm: 1000,
            ceiling_pm: 1000,
        });
        let player = state.next_player;
        state.next_player += 1;
        state.players += 1;
        (player, state.scale_pm)
    }

    /// Removes a player from its room; empty rooms reset their
    /// controller on the next join.
    pub fn leave(&self, game: GameId, room: u32) {
        let mut rooms = self.rooms.lock();
        if let Some(state) = rooms.get_mut(&(game, room)) {
            state.players = state.players.saturating_sub(1);
            if state.players == 0 {
                rooms.remove(&(game, room));
            }
        }
    }

    /// Feeds the room's quality controller one delivery outcome.
    /// Returns the new scale if it changed (a `Degrade` notice should
    /// be sent to the room's connections).
    ///
    /// Recovery is ceiling-bounded: a full clean streak marks the
    /// current scale stable, and a degrade at a higher scale lowers the
    /// recovery ceiling to that last stable level. Without the ceiling
    /// the controller re-probes a known-bad scale every
    /// [`RECOVER_AFTER_CLEAN`] frames and oscillates degrade/recover
    /// forever on a link whose capacity sits between two steps.
    pub fn note_delivery(&self, game: GameId, room: u32, dropped: bool) -> Option<u16> {
        let mut rooms = self.rooms.lock();
        let state = rooms.get_mut(&(game, room))?;
        if dropped {
            state.drop_streak += 1;
            state.clean_streak = 0;
            if state.drop_streak >= DEGRADE_AFTER_DROPS {
                state.drop_streak = 0;
                // This scale drops frames; cap future recovery at the
                // last level that demonstrably did not.
                if state.last_stable_pm < state.scale_pm {
                    state.ceiling_pm = state.last_stable_pm;
                }
                let next = ((state.scale_pm as f64 * DEGRADE_STEP) as u16).max(MIN_SCALE_PM);
                if next != state.scale_pm {
                    state.scale_pm = next;
                    bump(&self.stats.scale_changes);
                    return Some(next);
                }
            }
        } else {
            state.clean_streak += 1;
            state.drop_streak = 0;
            if state.clean_streak >= RECOVER_AFTER_CLEAN {
                state.clean_streak = 0;
                state.last_stable_pm = state.scale_pm;
                let next = ((state.scale_pm as f64 * RECOVER_STEP) as u16)
                    .min(1000)
                    .min(state.ceiling_pm);
                if next > state.scale_pm {
                    state.scale_pm = next;
                    bump(&self.stats.scale_changes);
                    return Some(next);
                }
            }
        }
        None
    }

    /// Serves one pose: a store lookup, then (on miss) a procedural
    /// render + real encode, neighbour speculation queued to the farm.
    /// `worker` is the trace track the spans land on.
    pub fn frame_for(&self, game: GameId, room: u32, pos: Vec2, worker: u32) -> FrameReply {
        let world = self.world(game);
        let grid = world.scene.grid().snap(pos);
        let gpos = world.scene.grid().position(grid);
        let near_hash = world.scene.near_set_hash(gpos, world.near_radius);
        let leaf = leaf_of(grid);
        let scale_pm = {
            let rooms = self.rooms.lock();
            rooms.get(&(game, room)).map(|r| r.scale_pm).unwrap_or(1000)
        };

        let track = TrackId {
            pid: SERVE_PID,
            tid: worker,
        };
        let query = CacheQuery {
            grid,
            pos: gpos,
            leaf,
            near_hash,
            dist_thresh: world.dist_thresh,
        };

        let t0 = self.telemetry.now_ms();
        let store_hit = self.store.lookup(game, &query);
        self.telemetry.span(
            track,
            Stage::CacheLookup,
            "store-lookup",
            t0,
            self.telemetry.now_ms() - t0,
            0,
        );

        let key = (game, grid.key(), scale_pm);
        let cached = if store_hit {
            self.payloads.lock().map.get(&key).cloned()
        } else {
            None
        };

        let rendered = cached.is_none();
        let encoded = match cached {
            Some(e) => e,
            None => {
                let t1 = self.telemetry.now_ms();
                let luma = procedural_far_frame(grid, near_hash, scale_pm);
                self.telemetry.span(
                    track,
                    Stage::Render,
                    "far-render",
                    t1,
                    self.telemetry.now_ms() - t1,
                    0,
                );
                let t2 = self.telemetry.now_ms();
                let encoded = Arc::new(self.encoder.encode(&luma));
                self.telemetry.span(
                    track,
                    Stage::Encode,
                    "far-encode",
                    t2,
                    self.telemetry.now_ms() - t2,
                    0,
                );
                let meta = FrameMeta {
                    grid,
                    pos: gpos,
                    leaf,
                    near_hash,
                };
                let bytes = encoded.size_bytes() as u64;
                self.store.insert(game, meta, bytes);
                {
                    let mut p = self.payloads.lock();
                    if p.map.insert(key, encoded.clone()).is_none() {
                        p.order.push_back(key);
                        while p.order.len() > PAYLOAD_CACHE_ENTRIES {
                            if let Some(old) = p.order.pop_front() {
                                p.map.remove(&old);
                            }
                        }
                    }
                }
                self.farm
                    .lock()
                    .enqueue_neighbors(0, game, meta, bytes, world.dist_thresh);
                encoded
            }
        };

        bump(&self.stats.frames_served);
        bump(if store_hit {
            &self.stats.store_hits
        } else {
            &self.stats.store_misses
        });
        FrameReply {
            encoded,
            store_hit,
            scale_pm,
            rendered,
        }
    }

    /// Periodic maintenance: sweeps the pre-render farm into the store.
    /// Workers call this between poll iterations; it is cheap when the
    /// farm is empty.
    pub fn maintain(&self, worker: u32) {
        let mut farm = self.farm.lock();
        if farm.pending() == 0 {
            return;
        }
        let t0 = self.telemetry.now_ms();
        farm.drain_into(&[self.store.as_ref()]);
        self.telemetry.span(
            TrackId {
                pid: SERVE_PID,
                tid: worker,
            },
            Stage::Farm,
            "farm-drain",
            t0,
            self.telemetry.now_ms() - t0,
            0,
        );
    }

    /// The telemetry sink the core records into.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }
}

/// Uniform leaf tiling: 8×8 grid-point regions. The single-session
/// pipeline derives leaves from the calibrated cutoff quadtree; the
/// serving plane approximates that with a fixed tiling, which preserves
/// the store's criterion-2 semantics (same-leaf requirement) without
/// running calibration at accept time.
fn leaf_of(grid: GridPoint) -> LeafId {
    let lx = (grid.ix >> 3) as u32;
    let lz = (grid.iz >> 3) as u32;
    LeafId((lx & 0xFFFF) << 16 | (lz & 0xFFFF))
}

/// Deterministic smooth far-field luma for a grid point. Phase is
/// seeded by the grid key and the near-set hash so different points
/// produce different (but compressible) content, and the same point
/// always reproduces byte-identical frames.
///
/// The field is rank-2 separable,
/// `0.5 + 0.28·a(x)·b(y) + 0.12·c(x)·d(y)` clamped to `[0, 1]`, so the
/// four trig factors are taken once per column and once per row rather
/// than once per pixel. Each pixel still runs the formula's f32
/// operations in the formula's order (Rust neither contracts nor
/// reassociates them), so the frame is bit-identical to evaluating the
/// formula per pixel, and the served payloads do not move.
fn procedural_far_frame(grid: GridPoint, near_hash: u64, scale_pm: u16) -> LumaFrame {
    let width = (BASE_WIDTH * scale_pm as u32 / 1000).max(16);
    let height = (width / 2).max(8);
    let seed = grid.key() ^ near_hash;
    let p1 = (seed & 0xFFFF) as f32 / 65536.0;
    let p2 = ((seed >> 16) & 0xFFFF) as f32 / 65536.0;
    let columns: Vec<(f32, f32)> = (0..width)
        .map(|x| {
            let fx = x as f32 / width as f32;
            ((fx * 7.0 + p1 * 6.0).sin(), (fx * 23.0 - p2 * 11.0).cos())
        })
        .collect();
    let mut frame = LumaFrame::new(width, height);
    for (y, row) in frame
        .data_mut()
        .chunks_exact_mut(width as usize)
        .enumerate()
    {
        let fy = y as f32 / height as f32;
        let b = (fy * 5.0 - p2 * 4.0).cos();
        let d = (fy * 17.0 + p1 * 9.0).sin();
        for (px, &(a, c)) in row.iter_mut().zip(&columns) {
            *px = (0.5 + 0.28 * (a * b) + 0.12 * (c * d)).clamp(0.0, 1.0);
        }
    }
    frame
}

/// Maps a codec quality to its wire code.
pub fn quality_to_wire(q: Quality) -> u8 {
    match q {
        Quality::CRF18 => 0,
        Quality::CRF25 => 1,
        Quality::CRF32 => 2,
    }
}

/// Maps a wire code back to a codec quality.
pub fn quality_from_wire(code: u8) -> Quality {
    match code {
        0 => Quality::CRF18,
        2 => Quality::CRF32,
        _ => Quality::CRF25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ServiceCore {
        ServiceCore::new(64 << 20, 42, TelemetrySink::disabled())
    }

    #[test]
    fn join_assigns_monotonic_players_and_leave_clears_room() {
        let c = core();
        let (p0, s0) = c.join(GameId::VikingVillage, 0);
        let (p1, _) = c.join(GameId::VikingVillage, 0);
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(s0, 1000);
        c.leave(GameId::VikingVillage, 0);
        c.leave(GameId::VikingVillage, 0);
        // Room reset: a new join starts at player 0 again.
        let (p, _) = c.join(GameId::VikingVillage, 0);
        assert_eq!(p, 0);
    }

    #[test]
    fn repeated_pose_hits_the_store() {
        let c = core();
        c.join(GameId::Fps, 3);
        let pos = Vec2::new(10.0, 12.0);
        let first = c.frame_for(GameId::Fps, 3, pos, 0);
        assert!(!first.store_hit);
        let second = c.frame_for(GameId::Fps, 3, pos, 0);
        assert!(second.store_hit);
        assert!(first.rendered && !second.rendered);
        assert_eq!(first.encoded.payload, second.encoded.payload);
        let stats = c.stats();
        assert_eq!(stats.frames_served, 2);
        assert_eq!(stats.store_hits, 1);
    }

    #[test]
    fn drops_degrade_and_clean_runs_recover() {
        let c = core();
        c.join(GameId::Fps, 0);
        let mut changed = None;
        for _ in 0..DEGRADE_AFTER_DROPS {
            changed = c.note_delivery(GameId::Fps, 0, true);
        }
        let degraded = changed.expect("drops must degrade the room");
        assert_eq!(degraded, 750);
        let mut recovered = None;
        for _ in 0..RECOVER_AFTER_CLEAN {
            recovered = c.note_delivery(GameId::Fps, 0, false);
        }
        let back = recovered.expect("clean deliveries must recover");
        assert!(back > degraded);
    }

    #[test]
    fn lossy_then_clean_link_converges_without_oscillation() {
        // Closed loop against a link whose capacity sits between two
        // controller steps: every frame shipped above 750‰ drops,
        // everything at or below 750‰ delivers clean. The unpatched
        // controller re-probes 862‰ after every clean streak and
        // degrade/recover ping-pongs forever; the ceiling-bounded
        // controller must settle at 750‰ and then go quiet.
        let c = core();
        c.join(GameId::Fps, 0);
        let mut scale: u16 = 1000;
        let mut last_change_at = 0usize;
        let total = 40_000usize;
        for i in 0..total {
            if let Some(next) = c.note_delivery(GameId::Fps, 0, scale > 750) {
                scale = next;
                last_change_at = i;
            }
        }
        assert_eq!(scale, 750, "must settle on the sustainable scale");
        assert!(
            last_change_at < total - 10_000,
            "controller still changing scale at iteration {last_change_at}: \
             degrade/recover oscillation"
        );
    }

    #[test]
    fn scale_floor_holds_under_sustained_drops() {
        let c = core();
        c.join(GameId::Fps, 0);
        for _ in 0..10_000 {
            c.note_delivery(GameId::Fps, 0, true);
        }
        let reply = c.frame_for(GameId::Fps, 0, Vec2::new(0.0, 0.0), 0);
        assert!(reply.scale_pm >= MIN_SCALE_PM);
    }

    #[test]
    fn degraded_scale_shrinks_the_frame() {
        let full = procedural_far_frame(GridPoint::new(4, 4), 9, 1000);
        let degraded = procedural_far_frame(GridPoint::new(4, 4), 9, 500);
        assert!(degraded.width() < full.width());
        assert!(degraded.width() >= 16);
    }

    #[test]
    fn frames_decode_with_the_real_codec() {
        let c = core();
        c.join(GameId::VikingVillage, 0);
        let reply = c.frame_for(GameId::VikingVillage, 0, Vec2::new(5.0, 5.0), 0);
        let decoder = Encoder::new(reply.encoded.quality);
        let decoded = decoder.decode(&reply.encoded).expect("decode");
        assert_eq!(decoded.width(), reply.encoded.width);
    }

    #[test]
    fn custom_store_backend_is_swappable() {
        let store = Arc::new(LocalStore::new(StoreConfig {
            capacity_bytes: 1 << 20,
            ..StoreConfig::default()
        }));
        let c = ServiceCore::with_store(store.clone(), 42, TelemetrySink::disabled());
        c.join(GameId::Fps, 0);
        c.frame_for(GameId::Fps, 0, Vec2::new(2.0, 3.0), 0);
        assert!(
            !store.is_empty(),
            "core writes through the injected backend"
        );
    }

    /// A fixed walk over the Viking village, one pose per grid point.
    fn pinned_poses() -> impl Iterator<Item = Vec2> {
        (0..16).map(|i| Vec2::new(4.0 + 11.0 * i as f64, 3.0 + 7.5 * ((i * 5) % 16) as f64))
    }

    /// FNV-1a hashes of the payloads served for [`pinned_poses`] at every
    /// scale the controller steps through. These are the bytes
    /// `wire_bytes_per_frame` counts: a change to the field or the
    /// encoder that moves them needs a benchmark re-base.
    const PINNED_PAYLOAD_FNV: [(u16, [u64; 16]); 6] = [
        (
            1000,
            [
                0x8bc5bdd93ea2f933,
                0xf5e402298fda093a,
                0xf54559357ca7beee,
                0x4b8d264e80c67985,
                0x235944bc11a24a21,
                0x91373f9ed048f73d,
                0xe569786e75ccdb72,
                0x3f347467601def49,
                0x460906ad67b1a59a,
                0xb8a9dde3301deb06,
                0xcacf3fc7cd2a5275,
                0x0cec9d22ee0012dc,
                0xe6e6646f448c4737,
                0xcbe88056098f264f,
                0x7b469443d5e61d18,
                0xee412a3e205d1c35,
            ],
        ),
        (
            750,
            [
                0x7118a526d3a5ae64,
                0x280534d0813f4d3f,
                0xf3858b626042d084,
                0xa2f93ec1009ff672,
                0xf366abccb6a4f8bc,
                0xad99ee298f69adf4,
                0xda1808de3742568e,
                0x53639df652faeaf6,
                0xaa73dbbe7b02a005,
                0xe111515be1e5e33f,
                0x37d6446839d5498a,
                0xc9e343f7fa7aa96b,
                0x759fe115b1040b99,
                0x856e57e9522eb586,
                0x3e5c23fc05920252,
                0x3f3ea4334d5e44d4,
            ],
        ),
        (
            562,
            [
                0xac9f2161c14ae9cc,
                0xf41bf0f4c45cf22f,
                0xead7147bae0fc9b5,
                0xa3ac64a925d4e2c8,
                0x5ae08ab78f49b6a2,
                0x2d1da82c984c3bdd,
                0xf36ad04383513da7,
                0x708f2d7d8f04fd13,
                0xf31842b779354809,
                0x4617e935368f71ed,
                0x254b0c9ac870cef2,
                0x604ab7f0fa14c153,
                0x62757f05a8daf7ac,
                0x82f3b7dc3172ad93,
                0xad2caae315fa060d,
                0x54dc0172b0b5ef60,
            ],
        ),
        (
            421,
            [
                0x636cb6c7888fb628,
                0x24fa3684b939525e,
                0x0e55421f861c3536,
                0x3d95002f78824bb7,
                0x31c65db85499435c,
                0xe89e5ab745690e93,
                0x9f6927fb8f20a332,
                0x6bad90ab7b900d1d,
                0x26a19708dea6a140,
                0x83892f5eb628d807,
                0xf382ebc724d55ea9,
                0x537220575d215602,
                0x1fb023d104653235,
                0xd1d73208820ab59a,
                0xc59cd8ef49dd5b12,
                0xe162a9a8989218dc,
            ],
        ),
        (
            315,
            [
                0x5185ea9a79212d6a,
                0x0a16c34bae50df81,
                0x06a8cebc262b032f,
                0x78d03e250ce686ae,
                0x08644d6b38310bea,
                0xa525963611e083f3,
                0x89b66029c2839d71,
                0xc119b03165bc1cf9,
                0x097ced986823309d,
                0x70b51a852b741de9,
                0x1589c2b86a228ec6,
                0xb17d13f7d6bf6e18,
                0xc5e8cd8f90f57b05,
                0xae4070fb80655308,
                0xf23f792816da0875,
                0xf85e4d73452fa25c,
            ],
        ),
        (
            250,
            [
                0x2e5a8e001111918d,
                0x1e57a537b2cc4d45,
                0xdcebaae279ef28ae,
                0x12f3325634d47044,
                0xd6b84564945940e7,
                0x53e2b851f493397c,
                0xe46455b445c247a1,
                0x24ce4ba35b2363c9,
                0x8589c7fba1f4f0c9,
                0xa0bb72515569cb15,
                0x1bb3e8a060983f35,
                0xa13f126199e3ab31,
                0x1ef05ea183671e34,
                0x071e858c4040d7f1,
                0xad5533b5a1d1da07,
                0xbea447b0062a54b4,
            ],
        ),
    ];

    /// 64-bit FNV-1a.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn served_payloads_are_pinned_at_every_scale() {
        // Neither the field nor the encoder may move a served byte: the
        // payloads are what `wire_bytes_per_frame` measures.
        let c = core();
        c.join(GameId::VikingVillage, 0);
        for (scale_pm, want) in PINNED_PAYLOAD_FNV {
            for (i, (pos, want)) in pinned_poses().zip(want).enumerate() {
                let reply = c.frame_for(GameId::VikingVillage, 0, pos, 0);
                assert_eq!(reply.scale_pm, scale_pm);
                assert_eq!(
                    fnv1a64(&reply.encoded.payload),
                    want,
                    "pose {i} at {scale_pm}‰ serves different bytes"
                );
            }
            for _ in 0..DEGRADE_AFTER_DROPS {
                c.note_delivery(GameId::VikingVillage, 0, true);
            }
        }
    }

    /// Reference for [`procedural_far_frame`]: the field's formula
    /// evaluated per pixel.
    fn procedural_far_frame_per_pixel(grid: GridPoint, near_hash: u64, scale_pm: u16) -> LumaFrame {
        let width = (BASE_WIDTH * scale_pm as u32 / 1000).max(16);
        let height = (width / 2).max(8);
        let seed = grid.key() ^ near_hash;
        let p1 = (seed & 0xFFFF) as f32 / 65536.0;
        let p2 = ((seed >> 16) & 0xFFFF) as f32 / 65536.0;
        LumaFrame::from_fn(width, height, |x, y| {
            let fx = x as f32 / width as f32;
            let fy = y as f32 / height as f32;
            (0.5 + 0.28 * ((fx * 7.0 + p1 * 6.0).sin() * (fy * 5.0 - p2 * 4.0).cos())
                + 0.12 * ((fx * 23.0 - p2 * 11.0).cos() * (fy * 17.0 + p1 * 9.0).sin()))
            .clamp(0.0, 1.0)
        })
    }

    #[test]
    fn separable_far_frame_is_bit_identical_to_per_pixel() {
        for width in 16..=BASE_WIDTH {
            // The smallest scale that yields this width.
            let scale_pm = (width * 1000).div_ceil(BASE_WIDTH) as u16;
            for i in 0..40u64 {
                let mix = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let grid = GridPoint::new((mix % 6000) as i32, ((mix >> 20) % 4200) as i32);
                let near_hash = mix ^ (mix >> 29);
                let fast = procedural_far_frame(grid, near_hash, scale_pm);
                let slow = procedural_far_frame_per_pixel(grid, near_hash, scale_pm);
                assert_eq!(fast.width(), width);
                assert_eq!(fast.height(), slow.height());
                let bits = |f: &LumaFrame| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&fast),
                    bits(&slow),
                    "width {width}, grid {grid:?}, near hash {near_hash:#x}"
                );
            }
        }
    }

    #[test]
    fn quality_wire_codes_round_trip() {
        for q in [Quality::CRF18, Quality::CRF25, Quality::CRF32] {
            assert_eq!(quality_from_wire(quality_to_wire(q)), q);
        }
    }
}
