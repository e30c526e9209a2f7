//! One hosted multiplayer session ("room") inside the fleet.
//!
//! A room wraps a [`SessionSim`] and routes every client-cache miss
//! through the fleet's shared frame store instead of the per-session
//! render path. It also runs the room's half of the fleet's graceful
//! degradation: an exponential moving average of the per-frame critical
//! path is compared against the 16.7 ms vsync budget at each epoch
//! boundary, and rooms that keep violating it ship smaller far-BE
//! frames (the sim's quality scale) until they fit again.

use crate::farm::{render_cost_ms, PrerenderFarm};
use crate::predict::{PosePredictor, PredictorKind, SPECULATION_HORIZONS_VSYNCS};
use crate::store::FrameStore;
use coterie_core::{CacheQuery, FrameMeta};
use coterie_device::FRAME_BUDGET_MS;
use coterie_net::FleetEgress;
use coterie_sim::{SessionConfig, SessionReport, SessionSim};
use coterie_telemetry::{room_pid, FrameStats, Stage, TelemetrySink, TrackId, SERVICE_TID};
use coterie_world::{scene_hotspots, GameId};

/// Smoothing factor of the critical-path EMA (per frame).
const EMA_ALPHA: f64 = 0.1;
/// Consecutive over-budget epochs before quality drops.
const DEGRADE_AFTER_EPOCHS: u32 = 2;
/// Consecutive in-budget epochs before quality recovers a notch.
const RECOVER_AFTER_EPOCHS: u32 = 4;
/// Multiplicative quality decrease / recovery steps.
const DEGRADE_STEP: f64 = 0.75;
const RECOVER_STEP: f64 = 1.15;
// A room's fleet-side service spans — store lookups and far-BE
// transfers — land on the checked `coterie_telemetry::SERVICE_TID`
// lane, clearly apart from the per-player frame lanes.

/// Per-room outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct RoomReport {
    /// Room id (fleet-wide index).
    pub id: usize,
    /// Game hosted by the room.
    pub game: GameId,
    /// The wrapped session's full report.
    pub session: SessionReport,
    /// Store lookups that hit.
    pub store_hits: u64,
    /// Store lookups that missed (required an on-demand render).
    pub store_misses: u64,
    /// Requests that bypassed the store because the room's bounded
    /// prefetch queue was full this epoch.
    pub queue_overflows: u64,
    /// Prefetches the fleet egress budget refused at full size (shipped
    /// degraded instead).
    pub egress_refusals: u64,
    /// Times the degradation controller lowered quality.
    pub degradations: u64,
    /// Quality scale the room ended at (1 = undegraded).
    pub final_quality_scale: f64,
    /// GPU-ms spent rendering this room's store misses on demand.
    pub inline_gpu_ms: f64,
    /// Far-BE bytes actually shipped to this room's clients.
    pub shipped_bytes: u64,
    /// Per-frame budget attribution totals (`None` when the fleet ran
    /// without a telemetry sink — the default, and the configuration
    /// golden reports are recorded under).
    pub telemetry: Option<FrameStats>,
}

impl RoomReport {
    /// Store hit ratio of this room's prefetch traffic.
    pub fn store_hit_ratio(&self) -> f64 {
        let total = self.store_hits + self.store_misses;
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }

    /// The room's FI loss/recovery accounting (all-zero when the fleet
    /// ran without a fault scenario).
    pub fn fi(&self) -> coterie_sim::FiReport {
        self.session.fi
    }
}

/// A hosted session plus its fleet-side bookkeeping.
pub struct Room {
    id: usize,
    game: GameId,
    sim: SessionSim,
    /// Pose-predictive speculation state; `None` runs the historical
    /// blind-neighbour farm path bit-for-bit.
    predictor: Option<PosePredictor>,
    queue_depth: usize,
    queued_this_epoch: usize,
    ema_critical_ms: f64,
    over_epochs: u32,
    calm_epochs: u32,
    store_hits: u64,
    store_misses: u64,
    queue_overflows: u64,
    egress_refusals: u64,
    degradations: u64,
    inline_gpu_ms: f64,
    shipped_bytes: u64,
    telemetry: TelemetrySink,
}

impl Room {
    /// Builds the room and its simulated session (world construction and
    /// the measurement pass happen here — rooms are cheap to *run* but
    /// not to *build*, which is why the fleet constructs them in a
    /// work-stealing parallel sweep).
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero — a room must be able to issue at
    /// least one prefetch per epoch.
    pub fn new(id: usize, config: SessionConfig, queue_depth: usize) -> Self {
        Room::new_with_telemetry(id, config, queue_depth, TelemetrySink::disabled())
    }

    /// [`Room::new`] with an observation-only telemetry sink: the
    /// wrapped session attributes every displayed frame to `sink`, and
    /// the room adds store-lookup and farm spans on its own trace lane.
    /// With a disabled sink this is [`Room::new`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn new_with_telemetry(
        id: usize,
        config: SessionConfig,
        queue_depth: usize,
        telemetry: TelemetrySink,
    ) -> Self {
        assert!(
            queue_depth > 0,
            "rooms need a prefetch queue depth of at least 1"
        );
        let game = config.game;
        Room {
            id,
            game,
            sim: SessionSim::new_with_telemetry(config, telemetry.clone(), id as u32),
            predictor: None,
            queue_depth,
            queued_this_epoch: 0,
            ema_critical_ms: 0.0,
            over_epochs: 0,
            calm_epochs: 0,
            store_hits: 0,
            store_misses: 0,
            queue_overflows: 0,
            egress_refusals: 0,
            degradations: 0,
            inline_gpu_ms: 0.0,
            shipped_bytes: 0,
            telemetry,
        }
    }

    /// Drives the room's speculation with a pose predictor of `kind`
    /// (the `vpm` variant reconstructs the scene's shared hotspots from
    /// the session's world). [`PredictorKind::None`] keeps the blind
    /// farm path byte-for-byte.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = PosePredictor::new(kind, scene_hotspots(self.sim.scene()));
        self
    }

    /// Installs the matchmaker's presence windows — one
    /// `(join_ms, leave_ms)` pair per roster slot — on the wrapped
    /// session. Must be called before the room ticks.
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` differs from the roster size or the
    /// session has already stepped (forwarded from
    /// [`SessionSim::set_presence`]).
    pub fn with_presence(mut self, windows: &[(f64, f64)]) -> Self {
        self.sim.set_presence(windows);
        self
    }

    /// Room id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Hosted game.
    pub fn game(&self) -> GameId {
        self.game
    }

    /// Whether the wrapped session has played out its full duration.
    pub fn finished(&self) -> bool {
        self.sim.finished()
    }

    /// Critical-path EMA, ms (0 before the first frame).
    pub fn ema_critical_ms(&self) -> f64 {
        self.ema_critical_ms
    }

    /// Current quality scale of the wrapped session.
    pub fn quality_scale(&self) -> f64 {
        self.sim.quality_scale()
    }

    /// Advances the room's session until its logical clock reaches
    /// `epoch_end_ms` (or the session ends), serving prefetch misses
    /// from `store` and queueing speculative work on `farm`.
    ///
    /// `store_idx` is the store's index in the fleet's store list (used
    /// to label farm jobs); `egress` is the fleet-wide downlink budget.
    pub fn tick(
        &mut self,
        epoch_end_ms: f64,
        store: &dyn FrameStore,
        store_idx: usize,
        egress: &mut FleetEgress,
        farm: &mut PrerenderFarm,
    ) {
        let game = self.game;
        let queue_depth = self.queue_depth;
        let mut queued = self.queued_this_epoch;
        let mut store_hits = 0u64;
        let mut store_misses = 0u64;
        let mut queue_overflows = 0u64;
        let mut egress_refusals = 0u64;
        let mut inline_gpu_ms = 0.0f64;
        let mut shipped_bytes = 0u64;
        let mut ema = self.ema_critical_ms;
        let grid = *self.sim.scene().grid();
        let predictor = &mut self.predictor;
        let telemetry = self.telemetry.clone();
        // Room-level service spans (store lookups, far-BE transfers)
        // get their own trace lane next to the per-player frame lanes.
        let track = TrackId {
            pid: room_pid(self.id as u32),
            tid: SERVICE_TID,
        };

        let mut fetch = |link: &mut coterie_net::SharedLink,
                         req: coterie_sim::FarRequest|
         -> coterie_sim::FarResponse {
            let meta = FrameMeta {
                grid: req.grid,
                pos: req.pos,
                leaf: req.leaf,
                near_hash: req.near_hash,
            };
            // Bounded per-room queue: a room may only have `queue_depth`
            // store transactions in flight per epoch; beyond that the
            // request falls back to a dedicated on-demand render (it
            // cannot be dropped — the client is waiting on the frame).
            let render_ms = if queued < queue_depth {
                queued += 1;
                let query = CacheQuery {
                    grid: req.grid,
                    pos: req.pos,
                    leaf: req.leaf,
                    near_hash: req.near_hash,
                    dist_thresh: req.dist_thresh,
                };
                // The farm speculates around *all* observed traffic, not
                // just misses: a hit still signals that nearby grid
                // points are about to be requested (duplicates are
                // deduped at drain time, so this is cheap).
                farm.enqueue_neighbors(store_idx, game, meta, req.bytes, req.dist_thresh);
                if let Some(pred) = predictor.as_mut() {
                    // Pose-predictive speculation on top of the blind
                    // straddle: extrapolate the requesting player over
                    // the speculation window and queue the grid points
                    // they are predicted to reach, ranked by how many
                    // players are converging there. Leaf and near set
                    // are reused from the observed request (the same
                    // approximation blind neighbours make).
                    pred.observe(req.player, req.now_ms, req.pos);
                    if req.dist_thresh > 0.0 {
                        for vsyncs in SPECULATION_HORIZONS_VSYNCS {
                            let horizon = PosePredictor::horizon_ms(vsyncs);
                            let Some(future) = pred.predict(req.player, horizon) else {
                                continue;
                            };
                            let pgrid = grid.snap(future);
                            if pgrid == req.grid {
                                continue; // frame already in flight
                            }
                            let ppos = grid.position(pgrid);
                            let radius = (req.dist_thresh * 4.0).max(grid.spacing());
                            let occupancy = pred.occupancy(ppos, horizon, radius);
                            // Nearer horizons break ties: a frame
                            // needed in 2 vsyncs outranks one needed
                            // in 6 at equal crowding.
                            let score = occupancy + 1.0 / (1.0 + vsyncs as f64);
                            farm.enqueue_predicted(
                                store_idx,
                                game,
                                FrameMeta {
                                    grid: pgrid,
                                    pos: ppos,
                                    leaf: req.leaf,
                                    near_hash: req.near_hash,
                                },
                                req.bytes,
                                score,
                            );
                        }
                    }
                }
                let lookup_started = telemetry.is_enabled().then(std::time::Instant::now);
                let hit = store.lookup(game, &query);
                if let Some(t0) = lookup_started {
                    telemetry.span(
                        track,
                        Stage::Store,
                        if hit { "store-hit" } else { "store-miss" },
                        req.now_ms,
                        t0.elapsed().as_secs_f64() * 1000.0,
                        0,
                    );
                }
                if hit {
                    store_hits += 1;
                    0.0 // pre-rendered: transfer only
                } else {
                    store_misses += 1;
                    let cost = render_cost_ms(req.bytes);
                    inline_gpu_ms += cost;
                    store.insert(game, meta, req.bytes);
                    cost
                }
            } else {
                queue_overflows += 1;
                let cost = render_cost_ms(req.bytes);
                inline_gpu_ms += cost;
                cost
            };
            // Fleet egress budget: a refused full-size frame ships at
            // quarter quality instead of oversubscribing the medium
            // (the epoch controller will degrade the room durably if
            // this keeps happening).
            let bytes = if egress.admit(req.now_ms, req.bytes) {
                req.bytes
            } else {
                egress_refusals += 1;
                let shrunk = (req.bytes / 4).max(1);
                let _ = egress.admit(req.now_ms, shrunk);
                shrunk
            };
            shipped_bytes += bytes;
            let sent_at_ms = req.now_ms + render_ms;
            let tx = link.transfer(sent_at_ms, bytes);
            telemetry.span(
                track,
                Stage::Net,
                "transfer",
                sent_at_ms,
                tx.latency_ms(sent_at_ms),
                0,
            );
            coterie_sim::FarResponse {
                bytes,
                completed_at_ms: tx.completed_at_ms,
            }
        };

        while !self.sim.finished() && self.sim.now_ms() < epoch_end_ms {
            // Pin the sink's clock to simulated time so wall-clock spans
            // (render bands, codec work) land at coherent trace offsets.
            self.telemetry.set_time_ms(self.sim.now_ms());
            let Some(event) = self.sim.step_with(&mut fetch) else {
                break;
            };
            ema = if ema == 0.0 {
                event.critical_ms
            } else {
                (1.0 - EMA_ALPHA) * ema + EMA_ALPHA * event.critical_ms
            };
        }

        self.queued_this_epoch = queued;
        self.store_hits += store_hits;
        self.store_misses += store_misses;
        self.queue_overflows += queue_overflows;
        self.egress_refusals += egress_refusals;
        self.inline_gpu_ms += inline_gpu_ms;
        self.shipped_bytes += shipped_bytes;
        self.ema_critical_ms = ema;
    }

    /// Epoch-boundary housekeeping: resets the bounded queue and runs
    /// the hysteresis quality controller. Returns `true` if the room
    /// changed its quality scale this epoch.
    pub fn end_epoch(&mut self) -> bool {
        self.queued_this_epoch = 0;
        if self.ema_critical_ms > FRAME_BUDGET_MS {
            self.over_epochs += 1;
            self.calm_epochs = 0;
            if self.over_epochs >= DEGRADE_AFTER_EPOCHS {
                self.over_epochs = 0;
                let scale = self.sim.quality_scale() * DEGRADE_STEP;
                self.sim.set_quality_scale(scale);
                self.degradations += 1;
                return true;
            }
        } else {
            self.over_epochs = 0;
            if self.sim.quality_scale() < 1.0 {
                self.calm_epochs += 1;
                if self.calm_epochs >= RECOVER_AFTER_EPOCHS {
                    self.calm_epochs = 0;
                    let scale = (self.sim.quality_scale() * RECOVER_STEP).min(1.0);
                    self.sim.set_quality_scale(scale);
                    return true;
                }
            } else {
                self.calm_epochs = 0;
            }
        }
        false
    }

    /// Finalizes the room: runs the session's report assembly and
    /// bundles the fleet-side counters.
    pub fn finish(self) -> RoomReport {
        let final_quality_scale = self.sim.quality_scale();
        let telemetry = self.sim.telemetry_stats();
        RoomReport {
            id: self.id,
            game: self.game,
            session: self.sim.finish(),
            store_hits: self.store_hits,
            store_misses: self.store_misses,
            queue_overflows: self.queue_overflows,
            egress_refusals: self.egress_refusals,
            degradations: self.degradations,
            final_quality_scale,
            inline_gpu_ms: self.inline_gpu_ms,
            shipped_bytes: self.shipped_bytes,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LocalStore, StoreConfig};
    use coterie_sim::SystemKind;
    use coterie_world::GameId;

    fn room_config(seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::new(GameId::VikingVillage, SystemKind::coterie(), 2)
            .with_duration_s(5.0)
            .with_trace_seed(seed);
        cfg.size_samples = 4;
        cfg
    }

    #[test]
    fn room_runs_to_completion_through_store() {
        let store = LocalStore::new(StoreConfig::default());
        let mut egress = FleetEgress::new(1000.0);
        let mut farm = PrerenderFarm::new();
        let mut room = Room::new(0, room_config(1), 64);
        let mut guard = 0;
        while !room.finished() {
            let end = (guard + 1) as f64 * 100.0;
            room.tick(end, &store, 0, &mut egress, &mut farm);
            room.end_epoch();
            guard += 1;
            assert!(guard < 10_000, "room failed to make progress");
        }
        let report = room.finish();
        assert!(report.session.aggregate().avg_fps > 30.0);
        assert!(report.store_hits + report.store_misses > 0);
        assert!(report.inline_gpu_ms > 0.0, "misses must cost GPU time");
        assert!(report.shipped_bytes > 0);
    }

    #[test]
    fn second_room_reuses_first_rooms_frames() {
        // Controlled experiment: the *same* room (same world, same
        // trajectories) runs once against a cold store and once against
        // a store warmed by a different room of the same game. The only
        // difference is the cross-session frames, so any hit-ratio gain
        // is pure cross-session reuse.
        let run = |seed: u64, store: &LocalStore| {
            let mut egress = FleetEgress::new(10_000.0);
            let mut farm = PrerenderFarm::new();
            let mut room = Room::new(seed as usize, room_config(seed), 1024);
            let mut epoch = 0;
            while !room.finished() {
                room.tick((epoch + 1) as f64 * 100.0, store, 0, &mut egress, &mut farm);
                farm.drain_into(&[store]);
                room.end_epoch();
                epoch += 1;
            }
            room.finish()
        };
        let cold_store = LocalStore::new(StoreConfig::default());
        let cold = run(2, &cold_store);
        let warm_store = LocalStore::new(StoreConfig::default());
        let _first = run(1, &warm_store);
        let warm = run(2, &warm_store);
        assert!(
            warm.store_hit_ratio() > cold.store_hit_ratio(),
            "cross-session reuse should help a warmed room: cold {:.3} vs warm {:.3}",
            cold.store_hit_ratio(),
            warm.store_hit_ratio()
        );
    }

    #[test]
    fn controller_degrades_after_sustained_violation_and_recovers() {
        let store = LocalStore::new(StoreConfig::default());
        let mut egress = FleetEgress::new(1000.0);
        let mut farm = PrerenderFarm::new();
        let mut room = Room::new(0, room_config(3), 64);
        // Force a violating EMA, then cross the hysteresis threshold.
        room.ema_critical_ms = FRAME_BUDGET_MS * 2.0;
        assert!(
            !room.end_epoch(),
            "first violating epoch must not degrade yet"
        );
        room.ema_critical_ms = FRAME_BUDGET_MS * 2.0;
        assert!(room.end_epoch(), "second consecutive violation degrades");
        assert!(room.quality_scale() < 1.0);
        // Sustained calm recovers quality (eventually back to 1).
        let mut changed = 0;
        for _ in 0..40 {
            room.ema_critical_ms = FRAME_BUDGET_MS * 0.5;
            if room.end_epoch() {
                changed += 1;
            }
        }
        assert!(changed > 0, "calm epochs must recover quality");
        assert!((room.quality_scale() - 1.0).abs() < 1e-12);
        let _ = (&store, &mut egress, &mut farm);
    }

    #[test]
    fn bounded_queue_overflows_bypass_store() {
        let store = LocalStore::new(StoreConfig::default());
        let mut egress = FleetEgress::new(1000.0);
        let mut farm = PrerenderFarm::new();
        // Queue depth 1 and a single never-ending epoch: everything
        // after the first store transaction must bypass.
        let mut room = Room::new(0, room_config(4), 1);
        room.tick(f64::INFINITY, &store, 0, &mut egress, &mut farm);
        let report = room.finish();
        assert_eq!(report.store_hits + report.store_misses, 1);
        assert!(report.queue_overflows > 0);
    }
}
