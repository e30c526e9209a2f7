//! The fleet runtime: many rooms, one store, one egress budget.
//!
//! [`Fleet::run`] drives every room in lockstep *epochs* of simulated
//! time. Within an epoch rooms are visited in id order and each advances
//! its session to the epoch boundary; at the boundary the pre-render
//! farm drains its speculative batch and every room runs its quality
//! controller. Serializing the store transactions this way makes the
//! whole run a pure function of the [`FleetConfig`] — the same seed
//! always produces a byte-identical [`FleetMetrics`] report — while
//! room *construction* (world building and the render measurement pass,
//! by far the expensive part) still fans out across cores.

use crate::churn::ChurnScenario;
use crate::farm::PrerenderFarm;
use crate::matchmaker::{self, MatchmakingMetrics, PlacementPolicy};
use crate::metrics::FleetMetrics;
use crate::predict::PredictorKind;
use crate::room::{Room, RoomReport};
use crate::store::{FrameStore, LocalStore, StoreConfig, StoreStats};
use coterie_net::{FleetEgress, NetScenario};
use coterie_parallel::par_map;
use coterie_sim::{SessionConfig, SystemKind};
use coterie_telemetry::{
    player_tid, room_pid, room_tid, Stage, TelemetrySink, TrackId, FARM_TID, FLEET_PID,
};
use coterie_world::GameId;
use std::sync::Arc;

/// Fleet composition and resource provisioning.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of concurrent rooms.
    pub rooms: usize,
    /// Players per room.
    pub players: usize,
    /// Games hosted; rooms cycle through this list, and only rooms of
    /// the same game share frames.
    pub games: Vec<GameId>,
    /// Simulated session length per room, seconds.
    pub duration_s: f64,
    /// Master seed. Each game's world derives from this; each room gets
    /// a distinct trajectory seed on top.
    pub seed: u64,
    /// `true` = one store shared by all rooms (the tentpole design);
    /// `false` = one isolated store per room with an equal slice of the
    /// byte budget (the baseline the shared design is compared to).
    pub shared_store: bool,
    /// Total frame-store byte budget (split evenly in isolated mode).
    pub store_bytes: u64,
    /// Store stripe count (intra-process lock sharding).
    pub store_shards: usize,
    /// Provisioned fleet downlink egress, Mbps.
    pub egress_mbps: f64,
    /// Epoch length, simulated ms.
    pub epoch_ms: f64,
    /// Bounded per-room store-transaction queue (per epoch).
    pub queue_depth: usize,
    /// Measurement-pass samples per player (smaller = faster room
    /// construction, coarser size model).
    pub size_samples: usize,
    /// FI network fault scenario applied to every room.
    /// [`NetScenario::None`] (the default) keeps the lossless sync model
    /// and reproduces pre-fault-plane reports byte for byte.
    pub net: NetScenario,
    /// Pose predictor driving the pre-render farm's speculation queue.
    /// [`PredictorKind::None`] (the default) keeps blind neighbour
    /// speculation and pure-LRU admission, reproducing predictor-less
    /// reports byte for byte.
    pub predictor: PredictorKind,
    /// Churn scenario: who arrives when, and for how long. With
    /// [`ChurnScenario::None`] (the default) the fleet skips the
    /// matchmaker entirely — every room gets the static full-duration
    /// roster, reproducing pre-churn reports byte for byte. Any other
    /// scenario hands a seeded arrival list to the matchmaker, whose
    /// [`crate::matchmaker::MatchPlan`] then decides room count, roster
    /// sizes and presence windows (so [`FleetConfig::rooms`] becomes
    /// the *provisioned* count — overflow can exceed it and unjoined
    /// rooms are dropped).
    pub churn: ChurnScenario,
    /// Placement policy for churned arrivals. Ignored (and
    /// byte-identity preserved) when `churn` is
    /// [`ChurnScenario::None`].
    pub policy: PlacementPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            rooms: 8,
            players: 2,
            games: vec![GameId::VikingVillage],
            duration_s: 10.0,
            seed: 7,
            shared_store: true,
            store_bytes: 256 * 1024 * 1024,
            store_shards: 16,
            egress_mbps: 2000.0,
            epoch_ms: 100.0,
            queue_depth: 32,
            size_samples: 8,
            net: NetScenario::None,
            predictor: PredictorKind::None,
            churn: ChurnScenario::None,
            policy: PlacementPolicy::FirstFit,
        }
    }
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Aggregated fleet metrics.
    pub metrics: FleetMetrics,
    /// Per-room detail, in room-id order.
    pub rooms: Vec<RoomReport>,
    /// Final store counters (summed across stores in isolated mode).
    pub store_stats: StoreStats,
}

// The pre-render farm's epoch-drain spans land on the checked
// `coterie_telemetry::FARM_TID` lane (under [`FLEET_PID`]), clearly
// apart from the per-room tick lanes.

/// The fleet runtime.
pub struct Fleet {
    config: FleetConfig,
    rooms: Vec<Room>,
    stores: Vec<Arc<dyn FrameStore>>,
    egress: FleetEgress,
    farm: PrerenderFarm,
    telemetry: TelemetrySink,
    /// The matchmaker's counters, `Some` only under churn.
    matchmaking: Option<MatchmakingMetrics>,
}

/// A room's presence windows — `(join_ms, leave_ms)` per slot — when
/// the roster comes from the matchmaker; `None` for static fleets.
type Presence = Option<Vec<(f64, f64)>>;

impl Fleet {
    /// Builds every room (in parallel — construction dominates) and
    /// provisions the store(s) and egress budget.
    ///
    /// # Panics
    ///
    /// Panics if the config has no rooms, no games, a non-positive
    /// duration or a zero store budget.
    pub fn new(config: FleetConfig) -> Self {
        Fleet::new_with_telemetry(config, TelemetrySink::disabled())
    }

    /// [`Fleet::new`] with an observation-only telemetry sink shared by
    /// every room: each displayed frame is attributed to its pipeline
    /// stages, the epoch loop and pre-render farm get their own spans,
    /// and [`FleetMetrics::telemetry`] carries the fleet-wide summary.
    /// With a disabled sink this is [`Fleet::new`] exactly — the run and
    /// its report are byte-identical.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Fleet::new`].
    pub fn new_with_telemetry(config: FleetConfig, telemetry: TelemetrySink) -> Self {
        assert!(config.rooms > 0, "fleet needs at least one room");
        assert!(!config.games.is_empty(), "fleet needs at least one game");
        assert!(config.duration_s > 0.0, "duration must be positive");
        // Matchmaking: under churn the matchmaker's plan decides the
        // room list — games, roster sizes and presence windows. Without
        // churn the plan path is *skipped entirely* (not run and
        // ignored), so static fleets stay byte-identical to
        // pre-matchmaker builds.
        let match_plan = (config.churn != ChurnScenario::None)
            .then(|| matchmaker::plan(&config, config.churn, config.policy));
        let room_params: Vec<(GameId, usize, Presence)> = match &match_plan {
            Some(plan) => {
                assert!(!plan.rooms.is_empty(), "churn produced no joined rooms");
                plan.rooms
                    .iter()
                    .map(|rp| (rp.game, rp.windows.len(), Some(rp.windows.clone())))
                    .collect()
            }
            None => (0..config.rooms)
                .map(|room_id| {
                    (
                        config.games[room_id % config.games.len()],
                        config.players,
                        None,
                    )
                })
                .collect(),
        };
        let n_rooms = room_params.len();
        let session_configs: Vec<(SessionConfig, Presence)> = room_params
            .into_iter()
            .enumerate()
            .map(|(room_id, (game, players, windows))| {
                let mut cfg = SessionConfig::new(game, SystemKind::coterie(), players)
                    .with_duration_s(config.duration_s)
                    // One world per (game, master seed)…
                    .with_seed(config.seed)
                    // …distinct movement per room.
                    .with_trace_seed(
                        config
                            .seed
                            .wrapping_add((room_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                    // The fault scenario applies fleet-wide; per-room
                    // channels still diverge via the trace seed.
                    .with_net(config.net);
                cfg.size_samples = config.size_samples.max(1);
                (cfg, windows)
            })
            .collect();
        // Parallel construction: rooms alternate between games, so the
        // chunks carry balanced build cost. Results come back in input
        // order, so parallelism cannot perturb room identity.
        let rooms: Vec<Room> = {
            let queue_depth = config.queue_depth;
            let indexed: Vec<(usize, SessionConfig, Presence)> = session_configs
                .into_iter()
                .enumerate()
                .map(|(id, (cfg, windows))| (id, cfg, windows))
                .collect();
            let predictor = config.predictor;
            par_map(&indexed, |(id, cfg, windows)| {
                let room = Room::new_with_telemetry(*id, *cfg, queue_depth, telemetry.clone())
                    .with_predictor(predictor);
                match windows {
                    Some(w) => room.with_presence(w),
                    None => room,
                }
            })
        };
        // Session-lifecycle telemetry: every planned join/leave gets a
        // zero-width span on the room's player lane, so a Chrome trace
        // of a churned fleet shows the roster turning over.
        if telemetry.is_enabled() {
            if let Some(plan) = &match_plan {
                for (i, rp) in plan.rooms.iter().enumerate() {
                    for (slot, &(join_ms, leave_ms)) in rp.windows.iter().enumerate() {
                        let track = TrackId {
                            pid: room_pid(i as u32),
                            tid: player_tid(slot as u32),
                        };
                        telemetry.span(
                            track,
                            Stage::Tick,
                            "player-join",
                            join_ms,
                            0.0,
                            slot as u64,
                        );
                        telemetry.span(
                            track,
                            Stage::Tick,
                            "player-leave",
                            leave_ms,
                            0.0,
                            slot as u64,
                        );
                    }
                }
            }
        }
        let store_config = |capacity_bytes: u64| StoreConfig {
            capacity_bytes,
            shards: config.store_shards,
            admission: config.predictor.admission(),
        };
        let stores: Vec<Arc<dyn FrameStore>> = if config.shared_store {
            vec![Arc::new(LocalStore::new(store_config(config.store_bytes))) as Arc<dyn FrameStore>]
        } else {
            let slice = (config.store_bytes / n_rooms as u64).max(1);
            (0..n_rooms)
                .map(|_| Arc::new(LocalStore::new(store_config(slice))) as Arc<dyn FrameStore>)
                .collect()
        };
        let egress = FleetEgress::new(config.egress_mbps);
        Fleet {
            config,
            rooms,
            stores,
            egress,
            farm: PrerenderFarm::new(),
            telemetry,
            matchmaking: match_plan.map(|p| p.metrics),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fleet's telemetry sink (disabled unless the fleet was built
    /// with [`Fleet::new_with_telemetry`]).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Runs every room to completion and aggregates the report.
    pub fn run(mut self) -> FleetReport {
        let epoch_ms = self.config.epoch_ms.max(1.0);
        let mut epoch = 0u64;
        while self.rooms.iter().any(|r| !r.finished()) {
            let start = epoch as f64 * epoch_ms;
            let end = (epoch + 1) as f64 * epoch_ms;
            for (i, room) in self.rooms.iter_mut().enumerate() {
                // Isolated mode has one store per room.
                let store_idx = if self.stores.len() == 1 { 0 } else { i };
                let tick_started = self.telemetry.is_enabled().then(std::time::Instant::now);
                room.tick(
                    end,
                    self.stores[store_idx].as_ref(),
                    store_idx,
                    &mut self.egress,
                    &mut self.farm,
                );
                if let Some(t0) = tick_started {
                    self.telemetry.span(
                        TrackId {
                            pid: FLEET_PID,
                            tid: room_tid(i as u32),
                        },
                        Stage::Tick,
                        "room-tick",
                        start,
                        t0.elapsed().as_secs_f64() * 1000.0,
                        epoch,
                    );
                }
            }
            // Epoch boundary: speculative renders land, controllers run.
            let store_refs: Vec<&dyn FrameStore> = self.stores.iter().map(|s| s.as_ref()).collect();
            let drain_started = self.telemetry.is_enabled().then(std::time::Instant::now);
            self.farm.drain_into(&store_refs);
            if let Some(t0) = drain_started {
                self.telemetry.span(
                    TrackId {
                        pid: FLEET_PID,
                        tid: FARM_TID,
                    },
                    Stage::Farm,
                    "farm-drain",
                    end,
                    t0.elapsed().as_secs_f64() * 1000.0,
                    epoch,
                );
            }
            if self.telemetry.is_enabled() {
                // Store-occupancy gauge, one sample per epoch: the
                // Chrome-trace "C" track showing fill and eviction churn.
                let occupancy: u64 = self.stores.iter().map(|s| s.bytes()).sum();
                self.telemetry.counter(
                    TrackId {
                        pid: FLEET_PID,
                        tid: FARM_TID,
                    },
                    "store-bytes",
                    end,
                    occupancy as f64,
                );
            }
            for room in &mut self.rooms {
                room.end_epoch();
            }
            epoch += 1;
        }
        let reports: Vec<RoomReport> = self.rooms.into_iter().map(Room::finish).collect();
        let store_stats = self
            .stores
            .iter()
            .map(|s| s.stats())
            .fold(StoreStats::default(), StoreStats::merged);
        let mut metrics = FleetMetrics::from_run(
            &reports,
            store_stats,
            &self.farm,
            self.config.duration_s,
            self.config.predictor,
        );
        // Budget-attribution summary — `None` when the sink is disabled,
        // keeping the default report (and its Display) bit-identical.
        metrics.telemetry = self.telemetry.summary();
        metrics.matchmaking = self.matchmaking;
        FleetReport {
            metrics,
            rooms: reports,
            store_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(rooms: usize, shared: bool) -> FleetConfig {
        FleetConfig {
            rooms,
            players: 2,
            duration_s: 4.0,
            shared_store: shared,
            size_samples: 4,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_runs_all_rooms_to_completion() {
        let report = Fleet::new(tiny(3, true)).run();
        assert_eq!(report.rooms.len(), 3);
        assert_eq!(report.metrics.rooms, 3);
        assert_eq!(report.metrics.players, 2);
        assert!(
            report.metrics.fps_p50 > 30.0,
            "p50 {}",
            report.metrics.fps_p50
        );
        assert!(report.metrics.fps_p99 <= report.metrics.fps_p50);
        assert!(report.metrics.egress_mbps > 0.0);
        assert!(report.metrics.prerender_gpu_hours > 0.0);
        assert!(report.metrics.peak_temperature_c > 0.0);
        for (i, room) in report.rooms.iter().enumerate() {
            assert_eq!(room.id, i);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = Fleet::new(tiny(3, true)).run();
        let b = Fleet::new(tiny(3, true)).run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.store_stats, b.store_stats);
        assert_eq!(format!("{}", a.metrics), format!("{}", b.metrics));
    }

    #[test]
    fn churned_fleet_runs_are_deterministic() {
        let cfg = FleetConfig {
            churn: ChurnScenario::Steady,
            ..tiny(2, true)
        };
        let a = Fleet::new(cfg.clone()).run();
        let b = Fleet::new(cfg).run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.store_stats, b.store_stats);
        assert_eq!(format!("{}", a.metrics), format!("{}", b.metrics));
        let mm = a
            .metrics
            .matchmaking
            .expect("churned runs report matchmaking");
        assert!(mm.arrivals > 0);
        assert!(
            format!("{}", a.metrics).contains("matchmaking"),
            "churned Display carries the matchmaking line"
        );
    }

    #[test]
    fn churn_none_is_byte_identical_to_static_fleet() {
        // `--churn none` must skip the plan path entirely: the report
        // (struct and Display) matches a config predating the
        // matchmaker, whatever the policy flag says.
        let static_run = Fleet::new(tiny(2, true)).run();
        let flagged = Fleet::new(FleetConfig {
            churn: ChurnScenario::None,
            policy: PlacementPolicy::Affinity,
            ..tiny(2, true)
        })
        .run();
        assert_eq!(static_run.metrics, flagged.metrics);
        assert_eq!(
            format!("{}", static_run.metrics),
            format!("{}", flagged.metrics)
        );
        assert!(static_run.metrics.matchmaking.is_none());
        assert!(!format!("{}", static_run.metrics).contains("matchmaking"));
    }

    #[test]
    fn affinity_policy_runs_under_flash_crowd() {
        let cfg = |policy| FleetConfig {
            churn: ChurnScenario::Flash,
            policy,
            ..tiny(2, true)
        };
        let ff = Fleet::new(cfg(PlacementPolicy::FirstFit)).run();
        let af = Fleet::new(cfg(PlacementPolicy::Affinity)).run();
        for report in [&ff, &af] {
            let mm = report.metrics.matchmaking.unwrap();
            assert!(mm.arrivals > 0);
            assert_eq!(mm.placed, mm.arrivals);
            assert!(report.metrics.fps_p50 > 30.0, "churned rooms still render");
        }
        assert_eq!(
            ff.metrics.matchmaking.unwrap().arrivals,
            af.metrics.matchmaking.unwrap().arrivals,
            "policies place the same arrival stream"
        );
    }

    #[test]
    fn shared_store_beats_isolated_stores() {
        let shared = Fleet::new(tiny(4, true)).run();
        let isolated = Fleet::new(tiny(4, false)).run();
        assert!(
            shared.metrics.store_hit_ratio > isolated.metrics.store_hit_ratio,
            "shared {:.4} vs isolated {:.4}",
            shared.metrics.store_hit_ratio,
            isolated.metrics.store_hit_ratio
        );
        assert!(
            shared.metrics.prerender_gpu_hours < isolated.metrics.prerender_gpu_hours,
            "shared {:.6} vs isolated {:.6} GPU-hours",
            shared.metrics.prerender_gpu_hours,
            isolated.metrics.prerender_gpu_hours
        );
    }

    #[test]
    fn lossy_fleet_reports_fi_recovery() {
        let config = FleetConfig {
            net: NetScenario::BurstLoss,
            ..tiny(2, true)
        };
        let report = Fleet::new(config).run();
        assert!(report.metrics.fi_syncs > 0);
        assert!(report.metrics.fi_retries > 0, "burst loss forces retries");
        assert!(report.metrics.fi_stale_frames > 0);
        let shown = format!("{}", report.metrics);
        assert!(shown.contains("\n  fi "), "lossy reports print FI lines");
        assert!(shown.contains("\n  desync "));
    }

    #[test]
    fn lossless_fleet_omits_fi_lines() {
        let report = Fleet::new(tiny(2, true)).run();
        assert_eq!(report.metrics.fi_syncs, 0);
        let shown = format!("{}", report.metrics);
        assert!(
            !shown.contains("\n  fi "),
            "lossless reports stay as before"
        );
    }

    #[test]
    fn telemetry_is_observation_only() {
        // The golden determinism guard: a `--net none` fleet report must
        // be byte-identical with telemetry enabled vs disabled once the
        // (None vs Some) telemetry fields themselves are stripped.
        use coterie_telemetry::{TelemetryConfig, TelemetrySink};
        let plain = Fleet::new(tiny(2, true)).run();
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let mut traced = Fleet::new_with_telemetry(tiny(2, true), sink.clone()).run();

        let summary = traced
            .metrics
            .telemetry
            .take()
            .expect("traced run summarizes");
        assert!(summary.frames > 0, "rooms must attribute frames");
        assert!(summary.spans_recorded > 0, "pipeline must emit spans");
        for room in &mut traced.rooms {
            let stats = room.telemetry.take().expect("traced rooms carry stats");
            assert!(stats.frames > 0);
        }
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(plain.store_stats, traced.store_stats);
        assert_eq!(format!("{}", plain.metrics), format!("{}", traced.metrics));
        for (a, b) in plain.rooms.iter().zip(&traced.rooms) {
            assert_eq!(a.session, b.session, "room {} diverged", a.id);
            assert_eq!(a.store_hits, b.store_hits);
            assert_eq!(a.store_misses, b.store_misses);
            assert_eq!(a.shipped_bytes, b.shipped_bytes);
        }
        assert!(plain.metrics.telemetry.is_none(), "untraced stays None");

        // The traced run's spans cover every instrumented subsystem.
        let spans = sink.spans_snapshot();
        for name in ["room-tick", "farm-drain", "transfer", "render-band"] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "missing {name} spans in {} recorded",
                spans.len()
            );
        }
        assert!(
            spans.iter().any(|s| s.name.starts_with("store-")),
            "missing store lookup spans"
        );
    }

    #[test]
    fn traced_summary_lands_in_display() {
        use coterie_telemetry::{TelemetryConfig, TelemetrySink};
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let report = Fleet::new_with_telemetry(tiny(1, true), sink).run();
        let shown = format!("{}", report.metrics);
        assert!(shown.contains("telemetry: "), "summary block: {shown}");
        assert!(shown.contains("  render "), "stage table: {shown}");
        assert!(shown.contains("  worst: "), "drilldown: {shown}");
    }

    #[test]
    fn mixed_games_stay_isolated_per_game() {
        let config = FleetConfig {
            games: vec![GameId::VikingVillage, GameId::Fps],
            ..tiny(2, true)
        };
        let report = Fleet::new(config).run();
        assert_eq!(report.rooms[0].game, GameId::VikingVillage);
        assert_eq!(report.rooms[1].game, GameId::Fps);
        // Both rooms must still complete with healthy FPS.
        assert!(report.metrics.fps_p99 > 30.0);
    }
}
