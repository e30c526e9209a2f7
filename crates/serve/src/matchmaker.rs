//! The matchmaker: capacity-aware placement of arrivals into rooms.
//!
//! Given the [churn engine's](crate::churn) arrival list, the
//! matchmaker decides *which room* every player lands in and *when* —
//! producing a [`MatchPlan`] of per-room rosters (presence windows) the
//! fleet installs before the epoch loop starts. Placement runs at plan
//! time, before any room is built, so the epoch loop stays the pure
//! seed-deterministic function it has always been: churn perturbs the
//! plan, never the replay.
//!
//! Two policies:
//!
//! * [`PlacementPolicy::FirstFit`] — the lowest-id room of the right
//!   game with a free seat. This is what the static fleet effectively
//!   did, and the baseline the affinity policy is measured against.
//! * [`PlacementPolicy::Affinity`] — scores every candidate room by the
//!   predicted *pose overlap* between the arriving player's spawn point
//!   and the current members' predicted positions (via
//!   [`PosePredictor::occupancy`]), weighted by remaining capacity.
//!   Coterie's whole economy is frame reuse between nearby players
//!   (§3 of the paper): packing players who will *look at the same
//!   things* into the same room raises the shared-store hit ratio that
//!   first-fit leaves on the table.
//!
//! When no room of the requested game has a seat, the arrival is
//! *queued* — deferred to the earliest seat release, if that wait is
//! short — or an *overflow room* is spawned. Both are counted in
//! [`MatchmakingMetrics`], which lands in the fleet report so the two
//! policies can be compared per churn scenario.

use crate::churn::{generate_arrivals, Arrival, ChurnScenario};
use crate::fleet::FleetConfig;
use crate::predict::{PosePredictor, PredictorKind};
use coterie_world::{scene_hotspots, GameId, GameSpec, Scene, Trace, TraceSet, Vec2};
use std::fmt;

/// How the matchmaker picks among candidate rooms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest-id room with a free seat (the static fleet's implicit
    /// policy; the default).
    FirstFit,
    /// Highest predicted leaf-region overlap with current members,
    /// weighted by remaining capacity.
    Affinity,
}

impl PlacementPolicy {
    /// Every policy, in CLI/report order.
    pub const ALL: [PlacementPolicy; 2] = [PlacementPolicy::FirstFit, PlacementPolicy::Affinity];

    /// Parses a CLI name (`first-fit`, `affinity`).
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        PlacementPolicy::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// The CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Affinity => "affinity",
        }
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One planned room: its game and the roster's presence windows.
///
/// The roster may be *larger* than the per-room seat count — players
/// rotate through seats over the run — but concurrent occupancy never
/// exceeds [`FleetConfig::players`] (enforced at plan time).
#[derive(Debug, Clone, PartialEq)]
pub struct RoomPlan {
    /// The game this room hosts.
    pub game: GameId,
    /// One `(join_ms, leave_ms)` presence window per roster slot.
    pub windows: Vec<(f64, f64)>,
    /// `true` if the matchmaker spawned this room beyond the
    /// provisioned count to absorb overflow.
    pub overflow: bool,
}

/// Matchmaking counters for the fleet report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchmakingMetrics {
    /// The placement policy that ran.
    pub policy: PlacementPolicy,
    /// The churn scenario that generated the arrivals.
    pub scenario: ChurnScenario,
    /// Total arrivals the churn engine generated.
    pub arrivals: u64,
    /// Arrivals placed into a room (always all of them today — the
    /// overflow path never drops).
    pub placed: u64,
    /// Arrivals that waited in the admission queue for a seat.
    pub queued: u64,
    /// Rooms spawned beyond the provisioned count.
    pub overflow_rooms: u64,
    /// Mean admission-queue wait over *all* placed arrivals, ms.
    pub mean_wait_ms: f64,
}

impl fmt::Display for MatchmakingMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy={} scenario={} arrivals={} placed={} queued={} overflow-rooms={} mean-wait={:.1}ms",
            self.policy,
            self.scenario,
            self.arrivals,
            self.placed,
            self.queued,
            self.overflow_rooms,
            self.mean_wait_ms
        )
    }
}

/// The matchmaker's output: final room list plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchPlan {
    /// Rooms with at least one roster slot, provisioned rooms first (in
    /// id order), overflow rooms after. Rooms no arrival ever joined
    /// are dropped.
    pub rooms: Vec<RoomPlan>,
    /// Placement counters.
    pub metrics: MatchmakingMetrics,
}

/// Roster slots per room, as a multiple of the concurrent seat count.
/// Bounds per-room state; beyond it the room stops taking arrivals.
const ROSTER_CAP_SEATS: usize = 4;

/// Probe-trace sampling interval for affinity scoring, seconds. Coarser
/// than the 60 Hz session traces — scoring needs positions, not frames.
const PROBE_INTERVAL_S: f64 = 0.1;

/// Pose-observation spacing fed to the predictor before scoring, ms.
const OBSERVE_SPACING_MS: f64 = 100.0;

struct RoomSlot {
    game_idx: usize,
    windows: Vec<(f64, f64)>,
    overflow: bool,
}

impl RoomSlot {
    /// Players present at time `t` (window starts are inclusive).
    fn occupancy(&self, t: f64) -> usize {
        self.windows
            .iter()
            .filter(|&&(s, e)| s <= t && t < e)
            .count()
    }
}

/// Lazily-built scoring state for the affinity policy: one scene per
/// game, one probe [`TraceSet`] per room.
struct AffinityProbes {
    players: usize,
    duration_s: f64,
    seed: u64,
    games: Vec<Option<(Scene, GameSpec, Vec<Vec2>)>>,
    traces: Vec<Option<TraceSet>>,
}

impl AffinityProbes {
    fn game(&mut self, config: &FleetConfig, game_idx: usize) -> &(Scene, GameSpec, Vec<Vec2>) {
        if self.games[game_idx].is_none() {
            let spec = GameSpec::for_game(config.games[game_idx]);
            let scene = spec.build_scene(self.seed);
            let hotspots = scene_hotspots(&scene);
            self.games[game_idx] = Some((scene, spec, hotspots));
        }
        self.games[game_idx].as_ref().unwrap()
    }

    fn trace_set(&mut self, config: &FleetConfig, room_id: usize, game_idx: usize) -> &TraceSet {
        if room_id >= self.traces.len() {
            self.traces.resize_with(room_id + 1, || None);
        }
        if self.traces[room_id].is_none() {
            let players = self.players;
            let duration_s = self.duration_s;
            // Same per-room trace-seed derivation the fleet uses, so
            // the probe approximates the movement the room will replay.
            let trace_seed = self
                .seed
                .wrapping_add((room_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (scene, spec, _) = self.game(config, game_idx);
            let set = TraceSet::generate(
                scene,
                spec,
                players,
                duration_s,
                PROBE_INTERVAL_S,
                trace_seed,
            );
            self.traces[room_id] = Some(set);
        }
        self.traces[room_id].as_ref().unwrap()
    }
}

/// Nearest-sample position on a probe trace at simulated time `t_ms`.
fn probe_position(trace: &Trace, t_ms: f64) -> Vec2 {
    let pts = trace.points();
    let interval_ms = trace.interval().max(1e-9) * 1000.0;
    let idx = ((t_ms / interval_ms) as usize).min(pts.len().saturating_sub(1));
    pts[idx].position
}

/// Predicted-overlap score of placing `arrival` into room `room_id`:
/// the [`PosePredictor::occupancy`] of the current members' predicted
/// positions around the arrival's spawn point, weighted by remaining
/// seats. Higher = better.
fn affinity_score(
    probes: &mut AffinityProbes,
    config: &FleetConfig,
    room_id: usize,
    room: &RoomSlot,
    arrival: &Arrival,
    at_ms: f64,
    free_seats: usize,
) -> f64 {
    let radius = {
        let (scene, _, _) = probes.game(config, arrival.game_idx);
        scene.grid().spacing() * 4.0
    };
    let hotspots = probes.game(config, arrival.game_idx).2.clone();
    let n_probe = probes.players.max(1);
    let members: Vec<usize> = room
        .windows
        .iter()
        .enumerate()
        .filter(|&(_, &(s, e))| s <= at_ms && at_ms < e)
        .map(|(slot, _)| slot)
        .collect();
    let spawn = {
        let set = probes.trace_set(config, room_id, room.game_idx);
        let slot = room.windows.len() % n_probe;
        probe_position(&set.traces()[slot], at_ms)
    };
    let mut predictor =
        PosePredictor::new(PredictorKind::Cv, hotspots).expect("Cv predictor always constructs");
    {
        let set = probes.trace_set(config, room_id, room.game_idx);
        for (i, &slot) in members.iter().enumerate() {
            let trace = &set.traces()[slot % n_probe];
            let t_prev = (at_ms - OBSERVE_SPACING_MS).max(0.0);
            predictor.observe(i, t_prev, probe_position(trace, t_prev));
            predictor.observe(i, at_ms, probe_position(trace, at_ms));
        }
    }
    let horizon = PosePredictor::horizon_ms(4);
    let overlap = predictor.occupancy(spawn, horizon, radius);
    // An empty room scores pure capacity (tiny epsilon overlap) so
    // affinity still spreads load when nothing is predictable yet.
    (overlap + 1e-3) * free_seats as f64
}

/// Runs the full plan: generate arrivals, place them, compact rooms.
///
/// [`ChurnScenario::None`] is rejected by assertion — the fleet skips
/// the plan path entirely in that case (byte-identity with pre-churn
/// fleets is preserved by *not running* the matchmaker, not by relying
/// on it being a no-op).
pub fn plan(config: &FleetConfig, scenario: ChurnScenario, policy: PlacementPolicy) -> MatchPlan {
    assert!(
        scenario != ChurnScenario::None,
        "ChurnScenario::None has no plan; the fleet takes the static path"
    );
    let duration_ms = config.duration_s * 1000.0;
    let capacity = config.players.max(1);
    let roster_cap = capacity * ROSTER_CAP_SEATS;
    // Queue-wait threshold: a tenth of the run, capped at 3 s — longer
    // than that and the player would rather be in a fresh room.
    let max_wait_ms = (duration_ms * 0.1).min(3_000.0);
    let arrivals = generate_arrivals(
        scenario,
        config.rooms * capacity,
        config.games.len(),
        duration_ms,
        config.seed,
    );
    let mut rooms: Vec<RoomSlot> = (0..config.rooms)
        .map(|i| RoomSlot {
            game_idx: i % config.games.len(),
            windows: Vec::new(),
            overflow: false,
        })
        .collect();
    let mut probes = AffinityProbes {
        players: capacity,
        duration_s: config.duration_s,
        seed: config.seed,
        games: vec![None; config.games.len()],
        traces: Vec::new(),
    };
    let mut queued = 0u64;
    let mut total_wait_ms = 0.0f64;
    let mut overflow_rooms = 0u64;
    for arrival in &arrivals {
        let t = arrival.at_ms;
        let candidates: Vec<usize> = rooms
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.game_idx == arrival.game_idx
                    && r.windows.len() < roster_cap
                    && r.occupancy(t) < capacity
            })
            .map(|(i, _)| i)
            .collect();
        let pick = match policy {
            PlacementPolicy::FirstFit => candidates.first().copied(),
            PlacementPolicy::Affinity => candidates
                .iter()
                .map(|&i| {
                    let free = capacity - rooms[i].occupancy(t);
                    let score = affinity_score(&mut probes, config, i, &rooms[i], arrival, t, free);
                    (i, score)
                })
                // Strict `>` keeps the lowest index on ties, matching
                // first-fit's determinism.
                .fold(None::<(usize, f64)>, |best, cur| match best {
                    Some((_, bs)) if bs >= cur.1 => best,
                    _ => Some(cur),
                })
                .map(|(i, _)| i),
        };
        let (room_id, join_ms) = match pick {
            Some(i) => (i, t),
            None => {
                // Admission queue: defer to the earliest seat release
                // among same-game rooms, if the wait is short enough.
                let release = rooms
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.game_idx == arrival.game_idx && r.windows.len() < roster_cap)
                    .filter_map(|(i, r)| {
                        r.windows
                            .iter()
                            .map(|&(_, e)| e)
                            .filter(|&e| e > t && e < duration_ms && r.occupancy(e) < capacity)
                            .fold(None::<f64>, |m, e| {
                                Some(m.map_or(e, |m| if e < m { e } else { m }))
                            })
                            .map(|e| (i, e))
                    })
                    .fold(None::<(usize, f64)>, |best, (i, e)| match best {
                        Some((_, be)) if be <= e => best,
                        _ => Some((i, e)),
                    });
                match release {
                    Some((i, e)) if e - t <= max_wait_ms => {
                        queued += 1;
                        total_wait_ms += e - t;
                        (i, e)
                    }
                    _ => {
                        rooms.push(RoomSlot {
                            game_idx: arrival.game_idx,
                            windows: Vec::new(),
                            overflow: true,
                        });
                        overflow_rooms += 1;
                        (rooms.len() - 1, t)
                    }
                }
            }
        };
        let end_ms = (join_ms + arrival.session_ms).min(duration_ms);
        rooms[room_id].windows.push((join_ms, end_ms));
    }
    let placed = arrivals.len() as u64;
    let room_plans: Vec<RoomPlan> = rooms
        .into_iter()
        .filter(|r| !r.windows.is_empty())
        .map(|r| RoomPlan {
            game: config.games[r.game_idx],
            windows: r.windows,
            overflow: r.overflow,
        })
        .collect();
    MatchPlan {
        rooms: room_plans,
        metrics: MatchmakingMetrics {
            policy,
            scenario,
            arrivals: placed,
            placed,
            queued,
            overflow_rooms,
            mean_wait_ms: if placed == 0 {
                0.0
            } else {
                total_wait_ms / placed as f64
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rooms: usize, players: usize) -> FleetConfig {
        FleetConfig {
            rooms,
            players,
            duration_s: 8.0,
            ..FleetConfig::default()
        }
    }

    /// Max concurrent occupancy over a room's windows. Occupancy only
    /// changes at window starts, so checking each start suffices.
    fn peak_occupancy(room: &RoomPlan) -> usize {
        room.windows
            .iter()
            .map(|&(s, _)| {
                room.windows
                    .iter()
                    .filter(|&&(s2, e2)| s2 <= s && s < e2)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn plans_are_deterministic() {
        for policy in PlacementPolicy::ALL {
            let a = plan(&cfg(4, 2), ChurnScenario::Steady, policy);
            let b = plan(&cfg(4, 2), ChurnScenario::Steady, policy);
            assert_eq!(a, b, "{policy} plan must be deterministic");
            assert!(a.metrics.arrivals > 0);
            assert_eq!(a.metrics.placed, a.metrics.arrivals, "nothing is dropped");
        }
    }

    #[test]
    fn concurrency_never_exceeds_capacity() {
        for scenario in [
            ChurnScenario::Steady,
            ChurnScenario::Flash,
            ChurnScenario::DayCurve,
        ] {
            for policy in PlacementPolicy::ALL {
                let p = plan(&cfg(3, 2), scenario, policy);
                for (i, room) in p.rooms.iter().enumerate() {
                    assert!(
                        peak_occupancy(room) <= 2,
                        "{scenario}/{policy} room {i} over capacity"
                    );
                    assert!(!room.windows.is_empty(), "empty rooms are dropped");
                    for &(s, e) in &room.windows {
                        assert!(s < e, "windows are non-degenerate");
                        assert!(e <= 8_000.0, "windows end inside the run");
                    }
                }
            }
        }
    }

    #[test]
    fn flash_crowd_spawns_overflow_rooms() {
        let p = plan(&cfg(2, 2), ChurnScenario::Flash, PlacementPolicy::FirstFit);
        assert!(
            p.metrics.overflow_rooms > 0,
            "a capacity-sized burst on one game must overflow: {:?}",
            p.metrics
        );
        assert_eq!(
            p.rooms.iter().filter(|r| r.overflow).count() as u64,
            p.metrics.overflow_rooms
        );
    }

    #[test]
    fn queueing_accrues_wait_time() {
        // Steady churn on a tiny fleet keeps seats contended; some
        // arrival should ride the admission queue.
        let mut found = false;
        for seed in 0..6 {
            let config = FleetConfig { seed, ..cfg(2, 2) };
            let p = plan(&config, ChurnScenario::Steady, PlacementPolicy::FirstFit);
            if p.metrics.queued > 0 {
                assert!(p.metrics.mean_wait_ms > 0.0);
                found = true;
                break;
            }
        }
        assert!(found, "no seed produced a queued arrival");
    }

    #[test]
    fn affinity_and_first_fit_diverge() {
        let config = cfg(4, 2);
        let ff = plan(&config, ChurnScenario::Steady, PlacementPolicy::FirstFit);
        let af = plan(&config, ChurnScenario::Steady, PlacementPolicy::Affinity);
        assert_eq!(ff.metrics.arrivals, af.metrics.arrivals);
        assert_ne!(
            ff.rooms, af.rooms,
            "policies should produce different placements on a contended fleet"
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in PlacementPolicy::ALL {
            assert_eq!(PlacementPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(PlacementPolicy::parse("bogus"), None);
    }
}
