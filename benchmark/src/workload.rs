//! The four workloads: who plays, along which paths, for how long.
//!
//! Frame reuse depends on how far consecutive poses move and on how
//! much of a path other players share, so the workloads vary path
//! overlap and working-set size against the program's own caches (the
//! 64 MiB store budget, the 4 096-entry payload FIFO) rather than the
//! client count. Every input derives from `--seed`; the program
//! receives only the generated poses.

use coterie_world::{GameId, GameSpec, Scene, Trajectory};

/// Display interval the paced phase schedules against, ms.
pub const FRAME_INTERVAL_MS: f64 = 16.7;
/// Poses per second one 16.7 ms session sends.
pub const SESSION_HZ: f64 = 1000.0 / FRAME_INTERVAL_MS;
/// Game every workload plays.
pub const GAME: GameId = GameId::VikingVillage;
/// `run_seconds` in `BENCHMARK.json`; the frozen pose counts below are
/// sized for it and scale linearly with `--seconds`.
pub const DEFAULT_SECONDS: u64 = 20;
/// Share of `--seconds` the paced phase lasts; saturate gets the rest.
pub const PACED_SHARE: f64 = 0.4;

/// One pose as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    pub x: f64,
    pub z: f64,
    pub yaw: f64,
}

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PartyWarm,
    RoamCold,
    StoreFull,
    FramePipeline,
}

/// A workload's frozen shape. Player and pose counts were fixed at the
/// seed commit by the rule in `README.md` and do not change per commit.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Players (socket workloads) or independent paths whose poses
    /// are interleaved (pipeline) — frozen.
    pub players: usize,
    /// Store byte budget; `None` keeps `ServerConfig::default()`.
    pub store_bytes: Option<u64>,
    /// Closed-loop poses per player in the saturate phase (pipeline:
    /// poses in the whole run) at [`DEFAULT_SECONDS`] — frozen.
    pub closed_poses: u64,
}

/// Length of the looped party lap, poses.
pub const PARTY_LAP: usize = 600;
/// Players per party (the paper's four-player sessions).
pub const PARTY_SIZE: usize = 4;
/// Upper bound on `store_full`'s fill, poses per player; the fill
/// normally stops near 5 000 when the store reports 99 % of budget.
pub const FILL_CAP: u64 = 12_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::PartyWarm,
        name: "party_warm",
        players: 64,
        store_bytes: None,
        closed_poses: 39_000,
    },
    Workload {
        kind: Kind::RoamCold,
        name: "roam_cold",
        players: 48,
        store_bytes: Some(1 << 30),
        closed_poses: 2_250,
    },
    Workload {
        kind: Kind::StoreFull,
        name: "store_full",
        players: 4,
        store_bytes: None,
        closed_poses: 1_700,
    },
    Workload {
        kind: Kind::FramePipeline,
        name: "frame_pipeline",
        players: 8,
        store_bytes: None,
        closed_poses: 4_000,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How long each phase of one run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Warm-up poses per player (closed loop, set-up). `store_full`
    /// treats this as a cap and stops when the store is full.
    pub warm_poses: u64,
    /// Paced poses per player.
    pub paced_poses: u64,
    /// Closed-loop poses per player (pipeline: total poses).
    pub closed_poses: u64,
    /// Store byte budget (smoke shrinks `store_full`'s so its fill
    /// takes a fraction of a second).
    pub store_bytes: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Workload {
    /// Phase lengths for a run of `seconds`. A traced pass measures
    /// windows a third as long; `smoke` shrinks everything to a schema
    /// and checks pass.
    pub fn sizing(&self, seconds: u64, traced: bool, smoke: bool) -> Sizing {
        let store_bytes = self
            .store_bytes
            .unwrap_or(coterie_server::ServerConfig::default().store_bytes);
        if smoke {
            return Sizing {
                warm_poses: match self.kind {
                    Kind::PartyWarm => PARTY_LAP as u64,
                    Kind::StoreFull => FILL_CAP,
                    _ => 30,
                },
                paced_poses: 20,
                closed_poses: match self.kind {
                    Kind::PartyWarm => 200,
                    _ => 40,
                },
                store_bytes: match self.kind {
                    Kind::StoreFull => 1 << 20,
                    _ => store_bytes,
                },
                setup_reps: 1,
            };
        }
        let window = if traced { 1.0 / 3.0 } else { 1.0 };
        let scale = seconds as f64 / DEFAULT_SECONDS as f64 * window;
        let paced_s = seconds as f64 * PACED_SHARE * window;
        Sizing {
            warm_poses: match self.kind {
                Kind::PartyWarm => PARTY_LAP as u64,
                Kind::RoamCold => 60,
                Kind::StoreFull => FILL_CAP,
                Kind::FramePipeline => 48,
            },
            paced_poses: (paced_s * SESSION_HZ).round().max(1.0) as u64,
            closed_poses: ((self.closed_poses as f64 * scale).round() as u64).max(1),
            store_bytes,
            setup_reps: 5,
        }
    }
}

/// One player's pose stream: a finite roam, or a lap replayed from a
/// phase offset for ever.
#[derive(Debug, Clone)]
pub struct PlayerPath {
    poses: std::sync::Arc<Vec<Pose>>,
    phase: usize,
    looped: bool,
}

impl PlayerPath {
    /// The player's `i`-th pose.
    ///
    /// # Panics
    ///
    /// Panics past the end of a finite path — the sizing that asked
    /// for more poses than it generated is a bug.
    pub fn pose(&self, i: u64) -> Pose {
        let i = i as usize + self.phase;
        if self.looped {
            self.poses[i % self.poses.len()]
        } else {
            self.poses[i]
        }
    }
}

fn sample(traj: &Trajectory, n: u64) -> Vec<Pose> {
    (0..n)
        .map(|i| {
            let t = i as f64 * FRAME_INTERVAL_MS / 1000.0;
            let p = traj.position(t);
            Pose {
                x: p.x,
                z: p.z,
                yaw: traj.heading(t),
            }
        })
        .collect()
}

/// An independent roam of `n` poses: a party of one, so no path is
/// derived from another player's.
fn roam(scene: &Scene, spec: &GameSpec, n: u64, seed: u64) -> Vec<Pose> {
    let duration = (n as f64 * FRAME_INTERVAL_MS / 1000.0).max(1.0);
    sample(&Trajectory::generate(scene, spec, 0, 1, duration, seed), n)
}

/// Per-player trajectory seed: distinct for every `(seed, player)`.
fn player_seed(seed: u64, player: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(player as u64)
}

/// The pose streams of every player of `workload`, `poses_each` long
/// where finite.
pub fn player_paths(
    workload: &Workload,
    scene: &Scene,
    spec: &GameSpec,
    poses_each: u64,
    seed: u64,
) -> Vec<PlayerPath> {
    match workload.kind {
        Kind::PartyWarm => {
            // Four party paths, one lap each; room r replays them from
            // a phase offset, so all rooms share 4 × 600 poses.
            let lap_s = PARTY_LAP as f64 * FRAME_INTERVAL_MS / 1000.0;
            let laps: Vec<_> = (0..PARTY_SIZE)
                .map(|j| {
                    let traj = Trajectory::generate(scene, spec, j, PARTY_SIZE, lap_s, seed);
                    std::sync::Arc::new(sample(&traj, PARTY_LAP as u64))
                })
                .collect();
            let rooms = workload.players.div_ceil(PARTY_SIZE);
            (0..workload.players)
                .map(|k| PlayerPath {
                    poses: laps[k % PARTY_SIZE].clone(),
                    phase: (k / PARTY_SIZE) * PARTY_LAP / rooms,
                    looped: true,
                })
                .collect()
        }
        Kind::RoamCold | Kind::StoreFull | Kind::FramePipeline => (0..workload.players)
            .map(|k| PlayerPath {
                poses: std::sync::Arc::new(roam(scene, spec, poses_each, player_seed(seed, k))),
                phase: 0,
                looped: false,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (GameSpec, Scene) {
        let spec = GameSpec::for_game(GAME);
        let scene = spec.build_scene(42);
        (spec, scene)
    }

    #[test]
    fn same_seed_same_poses_and_other_seed_other_poses() {
        let (spec, scene) = world();
        let w = by_name("roam_cold").unwrap();
        let a = player_paths(&w, &scene, &spec, 50, 7);
        let b = player_paths(&w, &scene, &spec, 50, 7);
        let c = player_paths(&w, &scene, &spec, 50, 8);
        for k in 0..w.players {
            for i in 0..50 {
                assert_eq!(a[k].pose(i), b[k].pose(i));
            }
        }
        assert!((0..50).any(|i| a[1].pose(i) != c[1].pose(i)));
        // Independent paths: two players of one seed differ too.
        assert!((0..50).any(|i| a[0].pose(i) != a[1].pose(i)));
    }

    #[test]
    fn party_rooms_share_one_working_set() {
        let (spec, scene) = world();
        let w = by_name("party_warm").unwrap();
        let paths = player_paths(&w, &scene, &spec, 0, 3);
        assert_eq!(paths.len(), 64);
        // Room 1's first player replays room 0's first player, shifted.
        let shift = PARTY_LAP as u64 / 16;
        for i in [0u64, 5, 599, 600, 1234] {
            assert_eq!(paths[4].pose(i), paths[0].pose(i + shift));
        }
        // The lap loops.
        assert_eq!(paths[0].pose(0), paths[0].pose(PARTY_LAP as u64));
    }

    #[test]
    fn traced_windows_are_a_third_and_counts_scale_with_seconds() {
        let w = by_name("roam_cold").unwrap();
        let full = w.sizing(DEFAULT_SECONDS, false, false);
        let traced = w.sizing(DEFAULT_SECONDS, true, false);
        let half = w.sizing(DEFAULT_SECONDS / 2, false, false);
        assert_eq!(full.closed_poses, w.closed_poses);
        assert_eq!(full.paced_poses, 479);
        assert_eq!(traced.paced_poses, 160);
        assert_eq!(half.closed_poses, w.closed_poses / 2);
    }
}
