//! Player movement generators.
//!
//! The caching results in the paper depend on movement *statistics* —
//! players re-visit nearby (but never exactly identical) locations, racers
//! share a track without sharing a path, adventure parties follow each
//! other closely (§4.1, §4.6). These generators reproduce those statistics
//! with seeded randomness.

use crate::games::{GameGenre, GameSpec};
use crate::noise::{fbm, SmallRng};
use crate::scene::Scene;
use crate::vec::Vec2;

/// The movement archetype used for a player.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrajectoryKind {
    /// Follow the closed racing track with lane jitter (racing games).
    Track,
    /// Random-waypoint roaming over the reachable area (shooters).
    Roam,
    /// Trail a leader with a small offset (group adventure).
    FollowLeader,
    /// Small movements around a home spot (indoor static sports).
    Station,
}

impl TrajectoryKind {
    /// Default archetype for a genre.
    pub fn for_genre(genre: GameGenre) -> TrajectoryKind {
        match genre {
            GameGenre::RacingChasing => TrajectoryKind::Track,
            GameGenre::CompetingShooting => TrajectoryKind::Roam,
            GameGenre::GroupAdventure => TrajectoryKind::FollowLeader,
            GameGenre::StaticSports => TrajectoryKind::Station,
        }
    }
}

/// Why a trajectory could not be generated for a scene/spec pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryError {
    /// A [`TrajectoryKind::Track`] trajectory was requested for a scene
    /// whose reachable area is not a track (e.g. a racing spec paired
    /// with a scene built from an open-world spec).
    MissingTrack,
}

impl std::fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajectoryError::MissingTrack => {
                write!(f, "track trajectory requires a scene with a track")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A continuous-time movement path, stored as piecewise-linear knots.
///
/// ```
/// use coterie_world::{GameId, GameSpec, Trajectory};
/// let spec = GameSpec::for_game(GameId::Fps);
/// let scene = spec.build_scene(1);
/// let traj = Trajectory::generate(&scene, &spec, 0, 1, 60.0, 42);
/// let p0 = traj.position(0.0);
/// let p1 = traj.position(30.0);
/// assert!(scene.bounds().contains(p0));
/// assert!(scene.bounds().contains(p1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Knots as `(time_seconds, position)`; times strictly increasing.
    knots: Vec<(f64, Vec2)>,
    kind: TrajectoryKind,
}

impl Trajectory {
    /// Generates the movement of `player` (0-based, out of `n_players`)
    /// for `duration` seconds of play in `scene`.
    ///
    /// Multiplayer proximity follows the genre: racers circulate the same
    /// track staggered by a couple of seconds; adventure parties trail a
    /// common leader path; shooters roam around shared hotspots.
    ///
    /// If the genre asks for a track trajectory but the scene has no
    /// track (a mismatched scene/spec pairing), the player falls back
    /// to roaming the reachable area instead of failing; use
    /// [`Trajectory::try_generate`] to detect that mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive or `player >= n_players`.
    pub fn generate(
        scene: &Scene,
        spec: &GameSpec,
        player: usize,
        n_players: usize,
        duration: f64,
        seed: u64,
    ) -> Trajectory {
        Trajectory::try_generate(scene, spec, player, n_players, duration, seed).unwrap_or_else(
            |TrajectoryError::MissingTrack| {
                // Documented fallback: roam the reachable area with the
                // same seed so the result stays deterministic.
                let knots = roam_knots(scene, spec, player, duration, seed);
                Trajectory {
                    knots,
                    kind: TrajectoryKind::Roam,
                }
            },
        )
    }

    /// Like [`Trajectory::generate`], but reports a scene/spec mismatch
    /// instead of silently falling back.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::MissingTrack`] when the genre requires
    /// a [`TrajectoryKind::Track`] trajectory and the scene's reachable
    /// area is not a track.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive or `player >= n_players`.
    pub fn try_generate(
        scene: &Scene,
        spec: &GameSpec,
        player: usize,
        n_players: usize,
        duration: f64,
        seed: u64,
    ) -> Result<Trajectory, TrajectoryError> {
        assert!(duration > 0.0, "duration must be positive");
        assert!(player < n_players.max(1), "player index out of range");
        let kind = TrajectoryKind::for_genre(spec.genre);
        let knots = match kind {
            TrajectoryKind::Track => track_knots(scene, spec, player, duration, seed)?,
            TrajectoryKind::Roam => roam_knots(scene, spec, player, duration, seed),
            TrajectoryKind::FollowLeader => follow_knots(scene, spec, player, duration, seed),
            TrajectoryKind::Station => station_knots(scene, spec, player, duration, seed),
        };
        Ok(Trajectory { knots, kind })
    }

    /// Movement archetype of this trajectory.
    pub fn kind(&self) -> TrajectoryKind {
        self.kind
    }

    /// Total covered duration in seconds.
    pub fn duration(&self) -> f64 {
        self.knots.last().map(|k| k.0).unwrap_or(0.0)
    }

    /// Position at time `t` seconds (clamped to the covered range).
    pub fn position(&self, t: f64) -> Vec2 {
        match self.knots.len() {
            0 => Vec2::ZERO,
            1 => self.knots[0].1,
            _ => {
                let t = t.clamp(self.knots[0].0, self.duration());
                // Binary search for the bracketing knot pair.
                let idx = self
                    .knots
                    .partition_point(|k| k.0 <= t)
                    .clamp(1, self.knots.len() - 1);
                let (t0, p0) = self.knots[idx - 1];
                let (t1, p1) = self.knots[idx];
                if t1 <= t0 {
                    p0
                } else {
                    p0.lerp(p1, (t - t0) / (t1 - t0))
                }
            }
        }
    }

    /// Heading (radians, renderer azimuth convention) at time `t`,
    /// estimated from local motion.
    pub fn heading(&self, t: f64) -> f64 {
        let dt = 0.05;
        let a = self.position(t);
        let b = self.position(t + dt);
        let d = b - a;
        if d.length() < 1e-9 {
            0.0
        } else {
            d.heading()
        }
    }

    /// Velocity (m/s) at time `t`, estimated by central finite
    /// difference over the same window [`Trajectory::heading`] uses.
    /// Zero at rest and outside the covered range (positions clamp).
    pub fn velocity(&self, t: f64) -> Vec2 {
        let dt = 0.05;
        let a = self.position((t - dt).max(0.0));
        let b = self.position(t + dt);
        let span = (t + dt) - (t - dt).max(0.0);
        if span <= 0.0 {
            Vec2::ZERO
        } else {
            (b - a) / span
        }
    }
}

/// The shared attention hotspots of a scene — capture points and
/// chokepoints that every session hosted in the same world fights over.
/// These are a *map* feature: they derive from the world layout hash,
/// not from any movement seed, so a fleet-side pose predictor can
/// reconstruct exactly the attractors [`Trajectory`] roaming converges
/// toward without knowing per-player seeds (the viewport-pose-model
/// observation that head/body motion decays toward scene salience).
pub fn scene_hotspots(scene: &Scene) -> Vec<Vec2> {
    let bounds = scene.bounds();
    let mut shared = SmallRng::new(scene.layout_hash() ^ 0x5A5A);
    let hotspot_count = 5usize;
    (0..hotspot_count)
        .map(|_| {
            Vec2::new(
                shared.range(bounds.width() * 0.15, bounds.width() * 0.85),
                shared.range(bounds.depth() * 0.15, bounds.depth() * 0.85),
            )
        })
        .collect()
}

fn track_knots(
    scene: &Scene,
    spec: &GameSpec,
    player: usize,
    duration: f64,
    seed: u64,
) -> Result<Vec<(f64, Vec2)>, TrajectoryError> {
    // The track belongs to the scene: read it from the reachable area so
    // trajectories always drive the same track the scene was built with.
    let (centerline, scene_half_width) = match scene.reachable() {
        crate::scene::ReachableArea::Track {
            centerline,
            half_width,
        } => (centerline.clone(), *half_width),
        _ => return Err(TrajectoryError::MissingTrack),
    };
    let n = centerline.len();
    // Arc lengths around the loop.
    let mut cum = Vec::with_capacity(n + 1);
    cum.push(0.0);
    for i in 0..n {
        let a = centerline[i];
        let b = centerline[(i + 1) % n];
        cum.push(cum[i] + a.distance(b));
    }
    let lap = cum[n];
    let speed = spec.player_speed;
    // Stagger players a couple of seconds apart and put them in slightly
    // different lanes — close proximity, never the identical path (§4.6).
    let start_offset = player as f64 * 2.0 * speed;
    let lane_seed = seed ^ ((player as u64 + 1) << 32);
    let dt = 0.25;
    let steps = (duration / dt).ceil() as usize;
    let mut knots = Vec::with_capacity(steps + 1);
    for s in 0..=steps {
        let t = s as f64 * dt;
        // Speed varies a little over time.
        let v = speed * (0.9 + 0.2 * fbm(lane_seed, t * 0.11, 0.0, 2));
        let arc = (start_offset + v * t).rem_euclid(lap.max(1e-9));
        // Locate segment by binary search on cumulative arc length.
        let idx = cum.partition_point(|&c| c <= arc).clamp(1, n) - 1;
        let seg_len = (cum[idx + 1] - cum[idx]).max(1e-9);
        let frac = (arc - cum[idx]) / seg_len;
        let a = centerline[idx];
        let b = centerline[(idx + 1) % n];
        let on_line = a.lerp(b, frac);
        // Lateral lane offset, smooth along the lap.
        let tangent = (b - a).normalized();
        let normal = Vec2::new(-tangent.z, tangent.x);
        let half_width = scene_half_width;
        let lane = (fbm(lane_seed ^ 0x1A4E, arc / 40.0, 0.0, 2) - 0.5) * 2.0 * (half_width * 0.6);
        knots.push((t, on_line + normal * lane));
    }
    Ok(knots)
}

fn roam_knots(
    scene: &Scene,
    spec: &GameSpec,
    player: usize,
    duration: f64,
    seed: u64,
) -> Vec<(f64, Vec2)> {
    let mut rng = SmallRng::new(seed ^ ROAM_TAG ^ ((player as u64) << 40));
    let bounds = scene.bounds();
    // Shared hotspots keep multiple players loosely co-located, as in the
    // paper's shooter games; see [`scene_hotspots`] for why they derive
    // from the layout rather than the movement seed.
    let hotspots = scene_hotspots(scene);
    let hotspot_count = hotspots.len();
    // Shooters chase each other ("roaming and killing enemies"): players
    // other than player 0 spend part of their time retracing the routes
    // player 0 takes, which is what gives the paper's Version-4 cache its
    // inter-player reuse (§4.6) without ever producing identical paths.
    let chase: Option<Vec<(f64, Vec2)>> = if player > 0 {
        Some(roam_knots(scene, spec, 0, duration, seed))
    } else {
        None
    };
    let mut knots = Vec::new();
    let mut t = 0.0;
    let mut pos = hotspots[player % hotspot_count];
    knots.push((t, pos));
    let sigma = (bounds.width().min(bounds.depth()) * 0.12).max(3.0);
    while t < duration {
        let roll = rng.next_f64();
        let chasing = chase.is_some() && roll < 0.4;
        let fighting = (0.4..0.75).contains(&roll);
        let mut target = if let (true, Some(leader)) = (chasing, &chase) {
            // Chase: head to where the enemy was moments ago, with only a
            // small aiming offset.
            let lead = Trajectory {
                knots: leader.clone(),
                kind: TrajectoryKind::Roam,
            };
            let when = (t - rng.range(0.5, 2.0)).max(0.0);
            let aim = lead.position(when);
            Vec2::new(
                aim.x + (rng.next_f64() - 0.5) * 1.0,
                aim.z + (rng.next_f64() - 0.5) * 1.0,
            )
        } else if fighting {
            // Fight at a hotspot: every player converges on the same few
            // square meters, so their movement interleaves closely there.
            let h = hotspots[rng.below(hotspot_count)];
            Vec2::new(
                h.x + (rng.next_f64() - 0.5) * 2.4,
                h.z + (rng.next_f64() - 0.5) * 2.4,
            )
        } else {
            // Roam: a jittered point near a random hotspot.
            let h = hotspots[rng.below(hotspot_count)];
            Vec2::new(
                h.x + (rng.next_f64() - 0.5) * 2.0 * sigma,
                h.z + (rng.next_f64() - 0.5) * 2.0 * sigma,
            )
        };
        target.x = target.x.clamp(bounds.min.x + 1.0, bounds.max.x - 1.0);
        target.z = target.z.clamp(bounds.min.z + 1.0, bounds.max.z - 1.0);
        let dist = pos.distance(target);
        if dist < 1.0 {
            continue;
        }
        let travel = dist / spec.player_speed;
        t += travel;
        pos = target;
        knots.push((t, pos));
        if fighting {
            // Jostle: strafing micro-moves around the fight spot.
            let anchor = pos;
            for _ in 0..4 {
                let next = Vec2::new(
                    (anchor.x + (rng.next_f64() - 0.5) * 2.0)
                        .clamp(bounds.min.x + 1.0, bounds.max.x - 1.0),
                    (anchor.z + (rng.next_f64() - 0.5) * 2.0)
                        .clamp(bounds.min.z + 1.0, bounds.max.z - 1.0),
                );
                let hop = pos.distance(next).max(0.05);
                t += hop / spec.player_speed.max(0.5);
                pos = next;
                knots.push((t, pos));
            }
        } else {
            // Brief pause at the waypoint (look around).
            let pause = rng.range(0.3, 2.0);
            t += pause;
            knots.push((t, pos));
        }
    }
    knots
}

fn follow_knots(
    scene: &Scene,
    spec: &GameSpec,
    player: usize,
    duration: f64,
    seed: u64,
) -> Vec<(f64, Vec2)> {
    // The leader roams; follower k trails by k * 1.2 s with a lateral
    // offset.
    let leader = roam_knots(scene, spec, 0, duration + 8.0, seed ^ 0x1EAD);
    if player == 0 {
        return leader;
    }
    let delay = player as f64 * 1.2;
    let offset_rng_seed = seed ^ ((player as u64) << 24);
    let leader_traj = Trajectory {
        knots: leader,
        kind: TrajectoryKind::Roam,
    };
    let dt = 0.25;
    let steps = (duration / dt).ceil() as usize;
    let bounds = scene.bounds();
    let mut knots = Vec::with_capacity(steps + 1);
    for s in 0..=steps {
        let t = s as f64 * dt;
        let base = leader_traj.position((t - delay).max(0.0));
        let ox = (fbm(offset_rng_seed, t * 0.2, 0.0, 2) - 0.5) * 4.0;
        let oz = (fbm(offset_rng_seed ^ 1, 0.0, t * 0.2, 2) - 0.5) * 4.0;
        let p = Vec2::new(
            (base.x + ox).clamp(bounds.min.x + 0.5, bounds.max.x - 0.5),
            (base.z + oz).clamp(bounds.min.z + 0.5, bounds.max.z - 0.5),
        );
        knots.push((t, p));
    }
    knots
}

fn station_knots(
    scene: &Scene,
    spec: &GameSpec,
    player: usize,
    duration: f64,
    seed: u64,
) -> Vec<(f64, Vec2)> {
    // Indoor sports: players shuffle around a home position (table, lane).
    let bounds = scene.bounds();
    let mut rng = SmallRng::new(seed ^ 0x57A7 ^ ((player as u64) << 16));
    let home = Vec2::new(
        bounds.width() * (0.3 + 0.4 * ((player as f64 * 0.37) % 1.0)),
        bounds.depth() * 0.5,
    );
    let wander = (bounds.width().min(bounds.depth()) * 0.25).max(1.0);
    let mut knots = Vec::new();
    let mut t = 0.0;
    let mut pos = home;
    knots.push((t, pos));
    while t < duration {
        let target = Vec2::new(
            (home.x + rng.range(-wander, wander)).clamp(bounds.min.x + 0.3, bounds.max.x - 0.3),
            (home.z + rng.range(-wander, wander)).clamp(bounds.min.z + 0.3, bounds.max.z - 0.3),
        );
        let dist = pos.distance(target);
        if dist < 0.3 {
            continue;
        }
        t += dist / spec.player_speed;
        pos = target;
        knots.push((t, pos));
        t += rng.range(1.0, 5.0);
        knots.push((t, pos));
    }
    knots
}

/// Seed-mixing tag ("ROAM" in ASCII) kept distinct from other tags.
const ROAM_TAG: u64 = 0x524F_414D;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::GameId;

    fn scene_and_spec(id: GameId) -> (Scene, GameSpec) {
        let spec = GameSpec::for_game(id);
        let scene = spec.build_scene(11);
        (scene, spec)
    }

    #[test]
    fn kinds_match_genres() {
        assert_eq!(
            TrajectoryKind::for_genre(GameGenre::RacingChasing),
            TrajectoryKind::Track
        );
        assert_eq!(
            TrajectoryKind::for_genre(GameGenre::StaticSports),
            TrajectoryKind::Station
        );
    }

    #[test]
    fn positions_stay_in_bounds() {
        for id in [GameId::VikingVillage, GameId::RacingMountain, GameId::Pool] {
            let (scene, spec) = scene_and_spec(id);
            let traj = Trajectory::generate(&scene, &spec, 0, 2, 30.0, 3);
            for i in 0..120 {
                let p = traj.position(i as f64 * 0.25);
                assert!(scene.bounds().contains(p), "{id}: {p} escaped bounds");
            }
        }
    }

    #[test]
    fn track_players_stay_near_track() {
        let (scene, spec) = scene_and_spec(GameId::RacingMountain);
        let traj = Trajectory::generate(&scene, &spec, 1, 2, 20.0, 3);
        let mut on_track = 0;
        let samples = 50;
        for i in 0..samples {
            if scene.is_reachable(traj.position(i as f64 * 0.4)) {
                on_track += 1;
            }
        }
        assert!(
            on_track as f64 >= samples as f64 * 0.8,
            "on track: {on_track}/{samples}"
        );
    }

    #[test]
    fn racers_are_close_but_not_identical() {
        let (scene, spec) = scene_and_spec(GameId::RacingMountain);
        let a = Trajectory::generate(&scene, &spec, 0, 2, 30.0, 3);
        let b = Trajectory::generate(&scene, &spec, 1, 2, 30.0, 3);
        let mut min_d = f64::INFINITY;
        let mut identical = 0;
        for i in 0..100 {
            let t = i as f64 * 0.3;
            let d = a.position(t).distance(b.position(t));
            min_d = min_d.min(d);
            if d < 1e-9 {
                identical += 1;
            }
        }
        // Staggered by ~2s at ~22 m/s -> tens of meters apart, same track.
        assert!(min_d < 200.0, "players unreasonably far: {min_d}");
        assert_eq!(identical, 0, "paths must never coincide exactly");
    }

    #[test]
    fn followers_trail_leader() {
        let (scene, spec) = scene_and_spec(GameId::Cts);
        let leader = Trajectory::generate(&scene, &spec, 0, 3, 40.0, 9);
        let follower = Trajectory::generate(&scene, &spec, 1, 3, 40.0, 9);
        let mut close = 0;
        let samples = 80;
        for i in 0..samples {
            let t = 5.0 + i as f64 * 0.4;
            let d = follower.position(t).distance(leader.position(t));
            if d < 25.0 {
                close += 1;
            }
        }
        assert!(
            close as f64 > samples as f64 * 0.7,
            "follower strayed: close {close}/{samples}"
        );
    }

    #[test]
    fn movement_speed_is_plausible() {
        let (scene, spec) = scene_and_spec(GameId::VikingVillage);
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 60.0, 5);
        // Max instantaneous speed should not wildly exceed the game speed.
        let dt = 0.1;
        for i in 0..500 {
            let t = i as f64 * dt;
            let v = traj.position(t + dt).distance(traj.position(t)) / dt;
            assert!(
                v <= spec.player_speed * 1.6 + 0.5,
                "speed {v} m/s exceeds plausible bound at t={t}"
            );
        }
    }

    #[test]
    fn position_clamps_outside_range() {
        let (scene, spec) = scene_and_spec(GameId::Pool);
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 10.0, 5);
        assert_eq!(traj.position(-5.0), traj.position(0.0));
        assert_eq!(traj.position(1e9), traj.position(traj.duration()));
    }

    #[test]
    fn heading_is_finite() {
        let (scene, spec) = scene_and_spec(GameId::Fps);
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 30.0, 5);
        for i in 0..100 {
            let h = traj.heading(i as f64 * 0.3);
            assert!(h.is_finite());
        }
    }

    #[test]
    fn velocity_is_finite_and_bounded() {
        let (scene, spec) = scene_and_spec(GameId::Fps);
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 30.0, 5);
        for i in 0..120 {
            let v = traj.velocity(i as f64 * 0.25);
            assert!(v.x.is_finite() && v.z.is_finite());
            assert!(
                v.length() <= spec.player_speed * 1.6 + 0.5,
                "velocity {} exceeds plausible bound",
                v.length()
            );
        }
    }

    #[test]
    fn velocity_predicts_short_horizon_motion() {
        // Extrapolating pos + v*dt must land near the true future
        // position while the player is mid-segment (the constant-
        // velocity predictor's core assumption).
        let (scene, spec) = scene_and_spec(GameId::Fps);
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 30.0, 5);
        let mut good = 0;
        let samples = 100;
        for i in 0..samples {
            let t = i as f64 * 0.25;
            let predicted = traj.position(t) + traj.velocity(t) * 0.1;
            if predicted.distance(traj.position(t + 0.1)) < 0.5 {
                good += 1;
            }
        }
        // Knot corners break the assumption occasionally; most samples
        // must still extrapolate well.
        assert!(good > samples * 7 / 10, "only {good}/{samples} predicted");
    }

    #[test]
    fn hotspots_are_deterministic_map_features() {
        let (scene, _) = scene_and_spec(GameId::Fps);
        let a = scene_hotspots(&scene);
        let b = scene_hotspots(&scene);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for h in &a {
            assert!(scene.bounds().contains(*h), "hotspot {h} out of bounds");
        }
        // A different world layout yields different hotspots.
        let other = GameSpec::for_game(GameId::Fps).build_scene(12);
        assert_ne!(a, scene_hotspots(&other));
    }

    #[test]
    fn deterministic_generation() {
        let (scene, spec) = scene_and_spec(GameId::Soccer);
        let a = Trajectory::generate(&scene, &spec, 1, 4, 20.0, 77);
        let b = Trajectory::generate(&scene, &spec, 1, 4, 20.0, 77);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let (scene, spec) = scene_and_spec(GameId::Pool);
        let _ = Trajectory::generate(&scene, &spec, 0, 1, 0.0, 1);
    }

    #[test]
    fn try_generate_reports_missing_track() {
        // Racing spec paired with a trackless scene (built from an FPS
        // spec): the mismatch is an error, not a panic.
        let scene = GameSpec::for_game(GameId::Fps).build_scene(11);
        let racing = GameSpec::for_game(GameId::RacingMountain);
        let err = Trajectory::try_generate(&scene, &racing, 0, 2, 10.0, 3).unwrap_err();
        assert_eq!(err, TrajectoryError::MissingTrack);
        assert_eq!(
            err.to_string(),
            "track trajectory requires a scene with a track"
        );
    }

    #[test]
    fn generate_falls_back_to_roam_without_track() {
        let scene = GameSpec::for_game(GameId::Fps).build_scene(11);
        let racing = GameSpec::for_game(GameId::RacingMountain);
        let traj = Trajectory::generate(&scene, &racing, 0, 2, 15.0, 3);
        assert_eq!(traj.kind(), TrajectoryKind::Roam);
        for i in 0..60 {
            assert!(scene.bounds().contains(traj.position(i as f64 * 0.25)));
        }
    }

    #[test]
    fn try_generate_matches_generate_when_valid() {
        let (scene, spec) = scene_and_spec(GameId::RacingMountain);
        let a = Trajectory::try_generate(&scene, &spec, 1, 2, 20.0, 7).expect("track scene");
        let b = Trajectory::generate(&scene, &spec, 1, 2, 20.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.kind(), TrajectoryKind::Track);
    }
}
