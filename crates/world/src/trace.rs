//! Recorded movement traces.
//!
//! The paper's similarity and caching experiments all run on recorded
//! player trajectories: "We record the player trajectory in the virtual
//! world during game play ... then offline generate the panoramic BE frame
//! for each grid point in the trajectory" (§4.1). A [`Trace`] is the
//! sampled record of one player's movement; a [`TraceSet`] bundles all
//! players of one session.

use crate::games::GameSpec;
use crate::scene::Scene;
use crate::trajectory::Trajectory;
use crate::vec::Vec2;

/// One time-stamped sample of a player's pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time since session start, seconds.
    pub time: f64,
    /// Ground-plane position.
    pub position: Vec2,
    /// View heading in radians (azimuth).
    pub yaw: f64,
}

/// A sampled movement trace for one player.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    points: Vec<TracePoint>,
    /// Sampling interval, seconds.
    interval: f64,
}

impl Trace {
    /// Records a trajectory at a fixed sampling interval (the paper's
    /// clients sample at the 60 FPS vsync, i.e. 1/60 s).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not strictly positive.
    pub fn record(trajectory: &Trajectory, duration: f64, interval: f64) -> Trace {
        assert!(interval > 0.0, "sampling interval must be positive");
        let steps = (duration / interval).floor() as usize;
        let mut points = Vec::with_capacity(steps + 1);
        for s in 0..=steps {
            let t = s as f64 * interval;
            points.push(TracePoint {
                time: t,
                position: trajectory.position(t),
                yaw: trajectory.heading(t),
            });
        }
        Trace { points, interval }
    }

    /// Reassembles a trace from raw parts (used by the binary trace
    /// format in [`crate::io`]).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not strictly positive.
    pub fn from_parts(points: Vec<TracePoint>, interval: f64) -> Trace {
        assert!(interval > 0.0, "sampling interval must be positive");
        Trace { points, interval }
    }

    /// The sampled points in time order.
    #[inline]
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Sampling interval in seconds.
    #[inline]
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Session duration covered, seconds.
    pub fn duration(&self) -> f64 {
        self.points.last().map(|p| p.time).unwrap_or(0.0)
    }
}

/// All players' traces for one multiplayer session.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    traces: Vec<Trace>,
}

impl TraceSet {
    /// Simulates an `n_players` session of `duration` seconds in `scene`
    /// and records every player at `interval` seconds.
    pub fn generate(
        scene: &Scene,
        spec: &GameSpec,
        n_players: usize,
        duration: f64,
        interval: f64,
        seed: u64,
    ) -> TraceSet {
        let traces = (0..n_players)
            .map(|p| {
                let traj = Trajectory::generate(scene, spec, p, n_players, duration, seed);
                Trace::record(&traj, duration, interval)
            })
            .collect();
        TraceSet { traces }
    }

    /// Per-player traces.
    #[inline]
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Number of players.
    #[inline]
    pub fn player_count(&self) -> usize {
        self.traces.len()
    }

    /// Trace of one player.
    pub fn player(&self, idx: usize) -> Option<&Trace> {
        self.traces.get(idx)
    }
}

impl FromIterator<Trace> for TraceSet {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        TraceSet {
            traces: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::GameId;

    fn session() -> (Scene, GameSpec) {
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(4);
        (scene, spec)
    }

    #[test]
    fn record_covers_duration() {
        let (scene, spec) = session();
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 10.0, 1);
        let trace = Trace::record(&traj, 10.0, 1.0 / 60.0);
        assert_eq!(trace.points().len(), 601);
        assert!((trace.duration() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn trace_set_has_all_players() {
        let (scene, spec) = session();
        let set = TraceSet::generate(&scene, &spec, 4, 5.0, 0.1, 9);
        assert_eq!(set.player_count(), 4);
        assert!(set.player(3).is_some());
        assert!(set.player(4).is_none());
        // Players differ.
        let a = set.player(0).unwrap().points()[20].position;
        let b = set.player(1).unwrap().points()[20].position;
        assert_ne!(a, b);
    }

    #[test]
    fn trace_set_from_iterator() {
        let (scene, spec) = session();
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 2.0, 1);
        let set: TraceSet = std::iter::repeat_n(Trace::record(&traj, 2.0, 0.5), 3).collect();
        assert_eq!(set.player_count(), 3);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let (scene, spec) = session();
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 2.0, 1);
        let _ = Trace::record(&traj, 2.0, 0.0);
    }

    #[test]
    fn clone_preserves_trace() {
        let (scene, spec) = session();
        let traj = Trajectory::generate(&scene, &spec, 0, 1, 2.0, 1);
        let trace = Trace::record(&traj, 2.0, 0.25);
        let clone = trace.clone();
        assert_eq!(trace, clone);
    }
}
