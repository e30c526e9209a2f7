//! Head-orientation dynamics.
//!
//! The paper's panoramic prefetch exists because "after arriving at the
//! next grid point, the player may change her head orientation which is
//! hard to predict" (§2.2): a panorama serves *any* orientation at no
//! cost, while a prefetched FoV frame is stale the moment the head
//! turns. This model generates plausible head yaw/pitch over time —
//! smooth pursuit following the movement direction, interrupted by
//! saccade-like glances — to quantify exactly that effect.

use crate::noise::{fbm, SmallRng};
use crate::trajectory::Trajectory;

/// Head orientation sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadPose {
    /// Yaw in radians (renderer azimuth convention).
    pub yaw: f64,
    /// Pitch in radians (positive = up).
    pub pitch: f64,
}

/// Generates head orientation over a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadModel {
    seed: u64,
    /// RMS amplitude of slow gaze wandering around the heading, radians.
    pub wander_rad: f64,
    /// Mean interval between glances (quick large looks), seconds.
    pub glance_interval_s: f64,
    /// Maximum glance amplitude, radians.
    pub glance_rad: f64,
    /// Precomputed glance events: (start_s, duration_s, yaw offset).
    glances: Vec<(f64, f64, f64)>,
}

impl HeadModel {
    /// A typical player: ±12° wander, a glance of up to ±75° roughly
    /// every four seconds.
    pub fn typical(seed: u64, duration_s: f64) -> Self {
        Self::new(seed, duration_s, 0.21, 4.0, 1.3)
    }

    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `glance_interval_s` is not positive.
    pub fn new(
        seed: u64,
        duration_s: f64,
        wander_rad: f64,
        glance_interval_s: f64,
        glance_rad: f64,
    ) -> Self {
        assert!(glance_interval_s > 0.0, "glance interval must be positive");
        let mut rng = SmallRng::new(seed ^ 0x4EAD);
        let mut glances = Vec::new();
        let mut t = rng.range(0.0, glance_interval_s);
        while t < duration_s {
            let duration = rng.range(0.4, 1.4);
            let offset = (rng.next_f64() * 2.0 - 1.0) * glance_rad;
            glances.push((t, duration, offset));
            t += duration + rng.range(0.5 * glance_interval_s, 1.5 * glance_interval_s);
        }
        HeadModel {
            seed,
            wander_rad,
            glance_interval_s,
            glance_rad,
            glances,
        }
    }

    /// Head pose at time `t` while following `trajectory`.
    pub fn pose(&self, trajectory: &Trajectory, t: f64) -> HeadPose {
        let heading = trajectory.heading(t);
        // Slow wander around the heading.
        let wander = (fbm(self.seed ^ 0x77, t * 0.35, 0.0, 3) - 0.5) * 2.0 * self.wander_rad;
        // Active glance, smoothly ramped in and out.
        let mut glance = 0.0;
        for &(start, duration, offset) in &self.glances {
            if t >= start && t <= start + duration {
                let phase = (t - start) / duration;
                // Raised-cosine envelope.
                let envelope = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                glance = offset * envelope;
                break;
            }
        }
        let pitch = (fbm(self.seed ^ 0x88, t * 0.3, 1.0, 2) - 0.5) * 0.35;
        HeadPose {
            yaw: heading + wander + glance,
            pitch,
        }
    }

    /// The largest yaw deviation from the movement heading over a window
    /// `[t, t + window_s]` — how far a FoV frame prefetched for the
    /// heading direction can be off by display time.
    pub fn max_deviation(&self, trajectory: &Trajectory, t: f64, window_s: f64) -> f64 {
        let steps = 20;
        let mut max_dev = 0.0f64;
        for i in 0..=steps {
            let ti = t + window_s * i as f64 / steps as f64;
            let pose = self.pose(trajectory, ti);
            let heading = trajectory.heading(t);
            let mut d = pose.yaw - heading;
            while d > std::f64::consts::PI {
                d -= std::f64::consts::TAU;
            }
            while d < -std::f64::consts::PI {
                d += std::f64::consts::TAU;
            }
            max_dev = max_dev.max(d.abs());
        }
        max_dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{GameId, GameSpec};

    fn traj() -> Trajectory {
        let spec = GameSpec::for_game(GameId::Fps);
        let scene = spec.build_scene(1);
        Trajectory::generate(&scene, &spec, 0, 1, 60.0, 5)
    }

    #[test]
    fn pose_is_finite_and_head_relative_motion_smooth() {
        // The *head-relative* gaze offset (pose minus body heading) must
        // be smooth; the body heading itself may turn sharply at
        // waypoints, which the head simply rides along with.
        let t = traj();
        let head = HeadModel::typical(3, 60.0);
        let offset_at = |ti: f64| {
            let p = head.pose(&t, ti);
            assert!(p.yaw.is_finite() && p.pitch.is_finite());
            p.yaw - t.heading(ti)
        };
        let mut prev = offset_at(0.0);
        for i in 1..600 {
            let o = offset_at(i as f64 * 0.1);
            let d = (o - prev).abs();
            assert!(d < 0.8, "head-relative gaze jumped {d:.2} rad in 100 ms");
            prev = o;
        }
    }

    #[test]
    fn glances_exceed_wander() {
        let t = traj();
        let head = HeadModel::typical(3, 60.0);
        let mut max_dev = 0.0f64;
        for i in 0..600 {
            max_dev = max_dev.max(head.max_deviation(&t, i as f64 * 0.1, 0.0));
        }
        assert!(
            max_dev > 0.5,
            "somewhere in a minute the player should glance far: {max_dev:.2}"
        );
    }

    #[test]
    fn deviation_grows_with_window() {
        let t = traj();
        let head = HeadModel::typical(9, 60.0);
        let mut sum_short = 0.0;
        let mut sum_long = 0.0;
        for i in 0..60 {
            let ti = i as f64;
            sum_short += head.max_deviation(&t, ti, 0.1);
            sum_long += head.max_deviation(&t, ti, 2.0);
        }
        assert!(sum_long > sum_short, "longer windows see more head motion");
    }

    #[test]
    fn deterministic() {
        let t = traj();
        let a = HeadModel::typical(4, 30.0);
        let b = HeadModel::typical(4, 30.0);
        for i in 0..100 {
            assert_eq!(a.pose(&t, i as f64 * 0.3), b.pose(&t, i as f64 * 0.3));
        }
    }

    #[test]
    #[should_panic(expected = "glance interval")]
    fn invalid_interval_rejected() {
        let _ = HeadModel::new(1, 10.0, 0.1, 0.0, 1.0);
    }
}
