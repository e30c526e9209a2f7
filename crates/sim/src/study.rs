//! User-study model (Table 10).
//!
//! The paper's IRB-approved study has 12 participants watch six 20-second
//! single-player trace replays (two per testbed game) under Multi-Furion
//! and Coterie, grading the difference from 1 (very annoying) to 5
//! (imperceptible). A human study cannot be reproduced in software; this
//! module provides a documented *perceptual model* instead:
//!
//! * the objective stimulus is the frame discontinuity Coterie introduces
//!   when it substitutes a cached far-BE frame — measured as
//!   `1 − SSIM(far(p), far(p + reuse displacement))` along the replayed
//!   trace,
//! * each simulated participant maps the mean stimulus to a 1–5 score
//!   through thresholds jittered per participant (perceptual variance).
//!
//! The paper's own observation anchors the model: participants noticed
//! slight stutter "at locations where the cutoff radius was small and a
//! few objects were visually large in far BE" — exactly where the
//! measured discontinuity is largest.

use coterie_core::{CutoffConfig, CutoffMap};
use coterie_device::DeviceProfile;
use coterie_frame::{ssim_with, SsimOptions};
use coterie_render::{RenderFilter, RenderOptions, Renderer};
use coterie_world::noise::SmallRng;
use coterie_world::{GameId, GameSpec, Trajectory, Vec2};

/// Study configuration mirroring §7.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Number of simulated participants (paper: 12).
    pub participants: usize,
    /// Replay traces (paper: 6 — two per testbed game).
    pub traces: usize,
    /// Seconds of movement per trace (paper: 20 s).
    pub trace_seconds: f64,
    /// Discontinuity probes per trace.
    pub probes: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            participants: 12,
            traces: 6,
            trace_seconds: 20.0,
            probes: 5,
            seed: 7,
        }
    }
}

/// Result of the simulated study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutcome {
    /// Number of (participant, trace) gradings per score 1..=5
    /// (`counts[0]` is score 1).
    pub counts: [usize; 5],
    /// Mean score over all gradings.
    pub mean_score: f64,
    /// Mean objective discontinuity stimulus per trace.
    pub trace_stimuli: Vec<f64>,
}

impl StudyOutcome {
    /// Fraction of gradings at the given score (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `score` is not in `1..=5`.
    pub fn fraction(&self, score: usize) -> f64 {
        assert!((1..=5).contains(&score), "scores are 1..=5");
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.counts[score - 1] as f64 / total as f64
        }
    }
}

/// Runs the simulated user study.
pub fn run_study(config: &StudyConfig) -> StudyOutcome {
    let renderer = Renderer::new(RenderOptions::fast());
    let device = DeviceProfile::pixel2();
    let games = GameId::TESTBED;
    let mut stimuli = Vec::with_capacity(config.traces);
    let mut rng = SmallRng::new(config.seed ^ 0x57D7);

    for t in 0..config.traces {
        let game = games[t % games.len()];
        let spec = GameSpec::for_game(game);
        let scene = spec.build_scene(config.seed ^ (t as u64) << 8);
        let cutoff_cfg = CutoffConfig::for_spec(&spec);
        let map = CutoffMap::compute(&scene, &device, &cutoff_cfg, config.seed);
        let traj = Trajectory::generate(
            &scene,
            &spec,
            0,
            1,
            config.trace_seconds,
            config.seed ^ t as u64,
        );

        // Probe the reuse discontinuity at several points of the replay.
        let mut d_sum = 0.0;
        let mut n = 0usize;
        for k in 0..config.probes {
            let time = config.trace_seconds * (k as f64 + 0.5) / config.probes as f64;
            let pos = traj.position(time);
            let (_, radius, dist_thresh) = map.lookup_params(pos);
            // Typical reuse displacement is ~60% of the threshold (the
            // closest qualifying frame wins, so reuse rarely happens at
            // the full radius).
            let mut reused = pos + Vec2::new(dist_thresh * 0.6, 0.0);
            reused.x = reused
                .x
                .clamp(scene.bounds().min.x, scene.bounds().max.x - 1e-6);
            let a = renderer.render_panorama(
                &scene,
                scene.eye(pos),
                RenderFilter::FarOnly { cutoff: radius },
            );
            let b = renderer.render_panorama(
                &scene,
                scene.eye(reused),
                RenderFilter::FarOnly { cutoff: radius },
            );
            d_sum += 1.0 - ssim_with(&a.frame, &b.frame, &SsimOptions::fast());
            n += 1;
        }
        stimuli.push(if n > 0 { d_sum / n as f64 } else { 0.0 });
    }

    // Map stimuli to scores per participant. Thresholds follow the SSIM
    // quality bands (a <1% structural change is imperceptible; a few
    // percent is visible but acceptable), jittered ±30% per participant.
    let mut counts = [0usize; 5];
    let mut total = 0usize;
    let mut score_sum = 0usize;
    for _ in 0..config.participants {
        let sensitivity = 0.7 + 0.6 * rng.next_f64();
        for &stimulus in &stimuli {
            let s = stimulus * sensitivity;
            let score = if s < 0.012 {
                5
            } else if s < 0.040 {
                4
            } else if s < 0.10 {
                3
            } else if s < 0.18 {
                2
            } else {
                1
            };
            counts[score - 1] += 1;
            score_sum += score;
            total += 1;
        }
    }
    StudyOutcome {
        counts,
        mean_score: if total == 0 {
            0.0
        } else {
            score_sum as f64 / total as f64
        },
        trace_stimuli: stimuli,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StudyConfig {
        StudyConfig {
            participants: 6,
            traces: 3,
            trace_seconds: 8.0,
            probes: 2,
            seed: 11,
        }
    }

    #[test]
    fn study_scores_skew_high() {
        // Table 10: 0% score 1-2, ~5.5% score 3, most gradings 4-5 with
        // means 4.5-4.75 per trace.
        let outcome = run_study(&small_config());
        let total: usize = outcome.counts.iter().sum();
        assert_eq!(total, 6 * 3);
        assert!(
            outcome.mean_score >= 4.0,
            "mean score {:.2}",
            outcome.mean_score
        );
        let low = outcome.fraction(1) + outcome.fraction(2);
        assert!(low < 0.15, "low scores {low:.2}");
    }

    #[test]
    fn stimuli_are_small_discontinuities() {
        let outcome = run_study(&small_config());
        for &s in &outcome.trace_stimuli {
            assert!((0.0..0.4).contains(&s), "stimulus {s}");
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let outcome = run_study(&small_config());
        let sum: f64 = (1..=5).map(|s| outcome.fraction(s)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scores are 1..=5")]
    fn invalid_score_rejected() {
        let outcome = run_study(&small_config());
        let _ = outcome.fraction(0);
    }
}
