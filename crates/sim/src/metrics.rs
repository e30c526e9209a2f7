//! Session metrics: the quantities the paper's tables and figures report.

use std::fmt;

/// Aggregated per-player results over a session — one row of Tables 1/7/8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerMetrics {
    /// Average displayed frames per second (capped at the 60 Hz vsync).
    pub avg_fps: f64,
    /// Mean inter-frame latency, ms.
    pub inter_frame_ms: f64,
    /// Mean motion-to-photon responsiveness, ms (the uncapped critical
    /// path of the frame pipeline).
    pub responsiveness_ms: f64,
    /// Mean phone CPU utilization, fraction of all cores `[0, 1]`.
    pub cpu_load: f64,
    /// Mean phone GPU utilization `[0, 1]`.
    pub gpu_load: f64,
    /// Mean transferred frame size, bytes (0 for Mobile).
    pub frame_bytes: f64,
    /// Mean per-transfer network latency, ms (0 for Mobile).
    pub net_delay_ms: f64,
    /// Per-player BE bandwidth, Mbps.
    pub be_mbps: f64,
    /// FI exchange bandwidth attributed to the session, Kbps.
    pub fi_kbps: f64,
    /// Frame-cache hit ratio (0 when the system has no cache).
    pub cache_hit_ratio: f64,
    /// Mean SSIM of displayed frames against the locally rendered ground
    /// truth (only measured when quality sampling is enabled; 0 when
    /// skipped).
    pub visual_ssim: f64,
}

impl PlayerMetrics {
    /// Averages a set of player metrics (e.g. across the players of one
    /// session). Returns zeros for an empty input.
    pub fn mean(metrics: &[PlayerMetrics]) -> PlayerMetrics {
        let n = metrics.len().max(1) as f64;
        let mut out = PlayerMetrics::zero();
        for m in metrics {
            out.avg_fps += m.avg_fps / n;
            out.inter_frame_ms += m.inter_frame_ms / n;
            out.responsiveness_ms += m.responsiveness_ms / n;
            out.cpu_load += m.cpu_load / n;
            out.gpu_load += m.gpu_load / n;
            out.frame_bytes += m.frame_bytes / n;
            out.net_delay_ms += m.net_delay_ms / n;
            out.be_mbps += m.be_mbps / n;
            out.fi_kbps += m.fi_kbps / n;
            out.cache_hit_ratio += m.cache_hit_ratio / n;
            out.visual_ssim += m.visual_ssim / n;
        }
        out
    }

    /// All-zero metrics — also the documented sentinel for a player
    /// that displayed no frames: every field is finite (no `1000/0`
    /// FPS artifacts), and downstream percentile/mean reductions treat
    /// the zeros like any other sample.
    pub fn zero() -> PlayerMetrics {
        PlayerMetrics {
            avg_fps: 0.0,
            inter_frame_ms: 0.0,
            responsiveness_ms: 0.0,
            cpu_load: 0.0,
            gpu_load: 0.0,
            frame_bytes: 0.0,
            net_delay_ms: 0.0,
            be_mbps: 0.0,
            fi_kbps: 0.0,
            cache_hit_ratio: 0.0,
            visual_ssim: 0.0,
        }
    }
}

impl fmt::Display for PlayerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} FPS, {:.1} ms inter-frame, {:.1} ms resp, CPU {:.0}%, GPU {:.0}%, \
             {:.0} KB/frame, {:.1} ms net, {:.1} Mbps BE",
            self.avg_fps,
            self.inter_frame_ms,
            self.responsiveness_ms,
            self.cpu_load * 100.0,
            self.gpu_load * 100.0,
            self.frame_bytes / 1000.0,
            self.net_delay_ms,
            self.be_mbps
        )
    }
}

/// Minute-resolution resource usage over a session (Figure 12's series).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceSeries {
    /// Sample timestamps, minutes from session start.
    pub minutes: Vec<f64>,
    /// CPU utilization per sample `[0, 1]`.
    pub cpu: Vec<f64>,
    /// GPU utilization per sample `[0, 1]`.
    pub gpu: Vec<f64>,
    /// SoC temperature per sample, °C.
    pub temperature_c: Vec<f64>,
    /// Battery power draw per sample, W.
    pub power_w: Vec<f64>,
}

impl ResourceSeries {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.minutes.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.minutes.is_empty()
    }

    /// Maximum temperature reached, °C (0 when empty).
    pub fn peak_temperature_c(&self) -> f64 {
        self.temperature_c.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean power draw, W (0 when empty).
    pub fn mean_power_w(&self) -> f64 {
        if self.power_w.is_empty() {
            0.0
        } else {
            self.power_w.iter().sum::<f64>() / self.power_w.len() as f64
        }
    }
}

/// `p`-th percentile (0–100) of `samples` under linear interpolation
/// between closest ranks. NaN samples sort last (`f64::total_cmp`), so
/// the function never panics; deterministic for identical inputs.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Loss-aware accounting of the session's FI synchronization path.
///
/// All-zero when the session ran without a fault scenario (the lossless
/// constant-latency model) — the fault plane then never touches the
/// simulation, keeping lossless results bit-for-bit identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FiReport {
    /// FI sync rounds attempted on the lossy path (one per interval of
    /// every player of a multiplayer session).
    pub syncs: u64,
    /// Retransmissions spent across all rounds.
    pub retries: u64,
    /// Intervals where retries exhausted and the remote avatars were
    /// dead-reckoned instead.
    pub stale_frames: u64,
    /// Stale intervals at or beyond the dead-reckoning staleness cap
    /// (each one is a consistency penalty: the avatar froze).
    pub cap_violations: u64,
    /// Maximum *displayed* avatar staleness, ms (clamped at the
    /// dead-reckoning cap by construction).
    pub max_staleness_ms: f64,
    /// Mean per-interval sync latency actually charged to Eq. 2, ms.
    pub mean_sync_ms: f64,
    /// 95th percentile of dead-reckoned avatar position error over
    /// stale frames, meters.
    pub desync_p95_m: f64,
    /// 99th percentile of dead-reckoned avatar position error over
    /// stale frames, meters.
    pub desync_p99_m: f64,
}

/// Full result of one simulated session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Per-player aggregates.
    pub players: Vec<PlayerMetrics>,
    /// Resource time series of player 0's phone.
    pub resources: ResourceSeries,
    /// Total session duration, seconds.
    pub duration_s: f64,
    /// FI loss/recovery accounting (all-zero for lossless runs).
    pub fi: FiReport,
}

impl SessionReport {
    /// Cross-player mean metrics over the players who actually played.
    ///
    /// Under churn a roster slot may never have been filled (its
    /// metrics are the [`PlayerMetrics::zero`] sentinel); averaging
    /// those in would drag every mean toward zero, so they are skipped
    /// when at least one player displayed a frame. Without churn no
    /// sentinel exists and this is exactly the mean over all players.
    /// All-sentinel (or empty) rosters return the zero sentinel —
    /// never NaN.
    pub fn aggregate(&self) -> PlayerMetrics {
        let zero = PlayerMetrics::zero();
        let active: Vec<PlayerMetrics> = self
            .players
            .iter()
            .filter(|m| **m != zero)
            .copied()
            .collect();
        if active.is_empty() {
            zero
        } else {
            PlayerMetrics::mean(&active)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fps: f64) -> PlayerMetrics {
        PlayerMetrics {
            avg_fps: fps,
            ..PlayerMetrics::zero()
        }
    }

    #[test]
    fn mean_averages_fields() {
        let m = PlayerMetrics::mean(&[sample(30.0), sample(60.0)]);
        assert!((m.avg_fps - 45.0).abs() < 1e-9);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let m = PlayerMetrics::mean(&[]);
        assert_eq!(m.avg_fps, 0.0);
    }

    #[test]
    fn display_contains_key_numbers() {
        let mut m = PlayerMetrics::zero();
        m.avg_fps = 60.0;
        m.inter_frame_ms = 16.7;
        let s = format!("{m}");
        assert!(s.contains("60 FPS"));
        assert!(s.contains("16.7 ms"));
    }

    #[test]
    fn resource_series_peaks() {
        let r = ResourceSeries {
            minutes: vec![0.0, 1.0, 2.0],
            cpu: vec![0.3, 0.35, 0.32],
            gpu: vec![0.5, 0.6, 0.55],
            temperature_c: vec![25.0, 40.0, 45.0],
            power_w: vec![4.0, 4.2, 3.8],
        };
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.peak_temperature_c(), 45.0);
        assert!((r.mean_power_w() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_series_is_safe() {
        let r = ResourceSeries::default();
        assert!(r.is_empty());
        assert_eq!(r.peak_temperature_c(), 0.0);
        assert_eq!(r.mean_power_w(), 0.0);
    }

    #[test]
    fn report_aggregate() {
        let report = SessionReport {
            players: vec![sample(50.0), sample(60.0)],
            resources: ResourceSeries::default(),
            duration_s: 600.0,
            fi: FiReport::default(),
        };
        assert!((report.aggregate().avg_fps - 55.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // Linear interpolation: p50 of 1..=100 is 50.5, not 51.
        assert_eq!(percentile(&samples, 50.0), 50.5);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 95.0), 95.05);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        // A quartile landing between ranks interpolates.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 50.0), percentile(&b, 50.0));
        assert_eq!(percentile(&a, 50.0), 3.0);
    }

    #[test]
    fn percentile_tolerates_nan_without_panicking() {
        let samples = [3.0, f64::NAN, 1.0, 2.0];
        // total_cmp sorts NaN last; finite percentiles stay meaningful.
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(
            percentile(&samples, 33.0),
            percentile(&[1.0, 2.0, 3.0, f64::NAN], 33.0)
        );
    }
}
