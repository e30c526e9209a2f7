//! # coterie-device
//!
//! Analytic mobile-device model: render timing, CPU costs, thermals and
//! power draw.
//!
//! The paper's evaluation platform is a Google Pixel 2 (Snapdragon 835,
//! Adreno 540). We model it with a handful of calibrated constants:
//!
//! * GPU render time grows linearly with triangle count — the paper's own
//!   cost proxy ("the rendering speed is correlated with the triangle
//!   count of the objects", §4.3). The throughput constant is calibrated
//!   so that whole-BE rendering of the testbed games lands at the
//!   24–27 FPS the paper measures for the Mobile baseline (Table 1).
//! * CPU time is charged per decoded/transferred megabyte (hardware
//!   decoder assist + TCP packet processing, cf. Furion's estimate that
//!   4 Gbps would need 16 busy cores).
//! * An RC thermal model and a linear power model reproduce the Figure 12
//!   time series: ≈4 W steady draw, SoC temperature rising toward but
//!   staying under the 52 °C Pixel 2 thermal limit.
//!
//! # Example
//!
//! ```
//! use coterie_device::DeviceProfile;
//!
//! let phone = DeviceProfile::pixel2();
//! // Rendering half a million triangles takes tens of ms on a phone...
//! assert!(phone.render_ms(500_000) > 16.7);
//! // ...so the near-BE triangle budget for a 12.7 ms slot is well below that.
//! assert!(phone.triangle_budget(12.7) < 500_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod power;
pub mod thermal;

pub use power::PowerModel;
pub use thermal::ThermalModel;

/// The 60 FPS QoE deadline: 16.7 ms per frame (§1, §4.3).
pub const FRAME_BUDGET_MS: f64 = 16.7;

/// Rendering-performance profile of a device (phone or server GPU).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Sustained triangle throughput, triangles per millisecond.
    pub gpu_triangles_per_ms: f64,
    /// Fixed per-frame GPU cost (driver, state, projection), ms.
    pub gpu_frame_overhead_ms: f64,
    /// Hardware video-decode cost per megabyte, ms/MB.
    pub decode_ms_per_mb: f64,
    /// Fixed per-frame decode latency (pipeline setup), ms.
    pub decode_overhead_ms: f64,
    /// CPU cost of receiving and processing network data, core-ms per MB.
    pub net_cpu_ms_per_mb: f64,
    /// Baseline per-frame CPU work (game logic, sensors, compositor),
    /// core-ms.
    pub cpu_base_ms_per_frame: f64,
    /// Number of CPU cores available for utilization accounting.
    pub cpu_cores: f64,
    /// Cost of merging near and far layers (task 5 of the client loop),
    /// ms.
    pub merge_ms: f64,
}

impl DeviceProfile {
    /// A Pixel-2-class phone (Snapdragon 835 + Adreno 540).
    ///
    /// `gpu_triangles_per_ms` is calibrated so whole-scene rendering of
    /// the testbed games reproduces Table 1's Mobile rows (≈24–27 FPS),
    /// while FI + near BE fits the 12.7 ms constraint at Viking-scale
    /// cutoffs of 2–28 m.
    pub fn pixel2() -> Self {
        DeviceProfile {
            name: "Pixel 2".to_string(),
            gpu_triangles_per_ms: 25_000.0,
            gpu_frame_overhead_ms: 1.2,
            decode_ms_per_mb: 6.0,
            decode_overhead_ms: 1.5,
            net_cpu_ms_per_mb: 8.0,
            cpu_base_ms_per_frame: 12.0,
            cpu_cores: 4.0,
            merge_ms: 0.8,
        }
    }

    /// GPU time to render `triangles`, in ms.
    pub fn render_ms(&self, triangles: u64) -> f64 {
        self.gpu_frame_overhead_ms + triangles as f64 / self.gpu_triangles_per_ms
    }

    /// The largest triangle count renderable within `budget_ms`
    /// (0 if the budget does not even cover fixed overhead).
    pub fn triangle_budget(&self, budget_ms: f64) -> u64 {
        let avail = budget_ms - self.gpu_frame_overhead_ms;
        if avail <= 0.0 {
            0
        } else {
            (avail * self.gpu_triangles_per_ms) as u64
        }
    }

    /// Video decode latency for a payload of `bytes`, in ms.
    pub fn decode_ms(&self, bytes: u64) -> f64 {
        self.decode_overhead_ms + bytes as f64 / 1.0e6 * self.decode_ms_per_mb
    }

    /// CPU core-ms consumed receiving `bytes` from the network.
    pub fn net_cpu_ms(&self, bytes: u64) -> f64 {
        bytes as f64 / 1.0e6 * self.net_cpu_ms_per_mb
    }

    /// CPU utilization (fraction of all cores, `[0, 1]`) given busy
    /// core-ms accumulated over an interval.
    pub fn cpu_utilization(&self, busy_core_ms: f64, interval_ms: f64) -> f64 {
        if interval_ms <= 0.0 {
            return 0.0;
        }
        (busy_core_ms / (interval_ms * self.cpu_cores)).clamp(0.0, 1.0)
    }

    /// GPU utilization (fraction, `[0, 1]`) given busy GPU ms over an
    /// interval.
    pub fn gpu_utilization(&self, busy_gpu_ms: f64, interval_ms: f64) -> f64 {
        if interval_ms <= 0.0 {
            return 0.0;
        }
        (busy_gpu_ms / interval_ms).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_time_linear_in_triangles() {
        let p = DeviceProfile::pixel2();
        let t1 = p.render_ms(100_000);
        let t2 = p.render_ms(200_000);
        assert!(t2 > t1);
        let marginal = t2 - t1;
        assert!((marginal - 100_000.0 / p.gpu_triangles_per_ms).abs() < 1e-9);
    }

    #[test]
    fn triangle_budget_inverts_render_ms() {
        let p = DeviceProfile::pixel2();
        let budget = p.triangle_budget(12.7);
        let t = p.render_ms(budget);
        assert!(t <= 12.7 + 1e-6, "budget violates its own constraint: {t}");
        // One more "object" worth of triangles breaks it.
        assert!(p.render_ms(budget + 60_000) > 12.7);
    }

    #[test]
    fn tiny_budget_renders_nothing() {
        let p = DeviceProfile::pixel2();
        assert_eq!(p.triangle_budget(0.5), 0);
        assert_eq!(p.triangle_budget(-3.0), 0);
    }

    #[test]
    fn mobile_baseline_fps_matches_table1() {
        // Table 1: Mobile renders whole scenes at 24-27 FPS (inter-frame
        // ~38-42 ms). Visible triangle loads of ~0.9-1.0M reproduce that.
        let p = DeviceProfile::pixel2();
        let visible_triangles = 950_000;
        let ms = p.render_ms(visible_triangles);
        let fps = 1000.0 / ms;
        assert!(
            (22.0..30.0).contains(&fps),
            "whole-scene mobile rendering should land near 24-27 FPS, got {fps:.1}"
        );
    }

    #[test]
    fn decode_cost_scales_with_bytes() {
        let p = DeviceProfile::pixel2();
        // A 550 KB Multi-Furion BE frame decodes in a few ms (paper's
        // decode runs concurrently within the 16.7 ms window).
        let d = p.decode_ms(550_000);
        assert!((2.0..10.0).contains(&d), "decode {d} ms");
        assert!(p.decode_ms(150_000) < d);
    }

    #[test]
    fn utilization_clamped() {
        let p = DeviceProfile::pixel2();
        assert_eq!(p.cpu_utilization(1e9, 16.7), 1.0);
        assert_eq!(p.cpu_utilization(0.0, 16.7), 0.0);
        assert_eq!(p.cpu_utilization(10.0, 0.0), 0.0);
        assert_eq!(p.gpu_utilization(8.35, 16.7), 0.5);
        assert_eq!(p.gpu_utilization(100.0, 16.7), 1.0);
    }

    #[test]
    fn cpu_utilization_reasonable_for_coterie_load() {
        // Coterie: ~32% CPU (Table 8). Busy work per 16.7ms frame:
        // base logic + decode CPU share + net processing of ~194KB/5 frames.
        let p = DeviceProfile::pixel2();
        let busy = p.cpu_base_ms_per_frame + p.net_cpu_ms(194_000 / 5) + 2.0;
        let util = p.cpu_utilization(busy, FRAME_BUDGET_MS);
        assert!((0.15..0.50).contains(&util), "CPU util {util}");
    }
}
