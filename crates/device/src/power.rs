//! Power-draw model.
//!
//! The paper logs current and voltage from
//! `/sys/class/power_supply/battery` and observes a steady ≈4 W draw
//! under Coterie with the screen locked at 100 % brightness in VR mode
//! (Figure 12). We model power as a linear combination of display, CPU,
//! GPU and radio activity — the standard utilization-based smartphone
//! power model.

/// Linear utilization-based power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle platform power (SoC idle, sensors, Android), watts.
    pub base_w: f64,
    /// Display at VR brightness, watts.
    pub display_w: f64,
    /// Additional power at 100 % CPU utilization, watts.
    pub cpu_full_w: f64,
    /// Additional power at 100 % GPU utilization, watts.
    pub gpu_full_w: f64,
    /// WiFi radio energy per megabit received, joules/Mb.
    pub wifi_j_per_mb: f64,
}

impl PowerModel {
    /// A Pixel-2-like model, calibrated so a Coterie-style load
    /// (≈32 % CPU, ≈58 % GPU, tens of Mbps) draws ≈4 W.
    pub fn pixel2() -> Self {
        PowerModel {
            base_w: 0.55,
            display_w: 1.1,
            cpu_full_w: 2.4,
            gpu_full_w: 2.2,
            wifi_j_per_mb: 0.012,
        }
    }

    /// Instantaneous power draw in watts.
    ///
    /// `cpu_util` and `gpu_util` are fractions in `[0, 1]`;
    /// `net_mbps` is the current downlink throughput.
    pub fn draw_w(&self, cpu_util: f64, gpu_util: f64, net_mbps: f64) -> f64 {
        self.base_w
            + self.display_w
            + self.cpu_full_w * cpu_util.clamp(0.0, 1.0)
            + self.gpu_full_w * gpu_util.clamp(0.0, 1.0)
            + self.wifi_j_per_mb * net_mbps.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coterie_load_draws_about_4w() {
        let m = PowerModel::pixel2();
        // Table 8 / Figure 12 operating point: 32% CPU, 58% GPU, ~26 Mbps.
        let p = m.draw_w(0.32, 0.58, 26.0);
        assert!((3.3..4.6).contains(&p), "draw {p:.2} W should be near 4 W");
    }

    #[test]
    fn idle_draw_is_display_dominated() {
        let m = PowerModel::pixel2();
        let p = m.draw_w(0.0, 0.0, 0.0);
        assert!((1.0..2.5).contains(&p));
    }

    #[test]
    fn power_monotone_in_each_input() {
        let m = PowerModel::pixel2();
        let base = m.draw_w(0.3, 0.5, 20.0);
        assert!(m.draw_w(0.6, 0.5, 20.0) > base);
        assert!(m.draw_w(0.3, 0.9, 20.0) > base);
        assert!(m.draw_w(0.3, 0.5, 200.0) > base);
    }

    #[test]
    fn utilization_clamped() {
        let m = PowerModel::pixel2();
        assert_eq!(m.draw_w(5.0, 0.0, 0.0), m.draw_w(1.0, 0.0, 0.0));
        assert_eq!(m.draw_w(-1.0, 0.0, 0.0), m.draw_w(0.0, 0.0, 0.0));
    }
}
