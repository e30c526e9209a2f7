//! First-order RC thermal model of the phone SoC.
//!
//! Figure 12 of the paper shows SoC temperature rising gradually over a
//! 30-minute session while staying under the Pixel 2's 52 °C thermal
//! limit (read from `/vendor/etc/thermal-engine.conf`). A single-pole RC
//! model captures exactly that shape:
//!
//! `dT/dt = (T_ambient + R·P − T) / τ`

/// Pixel 2 thermal throttling threshold, °C (§7.3).
pub const PIXEL2_THERMAL_LIMIT_C: f64 = 52.0;

/// RC thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Thermal resistance, °C per watt — how far above ambient the SoC
    /// settles per watt of sustained power.
    pub resistance_c_per_w: f64,
    /// Time constant, seconds — how quickly the SoC approaches its
    /// steady state.
    pub tau_s: f64,
    /// Current SoC temperature, °C.
    temperature_c: f64,
}

impl ThermalModel {
    /// A Pixel-2-like phone in a 25 °C room: 4 W sustained settles at
    /// ≈47 °C — warm, but under the 52 °C limit, matching Figure 12.
    pub fn pixel2() -> Self {
        ThermalModel {
            ambient_c: 25.0,
            resistance_c_per_w: 5.5,
            tau_s: 420.0,
            temperature_c: 25.0,
        }
    }

    /// Creates a model at thermal equilibrium with the room.
    ///
    /// # Panics
    ///
    /// Panics if `tau_s` or `resistance_c_per_w` is not positive.
    pub fn new(ambient_c: f64, resistance_c_per_w: f64, tau_s: f64) -> Self {
        assert!(tau_s > 0.0, "thermal time constant must be positive");
        assert!(
            resistance_c_per_w > 0.0,
            "thermal resistance must be positive"
        );
        ThermalModel {
            ambient_c,
            resistance_c_per_w,
            tau_s,
            temperature_c: ambient_c,
        }
    }

    /// Current SoC temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Steady-state temperature under sustained power `watts`.
    pub fn steady_state_c(&self, watts: f64) -> f64 {
        self.ambient_c + self.resistance_c_per_w * watts
    }

    /// Advances the model by `dt_s` seconds while drawing `watts`.
    /// Uses the exact exponential solution, so large steps are stable.
    pub fn step(&mut self, watts: f64, dt_s: f64) {
        let target = self.steady_state_c(watts);
        let k = (-dt_s / self.tau_s).exp();
        self.temperature_c = target + (self.temperature_c - target) * k;
    }

    /// Whether the SoC has reached the thermal throttling limit.
    pub fn throttled(&self, limit_c: f64) -> bool {
        self.temperature_c >= limit_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let m = ThermalModel::pixel2();
        assert_eq!(m.temperature_c(), 25.0);
    }

    #[test]
    fn rises_monotonically_toward_steady_state() {
        let mut m = ThermalModel::pixel2();
        let mut last = m.temperature_c();
        for _ in 0..60 {
            m.step(4.0, 30.0);
            assert!(m.temperature_c() >= last);
            last = m.temperature_c();
        }
        let ss = m.steady_state_c(4.0);
        assert!(
            (m.temperature_c() - ss).abs() < 1.0,
            "{} vs {ss}",
            m.temperature_c()
        );
    }

    #[test]
    fn thirty_minutes_at_4w_stays_under_limit() {
        // The paper's headline thermal result (Figure 12).
        let mut m = ThermalModel::pixel2();
        for _ in 0..(30 * 60) {
            m.step(4.0, 1.0);
        }
        assert!(
            m.temperature_c() < PIXEL2_THERMAL_LIMIT_C,
            "temperature {:.1} exceeds the 52C limit",
            m.temperature_c()
        );
        assert!(m.temperature_c() > 40.0, "should be visibly warm");
        assert!(!m.throttled(PIXEL2_THERMAL_LIMIT_C));
    }

    #[test]
    fn higher_power_runs_hotter() {
        let mut a = ThermalModel::pixel2();
        let mut b = ThermalModel::pixel2();
        for _ in 0..100 {
            a.step(3.0, 30.0);
            b.step(6.0, 30.0);
        }
        assert!(b.temperature_c() > a.temperature_c());
    }

    #[test]
    fn cools_when_power_drops() {
        let mut m = ThermalModel::pixel2();
        for _ in 0..100 {
            m.step(6.0, 30.0);
        }
        let hot = m.temperature_c();
        for _ in 0..100 {
            m.step(0.5, 30.0);
        }
        assert!(m.temperature_c() < hot);
    }

    #[test]
    fn exact_solution_is_step_size_invariant() {
        let mut fine = ThermalModel::pixel2();
        let mut coarse = ThermalModel::pixel2();
        for _ in 0..600 {
            fine.step(4.0, 1.0);
        }
        for _ in 0..10 {
            coarse.step(4.0, 60.0);
        }
        assert!((fine.temperature_c() - coarse.temperature_c()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time constant must be positive")]
    fn invalid_tau_rejected() {
        let _ = ThermalModel::new(25.0, 5.0, 0.0);
    }
}
