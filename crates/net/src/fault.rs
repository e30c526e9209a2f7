//! Fault-injection scenarios for the FI datagram path.
//!
//! The paper relays foreground-interaction state over a lossy UDP path
//! (§5.1 task 4) and footnotes its 2–3 ms sync cost under a *healthy*
//! WLAN. A fleet host cares about the unhealthy cases: interference
//! bursts, queueing spikes and relay restarts. [`FiChannel`] wraps the
//! base [`DatagramChannel`] with a selectable [`NetScenario`] so those
//! conditions become seeded, reproducible experiments
//! (`experiments fleet --net <scenario>`).
//!
//! Scenario catalog (all parameters are documented constants):
//!
//! * **`None`** — the fault plane is disabled entirely; consumers fall
//!   back to their lossless constant-latency model.
//! * **`Wifi`** — the baseline testbed WLAN: independent 0.3 % loss with
//!   sub-millisecond jitter ([`DatagramChannel::wifi_fi`]).
//! * **`BurstLoss`** — a Gilbert–Elliott two-state chain on top of the
//!   baseline: a low-loss *good* state and a *bad* (interference) state
//!   where roughly half of all packets die, with geometric sojourn times.
//! * **`LatencySpikes`** — baseline loss, but a fraction of delivered
//!   packets are delayed by a queueing spike far beyond the jitter band.
//! * **`RelayOutage`** — a transient server-relay outage: every packet
//!   sent inside a periodic outage window is lost (all players of a room
//!   see the same wall of loss, since the window is a function of
//!   simulated time, not of channel state).

use crate::channel::noise_free_rng::DeterministicRng;
use crate::channel::{DatagramChannel, Delivery};

/// Relay processing time charged between the two hops of a state sync,
/// ms (matches the base channel's relay model).
pub const RELAY_PROCESS_MS: f64 = 0.3;

/// Gilbert–Elliott transition probability good → bad (per packet).
const GE_GOOD_TO_BAD: f64 = 0.015;
/// Gilbert–Elliott transition probability bad → good (per packet).
const GE_BAD_TO_GOOD: f64 = 0.2;
/// Extra per-packet loss probability while in the bad state.
const GE_BAD_LOSS: f64 = 0.5;

/// Probability that a delivered packet rides a queueing spike.
const SPIKE_PROB: f64 = 0.04;
/// Added one-way latency of a queueing spike, ms.
const SPIKE_MS: f64 = 22.0;

/// Relay outage period, simulated ms.
const OUTAGE_PERIOD_MS: f64 = 2_000.0;
/// Outage window start within each period, ms.
const OUTAGE_START_MS: f64 = 1_500.0;
/// Outage window length, ms.
const OUTAGE_LEN_MS: f64 = 150.0;

/// Selectable network fault scenario for the FI path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetScenario {
    /// No fault plane: the lossless constant-latency model.
    None,
    /// Baseline testbed WLAN (independent 0.3 % loss).
    Wifi,
    /// Gilbert–Elliott burst loss.
    BurstLoss,
    /// Occasional large queueing delays.
    LatencySpikes,
    /// Periodic transient relay outages.
    RelayOutage,
}

impl NetScenario {
    /// Every scenario, in catalog order.
    pub const ALL: [NetScenario; 5] = [
        NetScenario::None,
        NetScenario::Wifi,
        NetScenario::BurstLoss,
        NetScenario::LatencySpikes,
        NetScenario::RelayOutage,
    ];

    /// The CLI name (`experiments fleet --net <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            NetScenario::None => "none",
            NetScenario::Wifi => "wifi",
            NetScenario::BurstLoss => "burst-loss",
            NetScenario::LatencySpikes => "latency-spikes",
            NetScenario::RelayOutage => "relay-outage",
        }
    }

    /// Parses a CLI name; `None` (the Option) for unknown names.
    pub fn parse(name: &str) -> Option<NetScenario> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the scenario can drop or delay packets at all. `false`
    /// only for [`NetScenario::None`], which keeps consumers on their
    /// lossless constant-latency path bit-for-bit.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, NetScenario::None)
    }
}

impl std::fmt::Display for NetScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-player FI datagram channel under a fault scenario.
///
/// Wraps the seeded base [`DatagramChannel`] (which supplies latency,
/// jitter and independent background loss) and layers the scenario's
/// fault process on top. Fully deterministic: the same `(scenario,
/// seed)` pair and the same sequence of `send_at` times reproduce the
/// same deliveries.
#[derive(Debug, Clone, PartialEq)]
pub struct FiChannel {
    scenario: NetScenario,
    inner: DatagramChannel,
    fault_rng: DeterministicRng,
    ge_bad: bool,
    sent: u64,
    lost: u64,
}

impl FiChannel {
    /// Creates the channel for one player.
    pub fn new(scenario: NetScenario, seed: u64) -> Self {
        FiChannel {
            scenario,
            inner: DatagramChannel::wifi_fi(seed),
            fault_rng: DeterministicRng::new(seed ^ 0xFA_07_5C_EA_7E_57_10_55),
            ge_bad: false,
            sent: 0,
            lost: 0,
        }
    }

    /// The channel's scenario.
    pub fn scenario(&self) -> NetScenario {
        self.scenario
    }

    /// Whether `now_ms` falls inside a relay outage window.
    fn in_outage(now_ms: f64) -> bool {
        let phase = now_ms.rem_euclid(OUTAGE_PERIOD_MS);
        (OUTAGE_START_MS..OUTAGE_START_MS + OUTAGE_LEN_MS).contains(&phase)
    }

    /// Sends one datagram at simulated time `now_ms`.
    pub fn send_at(&mut self, now_ms: f64) -> Delivery {
        self.sent += 1;
        match self.scenario {
            NetScenario::RelayOutage if Self::in_outage(now_ms) => {
                self.lost += 1;
                return Delivery::Lost;
            }
            NetScenario::BurstLoss => {
                // Evolve the Gilbert–Elliott chain one step per packet.
                let p = self.fault_rng.next_f64();
                if self.ge_bad {
                    if p < GE_BAD_TO_GOOD {
                        self.ge_bad = false;
                    }
                } else if p < GE_GOOD_TO_BAD {
                    self.ge_bad = true;
                }
                if self.ge_bad && self.fault_rng.next_f64() < GE_BAD_LOSS {
                    self.lost += 1;
                    return Delivery::Lost;
                }
            }
            _ => {}
        }
        match self.inner.send() {
            Delivery::Lost => {
                self.lost += 1;
                Delivery::Lost
            }
            Delivery::Delivered { latency_ms } => {
                let latency_ms = if matches!(self.scenario, NetScenario::LatencySpikes)
                    && self.fault_rng.next_f64() < SPIKE_PROB
                {
                    latency_ms + SPIKE_MS
                } else {
                    latency_ms
                };
                Delivery::Delivered { latency_ms }
            }
        }
    }

    /// One state-sync round trip through the relay starting at `now_ms`:
    /// client → relay → peers, two hops plus relay processing. `None`
    /// when either hop is lost.
    pub fn relay_sync_at(&mut self, now_ms: f64) -> Option<f64> {
        let up = self.send_at(now_ms).latency_ms()?;
        let down = self.send_at(now_ms + up + RELAY_PROCESS_MS).latency_ms()?;
        Some(up + RELAY_PROCESS_MS + down)
    }

    /// Packets sent so far (including scenario drops).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets lost so far (scenario drops plus background loss).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Observed loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in NetScenario::ALL {
            assert_eq!(NetScenario::parse(s.name()), Some(s), "{s}");
        }
        assert_eq!(NetScenario::parse("bogus"), None);
        assert!(!NetScenario::None.is_lossy());
        assert!(NetScenario::BurstLoss.is_lossy());
    }

    #[test]
    fn channel_is_deterministic() {
        for scenario in NetScenario::ALL {
            let mut a = FiChannel::new(scenario, 9);
            let mut b = FiChannel::new(scenario, 9);
            for i in 0..2000 {
                let t = i as f64 * 16.7;
                assert_eq!(a.send_at(t), b.send_at(t), "{scenario} diverged at {i}");
            }
            assert_eq!(a.sent(), 2000);
            assert_eq!(a.lost(), b.lost());
        }
    }

    #[test]
    fn burst_loss_is_bursty() {
        // Same overall send count: the GE chain must produce *runs* of
        // loss — the longest run should far exceed what independent
        // 0.3 % loss ever shows.
        let mut ch = FiChannel::new(NetScenario::BurstLoss, 3);
        let mut longest = 0u32;
        let mut run = 0u32;
        for i in 0..20_000 {
            match ch.send_at(i as f64) {
                Delivery::Lost => {
                    run += 1;
                    longest = longest.max(run);
                }
                Delivery::Delivered { .. } => run = 0,
            }
        }
        assert!(longest >= 3, "longest loss run {longest}");
        let ratio = ch.loss_ratio();
        assert!(
            (0.01..0.15).contains(&ratio),
            "burst scenario loss {ratio:.4}"
        );
    }

    #[test]
    fn latency_spikes_exceed_jitter_band() {
        let mut ch = FiChannel::new(NetScenario::LatencySpikes, 5);
        let mut spiked = 0u32;
        for i in 0..5000 {
            if let Some(l) = ch.send_at(i as f64).latency_ms() {
                if l > 10.0 {
                    spiked += 1;
                }
            }
        }
        assert!(spiked > 50, "only {spiked} spikes in 5000 sends");
    }

    #[test]
    fn relay_outage_drops_everything_in_window() {
        let mut ch = FiChannel::new(NetScenario::RelayOutage, 7);
        // Inside the window every send is lost, regardless of seed.
        for i in 0..50 {
            let t = OUTAGE_START_MS + i as f64 * (OUTAGE_LEN_MS / 50.0) * 0.99;
            assert_eq!(ch.send_at(t), Delivery::Lost, "t={t}");
        }
        // Outside the window the channel behaves like the baseline.
        let mut delivered = 0;
        for i in 0..200 {
            if ch
                .send_at(i as f64 * 5.0 % OUTAGE_START_MS)
                .latency_ms()
                .is_some()
            {
                delivered += 1;
            }
        }
        assert!(delivered > 150, "{delivered}/200 delivered off-window");
    }

    #[test]
    fn wifi_matches_base_channel_statistics() {
        let mut ch = FiChannel::new(NetScenario::Wifi, 11);
        let mut total = 0.0;
        let mut n = 0u32;
        for i in 0..4000 {
            if let Some(ms) = ch.relay_sync_at(i as f64 * 16.7) {
                total += ms;
                n += 1;
            }
        }
        let mean = total / n as f64;
        assert!((2.0..3.2).contains(&mean), "mean sync {mean:.2} ms");
        let ratio = ch.loss_ratio();
        assert!(ratio < 0.01, "baseline loss {ratio:.4}");
    }
}
