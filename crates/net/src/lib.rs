//! # coterie-net
//!
//! Shared-medium wireless network model (802.11ac downlink).
//!
//! The paper's testbed serves up to four Pixel 2 phones from one desktop
//! over 802.11ac with ≈500 Mbps measured TCP goodput (§3). The scaling
//! bottleneck it demonstrates — Multi-Furion's per-frame network delay
//! roughly doubling with two players (Table 1) — is a property of the
//! *shared* downlink: the access point serializes transmissions, so every
//! concurrent transfer queues behind the others, and MAC contention
//! shaves additional efficiency as stations are added.
//!
//! [`SharedLink`] models exactly that: a FIFO transmission queue with a
//! station-count-dependent effective rate and a base latency per
//! transfer. It is deliberately *not* a packet-level simulator; the
//! paper's effects live at transfer granularity.
//!
//! # Example
//!
//! ```
//! use coterie_net::SharedLink;
//!
//! let mut link = SharedLink::wifi_80211ac(1);
//! let t1 = link.transfer(0.0, 550_000); // one 550 KB BE frame
//! let t2 = link.transfer(0.0, 550_000); // a second player's frame queues
//! assert!(t2.completed_at_ms > t1.completed_at_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fault;
pub mod token;
pub mod wire;

pub use channel::{DatagramChannel, Delivery, PacketLost};
pub use fault::{FiChannel, NetScenario};
pub use token::ResumeToken;
pub use wire::{FrameAssembler, WireError, WireMessage};

use serde::{Deserialize, Serialize};

/// Measured 802.11ac TCP goodput from the paper's testbed, Mbps (§3).
pub const WIFI_80211AC_GOODPUT_MBPS: f64 = 500.0;

/// Result of scheduling one transfer on the shared link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// When transmission actually started (after queueing), ms.
    pub started_at_ms: f64,
    /// When the last byte arrived at the client, ms.
    pub completed_at_ms: f64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl Transfer {
    /// Total latency experienced by the requester, ms.
    pub fn latency_ms(&self, requested_at_ms: f64) -> f64 {
        self.completed_at_ms - requested_at_ms
    }
}

/// A shared wireless downlink with FIFO service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedLink {
    /// Nominal single-station TCP goodput, Mbps.
    capacity_mbps: f64,
    /// Fixed per-transfer latency (TCP/WiFi round trip, request
    /// processing), ms.
    base_latency_ms: f64,
    /// Number of stations sharing the medium.
    stations: usize,
    /// Next instant the medium is free, ms.
    busy_until_ms: f64,
    /// Total bytes ever sent (for bandwidth accounting).
    total_bytes: u64,
}

impl SharedLink {
    /// An 802.11ac link as measured in the paper (500 Mbps goodput,
    /// ~2.5 ms base latency), shared by `stations` phones.
    pub fn wifi_80211ac(stations: usize) -> Self {
        Self::new(WIFI_80211AC_GOODPUT_MBPS, 2.5, stations)
    }

    /// Creates a link with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mbps` is not positive or `stations` is zero.
    pub fn new(capacity_mbps: f64, base_latency_ms: f64, stations: usize) -> Self {
        assert!(capacity_mbps > 0.0, "link capacity must be positive");
        assert!(stations > 0, "need at least one station");
        SharedLink {
            capacity_mbps,
            base_latency_ms,
            stations,
            busy_until_ms: 0.0,
            total_bytes: 0,
        }
    }

    /// MAC efficiency as a function of station count: contention overhead
    /// (backoff, collisions, per-station ACKs) grows mildly with each
    /// added station. One station keeps the full measured goodput.
    pub fn mac_efficiency(&self) -> f64 {
        1.0 / (1.0 + 0.06 * (self.stations.saturating_sub(1)) as f64)
    }

    /// Effective aggregate goodput with current contention, Mbps.
    pub fn effective_mbps(&self) -> f64 {
        self.capacity_mbps * self.mac_efficiency()
    }

    /// Number of stations sharing the link.
    pub fn stations(&self) -> usize {
        self.stations
    }

    /// Total bytes transferred so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Schedules a transfer of `bytes` requested at `now_ms`. The medium
    /// serves transfers FIFO: transmission starts when the medium frees
    /// up, and the requester sees base latency on top.
    pub fn transfer(&mut self, now_ms: f64, bytes: u64) -> Transfer {
        let start = self.busy_until_ms.max(now_ms);
        // Mbps = 1000 bits per ms.
        let duration_ms = bytes as f64 * 8.0 / (self.effective_mbps() * 1000.0);
        self.busy_until_ms = start + duration_ms;
        self.total_bytes += bytes;
        Transfer {
            started_at_ms: start,
            completed_at_ms: self.busy_until_ms + self.base_latency_ms,
            bytes,
        }
    }

    /// [`SharedLink::transfer`] plus a telemetry span covering the
    /// whole wait (queueing, transmission, base latency) on the
    /// caller's lane, in simulated time. The link itself cannot own a
    /// sink — it is part of the serialized, comparable session state —
    /// so the sink rides in per call. A disabled sink adds one branch.
    pub fn transfer_traced(
        &mut self,
        now_ms: f64,
        bytes: u64,
        sink: &coterie_telemetry::TelemetrySink,
        track: coterie_telemetry::TrackId,
        frame_no: u64,
    ) -> Transfer {
        let t = self.transfer(now_ms, bytes);
        sink.span(
            track,
            coterie_telemetry::Stage::Net,
            "transfer",
            now_ms,
            t.latency_ms(now_ms),
            frame_no,
        );
        t
    }

    /// When the medium next becomes free, ms.
    pub fn busy_until_ms(&self) -> f64 {
        self.busy_until_ms
    }

    /// Resets queue state (bandwidth accounting is kept).
    pub fn reset_queue(&mut self) {
        self.busy_until_ms = 0.0;
    }
}

/// Accumulates byte counts over simulated time to report throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputMeter {
    bytes: u64,
    window_start_ms: f64,
    window_end_ms: f64,
}

impl ThroughputMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` observed at `now_ms`.
    pub fn record(&mut self, now_ms: f64, bytes: u64) {
        if self.bytes == 0 && self.window_end_ms == 0.0 {
            self.window_start_ms = now_ms;
        }
        self.bytes += bytes;
        self.window_end_ms = self.window_end_ms.max(now_ms);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average throughput in Mbps over an explicit duration.
    pub fn mbps_over(&self, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / 1000.0 / duration_ms
    }

    /// Average throughput in Kbps over an explicit duration.
    pub fn kbps_over(&self, duration_ms: f64) -> f64 {
        self.mbps_over(duration_ms) * 1000.0
    }
}

/// Fleet-wide egress budget for admission control.
///
/// A serve fleet provisions a fixed downlink egress (the access points
/// and uplinks behind all of its rooms' [`SharedLink`]s). Rooms ask the
/// budget for bytes before prefetching; when a simulated-time window's
/// spend would exceed the provisioned rate, admission is refused and
/// the room degrades (lower quality scale) instead of oversubscribing
/// the medium. Accounting uses tumbling windows of simulated time, so
/// identical request sequences always produce identical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetEgress {
    budget_mbps: f64,
    window_ms: f64,
    window_start_ms: f64,
    window_bytes: u64,
    total_bytes: u64,
    refused: u64,
}

impl FleetEgress {
    /// A budget of `budget_mbps` accounted over 100 ms tumbling windows
    /// (fine enough that a one-second burst cannot hide inside a
    /// window, coarse enough to ride out single-frame spikes).
    ///
    /// # Panics
    ///
    /// Panics if `budget_mbps` is not positive.
    pub fn new(budget_mbps: f64) -> Self {
        Self::with_window(budget_mbps, 100.0)
    }

    /// A budget with an explicit accounting window.
    ///
    /// # Panics
    ///
    /// Panics if `budget_mbps` or `window_ms` is not positive.
    pub fn with_window(budget_mbps: f64, window_ms: f64) -> Self {
        assert!(budget_mbps > 0.0, "egress budget must be positive");
        assert!(window_ms > 0.0, "accounting window must be positive");
        FleetEgress {
            budget_mbps,
            window_ms,
            window_start_ms: 0.0,
            window_bytes: 0,
            total_bytes: 0,
            refused: 0,
        }
    }

    /// Provisioned egress rate, Mbps.
    pub fn budget_mbps(&self) -> f64 {
        self.budget_mbps
    }

    /// Bytes the current window may still admit.
    fn window_budget_bytes(&self) -> u64 {
        // Mbps = 125 bytes per ms.
        (self.budget_mbps * 125.0 * self.window_ms) as u64
    }

    fn roll_window(&mut self, now_ms: f64) {
        if now_ms >= self.window_start_ms + self.window_ms {
            // Tumbling windows: snap the start onto the window lattice
            // so the roll instant does not depend on request arrival
            // phase.
            let windows = ((now_ms - self.window_start_ms) / self.window_ms).floor();
            self.window_start_ms += windows * self.window_ms;
            self.window_bytes = 0;
        }
    }

    /// Requests admission for a transfer of `bytes` at `now_ms`.
    ///
    /// Returns `true` (and charges the window) if the spend fits in the
    /// provisioned rate, `false` (nothing charged) if it would exceed
    /// it. A single transfer larger than a whole window's budget is
    /// admitted when the window is empty — otherwise it could never be
    /// served at all.
    pub fn admit(&mut self, now_ms: f64, bytes: u64) -> bool {
        self.roll_window(now_ms);
        let fits =
            self.window_bytes + bytes <= self.window_budget_bytes() || self.window_bytes == 0;
        if fits {
            self.window_bytes += bytes;
            self.total_bytes += bytes;
        } else {
            self.refused += 1;
        }
        fits
    }

    /// Fraction of the current window's budget already spent (may
    /// exceed 1.0 after an oversized first-in-window admission).
    pub fn utilization(&mut self, now_ms: f64) -> f64 {
        self.roll_window(now_ms);
        self.window_bytes as f64 / self.window_budget_bytes().max(1) as f64
    }

    /// Total bytes admitted over the budget's lifetime.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of refused admission requests.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_time_matches_rate() {
        let mut link = SharedLink::new(500.0, 0.0, 1);
        // 500 Mbps = 62.5 KB per ms; 625 KB should take 10 ms.
        let t = link.transfer(0.0, 625_000);
        assert!(
            (t.completed_at_ms - 10.0).abs() < 1e-9,
            "{}",
            t.completed_at_ms
        );
    }

    #[test]
    fn base_latency_added_once_per_transfer() {
        let mut link = SharedLink::new(500.0, 2.5, 1);
        let t = link.transfer(0.0, 625_000);
        assert!((t.completed_at_ms - 12.5).abs() < 1e-9);
        assert!((t.latency_ms(0.0) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_transfers_queue_fifo() {
        // The paper's Table 1 mechanism: with 2 players, each BE frame
        // waits for the other's, roughly doubling network delay.
        let mut link = SharedLink::new(500.0, 2.5, 2);
        let t1 = link.transfer(0.0, 550_000);
        let t2 = link.transfer(0.0, 550_000);
        assert!(t2.started_at_ms >= t1.completed_at_ms - 2.5 - 1e-9);
        let l1 = t1.latency_ms(0.0);
        let l2 = t2.latency_ms(0.0);
        assert!(
            l2 > l1 * 1.7,
            "second transfer should see ~2x latency: {l1:.1} vs {l2:.1}"
        );
    }

    #[test]
    fn mac_efficiency_decreases_with_stations() {
        let one = SharedLink::wifi_80211ac(1);
        let four = SharedLink::wifi_80211ac(4);
        assert_eq!(one.mac_efficiency(), 1.0);
        assert!(four.mac_efficiency() < 1.0);
        assert!(four.mac_efficiency() > 0.7, "contention model too harsh");
        assert!(four.effective_mbps() < one.effective_mbps());
    }

    #[test]
    fn medium_frees_up_over_time() {
        let mut link = SharedLink::new(100.0, 0.0, 1);
        let t1 = link.transfer(0.0, 125_000); // 10 ms at 100 Mbps
        assert!((t1.completed_at_ms - 10.0).abs() < 1e-9);
        // A request arriving after the medium is free starts immediately.
        let t2 = link.transfer(50.0, 125_000);
        assert_eq!(t2.started_at_ms, 50.0);
    }

    #[test]
    fn total_bytes_accumulates() {
        let mut link = SharedLink::wifi_80211ac(1);
        link.transfer(0.0, 1000);
        link.transfer(1.0, 2000);
        assert_eq!(link.total_bytes(), 3000);
    }

    #[test]
    fn table1_net_delay_regime() {
        // Multi-Furion 1P: ~550 KB frames, ~9 ms net delay (Table 1).
        let mut link = SharedLink::wifi_80211ac(1);
        let t = link.transfer(0.0, 550_000);
        let delay = t.latency_ms(0.0);
        assert!(
            (7.0..12.0).contains(&delay),
            "1-player 550KB transfer should take ~9 ms, got {delay:.1}"
        );
        // 2 players: ~18-20 ms for the queued one.
        let mut link2 = SharedLink::wifi_80211ac(2);
        let _a = link2.transfer(0.0, 550_000);
        let b = link2.transfer(0.0, 550_000);
        let d2 = b.latency_ms(0.0);
        assert!(
            (15.0..24.0).contains(&d2),
            "2-player queued transfer should take ~18-20 ms, got {d2:.1}"
        );
    }

    #[test]
    fn throughput_meter_computes_mbps() {
        let mut m = ThroughputMeter::new();
        m.record(0.0, 625_000); // 5 Mbit
        m.record(500.0, 625_000); // 5 Mbit
                                  // 10 Mbit over 1 s = 10 Mbps.
        assert!((m.mbps_over(1000.0) - 10.0).abs() < 1e-9);
        assert!((m.kbps_over(1000.0) - 10_000.0).abs() < 1e-6);
        assert_eq!(m.bytes(), 1_250_000);
        assert_eq!(m.mbps_over(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn invalid_capacity_rejected() {
        let _ = SharedLink::new(0.0, 1.0, 1);
    }

    #[test]
    fn reset_queue_clears_busy_state() {
        let mut link = SharedLink::wifi_80211ac(1);
        link.transfer(0.0, 10_000_000);
        assert!(link.busy_until_ms() > 0.0);
        link.reset_queue();
        assert_eq!(link.busy_until_ms(), 0.0);
        assert!(link.total_bytes() > 0, "accounting preserved");
    }

    #[test]
    fn egress_admits_within_budget() {
        // 100 Mbps over 100 ms windows = 1.25 MB per window.
        let mut egress = FleetEgress::new(100.0);
        assert!(egress.admit(0.0, 500_000));
        assert!(egress.admit(10.0, 500_000));
        assert!(egress.admit(20.0, 250_000));
        // Window full: the next request in the same window is refused.
        assert!(!egress.admit(30.0, 500_000));
        assert_eq!(egress.refused(), 1);
        assert_eq!(egress.total_bytes(), 1_250_000);
        assert!((egress.utilization(30.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn egress_window_rolls_with_time() {
        let mut egress = FleetEgress::new(100.0);
        assert!(egress.admit(0.0, 1_250_000));
        assert!(!egress.admit(50.0, 1));
        // Next window: budget is fresh again.
        assert!(egress.admit(100.0, 1_250_000));
        assert_eq!(egress.utilization(250.0), 0.0);
    }

    #[test]
    fn egress_oversized_transfer_admitted_when_window_empty() {
        let mut egress = FleetEgress::with_window(10.0, 10.0); // 12.5 KB/window
        assert!(
            egress.admit(0.0, 1_000_000),
            "must not deadlock on big frames"
        );
        assert!(egress.utilization(0.0) > 1.0);
        assert!(!egress.admit(1.0, 100));
    }

    #[test]
    fn egress_decisions_are_deterministic() {
        let run = || {
            let mut egress = FleetEgress::new(250.0);
            (0..400)
                .map(|i| egress.admit(i as f64 * 3.7, 90_000 + (i % 7) * 10_000))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "egress budget must be positive")]
    fn egress_zero_budget_rejected() {
        let _ = FleetEgress::new(0.0);
    }
}
