//! Fleet-wide quality-of-service metrics.
//!
//! The per-session paper metrics (FPS, bandwidth, temperature) scale up
//! to fleet percentiles here: a host operator cares less about the mean
//! room than about the tail — the p99 room is the one whose players
//! notice.

use crate::farm::PrerenderFarm;
use crate::matchmaker::MatchmakingMetrics;
use crate::predict::PredictorKind;
use crate::room::RoomReport;
use crate::store::StoreStats;
use coterie_sim::percentile;
use coterie_telemetry::TelemetrySummary;
use std::fmt;

/// Aggregated fleet outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Rooms hosted.
    pub rooms: usize,
    /// Players per room.
    pub players: usize,
    /// Median per-room average FPS.
    pub fps_p50: f64,
    /// 95th-percentile *tail* FPS: 95 % of rooms run at least this fast
    /// (i.e. the 5th percentile of the FPS distribution).
    pub fps_p95: f64,
    /// 99th-percentile tail FPS (1st percentile of the distribution).
    pub fps_p99: f64,
    /// Frame-store hit ratio across all prefetch traffic.
    pub store_hit_ratio: f64,
    /// Aggregate far-BE egress actually shipped, Mbps.
    pub egress_mbps: f64,
    /// GPU-hours spent rendering (on-demand misses + speculative farm).
    pub prerender_gpu_hours: f64,
    /// Hottest device temperature across rooms, °C.
    pub peak_temperature_c: f64,
    /// Rooms that ended degraded (quality scale below 1).
    pub degraded_rooms: usize,
    /// Full-size prefetches the egress budget refused.
    pub egress_refusals: u64,
    /// Prefetches that overflowed a room's bounded queue.
    pub queue_overflows: u64,
    /// Frames evicted by the store's global LRU.
    pub store_evictions: u64,
    /// FI sync rounds attempted on the lossy fault plane across all
    /// rooms (0 when the fleet ran without a fault scenario).
    pub fi_syncs: u64,
    /// FI retransmissions across all rooms.
    pub fi_retries: u64,
    /// Intervals that fell back to dead reckoning across all rooms.
    pub fi_stale_frames: u64,
    /// Stale intervals at or past the dead-reckoning staleness cap.
    pub fi_cap_violations: u64,
    /// Worst displayed avatar staleness across rooms, ms.
    pub fi_max_staleness_ms: f64,
    /// Worst room's p95 dead-reckoned avatar position error, meters.
    pub desync_p95_m: f64,
    /// Worst room's p99 dead-reckoned avatar position error, meters.
    pub desync_p99_m: f64,
    /// Pose predictor that drove the farm's speculation queue.
    pub predictor: PredictorKind,
    /// Speculatively rendered frames admitted to the store(s).
    pub spec_rendered: u64,
    /// Distinct speculative frames that served at least one hit.
    pub spec_used: u64,
    /// Store hits served by a speculative frame.
    pub spec_hits: u64,
    /// Speculative inserts refused by cost-aware admission.
    pub spec_rejected: u64,
    /// Speculation precision: `spec_used / spec_rendered`.
    pub spec_precision: f64,
    /// Speculation recall: `spec_hits / (spec_hits + misses)`.
    pub spec_recall: f64,
    /// Fleet-wide per-frame budget attribution (stage p50/p95/p99,
    /// over-budget frame count, worst-frame drilldown). `None` when the
    /// fleet ran without a telemetry sink — the default — keeping the
    /// untraced report byte-identical to pre-telemetry builds.
    pub telemetry: Option<TelemetrySummary>,
    /// Matchmaking counters (arrivals, admission-queue waits, overflow
    /// rooms). `None` when the fleet ran without churn — the default —
    /// keeping static-roster reports byte-identical to pre-matchmaker
    /// builds.
    pub matchmaking: Option<MatchmakingMetrics>,
}

impl FleetMetrics {
    /// Assembles the metrics from per-room reports and the fleet's
    /// shared accounting objects.
    ///
    /// An empty `reports` slice (a zero-room fleet — only reachable
    /// through this API, since [`crate::Fleet::new`] rejects it) yields
    /// the documented all-zero sentinel: every field is finite, counts
    /// are 0 and `telemetry` is `None`; nothing divides by zero.
    pub fn from_run(
        reports: &[RoomReport],
        store_stats: StoreStats,
        farm: &PrerenderFarm,
        duration_s: f64,
        predictor: PredictorKind,
    ) -> FleetMetrics {
        let fps: Vec<f64> = reports
            .iter()
            .map(|r| r.session.aggregate().avg_fps)
            .collect();
        let inline_gpu_ms: f64 = reports.iter().map(|r| r.inline_gpu_ms).sum();
        let shipped: u64 = reports.iter().map(|r| r.shipped_bytes).sum();
        FleetMetrics {
            rooms: reports.len(),
            players: reports
                .first()
                .map(|r| r.session.players.len())
                .unwrap_or(0),
            fps_p50: percentile(&fps, 50.0),
            fps_p95: percentile(&fps, 5.0),
            fps_p99: percentile(&fps, 1.0),
            store_hit_ratio: store_stats.hit_ratio(),
            egress_mbps: if duration_s > 0.0 {
                shipped as f64 * 8.0 / 1_000_000.0 / duration_s
            } else {
                0.0
            },
            prerender_gpu_hours: (inline_gpu_ms + farm.gpu_ms()) / 3_600_000.0,
            peak_temperature_c: reports
                .iter()
                .map(|r| r.session.resources.peak_temperature_c())
                .fold(0.0, f64::max),
            degraded_rooms: reports
                .iter()
                .filter(|r| r.final_quality_scale < 1.0)
                .count(),
            egress_refusals: reports.iter().map(|r| r.egress_refusals).sum(),
            queue_overflows: reports.iter().map(|r| r.queue_overflows).sum(),
            store_evictions: store_stats.evictions,
            fi_syncs: reports.iter().map(|r| r.session.fi.syncs).sum(),
            fi_retries: reports.iter().map(|r| r.session.fi.retries).sum(),
            fi_stale_frames: reports.iter().map(|r| r.session.fi.stale_frames).sum(),
            fi_cap_violations: reports.iter().map(|r| r.session.fi.cap_violations).sum(),
            fi_max_staleness_ms: reports
                .iter()
                .map(|r| r.session.fi.max_staleness_ms)
                .fold(0.0, f64::max),
            desync_p95_m: reports
                .iter()
                .map(|r| r.session.fi.desync_p95_m)
                .fold(0.0, f64::max),
            desync_p99_m: reports
                .iter()
                .map(|r| r.session.fi.desync_p99_m)
                .fold(0.0, f64::max),
            predictor,
            spec_rendered: store_stats.spec_rendered,
            spec_used: store_stats.spec_used,
            spec_hits: store_stats.spec_hits,
            spec_rejected: store_stats.spec_rejected,
            spec_precision: store_stats.spec_precision(),
            spec_recall: store_stats.spec_recall(),
            telemetry: None,
            matchmaking: None,
        }
    }
}

impl fmt::Display for FleetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fleet: {} rooms x {} players", self.rooms, self.players)?;
        writeln!(
            f,
            "  fps        p50 {:.2}  p95 {:.2}  p99 {:.2}",
            self.fps_p50, self.fps_p95, self.fps_p99
        )?;
        writeln!(
            f,
            "  store      hit ratio {:.4}  evictions {}",
            self.store_hit_ratio, self.store_evictions
        )?;
        writeln!(
            f,
            "  egress     {:.2} Mbps shipped  {} refusals  {} queue overflows",
            self.egress_mbps, self.egress_refusals, self.queue_overflows
        )?;
        writeln!(f, "  prerender  {:.6} GPU-hours", self.prerender_gpu_hours)?;
        writeln!(
            f,
            "  devices    peak {:.2} degC  {} degraded rooms",
            self.peak_temperature_c, self.degraded_rooms
        )?;
        // Only predictor-driven runs print speculation lines: the farm
        // tags even blind speculation, so gating on the counters would
        // break `--predictor none` byte identity with predictor-less
        // reports.
        if self.predictor != PredictorKind::None {
            writeln!(
                f,
                "  speculation {}  rendered {}  used {}  hits {}  rejected {}",
                self.predictor,
                self.spec_rendered,
                self.spec_used,
                self.spec_hits,
                self.spec_rejected
            )?;
            writeln!(
                f,
                "  prediction  precision {:.4}  recall {:.4}",
                self.spec_precision, self.spec_recall
            )?;
        }
        // Only churned runs print a matchmaking line, keeping
        // `--churn none` reports byte-identical to pre-matchmaker
        // builds.
        if let Some(m) = &self.matchmaking {
            writeln!(f, "  matchmaking {m}")?;
        }
        // Only lossy runs print FI lines, keeping lossless reports
        // byte-identical to those predating the fault plane.
        if self.fi_syncs > 0 {
            writeln!(
                f,
                "  fi         {} syncs  {} retries  {} stale frames  {} cap violations",
                self.fi_syncs, self.fi_retries, self.fi_stale_frames, self.fi_cap_violations
            )?;
            writeln!(
                f,
                "  desync     max staleness {:.2} ms  p95 {:.4} m  p99 {:.4} m",
                self.fi_max_staleness_ms, self.desync_p95_m, self.desync_p99_m
            )?;
        }
        // Only traced runs print attribution lines, keeping untraced
        // reports byte-identical to pre-telemetry builds.
        if let Some(t) = &self.telemetry {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_room_fleet_yields_finite_sentinel() {
        // A zero-room fleet (reachable only through this API — the
        // Fleet constructor rejects it) must produce the documented
        // all-zero sentinel with no inf/NaN from empty reductions.
        let m = FleetMetrics::from_run(
            &[],
            StoreStats::default(),
            &PrerenderFarm::new(),
            10.0,
            PredictorKind::None,
        );
        assert_eq!(m.rooms, 0);
        assert_eq!(m.players, 0);
        for v in [
            m.fps_p50,
            m.fps_p95,
            m.fps_p99,
            m.store_hit_ratio,
            m.egress_mbps,
            m.prerender_gpu_hours,
            m.peak_temperature_c,
            m.fi_max_staleness_ms,
            m.desync_p95_m,
            m.desync_p99_m,
        ] {
            assert!(v.is_finite());
            assert_eq!(v, 0.0);
        }
        assert!(m.telemetry.is_none());
        // The Display never divides by zero either.
        let shown = format!("{m}");
        assert!(shown.contains("fleet: 0 rooms x 0 players"));
        assert!(!shown.contains("NaN") && !shown.contains("inf"));
    }

    #[test]
    fn zero_duration_fleet_reports_zero_egress() {
        let m = FleetMetrics::from_run(
            &[],
            StoreStats::default(),
            &PrerenderFarm::new(),
            0.0,
            PredictorKind::None,
        );
        assert_eq!(m.egress_mbps, 0.0);
        assert!(m.egress_mbps.is_finite());
    }
}
