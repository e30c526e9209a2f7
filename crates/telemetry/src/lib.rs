//! # coterie-telemetry
//!
//! Low-overhead observability for the Coterie pipeline.
//!
//! Coterie's whole argument is a per-frame time budget: constraint 1
//! (§4) demands that FI plus near-BE rendering finish inside the
//! 16.7 ms vsync interval, and Eq. 2 names the tasks competing for it.
//! End-of-run aggregates cannot say *which stage* of *which frame* blew
//! that budget; this crate can. It provides three layers:
//!
//! * **Spans** — fixed-capacity ring buffers of `Copy` events
//!   ([`SpanEvent`]), sharded across threads so the render band workers
//!   never contend on one lock. Recording a span is a shard pick, a
//!   mutex lock of an uncontended shard, and two array writes — no
//!   allocation on the hot path.
//! * **Budget attribution** — one [`FrameRecord`] per displayed frame,
//!   decomposing it into render / decode / net (incl. retries and
//!   backoff waits) / FI-sync / cache-lookup / compose stages under the
//!   system's [`AttributionModel`], and flagging frames whose
//!   attributed time exceeds the vsync budget with the dominating stage
//!   named. Per-stage [`LogHistogram`]s (log-bucketed, HDR-style,
//!   mergeable) feed the p50/p95/p99 summary.
//! * **Export** — Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto ([`chrome_trace_json`]) plus a
//!   compact [`TelemetrySummary`] merged into fleet reports.
//!
//! Everything hangs off a [`TelemetrySink`] handle. A disabled sink is
//! a `None` behind `#[inline]` methods: every record call is a single
//! branch, so instrumented code costs nothing measurable when telemetry
//! is off (the `telemetry_noop_overhead` bench in `coterie-bench`
//! guards this).
//!
//! Determinism: the simulation drives all [`FrameRecord`]s with
//! *simulated* timestamps, so summaries are reproducible run-to-run.
//! Wall-clock spans (if any) only ever feed the trace export, never the
//! deterministic summary. The clock is injected ([`TickClock`]) rather
//! than read from `std::time` internally.
//!
//! # Example
//!
//! ```
//! use coterie_telemetry::{
//!     AttributionModel, FrameRecord, Stage, TelemetryConfig, TelemetrySink, TrackId,
//! };
//!
//! let sink = TelemetrySink::recording(TelemetryConfig::default());
//! sink.span(TrackId { pid: 1, tid: 0 }, Stage::Render, "band", 0.0, 3.2, 1);
//! sink.frame(FrameRecord {
//!     room: 0,
//!     player: 0,
//!     frame: 1,
//!     start_ms: 0.0,
//!     render_ms: 9.0,
//!     decode_ms: 11.0,
//!     net_ms: 0.0,
//!     sync_ms: 2.5,
//!     cache_ms: 0.3,
//!     compose_ms: 2.0,
//!     critical_ms: 13.0,
//!     model: AttributionModel::Parallel,
//! });
//! let summary = sink.summary().unwrap();
//! assert_eq!(summary.frames, 1);
//! assert_eq!(summary.over_budget, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod ring;
pub mod sink;
pub mod summary;
pub mod trace;

pub use clock::{ManualClock, TickClock, WallClock};
pub use hist::LogHistogram;
pub use ring::Ring;
pub use sink::{CounterEvent, Recorder, SpanEvent, TelemetryConfig, TelemetrySink, TrackId};
pub use summary::{
    AttributionModel, FrameRecord, FrameStats, Stage, StageSummary, TelemetrySummary,
    VSYNC_BUDGET_MS,
};
pub use trace::{
    chrome_trace_json, chrome_trace_json_full, parse_json, player_lane_valid, player_tid,
    room_lane_valid, room_pid, room_tid, room_tid_valid, validate_chrome_trace, JsonValue,
    TraceCheck, FARM_TID, FLEET_PID, KERNEL_PID, SERVE_PID, SERVICE_TID,
};
