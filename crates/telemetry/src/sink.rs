//! The recording sink and its zero-cost disabled form.
//!
//! Instrumented code holds a [`TelemetrySink`] — a cloneable handle
//! that is either disabled (`None`, the default: every record call is
//! one branch on an always-taken fast path and compiles to nothing
//! measurable) or recording into a shared [`Recorder`]. The recorder
//! keeps span rings sharded per thread so the parallel render bands
//! and farm workers never contend on a single lock.

use crate::clock::{ManualClock, TickClock};
use crate::hist::LogHistogram;
use crate::ring::Ring;
use crate::summary::{FrameRecord, Stage, StageSummary, TelemetrySummary, VSYNC_BUDGET_MS};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a span is drawn in the trace: `pid` groups tracks into a
/// process lane (a room, the fleet, the kernel pool), `tid` is the
/// thread/track within it (a player, a render band, a worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId {
    /// Process lane.
    pub pid: u32,
    /// Track within the lane.
    pub tid: u32,
}

/// One completed span. `Copy` and `&'static str`-named so recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Trace lane.
    pub track: TrackId,
    /// Stage the time is charged to (becomes the trace category).
    pub stage: Stage,
    /// Human-readable span name.
    pub name: &'static str,
    /// Start, ms (simulated unless the instrumenter says otherwise).
    pub start_ms: f64,
    /// Duration, ms.
    pub dur_ms: f64,
    /// Frame number the span belongs to (0 when not frame-scoped).
    pub frame: u64,
}

/// One counter/gauge sample: the value of a named quantity at an
/// instant (store occupancy, egress-queue depth, live connections).
/// Exported as a Chrome-trace `ph:"C"` event, which renders as a
/// stepped area chart over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterEvent {
    /// Trace lane the counter chart lives in.
    pub track: TrackId,
    /// Counter name (one chart per name per lane).
    pub name: &'static str,
    /// Sample instant, ms.
    pub t_ms: f64,
    /// Sampled value.
    pub value: f64,
}

/// Capacities and budget for a recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Span ring capacity per shard.
    pub span_capacity: usize,
    /// Number of span ring shards (threads are spread across them).
    pub span_shards: usize,
    /// Frame-record ring capacity.
    pub frame_capacity: usize,
    /// Counter-sample ring capacity (counters are sampled at epoch /
    /// poll-loop granularity, so one shared ring suffices).
    pub counter_capacity: usize,
    /// Vsync budget frames are judged against, ms.
    pub budget_ms: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            span_capacity: 4096,
            span_shards: 8,
            frame_capacity: 16384,
            counter_capacity: 8192,
            budget_ms: VSYNC_BUDGET_MS,
        }
    }
}

/// Deterministic aggregates fed only by [`FrameRecord`]s.
#[derive(Debug)]
struct Aggregates {
    stages: [LogHistogram; 6],
    frame: LogHistogram,
    frames: u64,
    over_budget: u64,
    worst: Option<FrameRecord>,
}

impl Aggregates {
    fn new() -> Self {
        Aggregates {
            stages: std::array::from_fn(|_| LogHistogram::new()),
            frame: LogHistogram::new(),
            frames: 0,
            over_budget: 0,
            worst: None,
        }
    }
}

/// Shared recording state behind an enabled [`TelemetrySink`].
#[derive(Debug)]
pub struct Recorder {
    shards: Vec<Mutex<Ring<SpanEvent>>>,
    frames: Mutex<Ring<FrameRecord>>,
    counters: Mutex<Ring<CounterEvent>>,
    agg: Mutex<Aggregates>,
    clock: Arc<dyn TickClock>,
    manual: Option<Arc<ManualClock>>,
    budget_ms: f64,
}

/// Hands each thread a stable shard ticket on first use; the recorder
/// maps it onto its own shard count.
static NEXT_THREAD_TICKET: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_ticket() -> usize {
    THREAD_TICKET.with(|t| {
        let mut ticket = t.get();
        if ticket == usize::MAX {
            ticket = NEXT_THREAD_TICKET.fetch_add(1, Ordering::Relaxed);
            t.set(ticket);
        }
        ticket
    })
}

impl Recorder {
    fn new(
        config: TelemetryConfig,
        clock: Arc<dyn TickClock>,
        manual: Option<Arc<ManualClock>>,
    ) -> Self {
        let shards = config.span_shards.max(1);
        Recorder {
            shards: (0..shards)
                .map(|_| Mutex::new(Ring::new(config.span_capacity.max(1))))
                .collect(),
            frames: Mutex::new(Ring::new(config.frame_capacity.max(1))),
            counters: Mutex::new(Ring::new(config.counter_capacity.max(1))),
            agg: Mutex::new(Aggregates::new()),
            clock,
            manual,
            budget_ms: config.budget_ms,
        }
    }

    fn record_span(&self, span: SpanEvent) {
        let shard = thread_ticket() % self.shards.len();
        self.shards[shard].lock().push(span);
    }

    fn record_frame(&self, rec: FrameRecord) {
        self.frames.lock().push(rec);
        let mut agg = self.agg.lock();
        for (i, &stage) in Stage::ATTRIBUTED.iter().enumerate() {
            agg.stages[i].record(rec.stage_ms(stage));
        }
        agg.frame.record(rec.attributed_ms());
        agg.frames += 1;
        if rec.over_budget(self.budget_ms) {
            agg.over_budget += 1;
        }
        let worse = match &agg.worst {
            Some(w) => rec.attributed_ms() > w.attributed_ms(),
            None => true,
        };
        if worse {
            agg.worst = Some(rec);
        }
    }
}

/// Cloneable telemetry handle: disabled by default, recording when
/// built with [`TelemetrySink::recording`].
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Recorder>>,
}

impl TelemetrySink {
    /// The no-op sink. All record methods are a single branch.
    pub fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// A recording sink driven by an internal [`ManualClock`] (advance
    /// it with [`TelemetrySink::set_time_ms`]).
    pub fn recording(config: TelemetryConfig) -> Self {
        let manual = Arc::new(ManualClock::new());
        TelemetrySink {
            inner: Some(Arc::new(Recorder::new(
                config,
                manual.clone(),
                Some(manual),
            ))),
        }
    }

    /// A recording sink driven by a caller-injected clock.
    pub fn recording_with_clock(config: TelemetryConfig, clock: Arc<dyn TickClock>) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(Recorder::new(config, clock, None))),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The injected clock's current time (0.0 when disabled).
    #[inline]
    pub fn now_ms(&self) -> f64 {
        match &self.inner {
            Some(r) => r.clock.now_ms(),
            None => 0.0,
        }
    }

    /// Advances the internal manual clock (no-op when disabled or when
    /// an external clock was injected).
    #[inline]
    pub fn set_time_ms(&self, now_ms: f64) {
        if let Some(r) = &self.inner {
            if let Some(m) = &r.manual {
                m.set_ms(now_ms);
            }
        }
    }

    /// The budget frames are judged against (the vsync default when
    /// disabled).
    #[inline]
    pub fn budget_ms(&self) -> f64 {
        match &self.inner {
            Some(r) => r.budget_ms,
            None => VSYNC_BUDGET_MS,
        }
    }

    /// Records a completed span.
    #[inline]
    pub fn span(
        &self,
        track: TrackId,
        stage: Stage,
        name: &'static str,
        start_ms: f64,
        dur_ms: f64,
        frame: u64,
    ) {
        if let Some(r) = &self.inner {
            r.record_span(SpanEvent {
                track,
                stage,
                name,
                start_ms,
                dur_ms,
                frame,
            });
        }
    }

    /// Records one displayed frame's attribution.
    #[inline]
    pub fn frame(&self, rec: FrameRecord) {
        if let Some(r) = &self.inner {
            r.record_frame(rec);
        }
    }

    /// Records one counter/gauge sample ([`CounterEvent`]).
    #[inline]
    pub fn counter(&self, track: TrackId, name: &'static str, t_ms: f64, value: f64) {
        if let Some(r) = &self.inner {
            r.counters.lock().push(CounterEvent {
                track,
                name,
                t_ms,
                value,
            });
        }
    }

    /// Deterministic run summary (`None` when disabled).
    pub fn summary(&self) -> Option<TelemetrySummary> {
        let r = self.inner.as_ref()?;
        let agg = r.agg.lock();
        let mut spans_recorded = 0u64;
        let mut spans_dropped = 0u64;
        for shard in &r.shards {
            let s = shard.lock();
            spans_recorded += s.pushed();
            spans_dropped += s.dropped();
        }
        Some(TelemetrySummary {
            frames: agg.frames,
            over_budget: agg.over_budget,
            budget_ms: r.budget_ms,
            stages: std::array::from_fn(|i| StageSummary::from_hist(&agg.stages[i])),
            frame: StageSummary::from_hist(&agg.frame),
            stage_hists: agg.stages.clone(),
            frame_hist: agg.frame.clone(),
            worst: agg.worst,
            spans_recorded,
            spans_dropped,
        })
    }

    /// All retained counter samples, in deterministic order (sorted by
    /// time, then lane, then name). Empty when disabled.
    pub fn counters_snapshot(&self) -> Vec<CounterEvent> {
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        let mut counters = r.counters.lock().snapshot();
        counters.sort_by(|a, b| {
            a.t_ms
                .total_cmp(&b.t_ms)
                .then(a.track.pid.cmp(&b.track.pid))
                .then(a.track.tid.cmp(&b.track.tid))
                .then(a.name.cmp(b.name))
                .then(a.value.total_cmp(&b.value))
        });
        counters
    }

    /// All retained spans across shards, in deterministic order
    /// (sorted by start time, then lane, then name) regardless of which
    /// thread recorded where. Empty when disabled.
    pub fn spans_snapshot(&self) -> Vec<SpanEvent> {
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        let mut spans: Vec<SpanEvent> = Vec::new();
        for shard in &r.shards {
            spans.extend(shard.lock().snapshot());
        }
        spans.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then(a.track.pid.cmp(&b.track.pid))
                .then(a.track.tid.cmp(&b.track.tid))
                .then(a.frame.cmp(&b.frame))
                .then(a.name.cmp(b.name))
                .then(a.dur_ms.total_cmp(&b.dur_ms))
        });
        spans
    }

    /// All retained frame records, sorted by start time then identity.
    /// Empty when disabled.
    pub fn frames_snapshot(&self) -> Vec<FrameRecord> {
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        let mut frames = r.frames.lock().snapshot();
        frames.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then(a.room.cmp(&b.room))
                .then(a.player.cmp(&b.player))
                .then(a.frame.cmp(&b.frame))
        });
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::AttributionModel;

    fn rec(frame: u64, decode_ms: f64) -> FrameRecord {
        FrameRecord {
            room: 0,
            player: 0,
            frame,
            start_ms: frame as f64 * 16.7,
            render_ms: 8.0,
            decode_ms,
            net_ms: 0.0,
            sync_ms: 2.5,
            cache_ms: 0.3,
            compose_ms: 2.0,
            critical_ms: 0.0,
            model: AttributionModel::Parallel,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.span(
            TrackId { pid: 0, tid: 0 },
            Stage::Render,
            "band",
            0.0,
            1.0,
            0,
        );
        sink.frame(rec(0, 1.0));
        assert!(sink.summary().is_none());
        assert!(sink.spans_snapshot().is_empty());
        assert!(sink.frames_snapshot().is_empty());
        assert_eq!(sink.budget_ms(), VSYNC_BUDGET_MS);
    }

    #[test]
    fn recording_sink_aggregates_frames() {
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        sink.frame(rec(0, 10.0));
        sink.frame(rec(1, 20.0)); // 22 ms attributed: over budget
        let s = sink.summary().unwrap();
        assert_eq!(s.frames, 2);
        assert_eq!(s.over_budget, 1);
        assert_eq!(s.worst.unwrap().frame, 1);
        // stages[1] is decode in ATTRIBUTED order.
        assert!(s.stages[1].max_ms >= 20.0);
        assert!(s.frame.max_ms >= 22.0);
    }

    #[test]
    fn clones_share_the_recorder() {
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let clone = sink.clone();
        clone.frame(rec(0, 1.0));
        assert_eq!(sink.summary().unwrap().frames, 1);
    }

    #[test]
    fn spans_snapshot_is_sorted_and_counts_drops() {
        let sink = TelemetrySink::recording(TelemetryConfig {
            span_capacity: 2,
            span_shards: 1,
            ..TelemetryConfig::default()
        });
        let t = TrackId { pid: 1, tid: 0 };
        sink.span(t, Stage::Render, "c", 3.0, 1.0, 0);
        sink.span(t, Stage::Render, "a", 1.0, 1.0, 0);
        sink.span(t, Stage::Render, "b", 2.0, 1.0, 0);
        let spans = sink.spans_snapshot();
        assert_eq!(spans.len(), 2, "capacity 2 keeps the newest two");
        assert!(spans.windows(2).all(|w| w[0].start_ms <= w[1].start_ms));
        let s = sink.summary().unwrap();
        assert_eq!(s.spans_recorded, 3);
        assert_eq!(s.spans_dropped, 1);
    }

    #[test]
    fn counters_snapshot_is_sorted_and_disabled_is_empty() {
        let disabled = TelemetrySink::disabled();
        disabled.counter(TrackId { pid: 0, tid: 0 }, "depth", 0.0, 1.0);
        assert!(disabled.counters_snapshot().is_empty());

        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let t = TrackId {
            pid: 20_000,
            tid: 3,
        };
        sink.counter(t, "egress-queue", 5.0, 2.0);
        sink.counter(t, "egress-queue", 1.0, 7.0);
        sink.counter(t, "connections", 1.0, 4.0);
        let c = sink.counters_snapshot();
        assert_eq!(c.len(), 3);
        assert!(c.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
        assert_eq!(c[0].name, "connections"); // name breaks the t=1 tie
        assert_eq!(c[2].value, 2.0);
    }

    #[test]
    fn summary_carries_mergeable_histograms() {
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        sink.frame(rec(0, 10.0));
        sink.frame(rec(1, 20.0));
        let s = sink.summary().unwrap();
        assert_eq!(s.frame_hist.count(), 2);
        // stage_hists[1] is decode in ATTRIBUTED order.
        assert_eq!(s.stage_hists[1].count(), 2);
        assert_eq!(s.stage_hists[1].max_ms(), 20.0);
        let mut merged = s.frame_hist.clone();
        merged.merge(&s.frame_hist);
        assert_eq!(merged.count(), 4);
    }

    #[test]
    fn manual_clock_advances_via_sink() {
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        assert_eq!(sink.now_ms(), 0.0);
        sink.set_time_ms(500.0);
        assert_eq!(sink.now_ms(), 500.0);
    }

    #[test]
    fn spans_from_many_threads_all_arrive() {
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        std::thread::scope(|scope| {
            for tid in 0..4u32 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.span(
                            TrackId { pid: 0, tid },
                            Stage::Farm,
                            "job",
                            i as f64,
                            0.5,
                            i,
                        );
                    }
                });
            }
        });
        assert_eq!(sink.summary().unwrap().spans_recorded, 400);
        assert_eq!(sink.spans_snapshot().len(), 400);
    }
}
