//! One run of one workload: set-up, the timed phases, the output
//! checks, and the metrics computed from what was observed.

use crate::layers;
use crate::pipeline::{self, PipelineRun};
use crate::procfs;
use crate::report::{Metrics, Outcome, Phase};
use crate::socket::{Harness, WINDOWS};
use crate::stats::{mean, median, median_of_windows, quantiles, ratio};
use crate::timed_store::{Op, OpMark};
use crate::workload::{self, Kind, Pose, Sizing, Workload, FRAME_INTERVAL_MS, GAME, SESSION_HZ};
use coterie_serve::StoreStats;
use coterie_server::{ServerStats, ServiceStats};
use coterie_telemetry::{
    chrome_trace_json, SpanEvent, TelemetryConfig, TelemetrySink, TickClock, WallClock,
    VSYNC_BUDGET_MS,
};
use coterie_world::{GameSpec, Scene};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups are repeated (`Sizing::setup_reps`) so `setup_s` is a
/// median, but not once they have taken this long in total.
const SETUP_BUDGET_S: f64 = 4.0;
/// Poses of the run replayed through the real frame path for the
/// `render.*` / `codec.*` / `frame.*` metrics of a socket workload.
const PIPELINE_REPLAY_POSES: usize = 16;
/// Never-sent poses replayed through `frame_for` after the run.
const FRAME_FOR_REPLAY_POSES: u64 = 128;
/// Serve-lane spans written to the Chrome trace (the newest ones).
const CHROME_TRACE_SPANS: usize = 50_000;
/// Latency booked for a pose whose frame never came, ms.
const NEVER_MS: f64 = 5000.0;
/// Worker thread of a one-worker server.
const WORKER_THREAD: &str = "coterie-serve-0";

/// The world every workload plays in (the server builds the same one
/// from `ServerConfig::default().world_seed`).
pub fn world() -> (GameSpec, Arc<Scene>) {
    let spec = GameSpec::for_game(GAME);
    let seed = coterie_server::ServerConfig::default().world_seed;
    let scene = Arc::new(spec.build_scene(seed));
    (spec, scene)
}

pub fn run(workload: &Workload, seed: u64, seconds: u64, traced: bool, smoke: bool) -> Outcome {
    let sizing = workload.sizing(seconds, traced, smoke);
    let mut outcome = match workload.kind {
        Kind::FramePipeline => run_pipeline(workload, &sizing, seed, seconds, traced),
        _ => run_socket(workload, &sizing, seed, seconds, traced).unwrap_or_else(|e| Outcome {
            violations: vec![format!("run aborted: {e}")],
            ..Outcome::default()
        }),
    };
    outcome.sizing = vec![
        ("players", workload.players as f64),
        ("warm_poses_cap", sizing.warm_poses as f64),
        ("paced_poses", sizing.paced_poses as f64),
        ("closed_poses", sizing.closed_poses as f64),
    ];
    outcome
        .end_to_end
        .insert("peak_rss_mb", procfs::peak_rss_mb());
    outcome
}

/// Longest a fixed-count phase may run: twice the share of `--seconds`
/// its count was sized for. Only a host far slower than the one the
/// counts were frozen on gets there; the counts then fall short and the
/// phase table shows it.
fn closed_phase_cap(seconds: u64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * share * 2.0)
}

/// A recording sink on the wall clock, sized so no span of the run is
/// overwritten, plus the clock to place phase boundaries on it.
fn recording_sink(spans: usize) -> (TelemetrySink, Arc<WallClock>) {
    let clock = Arc::new(WallClock::new());
    let config = TelemetryConfig {
        span_capacity: spans,
        span_shards: 2,
        ..TelemetryConfig::default()
    };
    (
        TelemetrySink::recording_with_clock(config, clock.clone()),
        clock,
    )
}

/// Everything observable from outside at one instant.
struct Snapshot {
    at_ms: f64,
    worker_cpu_s: f64,
    harness_cpu_s: f64,
    bytes_read: u64,
    frames: u64,
    payload_bytes: u64,
    store_hits: u64,
    server: ServerStats,
    service: ServiceStats,
    store: StoreStats,
    ops: OpMark,
}

fn snapshot(h: &Harness, clock: &WallClock) -> Snapshot {
    Snapshot {
        at_ms: clock.now_ms(),
        worker_cpu_s: procfs::thread_cpu_s(WORKER_THREAD).unwrap_or(0.0),
        harness_cpu_s: procfs::own_thread_cpu_s(),
        bytes_read: h.bytes_read,
        frames: h.checker.frames,
        payload_bytes: h.checker.payload_bytes,
        store_hits: h.checker.store_hits,
        server: h.server.stats(),
        service: h.server.service().stats(),
        store: h.server.service().store().stats(),
        ops: h.timed_store.as_ref().map_or([0; 3], |s| s.mark()),
    }
}

fn run_socket(
    workload: &Workload,
    sizing: &Sizing,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let (spec, scene) = world();
    let poses_each =
        sizing.warm_poses + sizing.paced_poses + sizing.closed_poses + FRAME_FOR_REPLAY_POSES;
    let paths = workload::player_paths(workload, &scene, &spec, poses_each, seed);
    let capacity = sizing.store_bytes;
    let store_full = |server: &coterie_server::Server| {
        workload.kind == Kind::StoreFull
            && server.stats().store_bytes as f64 >= 0.99 * capacity as f64
    };

    // Set-up: server start, handshakes (the server builds its scene on
    // the first), warm-up. Repeated so `setup_s` is a median; the last
    // set-up is the one measured.
    let mut setup_s = Vec::new();
    let (mut h, warm, sink, clock) = loop {
        // A pose leaves at most a lookup, a render and an encode span,
        // and a farm drain.
        let span_room = 4 * poses_each as usize * workload.players + (1 << 16);
        let (sink, clock) = if traced {
            recording_sink(span_room)
        } else {
            (TelemetrySink::disabled(), Arc::new(WallClock::new()))
        };
        let t0 = Instant::now();
        let mut h = Harness::start(
            workload,
            sizing,
            &paths,
            scene.clone(),
            traced,
            sink.clone(),
        )?;
        let warm = h.closed_loop(sizing.warm_poses, store_full)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == sizing.setup_reps || setup_s.iter().sum::<f64>() > SETUP_BUDGET_S {
            break (h, warm, sink, clock);
        }
        h.stop();
    };
    let mut outcome = Outcome::default();
    if workload.kind == Kind::StoreFull && !store_full(&h.server) {
        outcome.violations.push(format!(
            "store_full: store holds {} of {capacity} bytes after the fill cap",
            h.server.stats().store_bytes
        ));
    }
    if traced {
        h.probe_handshakes(16)?;
    }

    let s0 = snapshot(&h, &clock);
    let mut paced = h.paced(sizing.paced_poses, None)?;
    let s1 = snapshot(&h, &clock);
    let sat_started = Instant::now();
    let sat_cap = closed_phase_cap(seconds, 1.0 - workload::PACED_SHARE);
    let sat = h.closed_loop(sizing.closed_poses, |_| sat_started.elapsed() > sat_cap)?;
    let s2 = snapshot(&h, &clock);

    // Off the clock from here on.
    let undecodable = h.checker.decode_all();
    let answered_paced = paced.latency_ms.iter().filter(|ms| !ms.is_nan()).count() as u64;
    // A pose that never got its frame is as late as a phase waits.
    for ms in &mut paced.latency_ms {
        if ms.is_nan() {
            *ms = NEVER_MS;
        }
    }
    let frames_timed = (s2.frames - s0.frames) as f64;
    let workers = h.server.workers() as f64;
    // Rates between consecutive marks of the saturate phase.
    let mut rates: Vec<f64> = sat
        .marks
        .iter()
        .scan((0, 0.0), |before, &mark| {
            let rate = ratio((mark.0 - before.0) as f64, mark.1 - before.1);
            *before = mark;
            Some(rate)
        })
        .collect();

    let e2e = &mut outcome.end_to_end;
    e2e.insert(
        "sessions_per_core",
        median(&mut rates) / SESSION_HZ / workers,
    );
    let windowed = |f: &dyn Fn(&[f64]) -> f64| median_of_windows(&paced.latency_ms, WINDOWS, f);
    let quantile_of = |q: f64| move |w: &[f64]| quantiles(&mut w.to_vec(), [q])[0];
    e2e.insert("in_budget_share", windowed(&in_budget_share));
    let (p50, p95) = (windowed(&quantile_of(0.5)), windowed(&quantile_of(0.95)));
    let [p99, max] = quantiles(&mut paced.latency_ms, [0.99, 1.0]);
    e2e.insert(
        "wire_bytes_per_frame",
        ratio((s2.bytes_read - s0.bytes_read) as f64, frames_timed),
    );
    let last_setup_s = *setup_s.last().expect("one set-up ran");
    e2e.insert("setup_s", median(&mut setup_s));

    outcome.phases = vec![
        Phase {
            name: "setup",
            wall_s: last_setup_s,
            attempted: warm.attempted,
            succeeded: warm.answered,
            failed: warm.attempted - warm.answered,
        },
        Phase {
            name: "paced",
            wall_s: paced.wall_s,
            attempted: paced.attempted,
            succeeded: answered_paced,
            failed: paced.attempted - answered_paced,
        },
        Phase {
            name: "saturate",
            wall_s: sat.wall_s,
            attempted: sat.attempted,
            succeeded: sat.answered,
            failed: sat.attempted - sat.answered + undecodable,
        },
    ];
    outcome.notes.push(format!(
        "{} players over {} unix-domain connections on the host's loopback, not a real link; \
         {} distinct payloads decoded",
        h.players(),
        h.links(),
        h.checker.distinct_payloads()
    ));

    if h.frames_lost > 0 {
        outcome.notes.push(format!(
            "{} poses lost their frame to egress backpressure (counted as failed)",
            h.frames_lost
        ));
    }

    // Counter-based layer metrics: exact in either pass.
    let store = delta_store(&s0.store, &s2.store);
    let layers = &mut outcome.per_layer;
    let hit_ratio = store.hit_ratio();
    let evictions_per_insert = ratio(store.evictions as f64, store.insertions as f64);
    layers.insert("serve.store.hit_ratio", hit_ratio);
    layers.insert("serve.store.evictions_per_insert", evictions_per_insert);
    layers.insert(
        "serve.store.entries",
        h.server.service().store().len() as f64,
    );
    layers.insert("serve.store.spec_precision", s2.store.spec_precision());
    layers.insert(
        "server.conn.frames_dropped",
        (s2.server.frames_dropped - s0.server.frames_dropped) as f64,
    );
    layers.insert(
        "server.conn.peak_queue_bytes",
        s2.server.peak_queue_bytes as f64,
    );
    layers.insert(
        "server.conn.degrades_sent",
        (s2.server.degrades_sent - s0.server.degrades_sent) as f64,
    );
    layers.insert(
        "net.wire.overhead_bytes_per_frame",
        ratio(
            (s2.bytes_read - s0.bytes_read) as f64 - (s2.payload_bytes - s0.payload_bytes) as f64,
            frames_timed,
        ),
    );
    layers.insert("loadgen.frame_latency_p50_ms", p50);
    layers.insert("loadgen.frame_latency_p95_ms", p95);
    layers.insert("loadgen.frame_latency_p99_ms", p99);
    layers.insert("loadgen.frame_latency_max_ms", max);
    layers.insert(
        "loadgen.gen_lag_p99_ms",
        quantiles(&mut paced.lag_ms, [0.99])[0],
    );

    let flagged_hits = ratio((s2.store_hits - s0.store_hits) as f64, frames_timed);
    match workload.kind {
        Kind::PartyWarm if flagged_hits < 0.99 => outcome.violations.push(format!(
            "party_warm: {flagged_hits:.4} of frames were flagged store hits, want >= 0.99"
        )),
        Kind::RoamCold if s2.store.evictions > 0 => outcome.violations.push(format!(
            "roam_cold: {} evictions, want none",
            s2.store.evictions
        )),
        Kind::StoreFull if evictions_per_insert < 0.9 => outcome.violations.push(format!(
            "store_full: {evictions_per_insert:.3} evictions per insert, want >= 0.9"
        )),
        _ => {}
    }

    if traced {
        traced_layers(
            &mut outcome,
            &mut h,
            &sink,
            &scene,
            [&s0, &s1, &s2],
            sat.answered,
        )?;
        if workload.kind == Kind::PartyWarm
            && outcome.per_layer["server.service.rerender_on_hit_share"] > 0.0
        {
            outcome
                .violations
                .push("party_warm: a store hit re-rendered its frame".into());
        }
    }

    outcome
        .violations
        .extend(h.checker.violations.iter().cloned());
    if h.checker.violation_count > h.checker.violations.len() as u64 {
        outcome.violations.push(format!(
            "{} frame violations in all",
            h.checker.violation_count
        ));
    }
    h.stop();
    Ok(outcome)
}

/// Share of a window's poses whose frame was in hand within the vsync
/// budget.
fn in_budget_share(latency_ms: &[f64]) -> f64 {
    let in_budget = latency_ms
        .iter()
        .filter(|&&ms| ms <= FRAME_INTERVAL_MS)
        .count();
    ratio(in_budget as f64, latency_ms.len() as f64)
}

fn delta_store(from: &StoreStats, to: &StoreStats) -> StoreStats {
    StoreStats {
        hits: to.hits - from.hits,
        misses: to.misses - from.misses,
        insertions: to.insertions - from.insertions,
        evictions: to.evictions - from.evictions,
        ..StoreStats::default()
    }
}

/// The traced pass's layer metrics: spans, the timed store, thread CPU
/// and the replays, and the account of where a pose's CPU time went.
fn traced_layers(
    outcome: &mut Outcome,
    h: &mut Harness,
    sink: &TelemetrySink,
    scene: &Scene,
    [s0, s1, s2]: [&Snapshot; 3],
    sat_poses: u64,
) -> Result<(), String> {
    let spans = sink.spans_snapshot();
    let log = h.timed_store.as_ref().expect("traced pass").log();
    let sat_poses = sat_poses as f64;
    let sat_wall_s = (s2.at_ms - s1.at_ms) / 1000.0;
    let paced_wall_s = (s1.at_ms - s0.at_ms) / 1000.0;

    // Replays on this thread, of this run's poses and frames.
    let frames = h.checker.sample_frames(64);
    let fresh: Vec<Pose> = (0..FRAME_FOR_REPLAY_POSES)
        .map(|i| h.upcoming_pose(i as usize % h.players(), i / h.players() as u64))
        .collect();
    let wire = layers::wire_replay(&frames, &fresh)?;
    let world_us = layers::world_us(scene, &fresh);
    let (hit_us, miss_us) = layers::frame_for_replay(h.server.service(), &fresh);
    let (span_cost_us, timer_cost_us) = layers::trace_costs();
    let replay_poses: Vec<Pose> = fresh
        .iter()
        .step_by(fresh.len() / PIPELINE_REPLAY_POSES)
        .copied()
        .collect();
    let (pipe_sink, _) = recording_sink(1 << 12);
    let pipe = pipeline::run(scene, &replay_poses, &pipe_sink, Duration::MAX);
    let pipe_spans = pipe_sink.spans_snapshot();

    // Both timed windows, for per-call figures.
    let (renders, render_ms) = layers::span_sum(&spans, "far-render", s0.at_ms, s2.at_ms);
    let (encodes, encode_ms) = layers::span_sum(&spans, "far-encode", s0.at_ms, s2.at_ms);
    let service = |a: &Snapshot, b: &Snapshot| {
        (
            (b.service.store_hits - a.service.store_hits) as f64,
            (b.service.store_misses - a.service.store_misses) as f64,
        )
    };
    let (hits, misses) = service(s0, s2);
    let mut lookup = log.window_us(Op::Lookup, &s0.ops, &s2.ops);
    let mut insert = log.window_us(Op::Insert, &s0.ops, &s2.ops);
    let mut spec = log.window_us(Op::InsertSpeculative, &s0.ops, &s2.ops);

    // The saturate window, where the worker is never idle: CPU per
    // pose, and the layers it went to.
    let cpu_us = ratio((s2.worker_cpu_s - s1.worker_cpu_s) * 1e6, sat_poses);
    let sum = |op| log.window_us(op, &s1.ops, &s2.ops).iter().sum::<f64>();
    let (store_us, spec_us) = (
        sum(Op::Lookup) + sum(Op::Insert) + sum(Op::InsertSpeculative),
        sum(Op::InsertSpeculative),
    );
    let sat_span = |name| layers::span_sum(&spans, name, s1.at_ms, s2.at_ms);
    let (sat_renders, sat_render_ms) = sat_span("far-render");
    let (sat_encodes, sat_encode_ms) = sat_span("far-encode");
    let (sat_drains, drain_ms) = sat_span("farm-drain");
    let jobs =
        (s2.ops[Op::InsertSpeculative as usize] - s1.ops[Op::InsertSpeculative as usize]) as f64;
    let (_, sat_misses) = service(s1, s2);
    let farm_us = (drain_ms * 1000.0 - spec_us).max(0.0);
    let attributed_us = world_us
        + wire.pose_decode_us
        + wire.enqueue_flush_us
        + ratio(
            store_us + (sat_render_ms + sat_encode_ms) * 1000.0 + farm_us,
            sat_poses,
        );
    let store_calls: usize = (0..3).map(|i| s2.ops[i] - s1.ops[i]).sum();
    let sat_spans = sat_poses + (sat_renders + sat_encodes + sat_drains) as f64;
    let trace_us = sat_spans * span_cost_us + store_calls as f64 * timer_cost_us;

    let l = &mut outcome.per_layer;
    l.insert(
        "loadgen.cpu_share",
        ratio(s2.harness_cpu_s - s1.harness_cpu_s, sat_wall_s),
    );
    l.insert("server.loop.cpu_us_per_pose", cpu_us);
    l.insert(
        "server.loop.utilisation",
        ratio(s1.worker_cpu_s - s0.worker_cpu_s, paced_wall_s),
    );
    l.insert("server.loop.handshake_us", median(&mut h.handshake_us));
    l.insert(
        "server.loop.unattributed_us_per_pose",
        cpu_us - attributed_us,
    );
    l.insert("server.conn.enqueue_flush_us", wire.enqueue_flush_us);
    l.insert("net.wire.frame_encode_us", wire.frame_encode_us);
    l.insert("net.wire.frame_decode_us", wire.frame_decode_us);
    l.insert("net.wire.pose_decode_us", wire.pose_decode_us);
    l.insert("server.service.frame_for_hit_us", hit_us);
    l.insert("server.service.frame_for_miss_us", miss_us);
    l.insert(
        "server.service.render_us",
        ratio(render_ms * 1000.0, renders as f64),
    );
    l.insert(
        "server.service.encode_us",
        ratio(encode_ms * 1000.0, encodes as f64),
    );
    l.insert(
        "server.service.maintain_us_per_pose",
        ratio(drain_ms * 1000.0, sat_poses),
    );
    l.insert("server.service.world_us", world_us);
    l.insert(
        "server.service.rerender_on_hit_share",
        ratio((renders as f64 - misses).max(0.0), hits),
    );
    l.insert("serve.store.lookup_us_p50", median(&mut lookup));
    let [insert_p50, insert_p99] = quantiles(&mut insert, [0.5, 0.99]);
    l.insert("serve.store.insert_us_p50", insert_p50);
    l.insert("serve.store.insert_us_p99", insert_p99);
    l.insert("serve.store.insert_speculative_us_p50", median(&mut spec));
    l.insert("serve.store.busy_us_per_pose", ratio(store_us, sat_poses));
    l.insert("serve.farm.drain_us_per_job", ratio(farm_us, jobs));
    l.insert("serve.farm.jobs_per_miss", ratio(jobs, sat_misses));
    l.insert(
        "trace.overhead_share",
        ratio(trace_us, (s2.worker_cpu_s - s1.worker_cpu_s) * 1e6),
    );
    pipeline_layers(l, &pipe, &pipe_spans);

    if l["loadgen.cpu_share"] > 0.9 {
        outcome.notes.push(format!(
            "GENERATOR-BOUND: the load generator used {:.2} of a core in saturate; \
             sessions_per_core is a floor, not the server's limit",
            l["loadgen.cpu_share"]
        ));
    }
    outcome.chrome_trace = Some(chrome_trace(&spans, &pipe_spans));
    Ok(())
}

/// The Chrome trace of a traced pass: the tail of the serve lane's
/// spans (a whole window is hundreds of thousands) and every span of
/// the frame-path replay.
fn chrome_trace(serve: &[SpanEvent], pipeline: &[SpanEvent]) -> String {
    let tail = &serve[serve.len().saturating_sub(CHROME_TRACE_SPANS)..];
    chrome_trace_json(&[tail, pipeline].concat(), &[], VSYNC_BUDGET_MS)
}

/// `render.*`, `codec.*` and `frame.*` from a pass over the frame
/// path. Encode time is the codec's own span; the far render is what
/// remains of `far_be` around it.
fn pipeline_layers(l: &mut Metrics, pipe: &PipelineRun, spans: &[SpanEvent]) {
    let on_harness = |name: &str| {
        let picked: Vec<f64> = spans
            .iter()
            .filter(|s| s.track == pipeline::HARNESS_TRACK && s.name == name)
            .map(|s| s.dur_ms)
            .collect();
        mean(&picked)
    };
    let encode_ms = on_harness("encode");
    l.insert("codec.encode_us", encode_ms * 1000.0);
    l.insert("codec.decode_us", mean(&pipe.decode_us));
    l.insert(
        "codec.bytes_per_pixel",
        ratio(
            pipe.encoded_bytes as f64,
            (pipe.frame_ms.len() as u64 * pipe.pixels_per_frame) as f64,
        ),
    );
    l.insert("render.far_ms", mean(&pipe.far_be_ms) - encode_ms);
    l.insert("render.near_ms", mean(&pipe.near_ms));
    l.insert("render.merge_us", mean(&pipe.merge_us));
    l.insert("render.fov_crop_us", mean(&pipe.crop_us));
    l.insert("frame.ssim_us", mean(&pipe.ssim_us));
    l.insert("frame.ssim_mean", mean(&pipe.ssim));
}

fn run_pipeline(
    workload: &Workload,
    sizing: &Sizing,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Outcome {
    let (spec, scene) = world();
    // Several independent paths, interleaved pose by pose: every
    // window of the run then sees every path, and a run is less at the
    // mercy of one path's scenery.
    let total = sizing.warm_poses + sizing.closed_poses;
    let paths = workload.players as u64;
    let each = workload::player_paths(workload, &scene, &spec, total.div_ceil(paths), seed);
    let poses: Vec<Pose> = (0..total)
        .map(|i| each[(i % paths) as usize].pose(i / paths))
        .collect();
    let (warm, timed) = poses.split_at(sizing.warm_poses as usize);

    // Set-up: scene build, renderer tables and a few warm-up poses.
    let mut setup_s = Vec::new();
    for _ in 0..sizing.setup_reps {
        let t0 = Instant::now();
        let (_, scene) = world();
        pipeline::run(&scene, warm, &TelemetrySink::disabled(), Duration::MAX);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let (sink, _clock) = if traced {
        recording_sink(16 * timed.len() + (1 << 12))
    } else {
        (TelemetrySink::disabled(), Arc::new(WallClock::new()))
    };
    let cpu0 = procfs::own_thread_cpu_s();
    let pipe = pipeline::run(&scene, timed, &sink, closed_phase_cap(seconds, 1.0));
    let cpu_s = procfs::own_thread_cpu_s() - cpu0;

    let mut outcome = Outcome::default();
    let frames = pipe.frame_ms.len() as u64;
    let ssim_mean = mean(&pipe.ssim);
    let spans = sink.spans_snapshot();
    pipeline_layers(&mut outcome.per_layer, &pipe, &spans);
    if traced {
        let (span_cost_us, _) = layers::trace_costs();
        outcome.per_layer.insert(
            "trace.overhead_share",
            ratio(spans.len() as f64 * span_cost_us, cpu_s * 1e6),
        );
        outcome.chrome_trace = Some(chrome_trace(&[], &spans));
    }
    let e2e = &mut outcome.end_to_end;
    // A window's rate: its poses over the time from the previous
    // window's last pose to its own.
    let mut rates: Vec<f64> = pipe
        .done_s
        .chunks(pipe.done_s.len().div_ceil(WINDOWS).max(1))
        .scan(0.0, |before, w| {
            let end = w[w.len() - 1];
            let rate = ratio(w.len() as f64, end - *before);
            *before = end;
            Some(rate)
        })
        .collect();
    e2e.insert("sessions_per_core", median(&mut rates) / SESSION_HZ);
    let windowed = |f: &dyn Fn(&[f64]) -> f64| median_of_windows(&pipe.frame_ms, WINDOWS, f);
    e2e.insert("in_budget_share", windowed(&in_budget_share));
    let [p50, p95, p99, max] = quantiles(&mut pipe.frame_ms.clone(), [0.5, 0.95, 0.99, 1.0]);
    let layers = &mut outcome.per_layer;
    layers.insert("loadgen.frame_latency_p50_ms", p50);
    layers.insert("loadgen.frame_latency_p95_ms", p95);
    layers.insert("loadgen.frame_latency_p99_ms", p99);
    layers.insert("loadgen.frame_latency_max_ms", max);
    e2e.insert(
        "wire_bytes_per_frame",
        ratio(pipe.encoded_bytes as f64, frames as f64),
    );
    let last_setup_s = *setup_s.last().expect("set-up ran");
    e2e.insert("setup_s", median(&mut setup_s));
    outcome.phases = vec![
        Phase {
            name: "setup",
            wall_s: last_setup_s,
            attempted: warm.len() as u64,
            succeeded: warm.len() as u64,
            failed: 0,
        },
        Phase {
            name: "pipeline",
            wall_s: pipe.wall_s,
            // Poses a capped run never started were not attempted.
            attempted: frames,
            succeeded: frames,
            failed: 0,
        },
    ];
    outcome.notes.push(format!(
        "one thread, no sockets, no store: wire_bytes_per_frame is the encoded far-BE payload, \
         frame latency is far-BE request to cropped view; merged-vs-whole-scene SSIM {ssim_mean:.4} \
         over {} probes; frame interval {FRAME_INTERVAL_MS} ms",
        pipe.ssim.len()
    ));
    if ssim_mean < 0.9 {
        outcome.violations.push(format!(
            "frame_pipeline: mean SSIM {ssim_mean:.4} of merged frames against whole-scene renders, want >= 0.9"
        ));
    }
    outcome
}
