//! Layer costs measured from outside, on the harness thread: replays
//! of the run's own poses and frames through each layer's public
//! functions, and sums over the spans the serve lane already records.

use crate::workload::{Pose, GAME};
use coterie_codec::EncodedFrame;
use coterie_net::wire::{FrameAssembler, WireMessage};
use coterie_server::service::quality_to_wire;
use coterie_server::{Connection, ServiceCore, Stream};
use coterie_telemetry::{SpanEvent, TelemetrySink};
use coterie_world::{Scene, Vec2};
use std::hint::black_box;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Passes over the sample set per replayed operation.
const REPLAY_ROUNDS: usize = 200;

/// Count and total duration of the spans named `name` that start inside
/// `[from_ms, to_ms)`.
pub fn span_sum(spans: &[SpanEvent], name: &str, from_ms: f64, to_ms: f64) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name && s.start_ms >= from_ms && s.start_ms < to_ms)
        .fold((0, 0.0), |(n, ms), s| (n + 1, ms + s.dur_ms))
}

/// Mean µs per call of `op`, over [`REPLAY_ROUNDS`] passes of `items`.
fn mean_us<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        for item in items {
            op(item);
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (REPLAY_ROUNDS * items.len()) as f64
}

/// What the wire and connection layers cost per message, replayed over
/// frames the run delivered and poses it sent.
#[derive(Debug, Default)]
pub struct WireReplay {
    pub frame_encode_us: f64,
    pub frame_decode_us: f64,
    pub pose_decode_us: f64,
    /// `Connection::enqueue_frame` + `flush` into a socket pair; holds
    /// the frame's wire encoding and the write syscall.
    pub enqueue_flush_us: f64,
}

pub fn wire_replay(frames: &[EncodedFrame], poses: &[Pose]) -> Result<WireReplay, String> {
    let frame_msgs: Vec<WireMessage> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| WireMessage::Frame {
            seq: i as u64,
            width: f.width,
            height: f.height,
            quality: quality_to_wire(f.quality),
            store_hit: true,
            scale_pm: 1000,
            payload: f.payload.to_vec(),
        })
        .collect();
    let frame_bytes: Vec<Vec<u8>> = frame_msgs.iter().map(|m| m.encode_frame()).collect();
    let pose_bytes: Vec<Vec<u8>> = poses
        .iter()
        .enumerate()
        .map(|(i, p)| {
            WireMessage::Pose {
                seq: i as u64,
                t_ms: i as f64,
                x: p.x,
                z: p.z,
                yaw: p.yaw,
            }
            .encode_frame()
        })
        .collect();

    let mut asm = FrameAssembler::new();
    let mut decode = |bytes: &Vec<u8>| {
        asm.push(bytes);
        black_box(asm.next_message().expect("own encoding decodes"));
    };
    let mut replay = WireReplay {
        frame_encode_us: mean_us(&frame_msgs, |m| {
            black_box(m.encode_frame());
        }),
        frame_decode_us: mean_us(&frame_bytes, &mut decode),
        pose_decode_us: mean_us(&pose_bytes, &mut decode),
        enqueue_flush_us: 0.0,
    };

    // The server's side of a connection, with this thread as the peer
    // that reads everything back between timed calls.
    let (a, mut b) = UnixStream::pair().map_err(|e| e.to_string())?;
    a.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut conn = Connection::new(Stream::Unix(a), 256 * 1024);
    let mut read_back = vec![0u8; frame_bytes.iter().map(Vec::len).max().unwrap_or(0)];
    let mut timed = std::time::Duration::ZERO;
    let mut calls = 0u32;
    for _ in 0..REPLAY_ROUNDS {
        for (msg, bytes) in frame_msgs.iter().zip(&frame_bytes) {
            let t0 = Instant::now();
            let queued = conn.enqueue_frame(msg);
            let flushed = conn.flush();
            timed += t0.elapsed();
            calls += 1;
            if !queued || !matches!(flushed, Ok(true)) {
                return Err("replay connection did not take a frame".into());
            }
            b.read_exact(&mut read_back[..bytes.len()])
                .map_err(|e| e.to_string())?;
        }
    }
    if calls > 0 {
        replay.enqueue_flush_us = timed.as_secs_f64() * 1e6 / calls as f64;
    }
    Ok(replay)
}

/// `ServiceCore::frame_for`'s pose-to-identity step: grid snap, grid
/// position, near-set hash. The radius is `service.rs`'s private
/// `near_radius` (two grid spacings).
pub fn world_us(scene: &Scene, poses: &[Pose]) -> f64 {
    let grid = scene.grid();
    let near_radius = grid.spacing() * 2.0;
    mean_us(poses, |p| {
        let g = grid.snap(Vec2::new(p.x, p.z));
        let gpos = grid.position(g);
        black_box(scene.near_set_hash(gpos, near_radius));
    })
}

/// Mean `frame_for` time by outcome, µs: `(hit, miss)`. `fresh` are
/// poses the run never sent (mostly misses against the live store);
/// each is then asked again (a hit). `maintain` runs after every pose,
/// as the worker loop does.
pub fn frame_for_replay(service: &ServiceCore, fresh: &[Pose]) -> (f64, f64) {
    let (mut hit_us, mut hits, mut miss_us, mut misses) = (0.0, 0u32, 0.0, 0u32);
    for pose in fresh {
        for _ in 0..2 {
            let t0 = Instant::now();
            let reply = service.frame_for(GAME, 0, Vec2::new(pose.x, pose.z), 0);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if reply.store_hit {
                hit_us += us;
                hits += 1;
            } else {
                miss_us += us;
                misses += 1;
            }
            service.maintain(0);
        }
    }
    (
        crate::stats::ratio(hit_us, hits as f64),
        crate::stats::ratio(miss_us, misses as f64),
    )
}

/// What recording costs: µs per span pushed into a recording sink
/// (two clock reads and the ring push, as the serve lane does it), and
/// µs per pair of clock reads (the timed store's cost per call).
pub fn trace_costs() -> (f64, f64) {
    let probe: Vec<u32> = (0..64).collect();
    let sink = TelemetrySink::recording_with_clock(
        coterie_telemetry::TelemetryConfig::default(),
        std::sync::Arc::new(coterie_telemetry::WallClock::new()),
    );
    let track = coterie_telemetry::TrackId { pid: 0, tid: 0 };
    let span_us = mean_us(&probe, |_| {
        let t = sink.now_ms();
        sink.span(
            track,
            coterie_telemetry::Stage::Tick,
            "trace-cost-probe",
            t,
            sink.now_ms() - t,
            0,
        );
    });
    let timer_us = mean_us(&probe, |_| {
        let t0 = Instant::now();
        black_box(t0.elapsed());
    });
    (span_us, timer_us)
}
