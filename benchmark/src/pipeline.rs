//! The paper's real frame path on one thread, no sockets and no store:
//! far-BE render + encode on the "server", decode on the "phone",
//! near-BE render, merge, FoV crop — the sequence
//! `tests/pipeline_integration.rs` runs, along a roam path.
//!
//! It is the `frame_pipeline` workload, and — over a handful of the
//! run's own poses — the source of the `render.*`, `codec.*` and
//! `frame.*` layer metrics of every traced pass.

use crate::workload::Pose;
use coterie_frame::ssim;
use coterie_render::{merge, FovOptions, Panorama, RenderFilter, RenderOptions, Renderer};
use coterie_sim::RenderServer;
use coterie_telemetry::{Stage, TelemetrySink, TrackId, SERVE_PID};
use coterie_world::{Scene, Vec2};
use std::time::{Duration, Instant};

/// Near/far split radius, meters.
pub const CUTOFF_M: f64 = 10.0;
/// Every this-many poses the merged frame is compared with a
/// whole-scene render.
pub const SSIM_EVERY: usize = 16;
/// Trace lane of the harness thread (the server's worker is tid 0).
pub const HARNESS_TRACK: TrackId = TrackId {
    pid: SERVE_PID,
    tid: 1000,
};

/// Per-stage samples, one per pose unless noted.
#[derive(Debug, Default)]
pub struct PipelineRun {
    pub wall_s: f64,
    /// Far-BE request → cropped view in hand, ms.
    pub frame_ms: Vec<f64>,
    /// Seconds since the run began when each pose (and its SSIM probe,
    /// if it had one) was done.
    pub done_s: Vec<f64>,
    /// `RenderServer::far_be`: far render plus encode, ms.
    pub far_be_ms: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub near_ms: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub crop_us: Vec<f64>,
    /// One per [`SSIM_EVERY`] poses.
    pub ssim_us: Vec<f64>,
    pub ssim: Vec<f64>,
    pub encoded_bytes: u64,
    pub pixels_per_frame: u64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// Runs every pose through the frame path. Stage boundaries are
/// stamped on every run (a dozen clock reads against ~5 ms of work);
/// an enabled `sink` additionally receives them as spans, next to the
/// encode/decode spans the codec records itself.
///
/// `cap` bounds the run on a host far slower than the one the pose
/// count was sized on: no pose starts after it.
pub fn run(scene: &Scene, poses: &[Pose], sink: &TelemetrySink, cap: Duration) -> PipelineRun {
    let renderer = Renderer::new(RenderOptions::default()).with_workers(1);
    let server =
        RenderServer::new(scene, renderer.clone()).with_telemetry(sink.clone(), HARNESS_TRACK);
    let fov = FovOptions::default();
    let mut run = PipelineRun {
        pixels_per_frame: renderer.options().width as u64 * renderer.options().height as u64,
        ..PipelineRun::default()
    };
    let span = |stage: Stage, name: &'static str, dur_ms: f64, frame: usize| {
        sink.span(
            HARNESS_TRACK,
            stage,
            name,
            sink.now_ms() - dur_ms,
            dur_ms,
            frame as u64,
        );
    };
    let started = Instant::now();
    for (i, pose) in poses.iter().enumerate() {
        if started.elapsed() > cap {
            break;
        }
        let pos = Vec2::new(pose.x, pose.z);
        let eye = scene.eye(pos);

        let t0 = Instant::now();
        let far = server.far_be(pos, CUTOFF_M);
        let far_be = ms(t0);
        span(Stage::Render, "far-be", far_be, i);

        let t = Instant::now();
        let decoded = server.decode(&far);
        run.decode_us.push(ms(t) * 1000.0);
        let far_layer = Panorama {
            mask: vec![1; decoded.pixel_count()],
            frame: decoded,
        };

        let t = Instant::now();
        let near =
            renderer.render_panorama(scene, eye, RenderFilter::NearOnly { cutoff: CUTOFF_M });
        let near_ms = ms(t);
        span(Stage::Render, "near-be", near_ms, i);

        let t = Instant::now();
        let merged = merge(&near, &far_layer);
        let merge_ms = ms(t);
        span(Stage::Compose, "merge", merge_ms, i);

        let t = Instant::now();
        let view = fov.crop(&merged, pose.yaw, 0.0);
        let crop_ms = ms(t);
        span(Stage::Compose, "fov-crop", crop_ms, i);
        std::hint::black_box(&view);

        run.frame_ms.push(ms(t0));
        run.far_be_ms.push(far_be);
        run.near_ms.push(near_ms);
        run.merge_us.push(merge_ms * 1000.0);
        run.crop_us.push(crop_ms * 1000.0);
        run.encoded_bytes += far.encoded.payload.len() as u64;

        if i % SSIM_EVERY == 0 {
            let truth = renderer.render_panorama(scene, eye, RenderFilter::All);
            let t = Instant::now();
            run.ssim.push(ssim(&merged, &truth.frame));
            let ssim_ms = ms(t);
            span(Stage::Tick, "ssim", ssim_ms, i);
            run.ssim_us.push(ssim_ms * 1000.0);
        }
        run.done_s.push(started.elapsed().as_secs_f64());
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run
}
