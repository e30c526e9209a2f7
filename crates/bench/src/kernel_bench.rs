//! Dependency-free timing of the hot kernels (render, SSIM, codec, DCT,
//! quantize) with a machine-readable JSON report.
//!
//! Criterion gives interactive numbers; this module gives the *committed*
//! perf trajectory: `experiments bench-json` writes `BENCH_render.json`
//! with the median nanoseconds per kernel so every PR can be compared to
//! the last. The binary cannot use criterion (a dev-dependency), so this
//! is a deliberately simple warmup + median-of-samples harness.
//!
//! Besides the default-dispatch `kernels` section (whose original keys
//! stay byte-compatible across PRs), the report carries a `simd` section
//! with the dispatched kernels (SSIM, codec, DCT, quantize — the
//! renderer takes no level) timed at every dispatch level the CPU
//! supports — the scalar entries are the pre-SIMD baselines (the
//! kernels are bit-identical across levels, so scalar timing is the old
//! code path's timing), making the AVX2-vs-scalar speedup auditable from
//! the committed file alone.

use coterie_codec::{Encoder, Quality};
use coterie_frame::{ssim_with_simd, LumaFrame, SsimOptions};
use coterie_parallel::simd::{self, SimdLevel};
use coterie_render::{RenderFilter, RenderOptions, Renderer};
use coterie_world::{GameId, GameSpec, Vec2};
use std::time::Instant;

/// One timed kernel: median wall-clock nanoseconds per call.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name as it appears in the JSON report.
    pub name: String,
    /// Median nanoseconds per call over all samples.
    pub median_ns: u64,
    /// Number of timed samples (after warmup).
    pub samples: usize,
}

/// Per-dispatch-level timings: `level` is the [`SimdLevel`] name.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdTimings {
    /// Dispatch level name (`scalar`, `sse2`, `avx2`).
    pub level: String,
    /// Kernel timings at that level.
    pub timings: Vec<KernelTiming>,
}

/// Blocks per sample for the 8×8 block kernels (`dct_8x8`,
/// `quantize_8x8`): a single block transform is below timer resolution,
/// so each sample times this many back-to-back blocks.
const BLOCK_BATCH: usize = 4096;

/// Times `f`, returning the median ns per call over `samples` runs.
fn time_kernel<R>(samples: usize, mut f: impl FnMut() -> R) -> (u64, usize) {
    // Warmup: populate caches (scene index, trig tables) off the clock.
    std::hint::black_box(f());
    let mut runs: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    (runs[runs.len() / 2], samples)
}

/// The fixed bench workload: a VikingVillage viewpoint pair at the
/// default 256×128 options.
struct Workload {
    scene: coterie_world::Scene,
    eye: coterie_world::Vec3,
    /// Whole-BE frame from `eye`.
    frame_a: LumaFrame,
    /// Whole-BE frame from a 0.4 m-shifted viewpoint.
    frame_b: LumaFrame,
}

fn workload() -> Workload {
    let spec = GameSpec::for_game(GameId::VikingVillage);
    let scene = spec.build_scene(7);
    let renderer = Renderer::new(RenderOptions::default());
    let eye = scene.eye(scene.bounds().center());
    let eye_b = scene.eye(scene.bounds().center() + Vec2::new(0.4, 0.0));
    let frame_a = renderer
        .render_panorama(&scene, eye, RenderFilter::All)
        .frame;
    let frame_b = renderer
        .render_panorama(&scene, eye_b, RenderFilter::All)
        .frame;
    Workload {
        scene,
        eye,
        frame_a,
        frame_b,
    }
}

fn timing(name: &str, (median_ns, samples): (u64, usize)) -> KernelTiming {
    KernelTiming {
        name: name.to_string(),
        median_ns,
        samples,
    }
}

/// Times the three render filters against the shared workload.
fn render_timings(samples: usize, wl: &Workload) -> Vec<KernelTiming> {
    let cutoff = 10.0;
    let renderer = Renderer::new(RenderOptions::default());
    [
        ("render_all_256x128", RenderFilter::All),
        ("render_near_256x128", RenderFilter::NearOnly { cutoff }),
        ("render_far_256x128", RenderFilter::FarOnly { cutoff }),
    ]
    .into_iter()
    .map(|(name, filter)| {
        let run = || renderer.render_panorama(&wl.scene, wl.eye, filter);
        timing(name, time_kernel(samples, run))
    })
    .collect()
}

/// Times one dispatch level's kernels against the shared workload.
fn level_timings(samples: usize, wl: &Workload, level: SimdLevel) -> Vec<KernelTiming> {
    let encoder = Encoder::with_simd_level(Quality::default(), level);
    let encoded = encoder.encode(&wl.frame_a);
    let dct = simd::Dct8x8::new();
    // A mid-texture block and the default-quality table for the block
    // kernels.
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = wl.frame_a.data()[i * 37 % wl.frame_a.data().len()] - 0.5;
    }
    let mut coeffs = [0.0f32; 64];
    dct.forward(&block, &mut coeffs, level);
    let qtable: [f32; 64] = std::array::from_fn(|i| 1.0 + (i as f32) * 0.25);
    let opts = SsimOptions::default();

    let mut out = Vec::new();
    let mut push = |name: &str, timed: (u64, usize)| out.push(timing(name, timed));

    push(
        "ssim_default_256x128",
        time_kernel(samples, || {
            ssim_with_simd(&wl.frame_a, &wl.frame_b, &opts, level)
        }),
    );
    push(
        "codec_encode_256x128",
        time_kernel(samples, || encoder.encode(&wl.frame_a)),
    );
    push(
        "codec_decode_256x128",
        time_kernel(samples, || encoder.decode(&encoded).unwrap()),
    );
    push(
        "dct_8x8",
        time_kernel(samples, || {
            let mut c = [0.0f32; 64];
            for _ in 0..BLOCK_BATCH {
                dct.forward(std::hint::black_box(&block), &mut c, level);
            }
            c
        }),
    );
    push(
        "quantize_8x8",
        time_kernel(samples, || {
            let mut q = [0i32; 64];
            for _ in 0..BLOCK_BATCH {
                simd::quantize_8x8(std::hint::black_box(&coeffs), &qtable, &mut q, level);
            }
            q
        }),
    );
    out
}

/// Benchmarks the hot kernels at the acceptance-criteria configuration
/// (default 256×128 options, VikingVillage scene) under the process-wide
/// detected dispatch level.
pub fn run(samples: usize) -> Vec<KernelTiming> {
    let wl = workload();
    let mut timings = render_timings(samples, &wl);
    timings.extend(level_timings(samples, &wl, simd::detected_level()));
    timings
}

/// Benchmarks the dispatched kernels at every dispatch level the CPU
/// supports, narrowest (scalar) first.
pub fn run_levels(samples: usize) -> Vec<SimdTimings> {
    let wl = workload();
    simd::available_levels()
        .into_iter()
        .map(|level| SimdTimings {
            level: level.name().to_string(),
            timings: level_timings(samples, &wl, level),
        })
        .collect()
}

fn json_entries(timings: &[KernelTiming], indent: &str, s: &mut String) {
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        s.push_str(&format!(
            "{indent}\"{}\": {{ \"median_ns\": {}, \"samples\": {} }}{comma}\n",
            t.name, t.median_ns, t.samples
        ));
    }
}

/// Renders the timings as the committed `BENCH_render.json` document:
/// the default-dispatch `kernels` section (original keys byte-compatible)
/// plus a `simd` section keyed by dispatch level.
pub fn to_json(timings: &[KernelTiming], levels: &[SimdTimings]) -> String {
    let mut s = String::from("{\n  \"kernels\": {\n");
    json_entries(timings, "    ", &mut s);
    s.push_str("  },\n  \"simd\": {\n");
    for (i, lt) in levels.iter().enumerate() {
        let comma = if i + 1 < levels.len() { "," } else { "" };
        s.push_str(&format!("    \"{}\": {{\n", lt.level));
        json_entries(&lt.timings, "      ", &mut s);
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_positive_and_json_well_formed() {
        let wl = workload();
        let mut timings = render_timings(3, &wl);
        timings.extend(level_timings(3, &wl, simd::detected_level()));
        assert_eq!(timings.len(), 8);
        for t in &timings {
            assert!(t.median_ns > 0, "{} must take measurable time", t.name);
        }
        let levels = vec![SimdTimings {
            level: "scalar".to_string(),
            timings: level_timings(3, &wl, SimdLevel::Scalar),
        }];
        let json = to_json(&timings, &levels);
        assert!(json.contains("\"render_all_256x128\""));
        assert!(json.contains("\"ssim_default_256x128\""));
        assert!(json.contains("\"codec_encode_256x128\""));
        assert!(json.contains("\"codec_decode_256x128\""));
        assert!(json.contains("\"dct_8x8\""));
        assert!(json.contains("\"quantize_8x8\""));
        assert!(json.contains("\"simd\""));
        assert!(json.contains("\"scalar\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
