//! End-to-end session simulation of the four system designs.
//!
//! One [`Session`] reproduces one testbed run of the paper: N players
//! play one game for a fixed duration under one system design, and the
//! report carries every quantity Tables 1/7/8/9 and Figures 11/12 need.
//!
//! ## How a session runs
//!
//! 1. **World + traces** — the game's procedural scene is built and each
//!    player's movement is generated from the genre model.
//! 2. **Offline preprocessing** — for Coterie systems, the adaptive
//!    cutoff scheme partitions the world and (optionally) `dist_thresh`
//!    is calibrated on the leaves the traces visit (§4.3, §5.3).
//! 3. **Measurement pass** — frame content is rendered and encoded at
//!    sampled trace positions to obtain true content-dependent frame
//!    sizes and triangle loads.
//! 4. **Timing pass** — every display interval of every player is
//!    simulated against the shared 802.11ac link, the device timing
//!    model and the frame cache, using the paper's task equation
//!    (Eq. 2) for the critical path.
//! 5. **Quality pass** — optionally, displayed frames are reconstructed
//!    (including codec loss and cache-displacement) and compared by SSIM
//!    against locally rendered ground truth (Table 7).

use crate::fi::{self, FiSync, DEAD_RECKON_CAP_MS};
use crate::metrics::{percentile, FiReport, PlayerMetrics, ResourceSeries, SessionReport};
use crate::quality;
use crate::server::RenderServer;
use coterie_core::{
    CacheConfig, CacheQuery, CacheVersion, CutoffConfig, CutoffMap, DistThreshCalibrator,
    EvictionPolicy, FrameCache, FrameMeta, FrameSource,
};
use coterie_device::{DeviceProfile, PowerModel, ThermalModel, FRAME_BUDGET_MS};
use coterie_net::{FiChannel, NetScenario, SharedLink};
use coterie_parallel::par_map;
use coterie_render::{RenderOptions, Renderer};
use coterie_telemetry::{
    room_pid, AttributionModel, FrameRecord, FrameStats, Stage, TelemetrySink, TrackId, KERNEL_PID,
};
use coterie_world::{GameId, GameSpec, GridPoint, Scene, TraceSet, Vec2};

/// Which system design a session runs (§3, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Everything rendered on the phone.
    Mobile,
    /// Everything rendered on the server, streamed as FoV frames.
    ThinClient,
    /// Furion replicated per player: FI local, whole-BE panoramas
    /// prefetched. `cache` adds exact-match frame caching (Figure 11).
    MultiFurion {
        /// Whether locally prefetched frames are cached (exact match).
        cache: bool,
    },
    /// The paper's system: FI + near BE local, far BE prefetched.
    /// `cache` enables the similar-frame cache (the full design).
    Coterie {
        /// Whether the similarity frame cache is enabled.
        cache: bool,
    },
}

impl SystemKind {
    /// The full Coterie design (similar-frame cache enabled).
    pub fn coterie() -> Self {
        SystemKind::Coterie { cache: true }
    }

    /// Multi-Furion as evaluated in §3 (no cache).
    pub fn multi_furion() -> Self {
        SystemKind::MultiFurion { cache: false }
    }

    /// Display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Mobile => "Mobile",
            SystemKind::ThinClient => "Thin-client",
            SystemKind::MultiFurion { cache: false } => "Multi-Furion",
            SystemKind::MultiFurion { cache: true } => "Multi-Furion+cache",
            SystemKind::Coterie { cache: false } => "Coterie w/o cache",
            SystemKind::Coterie { cache: true } => "Coterie",
        }
    }
}

/// Configuration of one simulated session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// The game to play.
    pub game: GameId,
    /// The system design under test.
    pub system: SystemKind,
    /// Number of players (the paper tests 1–4).
    pub players: usize,
    /// Simulated session length, seconds (the paper plays 10–30 min).
    pub duration_s: f64,
    /// Master seed for world, traces and sampling.
    pub seed: u64,
    /// Separate seed for player trajectories. `None` (the default)
    /// derives traces from `seed` as before. A fleet host sets this so
    /// many rooms can share one world (same `seed` ⇒ same scene,
    /// quadtree and near sets — the precondition for cross-session
    /// frame reuse) while every room's players move differently.
    pub trace_seed: Option<u64>,
    /// Trace positions per player where frames are actually rendered and
    /// encoded to measure sizes and triangle loads.
    pub size_samples: usize,
    /// Positions per session where displayed-frame SSIM is measured
    /// (0 disables the quality pass).
    pub quality_samples: usize,
    /// Frame cache capacity, bytes.
    pub cache_bytes: u64,
    /// Cache replacement policy.
    pub eviction: EvictionPolicy,
    /// Whether to calibrate per-leaf `dist_thresh` by rendering + SSIM
    /// (slow); otherwise the geometric default (2 % of the cutoff
    /// radius) is used.
    pub calibrate_dist_thresh: bool,
    /// SSIM threshold for `dist_thresh` calibration. See the calibrator
    /// docs for why this is resolution-compensated relative to the
    /// paper's 0.9.
    pub ssim_threshold: f64,
    /// FI network fault scenario. [`NetScenario::None`] (the default)
    /// keeps the lossless constant-latency sync model — bit-for-bit
    /// identical to runs predating the fault plane. Any other scenario
    /// routes every per-interval FI sync through a seeded per-player
    /// [`FiChannel`] with bounded retry and dead-reckoning recovery.
    pub net: NetScenario,
}

impl SessionConfig {
    /// A session with the paper's defaults.
    pub fn new(game: GameId, system: SystemKind, players: usize) -> Self {
        SessionConfig {
            game,
            system,
            players,
            duration_s: 120.0,
            seed: 7,
            trace_seed: None,
            size_samples: 16,
            quality_samples: 0,
            cache_bytes: 512 * 1024 * 1024,
            eviction: EvictionPolicy::Lru,
            calibrate_dist_thresh: false,
            ssim_threshold: 0.99,
            net: NetScenario::None,
        }
    }

    /// Sets the simulated duration.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Decouples trajectory randomness from the world seed (see
    /// [`SessionConfig::trace_seed`]).
    pub fn with_trace_seed(mut self, trace_seed: u64) -> Self {
        self.trace_seed = Some(trace_seed);
        self
    }

    /// Enables the quality (SSIM) pass with the given sample count.
    pub fn with_quality_samples(mut self, samples: usize) -> Self {
        self.quality_samples = samples;
        self
    }

    /// Selects the FI network fault scenario (see
    /// [`SessionConfig::net`]).
    pub fn with_net(mut self, net: NetScenario) -> Self {
        self.net = net;
        self
    }
}

/// Sampled per-player frame-content profile from the measurement pass.
#[derive(Debug, Clone, Default)]
struct Profile {
    times_s: Vec<f64>,
    whole_bytes: Vec<u64>,
    far_bytes: Vec<u64>,
    fov_bytes: Vec<u64>,
    near_tris: Vec<u64>,
    visible_tris: Vec<u64>,
}

impl Profile {
    fn index_at(&self, t_s: f64) -> usize {
        if self.times_s.is_empty() {
            return 0;
        }
        let idx = self.times_s.partition_point(|&v| v <= t_s);
        idx.min(self.times_s.len() - 1)
    }
}

/// Mutable per-player state during the timing pass.
struct PlayerState {
    t_ms: f64,
    cache: Option<FrameCache<()>>,
    frames: u64,
    interval_sum_ms: f64,
    critical_sum_ms: f64,
    cpu_busy_core_ms: f64,
    gpu_busy_ms: f64,
    fetch_bytes: u64,
    fetch_count: u64,
    net_delay_sum_ms: f64,
    prev_gp: Option<GridPoint>,
    // Lossy FI path accounting (untouched when the fault plane is off).
    fi_retries: u64,
    fi_stale_frames: u64,
    fi_cap_violations: u64,
    fi_last_sync_ms: f64,
    fi_staleness_ms: f64,
    fi_max_staleness_ms: f64,
}

/// One simulated testbed run.
#[derive(Debug)]
pub struct Session {
    config: SessionConfig,
}

impl Session {
    /// Prepares a session.
    pub fn new(config: SessionConfig) -> Self {
        assert!(config.players >= 1, "sessions need at least one player");
        assert!(config.duration_s > 0.0, "duration must be positive");
        Session { config }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs the session end to end.
    pub fn run(&self) -> SessionReport {
        let mut sim = SessionSim::new(self.config);
        while sim.step().is_some() {}
        sim.finish()
    }
}

/// A far/whole-BE prefetch that missed the client cache and must be
/// satisfied by the serving side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarRequest {
    /// Index of the requesting player within the session.
    pub player: usize,
    /// Session clock at the request, ms.
    pub now_ms: f64,
    /// Grid point being prefetched.
    pub grid: GridPoint,
    /// World position of the grid point.
    pub pos: Vec2,
    /// Leaf region of the grid point (`LeafId(0)` for whole-BE systems,
    /// which have no cutoff partition).
    pub leaf: coterie_world::LeafId,
    /// Near-BE object-set hash (0 for whole-BE systems).
    pub near_hash: u64,
    /// The leaf's calibrated `dist_thresh`, meters (0 for whole-BE).
    pub dist_thresh: f64,
    /// Encoded frame size to deliver, bytes.
    pub bytes: u64,
}

/// How a [`FarRequest`] was satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarResponse {
    /// Bytes actually delivered (a degraded frame may be smaller).
    pub bytes: u64,
    /// Absolute session time the payload finished arriving, ms.
    pub completed_at_ms: f64,
}

/// Outcome of advancing one player by one display interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEvent {
    /// The player that was advanced.
    pub player: usize,
    /// Session time at the start of the interval, ms.
    pub now_ms: f64,
    /// Eq. 2 critical path of the frame, ms.
    pub critical_ms: f64,
    /// Display interval charged (vsync-clamped), ms.
    pub interval_ms: f64,
    /// Bytes fetched over the link for this frame (0 on cache hits and
    /// frames with nothing to prefetch).
    pub fetched_bytes: u64,
}

/// The default fetch path: deliver the requested bytes over the
/// session's own shared link, starting now.
fn link_fetch(link: &mut SharedLink, req: FarRequest) -> FarResponse {
    let tx = link.transfer(req.now_ms, req.bytes);
    FarResponse {
        bytes: req.bytes,
        completed_at_ms: tx.completed_at_ms,
    }
}

fn make_cache(config: &SessionConfig) -> Option<FrameCache<()>> {
    let version = match config.system {
        SystemKind::MultiFurion { cache: true } => Some(CacheVersion::V1),
        SystemKind::Coterie { cache: true } => Some(CacheVersion::V3),
        _ => None,
    };
    version.map(|v| {
        FrameCache::new(CacheConfig {
            capacity_bytes: config.cache_bytes,
            policy: config.eviction,
            version: v,
        })
    })
}

/// Thin-client server GPU: a FIFO "link" whose service time is the
/// full-quality 4K frame render+encode (~26 ms on the 1080 Ti, which is
/// what caps Thin-client at 20-24 FPS in Table 1).
const THIN_SERVER_FRAME_MS: f64 = 26.0;

/// Resource window length (per simulated minute).
const WINDOW_MS: f64 = 60_000.0;

/// A session broken open for external driving.
///
/// [`Session::run`] is a closed loop. The fleet runtime instead needs to
/// (1) interleave many sessions on one host, advancing each in bounded
/// time slices, and (2) intercept far-BE prefetch misses so a shared
/// cross-session store can satisfy them. `SessionSim` exposes the same
/// simulation as a step function — [`SessionSim::step_with`] advances
/// the most-behind player by one display interval and routes any
/// prefetch miss through a caller-supplied fetch path.
///
/// `Session::run` is the trivial driver: step to completion with the
/// session's own link, then [`SessionSim::finish`].
pub struct SessionSim {
    config: SessionConfig,
    scene: Scene,
    cutoffs: Option<CutoffMap>,
    profiles: Vec<Profile>,
    traces: TraceSet,
    fi: FiSync,
    fi_channels: Vec<FiChannel>,
    fi_syncs: u64,
    fi_sync_sum_ms: f64,
    desync_samples: Vec<f64>,
    device: DeviceProfile,
    link: SharedLink,
    states: Vec<PlayerState>,
    /// Per-player departure instant, ms. `duration_ms` for everyone
    /// unless [`SessionSim::set_presence`] installed churn windows.
    ends_ms: Vec<f64>,
    server_gpu_busy_until: f64,
    quality_scale: f64,
    duration_ms: f64,
    resources: ResourceSeries,
    thermal: ThermalModel,
    power: PowerModel,
    window_start_ms: f64,
    window_cpu: f64,
    window_gpu: f64,
    window_time: f64,
    window_bytes: u64,
    /// Observation-only telemetry sink; disabled (one branch per use)
    /// unless the session was built with
    /// [`SessionSim::new_with_telemetry`].
    telemetry: TelemetrySink,
    /// Trace lane this session's frames land in (the fleet room id).
    telemetry_room: u32,
    /// Exact per-session frame accounting (independent of ring
    /// capacity), surfaced through [`SessionSim::telemetry_stats`].
    telemetry_stats: FrameStats,
}

/// Stage decomposition of one display interval, for budget
/// attribution. Each arm of the timing match fills in exactly the
/// stages Eq. 2 charges it, so the record re-combines to the critical
/// path under its model.
#[derive(Debug, Clone, Copy)]
struct StageBreakdown {
    render: f64,
    decode: f64,
    net: f64,
    sync: f64,
    cache: f64,
    compose: f64,
    model: AttributionModel,
}

impl StageBreakdown {
    /// All-zero parallel breakdown; arms overwrite what they charge.
    fn parallel() -> Self {
        StageBreakdown {
            render: 0.0,
            decode: 0.0,
            net: 0.0,
            sync: 0.0,
            cache: 0.0,
            compose: 0.0,
            model: AttributionModel::Parallel,
        }
    }
}

impl SessionSim {
    /// Builds the world, traces, cutoff partition and frame-size
    /// profiles (steps 1–3 of the session pipeline), leaving the timing
    /// pass to be driven by [`SessionSim::step`].
    pub fn new(config: SessionConfig) -> Self {
        Self::new_with_telemetry(config, TelemetrySink::disabled(), 0)
    }

    /// [`SessionSim::new`] with an observation-only telemetry sink:
    /// the measurement pass's render bands and encodes land on the
    /// kernel lane, and every display interval records a
    /// [`FrameRecord`] on `room`'s lane. A disabled sink reproduces
    /// [`SessionSim::new`] exactly.
    pub fn new_with_telemetry(config: SessionConfig, telemetry: TelemetrySink, room: u32) -> Self {
        assert!(config.players >= 1, "sessions need at least one player");
        assert!(config.duration_s > 0.0, "duration must be positive");
        let spec = GameSpec::for_game(config.game);
        let scene = spec.build_scene(config.seed);
        let renderer = Renderer::new(RenderOptions::fast()).with_telemetry(telemetry.clone());
        let device = DeviceProfile::pixel2();
        let fi = FiSync::new(config.players);
        let traces = TraceSet::generate(
            &scene,
            &spec,
            config.players,
            config.duration_s,
            1.0 / 60.0,
            config.trace_seed.unwrap_or(config.seed),
        );

        // Offline preprocessing: adaptive cutoff (Coterie systems only).
        let needs_cutoffs = matches!(config.system, SystemKind::Coterie { .. });
        let cutoff_config = CutoffConfig::for_spec(&spec);
        let mut cutoffs = if needs_cutoffs {
            Some(CutoffMap::compute(
                &scene,
                &device,
                &cutoff_config,
                config.seed,
            ))
        } else {
            None
        };
        if let (Some(map), true) = (&mut cutoffs, config.calibrate_dist_thresh) {
            let mut calibrator = DistThreshCalibrator::new(renderer.clone());
            calibrator.ssim_threshold = config.ssim_threshold;
            for trace in traces.traces() {
                let positions = trace.points().iter().step_by(120).map(|p| p.position);
                calibrator.calibrate_path(&scene, map, positions, config.seed);
            }
        }

        // Measurement pass: render + encode at sampled positions.
        let profiles = {
            let server = RenderServer::new(&scene, renderer).with_telemetry(
                telemetry.clone(),
                TrackId {
                    pid: KERNEL_PID,
                    tid: room,
                },
            );
            measure_profiles(&config, &scene, &server, &traces, cutoffs.as_ref())
        };

        let states = (0..config.players)
            .map(|_| PlayerState {
                t_ms: 0.0,
                cache: make_cache(&config),
                frames: 0,
                interval_sum_ms: 0.0,
                critical_sum_ms: 0.0,
                cpu_busy_core_ms: 0.0,
                gpu_busy_ms: 0.0,
                fetch_bytes: 0,
                fetch_count: 0,
                net_delay_sum_ms: 0.0,
                prev_gp: None,
                fi_retries: 0,
                fi_stale_frames: 0,
                fi_cap_violations: 0,
                fi_last_sync_ms: 0.0,
                fi_staleness_ms: 0.0,
                fi_max_staleness_ms: 0.0,
            })
            .collect();

        // The fault plane only exists for lossy multiplayer sessions: a
        // lone player exchanges keep-alives, and `NetScenario::None`
        // must leave the lossless path untouched bit for bit.
        let fi_channels: Vec<FiChannel> = if config.net.is_lossy() && config.players > 1 {
            let base = config.trace_seed.unwrap_or(config.seed);
            (0..config.players)
                .map(|pi| {
                    let seed = base
                        ^ (pi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ 0x00F1_C4A2_00F1_C4A2;
                    FiChannel::new(config.net, seed)
                })
                .collect()
        } else {
            Vec::new()
        };

        SessionSim {
            scene,
            cutoffs,
            profiles,
            traces,
            fi,
            fi_channels,
            fi_syncs: 0,
            fi_sync_sum_ms: 0.0,
            desync_samples: Vec::new(),
            device,
            link: SharedLink::wifi_80211ac(config.players),
            states,
            ends_ms: vec![config.duration_s * 1000.0; config.players],
            server_gpu_busy_until: 0.0,
            quality_scale: 1.0,
            duration_ms: config.duration_s * 1000.0,
            resources: ResourceSeries::default(),
            thermal: ThermalModel::pixel2(),
            power: PowerModel::pixel2(),
            window_start_ms: 0.0,
            window_cpu: 0.0,
            window_gpu: 0.0,
            window_time: 0.0,
            window_bytes: 0,
            telemetry,
            telemetry_room: room,
            telemetry_stats: FrameStats::default(),
            config,
        }
    }

    /// The telemetry sink this session records into.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Exact per-session frame accounting; `None` when telemetry is
    /// disabled, so reports stay identical with and without it.
    pub fn telemetry_stats(&self) -> Option<FrameStats> {
        self.telemetry.is_enabled().then_some(self.telemetry_stats)
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The procedurally built scene this session plays in. Fleet-side
    /// consumers use it to reconstruct map features (the grid spec,
    /// shared attention hotspots) that a pose predictor needs, without
    /// rebuilding the world from the seed.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Installs per-player presence windows (churn): player `i` joins
    /// at `windows[i].0` and leaves at `windows[i].1`, both clamped to
    /// `[0, duration]`. A zero-length window means the slot never
    /// plays. Must be called before stepping; the roster (and its
    /// trajectories) stays the full configured player set — a window
    /// only restricts *when* a slot plays its trajectory, so the same
    /// seed yields the same world regardless of fill.
    ///
    /// # Panics
    ///
    /// Panics if `windows.len()` differs from the configured player
    /// count or any player has already stepped.
    pub fn set_presence(&mut self, windows: &[(f64, f64)]) {
        assert_eq!(
            windows.len(),
            self.states.len(),
            "one presence window per roster slot"
        );
        assert!(
            self.states.iter().all(|s| s.frames == 0),
            "presence windows must be installed before stepping"
        );
        for (i, &(join_ms, end_ms)) in windows.iter().enumerate() {
            let join = join_ms.clamp(0.0, self.duration_ms);
            let end = end_ms.clamp(join, self.duration_ms);
            self.states[i].t_ms = join;
            self.states[i].fi_last_sync_ms = join;
            self.ends_ms[i] = end;
        }
        // Resource windows track player 0 from its own join.
        self.window_start_ms = self.states[0].t_ms;
    }

    /// Whether every player clock has passed its departure instant
    /// (the configured duration, absent presence windows).
    pub fn finished(&self) -> bool {
        self.states
            .iter()
            .zip(&self.ends_ms)
            .all(|(s, &end)| s.t_ms >= end)
    }

    /// The most-behind *present* player clock (the session's logical
    /// "now"), ms. A departed player's frozen clock never pins the
    /// session clock.
    pub fn now_ms(&self) -> f64 {
        self.states
            .iter()
            .zip(&self.ends_ms)
            .filter(|(s, &end)| s.t_ms < end)
            .map(|(s, _)| s.t_ms)
            .fold(f64::INFINITY, f64::min)
            .min(self.duration_ms)
    }

    /// The active prefetch quality scale in `[0.25, 1]`.
    pub fn quality_scale(&self) -> f64 {
        self.quality_scale
    }

    /// Scales subsequent prefetched frame sizes (graceful degradation:
    /// a fleet host over its frame budget ships lower-resolution far-BE
    /// frames). Clamped to `[0.25, 1]`; 1 is the undegraded default.
    pub fn set_quality_scale(&mut self, scale: f64) {
        self.quality_scale = scale.clamp(0.25, 1.0);
    }

    fn scaled(&self, bytes: u64) -> u64 {
        if self.quality_scale == 1.0 {
            bytes
        } else {
            ((bytes as f64 * self.quality_scale).round() as u64).max(1)
        }
    }

    /// Advances the most-behind player by one display interval using
    /// the session's own link for prefetch misses.
    pub fn step(&mut self) -> Option<StepEvent> {
        self.step_with(&mut link_fetch)
    }

    /// Advances the most-behind player by one display interval, routing
    /// any far/whole-BE prefetch miss through `fetch`. Returns `None`
    /// once every player clock has passed the configured duration.
    pub fn step_with(
        &mut self,
        fetch: &mut dyn FnMut(&mut SharedLink, FarRequest) -> FarResponse,
    ) -> Option<StepEvent> {
        let pi = self
            .states
            .iter()
            .enumerate()
            .filter(|(i, s)| s.t_ms < self.ends_ms[*i])
            .min_by(|a, b| a.1.t_ms.partial_cmp(&b.1.t_ms).expect("finite times"))
            .map(|(i, _)| i)?;
        let end_ms = self.ends_ms[pi];

        let now = self.states[pi].t_ms;
        let t_s = now / 1000.0;
        let trace = self.traces.player(pi).expect("trace exists");
        let pos = trace_position(trace, t_s);
        let sample = self.profiles[pi].index_at(t_s);
        let gp = self.scene.grid().snap(pos);

        // FI sync latency for this interval: drawn from the lossy fault
        // plane when active (with retry + dead-reckoning recovery),
        // otherwise the paper's constant model. Mobile and Thin-client
        // never charge FI sync to Eq. 2, so the plane stays untouched
        // for them.
        let fi_sync_ms = match self.config.system {
            SystemKind::MultiFurion { .. } | SystemKind::Coterie { .. }
                if !self.fi_channels.is_empty() =>
            {
                let sync_ms = fi_fault_sync(
                    &mut self.fi_channels[pi],
                    &mut self.states[pi],
                    &self.traces,
                    pi,
                    now,
                    &mut self.desync_samples,
                );
                self.fi_syncs += 1;
                self.fi_sync_sum_ms += sync_ms;
                sync_ms
            }
            _ => self.fi.sync_latency_ms(),
        };

        // Per-system task timing (Eq. 2).
        let mut fetched: Option<(u64, f64)> = None; // (bytes, latency)
        let (critical_ms, cpu_core_ms, gpu_ms, stages) = match self.config.system {
            SystemKind::Mobile => {
                let tris = self.profiles[pi].visible_tris[sample] + self.fi.fi_triangles();
                let render = self.device.render_ms(tris);
                (
                    render,
                    self.device.cpu_base_ms_per_frame,
                    render,
                    StageBreakdown {
                        render,
                        ..StageBreakdown::parallel()
                    },
                )
            }
            SystemKind::ThinClient => {
                let bytes = self.profiles[pi].fov_bytes[sample];
                // Server renders this player's frame when its GPU frees
                // up…
                let render_start = self.server_gpu_busy_until.max(now);
                self.server_gpu_busy_until = render_start + THIN_SERVER_FRAME_MS;
                // …then streams it over the shared link.
                let render_done = self.server_gpu_busy_until;
                let tx = self.link.transfer(render_done, bytes);
                let decode = self.device.decode_ms(bytes);
                let ready = tx.completed_at_ms + decode;
                let critical = ready - now;
                // Table 1 reports the pure network transfer latency.
                fetched = Some((bytes, tx.completed_at_ms - render_done));
                let cpu = self.device.cpu_base_ms_per_frame + self.device.net_cpu_ms(bytes) + 1.0;
                // GPU only composites the decoded stream.
                (
                    critical,
                    cpu,
                    1.4,
                    StageBreakdown {
                        // Attribution splits the sequential pipeline at
                        // its handoffs: server render (queueing
                        // included), the network wait, then decode.
                        render: render_done - now,
                        decode,
                        net: tx.completed_at_ms - render_done,
                        sync: 0.0,
                        cache: 0.0,
                        compose: 0.0,
                        model: AttributionModel::Sequential,
                    },
                )
            }
            SystemKind::MultiFurion { cache } => {
                let bytes = self.scaled(self.profiles[pi].whole_bytes[sample]);
                let render_fi = self.device.render_ms(self.fi.fi_triangles());
                let decode = self.device.decode_ms(bytes);
                let new_grid_point = self.states[pi].prev_gp != Some(gp);
                let request = FarRequest {
                    player: pi,
                    now_ms: now,
                    grid: gp,
                    pos,
                    leaf: coterie_world::LeafId(0),
                    near_hash: 0,
                    dist_thresh: 0.0,
                    bytes,
                };
                let mut net_ms = 0.0;
                let mut cache_ms = 0.0;
                let prefetch = if !new_grid_point {
                    // Still at the same grid point: the current frame
                    // remains valid, nothing to prefetch.
                    0.0
                } else if cache {
                    let cache_ref = self.states[pi].cache.as_mut().expect("cache enabled");
                    let query = exact_query(gp, pos);
                    if cache_ref.lookup(&query).is_some() {
                        cache_ms = 0.3;
                        cache_ms
                    } else {
                        let resp = fetch(&mut self.link, request);
                        cache_ref.insert(
                            FrameMeta {
                                grid: gp,
                                pos,
                                leaf: coterie_world::LeafId(0),
                                near_hash: 0,
                            },
                            FrameSource::SelfPrefetch,
                            (),
                            resp.bytes,
                            pos,
                        );
                        fetched = Some((resp.bytes, resp.completed_at_ms - now));
                        net_ms = resp.completed_at_ms - now;
                        net_ms
                    }
                } else {
                    let resp = fetch(&mut self.link, request);
                    fetched = Some((resp.bytes, resp.completed_at_ms - now));
                    net_ms = resp.completed_at_ms - now;
                    net_ms
                };
                let critical =
                    render_fi.max(decode).max(prefetch).max(fi_sync_ms) + self.device.merge_ms;
                let cpu = self.device.cpu_base_ms_per_frame + self.device.net_cpu_ms(bytes) + 1.0;
                (
                    critical,
                    cpu,
                    render_fi + 1.0,
                    StageBreakdown {
                        render: render_fi,
                        decode,
                        net: net_ms,
                        sync: fi_sync_ms,
                        cache: cache_ms,
                        compose: self.device.merge_ms,
                        model: AttributionModel::Parallel,
                    },
                )
            }
            SystemKind::Coterie { cache } => {
                let bytes = self.scaled(self.profiles[pi].far_bytes[sample]);
                let map = self.cutoffs.as_ref().expect("coterie needs cutoffs");
                let (leaf, radius, dist_thresh) = map.lookup_params(pos);
                let near_render = self
                    .device
                    .render_ms(self.profiles[pi].near_tris[sample] + self.fi.fi_triangles());
                let decode = self.device.decode_ms(bytes);
                let new_grid_point = self.states[pi].prev_gp != Some(gp);
                let near_hash = self.scene.near_set_hash(pos, radius);
                let request = FarRequest {
                    player: pi,
                    now_ms: now,
                    grid: gp,
                    pos,
                    leaf,
                    near_hash,
                    dist_thresh,
                    bytes,
                };
                let mut net_ms = 0.0;
                let mut cache_ms = 0.0;
                let prefetch = if !new_grid_point {
                    0.0
                } else if cache {
                    let cache_ref = self.states[pi].cache.as_mut().expect("cache enabled");
                    let query = CacheQuery {
                        grid: gp,
                        pos,
                        leaf,
                        near_hash,
                        dist_thresh,
                    };
                    if cache_ref.lookup(&query).is_some() {
                        cache_ms = 0.3;
                        cache_ms
                    } else {
                        let resp = fetch(&mut self.link, request);
                        cache_ref.insert(
                            FrameMeta {
                                grid: gp,
                                pos,
                                leaf,
                                near_hash,
                            },
                            FrameSource::SelfPrefetch,
                            (),
                            resp.bytes,
                            pos,
                        );
                        fetched = Some((resp.bytes, resp.completed_at_ms - now));
                        net_ms = resp.completed_at_ms - now;
                        net_ms
                    }
                } else {
                    let resp = fetch(&mut self.link, request);
                    fetched = Some((resp.bytes, resp.completed_at_ms - now));
                    net_ms = resp.completed_at_ms - now;
                    net_ms
                };
                let critical =
                    near_render.max(decode).max(prefetch).max(fi_sync_ms) + self.device.merge_ms;
                // Cache maintenance + merge adds steady CPU work.
                let cpu = self.device.cpu_base_ms_per_frame
                    + self
                        .device
                        .net_cpu_ms(if fetched.is_some() { bytes } else { 0 })
                    + 2.5;
                (
                    critical,
                    cpu,
                    near_render + 1.0,
                    StageBreakdown {
                        render: near_render,
                        decode,
                        net: net_ms,
                        sync: fi_sync_ms,
                        cache: cache_ms,
                        compose: self.device.merge_ms,
                        model: AttributionModel::Parallel,
                    },
                )
            }
        };

        let state = &mut self.states[pi];
        let interval = critical_ms.max(FRAME_BUDGET_MS);
        state.frames += 1;
        let frame_no = state.frames;
        state.interval_sum_ms += interval;
        state.critical_sum_ms += critical_ms;
        state.cpu_busy_core_ms += cpu_core_ms;
        state.gpu_busy_ms += gpu_ms;
        if let Some((bytes, latency)) = fetched {
            state.fetch_bytes += bytes;
            state.fetch_count += 1;
            state.net_delay_sum_ms += latency;
        }
        state.prev_gp = Some(gp);
        state.t_ms += interval;

        // Resource windows track player 0.
        if pi == 0 {
            self.window_cpu += cpu_core_ms;
            self.window_gpu += gpu_ms.min(interval);
            self.window_time += interval;
            if let Some((bytes, _)) = fetched {
                self.window_bytes += bytes;
            }
            if now - self.window_start_ms >= WINDOW_MS || self.states[0].t_ms >= end_ms {
                if self.window_time > 0.0 {
                    let cpu_util = self
                        .device
                        .cpu_utilization(self.window_cpu, self.window_time);
                    let gpu_util = self
                        .device
                        .gpu_utilization(self.window_gpu, self.window_time);
                    let mbps = self.window_bytes as f64 * 8.0 / 1000.0 / self.window_time;
                    let watts = self.power.draw_w(cpu_util, gpu_util, mbps);
                    self.thermal.step(watts, self.window_time / 1000.0);
                    self.resources.minutes.push(self.states[0].t_ms / 60_000.0);
                    self.resources.cpu.push(cpu_util);
                    self.resources.gpu.push(gpu_util);
                    self.resources
                        .temperature_c
                        .push(self.thermal.temperature_c());
                    self.resources.power_w.push(watts);
                }
                self.window_start_ms = self.states[0].t_ms;
                self.window_cpu = 0.0;
                self.window_gpu = 0.0;
                self.window_time = 0.0;
                self.window_bytes = 0;
            }
        }

        // Observation only: the record reuses quantities already
        // computed above, so enabling telemetry cannot perturb the
        // simulation.
        if self.telemetry.is_enabled() {
            let rec = FrameRecord {
                room: self.telemetry_room,
                player: pi as u32,
                frame: frame_no,
                start_ms: now,
                render_ms: stages.render,
                decode_ms: stages.decode,
                net_ms: stages.net,
                sync_ms: stages.sync,
                cache_ms: stages.cache,
                compose_ms: stages.compose,
                critical_ms,
                model: stages.model,
            };
            self.telemetry.frame(rec);
            self.telemetry_stats
                .record(&rec, self.telemetry.budget_ms());
            if stages.sync > 0.0 {
                // The sync span covers retries and backoff waits too —
                // `fi_fault_sync` folds them into the charged latency.
                self.telemetry.span(
                    TrackId {
                        pid: room_pid(self.telemetry_room),
                        tid: coterie_telemetry::player_tid(pi as u32),
                    },
                    Stage::Sync,
                    "fi-sync",
                    now,
                    stages.sync,
                    frame_no,
                );
            }
        }

        Some(StepEvent {
            player: pi,
            now_ms: now,
            critical_ms,
            interval_ms: interval,
            fetched_bytes: fetched.map(|(b, _)| b).unwrap_or(0),
        })
    }

    /// Runs the quality pass (if configured) and assembles the report.
    pub fn finish(self) -> SessionReport {
        let cfg = &self.config;
        let visual_ssim = if cfg.quality_samples > 0 {
            let renderer =
                Renderer::new(RenderOptions::fast()).with_telemetry(self.telemetry.clone());
            let server = RenderServer::new(&self.scene, renderer).with_telemetry(
                self.telemetry.clone(),
                TrackId {
                    pid: KERNEL_PID,
                    tid: self.telemetry_room,
                },
            );
            quality::measure_visual_quality(
                &self.scene,
                &server,
                self.cutoffs.as_ref(),
                cfg.system,
                &self.traces,
                &self.fi,
                cfg.quality_samples,
                cfg.seed,
            )
        } else {
            0.0
        };

        let fi = if self.fi_syncs > 0 {
            FiReport {
                syncs: self.fi_syncs,
                retries: self.states.iter().map(|s| s.fi_retries).sum(),
                stale_frames: self.states.iter().map(|s| s.fi_stale_frames).sum(),
                cap_violations: self.states.iter().map(|s| s.fi_cap_violations).sum(),
                max_staleness_ms: self
                    .states
                    .iter()
                    .map(|s| s.fi_max_staleness_ms)
                    .fold(0.0, f64::max),
                mean_sync_ms: self.fi_sync_sum_ms / self.fi_syncs as f64,
                desync_p95_m: percentile(&self.desync_samples, 95.0),
                desync_p99_m: percentile(&self.desync_samples, 99.0),
            }
        } else {
            FiReport::default()
        };

        let players = self
            .states
            .iter()
            .map(|s| {
                if s.frames == 0 {
                    // A player that never displayed a frame reports the
                    // all-zero sentinel rather than `1000/0 → inf`
                    // artifacts (NaN/empty-input audit).
                    return PlayerMetrics::zero();
                }
                let frames = s.frames as f64;
                let total_ms = s.interval_sum_ms.max(1e-9);
                PlayerMetrics {
                    avg_fps: (1000.0 / (s.interval_sum_ms / frames)).min(60.0),
                    inter_frame_ms: s.interval_sum_ms / frames,
                    // Motion-to-photon: for the vsync-locked local
                    // pipelines (Mobile / Multi-Furion / Coterie) input is
                    // sampled at one vsync and the photon leaves at the
                    // next, so responsiveness is the frame interval; the
                    // thin client's asynchronous stream shows its full
                    // pipeline latency.
                    responsiveness_ms: match cfg.system {
                        SystemKind::ThinClient => s.critical_sum_ms / frames,
                        _ => (s.critical_sum_ms / frames).max(0.95 * FRAME_BUDGET_MS),
                    },
                    cpu_load: self.device.cpu_utilization(s.cpu_busy_core_ms, total_ms),
                    gpu_load: self
                        .device
                        .gpu_utilization(s.gpu_busy_ms.min(total_ms), total_ms),
                    frame_bytes: if s.fetch_count > 0 {
                        s.fetch_bytes as f64 / s.fetch_count as f64
                    } else {
                        0.0
                    },
                    net_delay_ms: if s.fetch_count > 0 {
                        s.net_delay_sum_ms / s.fetch_count as f64
                    } else {
                        0.0
                    },
                    be_mbps: s.fetch_bytes as f64 * 8.0 / 1000.0 / total_ms,
                    fi_kbps: self.fi.server_kbps(),
                    cache_hit_ratio: s
                        .cache
                        .as_ref()
                        .map(|c| c.stats().hit_ratio())
                        .unwrap_or(0.0),
                    visual_ssim,
                }
            })
            .collect();

        SessionReport {
            players,
            resources: self.resources,
            duration_s: cfg.duration_s,
            fi,
        }
    }
}

/// Measurement pass: true rendered+encoded sizes at sampled trace
/// positions, parallelized across cores.
fn measure_profiles(
    cfg: &SessionConfig,
    scene: &Scene,
    server: &RenderServer<'_>,
    traces: &TraceSet,
    cutoffs: Option<&CutoffMap>,
) -> Vec<Profile> {
    let render_distance = server.renderer().options().render_distance;
    traces
        .traces()
        .iter()
        .map(|trace| {
            let n = cfg.size_samples.max(1);
            let pts = trace.points();
            let stride = (pts.len() / n).max(1);
            let samples: Vec<(f64, Vec2, f64)> = pts
                .iter()
                .step_by(stride)
                .take(n)
                .map(|p| (p.time, p.position, p.yaw))
                .collect();
            let measured = par_map(&samples, |&(_, pos, yaw)| {
                let (whole, fov) = match cfg.system {
                    SystemKind::Mobile => (0, 0),
                    SystemKind::ThinClient => {
                        (0, server.thin_client_frame(pos, yaw, &[]).transfer_bytes)
                    }
                    SystemKind::MultiFurion { .. } => (server.whole_be(pos).transfer_bytes, 0),
                    SystemKind::Coterie { .. } => (0, 0),
                };
                let (far, near_tris) = if let Some(map) = cutoffs {
                    let (_, radius, _) = map.lookup_params(pos);
                    (
                        server.far_be(pos, radius).transfer_bytes,
                        scene.triangles_within(pos, radius),
                    )
                } else {
                    (0, 0)
                };
                let visible = if matches!(cfg.system, SystemKind::Mobile) {
                    mobile_render_tris(scene, pos, render_distance)
                } else {
                    0
                };
                (whole, far, fov, near_tris, visible)
            });
            let mut profile = Profile::default();
            for ((t, _, _), (whole, far, fov, near, visible)) in samples.iter().zip(measured) {
                profile.times_s.push(*t);
                profile.whole_bytes.push(whole);
                profile.far_bytes.push(far);
                profile.fov_bytes.push(fov);
                profile.near_tris.push(near);
                profile.visible_tris.push(visible);
            }
            profile
        })
        .collect()
}

/// LOD-weighted triangle cost of rendering the whole scene locally (the
/// Mobile baseline). Real engines render distant objects at reduced
/// level-of-detail (cost falls off with distance cubed beyond the
/// full-detail radius) and tessellate terrain at roughly constant screen
/// cost, scaled here by relief. Calibrated so the testbed games land at
/// Table 1's 24-27 FPS on the Pixel-2 profile.
fn mobile_render_tris(scene: &Scene, pos: Vec2, render_distance: f64) -> u64 {
    const LOD_FULL_DETAIL_M: f64 = 14.0;
    const TERRAIN_BASE_TRIS: f64 = 200_000.0;
    const INDOOR_ROOM_TRIS: f64 = 120_000.0;
    let objects: f64 = scene
        .objects_within(pos, render_distance)
        .map(|o| {
            let d = o.position.ground_distance(pos.with_y(0.0)).max(1.0);
            let lod = (LOD_FULL_DETAIL_M / d).powi(3).min(1.0);
            o.triangles as f64 * lod
        })
        .sum();
    let amplitude = scene.terrain().amplitude();
    let terrain = if amplitude == 0.0 {
        INDOOR_ROOM_TRIS
    } else {
        TERRAIN_BASE_TRIS * (1.0 + amplitude / 12.0)
    };
    (objects + terrain) as u64
}

/// Position along a recorded trace at an arbitrary time (linear
/// interpolation between samples).
fn trace_position(trace: &coterie_world::Trace, t_s: f64) -> Vec2 {
    let pts = trace.points();
    if pts.is_empty() {
        return Vec2::ZERO;
    }
    let interval = trace.interval();
    let f = (t_s / interval).clamp(0.0, (pts.len() - 1) as f64);
    let i = f.floor() as usize;
    let frac = f - i as f64;
    if i + 1 >= pts.len() {
        pts[pts.len() - 1].position
    } else {
        pts[i].position.lerp(pts[i + 1].position, frac)
    }
}

/// Finite-difference velocity along a trace at `t_s`, m/s (zero for
/// traces too short to difference, and past the trace end where the
/// clamped position stops moving).
fn trace_velocity(trace: &coterie_world::Trace, t_s: f64) -> Vec2 {
    let pts = trace.points();
    if pts.len() < 2 {
        return Vec2::ZERO;
    }
    let dt = trace.interval();
    let a = trace_position(trace, t_s);
    let b = trace_position(trace, t_s + dt);
    (b - a) * (1.0 / dt)
}

/// One interval's FI sync on the lossy fault plane: bounded retry, then
/// dead-reckoning recovery on exhaustion. Returns the sync latency
/// charged to Eq. 2 and updates the player's loss accounting. A free
/// function (not a method) so callers can borrow the channel, the
/// player state and the desync accumulator disjointly.
fn fi_fault_sync(
    channel: &mut FiChannel,
    st: &mut PlayerState,
    traces: &TraceSet,
    pi: usize,
    now_ms: f64,
    desync_samples: &mut Vec<f64>,
) -> f64 {
    let attempt = fi::sync_with_retries(channel, now_ms);
    st.fi_retries += attempt.retries as u64;
    if attempt.synced {
        st.fi_staleness_ms = 0.0;
        st.fi_last_sync_ms = now_ms;
        return attempt.sync_ms;
    }

    // Retries exhausted: remote avatars are dead-reckoned from their
    // last synced pose + velocity. Extrapolation (and therefore the
    // *displayed* staleness) is capped — past the cap avatars freeze and
    // each further stale interval counts as a consistency violation.
    st.fi_stale_frames += 1;
    let raw_stale_ms = now_ms - st.fi_last_sync_ms;
    if raw_stale_ms > DEAD_RECKON_CAP_MS {
        st.fi_cap_violations += 1;
    }
    st.fi_staleness_ms = raw_stale_ms.min(DEAD_RECKON_CAP_MS);
    st.fi_max_staleness_ms = st.fi_max_staleness_ms.max(st.fi_staleness_ms);

    // Desync sample: worst dead-reckoned avatar position error vs the
    // remote players' true trace positions, meters.
    let t_s = now_ms / 1000.0;
    let last_s = st.fi_last_sync_ms / 1000.0;
    let stale_s = st.fi_staleness_ms / 1000.0;
    let mut worst = 0.0f64;
    for (ri, tr) in traces.traces().iter().enumerate() {
        if ri == pi || tr.points().is_empty() {
            continue;
        }
        let last_pos = trace_position(tr, last_s);
        let vel = trace_velocity(tr, last_s);
        let est = fi::dead_reckon(last_pos, vel, stale_s);
        worst = worst.max(est.distance(trace_position(tr, t_s)));
    }
    desync_samples.push(worst);
    attempt.sync_ms
}

fn exact_query(gp: GridPoint, pos: Vec2) -> CacheQuery {
    CacheQuery {
        grid: gp,
        pos,
        leaf: coterie_world::LeafId(0),
        near_hash: 0,
        dist_thresh: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(game: GameId, system: SystemKind, players: usize) -> SessionReport {
        let config = SessionConfig::new(game, system, players)
            .with_duration_s(30.0)
            .with_seed(5);
        Session::new(config).run()
    }

    #[test]
    fn mobile_is_gpu_bound_at_low_fps() {
        let r = quick(GameId::VikingVillage, SystemKind::Mobile, 1);
        let m = r.aggregate();
        assert!(
            m.avg_fps < 45.0,
            "mobile should miss 60 FPS: {:.0}",
            m.avg_fps
        );
        assert!(
            m.gpu_load > 0.8,
            "mobile GPU should be nearly saturated: {:.2}",
            m.gpu_load
        );
        assert_eq!(m.frame_bytes, 0.0, "mobile transfers no frames");
    }

    #[test]
    fn coterie_sustains_60fps_for_two_players() {
        let r = quick(GameId::VikingVillage, SystemKind::coterie(), 2);
        let m = r.aggregate();
        assert!(m.avg_fps > 58.0, "Coterie 2P FPS {:.0}", m.avg_fps);
        assert!(
            m.responsiveness_ms < 16.7,
            "responsiveness {:.1}",
            m.responsiveness_ms
        );
        assert!(
            m.cache_hit_ratio > 0.5,
            "hit ratio {:.2}",
            m.cache_hit_ratio
        );
    }

    #[test]
    fn multifurion_degrades_with_players() {
        let one = quick(GameId::VikingVillage, SystemKind::multi_furion(), 1).aggregate();
        let four = quick(GameId::VikingVillage, SystemKind::multi_furion(), 4).aggregate();
        assert!(
            one.avg_fps > four.avg_fps + 10.0,
            "MF should degrade: 1P {:.0} vs 4P {:.0}",
            one.avg_fps,
            four.avg_fps
        );
        assert!(four.net_delay_ms > one.net_delay_ms * 1.5);
    }

    #[test]
    fn coterie_reduces_bandwidth_vs_multifurion() {
        let mf = quick(GameId::VikingVillage, SystemKind::multi_furion(), 1).aggregate();
        let ct = quick(GameId::VikingVillage, SystemKind::coterie(), 1).aggregate();
        let reduction = mf.be_mbps / ct.be_mbps.max(1e-9);
        assert!(
            reduction > 5.0,
            "network reduction {reduction:.1}x (MF {:.0} Mbps, Coterie {:.0} Mbps)",
            mf.be_mbps,
            ct.be_mbps
        );
    }

    #[test]
    fn thin_client_has_low_fps_high_latency() {
        let r = quick(GameId::VikingVillage, SystemKind::ThinClient, 1);
        let m = r.aggregate();
        assert!(m.avg_fps < 30.0, "thin client FPS {:.0}", m.avg_fps);
        assert!(
            m.responsiveness_ms > 30.0,
            "thin resp {:.1} ms",
            m.responsiveness_ms
        );
        assert!(m.gpu_load < 0.2, "thin client phone GPU {:.2}", m.gpu_load);
    }

    #[test]
    fn resource_series_produced() {
        let config = SessionConfig::new(GameId::Cts, SystemKind::coterie(), 1)
            .with_duration_s(150.0)
            .with_seed(3);
        let r = Session::new(config).run();
        assert!(r.resources.len() >= 2, "expected minute samples");
        assert!(r.resources.peak_temperature_c() > 25.0);
        assert!(r.resources.mean_power_w() > 2.0);
        assert!(r.resources.mean_power_w() < 6.0);
    }

    #[test]
    fn system_labels_are_distinct() {
        let labels: Vec<&str> = [
            SystemKind::Mobile,
            SystemKind::ThinClient,
            SystemKind::MultiFurion { cache: false },
            SystemKind::MultiFurion { cache: true },
            SystemKind::Coterie { cache: false },
            SystemKind::Coterie { cache: true },
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        let unique: std::collections::HashSet<&&str> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn config_builders_compose() {
        let c = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 3)
            .with_duration_s(42.0)
            .with_seed(99)
            .with_quality_samples(5);
        assert_eq!(c.players, 3);
        assert_eq!(c.duration_s, 42.0);
        assert_eq!(c.seed, 99);
        assert_eq!(c.quality_samples, 5);
    }

    #[test]
    fn profile_index_lookup_clamps() {
        let profile = Profile {
            times_s: vec![0.0, 1.0, 2.0],
            whole_bytes: vec![1, 2, 3],
            far_bytes: vec![0; 3],
            fov_bytes: vec![0; 3],
            near_tris: vec![0; 3],
            visible_tris: vec![0; 3],
        };
        // The profile indexes to the next sample at or after t (clamped).
        assert_eq!(profile.index_at(-1.0), 0);
        assert_eq!(profile.index_at(0.5), 1);
        assert_eq!(profile.index_at(1.5), 2);
        assert_eq!(profile.index_at(99.0), 2);
        assert_eq!(Profile::default().index_at(1.0), 0);
    }

    #[test]
    fn mobile_render_cost_reflects_density_and_relief() {
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(3);
        // A dense probe (many objects nearby) costs more than a sparse
        // one at the same render distance.
        let mut dense = (0u64, Vec2::ZERO);
        let mut sparse = (u64::MAX, Vec2::ZERO);
        for i in 0..8 {
            for j in 0..8 {
                let p = Vec2::new(
                    spec.width * (i as f64 + 0.5) / 8.0,
                    spec.depth * (j as f64 + 0.5) / 8.0,
                );
                let t = scene.triangles_within(p, 14.0);
                if t > dense.0 {
                    dense = (t, p);
                }
                if t < sparse.0 {
                    sparse = (t, p);
                }
            }
        }
        let c_dense = mobile_render_tris(&scene, dense.1, 400.0);
        let c_sparse = mobile_render_tris(&scene, sparse.1, 400.0);
        assert!(c_dense > c_sparse, "dense {c_dense} vs sparse {c_sparse}");
        // An empty flat room pays exactly the room constant.
        let empty = coterie_world::Scene::new(
            coterie_world::Rect::from_size(10.0, 10.0),
            coterie_world::Terrain::flat(),
            vec![],
            coterie_world::scene::ReachableArea::All,
            coterie_world::GridSpec::covering(Vec2::ZERO, 10.0, 10.0, 1.0),
        );
        assert_eq!(
            mobile_render_tris(&empty, Vec2::new(5.0, 5.0), 400.0),
            120_000
        );
    }

    #[test]
    fn trace_position_interpolates() {
        let spec = GameSpec::for_game(GameId::Fps);
        let scene = spec.build_scene(1);
        let traces = TraceSet::generate(&scene, &spec, 1, 4.0, 0.5, 1);
        let trace = traces.player(0).expect("player");
        let a = trace.points()[2].position;
        let b = trace.points()[3].position;
        let mid = trace_position(trace, 1.25);
        assert!((mid.x - (a.x + b.x) * 0.5).abs() < 1e-9);
        // Clamps beyond the end.
        let last = trace.points().last().expect("non-empty").position;
        assert_eq!(trace_position(trace, 1e9), last);
    }

    #[test]
    fn stepped_session_matches_closed_run() {
        // Session::run is now a thin driver over SessionSim; stepping
        // manually with the default fetch path must reproduce it
        // exactly.
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(20.0)
            .with_seed(11);
        let closed = Session::new(config).run();
        let mut sim = SessionSim::new(config);
        let mut steps = 0u64;
        while sim.step().is_some() {
            steps += 1;
        }
        assert!(sim.finished());
        let stepped = sim.finish();
        assert!(
            steps > 100,
            "20 s of 2 players should take many steps: {steps}"
        );
        for (a, b) in closed.players.iter().zip(&stepped.players) {
            assert_eq!(a.avg_fps, b.avg_fps);
            assert_eq!(a.be_mbps, b.be_mbps);
            assert_eq!(a.cache_hit_ratio, b.cache_hit_ratio);
        }
    }

    #[test]
    fn fetch_hook_sees_only_cache_misses() {
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 1)
            .with_duration_s(20.0)
            .with_seed(11);
        let mut sim = SessionSim::new(config);
        let mut requests: Vec<FarRequest> = Vec::new();
        let mut fetch = |link: &mut SharedLink, req: FarRequest| {
            requests.push(req);
            let tx = link.transfer(req.now_ms, req.bytes);
            FarResponse {
                bytes: req.bytes,
                completed_at_ms: tx.completed_at_ms,
            }
        };
        let mut fetched_events = 0u64;
        while let Some(ev) = sim.step_with(&mut fetch) {
            if ev.fetched_bytes > 0 {
                fetched_events += 1;
            }
        }
        assert!(!requests.is_empty(), "a fresh cache must miss sometimes");
        assert_eq!(requests.len() as u64, fetched_events);
        for req in &requests {
            assert!(req.bytes > 0);
            assert!(req.dist_thresh > 0.0, "coterie requests carry dist_thresh");
        }
        let report = sim.finish();
        assert!(report.players[0].cache_hit_ratio > 0.0);
    }

    #[test]
    fn quality_scale_reduces_prefetch_bytes() {
        let config = SessionConfig::new(GameId::VikingVillage, SystemKind::coterie(), 1)
            .with_duration_s(15.0)
            .with_seed(4);
        let full = {
            let mut sim = SessionSim::new(config);
            while sim.step().is_some() {}
            sim.finish().aggregate().be_mbps
        };
        let degraded = {
            let mut sim = SessionSim::new(config);
            sim.set_quality_scale(0.25);
            assert_eq!(sim.quality_scale(), 0.25);
            while sim.step().is_some() {}
            sim.finish().aggregate().be_mbps
        };
        assert!(full > 0.0);
        assert!(
            degraded < full * 0.5,
            "quality 0.25 should cut bandwidth: full {full:.3} vs degraded {degraded:.3}"
        );
        // The scale is clamped to the sane range.
        let mut sim = SessionSim::new(config);
        sim.set_quality_scale(7.0);
        assert_eq!(sim.quality_scale(), 1.0);
        sim.set_quality_scale(0.0);
        assert_eq!(sim.quality_scale(), 0.25);
    }

    #[test]
    fn unstepped_session_reports_finite_zero_metrics() {
        // A session finished before any frame is displayed hits the
        // documented zero-frame sentinel: every metric is the finite
        // `PlayerMetrics::zero()`, never an inf/NaN 1000/0 artifact.
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(10.0)
            .with_seed(3);
        let report = SessionSim::new(config).finish();
        assert_eq!(report.players.len(), 2);
        for p in &report.players {
            assert_eq!(*p, PlayerMetrics::zero());
            assert!(p.avg_fps.is_finite() && p.inter_frame_ms.is_finite());
        }
        assert!(report.aggregate().avg_fps.is_finite());
    }

    #[test]
    fn full_presence_windows_are_bit_identical_to_default() {
        // Installing the trivial window (join 0, leave at duration) for
        // every player must not perturb the simulation at all.
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(15.0)
            .with_seed(7);
        let plain = {
            let mut sim = SessionSim::new(config);
            while sim.step().is_some() {}
            sim.finish()
        };
        let windowed = {
            let mut sim = SessionSim::new(config);
            sim.set_presence(&[(0.0, 15_000.0), (0.0, 15_000.0)]);
            while sim.step().is_some() {}
            sim.finish()
        };
        assert_eq!(plain, windowed);
    }

    #[test]
    fn presence_windows_bound_player_clocks() {
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 3)
            .with_duration_s(12.0)
            .with_seed(5);
        let mut sim = SessionSim::new(config);
        // Player 0 plays throughout, player 1 leaves at 4 s, player 2
        // joins at 6 s.
        sim.set_presence(&[(0.0, 12_000.0), (0.0, 4_000.0), (6_000.0, 12_000.0)]);
        while sim.step().is_some() {}
        assert!(sim.finished());
        let report = sim.finish();
        let frames = |p: &PlayerMetrics| {
            if p.inter_frame_ms > 0.0 {
                // Roughly: played span / mean interval.
                1
            } else {
                0
            }
        };
        assert!(frames(&report.players[0]) > 0);
        assert!(frames(&report.players[1]) > 0);
        assert!(frames(&report.players[2]) > 0);
        // The leaver stops around 4 s and the joiner starts around 6 s,
        // so both played a strict subset of player 0's wall time; every
        // metric still comes out finite.
        for p in &report.players {
            assert!(p.avg_fps.is_finite());
            assert!(p.responsiveness_ms.is_finite());
        }
        assert!(report.aggregate().avg_fps > 0.0);
    }

    #[test]
    fn zero_and_one_frame_players_stay_nan_free() {
        // The churn regression the aggregation fix guards: one player
        // present for the whole run, one present for a single display
        // interval, one never present at all.
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 3)
            .with_duration_s(10.0)
            .with_seed(13);
        let mut sim = SessionSim::new(config);
        sim.set_presence(&[
            (0.0, 10_000.0),
            (0.0, 1.0),         // one interval: first step passes 1 ms
            (5_000.0, 5_000.0), // zero-length window: never plays
        ]);
        while sim.step().is_some() {}
        let report = sim.finish();
        assert!(report.players[0].avg_fps > 0.0);
        // The one-frame player displayed exactly one interval.
        assert!(report.players[1].inter_frame_ms > 0.0);
        assert!(report.players[1].avg_fps.is_finite());
        // The absent slot reports the zero sentinel.
        assert_eq!(report.players[2], PlayerMetrics::zero());
        // And the aggregate skips the sentinel instead of averaging a
        // phantom zero-FPS player in.
        let agg = report.aggregate();
        assert!(agg.avg_fps.is_finite());
        let active_mean = (report.players[0].avg_fps + report.players[1].avg_fps) / 2.0;
        assert!((agg.avg_fps - active_mean).abs() < 1e-9);
    }

    #[test]
    fn departed_player_does_not_pin_session_clock() {
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(10.0)
            .with_seed(2);
        let mut sim = SessionSim::new(config);
        sim.set_presence(&[(0.0, 10_000.0), (0.0, 2_000.0)]);
        let mut past_leave = false;
        while sim.step().is_some() {
            if sim.now_ms() > 2_500.0 {
                past_leave = true;
            }
        }
        assert!(
            past_leave,
            "session clock must advance past the leaver's frozen clock"
        );
    }

    #[test]
    fn telemetry_sink_observes_without_changing_results() {
        use coterie_telemetry::{TelemetryConfig, TelemetrySink};
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(15.0)
            .with_seed(9);
        let plain = {
            let mut sim = SessionSim::new(config);
            while sim.step().is_some() {}
            sim.finish()
        };
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let (traced, stats) = {
            let mut sim = SessionSim::new_with_telemetry(config, sink.clone(), 3);
            while sim.step().is_some() {}
            let stats = sim.telemetry_stats().expect("enabled sink tracks stats");
            (sim.finish(), stats)
        };
        assert_eq!(plain, traced, "telemetry must be observation-only");
        assert!(stats.frames > 0);
        let summary = sink.summary().expect("recording sink summarizes");
        assert_eq!(summary.frames, stats.frames);
        assert_eq!(summary.over_budget, stats.over_budget);
        let worst = summary.worst.expect("frames were recorded");
        assert_eq!(worst.room, 3);
        // Every stage duration the sink saw is finite and non-negative.
        for rec in sink.frames_snapshot() {
            assert!(rec.attributed_ms().is_finite());
            for stage in Stage::ATTRIBUTED {
                let d = rec.stage_ms(stage);
                assert!(d.is_finite() && d >= 0.0, "{stage}: {d}");
            }
            // Attribution reconstructs the simulated critical path.
            let err = (rec.attributed_ms() - rec.critical_ms).abs();
            assert!(
                err <= rec.critical_ms.max(1.0) * 0.01,
                "attribution off by {err:.4} ms on frame {:?}",
                rec
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = Session::new(SessionConfig::new(GameId::Pool, SystemKind::Mobile, 0));
    }

    #[test]
    fn lossy_session_reports_fi_recovery() {
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(30.0)
            .with_seed(11)
            .with_net(NetScenario::BurstLoss);
        let r = Session::new(config).run();
        assert!(r.fi.syncs > 0, "lossy multiplayer sessions count syncs");
        assert!(r.fi.retries > 0, "burst loss should force retries");
        assert!(
            r.fi.stale_frames > 0,
            "burst loss should exhaust retries sometimes"
        );
        assert!(r.fi.mean_sync_ms > 0.0);
        // Displayed staleness is capped by construction.
        assert!(r.fi.max_staleness_ms <= DEAD_RECKON_CAP_MS);
        assert!(r.fi.desync_p99_m >= r.fi.desync_p95_m);
    }

    #[test]
    fn lossy_session_is_seed_deterministic() {
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(20.0)
            .with_seed(11)
            .with_net(NetScenario::LatencySpikes);
        let a = Session::new(config).run();
        let b = Session::new(config).run();
        assert_eq!(a, b, "same seed + scenario must reproduce bit-for-bit");
    }

    #[test]
    fn net_none_is_bit_identical_to_default() {
        let base = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 2)
            .with_duration_s(20.0)
            .with_seed(11);
        let a = Session::new(base).run();
        let b = Session::new(base.with_net(NetScenario::None)).run();
        assert_eq!(a, b);
        assert_eq!(a.fi, FiReport::default(), "lossless runs report zero FI");
    }

    #[test]
    fn single_player_lossy_session_skips_fault_plane() {
        // A lone player only exchanges keep-alives; the fault plane
        // never engages even under a lossy scenario.
        let config = SessionConfig::new(GameId::Pool, SystemKind::coterie(), 1)
            .with_duration_s(15.0)
            .with_seed(4);
        let lossless = Session::new(config).run();
        let lossy = Session::new(config.with_net(NetScenario::BurstLoss)).run();
        assert_eq!(lossless, lossy);
        assert_eq!(lossy.fi, FiReport::default());
    }

    #[test]
    fn trace_velocity_matches_finite_difference() {
        let spec = GameSpec::for_game(GameId::Fps);
        let scene = spec.build_scene(1);
        let traces = TraceSet::generate(&scene, &spec, 1, 4.0, 0.5, 1);
        let trace = traces.player(0).expect("player");
        let v = trace_velocity(trace, 1.0);
        let a = trace.points()[2].position;
        let b = trace.points()[3].position;
        assert!((v.x - (b.x - a.x) / 0.5).abs() < 1e-9);
        assert!((v.z - (b.z - a.z) / 0.5).abs() < 1e-9);
        // Past the trace end the clamped position stops moving.
        assert_eq!(trace_velocity(trace, 1e9), Vec2::ZERO);
    }
}
