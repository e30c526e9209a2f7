//! Equirectangular panorama rendering with near/far filtering.
//!
//! # Hot-path design
//!
//! Rendering cost is the mobile-VR bottleneck the paper is built around
//! (§4.3), and every experiment in this repro funnels through this
//! rasterizer, so it is engineered as a hot kernel:
//!
//! * **Trig tables.** The pixel grid is fixed by [`RenderOptions`], so
//!   every per-pixel transcendental — the `sin_cos` pair behind each
//!   pixel's direction vector, the `atan2`/`asin` of the sky and object
//!   hit tests — is a function of the pixel's row/column alone. They are
//!   computed once per renderer (lazily, shared with every clone) and
//!   every frame after that is table lookups plus arithmetic. The sky
//!   rows — gradient, clouds, mountain silhouette — depend on nothing
//!   else either, so the tables hold them shaded and a frame copies them.
//! * **Row hoisting.** A pixel row shares one elevation, so the ground
//!   ray length, the fog attenuation `exp` and — but for a row the
//!   cutoff circle passes through within a part in 10⁹ — the near/far
//!   decision are lifted out of the column loop, and a row's surviving
//!   ground pixels are slope-shaded and textured in two calls
//!   ([`coterie_world::TerrainSampler::lambert_row_with_simd`] and
//!   [`coterie_world::TerrainSampler::albedo_row`], four points to a
//!   block at the process's SIMD level). A row the filter kept no ground
//!   pixel of is not scanned again.
//! * **Object binning.** Scene/FI objects are projected to their angular
//!   row/column spans once per frame ([`coterie_world::AngularExtent`])
//!   and only rasterized over the rows they can touch; a candidate pixel
//!   already owned by something nearer is dropped on the depth compare
//!   alone, before its hit test. A near-BE frame asks the scene's index
//!   for the cutoff's disc only, not the render distance's. What only a
//!   shaded pixel reads (fog, texture scale) is computed at an object's
//!   first shaded pixel, and neighbouring pixels of a large object share
//!   a texture-noise memo.
//! * **Band parallelism.** The panorama splits into horizontal bands
//!   that own disjoint `frame`/`mask`/`depth` slices; bands run on the
//!   shared [`coterie_parallel`] substrate. Every band runs the whole
//!   paint order below on its own rows, so output is bit-identical at
//!   any worker count — the golden-frame test pins this against the
//!   original scalar renderer's hashes.
//!
//! # Paint order: every pixel is shaded once
//!
//! Shading is the cost (four fBm octaves of normal probes per ground
//! pixel, a value-noise lookup per object pixel), so a band settles each
//! pixel's winner before shading it: (1) sky rows are copied from the
//! tables and fog rows filled; (2) ground rows write only their depth,
//! where the filter includes them; (3) objects are painted nearest
//! first behind the usual test `depth > dist as f32`; (4) ground pixels
//! no object took are shaded.
//!
//! This is bit-identical to painting every object in scene order (BE,
//! then FI) over a shaded background: either way a pixel goes to the
//! object with the least `dist as f32` among those that hit it — the
//! earliest in scene order among equals, since the strict test never
//! lets a later equal overwrite — or to the ground if its `t as f32` is
//! not greater. Nearest-first meets that winner first; all later ones
//! fail the test unshaded. So the sort is stable and keyed on the `f32`
//! the test compares: two `f64` distances that round to one `f32` tie
//! in the test, and an `f64` key would paint the later object first.

use coterie_frame::LumaFrame;
use coterie_parallel::{par_for_each, simd};
use coterie_telemetry::{Stage, TelemetrySink, TrackId, KERNEL_PID};
use coterie_world::noise::{value_noise, value_noise_cached, NoiseCellCache};
use coterie_world::{ObjectKind, Scene, SceneObject, Vec3};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Restricts which part of the background environment is rendered.
///
/// Coterie splits the BE at a *cutoff radius*: objects within the radius
/// are the near BE (rendered on the phone), objects outside are the far
/// BE (pre-rendered on the server and prefetched) — Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RenderFilter {
    /// Render everything (whole BE — the Furion/Multi-Furion baseline and
    /// the ground-truth frame).
    All,
    /// Render only content within the cutoff radius (near BE).
    NearOnly {
        /// Cutoff radius in meters.
        cutoff: f64,
    },
    /// Render only content outside the cutoff radius (far BE), leaving a
    /// void inside the radius to be filled by the locally rendered near
    /// BE at merge time.
    FarOnly {
        /// Cutoff radius in meters.
        cutoff: f64,
    },
}

impl RenderFilter {
    /// Whether content at ground distance `d` from the eye is included.
    #[inline]
    pub fn includes(&self, d: f64) -> bool {
        match *self {
            RenderFilter::All => true,
            RenderFilter::NearOnly { cutoff } => d < cutoff,
            RenderFilter::FarOnly { cutoff } => d >= cutoff,
        }
    }

    /// The sky is part of the far BE (it is infinitely far away).
    #[inline]
    fn includes_sky(&self) -> bool {
        !matches!(self, RenderFilter::NearOnly { .. })
    }
}

/// Renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenderOptions {
    /// Panorama width in pixels (one full turn of azimuth).
    pub width: u32,
    /// Panorama height in pixels (zenith to nadir).
    pub height: u32,
    /// Maximum object/ground render distance in meters (view culling).
    pub render_distance: f64,
    /// Fog half-distance in meters: scene luma blends toward the horizon
    /// value with `exp(-distance / fog_distance)`.
    pub fog_distance: f64,
    /// Luma the fog converges to.
    pub fog_luma: f32,
    /// Objects whose angular diameter falls below this many pixels are
    /// culled (they could not change any pixel).
    pub min_pixel_size: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 256,
            height: 128,
            render_distance: 400.0,
            fog_distance: 90.0,
            fog_luma: 0.72,
            min_pixel_size: 0.5,
        }
    }
}

impl RenderOptions {
    /// A reduced-resolution profile for bulk similarity sweeps.
    pub fn fast() -> Self {
        RenderOptions {
            width: 192,
            height: 96,
            ..Default::default()
        }
    }
}

/// A rendered panorama: luma plus per-pixel coverage.
///
/// `mask[i] != 0` where the filter actually rendered content; void pixels
/// (e.g. the inside of the cutoff radius in a far-BE frame) carry mask 0
/// and are filled from the other layer at merge time.
#[derive(Debug, Clone, PartialEq)]
pub struct Panorama {
    /// Rendered luma.
    pub frame: LumaFrame,
    /// Per-pixel coverage flags, row-major, same size as `frame`.
    pub mask: Vec<u8>,
}

impl Panorama {
    /// Fraction of pixels covered by the rendered layer.
    pub fn coverage(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.mask.iter().filter(|&&m| m != 0).count() as f64 / self.mask.len() as f64
    }
}

/// Per-options trig tables (see the module docs).
///
/// Each entry reproduces, bit-exactly, the value the scalar renderer
/// computed per pixel: `col_*`/`row_*` are the `sin_cos` factors of
/// [`Renderer::pixel_dir`], `azimuth` is `dir.x.atan2(dir.z)` and
/// `elevation` is `dir.y.asin()`. The azimuth roundtrip picks up the
/// row's `cos(elevation)` factor in its low bits, so it is a full
/// per-pixel map rather than a per-column table; `elevation` depends on
/// the row alone.
#[derive(Debug)]
struct TrigTables {
    /// `sin(azimuth)` per column.
    col_sin: Vec<f64>,
    /// `cos(azimuth)` per column.
    col_cos: Vec<f64>,
    /// `sin(elevation)` per row (this is `dir.y`).
    row_sin: Vec<f64>,
    /// `cos(elevation)` per row.
    row_cos: Vec<f64>,
    /// `dir.x.atan2(dir.z)` per pixel, row-major.
    azimuth: Vec<f64>,
    /// `dir.y.asin()` per row.
    elevation: Vec<f64>,
    /// Luma of the sky rows (the leading rows with `row_sin >=
    /// HORIZON_SIN`), row-major: sky gradient, clouds and the mountain
    /// silhouette depend on the pixel grid alone, not on scene or eye.
    sky: Vec<f32>,
}

/// Rows whose `sin(elevation)` is at least this look at the sky; the rows
/// below it hit the ground plane.
const HORIZON_SIN: f64 = -1e-4;

/// Relative margin around `t · row_cos` inside which a ground row asks
/// the filter per pixel (see `paint_sky_and_ground_depth`); seven orders
/// of magnitude over the rounding of `hypot(sin·ce, cos·ce)` against `ce`.
const CUTOFF_MARGIN: f64 = 1e-9;

impl TrigTables {
    fn build(opts: &RenderOptions) -> Self {
        let w = opts.width as usize;
        let h = opts.height as usize;
        let mut col_sin = Vec::with_capacity(w);
        let mut col_cos = Vec::with_capacity(w);
        for px in 0..w {
            let azimuth = ((px as f64 + 0.5) / opts.width as f64) * std::f64::consts::TAU
                - std::f64::consts::PI;
            let (sa, ca) = azimuth.sin_cos();
            col_sin.push(sa);
            col_cos.push(ca);
        }
        let mut row_sin = Vec::with_capacity(h);
        let mut row_cos = Vec::with_capacity(h);
        let mut elevation = Vec::with_capacity(h);
        for py in 0..h {
            let elev = std::f64::consts::FRAC_PI_2
                - ((py as f64 + 0.5) / opts.height as f64) * std::f64::consts::PI;
            let (se, ce) = elev.sin_cos();
            row_sin.push(se);
            row_cos.push(ce);
            elevation.push(se.asin());
        }
        let mut azimuth = Vec::with_capacity(w * h);
        for &ce in row_cos.iter().take(h) {
            for (&cs, &cc) in col_sin.iter().zip(&col_cos) {
                azimuth.push((cs * ce).atan2(cc * ce));
            }
        }
        let mountain_seed = 0x304E_7411u64;
        // Cell-cached noise: consecutive pixels share lattice cells, so
        // these skip nearly all hashing while returning identical values.
        let mut ridge_broad = NoiseCellCache::new();
        let mut ridge_fine = NoiseCellCache::new();
        let mut mountain_tex = NoiseCellCache::new();
        let mut cloud_tex = NoiseCellCache::new();
        let sky_rows = row_sin.iter().take_while(|&&se| se >= HORIZON_SIN).count();
        let mut sky = Vec::with_capacity(sky_rows * w);
        for (&elevation, az_row) in elevation[..sky_rows].iter().zip(azimuth.chunks_exact(w)) {
            let t = (elevation / std::f64::consts::FRAC_PI_2).clamp(0.0, 1.0);
            let sky_base = 0.80 + 0.12 * t;
            for &azimuth in az_row {
                let ridge = 0.02
                    + 0.06
                        * value_noise_cached(
                            &mut ridge_broad,
                            mountain_seed,
                            azimuth * 2.2 + 9.0,
                            0.0,
                        )
                    + 0.03
                        * value_noise_cached(
                            &mut ridge_fine,
                            mountain_seed ^ 1,
                            azimuth * 7.0,
                            0.3,
                        );
                let v = if elevation < ridge {
                    // Mountain band.
                    (0.45
                        + 0.12
                            * value_noise_cached(
                                &mut mountain_tex,
                                mountain_seed ^ 2,
                                azimuth * 5.0,
                                elevation * 30.0,
                            )) as f32
                } else {
                    // Sky gradient with faint clouds.
                    (sky_base
                        + 0.05
                            * value_noise_cached(
                                &mut cloud_tex,
                                mountain_seed ^ 3,
                                azimuth * 3.0,
                                elevation * 6.0,
                            )) as f32
                };
                sky.push(v.clamp(0.0, 1.0));
            }
        }
        TrigTables {
            col_sin,
            col_cos,
            row_sin,
            row_cos,
            azimuth,
            elevation,
            sky,
        }
    }

    /// Length of the ray from an eye `eye_above` meters over the ground
    /// plane to where row `py` meets it (one length for the whole row),
    /// or `None` for a sky row.
    fn ground_ray(&self, py: usize, eye_above: f64) -> Option<f64> {
        let se = self.row_sin[py];
        (se < HORIZON_SIN).then(|| eye_above / (-se))
    }

    /// Direction of the pixel center `(px, py)` — the same products
    /// `pixel_dir` evaluates, with the `sin_cos` factors looked up.
    #[inline]
    fn dir(&self, px: usize, py: usize) -> Vec3 {
        let ce = self.row_cos[py];
        Vec3::new(
            self.col_sin[px] * ce,
            self.row_sin[py],
            self.col_cos[px] * ce,
        )
    }
}

/// One frame-binned paint job: an object plus its projected pixel spans
/// and the per-object quantities its candidate pixels' tests read (the
/// hit test, the depth); [`Shading`] holds the ones a shaded pixel adds.
struct ObjectJob<'a> {
    obj: &'a SceneObject,
    /// Eye-to-center vector.
    v: Vec3,
    dist: f64,
    /// `dist as f32`: what the depth test compares and stores, and the
    /// front-to-back sort key.
    depth: f32,
    half_width: f64,
    hit_test: HitTest,
    base_elevation: f64,
    top_elevation: f64,
    center_azimuth: f64,
    /// Fractional center column.
    cx: f64,
    half_w_px: i64,
    /// Candidate row span (unclamped; bands clip it).
    py_top: i64,
    py_bot: i64,
}

/// The per-object constants only a shaded pixel reads, hoisted out of
/// the pixel loop but computed when a band shades the object's first
/// pixel: most jobs of a far-BE frame shade none (an `exp` and a `hypot`
/// saved per job).
struct Shading {
    /// `exp(-dist / fog_distance) as f32`.
    fog_k: f32,
    /// `bounding_radius().max(1e-6)` — texture-space normalization.
    bounding: f64,
    /// Whether a texture cell spans at least two pixels, so that the
    /// band's texture memo hits at least every other pixel: far objects
    /// step several cells a pixel and would only refill it.
    texture_memo: bool,
}

/// Texture cells per `bounding` of an object's surface.
const TEX_SCALE: f64 = 14.0;

/// How a job decides whether a pixel's ray hits its object.
enum HitTest {
    /// Angle to the center within the half-width: `dir·v / dist >=
    /// cos_half_width`.
    Sphere { cos_half_width: f64 },
    /// Cylinders and boxes: elevation within `[base, top]` (one decision
    /// per row) and azimuth within `half_width` of the center.
    Slab,
}

/// An unsigned key that orders `f32`s as [`f32::total_cmp`] does: a
/// negative value's magnitude bits are flipped, then the sign bit.
#[inline]
fn total_order_key(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Whether `azimuth` lies within `half_width` of `center_azimuth`, the
/// difference wrapped into `(-π, π]`.
#[inline]
fn slab_hit(azimuth: f64, center_azimuth: f64, half_width: f64) -> bool {
    let mut da = azimuth - center_azimuth;
    while da > std::f64::consts::PI {
        da -= std::f64::consts::TAU;
    }
    while da < -std::f64::consts::PI {
        da += std::f64::consts::TAU;
    }
    da.abs() <= half_width
}

/// Scratch for shading one ground row: the surviving pixels' columns and
/// hit points, and the slope shading [`TerrainSampler::lambert_row`] and
/// albedo [`TerrainSampler::albedo_row`] return for them.
///
/// [`TerrainSampler::lambert_row`]: coterie_world::TerrainSampler::lambert_row
/// [`TerrainSampler::albedo_row`]: coterie_world::TerrainSampler::albedo_row
#[derive(Default)]
struct GroundRow {
    cols: Vec<usize>,
    xs: Vec<f64>,
    zs: Vec<f64>,
    lambert: Vec<f64>,
    albedo: Vec<f64>,
}

/// A horizontal band owning disjoint slices of the output buffers.
struct Band<'a> {
    /// First row of the band.
    y0: usize,
    rows: usize,
    frame: &'a mut [f32],
    mask: &'a mut [u8],
    depth: &'a mut [f32],
    ground: GroundRow,
    /// Object texture memo: neighbouring pixels of one object mostly
    /// sample one noise cell.
    texture: NoiseCellCache,
    /// Per row of the band, whether step 2 let any ground pixel in: the
    /// rows of the other side of the cutoff have nothing to shade.
    ground_rows: Vec<bool>,
}

/// The software panoramic renderer.
#[derive(Debug, Clone, Default)]
pub struct Renderer {
    opts: RenderOptions,
    /// Requested band-parallel worker count; `0`/`1` renders serially.
    workers: usize,
    /// Lazily built trig tables, shared with every clone of this renderer
    /// whichever of them renders first.
    tables: Arc<OnceLock<TrigTables>>,
    /// Telemetry sink for per-band render spans; disabled (a single
    /// branch per band) unless installed with [`Renderer::with_telemetry`].
    telemetry: TelemetrySink,
}

impl Renderer {
    /// Creates a renderer with explicit options.
    pub fn new(opts: RenderOptions) -> Self {
        Renderer {
            opts,
            workers: 1,
            tables: Arc::default(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Installs a telemetry sink: each rendered band emits one span on
    /// the kernel lane (wall-clock duration — bands are real compute,
    /// not simulated time).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Sets the band-parallel worker count. The panorama is split into
    /// that many horizontal bands rendered concurrently on scoped
    /// threads; output is bit-identical at any count. Defaults to 1
    /// (serial) so nested parallelism — e.g. the pre-render farm mapping
    /// over frames — stays under the caller's control.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Renderer options.
    pub fn options(&self) -> &RenderOptions {
        &self.opts
    }

    /// Effective band-parallel worker count.
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    fn tables(&self) -> &TrigTables {
        self.tables.get_or_init(|| {
            let t = TrigTables::build(&self.opts);
            // The tables must reproduce pixel_dir bit-for-bit; spot-check
            // the corners and center so a drifted formula fails fast.
            for &(px, py) in &[
                (0u32, 0u32),
                (self.opts.width - 1, 0),
                (0, self.opts.height - 1),
                (self.opts.width / 2, self.opts.height / 2),
            ] {
                debug_assert_eq!(
                    t.dir(px as usize, py as usize),
                    self.pixel_dir(px, py),
                    "trig table drifted from pixel_dir at ({px},{py})"
                );
            }
            t
        })
    }

    /// Renders the background environment seen from `eye`, restricted by
    /// `filter`.
    pub fn render_panorama(&self, scene: &Scene, eye: Vec3, filter: RenderFilter) -> Panorama {
        self.render_panorama_with(scene, eye, filter, &[])
    }

    /// Renders the BE plus extra dynamic objects (foreground interactions:
    /// avatars, cars). FI objects are always rendered regardless of the
    /// distance filter, mirroring Coterie's architecture where FI is
    /// always drawn locally.
    pub fn render_panorama_with(
        &self,
        scene: &Scene,
        eye: Vec3,
        filter: RenderFilter,
        fi_objects: &[SceneObject],
    ) -> Panorama {
        // A near-BE frame draws no BE object at or past its cutoff, so it
        // asks the index for that disc rather than the render distance's.
        // The query's buckets are a sub-range of the wider query's, walked
        // in the same row-major order, and it keeps every object the
        // filter would (an object whose rounded ground distance is below
        // the cutoff lies inside the smaller disc's bucket range, rounding
        // being monotone), so the candidates that pass the filter arrive
        // in the same relative order and the stable paint order holds.
        let radius = match filter {
            RenderFilter::NearOnly { cutoff } => cutoff.min(self.opts.render_distance),
            RenderFilter::All | RenderFilter::FarOnly { .. } => self.opts.render_distance,
        };
        let be_objects = scene.objects_within(eye.ground(), radius);
        self.render_objects(scene, eye, filter, be_objects, fi_objects)
    }

    /// [`Renderer::render_panorama_with`] over the BE candidates
    /// `be_objects` (objects within the render distance, in the order they
    /// come): every one the filter includes is drawn.
    fn render_objects<'s>(
        &self,
        scene: &'s Scene,
        eye: Vec3,
        filter: RenderFilter,
        be_objects: impl Iterator<Item = &'s SceneObject>,
        fi_objects: &'s [SceneObject],
    ) -> Panorama {
        let w = self.opts.width;
        let h = self.opts.height;
        let tables = self.tables();
        let mut frame = LumaFrame::new(w, h);
        let mut mask = vec![0u8; (w * h) as usize];
        let mut depth = vec![f32::INFINITY; (w * h) as usize];

        // Bin the frame's objects by angular span, filtered BE objects
        // first, FI last; the stable front-to-back sort below keeps that
        // order among objects at one depth (see the module docs).
        let mut jobs: Vec<ObjectJob<'_>> = Vec::new();
        for obj in be_objects {
            let d = obj.ground_distance(eye);
            if !filter.includes(d) {
                continue;
            }
            if let Some(job) = self.object_job(obj, eye) {
                jobs.push(job);
            }
        }
        for obj in fi_objects {
            if obj.ground_distance(eye) <= self.opts.render_distance {
                if let Some(job) = self.object_job(obj, eye) {
                    jobs.push(job);
                }
            }
        }
        // Front to back, stably: each job's key is its depth in
        // `total_cmp` order above its index, so an unstable sort of the
        // keys is the stable sort by depth, and the ~150-byte jobs stay
        // still.
        let mut paint_order: Vec<u64> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| u64::from(total_order_key(job.depth)) << 32 | i as u64)
            .collect();
        paint_order.sort_unstable();
        let eye_above = (eye.y - scene.terrain().height(eye.ground())).max(0.2);

        // Split the output buffers into per-band row ranges; every band
        // paints its rows completely (all four steps, objects clipped to
        // the band), so bands never touch each other's memory.
        let band_count = self.workers().min(h as usize).max(1);
        let rows_per_band = (h as usize).div_ceil(band_count);
        let mut bands: Vec<Band<'_>> = Vec::with_capacity(band_count);
        {
            let mut frame_rest = frame.data_mut();
            let mut mask_rest = mask.as_mut_slice();
            let mut depth_rest = depth.as_mut_slice();
            let mut y0 = 0usize;
            while y0 < h as usize {
                let rows = rows_per_band.min(h as usize - y0);
                let take = rows * w as usize;
                let (f_head, f_tail) = frame_rest.split_at_mut(take);
                let (m_head, m_tail) = mask_rest.split_at_mut(take);
                let (d_head, d_tail) = depth_rest.split_at_mut(take);
                frame_rest = f_tail;
                mask_rest = m_tail;
                depth_rest = d_tail;
                bands.push(Band {
                    y0,
                    rows,
                    frame: f_head,
                    mask: m_head,
                    depth: d_head,
                    ground: GroundRow::default(),
                    texture: NoiseCellCache::new(),
                    ground_rows: Vec::new(),
                });
                y0 += rows;
            }
        }
        par_for_each(bands, |mut band| {
            let started = self.telemetry.is_enabled().then(std::time::Instant::now);
            self.paint_sky_and_ground_depth(eye_above, filter, tables, &mut band);
            let band_end = (band.y0 + band.rows) as i64;
            for job in paint_order.iter().map(|&key| &jobs[key as u32 as usize]) {
                if job.py_bot < band.y0 as i64 || job.py_top >= band_end {
                    continue;
                }
                self.paint_object_band(job, tables, &mut band);
            }
            self.shade_ground_band(scene, eye, eye_above, tables, &mut band);
            if let Some(t0) = started {
                self.telemetry.span(
                    TrackId {
                        pid: KERNEL_PID,
                        tid: (band.y0 / rows_per_band) as u32,
                    },
                    Stage::Render,
                    "render-band",
                    self.telemetry.now_ms(),
                    t0.elapsed().as_secs_f64() * 1000.0,
                    0,
                );
            }
        });
        Panorama { frame, mask }
    }

    /// Direction of the panorama pixel center `(px, py)`.
    ///
    /// The table-driven fast path reproduces this exactly; it remains the
    /// readable reference definition (and the source of truth the tables
    /// are checked against).
    #[inline]
    fn pixel_dir(&self, px: u32, py: u32) -> Vec3 {
        let azimuth = ((px as f64 + 0.5) / self.opts.width as f64) * std::f64::consts::TAU
            - std::f64::consts::PI;
        let elevation = std::f64::consts::FRAC_PI_2
            - ((py as f64 + 0.5) / self.opts.height as f64) * std::f64::consts::PI;
        let (sa, ca) = azimuth.sin_cos();
        let (se, ce) = elevation.sin_cos();
        Vec3::new(sa * ce, se, ca * ce)
    }

    /// Fractional pixel column of an azimuth.
    fn azimuth_to_px(&self, azimuth: f64) -> f64 {
        (azimuth + std::f64::consts::PI) / std::f64::consts::TAU * self.opts.width as f64
    }

    /// Fractional pixel row of an elevation.
    fn elevation_to_py(&self, elevation: f64) -> f64 {
        (std::f64::consts::FRAC_PI_2 - elevation) / std::f64::consts::PI * self.opts.height as f64
    }

    /// Fog blend with a precomputed attenuation factor
    /// `k = exp(-dist / fog_distance) as f32`.
    #[inline]
    fn fog_apply(&self, base: f32, k: f32) -> f32 {
        base * k + self.opts.fog_luma * (1.0 - k)
    }

    fn fog_k(&self, dist: f64) -> f32 {
        (-dist / self.opts.fog_distance).exp() as f32
    }

    /// Projects an object to its pixel-space paint job, or `None` when
    /// it is degenerate or spans less than `min_pixel_size` pixels.
    fn object_job<'a>(&self, obj: &'a SceneObject, eye: Vec3) -> Option<ObjectJob<'a>> {
        let ext = obj.angular_extent(eye)?;
        // Angular diameter in pixels; cull sub-pixel specks.
        let px_per_rad = self.opts.width as f64 / std::f64::consts::TAU;
        if 2.0 * ext.half_width * px_per_rad < self.opts.min_pixel_size {
            return None;
        }
        let v = obj.center() - eye;
        let cos_mid = ((ext.base_elevation + ext.top_elevation) * 0.5)
            .cos()
            .abs()
            .max(0.05);
        let half_w_px = (ext.half_width / cos_mid * px_per_rad).ceil() as i64 + 1;
        let py_top = self.elevation_to_py(ext.top_elevation).floor() as i64 - 1;
        let py_bot = self.elevation_to_py(ext.base_elevation).ceil() as i64 + 1;
        Some(ObjectJob {
            obj,
            v,
            dist: ext.distance,
            depth: ext.distance as f32,
            half_width: ext.half_width,
            hit_test: match obj.kind {
                ObjectKind::Sphere => HitTest::Sphere {
                    cos_half_width: ext.half_width.cos(),
                },
                ObjectKind::Cylinder | ObjectKind::Box => HitTest::Slab,
            },
            base_elevation: ext.base_elevation,
            top_elevation: ext.top_elevation,
            center_azimuth: ext.center_azimuth,
            cx: self.azimuth_to_px(ext.center_azimuth),
            half_w_px,
            py_top: py_top.max(0),
            py_bot: py_bot.min(self.opts.height as i64 - 1),
        })
    }

    /// The shading constants of a job (see [`Shading`]).
    fn shading(&self, job: &ObjectJob<'_>) -> Shading {
        let bounding = job.obj.bounding_radius().max(1e-6);
        let px_per_rad = self.opts.width as f64 / std::f64::consts::TAU;
        Shading {
            fog_k: self.fog_k(job.dist),
            bounding,
            texture_memo: 2.0 * TEX_SCALE * job.dist / px_per_rad < bounding,
        }
    }

    /// Steps 1 and 2 of the paint order: sky and fog rows are final;
    /// ground rows get their depth only, where the filter includes them.
    fn paint_sky_and_ground_depth(
        &self,
        eye_above: f64,
        filter: RenderFilter,
        tables: &TrigTables,
        band: &mut Band<'_>,
    ) {
        let w = self.opts.width as usize;
        let include_sky = filter.includes_sky();
        band.ground_rows.clear();
        for row in 0..band.rows {
            let py = band.y0 + row;
            let span = row * w..(row + 1) * w;
            let ground = match tables.ground_ray(py, eye_above) {
                // Sky and mountain silhouette, both at infinite distance
                // and part of the far BE; `depth` is already infinite.
                None => {
                    if include_sky {
                        band.frame[span.clone()].copy_from_slice(&tables.sky[py * w..(py + 1) * w]);
                        band.mask[span].fill(1);
                    }
                    false
                }
                // Beyond the render distance the ground fades into fog
                // (treated as far BE).
                Some(t) if t > self.opts.render_distance => {
                    if include_sky {
                        band.frame[span.clone()].fill(self.opts.fog_luma.clamp(0.0, 1.0));
                        band.mask[span.clone()].fill(1);
                        band.depth[span].fill(self.opts.render_distance as f32);
                    }
                    false
                }
                // The cutoff radius is horizontal (Figure 4), so the
                // filter tests the ground-plane distance of the hit. With
                // the `All` filter that distance is never consumed, so
                // skip computing it (a sqrt per pixel).
                Some(t) if matches!(filter, RenderFilter::All) => {
                    band.depth[span].fill(t as f32);
                    true
                }
                // A row's pixels all lie `t · hypot(cs·ce, cc·ce)` from the
                // eye on the ground, which is `t · ce` to a few ulp: when
                // the filter says the same a part in 10⁹ either side of
                // that, it says it for every pixel of the row.
                Some(t) => {
                    let d = t * tables.row_cos[py];
                    let included = filter.includes(d * (1.0 - CUTOFF_MARGIN));
                    if included != filter.includes(d * (1.0 + CUTOFF_MARGIN)) {
                        for (px, depth) in band.depth[span].iter_mut().enumerate() {
                            let ground_dist = t * tables.dir(px, py).ground().length();
                            if filter.includes(ground_dist) {
                                *depth = t as f32;
                            }
                        }
                        true
                    } else {
                        if included {
                            band.depth[span].fill(t as f32);
                        }
                        included
                    }
                }
            };
            band.ground_rows.push(ground);
        }
    }

    /// Step 4: shades the ground pixels no object took — depth still the
    /// row's (the filter included them), mask still clear (nothing
    /// painted over them).
    fn shade_ground_band(
        &self,
        scene: &Scene,
        eye: Vec3,
        eye_above: f64,
        tables: &TrigTables,
        band: &mut Band<'_>,
    ) {
        let w = self.opts.width as usize;
        // Hoisted: the scalar renderer rebuilt this unit vector per pixel.
        let light = Vec3::new(0.35, 0.85, 0.40).normalized();
        // Cell-cached noise, as for the sky plane.
        let mut sampler = scene.terrain().sampler();
        let level = simd::detected_level();
        for row in 0..band.rows {
            let py = band.y0 + row;
            // Intersect the local ground plane, then shade from the
            // terrain albedo at the hit point. This gives true ground
            // parallax — the near ground texture streams past a moving
            // viewpoint, far ground barely moves. The ray length `t` is
            // shared by the whole row.
            if !band.ground_rows[row] {
                continue;
            }
            let Some(t) = tables.ground_ray(py, eye_above) else {
                continue;
            };
            let fog_k = self.fog_k(t);
            let ground = &mut band.ground;
            ground.cols.clear();
            ground.xs.clear();
            ground.zs.clear();
            for px in 0..w {
                let idx = row * w + px;
                if band.mask[idx] != 0 || band.depth[idx] != t as f32 {
                    continue;
                }
                let hit = eye + tables.dir(px, py) * t;
                ground.cols.push(px);
                ground.xs.push(hit.x);
                ground.zs.push(hit.z);
            }
            // Slope shading from the terrain normal and the albedo, the
            // row at once.
            ground.lambert.resize(ground.cols.len(), 0.0);
            ground.albedo.resize(ground.cols.len(), 0.0);
            sampler.lambert_row_with_simd(
                &ground.xs,
                &ground.zs,
                light,
                &mut ground.lambert,
                level,
            );
            sampler.albedo_row(&ground.xs, &ground.zs, &mut ground.albedo, level);
            for (i, &px) in ground.cols.iter().enumerate() {
                let idx = row * w + px;
                let albedo = ground.albedo[i] as f32;
                let lambert = ground.lambert[i] as f32;
                let v = self.fog_apply(albedo * (0.45 + 0.55 * lambert), fog_k);
                band.frame[idx] = v.clamp(0.0, 1.0);
                band.mask[idx] = 1;
            }
        }
    }

    fn paint_object_band(&self, job: &ObjectJob<'_>, tables: &TrigTables, band: &mut Band<'_>) {
        let w = self.opts.width as i64;
        let wu = self.opts.width as usize;
        let band_end = (band.y0 + band.rows) as i64;
        // The `2·half_w_px + 1` columns centred on `cx`, each once: one or
        // two contiguous runs (a wrap at the seam), the whole row when
        // the span laps the panorama.
        let span_len = ((2 * job.half_w_px + 1) as usize).min(wu);
        let start = (job.cx as i64 - job.half_w_px).rem_euclid(w) as usize;
        let seg1 = span_len.min(wu - start);
        let mut shading = None;
        for py in job.py_top.max(band.y0 as i64)..=job.py_bot.min(band_end - 1) {
            let pyu = py as usize;
            // The slab hit test's elevation half is row-constant; rows in
            // the conservative [py_top, py_bot] margin that miss it reject
            // every column, so skip them wholesale.
            if matches!(job.hit_test, HitTest::Slab) {
                let elevation = tables.elevation[pyu];
                if !(job.base_elevation..=job.top_elevation).contains(&elevation) {
                    continue;
                }
            }
            let row_off = (pyu - band.y0) * wu;
            for run in [start..start + seg1, 0..span_len - seg1] {
                for px in run {
                    // The depth test first: painting is front to back, so
                    // most candidates of the later jobs fail it without
                    // paying the hit test's division.
                    if band.depth[row_off + px] <= job.depth {
                        continue;
                    }
                    self.paint_object_pixel(job, &mut shading, tables, band, row_off, px, pyu);
                }
            }
        }
    }

    /// Paints one candidate pixel that passed the depth test: hit test,
    /// then the viewpoint-relative texture and fog.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn paint_object_pixel(
        &self,
        job: &ObjectJob<'_>,
        shading: &mut Option<Shading>,
        tables: &TrigTables,
        band: &mut Band<'_>,
        row_off: usize,
        px: usize,
        pyu: usize,
    ) {
        let idx = row_off + px;
        let dir = tables.dir(px, pyu);
        let hit = match job.hit_test {
            HitTest::Sphere { cos_half_width } => dir.dot(job.v) / job.dist >= cos_half_width,
            // Elevation containment already held for this row.
            HitTest::Slab => slab_hit(
                tables.azimuth[pyu * self.opts.width as usize + px],
                job.center_azimuth,
                job.half_width,
            ),
        };
        if !hit {
            return;
        }
        // World-anchored-ish texture: parameterize by the viewing
        // direction relative to the object center. Far objects see
        // a stable parameterization; near objects' texture slides
        // quickly with viewpoint — amplifying the near-object
        // effect exactly as real parallax does.
        let shading = shading.get_or_insert_with(|| self.shading(job));
        let rel = (dir * job.dist - job.v) / shading.bounding;
        let (u, v) = (
            (rel.x + rel.y * 0.7) * TEX_SCALE,
            (rel.z - rel.y * 0.4) * TEX_SCALE,
        );
        let tex = if shading.texture_memo {
            value_noise_cached(&mut band.texture, job.obj.texture_seed, u, v)
        } else {
            value_noise(job.obj.texture_seed, u, v)
        };
        let shade = (job.obj.albedo * (0.55 + 0.45 * tex)) as f32;
        band.frame[idx] = self.fog_apply(shade, shading.fog_k).clamp(0.0, 1.0);
        band.mask[idx] = 1;
        band.depth[idx] = job.depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_world::{GameCatalog, GameId, GameSpec, Vec2};

    fn fps_scene() -> (Scene, GameSpec) {
        let spec = GameSpec::for_game(GameId::Fps);
        (spec.build_scene(1), spec)
    }

    #[test]
    fn full_render_covers_every_pixel() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let pano = r.render_panorama(&scene, eye, RenderFilter::All);
        assert_eq!(pano.coverage(), 1.0);
    }

    #[test]
    fn near_and_far_partition_coverage() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let cutoff = 10.0;
        let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff });
        let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff });
        // Every pixel is covered by at least one layer, and the near layer
        // is a strict subset.
        for i in 0..near.mask.len() {
            assert!(near.mask[i] != 0 || far.mask[i] != 0, "hole at {i}");
        }
        assert!(near.coverage() > 0.0);
        assert!(near.coverage() < 1.0);
        assert!(far.coverage() < 1.0);
    }

    #[test]
    fn sky_is_far_be() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let near = r.render_panorama(&scene, eye, RenderFilter::NearOnly { cutoff: 5.0 });
        // Top row is sky: never part of near BE.
        for px in 0..r.options().width {
            assert_eq!(near.mask[px as usize], 0);
        }
        let far = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff: 5.0 });
        for px in 0..r.options().width {
            assert_eq!(far.mask[px as usize], 1);
        }
    }

    #[test]
    fn renders_are_deterministic() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let a = r.render_panorama(&scene, eye, RenderFilter::All);
        let b = r.render_panorama(&scene, eye, RenderFilter::All);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let eye = scene.eye(scene.bounds().center());
        let serial = Renderer::default();
        let reference = serial.render_panorama(&scene, eye, RenderFilter::All);
        for workers in [2usize, 3, 8, 64] {
            let banded = Renderer::default().with_workers(workers);
            for filter in [
                RenderFilter::All,
                RenderFilter::NearOnly { cutoff: 10.0 },
                RenderFilter::FarOnly { cutoff: 10.0 },
            ] {
                let a = serial.render_panorama(&scene, eye, filter);
                let b = banded.render_panorama(&scene, eye, filter);
                assert_eq!(a, b, "filter {filter:?} diverged at {workers} workers");
            }
            let again = banded.render_panorama(&scene, eye, RenderFilter::All);
            assert_eq!(reference, again);
        }
    }

    #[test]
    fn near_object_effect_emerges_from_projection() {
        // The decisive property (Figure 3 / §4.2): moving the viewpoint
        // slightly must change far-BE frames much less than whole-BE
        // frames when near objects exist.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let r = Renderer::default();
        // Find a location with nearby objects.
        let mut probe = scene.bounds().center();
        'search: for i in 0..400 {
            let p = Vec2::new(10.0 + (i % 20) as f64 * 8.5, 10.0 + (i / 20) as f64 * 5.5);
            if scene.bounds().contains(p) && scene.triangles_within(p, 6.0) > 20_000 {
                probe = p;
                break 'search;
            }
        }
        let eye_a = scene.eye(probe);
        let eye_b = scene.eye(probe + Vec2::new(0.5, 0.0));
        let whole_a = r.render_panorama(&scene, eye_a, RenderFilter::All);
        let whole_b = r.render_panorama(&scene, eye_b, RenderFilter::All);
        let far_a = r.render_panorama(&scene, eye_a, RenderFilter::FarOnly { cutoff: 12.0 });
        let far_b = r.render_panorama(&scene, eye_b, RenderFilter::FarOnly { cutoff: 12.0 });
        let s_whole = coterie_frame::ssim(&whole_a.frame, &whole_b.frame);
        let s_far = coterie_frame::ssim(&far_a.frame, &far_b.frame);
        assert!(
            s_far > s_whole,
            "far-BE similarity ({s_far:.3}) must exceed whole-BE similarity ({s_whole:.3})"
        );
    }

    #[test]
    fn larger_cutoff_increases_far_similarity() {
        // Figure 5: SSIM between adjacent far-BE frames increases
        // monotonically (in trend) with the cutoff radius.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let r = Renderer::default();
        let p = scene.bounds().center();
        let eye_a = scene.eye(p);
        let eye_b = scene.eye(p + Vec2::new(0.4, 0.0));
        let mut last = -1.0;
        let mut increases = 0;
        let cutoffs = [0.0, 2.0, 6.0, 16.0];
        for &c in &cutoffs {
            let a = r.render_panorama(&scene, eye_a, RenderFilter::FarOnly { cutoff: c });
            let b = r.render_panorama(&scene, eye_b, RenderFilter::FarOnly { cutoff: c });
            let s = coterie_frame::ssim(&a.frame, &b.frame);
            if s >= last {
                increases += 1;
            }
            last = s;
        }
        assert!(increases >= 3, "similarity should rise with cutoff");
    }

    #[test]
    fn fi_objects_render_regardless_of_filter() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let eye = scene.eye(scene.bounds().center());
        let avatar = SceneObject {
            id: coterie_world::ObjectId(u32::MAX),
            position: (eye.ground() + Vec2::new(2.0, 2.0)).with_y(0.0),
            radius: 0.5,
            height: 1.8,
            triangles: 5000,
            albedo: 0.95,
            kind: ObjectKind::Cylinder,
            texture_seed: 1,
        };
        let without = r.render_panorama(&scene, eye, RenderFilter::FarOnly { cutoff: 50.0 });
        let with = r.render_panorama_with(
            &scene,
            eye,
            RenderFilter::FarOnly { cutoff: 50.0 },
            std::slice::from_ref(&avatar),
        );
        assert_ne!(without.frame, with.frame, "FI avatar must appear");
    }

    #[test]
    fn every_game_renders_without_panic() {
        let r = Renderer::new(RenderOptions::fast());
        for spec in GameCatalog::all() {
            let scene = spec.build_scene(3);
            let eye = scene.eye(scene.bounds().center());
            let pano = r.render_panorama(&scene, eye, RenderFilter::All);
            assert_eq!(pano.coverage(), 1.0, "{}", spec.id);
            let mean = pano.frame.mean();
            assert!(
                (0.05..0.95).contains(&mean),
                "{}: implausible mean luma {mean}",
                spec.id
            );
        }
    }

    #[test]
    fn pixel_dir_roundtrip() {
        let r = Renderer::default();
        for &(px, py) in &[(0u32, 0u32), (100, 60), (255, 127), (128, 64)] {
            let dir = r.pixel_dir(px, py);
            assert!((dir.length() - 1.0).abs() < 1e-9);
            let x = r.azimuth_to_px(dir.x.atan2(dir.z));
            let y = r.elevation_to_py(dir.y.asin());
            assert!((x - (px as f64 + 0.5)).abs() < 0.51, "px {px} -> {x}");
            assert!((y - (py as f64 + 0.5)).abs() < 0.51, "py {py} -> {y}");
        }
    }

    #[test]
    fn trig_tables_match_pixel_dir_everywhere() {
        let r = Renderer::default();
        let tables = r.tables();
        for py in 0..r.opts.height {
            for px in 0..r.opts.width {
                assert_eq!(
                    tables.dir(px as usize, py as usize),
                    r.pixel_dir(px, py),
                    "table dir drifted at ({px},{py})"
                );
            }
        }
        // The azimuth/elevation maps must be the exact roundtrips the
        // scalar hit tests computed.
        for py in (0..r.opts.height as usize).step_by(7) {
            for px in (0..r.opts.width as usize).step_by(11) {
                let dir = tables.dir(px, py);
                assert_eq!(tables.azimuth[py * r.opts.width as usize + px], {
                    dir.x.atan2(dir.z)
                });
                assert_eq!(tables.elevation[py], dir.y.asin());
            }
        }
    }

    #[test]
    fn clone_taken_before_the_first_render_shares_one_table_build() {
        // `RenderServer::new(scene, renderer.clone())` clones before
        // either side has rendered; both must still see one table set.
        let a = Renderer::new(RenderOptions::fast());
        let b = a.clone();
        assert!(std::ptr::eq(b.tables(), a.tables()));
        assert!(std::ptr::eq(a.clone().tables(), a.tables()));
        let other = Renderer::new(RenderOptions::fast());
        assert!(!std::ptr::eq(other.tables(), a.tables()));
    }

    #[test]
    fn sky_plane_holds_exactly_the_rows_above_the_horizon() {
        let r = Renderer::default();
        let t = r.tables();
        let w = r.opts.width as usize;
        assert_eq!(t.sky.len() % w, 0);
        let sky_rows = t.sky.len() / w;
        for (py, &se) in t.row_sin.iter().enumerate() {
            assert_eq!(se >= HORIZON_SIN, py < sky_rows, "row {py}");
        }
    }

    /// The ground depth plane as it was decided before rows were
    /// classified: every ground pixel asks the filter about its own
    /// ground distance.
    fn ground_depth_asking_every_pixel(
        r: &Renderer,
        eye_above: f64,
        filter: RenderFilter,
    ) -> Vec<f32> {
        let tables = r.tables();
        let (w, h) = (r.opts.width as usize, r.opts.height as usize);
        let mut depth = vec![f32::INFINITY; w * h];
        for py in 0..h {
            let Some(t) = tables.ground_ray(py, eye_above) else {
                continue;
            };
            for px in 0..w {
                let d = &mut depth[py * w + px];
                if t > r.opts.render_distance {
                    if filter.includes_sky() {
                        *d = r.opts.render_distance as f32;
                    }
                } else if filter.includes(t * tables.dir(px, py).ground().length()) {
                    *d = t as f32;
                }
            }
        }
        depth
    }

    #[test]
    fn cutoff_on_a_row_still_asks_every_pixel() {
        let (scene, _) = fps_scene();
        let r = Renderer::default();
        let tables = r.tables();
        let (w, h) = (r.opts.width as usize, r.opts.height as usize);
        let eye = scene.eye(scene.bounds().center());
        let eye_above = (eye.y - scene.terrain().height(eye.ground())).max(0.2);
        let mut rows_split_by_the_loop = 0;
        for py in [h / 2 + 1, h / 2 + 7, 3 * h / 4, h - 1] {
            let t = tables.ground_ray(py, eye_above).expect("a ground row");
            let on_row = t * tables.row_cos[py];
            for cutoff in [on_row.next_down(), on_row, on_row.next_up()] {
                let filters = [
                    RenderFilter::NearOnly { cutoff },
                    RenderFilter::FarOnly { cutoff },
                ];
                for filter in filters {
                    // The row is inside the margin, so it takes the loop.
                    assert_ne!(
                        filter.includes(on_row * (1.0 - CUTOFF_MARGIN)),
                        filter.includes(on_row * (1.0 + CUTOFF_MARGIN)),
                    );
                    let mut frame = vec![0.0; w * h];
                    let mut mask = vec![0u8; w * h];
                    let mut depth = vec![f32::INFINITY; w * h];
                    let mut band = Band {
                        y0: 0,
                        rows: h,
                        frame: &mut frame,
                        mask: &mut mask,
                        depth: &mut depth,
                        ground: GroundRow::default(),
                        texture: NoiseCellCache::new(),
                        ground_rows: Vec::new(),
                    };
                    r.paint_sky_and_ground_depth(eye_above, filter, tables, &mut band);
                    let want = ground_depth_asking_every_pixel(&r, eye_above, filter);
                    assert_eq!(depth, want, "{filter:?} at row {py}");
                    let in_row = want[py * w..(py + 1) * w]
                        .iter()
                        .filter(|d| d.is_finite())
                        .count();
                    rows_split_by_the_loop += usize::from(in_row != 0 && in_row != w);
                }
                let [near, far] = filters.map(|f| r.render_panorama(&scene, eye, f));
                for i in 0..w * h {
                    assert!(near.mask[i] != 0 || far.mask[i] != 0, "hole at {i}");
                }
            }
        }
        // `hypot` lands either side of `t · row_cos` within a row, so some
        // of these rows really are part near and part far.
        assert!(rows_split_by_the_loop > 0);
    }

    #[test]
    fn near_only_query_matches_walking_every_object() {
        // A near-BE frame asks the index for the cutoff's disc; the
        // reference hands the painter every object within the render
        // distance, in the order the wider query yields them, and lets
        // the filter drop the rest.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let r = Renderer::new(RenderOptions::fast());
        let rd = r.opts.render_distance;
        let mut near_objects = 0;
        for (i, p) in [
            scene.bounds().center(),
            Vec2::new(40.0, 55.0),
            Vec2::new(97.3, 21.9),
        ]
        .into_iter()
        .enumerate()
        {
            let eye = scene.eye(p);
            let avatar = SceneObject {
                id: coterie_world::ObjectId(u32::MAX),
                position: (eye.ground() + Vec2::new(1.5, -2.0)).with_y(0.0),
                radius: 0.4,
                height: 1.8,
                triangles: 5000,
                albedo: 0.9,
                kind: ObjectKind::Cylinder,
                texture_seed: 3,
            };
            let fi = [avatar];
            let fi: &[SceneObject] = if i == 1 { &fi } else { &[] };
            for cutoff in [0.0, 10.0, rd, 2.0 * rd] {
                let filter = RenderFilter::NearOnly { cutoff };
                let got = r.render_panorama_with(&scene, eye, filter, fi);
                let every = scene.objects_within(eye.ground(), rd);
                let want = r.render_objects(&scene, eye, filter, every, fi);
                assert_eq!(got, want, "cutoff {cutoff} at {p:?}");
                near_objects += scene.objects_within(eye.ground(), cutoff.min(rd)).count();
            }
        }
        assert!(near_objects > 0);
    }

    #[test]
    fn filter_includes_semantics() {
        assert!(RenderFilter::All.includes(1e9));
        let near = RenderFilter::NearOnly { cutoff: 5.0 };
        assert!(near.includes(4.9));
        assert!(!near.includes(5.0));
        let far = RenderFilter::FarOnly { cutoff: 5.0 };
        assert!(far.includes(5.0));
        assert!(!far.includes(4.9));
    }
}
