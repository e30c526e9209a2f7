//! Heightfield terrain.
//!
//! The paper's offline preprocessing uses ray tracing against the terrain
//! to find the player's foothold and adjust the camera height (§6). Our
//! terrain is an analytic fBm heightfield, so the "foothold" is a direct
//! evaluation, and the renderer ray-marches the same function for ground
//! pixels.
//!
//! [`TerrainSampler::lambert_row`] is the renderer's ground-shading
//! kernel: the terrain normal of four points at a time, through
//! per-octave noise memos and the `coterie_parallel::simd` block kernels,
//! bit-identical to [`Terrain::normal`] at every SIMD level. Each octave
//! keeps a memo for crosses inside one cell and one per probe direction
//! for crosses that straddle a cell edge (an eye on a cell line puts
//! every cross of its nadir rows across one).

use crate::noise::{
    fbm, fbm_crosses_x4, value_noise, value_noise_cached, CrossCache, NoiseCellCache,
};
use crate::vec::{Vec2, Vec3};
use coterie_parallel::simd::{self, SimdLevel};
use serde::{Deserialize, Serialize};

/// Analytic heightfield terrain with deterministic albedo texture.
///
/// ```
/// use coterie_world::{Terrain, Vec2};
/// let t = Terrain::new(42, 8.0, 80.0);
/// let h = t.height(Vec2::new(10.0, 20.0));
/// assert!(h >= 0.0 && h <= 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Terrain {
    seed: u64,
    amplitude: f64,
    wavelength: f64,
}

impl Terrain {
    /// Creates a terrain with the given elevation amplitude (meters) and
    /// horizontal feature wavelength (meters).
    ///
    /// # Panics
    ///
    /// Panics if `wavelength` is not strictly positive or `amplitude` is
    /// negative.
    pub fn new(seed: u64, amplitude: f64, wavelength: f64) -> Self {
        assert!(wavelength > 0.0, "terrain wavelength must be positive");
        assert!(amplitude >= 0.0, "terrain amplitude must be non-negative");
        Terrain {
            seed,
            amplitude,
            wavelength,
        }
    }

    /// A perfectly flat terrain (used by the indoor games).
    pub fn flat() -> Self {
        Terrain {
            seed: 0,
            amplitude: 0.0,
            wavelength: 1.0,
        }
    }

    /// Elevation amplitude in meters.
    #[inline]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Terrain elevation at a ground-plane position.
    #[inline]
    pub fn height(&self, p: Vec2) -> f64 {
        if self.amplitude == 0.0 {
            return 0.0;
        }
        self.amplitude * fbm(self.seed, p.x / self.wavelength, p.z / self.wavelength, 4)
    }

    /// The "foothold" of a player standing at `p`: ground position lifted
    /// to terrain height.
    #[inline]
    pub fn foothold(&self, p: Vec2) -> Vec3 {
        p.with_y(self.height(p))
    }

    /// Ground albedo (luma, `[0,1]`) at a position — grass/dirt/rock
    /// variation that gives the renderer's ground pixels real texture.
    #[inline]
    pub fn albedo(&self, p: Vec2) -> f64 {
        // Two scales: broad patches plus fine detail.
        let broad = value_noise(self.seed ^ 0xA1B2, p.x * 0.15, p.z * 0.15);
        let fine = value_noise(self.seed ^ 0xC3D4, p.x * 3.0, p.z * 3.0);
        0.22 + 0.42 * broad + 0.28 * fine
    }

    /// Approximate surface normal via central differences (used for
    /// shading slopes).
    #[inline]
    pub fn normal(&self, p: Vec2) -> Vec3 {
        let eps = 0.1;
        let hx1 = self.height(Vec2::new(p.x + eps, p.z));
        let hx0 = self.height(Vec2::new(p.x - eps, p.z));
        let hz1 = self.height(Vec2::new(p.x, p.z + eps));
        let hz0 = self.height(Vec2::new(p.x, p.z - eps));
        Vec3::new(-(hx1 - hx0) / (2.0 * eps), 1.0, -(hz1 - hz0) / (2.0 * eps)).normalized()
    }

    /// A stateful sampler for spatially coherent sweeps (renderer ground
    /// rows). Returns values bit-identical to the corresponding
    /// [`Terrain`] methods while memoizing noise-lattice corners across
    /// consecutive samples — the renderer hot path's biggest cost.
    pub fn sampler(&self) -> TerrainSampler<'_> {
        TerrainSampler {
            terrain: self,
            normal_octaves: Default::default(),
            albedo_broad: NoiseCellCache::new(),
            albedo_fine: NoiseCellCache::new(),
        }
    }
}

/// Cell-cached view of a [`Terrain`] (see [`Terrain::sampler`]).
///
/// Each noise call site gets its own [`NoiseCellCache`] so interleaved
/// queries (albedo then slope shading) never evict each other; each
/// octave of the normal's fBm gets a [`CrossCache`] (a shared memo and
/// one per probe direction).
#[derive(Debug, Clone)]
pub struct TerrainSampler<'t> {
    terrain: &'t Terrain,
    normal_octaves: [CrossCache; 4],
    albedo_broad: NoiseCellCache,
    albedo_fine: NoiseCellCache,
}

impl TerrainSampler<'_> {
    /// Cached [`Terrain::albedo`].
    #[inline]
    pub fn albedo(&mut self, p: Vec2) -> f64 {
        let broad = value_noise_cached(
            &mut self.albedo_broad,
            self.terrain.seed ^ 0xA1B2,
            p.x * 0.15,
            p.z * 0.15,
        );
        let fine = value_noise_cached(
            &mut self.albedo_fine,
            self.terrain.seed ^ 0xC3D4,
            p.x * 3.0,
            p.z * 3.0,
        );
        0.22 + 0.42 * broad + 0.28 * fine
    }

    /// [`TerrainSampler::albedo`] of a row of ground points,
    /// `out[i] = albedo((xs[i], zs[i]))`, bit for bit; four points to a
    /// block, each noise scale evaluated in lanes when its memo holds
    /// the block and point by point when it does not.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn albedo_row(&mut self, xs: &[f64], zs: &[f64], out: &mut [f64], level: SimdLevel) {
        assert_eq!(xs.len(), zs.len(), "coordinate rows differ in length");
        assert_eq!(xs.len(), out.len(), "output row differs in length");
        let seed = self.terrain.seed;
        let blocks = xs.as_chunks::<4>().0.iter().zip(zs.as_chunks::<4>().0);
        for ((px, pz), out) in blocks.zip(out.as_chunks_mut::<4>().0) {
            let broad = noise_x4(&mut self.albedo_broad, seed ^ 0xA1B2, 0.15, px, pz, level);
            let fine = noise_x4(&mut self.albedo_fine, seed ^ 0xC3D4, 3.0, px, pz, level);
            *out = std::array::from_fn(|j| 0.22 + 0.42 * broad[j] + 0.28 * fine[j]);
        }
        let done = xs.len() - xs.len() % 4;
        for i in done..xs.len() {
            out[i] = self.albedo(Vec2::new(xs[i], zs[i]));
        }
    }

    /// Slope shading for a row of ground points:
    /// `out[i] = normal(pᵢ).dot(light).max(0.0)` with `pᵢ = (xs[i], zs[i])`
    /// and `normal` as [`Terrain::normal`], bit for bit; the process-wide
    /// [`simd::detected_level`] picks the kernels.
    ///
    /// Points are taken four to a block. Per block the four octaves'
    /// central-difference crosses go through [`fbm_crosses_x4`], which
    /// evaluates an octave in lanes when its memo already holds all of
    /// that octave's crosses and lane by lane when it does not; then
    /// [`simd::fbm_lambert_x4`] sums the octaves, scales the fBm, takes
    /// the differences, normalises and dots, lane by lane in the order
    /// [`Terrain::height`] and [`Vec3`]'s operators use.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn lambert_row(&mut self, xs: &[f64], zs: &[f64], light: Vec3, out: &mut [f64]) {
        self.lambert_row_with_simd(xs, zs, light, out, simd::detected_level());
    }

    /// [`TerrainSampler::lambert_row`] at an explicit SIMD level; every
    /// level returns the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn lambert_row_with_simd(
        &mut self,
        xs: &[f64],
        zs: &[f64],
        light: Vec3,
        out: &mut [f64],
        level: SimdLevel,
    ) {
        assert_eq!(xs.len(), zs.len(), "coordinate rows differ in length");
        assert_eq!(xs.len(), out.len(), "output row differs in length");
        // The octaves at `(x±eps, z)` and `(x, z±eps)`,
        // `[octave][probe][lane]`: every block overwrites all of them, and
        // a flat terrain reads none, leaving the zeros that sum and scale
        // to the `+0.0` heights `Terrain::height` returns.
        let mut vals = [[[0.0f64; 4]; 4]; 4];
        let blocks = xs.as_chunks::<4>().0.iter().zip(zs.as_chunks::<4>().0);
        for ((px, pz), out) in blocks.zip(out.as_chunks_mut::<4>().0) {
            *out = self.lambert_x4(px, pz, light, &mut vals, level);
        }
        // A short last block re-reads the row's last point into its spare
        // lanes.
        let n = xs.len();
        let done = n - n % 4;
        if done < n {
            let lane = |j: usize| (done + j).min(n - 1);
            let px = std::array::from_fn(|j| xs[lane(j)]);
            let pz = std::array::from_fn(|j| zs[lane(j)]);
            let last = self.lambert_x4(&px, &pz, light, &mut vals, level);
            out[done..].copy_from_slice(&last[..n - done]);
        }
    }

    /// One block of [`TerrainSampler::lambert_row_with_simd`], the
    /// octaves going through `vals`.
    #[inline]
    fn lambert_x4(
        &mut self,
        px: &[f64; 4],
        pz: &[f64; 4],
        light: Vec3,
        vals: &mut [[[f64; 4]; 4]; 4],
        level: SimdLevel,
    ) -> [f64; 4] {
        let eps = 0.1;
        let t = self.terrain;
        if t.amplitude != 0.0 {
            // `from_fn` over indices: `map` left 24 scalar divisions a
            // block where these are packed.
            let wl = t.wavelength;
            let probes: [[f64; 4]; 6] = [
                std::array::from_fn(|j| (px[j] + eps) / wl),
                std::array::from_fn(|j| (px[j] - eps) / wl),
                std::array::from_fn(|j| px[j] / wl),
                std::array::from_fn(|j| (pz[j] + eps) / wl),
                std::array::from_fn(|j| (pz[j] - eps) / wl),
                std::array::from_fn(|j| pz[j] / wl),
            ];
            fbm_crosses_x4(&mut self.normal_octaves, t.seed, &probes, vals, level);
        }
        // `fbm`'s amplitudes halve from 0.5 and sum exactly to
        // `norm` = 0.9375, so its zero-octave branch has nothing to decide.
        let amps = [0.5, 0.25, 0.125, 0.0625];
        let light = [light.x, light.y, light.z];
        simd::fbm_lambert_x4(vals, &amps, 0.9375, t.amplitude, eps, light, level)
    }
}

/// `value_noise_cached(cache, seed, x * scale, z * scale)` of four
/// points, in lanes when the memo holds all four.
#[inline]
fn noise_x4(
    cache: &mut NoiseCellCache,
    seed: u64,
    scale: f64,
    px: &[f64; 4],
    pz: &[f64; 4],
    level: SimdLevel,
) -> [f64; 4] {
    cache
        .cell_for(seed)
        .and_then(|cell| simd::noise_values_x4(cell, scale, px, pz, level))
        .unwrap_or_else(|| {
            std::array::from_fn(|j| value_noise_cached(cache, seed, px[j] * scale, pz[j] * scale))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_terrain_is_zero() {
        let t = Terrain::flat();
        assert_eq!(t.height(Vec2::new(12.0, -7.0)), 0.0);
        assert_eq!(t.normal(Vec2::ZERO), Vec3::new(0.0, 1.0, 0.0));
    }

    #[test]
    fn height_within_amplitude() {
        let t = Terrain::new(3, 5.0, 40.0);
        for i in 0..50 {
            let p = Vec2::new(i as f64 * 3.1, i as f64 * -1.7);
            let h = t.height(p);
            assert!((0.0..=5.0).contains(&h), "height {h} out of range");
        }
    }

    #[test]
    fn foothold_lifts_to_height() {
        let t = Terrain::new(3, 5.0, 40.0);
        let p = Vec2::new(8.0, 9.0);
        let f = t.foothold(p);
        assert_eq!(f.ground(), p);
        assert_eq!(f.y, t.height(p));
    }

    #[test]
    fn albedo_in_unit_range() {
        let t = Terrain::new(9, 2.0, 30.0);
        for i in 0..100 {
            let a = t.albedo(Vec2::new(i as f64 * 0.9, i as f64 * 1.3));
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn normal_is_unit_and_upward() {
        let t = Terrain::new(5, 6.0, 20.0);
        for i in 0..20 {
            let n = t.normal(Vec2::new(i as f64 * 2.0, 5.0));
            assert!((n.length() - 1.0).abs() < 1e-9);
            assert!(n.y > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "wavelength must be positive")]
    fn invalid_wavelength_rejected() {
        let _ = Terrain::new(1, 1.0, 0.0);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = Terrain::new(7, 4.0, 25.0);
        let b = Terrain::new(7, 4.0, 25.0);
        let p = Vec2::new(13.0, 31.0);
        assert_eq!(a.height(p), b.height(p));
        assert_eq!(a.albedo(p), b.albedo(p));
    }

    /// `lambert_row` over `points` against the uncached reference, at
    /// every SIMD level the CPU runs.
    fn assert_row_matches(t: &Terrain, s: &mut TerrainSampler<'_>, points: &[Vec2], light: Vec3) {
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.z).collect();
        for level in simd::available_levels() {
            let mut got = vec![f64::NAN; points.len()];
            s.lambert_row_with_simd(&xs, &zs, light, &mut got, level);
            let mut albedo = vec![f64::NAN; points.len()];
            s.albedo_row(&xs, &zs, &mut albedo, level);
            for ((p, got), albedo) in points.iter().zip(got).zip(albedo) {
                assert_eq!(
                    albedo,
                    t.albedo(*p),
                    "{level:?} albedo row diverged at {p:?}"
                );
                let want = t.normal(*p).dot(light).max(0.0);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{level:?} lambert diverged at {p:?}"
                );
                assert_eq!(s.albedo(*p), t.albedo(*p), "albedo diverged at {p:?}");
            }
        }
    }

    #[test]
    fn rings_round_lattice_corners_and_lines_match_bit_for_bit() {
        // A nadir row of an eye standing on a cell line: rings of
        // 1 cm to 50 cm, each a renderer row's worth of points, centred
        // on a point that is a lattice corner at all four octaves (a
        // multiple of the wavelength), on one that is a cell line of
        // every octave in x only, and one ulp either side of both. Every
        // cross of the smallest rings straddles a cell edge at every
        // octave, and the rings' blocks fall to each memo in turn.
        let wavelength = 80.0;
        let t = Terrain::new(42, 8.0, wavelength);
        let light = Vec3::new(0.35, 0.85, 0.40).normalized();
        let corner = Vec2::new(2.0 * wavelength, -wavelength);
        let line = Vec2::new(3.0 * wavelength, 37.3);
        let centres = [
            corner,
            Vec2::new(corner.x.next_up(), corner.z.next_down()),
            Vec2::new(corner.x.next_down(), corner.z.next_up()),
            line,
            Vec2::new(line.x.next_up(), line.z),
            Vec2::new(line.x.next_down(), line.z),
        ];
        let mut s = t.sampler();
        for centre in centres {
            for radius in [0.01, 0.02, 0.05, 0.1, 0.2, 0.5] {
                for n in [256, 61] {
                    let ring: Vec<Vec2> = (0..n)
                        .map(|i| {
                            let a = i as f64 / n as f64 * std::f64::consts::TAU;
                            Vec2::new(centre.x + radius * a.sin(), centre.z + radius * a.cos())
                        })
                        .collect();
                    assert_row_matches(&t, &mut s, &ring, light);
                }
            }
        }
    }

    #[test]
    fn sampler_matches_terrain_bit_for_bit() {
        let t = Terrain::new(42, 8.0, 80.0);
        let mut s = t.sampler();
        let light = Vec3::new(0.35, 0.85, 0.40).normalized();
        // Sweeps resembling renderer ground rows: slowly drifting
        // positions with occasional jumps (new rows / bands), in rows of
        // every length modulo the block size.
        let points: Vec<Vec2> = (0..500)
            .map(|i| {
                if i % 97 == 0 {
                    Vec2::new(i as f64 * 3.7 - 200.0, i as f64 * -1.9)
                } else {
                    Vec2::new(i as f64 * 0.11, (i as f64 * 0.05).sin() * 30.0)
                }
            })
            .collect();
        let mut rest = points.as_slice();
        for len in (0..=9).cycle() {
            if rest.is_empty() {
                break;
            }
            let (row, tail) = rest.split_at(len.min(rest.len()));
            assert_row_matches(&t, &mut s, row, light);
            rest = tail;
        }
    }

    #[test]
    fn sampler_on_flat_terrain() {
        let t = Terrain::flat();
        let mut s = t.sampler();
        let up = Vec3::new(0.0, 1.0, 0.0);
        let points = [Vec2::new(3.0, -4.0), Vec2::ZERO, Vec2::new(1e6, 0.5)];
        assert_row_matches(&t, &mut s, &points, up);
        let mut out = [0.0; 3];
        s.lambert_row(&[3.0, 0.0, 1e6], &[-4.0, 0.0, 0.5], up, &mut out);
        assert_eq!(out, [1.0; 3]);
    }
}
