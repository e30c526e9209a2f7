//! Heightfield terrain.
//!
//! The paper's offline preprocessing uses ray tracing against the terrain
//! to find the player's foothold and adjust the camera height (§6). Our
//! terrain is an analytic fBm heightfield, so the "foothold" is a direct
//! evaluation, and the renderer ray-marches the same function for ground
//! pixels.

use crate::noise::{accumulate_cross_x4, fbm, value_noise, value_noise_cached, NoiseCellCache};
use crate::vec::{Vec2, Vec3};
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
/// queries (albedo then slope shading) never evict each other.
#[derive(Debug, Clone)]
pub struct TerrainSampler<'t> {
    terrain: &'t Terrain,
    normal_octaves: [NoiseCellCache; 4],
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

    /// Slope shading for a row of ground points:
    /// `out[i] = normal(pᵢ).dot(light).max(0.0)` with `pᵢ = (xs[i], zs[i])`
    /// and `normal` as [`Terrain::normal`], bit for bit.
    ///
    /// Points are taken four to a block. Per octave a block's four
    /// central-difference crosses go through [`accumulate_cross_x4`],
    /// which evaluates them in lanes when the octave's memo already
    /// holds all of them and one by one when it does not; the fBm
    /// scaling, the differences, the normalisation and the dot product
    /// then run lane by lane in the order [`Terrain::height`] and
    /// [`Vec3`]'s operators use.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn lambert_row(&mut self, xs: &[f64], zs: &[f64], light: Vec3, out: &mut [f64]) {
        assert_eq!(xs.len(), zs.len(), "coordinate rows differ in length");
        assert_eq!(xs.len(), out.len(), "output row differs in length");
        let blocks = xs.as_chunks::<4>().0.iter().zip(zs.as_chunks::<4>().0);
        for ((px, pz), out) in blocks.zip(out.as_chunks_mut::<4>().0) {
            *out = self.lambert_x4(px, pz, light);
        }
        // A short last block re-reads the row's last point into its spare
        // lanes.
        let n = xs.len();
        let done = n - n % 4;
        if done < n {
            let lane = |j: usize| (done + j).min(n - 1);
            let px = std::array::from_fn(|j| xs[lane(j)]);
            let pz = std::array::from_fn(|j| zs[lane(j)]);
            out[done..].copy_from_slice(&self.lambert_x4(&px, &pz, light)[..n - done]);
        }
    }

    #[inline]
    fn lambert_x4(&mut self, px: &[f64; 4], pz: &[f64; 4], light: Vec3) -> [f64; 4] {
        let eps = 0.1;
        let t = self.terrain;
        // Heights at `(x±eps, z)` and `(x, z±eps)`, `[probe][lane]` — the
        // fBm each probe would compute through `Terrain::height`,
        // batched per octave.
        let mut heights = [[0.0f64; 4]; 4];
        if t.amplitude != 0.0 {
            let probes = [
                px.map(|x| (x + eps) / t.wavelength),
                px.map(|x| (x - eps) / t.wavelength),
                px.map(|x| x / t.wavelength),
                pz.map(|z| (z + eps) / t.wavelength),
                pz.map(|z| (z - eps) / t.wavelength),
                pz.map(|z| z / t.wavelength),
            ];
            let mut amp = 0.5;
            let mut freq = 1.0;
            let mut norm = 0.0;
            for (octave, cache) in self.normal_octaves.iter_mut().enumerate() {
                let seed = t.seed.wrapping_add(octave as u64);
                accumulate_cross_x4(cache, seed, amp, freq, &probes, &mut heights);
                norm += amp;
                amp *= 0.5;
                freq *= 2.0;
            }
            // Four octaves: `norm` is 0.9375, so `fbm`'s zero-octave
            // branch has nothing to decide.
            for totals in &mut heights {
                for total in totals {
                    *total = t.amplitude * (*total / norm);
                }
            }
        }
        let [hx1, hx0, hz1, hz0] = heights;
        std::array::from_fn(|j| {
            let n = Vec3::new(
                -(hx1[j] - hx0[j]) / (2.0 * eps),
                1.0,
                -(hz1[j] - hz0[j]) / (2.0 * eps),
            )
            .normalized();
            n.dot(light).max(0.0)
        })
    }
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

    /// `lambert_row` over `points` against the uncached reference.
    fn assert_row_matches(t: &Terrain, s: &mut TerrainSampler<'_>, points: &[Vec2], light: Vec3) {
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.z).collect();
        let mut got = vec![f64::NAN; points.len()];
        s.lambert_row(&xs, &zs, light, &mut got);
        for (p, got) in points.iter().zip(got) {
            let want = t.normal(*p).dot(light).max(0.0);
            assert_eq!(got.to_bits(), want.to_bits(), "lambert diverged at {p:?}");
            assert_eq!(s.albedo(*p), t.albedo(*p), "albedo diverged at {p:?}");
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
