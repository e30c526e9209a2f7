//! Deterministic value noise and fractional Brownian motion.
//!
//! Used for terrain heightfields, ground albedo texture, object surface
//! detail, and per-game object-density fields. Everything is seeded so each
//! experiment is exactly reproducible.

use coterie_parallel::simd::{self, NoiseCell, OctaveCells, SimdLevel};

/// Fast deterministic integer hash (SplitMix64 finalizer).
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a 2-D integer lattice coordinate with a seed into `[0, 1)`.
#[inline]
pub fn lattice(seed: u64, ix: i64, iz: i64) -> f64 {
    let h = hash64(seed ^ hash64(ix as u64).wrapping_mul(0x9E37_79B9) ^ hash64(iz as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Smoothstep interpolation weight ([`NoiseCell`]'s memo lerps use the
/// same expression).
#[inline(always)]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Inline `f64::floor`. The workspace targets baseline x86-64 (SSE2, no
/// `roundsd`), where `f64::floor` lowers to an out-of-line libm call —
/// and the noise hot path calls it twice per evaluation. Truncating via
/// `i64` and correcting negatives gives the same value with two cheap
/// conversions. Exact for `|x| < 2^53`; above that every `f64` is an
/// integer, and infinities/NaN take the libm path unchanged.
#[inline(always)]
fn fast_floor(x: f64) -> f64 {
    if x.abs() < 9_007_199_254_740_992.0 {
        let t = x as i64 as f64;
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x.floor()
    }
}

/// Bilinear value noise in `[0, 1)` at a continuous 2-D coordinate.
///
/// The lattice has unit spacing; scale the inputs to change frequency.
///
/// ```
/// use coterie_world::noise::value_noise;
/// let a = value_noise(1, 0.5, 0.5);
/// let b = value_noise(1, 0.5, 0.5);
/// assert_eq!(a, b); // deterministic
/// assert!((0.0..1.0).contains(&a));
/// ```
#[inline]
pub fn value_noise(seed: u64, x: f64, z: f64) -> f64 {
    let x0 = fast_floor(x);
    let z0 = fast_floor(z);
    let fx = smooth(x - x0);
    let fz = smooth(z - z0);
    let (ix, iz) = (x0 as i64, z0 as i64);
    // Wrapping: `as i64` saturates from 2^63 up, and the cell past
    // `i64::MAX` is whatever release builds always took it to be.
    let (ix1, iz1) = (ix.wrapping_add(1), iz.wrapping_add(1));
    let v00 = lattice(seed, ix, iz);
    let v10 = lattice(seed, ix1, iz);
    let v01 = lattice(seed, ix, iz1);
    let v11 = lattice(seed, ix1, iz1);
    let a = v00 + (v10 - v00) * fx;
    let b = v01 + (v11 - v01) * fx;
    a + (b - a) * fz
}

/// One-cell memo for spatially coherent [`value_noise`] sweeps.
///
/// `value_noise` spends nearly all its time hashing the four lattice
/// corners of the cell containing the sample point. Renderer sweeps
/// (ground rows, sky columns) move through cells slowly — tens to
/// hundreds of consecutive samples share a cell — so remembering the
/// last cell's corners skips the hashes entirely on a hit. The
/// interpolation path is unchanged, so [`value_noise_cached`] returns
/// results bit-identical to [`value_noise`] regardless of hit pattern.
///
/// # Hits are decided without flooring the point
///
/// The memo keeps its cell's lower corner as `cx = ix as f64`,
/// `cz = iz as f64`, and a point is in the cell when its offsets
/// `x - cx` and `z - cz` both land in `[0, 1)`. Rounding a
/// difference is monotone and never turns a nonzero difference into
/// zero, so a rounded offset in `[0, 1)` means `cx <= x < cx + 1`; `cx`
/// is an integer, so `fast_floor(x) == cx` and the offset *is* the
/// subtraction the floor-and-compare path performs, against the same
/// corners. The test is sufficient, never necessary: NaN fails every
/// comparison, and from `|cx| = 2^53` up a cell admits `x == cx` alone.
/// Whatever fails takes the floor-and-compare path, as every lookup did
/// before.
#[derive(Debug, Clone, Default)]
pub struct NoiseCellCache {
    valid: bool,
    seed: u64,
    ix: i64,
    iz: i64,
    /// The lattice values at `(ix + a, iz + b)`, as `corners[a][b]`.
    corners: [[f64; 2]; 2],
    cell: NoiseCell,
}

/// Whether an offset from a cell's lower edge lies inside the cell.
#[inline(always)]
fn in_cell(t: f64) -> bool {
    (0.0..1.0).contains(&t)
}

impl NoiseCellCache {
    /// An empty cache (first lookup always misses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the memo holds a cell of `seed`'s lattice.
    #[inline(always)]
    fn is_for(&self, seed: u64) -> bool {
        self.valid && self.seed == seed
    }

    /// The held cell, if it is one of `seed`'s lattice.
    #[inline(always)]
    pub(crate) fn cell_for(&self, seed: u64) -> Option<&NoiseCell> {
        self.is_for(seed).then_some(&self.cell)
    }

    /// Makes the memo hold cell `(ix, iz)` of `seed`. Corners it shares
    /// with the held cell are copied, not hashed again: a coherent sweep
    /// leaves a cell for a neighbour, which shares two of them.
    #[inline(always)]
    fn seek(&mut self, seed: u64, ix: i64, iz: i64) {
        let held = self.is_for(seed);
        if held && self.ix == ix && self.iz == iz {
            return;
        }
        let corner = |cx: i64, cz: i64| {
            let (dx, dz) = (
                cx.wrapping_sub(self.ix) as u64,
                cz.wrapping_sub(self.iz) as u64,
            );
            if held && dx <= 1 && dz <= 1 {
                self.corners[dx as usize][dz as usize]
            } else {
                lattice(seed, cx, cz)
            }
        };
        let (ix1, iz1) = (ix.wrapping_add(1), iz.wrapping_add(1));
        let corners = [
            [corner(ix, iz), corner(ix, iz1)],
            [corner(ix1, iz), corner(ix1, iz1)],
        ];
        let [[v00, v01], [v10, v11]] = corners;
        *self = NoiseCellCache {
            valid: true,
            seed,
            ix,
            iz,
            corners,
            cell: NoiseCell {
                cx: ix as f64,
                cz: iz as f64,
                v00,
                v01,
                dx0: v10 - v00,
                dx1: v11 - v01,
            },
        };
    }
}

/// [`value_noise`] with a one-cell corner memo; bit-identical results.
///
/// ```
/// use coterie_world::noise::{value_noise, value_noise_cached, NoiseCellCache};
/// let mut cache = NoiseCellCache::new();
/// for i in 0..100 {
///     let x = i as f64 * 0.071;
///     assert_eq!(value_noise_cached(&mut cache, 9, x, 0.4), value_noise(9, x, 0.4));
/// }
/// ```
#[inline(always)]
pub fn value_noise_cached(cache: &mut NoiseCellCache, seed: u64, x: f64, z: f64) -> f64 {
    let (mut tx, mut tz) = (x - cache.cell.cx, z - cache.cell.cz);
    if !(cache.is_for(seed) && in_cell(tx) & in_cell(tz)) {
        let x0 = fast_floor(x);
        let z0 = fast_floor(z);
        cache.seek(seed, x0 as i64, z0 as i64);
        (tx, tz) = (x - x0, z - z0);
    }
    cache.cell.value(tx, tz)
}

/// The memos of one lattice for central-difference crosses: a shared
/// one for crosses inside one cell, and one per probe direction for a
/// cross that straddles a cell edge.
///
/// Where the eye stands near a cell line, a ring of ground points has
/// crosses on both sides of it and crosses across it. With one memo the
/// straddling crosses' probes fetched the two cells in turn, hashing
/// both again for every point (a 5 cm ring round a lattice corner cost
/// ~8× a 2 m ring); each probe direction keeps to one side of the line
/// for most of a ring, so its own memo refills a few times a ring.
#[derive(Debug, Clone, Default)]
pub struct CrossCache {
    shared: NoiseCellCache,
    /// `(x1, zc)`, `(x0, zc)`, `(xc, z1)`, `(xc, z0)`.
    probes: [NoiseCellCache; 4],
}

impl CrossCache {
    /// Empty memos (the first lookups miss).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cells the memos hold of `seed`'s lattice.
    #[inline(always)]
    fn cells_for(&self, seed: u64) -> OctaveCells<'_> {
        OctaveCells {
            shared: self.shared.cell_for(seed),
            probes: std::array::from_fn(|p| self.probes[p].cell_for(seed)),
        }
    }
}

/// Evaluates the four points of a central-difference cross — `(x1, zc)`,
/// `(x0, zc)`, `(xc, z1)`, `(xc, z0)`, the argument being
/// `[x1, x0, xc, z1, z0, zc]` — in that order. Bit-identical to four
/// [`value_noise`] calls.
///
/// The terrain normal's probes sit `2·eps` apart, so almost always in
/// one lattice cell: the shared memo is then checked and filled once, the
/// two x-probes share their column weight, and the two z-probes share
/// their row interpolants. A cross straddling a cell edge evaluates each
/// probe against that probe's own memo (same values, by
/// [`value_noise_cached`]'s own guarantee), and leaves the shared one on
/// its cell.
#[inline(always)]
pub fn value_noise_cached_cross(cache: &mut CrossCache, seed: u64, at: [f64; 6]) -> [f64; 4] {
    let shared = &mut cache.shared;
    let t: [f64; 6] = std::array::from_fn(|k| at[k] - shared.cell.edge(k));
    if shared.is_for(seed) && t.iter().fold(true, |all, &t| all & in_cell(t)) {
        return shared.cell.cross(t);
    }
    let floors = at.map(fast_floor);
    let [ix1, ix0, ixc, iz1, iz0, izc] = floors.map(|f| f as i64);
    if ix1 == ixc && ix0 == ixc && iz1 == izc && iz0 == izc {
        shared.seek(seed, ixc, izc);
        shared
            .cell
            .cross(std::array::from_fn(|k| at[k] - floors[k]))
    } else {
        let [x1, x0, xc, z1, z0, zc] = at;
        let [p0, p1, p2, p3] = &mut cache.probes;
        [
            value_noise_cached(p0, seed, x1, zc),
            value_noise_cached(p1, seed, x0, zc),
            value_noise_cached(p2, seed, xc, z1),
            value_noise_cached(p3, seed, xc, z0),
        ]
    }
}

/// The octaves of an fBm of four crosses at once, before they are
/// summed: octave `o` (lattice `seed + o`, frequency `2^o`) of lane
/// `j`'s cross `[probes[0][j], …, probes[5][j]]` lands in
/// `vals[o][probe][j]`, bit-identical to
/// `value_noise_cached_cross(&mut caches[o], seed + o, [probes[0][j] * 2^o, …])`.
///
/// Octaves whose shared memo already contains all 24 of their
/// coordinates, or whose probe memos each contain their probe's eight,
/// are evaluated in lanes by [`simd::noise_crosses_x4`] at `level`; the
/// others go lane by lane through [`value_noise_cached_cross`], which
/// leaves the memos on the last lane's cells for the next block.
#[inline(always)]
pub fn fbm_crosses_x4<const N: usize>(
    caches: &mut [CrossCache; N],
    seed: u64,
    probes: &[[f64; 4]; 6],
    vals: &mut [[[f64; 4]; 4]; N],
    level: SimdLevel,
) {
    let seeds: [u64; N] = std::array::from_fn(|o| seed.wrapping_add(o as u64));
    let mut freqs = [1.0; N];
    for o in 1..N {
        freqs[o] = freqs[o - 1] * 2.0;
    }
    let cells = std::array::from_fn(|o| caches[o].cells_for(seeds[o]));
    let held = simd::noise_crosses_x4(&cells, &freqs, probes, vals, level);
    for o in 0..N {
        if held >> o & 1 == 0 {
            crosses_x4_by_lane(&mut caches[o], seeds[o], freqs[o], probes, &mut vals[o]);
        }
    }
}

/// One octave of [`fbm_crosses_x4`] when its memo does not hold the
/// block. Kept out of line: its floors and refills are the rare path.
#[inline(never)]
fn crosses_x4_by_lane(
    cache: &mut CrossCache,
    seed: u64,
    freq: f64,
    probes: &[[f64; 4]; 6],
    vals: &mut [[f64; 4]; 4],
) {
    for j in 0..4 {
        let cross =
            value_noise_cached_cross(cache, seed, std::array::from_fn(|k| probes[k][j] * freq));
        for (probe, v) in vals.iter_mut().zip(cross) {
            probe[j] = v;
        }
    }
}

/// Fractional Brownian motion: `octaves` layers of [`value_noise`] with
/// per-octave frequency doubling and amplitude halving. Output in `[0, 1)`.
///
/// ```
/// use coterie_world::noise::fbm;
/// let v = fbm(42, 3.25, -1.5, 4);
/// assert!((0.0..1.0).contains(&v));
/// ```
pub fn fbm(seed: u64, x: f64, z: f64, octaves: u32) -> f64 {
    let mut amp = 0.5;
    let mut freq = 1.0;
    let mut total = 0.0;
    let mut norm = 0.0;
    for octave in 0..octaves {
        total += amp * value_noise(seed.wrapping_add(octave as u64), x * freq, z * freq);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    if norm > 0.0 {
        total / norm
    } else {
        0.0
    }
}

/// A tiny deterministic PRNG (xorshift*) for procedural placement where we
/// want cheap, seedable, dependency-free streams.
///
/// ```
/// use coterie_world::noise::SmallRng;
/// let mut a = SmallRng::new(9);
/// let mut b = SmallRng::new(9);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a seed. A zero seed is remapped internally.
    pub fn new(seed: u64) -> Self {
        SmallRng {
            state: hash64(seed).max(1),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_distinct_inputs() {
        assert_ne!(hash64(1), hash64(2));
        assert_ne!(hash64(0), hash64(u64::MAX));
    }

    #[test]
    fn lattice_in_unit_interval() {
        for i in -10..10 {
            for j in -10..10 {
                let v = lattice(5, i, j);
                assert!((0.0..1.0).contains(&v), "lattice out of range: {v}");
            }
        }
    }

    #[test]
    fn value_noise_matches_lattice_at_integers() {
        let v = value_noise(3, 4.0, 7.0);
        assert!((v - lattice(3, 4, 7)).abs() < 1e-12);
    }

    #[test]
    fn value_noise_is_continuous() {
        // Sample two very close points; noise must not jump.
        let a = value_noise(3, 1.5, 2.5);
        let b = value_noise(3, 1.5 + 1e-6, 2.5);
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn fast_floor_matches_floor() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            1.999_999_9,
            -1.999_999_9,
            9_007_199_254_740_991.5,
            -9_007_199_254_740_991.5,
            9_007_199_254_740_992.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for i in -1000..1000 {
            cases.push(i as f64 * 0.137);
        }
        for x in cases {
            assert_eq!(fast_floor(x), x.floor(), "fast_floor diverged at {x}");
        }
        assert!(fast_floor(f64::NAN).is_nan());
    }

    #[test]
    fn cached_noise_is_bit_identical_across_cells_and_seeds() {
        let mut cache = NoiseCellCache::new();
        // Sweep across many cell boundaries, interleaving two seeds so
        // every kind of cache miss (cell change, seed change) is hit.
        for i in -300..300 {
            let x = i as f64 * 0.173;
            let z = (i as f64 * 0.091).sin() * 5.0;
            for seed in [3u64, 9] {
                assert_eq!(
                    value_noise_cached(&mut cache, seed, x, z),
                    value_noise(seed, x, z),
                    "diverged at seed {seed}, ({x}, {z})"
                );
            }
        }
    }

    #[test]
    fn cross_matches_independent_evaluation() {
        let mut cache = CrossCache::new();
        let eps = 0.04;
        // Sweep the cross straight through lattice lines so both the
        // shared-cell fast path and the straddling fallback are hit.
        for i in 0..4000 {
            let x = -2.0 + i as f64 * 0.001;
            let z = 1.5 + (i as f64 * 0.0007).sin();
            let at = cross_at(x, z, eps);
            let got = value_noise_cached_cross(&mut cache, 7, at);
            let want = uncached_cross(at, 7);
            assert_eq!(got, want, "cross diverged at ({x}, {z})");
        }
    }

    /// The cross at `(x, z)` with arm `eps`, as its six coordinates.
    fn cross_at(x: f64, z: f64, eps: f64) -> [f64; 6] {
        [x + eps, x - eps, x, z + eps, z - eps, z]
    }

    fn uncached_cross([x1, x0, xc, z1, z0, zc]: [f64; 6], seed: u64) -> [f64; 4] {
        [
            value_noise(seed, x1, zc),
            value_noise(seed, x0, zc),
            value_noise(seed, xc, z1),
            value_noise(seed, xc, z0),
        ]
    }

    /// Bit patterns, with every NaN as one value: the language does not
    /// pin a NaN's sign or payload.
    fn bits<const N: usize>(v: [f64; N]) -> [u64; N] {
        v.map(|f| if f.is_nan() { u64::MAX } else { f.to_bits() })
    }

    /// Paths that enter and leave cell `(cx, cz)` through each edge and
    /// each corner, stepping onto `c`, `c + 1 - ulp` and one ulp outside
    /// either on the way.
    fn edge_and_corner_sweeps(cx: f64, cz: f64) -> Vec<(f64, f64)> {
        let stops = |c: f64| {
            let top = c + 1.0;
            vec![
                c - 0.3,
                c.next_down(),
                c,
                c.next_up(),
                c + 0.5,
                top.next_down(),
                top,
                top + 0.3,
            ]
        };
        let (xs, zs) = (stops(cx), stops(cz));
        let mut path = Vec::new();
        // Through the left/right edges, the bottom/top edges, then both
        // diagonals (in and out through opposite corners), each way.
        for &z in &[cz + 0.25, cz, (cz + 1.0).next_down()] {
            path.extend(xs.iter().map(|&x| (x, z)));
            path.extend(xs.iter().rev().map(|&x| (x, z)));
        }
        for &x in &[cx + 0.75, cx, (cx + 1.0).next_down()] {
            path.extend(zs.iter().map(|&z| (x, z)));
            path.extend(zs.iter().rev().map(|&z| (x, z)));
        }
        path.extend(xs.iter().zip(&zs).map(|(&x, &z)| (x, z)));
        path.extend(xs.iter().zip(zs.iter().rev()).map(|(&x, &z)| (x, z)));
        path.extend(xs.iter().rev().zip(&zs).map(|(&x, &z)| (x, z)));
        path
    }

    #[test]
    fn cached_noise_matches_through_every_edge_and_corner() {
        // Cells on both sides of zero, at the origin, and where
        // `cx + 1.0` stops being exact.
        let two53 = 9_007_199_254_740_992.0;
        for (cx, cz) in [
            (3.0, -2.0),
            (0.0, 0.0),
            (-1.0, 0.0),
            (-7.0, -7.0),
            (two53, 1.0),
            (-two53, -two53),
            (1e300, -1e300),
        ] {
            let mut cache = NoiseCellCache::new();
            let mut cross_cache = CrossCache::new();
            for (x, z) in edge_and_corner_sweeps(cx, cz) {
                assert_eq!(
                    bits([value_noise_cached(&mut cache, 5, x, z)]),
                    bits([value_noise(5, x, z)]),
                    "point diverged at ({x:e}, {z:e})"
                );
                // An arm longer than the edge stops are apart, so crosses
                // straddle the edge while their centre is still inside.
                for eps in [0.0, 1e-3, 0.4] {
                    let at = cross_at(x, z, eps);
                    assert_eq!(
                        bits(value_noise_cached_cross(&mut cross_cache, 5, at)),
                        bits(uncached_cross(at, 5)),
                        "cross diverged at ({x:e}, {z:e}) ± {eps}"
                    );
                }
            }
        }
        for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let mut cache = NoiseCellCache::new();
            let mut cross_cache = CrossCache::new();
            for (x, z) in [(0.5, 0.5), (odd, 0.5), (0.5, odd), (odd, odd), (0.25, 0.75)] {
                assert_eq!(
                    bits([value_noise_cached(&mut cache, 5, x, z)]),
                    bits([value_noise(5, x, z)]),
                    "point diverged at ({x}, {z})"
                );
                let at = cross_at(x, z, 0.1);
                assert_eq!(
                    bits(value_noise_cached_cross(&mut cross_cache, 5, at)),
                    bits(uncached_cross(at, 5)),
                    "cross diverged at ({x}, {z})"
                );
            }
        }
    }

    #[test]
    fn four_lane_cross_matches_lane_by_lane() {
        // Blocks that sit inside one cell, straddle an edge between
        // lanes, and straddle one within a lane's cross; the memos are
        // carried from block to block as a ground row carries them.
        let eps = 0.013;
        for level in coterie_parallel::simd::available_levels() {
            let mut caches: [CrossCache; 3] = Default::default();
            let mut reference: [CrossCache; 3] = Default::default();
            for block in 0..400 {
                let probes: [[f64; 4]; 6] = std::array::from_fn(|k| {
                    std::array::from_fn(|j| {
                        let x = -1.7 + (block * 4 + j) as f64 * 0.0041;
                        let z = 0.93 + ((block * 4 + j) as f64 * 0.0013).sin() * 0.2;
                        cross_at(x, z, eps)[k]
                    })
                });
                let mut got = [[[0.125; 4]; 4]; 3];
                fbm_crosses_x4(&mut caches, 11, &probes, &mut got, level);
                let mut want = [[[0.125; 4]; 4]; 3];
                for (o, cache) in reference.iter_mut().enumerate() {
                    let freq = f64::from(1u32 << o);
                    for j in 0..4 {
                        let at = std::array::from_fn(|k| probes[k][j] * freq);
                        let vals = value_noise_cached_cross(cache, 11 + o as u64, at);
                        for (probe, v) in want[o].iter_mut().zip(vals) {
                            probe[j] = v;
                        }
                        assert_eq!(bits(vals), bits(uncached_cross(at, 11 + o as u64)));
                    }
                }
                assert_eq!(
                    got.map(|o| o.map(bits)),
                    want.map(|o| o.map(bits)),
                    "{level:?} block {block}"
                );
            }
        }
    }

    #[test]
    fn fbm_range_and_determinism() {
        for i in 0..100 {
            let x = i as f64 * 0.37;
            let v = fbm(11, x, -x * 0.5, 5);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, fbm(11, x, -x * 0.5, 5));
        }
    }

    #[test]
    fn fbm_zero_octaves_is_zero() {
        assert_eq!(fbm(1, 0.3, 0.4, 0), 0.0);
    }

    #[test]
    fn fbm_differs_across_seeds() {
        assert_ne!(fbm(1, 0.3, 0.4, 4), fbm(2, 0.3, 0.4, 4));
    }

    #[test]
    fn small_rng_uniformish() {
        let mut rng = SmallRng::new(77);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn small_rng_range_and_below() {
        let mut rng = SmallRng::new(5);
        for _ in 0..1000 {
            let v = rng.range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
            let k = rng.below(7);
            assert!(k < 7);
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn small_rng_range_panics_on_reversed_bounds() {
        SmallRng::new(1).range(1.0, 0.0);
    }

    #[test]
    fn small_rng_zero_seed_ok() {
        let mut rng = SmallRng::new(0);
        let _ = rng.next_u64();
    }
}
