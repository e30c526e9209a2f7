//! Runtime-dispatched SIMD kernels for the workspace's hot loops.
//!
//! Every kernel here has two implementations — portable scalar and
//! 256-bit AVX2 — selected at runtime by a [`SimdLevel`] argument. The
//! render server is x86-64 with AVX2; the paper's phone client runs the
//! scalar code. The scalar path is the *reference semantics*: each AVX2
//! body replicates the scalar per-lane IEEE operation order exactly
//! (same multiply/add association, no FMA contraction), so for every
//! kernel in this module the two levels produce **bit-identical**
//! results, pinned kernel by kernel by this module's parity tests. That
//! is what keeps `COTERIE_SIMD=scalar` output byte-identical to the
//! historical scalar code.
//!
//! Dispatch policy:
//!
//! * [`cpu_level`] — what the CPU supports (`is_x86_feature_detected!`,
//!   evaluated per call but cheap): `Avx2` when present, else `Scalar`.
//! * [`detected_level`] — the process-wide default: `Scalar` when
//!   `COTERIE_SIMD=scalar` (read once, cached in a `OnceLock`), else
//!   [`cpu_level`]. Any other value auto-detects.
//! * Every public kernel takes an explicit `level` and internally
//!   clamps it to [`cpu_level`], so passing `Avx2` on a non-AVX2 box is
//!   safe (it silently degrades) and tests can exercise both levels
//!   in-process via [`available_levels`] without touching global state.
//!
//! Safety: the `unsafe` intrinsic bodies live in the private `x86`
//! module; each dispatch site's `unsafe` block carries the argument for
//! why the call is sound (CPU support proven by the clamp, in-bounds
//! offsets asserted before dispatch).

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// A SIMD instruction-set tier, ordered from narrowest to widest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar Rust — the reference semantics for every kernel.
    Scalar,
    /// 256-bit AVX2 paths.
    Avx2,
}

impl SimdLevel {
    /// Lower-case name, as recorded in benchmark provenance.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The widest level this CPU supports.
pub fn cpu_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The process-wide default level: `Scalar` under `COTERIE_SIMD=scalar`
/// (read once), otherwise what the CPU supports.
pub fn detected_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("COTERIE_SIMD") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => SimdLevel::Scalar,
        // Any other value auto-detects rather than aborts: a typo'd
        // override must not change behaviour, only speed.
        _ => cpu_level(),
    })
}

/// Every level the CPU can run, narrowest first (always starts with
/// `Scalar`). Tests iterate this to assert cross-level parity.
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= cpu_level())
        .collect()
}

/// Clamps a requested level to CPU capability; the proof obligation for
/// every `unsafe` dispatch below.
#[inline]
fn clamp_level(level: SimdLevel) -> SimdLevel {
    level.min(cpu_level())
}

// ---------------------------------------------------------------------
// 8×8 DCT-II
// ---------------------------------------------------------------------

/// Orthonormal 8×8 DCT-II with a precomputed basis and its transpose
/// (the layout the SIMD row pass needs), built once per codec instance
/// instead of per block.
#[derive(Clone, Debug)]
pub struct Dct8x8 {
    /// `basis[u][x] = c(u) * cos((2x+1) u π / 16)`.
    basis: [[f32; 8]; 8],
    /// `basis_t[x][u] = basis[u][x]`.
    basis_t: [[f32; 8]; 8],
}

impl Default for Dct8x8 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dct8x8 {
    /// Builds the cosine basis with the orthonormal scaling
    /// `c(0)=sqrt(1/8)`, `c(u)=sqrt(2/8)` (in f64, rounded once to f32 —
    /// the same construction the historical per-block `OnceLock` used).
    pub fn new() -> Self {
        let mut basis = [[0.0f32; 8]; 8];
        for (u, row) in basis.iter_mut().enumerate() {
            let c = if u == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = (c * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos())
                    as f32;
            }
        }
        let mut basis_t = [[0.0f32; 8]; 8];
        for u in 0..8 {
            for x in 0..8 {
                basis_t[x][u] = basis[u][x];
            }
        }
        Dct8x8 { basis, basis_t }
    }

    /// Forward 2-D DCT of an 8×8 block (row-major).
    pub fn forward(&self, input: &[f32; 64], output: &mut [f32; 64], level: SimdLevel) {
        match clamp_level(level) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: clamp_level caps the request at cpu_level(), which
            // only reports Avx2 when the CPU has it; all buffers are
            // fixed-size arrays, so every offset is in bounds.
            SimdLevel::Avx2 => unsafe {
                x86::dct_forward_avx2(&self.basis, &self.basis_t, input, output)
            },
            _ => self.forward_scalar(input, output),
        }
    }

    /// Inverse 2-D DCT of an 8×8 coefficient block (row-major).
    pub fn inverse(&self, coeffs: &[f32; 64], output: &mut [f32; 64], level: SimdLevel) {
        match clamp_level(level) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level clamped to CPU capability; fixed-size arrays.
            SimdLevel::Avx2 => unsafe { x86::dct_inverse_avx2(&self.basis, coeffs, output) },
            _ => self.inverse_scalar(coeffs, output),
        }
    }

    fn forward_scalar(&self, input: &[f32; 64], output: &mut [f32; 64]) {
        let b = &self.basis;
        // Rows first.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            for u in 0..8 {
                let mut acc = 0.0f32;
                for x in 0..8 {
                    acc += input[y * 8 + x] * b[u][x];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        // Then columns.
        for u in 0..8 {
            for v in 0..8 {
                let mut acc = 0.0f32;
                for y in 0..8 {
                    acc += tmp[y * 8 + u] * b[v][y];
                }
                output[v * 8 + u] = acc;
            }
        }
    }

    fn inverse_scalar(&self, coeffs: &[f32; 64], output: &mut [f32; 64]) {
        let b = &self.basis;
        let mut tmp = [0.0f32; 64];
        // Columns first (transpose of forward).
        for u in 0..8 {
            for y in 0..8 {
                let mut acc = 0.0f32;
                for v in 0..8 {
                    acc += coeffs[v * 8 + u] * b[v][y];
                }
                tmp[y * 8 + u] = acc;
            }
        }
        for y in 0..8 {
            for x in 0..8 {
                let mut acc = 0.0f32;
                for u in 0..8 {
                    acc += tmp[y * 8 + u] * b[u][x];
                }
                output[y * 8 + x] = acc;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------

/// Quantizes an 8×8 coefficient block: `out[i] = (coeffs[i] /
/// qtable[i]).round() as i32` (round half away from zero, exactly as
/// `f32::round`). Returns the block's nonzero mask in raster order: bit
/// `i` is set exactly when `out[i] != 0`, so an all-zero block returns
/// `0`.
///
/// The SIMD paths assume `|coeffs[i] / qtable[i]| < 2^23` and no NaNs —
/// trivially true for DCT output of frames in `[-0.5, 0.5]` divided by
/// the codec's quantization tables (the scalar `as i32` saturating cast
/// and `cvttps` only diverge far outside that domain).
pub fn quantize_8x8(
    coeffs: &[f32; 64],
    qtable: &[f32; 64],
    out: &mut [i32; 64],
    level: SimdLevel,
) -> u64 {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; fixed-size arrays.
        SimdLevel::Avx2 => unsafe { x86::quantize_avx2(coeffs, qtable, out) },
        _ => quantize_scalar(coeffs, qtable, out),
    }
}

fn quantize_scalar(coeffs: &[f32; 64], qtable: &[f32; 64], out: &mut [i32; 64]) -> u64 {
    let mut mask = 0u64;
    for i in 0..64 {
        out[i] = (coeffs[i] / qtable[i]).round() as i32;
        mask |= u64::from(out[i] != 0) << i;
    }
    mask
}

/// Dequantizes an 8×8 block: `out[i] = q[i] as f32 * qtable[i]`.
pub fn dequantize_8x8(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64], level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; fixed-size arrays.
        SimdLevel::Avx2 => unsafe { x86::dequantize_avx2(q, qtable, out) },
        _ => dequantize_scalar(q, qtable, out),
    }
}

fn dequantize_scalar(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64]) {
    for i in 0..64 {
        out[i] = q[i] as f32 * qtable[i];
    }
}

// ---------------------------------------------------------------------
// f32 plane ops (codec residual and decode planes)
// ---------------------------------------------------------------------

/// Element-wise `out[i] = a[i] - b[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_planes_f32(a: &[f32], b: &[f32], out: &mut [f32], level: SimdLevel) {
    assert_eq!(a.len(), b.len(), "plane lengths differ");
    assert_eq!(a.len(), out.len(), "output length differs");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths
        // asserted above keep every vector load/store in bounds.
        SimdLevel::Avx2 => unsafe { x86::sub_planes_avx2(a, b, out) },
        _ => sub_planes_scalar(a, b, out),
    }
}

fn sub_planes_scalar(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Element-wise in-place `dst[i] += src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_planes_f32(dst: &mut [f32], src: &[f32], level: SimdLevel) {
    assert_eq!(dst.len(), src.len(), "plane lengths differ");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths asserted.
        SimdLevel::Avx2 => unsafe { x86::add_planes_avx2(dst, src) },
        _ => add_planes_scalar(dst, src),
    }
}

fn add_planes_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise in-place `dst[i] = dst[i].clamp(0.0, 1.0)`.
///
/// The SIMD paths use compare-and-select rather than min/max, so the
/// edge cases match scalar `f32::clamp` bit-for-bit: `-0.0` is kept
/// (it is not `< 0.0`) and NaN passes through unchanged.
pub fn clamp_unit_f32(dst: &mut [f32], level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice, offsets
        // bounded by its length.
        SimdLevel::Avx2 => unsafe { x86::clamp_unit_avx2(dst) },
        _ => clamp_unit_scalar(dst),
    }
}

fn clamp_unit_scalar(dst: &mut [f32]) {
    for d in dst.iter_mut() {
        *d = d.clamp(0.0, 1.0);
    }
}

/// Fused `dst[i] = (dst[i] + s).clamp(0.0, 1.0)` — one pass over the
/// plane instead of adding `s` and then [`clamp_unit_f32`] (the
/// decoder's un-center + clamp epilogue; value-for-value identical to
/// the two passes, just half the memory traffic).
pub fn add_clamp_unit_f32(dst: &mut [f32], s: f32, level: SimdLevel) {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice, offsets
        // bounded by its length.
        SimdLevel::Avx2 => unsafe { x86::add_clamp_unit_avx2(dst, s) },
        _ => add_clamp_unit_scalar(dst, s),
    }
}

fn add_clamp_unit_scalar(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d = (*d + s).clamp(0.0, 1.0);
    }
}

/// Returns `true` if any `|src[i]| > thresh` (strict; NaN compares
/// false on every path, matching scalar `f32::abs` + `>`).
pub fn any_abs_above(src: &[f32], thresh: f32, level: SimdLevel) -> bool {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; single slice.
        SimdLevel::Avx2 => unsafe { x86::any_abs_above_avx2(src, thresh) },
        _ => any_abs_above_scalar(src, thresh),
    }
}

fn any_abs_above_scalar(src: &[f32], thresh: f32) -> bool {
    src.iter().any(|&v| v.abs() > thresh)
}

// ---------------------------------------------------------------------
// SSIM moment kernels (f64)
// ---------------------------------------------------------------------

/// The five SSIM moment planes for one row of window centers, in
/// structure-of-arrays layout: weighted sums of `a`, `b`, `a²`, `b²`
/// and `ab`.
#[derive(Debug)]
pub struct MomentRowsMut<'a> {
    /// Σ k·a per center.
    pub a: &'a mut [f64],
    /// Σ k·b per center.
    pub b: &'a mut [f64],
    /// Σ (k·a)·a per center.
    pub aa: &'a mut [f64],
    /// Σ (k·b)·b per center.
    pub bb: &'a mut [f64],
    /// Σ (k·a)·b per center.
    pub ab: &'a mut [f64],
}

/// Horizontal SSIM moment pass for one pixel row: for each window
/// center `ci`, accumulates the five Gaussian-weighted moments over
/// `a_row[ci..ci + kernel.len()]` (and likewise `b_row`), replicating
/// the scalar association exactly (each `f32` pixel widened to `f64` —
/// exact — then `k*a`, `(k*a)*a`, `(k*a)*b`, `k*b`, `(k*b)*b`,
/// accumulated in kernel-tap order from 0.0).
///
/// # Panics
///
/// Panics if the five output slices differ in length or the input rows
/// are shorter than `out.a.len() + kernel.len() - 1`.
pub fn ssim_moments_row(
    a_row: &[f32],
    b_row: &[f32],
    kernel: &[f64],
    out: &mut MomentRowsMut<'_>,
    level: SimdLevel,
) {
    let n = out.a.len();
    assert_eq!(out.b.len(), n, "moment plane lengths differ");
    assert_eq!(out.aa.len(), n, "moment plane lengths differ");
    assert_eq!(out.bb.len(), n, "moment plane lengths differ");
    assert_eq!(out.ab.len(), n, "moment plane lengths differ");
    assert!(!kernel.is_empty(), "empty kernel");
    assert!(
        a_row.len() >= n + kernel.len() - 1 && b_row.len() >= n + kernel.len() - 1,
        "input rows too short for {} centers with a {}-tap kernel",
        n,
        kernel.len()
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; the length asserts
        // above guarantee every `ci + ki + lanes` load stays inside the
        // input rows and every store inside the five output planes.
        SimdLevel::Avx2 => unsafe { x86::ssim_moments_avx2(a_row, b_row, kernel, out) },
        _ => ssim_moments_scalar(a_row, b_row, kernel, out, 0),
    }
}

/// Scalar moment pass from center `start` to the end; also the tail
/// handler for the SIMD paths.
fn ssim_moments_scalar(
    a_row: &[f32],
    b_row: &[f32],
    kernel: &[f64],
    out: &mut MomentRowsMut<'_>,
    start: usize,
) {
    for ci in start..out.a.len() {
        let mut m = [0.0f64; 5];
        for (ki, &kx) in kernel.iter().enumerate() {
            let va = a_row[ci + ki] as f64;
            let vb = b_row[ci + ki] as f64;
            m[0] += kx * va;
            m[1] += kx * vb;
            m[2] += kx * va * va;
            m[3] += kx * vb * vb;
            m[4] += kx * va * vb;
        }
        out.a[ci] = m[0];
        out.b[ci] = m[1];
        out.aa[ci] = m[2];
        out.bb[ci] = m[3];
        out.ab[ci] = m[4];
    }
}

/// Shared-ref view of `klen` consecutive blurred moment rows (the
/// vertical window of one output row), each `stride` centers wide, in
/// the same five-plane layout as [`MomentRowsMut`].
#[derive(Debug)]
pub struct MomentRows<'a> {
    /// Σ k·a rows.
    pub a: &'a [f64],
    /// Σ k·b rows.
    pub b: &'a [f64],
    /// Σ (k·a)·a rows.
    pub aa: &'a [f64],
    /// Σ (k·b)·b rows.
    pub bb: &'a [f64],
    /// Σ (k·a)·b rows.
    pub ab: &'a [f64],
}

/// Vertical SSIM pass fused with the per-window formula: for each
/// center `ci`, combines `kernel.len()` blurred moment rows
/// (`rows.a[ki * stride + ci]`, …) with the vertical kernel — the same
/// register-accumulated tap order as the scalar walk — and evaluates
/// the SSIM term with stabilizers `c1`/`c2` straight out of registers:
///
/// ```text
/// ssim = ((2·μa·μb + c1)(2·cov + c2)) / ((μa² + μb² + c1)(σa² + σb² + c2))
/// ```
///
/// with variances clamped at zero. Every operation replicates the
/// scalar association per lane (division is exactly rounded, and the
/// clamp is compare-and-select), so all dispatch levels produce
/// bit-identical maps.
///
/// # Panics
///
/// Panics if the five row slices differ in length, the kernel is empty,
/// `out` is wider than `stride`, or the rows are shorter than the
/// `kernel.len()` vertical taps need.
pub fn ssim_windows_row(
    rows: &MomentRows<'_>,
    stride: usize,
    kernel: &[f64],
    c1: f64,
    c2: f64,
    out: &mut [f64],
    level: SimdLevel,
) {
    let n = out.len();
    assert_eq!(rows.b.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.aa.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.bb.len(), rows.a.len(), "moment row lengths differ");
    assert_eq!(rows.ab.len(), rows.a.len(), "moment row lengths differ");
    assert!(!kernel.is_empty(), "empty kernel");
    assert!(n <= stride, "output row wider than the plane stride");
    assert!(
        rows.a.len() >= (kernel.len() - 1) * stride + n,
        "moment rows too short for {} vertical taps over {} centers",
        kernel.len(),
        n
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; the asserts above
        // guarantee every `ki * stride + ci + lanes` load stays inside
        // the five row slices and every store inside `out`.
        SimdLevel::Avx2 => unsafe { x86::ssim_windows_avx2(rows, stride, kernel, c1, c2, out) },
        _ => ssim_windows_scalar(rows, stride, kernel, c1, c2, out, 0),
    }
}

/// Scalar vertical-pass + formula from center `start`; also the tail
/// handler for the SIMD paths.
// Indexing `out[ci]` alongside `ki * stride + ci` keeps the center/tap
// addressing symmetric with the SIMD bodies.
#[allow(clippy::needless_range_loop)]
fn ssim_windows_scalar(
    rows: &MomentRows<'_>,
    stride: usize,
    kernel: &[f64],
    c1: f64,
    c2: f64,
    out: &mut [f64],
    start: usize,
) {
    for ci in start..out.len() {
        let mut m = [0.0f64; 5];
        for (ki, &ky) in kernel.iter().enumerate() {
            let o = ki * stride + ci;
            m[0] += ky * rows.a[o];
            m[1] += ky * rows.b[o];
            m[2] += ky * rows.aa[o];
            m[3] += ky * rows.bb[o];
            m[4] += ky * rows.ab[o];
        }
        let [mu_a, mu_b, aa, bb, ab] = m;
        let var_a = (aa - mu_a * mu_a).max(0.0);
        let var_b = (bb - mu_b * mu_b).max(0.0);
        let cov = ab - mu_a * mu_b;
        let numerator = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
        let denominator = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2);
        out[ci] = numerator / denominator;
    }
}

// ---------------------------------------------------------------------
// Layer merge
// ---------------------------------------------------------------------

/// In-place masked select: `dst[i] = src[i]` wherever `mask[i] != 0`
/// (an exact bitwise select — no arithmetic).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn masked_select_f32(dst: &mut [f32], src: &[f32], mask: &[u8], level: SimdLevel) {
    assert_eq!(dst.len(), src.len(), "plane lengths differ");
    assert_eq!(dst.len(), mask.len(), "mask length differs");
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; equal lengths asserted.
        SimdLevel::Avx2 => unsafe { x86::masked_select_avx2(dst, src, mask) },
        _ => masked_select_scalar(dst, src, mask),
    }
}

fn masked_select_scalar(dst: &mut [f32], src: &[f32], mask: &[u8]) {
    for ((d, &s), &m) in dst.iter_mut().zip(src).zip(mask) {
        if m != 0 {
            *d = s;
        }
    }
}

// ---------------------------------------------------------------------
// Terrain normals (value-noise crosses, f64)
// ---------------------------------------------------------------------

/// The constants of one unit cell of a bilinear value-noise lattice, as
/// a memo holds them: its lower corner and the corner values the lerps
/// read. `coterie_world::noise::NoiseCellCache` keeps one and the
/// kernels below evaluate against it.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct NoiseCell {
    /// Lower x edge of the cell (an integer).
    pub cx: f64,
    /// Lower z edge of the cell (an integer).
    pub cz: f64,
    /// Value at the lower corner.
    pub v00: f64,
    /// Value at `(cx, cz + 1)`.
    pub v01: f64,
    /// `v10 - v00`, the x-slope of the lower edge.
    pub dx0: f64,
    /// `v11 - v01`, the x-slope of the upper edge.
    pub dx1: f64,
}

/// Smoothstep interpolation weight, `t·t·(3 − 2t)`.
#[inline(always)]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Whether an offset from a cell's lower edge lies inside the cell.
#[inline(always)]
fn in_cell(t: f64) -> bool {
    (0.0..1.0).contains(&t)
}

impl NoiseCell {
    /// The lower edge that coordinate `k` of a cross
    /// `[x1, x0, xc, z1, z0, zc]` is measured from.
    #[inline(always)]
    pub fn edge(&self, k: usize) -> f64 {
        if k < 3 {
            self.cx
        } else {
            self.cz
        }
    }

    /// The cell's two x-interpolants at offset `tx` from its lower edge.
    #[inline(always)]
    fn lerp_x(&self, tx: f64) -> (f64, f64) {
        let fx = smooth(tx);
        (self.v00 + self.dx0 * fx, self.v01 + self.dx1 * fx)
    }

    /// The noise value at offsets `(tx, tz)` from the cell's lower edges.
    #[inline(always)]
    pub fn value(&self, tx: f64, tz: f64) -> f64 {
        let (a, b) = self.lerp_x(tx);
        a + (b - a) * smooth(tz)
    }

    /// The four values of a cross whose six coordinates lie at these
    /// offsets from the cell's lower edges: the x-probes share their row
    /// weight, the z-probes their column interpolants.
    #[inline(always)]
    pub fn cross(&self, [tx1, tx0, txc, tz1, tz0, tzc]: [f64; 6]) -> [f64; 4] {
        let (a1, b1) = self.lerp_x(tx1);
        let (a0, b0) = self.lerp_x(tx0);
        let (ac, bc) = self.lerp_x(txc);
        let fzc = smooth(tzc);
        [
            a1 + (b1 - a1) * fzc,
            a0 + (b0 - a0) * fzc,
            ac + (bc - ac) * smooth(tz1),
            ac + (bc - ac) * smooth(tz0),
        ]
    }

    /// The four crosses of a block at frequency `freq` — lane `j`'s
    /// cross at `[probes[0][j] * freq, …, probes[5][j] * freq]` — as
    /// `[probe][lane]`, or `None` unless the cell contains all 24
    /// coordinates. Lanes are independent and Rust never contracts
    /// `a * b + c` into a fused multiply-add, so however the compiler
    /// vectorises this pass each lane performs [`NoiseCell::cross`]'s
    /// IEEE operations in its order.
    #[inline(always)]
    fn crosses_x4(&self, freq: f64, probes: &[[f64; 4]; 6]) -> Option<[[f64; 4]; 4]> {
        // `from_fn` over indices rather than `map` or `flatten`: those
        // leave an out-of-line call or a scalar loop in the pass.
        let t: [[f64; 4]; 6] =
            std::array::from_fn(|k| std::array::from_fn(|j| probes[k][j] * freq - self.edge(k)));
        let mut held = true;
        for tk in &t {
            for &tkj in tk {
                held &= in_cell(tkj);
            }
        }
        if !held {
            return None;
        }
        let mut vals = [[0.0; 4]; 4];
        for j in 0..4 {
            let v = self.cross(std::array::from_fn(|k| t[k][j]));
            for (probe, v) in vals.iter_mut().zip(v) {
                probe[j] = v;
            }
        }
        Some(vals)
    }
}

/// The memos one octave of a batched cross evaluation reads: the cell of
/// its shared memo and of each probe direction's memo (`(x1, zc)`,
/// `(x0, zc)`, `(xc, z1)`, `(xc, z0)`), `None` where a memo holds no cell
/// of the octave's lattice.
#[derive(Copy, Clone, Debug, Default)]
pub struct OctaveCells<'a> {
    /// The memo for crosses inside one cell.
    pub shared: Option<&'a NoiseCell>,
    /// The memo of each probe direction.
    pub probes: [Option<&'a NoiseCell>; 4],
}

/// The coordinates `[x1, x0, xc, z1, z0, zc]` each probe of a cross reads.
const PROBE_AXES: [(usize, usize); 4] = [(0, 5), (1, 5), (2, 3), (2, 4)];

impl NoiseCell {
    /// One probe's four lanes at `(xs[j] * freq, zs[j] * freq)`, or
    /// `None` unless the cell contains all eight coordinates.
    #[inline(always)]
    fn values_x4(&self, freq: f64, xs: &[f64; 4], zs: &[f64; 4]) -> Option<[f64; 4]> {
        let tx: [f64; 4] = std::array::from_fn(|j| xs[j] * freq - self.cx);
        let tz: [f64; 4] = std::array::from_fn(|j| zs[j] * freq - self.cz);
        let mut held = true;
        for j in 0..4 {
            held &= in_cell(tx[j]) & in_cell(tz[j]);
        }
        held.then(|| std::array::from_fn(|j| self.value(tx[j], tz[j])))
    }
}

/// The held-block pass of a batched fBm over central-difference
/// crosses. Octave `o` reads lane `j`'s cross at the 24 coordinates
/// `probes[k][j] * freqs[o]` (a cross `[x1, x0, xc, z1, z0, zc]` per
/// lane). When its shared memo contains all 24, or each probe
/// direction's memo contains that probe's eight, the octave's values
/// `(x1, zc)`, `(x0, zc)`, `(xc, z1)`, `(xc, z0)` land in
/// `vals[o][probe][lane]` and bit `o` of the returned mask is set;
/// every other octave's `vals` are left as they were, for the caller
/// to fill from the lattice.
///
/// Containment is decided as [`NoiseCell`]'s memo decides it: both
/// offsets `x − cx`, `z − cz` in `[0, 1)`, so NaN is never held.
pub fn noise_crosses_x4<const N: usize>(
    octaves: &[OctaveCells<'_>; N],
    freqs: &[f64; N],
    probes: &[[f64; 4]; 6],
    vals: &mut [[[f64; 4]; 4]; N],
    level: SimdLevel,
) -> u32 {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; every access is to a
        // fixed-size array.
        SimdLevel::Avx2 => unsafe { x86::noise_crosses_x4_avx2(octaves, freqs, probes, vals) },
        _ => noise_crosses_x4_scalar(octaves, freqs, probes, vals),
    }
}

fn noise_crosses_x4_scalar<const N: usize>(
    octaves: &[OctaveCells<'_>; N],
    freqs: &[f64; N],
    probes: &[[f64; 4]; 6],
    vals: &mut [[[f64; 4]; 4]; N],
) -> u32 {
    let mut held = 0;
    for (o, (cells, &freq)) in octaves.iter().zip(freqs).enumerate() {
        let by_probe = || -> Option<[[f64; 4]; 4]> {
            let mut out = [[0.0; 4]; 4];
            for (p, &(kx, kz)) in PROBE_AXES.iter().enumerate() {
                out[p] = cells.probes[p]?.values_x4(freq, &probes[kx], &probes[kz])?;
            }
            Some(out)
        };
        let got = cells
            .shared
            .and_then(|cell| cell.crosses_x4(freq, probes))
            .or_else(by_probe);
        if let Some(v) = got {
            vals[o] = v;
            held |= 1 << o;
        }
    }
    held
}

/// Four value-noise lookups against one memo cell: lane `j` at
/// `(xs[j] * scale, zs[j] * scale)`, as `value_noise_cached` evaluates a
/// point its memo holds, or `None` unless the cell contains all eight
/// coordinates.
pub fn noise_values_x4(
    cell: &NoiseCell,
    scale: f64,
    xs: &[f64; 4],
    zs: &[f64; 4],
    level: SimdLevel,
) -> Option<[f64; 4]> {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; every access is to a
        // fixed-size array.
        SimdLevel::Avx2 => unsafe { x86::noise_values_x4_avx2(cell, scale, xs, zs) },
        _ => cell.values_x4(scale, xs, zs),
    }
}

/// The per-block finish of a batched terrain normal: for each lane `j`
/// of four points, the fBm heights of the four probes,
/// `h[probe] = scale * (Σₒ amps[o] * vals[o][probe][j] / norm)` summed
/// from `0.0` in octave order, then
/// `Vec3(-(h[0] − h[1]) / (2·eps), 1, -(h[2] − h[3]) / (2·eps))`
/// normalised (to zero when its length is at most `f64::EPSILON`),
/// dotted with `light` and clamped below at `0.0`. The terrain's
/// `Terrain::normal(p).dot(light).max(0.0)`, operation for operation.
pub fn fbm_lambert_x4<const N: usize>(
    vals: &[[[f64; 4]; 4]; N],
    amps: &[f64; N],
    norm: f64,
    scale: f64,
    eps: f64,
    light: [f64; 3],
    level: SimdLevel,
) -> [f64; 4] {
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: level clamped to CPU capability; every access is to a
        // fixed-size array.
        SimdLevel::Avx2 => unsafe { x86::fbm_lambert_x4_avx2(vals, amps, norm, scale, eps, light) },
        _ => fbm_lambert_x4_scalar(vals, amps, norm, scale, eps, light),
    }
}

fn fbm_lambert_x4_scalar<const N: usize>(
    vals: &[[[f64; 4]; 4]; N],
    amps: &[f64; N],
    norm: f64,
    scale: f64,
    eps: f64,
    light: [f64; 3],
) -> [f64; 4] {
    let mut heights = [[0.0f64; 4]; 4];
    for (octave, &amp) in vals.iter().zip(amps) {
        for (totals, v) in heights.iter_mut().zip(octave) {
            for (total, v) in totals.iter_mut().zip(v) {
                *total += amp * v;
            }
        }
    }
    for totals in &mut heights {
        for total in totals {
            *total = scale * (*total / norm);
        }
    }
    let [hx1, hx0, hz1, hz0] = heights;
    std::array::from_fn(|j| {
        // `Vec3::new(nx, 1.0, nz).normalized().dot(light)`, spelled out.
        let (nx, ny, nz) = (
            -(hx1[j] - hx0[j]) / (2.0 * eps),
            1.0,
            -(hz1[j] - hz0[j]) / (2.0 * eps),
        );
        let len = (nx * nx + ny * ny + nz * nz).sqrt();
        let (x, y, z) = if len <= f64::EPSILON {
            (0.0, 0.0, 0.0)
        } else {
            (nx / len, ny / len, nz / len)
        };
        (x * light[0] + y * light[1] + z * light[2]).max(0.0)
    })
}

/// The `std::arch` kernel bodies. Everything here is `pub(super)`,
/// reachable only through the clamped dispatchers above; each fn's
/// `#[target_feature]` matches the `SimdLevel` arm that calls it.
///
/// Bit-identity argument shared by all kernels: lanes are independent,
/// each lane performs the same IEEE-754 single/double operations in the
/// same order as the scalar reference (multiplies and adds are emitted
/// as separate intrinsics — never FMA — and comparisons are
/// ordered-quiet, matching Rust's `>=`/`>`/`<` on floats), and loads,
/// stores and conversions are value-exact. Per-kernel deviations (e.g.
/// the quantizer's explicit round-half-away sequence) are argued at the
/// fn.
#[cfg(target_arch = "x86_64")]
mod x86 {
    // The DCT loops index `basis[v][y]` with both loop variables on
    // purpose — the code mirrors the Σ notation of the transform, and
    // iterator chains over two index axes would obscure the lane
    // schedule the bit-identity argument depends on.
    #![allow(clippy::needless_range_loop)]

    use super::{MomentRows, MomentRowsMut, NoiseCell, OctaveCells, PROBE_AXES};
    use std::arch::x86_64::*;

    // ---- 8×8 DCT ----------------------------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dct_forward_avx2(
        basis: &[[f32; 8]; 8],
        basis_t: &[[f32; 8]; 8],
        input: &[f32; 64],
        output: &mut [f32; 64],
    ) {
        // One 8-lane vector is one row of outputs (lanes = u). Stage 1:
        // tmp[y*8+u] = Σ_x input[y*8+x] * basis[u][x], accumulated in x
        // order from 0.0 — the transposed basis makes basis_t[x] the
        // per-x vector over u.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for x in 0..8 {
                let s = _mm256_set1_ps(input[y * 8 + x]);
                let bt = _mm256_loadu_ps(basis_t[x].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(s, bt));
            }
            _mm256_storeu_ps(tmp.as_mut_ptr().add(y * 8), acc);
        }
        // Stage 2: output[v*8+u] = Σ_y tmp[y*8+u] * basis[v][y].
        for v in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for y in 0..8 {
                let t = _mm256_loadu_ps(tmp.as_ptr().add(y * 8));
                let b = _mm256_set1_ps(basis[v][y]);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(t, b));
            }
            _mm256_storeu_ps(output.as_mut_ptr().add(v * 8), acc);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dct_inverse_avx2(
        basis: &[[f32; 8]; 8],
        coeffs: &[f32; 64],
        output: &mut [f32; 64],
    ) {
        // Stage 1 (columns): tmp[y*8+u] = Σ_v coeffs[v*8+u]*basis[v][y],
        // lanes = u. Stage 2 (rows): output[y*8+x] = Σ_u
        // tmp[y*8+u]*basis[u][x], lanes = x.
        let mut tmp = [0.0f32; 64];
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for v in 0..8 {
                let c = _mm256_loadu_ps(coeffs.as_ptr().add(v * 8));
                let b = _mm256_set1_ps(basis[v][y]);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(c, b));
            }
            _mm256_storeu_ps(tmp.as_mut_ptr().add(y * 8), acc);
        }
        for y in 0..8 {
            let mut acc = _mm256_setzero_ps();
            for u in 0..8 {
                let t = _mm256_set1_ps(tmp[y * 8 + u]);
                let b = _mm256_loadu_ps(basis[u].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(t, b));
            }
            _mm256_storeu_ps(output.as_mut_ptr().add(y * 8), acc);
        }
    }

    // ---- quantize / dequantize --------------------------------------
    //
    // Rounding bit-identity: `f32::round` is round-half-away-from-zero.
    // `v + 0.5` then truncate is NOT equivalent (it fails at e.g.
    // v = 0.5 - 2^-25, where the add rounds up to 0.5 under
    // ties-to-even). Instead: t = trunc(v); diff = v - t is EXACT for
    // |v| < 2^24 (Sterbenz for |t| >= 1, trivial for t = 0), so
    // comparing |diff| >= 0.5 and adding sign(v)·1 reproduces
    // `f32::round` bit-for-bit in the codec's domain.

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(
        coeffs: &[f32; 64],
        qtable: &[f32; 64],
        out: &mut [i32; 64],
    ) -> u64 {
        let half = _mm256_set1_ps(0.5);
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let one = _mm256_set1_epi32(1);
        let zero_f = _mm256_setzero_ps();
        let zero_i = _mm256_setzero_si256();
        let mut quantized = [zero_i; 8];
        for (g, i) in (0..64).step_by(8).enumerate() {
            let c = _mm256_loadu_ps(coeffs.as_ptr().add(i));
            let q = _mm256_loadu_ps(qtable.as_ptr().add(i));
            let v = _mm256_div_ps(c, q);
            let t = _mm256_cvttps_epi32(v);
            let tf = _mm256_cvtepi32_ps(t);
            let diff = _mm256_sub_ps(v, tf);
            let ad = _mm256_and_ps(diff, absmask);
            let round_up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(ad, half));
            let adj = _mm256_and_si256(round_up, one);
            let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(v, zero_f));
            // (adj ^ neg) - neg = ±adj: the two's-complement negate of
            // adj exactly where v < 0.
            let signed = _mm256_sub_epi32(_mm256_xor_si256(adj, neg), neg);
            let r = _mm256_add_epi32(t, signed);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), r);
            quantized[g] = r;
        }
        // Narrow the results to one byte per coefficient, 32 at a time.
        // Saturating packs keep zero and nonzero apart; they interleave
        // the 128-bit lanes, which the dword permute puts back in raster
        // order. A byte compare with zero and one movemask then give 32
        // bits of the zero mask, and the nonzero mask is its complement.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut mask = 0u64;
        for (h, r) in quantized.chunks_exact(4).enumerate() {
            let lo = _mm256_packs_epi32(r[0], r[1]);
            let hi = _mm256_packs_epi32(r[2], r[3]);
            let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(lo, hi), order);
            let zero = _mm256_movemask_epi8(_mm256_cmpeq_epi8(bytes, zero_i)) as u32;
            mask |= u64::from(!zero) << (32 * h);
        }
        mask
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequantize_avx2(q: &[i32; 64], qtable: &[f32; 64], out: &mut [f32; 64]) {
        // `i32 as f32` and cvtepi32_ps are both round-to-nearest-even:
        // exact match.
        for i in (0..64).step_by(8) {
            let qi = _mm256_loadu_si256(q.as_ptr().add(i).cast());
            let qt = _mm256_loadu_ps(qtable.as_ptr().add(i));
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_mul_ps(_mm256_cvtepi32_ps(qi), qt),
            );
        }
    }

    // ---- f32 plane ops ----------------------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_planes_avx2(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len() & !7;
        for i in (0..n).step_by(8) {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_sub_ps(va, vb));
        }
        super::sub_planes_scalar(&a[n..], &b[n..], &mut out[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_planes_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
        }
        super::add_planes_scalar(&mut dst[n..], &src[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn clamp_unit_avx2(dst: &mut [f32]) {
        // Compare-and-select (not min/max: those would replace NaN and
        // flip -0.0 to +0.0, unlike scalar `clamp`).
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let mut v = _mm256_loadu_ps(dst.as_ptr().add(i));
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
            v = _mm256_andnot_ps(lt, v);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, one);
            v = _mm256_or_ps(_mm256_and_ps(gt, one), _mm256_andnot_ps(gt, v));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
        }
        super::clamp_unit_scalar(&mut dst[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_clamp_unit_avx2(dst: &mut [f32], s: f32) {
        // Add, then the same compare-and-select clamp as
        // `clamp_unit_avx2` — per lane exactly the two-pass sequence.
        let sv = _mm256_set1_ps(s);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let mut v = _mm256_add_ps(_mm256_loadu_ps(dst.as_ptr().add(i)), sv);
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
            v = _mm256_andnot_ps(lt, v);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, one);
            v = _mm256_or_ps(_mm256_and_ps(gt, one), _mm256_andnot_ps(gt, v));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
        }
        super::add_clamp_unit_scalar(&mut dst[n..], s);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn any_abs_above_avx2(src: &[f32], thresh: f32) -> bool {
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let t = _mm256_set1_ps(thresh);
        let n = src.len() & !7;
        for i in (0..n).step_by(8) {
            let v = _mm256_and_ps(_mm256_loadu_ps(src.as_ptr().add(i)), absmask);
            // GT_OQ is false on NaN, like the scalar `>`.
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, t)) != 0 {
                return true;
            }
        }
        super::any_abs_above_scalar(&src[n..], thresh)
    }

    // ---- SSIM moment kernels (f64) ----------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ssim_moments_avx2(
        a_row: &[f32],
        b_row: &[f32],
        kernel: &[f64],
        out: &mut MomentRowsMut<'_>,
    ) {
        // Lanes are window centers. Pixels load as f32 and widen in
        // register (cvtps_pd is exact, matching the scalar `as f64`).
        // Per tap: kva = kx*va, kvb = kx*vb; the squared moments are
        // (kx*va)*va etc. — the scalar left-association of
        // `kx * va * va`.
        let n = out.a.len();
        let nv = n & !3;
        for ci in (0..nv).step_by(4) {
            let mut ma = _mm256_setzero_pd();
            let mut mb = _mm256_setzero_pd();
            let mut maa = _mm256_setzero_pd();
            let mut mbb = _mm256_setzero_pd();
            let mut mab = _mm256_setzero_pd();
            for (ki, &k) in kernel.iter().enumerate() {
                let kx = _mm256_set1_pd(k);
                let va = _mm256_cvtps_pd(_mm_loadu_ps(a_row.as_ptr().add(ci + ki)));
                let vb = _mm256_cvtps_pd(_mm_loadu_ps(b_row.as_ptr().add(ci + ki)));
                let kva = _mm256_mul_pd(kx, va);
                let kvb = _mm256_mul_pd(kx, vb);
                ma = _mm256_add_pd(ma, kva);
                mb = _mm256_add_pd(mb, kvb);
                maa = _mm256_add_pd(maa, _mm256_mul_pd(kva, va));
                mbb = _mm256_add_pd(mbb, _mm256_mul_pd(kvb, vb));
                mab = _mm256_add_pd(mab, _mm256_mul_pd(kva, vb));
            }
            _mm256_storeu_pd(out.a.as_mut_ptr().add(ci), ma);
            _mm256_storeu_pd(out.b.as_mut_ptr().add(ci), mb);
            _mm256_storeu_pd(out.aa.as_mut_ptr().add(ci), maa);
            _mm256_storeu_pd(out.bb.as_mut_ptr().add(ci), mbb);
            _mm256_storeu_pd(out.ab.as_mut_ptr().add(ci), mab);
        }
        super::ssim_moments_scalar(a_row, b_row, kernel, out, nv);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ssim_windows_avx2(
        rows: &MomentRows<'_>,
        stride: usize,
        kernel: &[f64],
        c1: f64,
        c2: f64,
        out: &mut [f64],
    ) {
        // Lanes are window centers. The vertical taps accumulate in
        // registers exactly like the scalar `m[k] += ky * src[k]`
        // (tap-ascending, plane order a/b/aa/bb/ab), then the formula
        // runs per lane in the scalar association: every add/sub/mul/div
        // is exactly rounded lane-wise, and the variance clamp is a
        // compare-and-select (GT against +0.0, matching
        // `f64::max(0.0)`: negatives and NaN go to +0.0).
        let c1v = _mm256_set1_pd(c1);
        let c2v = _mm256_set1_pd(c2);
        let two = _mm256_set1_pd(2.0);
        let zero = _mm256_setzero_pd();
        let n = out.len();
        let nv = n & !3;
        for ci in (0..nv).step_by(4) {
            let mut ma = _mm256_setzero_pd();
            let mut mb = _mm256_setzero_pd();
            let mut maa = _mm256_setzero_pd();
            let mut mbb = _mm256_setzero_pd();
            let mut mab = _mm256_setzero_pd();
            for (ki, &k) in kernel.iter().enumerate() {
                let ky = _mm256_set1_pd(k);
                let o = ki * stride + ci;
                ma = _mm256_add_pd(
                    ma,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.a.as_ptr().add(o))),
                );
                mb = _mm256_add_pd(
                    mb,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.b.as_ptr().add(o))),
                );
                maa = _mm256_add_pd(
                    maa,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.aa.as_ptr().add(o))),
                );
                mbb = _mm256_add_pd(
                    mbb,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.bb.as_ptr().add(o))),
                );
                mab = _mm256_add_pd(
                    mab,
                    _mm256_mul_pd(ky, _mm256_loadu_pd(rows.ab.as_ptr().add(o))),
                );
            }
            let mu_ab = _mm256_mul_pd(ma, mb);
            let var_a = _mm256_sub_pd(maa, _mm256_mul_pd(ma, ma));
            let var_a = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(var_a, zero), var_a);
            let var_b = _mm256_sub_pd(mbb, _mm256_mul_pd(mb, mb));
            let var_b = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(var_b, zero), var_b);
            let cov = _mm256_sub_pd(mab, mu_ab);
            let num = _mm256_mul_pd(
                _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(two, ma), mb), c1v),
                _mm256_add_pd(_mm256_mul_pd(two, cov), c2v),
            );
            let den = _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(ma, ma), _mm256_mul_pd(mb, mb)),
                    c1v,
                ),
                _mm256_add_pd(_mm256_add_pd(var_a, var_b), c2v),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(ci), _mm256_div_pd(num, den));
        }
        super::ssim_windows_scalar(rows, stride, kernel, c1, c2, out, nv);
    }

    // ---- layer merge -------------------------------------------------

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_select_avx2(dst: &mut [f32], src: &[f32], mask: &[u8]) {
        let zero = _mm256_setzero_si256();
        let n = dst.len() & !7;
        for i in (0..n).step_by(8) {
            let m8 = _mm_loadl_epi64(mask.as_ptr().add(i).cast());
            let m32 = _mm256_cvtepu8_epi32(m8);
            // Zero-extended bytes are all >= 0, so `> 0` == `!= 0`.
            let sel = _mm256_castsi256_ps(_mm256_cmpgt_epi32(m32, zero));
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_blendv_ps(d, s, sel));
        }
        super::masked_select_scalar(&mut dst[n..], &src[n..], &mask[n..]);
    }

    // ---- terrain normals ---------------------------------------------

    /// `t·t·(3 − 2t)` per lane, in the scalar association.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn smooth_avx2(t: __m256d) -> __m256d {
        let w = _mm256_sub_pd(_mm256_set1_pd(3.0), _mm256_mul_pd(_mm256_set1_pd(2.0), t));
        _mm256_mul_pd(_mm256_mul_pd(t, t), w)
    }

    /// `a + (b − a)·f` per lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lerp_avx2(a: __m256d, b: __m256d, f: __m256d) -> __m256d {
        _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), f))
    }

    /// Whether every lane of every offset lies in `[0, 1)`: two
    /// ordered-quiet compares per offset (`0 <= t`, `t < 1`; NaN fails
    /// both, as it fails `contains`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn all_in_cell_avx2(ts: &[__m256d]) -> bool {
        let (zero, one) = (_mm256_setzero_pd(), _mm256_set1_pd(1.0));
        let mut inside = _mm256_cmp_pd::<_CMP_EQ_OQ>(zero, zero);
        for &t in ts {
            let lane_in = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(t, zero),
                _mm256_cmp_pd::<_CMP_LT_OQ>(t, one),
            );
            inside = _mm256_and_pd(inside, lane_in);
        }
        _mm256_movemask_pd(inside) == 0b1111
    }

    /// A cell's constants, broadcast.
    struct CellLanes {
        v00: __m256d,
        v01: __m256d,
        dx0: __m256d,
        dx1: __m256d,
    }

    impl CellLanes {
        #[target_feature(enable = "avx2")]
        #[inline]
        fn new(cell: &NoiseCell) -> Self {
            CellLanes {
                v00: _mm256_set1_pd(cell.v00),
                v01: _mm256_set1_pd(cell.v01),
                dx0: _mm256_set1_pd(cell.dx0),
                dx1: _mm256_set1_pd(cell.dx1),
            }
        }

        /// `lerp_x`: `(v00 + dx0·fx, v01 + dx1·fx)` with `fx = smooth(tx)`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn lerp_x(&self, tx: __m256d) -> (__m256d, __m256d) {
            let fx = smooth_avx2(tx);
            (
                _mm256_add_pd(self.v00, _mm256_mul_pd(self.dx0, fx)),
                _mm256_add_pd(self.v01, _mm256_mul_pd(self.dx1, fx)),
            )
        }
    }

    /// `NoiseCell::crosses_x4` on the scaled coordinates `at`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn crosses_avx2(cell: &NoiseCell, at: &[__m256d; 6]) -> Option<[__m256d; 4]> {
        let (ex, ez) = (_mm256_set1_pd(cell.cx), _mm256_set1_pd(cell.cz));
        let t: [__m256d; 6] =
            std::array::from_fn(|k| _mm256_sub_pd(at[k], if k < 3 { ex } else { ez }));
        if !all_in_cell_avx2(&t) {
            return None;
        }
        let c = CellLanes::new(cell);
        let (a1, b1) = c.lerp_x(t[0]);
        let (a0, b0) = c.lerp_x(t[1]);
        let (ac, bc) = c.lerp_x(t[2]);
        let fzc = smooth_avx2(t[5]);
        Some([
            lerp_avx2(a1, b1, fzc),
            lerp_avx2(a0, b0, fzc),
            lerp_avx2(ac, bc, smooth_avx2(t[3])),
            lerp_avx2(ac, bc, smooth_avx2(t[4])),
        ])
    }

    /// `NoiseCell::values_x4` on the scaled coordinates `(x, z)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn values_avx2(cell: &NoiseCell, x: __m256d, z: __m256d) -> Option<__m256d> {
        let tx = _mm256_sub_pd(x, _mm256_set1_pd(cell.cx));
        let tz = _mm256_sub_pd(z, _mm256_set1_pd(cell.cz));
        if !all_in_cell_avx2(&[tx, tz]) {
            return None;
        }
        let (a, b) = CellLanes::new(cell).lerp_x(tx);
        Some(lerp_avx2(a, b, smooth_avx2(tz)))
    }

    /// Each probe through `NoiseCell::values_x4` against its own memo.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn probe_values_avx2(cells: &OctaveCells<'_>, at: &[__m256d; 6]) -> Option<[__m256d; 4]> {
        let mut out = [_mm256_setzero_pd(); 4];
        for (v, (cell, &(kx, kz))) in out.iter_mut().zip(cells.probes.iter().zip(&PROBE_AXES)) {
            *v = values_avx2((*cell)?, at[kx], at[kz])?;
        }
        Some(out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn noise_values_x4_avx2(
        cell: &NoiseCell,
        scale: f64,
        xs: &[f64; 4],
        zs: &[f64; 4],
    ) -> Option<[f64; 4]> {
        let f = _mm256_set1_pd(scale);
        let x = _mm256_mul_pd(_mm256_loadu_pd(xs.as_ptr()), f);
        let z = _mm256_mul_pd(_mm256_loadu_pd(zs.as_ptr()), f);
        let v = values_avx2(cell, x, z)?;
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        Some(out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn noise_crosses_x4_avx2<const N: usize>(
        octaves: &[OctaveCells<'_>; N],
        freqs: &[f64; N],
        probes: &[[f64; 4]; 6],
        vals: &mut [[[f64; 4]; 4]; N],
    ) -> u32 {
        // Lanes are the block's four points. Per octave: the scale and
        // the edge subtraction as the scalar `p * freq - edge`, the
        // containment test, then the lerps of `NoiseCell::cross` (or of
        // `NoiseCell::value` per probe) with each mul/add/sub its own
        // intrinsic.
        let p: [__m256d; 6] = std::array::from_fn(|k| _mm256_loadu_pd(probes[k].as_ptr()));
        let mut held = 0;
        for (o, (cells, &freq)) in octaves.iter().zip(freqs).enumerate() {
            let f = _mm256_set1_pd(freq);
            let at: [__m256d; 6] = std::array::from_fn(|k| _mm256_mul_pd(p[k], f));
            let out = cells
                .shared
                .and_then(|cell| crosses_avx2(cell, &at))
                .or_else(|| probe_values_avx2(cells, &at));
            let Some(out) = out else { continue };
            for (dst, v) in vals[o].iter_mut().zip(out) {
                _mm256_storeu_pd(dst.as_mut_ptr(), v);
            }
            held |= 1 << o;
        }
        held
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fbm_lambert_x4_avx2<const N: usize>(
        vals: &[[[f64; 4]; 4]; N],
        amps: &[f64; N],
        norm: f64,
        scale: f64,
        eps: f64,
        light: [f64; 3],
    ) -> [f64; 4] {
        // Lanes are the block's four points, each through the scalar
        // reference's operations in its order: the octave sum from +0.0,
        // `scale * (total / norm)`, the negated differences over
        // `2.0 * eps` (negation is a sign flip, exact either way), the
        // length with `ny * ny` and the scalar association, the
        // degenerate test as an ordered `<=` (NaN is not degenerate) and
        // the clamp as a compare-and-select (GT against +0.0, matching
        // `f64::max(0.0)`: negatives and NaN go to +0.0).
        let mut h = [_mm256_setzero_pd(); 4];
        for (octave, &amp) in vals.iter().zip(amps) {
            let a = _mm256_set1_pd(amp);
            for (total, v) in h.iter_mut().zip(octave) {
                *total = _mm256_add_pd(*total, _mm256_mul_pd(a, _mm256_loadu_pd(v.as_ptr())));
            }
        }
        let (s, n) = (_mm256_set1_pd(scale), _mm256_set1_pd(norm));
        let h = h.map(|total| _mm256_mul_pd(s, _mm256_div_pd(total, n)));
        let sign = _mm256_set1_pd(-0.0);
        let two_eps = _mm256_set1_pd(2.0 * eps);
        let nx = _mm256_div_pd(_mm256_xor_pd(_mm256_sub_pd(h[0], h[1]), sign), two_eps);
        let nz = _mm256_div_pd(_mm256_xor_pd(_mm256_sub_pd(h[2], h[3]), sign), two_eps);
        let ny = _mm256_set1_pd(1.0);
        let len = _mm256_sqrt_pd(_mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(nx, nx), _mm256_mul_pd(ny, ny)),
            _mm256_mul_pd(nz, nz),
        ));
        let degenerate = _mm256_cmp_pd::<_CMP_LE_OQ>(len, _mm256_set1_pd(f64::EPSILON));
        let unit = |c: __m256d| _mm256_andnot_pd(degenerate, _mm256_div_pd(c, len));
        let (x, y, z) = (unit(nx), unit(ny), unit(nz));
        let dot = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_mul_pd(x, _mm256_set1_pd(light[0])),
                _mm256_mul_pd(y, _mm256_set1_pd(light[1])),
            ),
            _mm256_mul_pd(z, _mm256_set1_pd(light[2])),
        );
        let lit = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(dot, _mm256_setzero_pd()), dot);
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), lit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32 stream in roughly [-1, 1].
    fn noise(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    fn noise64(seed: u64, n: usize) -> Vec<f64> {
        noise(seed, n).into_iter().map(f64::from).collect()
    }

    fn simd_levels() -> Vec<SimdLevel> {
        available_levels().into_iter().skip(1).collect()
    }

    #[test]
    fn dispatch_is_clamped_and_ordered() {
        assert!(detected_level() <= cpu_level());
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn dct_levels_are_bit_identical() {
        let dct = Dct8x8::new();
        let src = noise(1, 64);
        let mut input = [0.0f32; 64];
        input.copy_from_slice(&src);
        let mut want_f = [0.0f32; 64];
        let mut want_i = [0.0f32; 64];
        dct.forward(&input, &mut want_f, SimdLevel::Scalar);
        dct.inverse(&want_f, &mut want_i, SimdLevel::Scalar);
        for level in simd_levels() {
            let mut got_f = [0.0f32; 64];
            let mut got_i = [0.0f32; 64];
            dct.forward(&input, &mut got_f, level);
            dct.inverse(&want_f, &mut got_i, level);
            for i in 0..64 {
                assert_eq!(
                    want_f[i].to_bits(),
                    got_f[i].to_bits(),
                    "fwd {level:?} idx {i}"
                );
                assert_eq!(
                    want_i[i].to_bits(),
                    got_i[i].to_bits(),
                    "inv {level:?} idx {i}"
                );
            }
        }
    }

    #[test]
    fn quantize_levels_are_bit_identical_including_half_ties() {
        // qtable of ones makes v == coeffs, so the tricky rounding
        // inputs are exercised verbatim: exact halves, and the
        // ties-to-even trap value 0.5 - 2^-25 where `v + 0.5` would
        // round the wrong way.
        let mut coeffs = [0.0f32; 64];
        let tricky = [
            0.5f32,
            -0.5,
            2.5,
            -2.5,
            0.5 - f32::EPSILON / 4.0,
            -(0.5 - f32::EPSILON / 4.0),
            0.499_999_97,
            1.499_999_9,
            -127.5,
            127.5,
            0.0,
            -0.0,
        ];
        coeffs[..tricky.len()].copy_from_slice(&tricky);
        for (i, v) in noise(2, 64 - tricky.len()).iter().enumerate() {
            coeffs[tricky.len() + i] = v * 200.0;
        }
        let qtable = [1.0f32; 64];
        let mut want = [0i32; 64];
        let want_mask = quantize_8x8(&coeffs, &qtable, &mut want, SimdLevel::Scalar);
        for (i, &c) in coeffs.iter().enumerate() {
            assert_eq!(want[i], c.round() as i32, "scalar ref idx {i}");
            assert_eq!(want_mask >> i & 1 == 1, want[i] != 0, "scalar mask bit {i}");
        }
        for level in simd_levels() {
            let mut got = [0i32; 64];
            let got_mask = quantize_8x8(&coeffs, &qtable, &mut got, level);
            assert_eq!(want, got, "{level:?}");
            assert_eq!(want_mask, got_mask, "{level:?} nonzero mask");
        }
        // And the all-zero path: tiny coefficients over a real qtable.
        let small: Vec<f32> = noise(3, 64).iter().map(|v| v * 1e-4).collect();
        coeffs.copy_from_slice(&small);
        let qt: Vec<f32> = (0..64).map(|i| 0.05 + i as f32 * 0.01).collect();
        let mut qtable2 = [0.0f32; 64];
        qtable2.copy_from_slice(&qt);
        assert_eq!(
            quantize_8x8(&coeffs, &qtable2, &mut want, SimdLevel::Scalar),
            0
        );
        for level in simd_levels() {
            let mut got = [0i32; 64];
            assert_eq!(
                quantize_8x8(&coeffs, &qtable2, &mut got, level),
                0,
                "{level:?}"
            );
            assert_eq!(want, got, "{level:?}");
        }
        // A lone nonzero in each lane group lands on its own raster bit.
        for i in [0, 7, 8, 31, 32, 63] {
            let mut one = [0.0f32; 64];
            one[i] = -3.0;
            for level in available_levels() {
                let mut got = [0i32; 64];
                assert_eq!(
                    quantize_8x8(&one, &qtable, &mut got, level),
                    1 << i,
                    "{level:?}"
                );
            }
        }
    }

    #[test]
    fn dequantize_levels_are_bit_identical() {
        let mut q = [0i32; 64];
        for (i, v) in q.iter_mut().enumerate() {
            *v = (i as i32 - 31) * 7;
        }
        let mut qtable = [0.0f32; 64];
        for (i, v) in qtable.iter_mut().enumerate() {
            *v = 0.02 + i as f32 * 0.013;
        }
        let mut want = [0.0f32; 64];
        dequantize_8x8(&q, &qtable, &mut want, SimdLevel::Scalar);
        for level in simd_levels() {
            let mut got = [0.0f32; 64];
            dequantize_8x8(&q, &qtable, &mut got, level);
            for i in 0..64 {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn plane_ops_levels_are_bit_identical() {
        // Odd length exercises the scalar tails.
        let n = 1003;
        let a = noise(4, n);
        let b = noise(5, n);
        let mut want_sub = vec![0.0f32; n];
        sub_planes_scalar(&a, &b, &mut want_sub);
        let mut want_add = a.clone();
        add_planes_scalar(&mut want_add, &b);
        for level in simd_levels() {
            let mut got = vec![0.0f32; n];
            sub_planes_f32(&a, &b, &mut got, level);
            assert!(
                got.iter()
                    .zip(&want_sub)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "sub {level:?}"
            );
            let mut got2 = a.clone();
            add_planes_f32(&mut got2, &b, level);
            assert!(
                got2.iter()
                    .zip(&want_add)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "add {level:?}"
            );
        }
    }

    #[test]
    fn clamp_unit_levels_are_bit_identical() {
        let n = 203;
        let mut base = noise(20, n).iter().map(|v| v * 2.0).collect::<Vec<f32>>();
        // Edge cases: -0.0 survives (it is not < 0.0), NaN passes
        // through, and the bounds themselves are kept.
        base[0] = -0.0;
        base[1] = f32::NAN;
        base[2] = 0.0;
        base[3] = 1.0;
        base[4] = 1.0 + f32::EPSILON;
        base[5] = -f32::MIN_POSITIVE;
        let mut want = base.clone();
        clamp_unit_scalar(&mut want);
        assert_eq!(want[0].to_bits(), (-0.0f32).to_bits());
        for level in simd_levels() {
            let mut got = base.clone();
            clamp_unit_f32(&mut got, level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn add_clamp_unit_matches_two_pass_sequence() {
        let n = 203; // odd tail
        let mut base = noise(26, n)
            .iter()
            .map(|v| v * 2.0 - 0.5)
            .collect::<Vec<f32>>();
        base[0] = -0.5; // lands exactly on 0.0 after the +0.5 shift
        base[1] = f32::NAN;
        base[2] = 0.5; // lands exactly on 1.0
        base[3] = -0.5 - f32::EPSILON;
        // The fused kernel must equal add-then-clamp bit-for-bit, at
        // every level.
        let want: Vec<f32> = base.iter().map(|&v| (v + 0.5).clamp(0.0, 1.0)).collect();
        for level in available_levels() {
            let mut got = base.clone();
            add_clamp_unit_f32(&mut got, 0.5, level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} idx {i}");
            }
        }
    }

    #[test]
    fn any_abs_above_levels_agree() {
        let n = 517;
        let mut v = vec![1e-9f32; n];
        for level in available_levels() {
            assert!(!any_abs_above(&v, 1e-6, level), "{level:?} clean");
        }
        // A single spike anywhere must be found, including in the tail.
        for pos in [0, 63, 64, n - 1] {
            v[pos] = -2e-6;
            for level in available_levels() {
                assert!(any_abs_above(&v, 1e-6, level), "{level:?} spike at {pos}");
            }
            v[pos] = 1e-9;
        }
        // Threshold is strict.
        v[10] = 1e-6;
        for level in available_levels() {
            assert!(!any_abs_above(&v, 1e-6, level), "{level:?} equal-to-thresh");
        }
    }

    #[test]
    fn ssim_moments_levels_are_bit_identical() {
        let klen = 11;
        let n = 97; // odd: exercises both vector body and scalar tail
        let a = noise(9, n + klen - 1);
        let b = noise(10, n + klen - 1);
        let kernel = noise64(11, klen)
            .iter()
            .map(|v| v.abs() + 0.01)
            .collect::<Vec<_>>();
        let run = |level: SimdLevel| {
            let mut planes = vec![vec![0.0f64; n]; 5];
            let (pa, rest) = planes.split_at_mut(1);
            let (pb, rest) = rest.split_at_mut(1);
            let (paa, rest) = rest.split_at_mut(1);
            let (pbb, pab) = rest.split_at_mut(1);
            let mut out = MomentRowsMut {
                a: &mut pa[0],
                b: &mut pb[0],
                aa: &mut paa[0],
                bb: &mut pbb[0],
                ab: &mut pab[0],
            };
            ssim_moments_row(&a, &b, &kernel, &mut out, level);
            planes
        };
        let want = run(SimdLevel::Scalar);
        for level in simd_levels() {
            let got = run(level);
            for (p, (wp, gp)) in want.iter().zip(&got).enumerate() {
                for i in 0..n {
                    assert_eq!(
                        wp[i].to_bits(),
                        gp[i].to_bits(),
                        "{level:?} plane {p} center {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn ssim_windows_levels_are_bit_identical() {
        let klen = 11;
        let stride = 101;
        let n = 97; // odd: exercises both vector body and scalar tail
                    // Build plausible moment planes: squared moments must dominate
                    // the mean products so variances land on both sides of the
                    // clamp (negatives exercise the compare-and-select path).
        let a = noise64(20, klen * stride);
        let b = noise64(21, klen * stride);
        let aa: Vec<f64> = noise64(22, klen * stride).iter().map(|v| v * v).collect();
        let bb: Vec<f64> = noise64(23, klen * stride).iter().map(|v| v * v).collect();
        let ab = noise64(24, klen * stride);
        let kernel: Vec<f64> = noise64(25, klen).iter().map(|v| v.abs() + 0.01).collect();
        let rows = MomentRows {
            a: &a,
            b: &b,
            aa: &aa,
            bb: &bb,
            ab: &ab,
        };
        let run = |level: SimdLevel| {
            let mut out = vec![0.0f64; n];
            ssim_windows_row(
                &rows, stride, &kernel, 6.5025e-5, 5.8523e-4, &mut out, level,
            );
            out
        };
        let want = run(SimdLevel::Scalar);
        for level in simd_levels() {
            let got = run(level);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{level:?} center {i}");
            }
        }
    }

    /// Bit patterns, with every NaN as one value: the language does not
    /// pin a NaN's sign or payload.
    fn bits64<const N: usize>(v: [f64; N]) -> [u64; N] {
        v.map(|f| if f.is_nan() { u64::MAX } else { f.to_bits() })
    }

    /// A lattice cell with corner values from `noise64`, around `(x, z)`.
    fn cell_at(x: f64, z: f64, corners: &[f64]) -> NoiseCell {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| corners[i].abs());
        NoiseCell {
            cx: x.floor(),
            cz: z.floor(),
            v00: a,
            v01: b,
            dx0: c - a,
            dx1: d - b,
        }
    }

    #[test]
    fn noise_crosses_levels_are_bit_identical() {
        // Blocks of four crosses of arm `eps` around points that drift
        // over cell edges, so blocks are held, straddle between lanes,
        // straddle within a cross, or are not given a memo.
        let freqs = [1.0, 2.0, 4.0, 8.0];
        let jitter = noise64(20, 4 * 4 * 600);
        let corners = noise64(21, 4 * 600);
        // Per octave, blocks held by the shared memo and by the probes'.
        let mut held_seen = [[0usize; 2]; 4];
        for block in 0..600 {
            let eps = [0.0, 1e-3, 0.013, 0.4][block % 4];
            let r = &jitter[block * 16..block * 16 + 16];
            let (bx, bz) = (block as f64 * 0.0123 - 3.7, r[0] * 2.0 + 0.25);
            let xs: [f64; 4] = std::array::from_fn(|j| bx + r[j + 1] * 0.02);
            let mut zs: [f64; 4] = std::array::from_fn(|j| bz + r[j + 5] * 0.02);
            if block % 97 == 5 {
                zs[2] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][block % 3];
            }
            let probes = [
                xs.map(|x| x + eps),
                xs.map(|x| x - eps),
                xs,
                zs.map(|z| z + eps),
                zs.map(|z| z - eps),
                zs,
            ];
            let c = &corners[block * 4..block * 4 + 4];
            // Octave `o`'s shared memo on the block's first centre, and
            // each probe direction's on that probe's first lane; some
            // memos hold no cell of the lattice.
            let shared: [NoiseCell; 4] =
                std::array::from_fn(|o| cell_at(xs[0] * freqs[o], zs[0] * freqs[o], c));
            let by_probe: [[NoiseCell; 4]; 4] = std::array::from_fn(|o| {
                std::array::from_fn(|p| {
                    let (kx, kz) = PROBE_AXES[p];
                    cell_at(probes[kx][0] * freqs[o], probes[kz][0] * freqs[o], c)
                })
            });
            let given: [OctaveCells<'_>; 4] = std::array::from_fn(|o| OctaveCells {
                shared: (block % 7 != o && block % 3 != 0).then_some(&shared[o]),
                probes: std::array::from_fn(|p| (block % 5 != p).then_some(&by_probe[o][p])),
            });
            let mut want = [[[0.5; 4]; 4]; 4];
            let want_held = noise_crosses_x4_scalar(&given, &freqs, &probes, &mut want);
            for (o, seen) in held_seen.iter_mut().enumerate() {
                if want_held >> o & 1 == 1 {
                    seen[usize::from(given[o].shared.is_none())] += 1;
                }
            }
            for level in simd_levels() {
                let mut got = [[[0.5; 4]; 4]; 4];
                let got_held = noise_crosses_x4(&given, &freqs, &probes, &mut got, level);
                assert_eq!(got_held, want_held, "{level:?} block {block}");
                for o in 0..4 {
                    for p in 0..4 {
                        assert_eq!(
                            bits64(got[o][p]),
                            bits64(want[o][p]),
                            "{level:?} block {block} octave {o} probe {p}"
                        );
                    }
                }
            }
        }
        // Both paths, and blocks held by neither, at every octave.
        assert!(
            held_seen
                .iter()
                .all(|&[a, b]| a > 20 && b > 20 && a + b < 570),
            "{held_seen:?}"
        );
    }

    #[test]
    fn noise_values_levels_are_bit_identical() {
        let r = noise64(23, 8 * 500);
        let corners = noise64(24, 4);
        let mut held = 0;
        for block in 0..500 {
            let r = &r[block * 8..block * 8 + 8];
            let xs: [f64; 4] = std::array::from_fn(|j| 4.1 + block as f64 * 0.03 + r[j] * 0.2);
            let mut zs: [f64; 4] = std::array::from_fn(|j| -2.6 + r[j + 4] * 0.2);
            if block % 61 == 7 {
                zs[1] = [f64::NAN, f64::INFINITY, -0.0][block % 3];
            }
            let scale = [0.15, 3.0, 1.0][block % 3];
            let cell = cell_at(xs[0] * scale, zs[0] * scale, &corners);
            let want = cell.values_x4(scale, &xs, &zs);
            held += usize::from(want.is_some());
            for level in simd_levels() {
                let got = noise_values_x4(&cell, scale, &xs, &zs, level);
                assert_eq!(got.map(bits64), want.map(bits64), "{level:?} block {block}");
            }
        }
        assert!(held > 50 && held < 450, "{held}");
    }

    #[test]
    fn fbm_lambert_levels_are_bit_identical() {
        let amps = [0.5, 0.25, 0.125, 0.0625];
        let v = noise64(22, 64 * 400);
        let lights = [[0.35, 0.85, 0.40], [0.3, -0.9, 0.1], [0.0, 1.0, 0.0]];
        for block in 0..400 {
            let mut vals: [[[f64; 4]; 4]; 4] = std::array::from_fn(|o| {
                std::array::from_fn(|p| {
                    std::array::from_fn(|j| v[block * 64 + o * 16 + p * 4 + j].abs())
                })
            });
            if block % 50 == 3 {
                vals[1][2][block % 4] = [f64::NAN, f64::INFINITY, -1e300][block % 3];
            }
            let scale = [0.0, 8.0, 1e-3, 24.0, 1e200][block % 5];
            let eps = [0.1, 1e-6][block % 2];
            let light = lights[block % 3];
            let want = fbm_lambert_x4_scalar(&vals, &amps, 0.9375, scale, eps, light);
            for level in simd_levels() {
                let got = fbm_lambert_x4(&vals, &amps, 0.9375, scale, eps, light, level);
                assert_eq!(bits64(got), bits64(want), "{level:?} block {block}");
            }
        }
    }

    #[test]
    fn masked_select_levels_are_bit_identical() {
        let n = 261;
        let src = noise(12, n);
        let base = noise(13, n);
        let mask: Vec<u8> = (0..n)
            .map(|i| ((i * 7) % 3 == 0) as u8 * ((i % 5) as u8 + 1))
            .collect();
        let mut want = base.clone();
        masked_select_scalar(&mut want, &src, &mask);
        for level in simd_levels() {
            let mut got = base.clone();
            masked_select_f32(&mut got, &src, &mask, level);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{level:?}"
            );
        }
    }
}
