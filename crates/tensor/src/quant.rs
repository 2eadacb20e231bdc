//! Post-training int8 quantization: per-channel symmetric weights, the
//! i8×i8→i32 convolution kernel of the compiled plans, and a quantized
//! stage chain built by walking a trained [`Sequential`].
//!
//! # Scheme
//!
//! Weights are quantized **per output channel** with symmetric scales
//! (`scale = max_abs / 127`, zero point 0); activations use one symmetric
//! per-tensor scale calibrated as the max absolute value observed over a
//! calibration set. Convolutions accumulate in `i32` — exact integer
//! arithmetic, so the int8 path is bit-deterministic on every machine —
//! and dequantize at the stage boundary:
//!
//! ```text
//! y[c] ≈ Σ q_x · q_w[c] · (s_x · s_w[c]) + bias[c]
//! ```
//!
//! BatchNorm folds to its evaluation-mode affine form
//! (`scale = γ/√(var+ε)`, `shift = β − mean·scale`) and runs in f32
//! between quantized convolutions, as do ReLU and max-pool — they are
//! memory-bound, so int8 buys nothing there and f32 keeps the numerics
//! close to the float reference.
//!
//! # Kernel structure
//!
//! [`conv_rows_t_i8`] is the int8 kernel ([`conv_pooled_t_i8`], below,
//! its form for a stem), and inference reaches it only through a
//! [`CompiledPlan`](crate::graph::CompiledPlan). Its
//! operands are **channel pairs** (cudnn's `NCHWVectC` idea at vector
//! width 2): the direct convolution's padded, phase-split planes
//! ([`DirectConv`], the addressing the f32 plans use) hold units of
//! `[i8; 2]` — channels `2c` and `2c + 1` of one position side by side,
//! an odd last channel padded with 0 — like any other cell, and
//! [`PackedConvWeights`] holds the weights paired the same way, widened
//! to `i16` and interleaved by groups of `IR_T` output channels, packed
//! once when the plan is compiled (the serialized [`QuantWeights`] stay
//! row-major `i8`). One step of the reduction is then a pair dot
//! `w₀·x₀ + w₁·x₁` in `i32` — on x86-64 a single `vpmaddwd` lane, sixteen
//! multiply-accumulates per instruction over eight positions (one
//! `vpdpwssd`, accumulate included, where the build also has VNNI) —
//! instead of a widening multiply per element. A zero-padded odd channel
//! adds 0.
//!
//! Nothing stands between an f32 value and its cell in those planes.
//! A plan's first convolution quantizes the caller's channel blocks
//! straight into them ([`quantize_planes`]: two channels' rows → one row
//! of pairs through [`DirectConv::store_plane`]). Every later convolution
//! finds them written by the **requantizing epilogue** of the convolution
//! before it: the f32 value the dequant + folded-BN + ReLU epilogue
//! computes per element — `(acc·(s_x·s_w[c]) + bias[c])·scale[c] +
//! shift[c]`, clamped — is rounded at the *consumer's* activation scale in
//! the same pass, two output channels at a time, into the consumer's
//! channel pair; the f32 map between two int8 convolutions, the flat `i8`
//! tensor and the copy into planes are never written. The quantizer is
//! the one the oracle applies to that same f32 value, so the cells are
//! the oracle's bits.
//!
//! A convolution that pools `2×2` behind its affine and ReLU over a
//! geometry whose windows fit register tiles — a stem — runs
//! [`conv_pooled_t_i8`] instead: tiles of half a packed channel group ×
//! two output rows × two runs, which dequantize, apply the affine and the
//! clamp, compare each window and store the pooled row from their
//! registers, so that no i32 accumulator is ever written
//! ([`DirectConv::pools_in_tile`]; the f32 plans' `conv2d_pooled_t` is the
//! same tile over `f32` cells). It does not make the int8 stem cheaper
//! than the f32 one: a stem has one input channel, so half of every
//! `[i8; 2]` pair is padding and the tile issues as many vector
//! multiplies as the f32 tile — what the int8 rung saves is the branch.
//!
//! The register tile (`IR_T` output channels × two runs of [`RUN`]
//! positions, the block shape of the f32 tile; every kernel tap of a run
//! is one 16-byte load at a fixed offset from the run's base) has two
//! bodies behind one function, as has the pooled one: a portable
//! safe loop, and `std::arch` AVX2 intrinsics compiled in when the build
//! enables `avx2` (the repository's `target-cpu=native`). Four safe
//! spellings of the pair dot were measured first and none made rustc
//! emit `vpmaddwd` (CHANGES.md, PR 16), which is why the second body
//! exists; `i32` sums are exact and every product of two `i8` fits, so
//! the bodies — and the oracle — agree bit for bit on the whole `i8`
//! range, −128 included.
//!
//! [`QuantPipe::forward`] and [`QuantConv2d::forward`] are the tests'
//! oracle for those plans: same rounding ([`quantize_activations`], the
//! flat form of the same quantizer), same per-element epilogue order,
//! but the accumulators come from [`conv_direct_i8`], a plain
//! nested-loop reduction over row-major operands with no pairing,
//! planes, tiling or scratch.

use crate::backend::{Backend, Blocked, ConvSpec, DirectConv, TileRun, RUN};
use crate::layer::{BatchNorm2d, Conv2d, Sequential};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Largest representable quantized magnitude (symmetric int8).
pub const QMAX: f32 = 127.0;

// ---------------------------------------------------------------------------
// Quantize / dequantize primitives
// ---------------------------------------------------------------------------

/// Per-output-channel symmetric int8 weights for a `(rows × cols)` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantWeights {
    /// Quantized values, row-major `(rows × cols)`.
    pub q: Vec<i8>,
    /// One scale per row (output channel); dequant is `q * scale`.
    pub scales: Vec<f32>,
    /// Output channels.
    pub rows: usize,
    /// Patch length (`C_in·k·k` for conv weights).
    pub cols: usize,
}

/// Quantizes a row-major `(rows × cols)` f32 matrix with one symmetric
/// scale per row: `scale = max_abs(row) / 127` (1.0 for all-zero rows so
/// dequantization stays well-defined).
///
/// # Panics
/// Panics if `w.len() != rows * cols`.
pub fn quantize_per_channel(w: &[f32], rows: usize, cols: usize) -> QuantWeights {
    assert_eq!(w.len(), rows * cols, "weight length mismatch");
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![1.0f32; rows];
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / QMAX } else { 1.0 };
        scales[r] = scale;
        let inv = 1.0 / scale;
        for (dst, &v) in q[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *dst = (v * inv).round().clamp(-QMAX, QMAX) as i8;
        }
    }
    QuantWeights { q, scales, rows, cols }
}

/// One activation at `inv = 1/scale`: `round(v · inv)` clamped to ±127,
/// ties to even (the half-step cases that `round()` decides differently
/// are measure-zero against calibrated scales and stay inside the
/// ±scale/2 round-trip bound either way); NaN quantizes to 0.
///
/// Spelled without a float→int cast, whose saturating lowering keeps the
/// quantizer passes scalar: clamping first leaves `|x| ≤ 127`, and adding
/// `1.5·2²³` to such a value makes the FPU round it to an integer in the
/// sum's low mantissa bits — ties to even, the default rounding mode —
/// so the low byte of the sum's bit pattern is the two's-complement
/// result. Equal to `(v · inv).round_ties_even().clamp(−127, 127) as i8`
/// for every input (`prop_quant` pins it).
#[inline]
pub(crate) fn quantize_value(v: f32, inv: f32) -> i8 {
    const ROUND_TO_LOW_BITS: f32 = 12_582_912.0; // 1.5 · 2^23
    let x = v * inv;
    let x = if x.is_nan() { 0.0 } else { x };
    (x.clamp(-QMAX, QMAX) + ROUND_TO_LOW_BITS).to_bits() as i8
}

/// Quantizes activations with a symmetric per-tensor scale into `out`
/// (cleared and refilled), element for element — the oracle's flat form
/// of [`quantize_planes`].
pub fn quantize_activations(x: &[f32], scale: f32, out: &mut Vec<i8>) {
    let inv = 1.0 / scale;
    out.clear();
    out.reserve(x.len());
    out.extend(x.iter().map(|&v| quantize_value(v, inv)));
}

/// Quantizes the channels of one sample straight into the planes of the
/// int8 convolution that reads them, as the kernel's **channel pairs**:
/// `planes` yields the sample's `h × w` channel planes in order, and unit
/// `x` of row `y` of pair-plane `p0 + c` holds channels `2c` and `2c + 1`
/// of that position, each rounded exactly as [`quantize_activations`]
/// rounds it; an odd last channel pairs with 0. One pass through
/// [`DirectConv::store_plane`] — no flat `i8` tensor in between. The pad
/// cells are the caller's ([`DirectConv::clear`] first).
///
/// # Panics
/// Panics if a plane is smaller than `direct`'s input or `cells` shorter
/// than the planes written.
pub fn quantize_planes<'a>(
    direct: &DirectConv,
    cells: &mut [[i8; 2]],
    p0: usize,
    planes: impl IntoIterator<Item = &'a [f32]>,
    scale: f32,
) {
    let inv = 1.0 / scale;
    let mut planes = planes.into_iter();
    let mut p = p0;
    while let Some(even) = planes.next() {
        match planes.next() {
            Some(odd) => direct.store_plane(cells, p, [even, odd], |[a, b]| {
                [quantize_value(a, inv), quantize_value(b, inv)]
            }),
            None => direct.store_plane(cells, p, [even], |[a]| [quantize_value(a, inv), 0]),
        }
        p += 1;
    }
}

/// Symmetric per-tensor activation scale from a calibration sample:
/// `max_abs / 127` (1.0 when the sample is all zeros).
pub fn calib_scale(acts: &[f32]) -> f32 {
    let max_abs = acts.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs > 0.0 {
        max_abs / QMAX
    } else {
        1.0
    }
}

/// Folds evaluation-mode batch-norm into a per-channel affine:
/// `(scale, shift)` with `scale = γ/√(var+ε)`, `shift = β − mean·scale`.
pub fn fold_batchnorm(bn: &BatchNorm2d) -> (Vec<f32>, Vec<f32>) {
    let gamma = bn.gamma();
    let beta = bn.beta();
    let mean = bn.running_mean();
    let var = bn.running_var();
    let eps = bn.eps();
    let mut scale = Vec::with_capacity(gamma.len());
    let mut shift = Vec::with_capacity(gamma.len());
    for ci in 0..gamma.len() {
        let s = gamma[ci] / (var[ci] + eps).sqrt();
        scale.push(s);
        shift.push(beta[ci] - mean[ci] * s);
    }
    (scale, shift)
}

// ---------------------------------------------------------------------------
// Int8 convolution: the plans' kernel and the oracle's direct reduction
// ---------------------------------------------------------------------------

/// The i32 accumulators of an int8 convolution by direct reduction: for
/// every output channel and position, one sum over the input patch in
/// `(c_in, ky, kx)` order, padding skipped. Returns them channel-major,
/// `(C_out, N·Ho·Wo)` — the layout [`conv_rows_t_i8`] writes — so the
/// two compare element for element. This is the test oracle's reduction
/// ([`QuantConv2d::forward`]); nothing on the inference path calls it.
///
/// # Panics
/// Panics if `qx` or `q` disagree with `dims` and `spec`.
pub fn conv_direct_i8(qx: &[i8], dims: [usize; 4], spec: &ConvSpec, q: &[i8]) -> Vec<i32> {
    let [n, c, h, w] = dims;
    assert_eq!(c, spec.in_channels, "input channel mismatch");
    assert_eq!(qx.len(), n * c * h * w, "input length mismatch");
    assert_eq!(q.len(), spec.out_channels * spec.patch_len(), "weight length mismatch");
    let (ho, wo) = spec.out_size(h, w);
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let m = n * ho * wo;
    let mut acc = vec![0i32; spec.out_channels * m];
    for (co, acc_c) in acc.chunks_exact_mut(m.max(1)).enumerate() {
        let qw = &q[co * c * k * k..(co + 1) * c * k * k];
        for b in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut sum = 0i32;
                    for ci in 0..c {
                        for ky in 0..k {
                            // Input row `oy·s + ky − p`; rows in the padding contribute 0.
                            let Some(iy) = (oy * s + ky).checked_sub(p).filter(|&iy| iy < h) else {
                                continue;
                            };
                            for kx in 0..k {
                                let Some(ix) = (ox * s + kx).checked_sub(p).filter(|&ix| ix < w)
                                else {
                                    continue;
                                };
                                let xv = qx[((b * c + ci) * h + iy) * w + ix];
                                sum += xv as i32 * qw[(ci * k + ky) * k + kx] as i32;
                            }
                        }
                    }
                    acc_c[(b * ho + oy) * wo + ox] = sum;
                }
            }
        }
    }
    acc
}

/// The weights of one int8 convolution as [`conv_rows_t_i8`] reads them:
/// channel pairs `[w(co, 2c, ky, kx), w(co, 2c+1, ky, kx)]` widened to
/// `i16` (an odd last input channel pairs with 0), laid out
/// `(⌈C_out/IR_T⌉, ⌈C_in/2⌉·k·k, IR_T)` so that the `IR_T` output
/// channels of a register tile sit side by side for every patch pair.
/// Output channels past `C_out` in the last group are zero rows: the
/// tile always computes a full group and stores the rows that exist.
/// Built once per plan from the row-major [`QuantWeights::q`].
#[derive(Debug, Clone)]
pub struct PackedConvWeights {
    w: Vec<[i16; 2]>,
    spec: ConvSpec,
}

impl PackedConvWeights {
    /// Packs row-major `(C_out, C_in·k·k)` int8 weights for `spec`.
    ///
    /// # Panics
    /// Panics if `q.len() != C_out · C_in·k·k`.
    pub fn pack(q: &[i8], spec: &ConvSpec) -> PackedConvWeights {
        use crate::backend::IR_T;
        let (co, c, kk) = (spec.out_channels, spec.in_channels, spec.kernel * spec.kernel);
        assert_eq!(q.len(), co * c * kk, "weight length mismatch");
        let ck2 = c.div_ceil(2) * kk;
        let mut w = vec![[0i16; 2]; co.div_ceil(IR_T) * ck2 * IR_T];
        for (o, row) in q.chunks_exact((c * kk).max(1)).enumerate() {
            let group = &mut w[o / IR_T * ck2 * IR_T..][..ck2 * IR_T];
            for (ci, taps) in row.chunks_exact(kk).enumerate() {
                for (t, &v) in taps.iter().enumerate() {
                    group[((ci / 2) * kk + t) * IR_T + o % IR_T][ci % 2] = v as i16;
                }
            }
        }
        PackedConvWeights { w, spec: *spec }
    }

    /// The geometry the weights were packed for.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The same convolution over channel pairs: `⌈C_in/2⌉` input units,
    /// so `patch_len()` counts the pair dots of one output element. The
    /// geometry [`conv_rows_t_i8`]'s [`DirectConv`] is built for.
    pub fn pair_spec(&self) -> ConvSpec {
        ConvSpec { in_channels: self.spec.in_channels.div_ceil(2), ..self.spec }
    }
}

/// The int8 convolution of the compiled plans, a direct convolution on
/// the addressing the f32 plans use ([`DirectConv`], built for
/// [`PackedConvWeights::pair_spec`] — its cells are channel pairs):
/// `planes` holds `direct`'s padded, phase-split planes of `n` samples
/// (at least [`DirectConv::scratch_len`]`(n)` cells), written by
/// [`quantize_planes`] or by the requantizing epilogue of the step
/// before, and a register tile of `IR_T` output channels × two runs of
/// [`RUN`] positions reads every kernel tap of a run as one 16-byte load
/// at a fixed offset from the run's base. The i32 accumulators land
/// channel-major, `acc[co][pos]`, so the fused dequant epilogue streams
/// one contiguous run per (sample, channel). Integer accumulation is
/// exact, so the tiled pair-dot order is bit-identical to
/// [`conv_direct_i8`]'s patch-order sums. The used prefix of `acc` (at
/// least `C_out × n·Ho·Wo`) is fully overwritten.
///
/// # Panics
/// Panics — in release builds too — if `direct` was not built for the
/// weights' pair geometry, or `planes` or `acc` is too short.
pub fn conv_rows_t_i8(
    planes: &[[i8; 2]],
    n: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    acc: &mut [i32],
) {
    conv_rows_pairs::<false>(planes, n, weights, direct, acc);
}

/// [`conv_rows_t_i8`] through the portable tile body whatever the build
/// enables, so that a host which compiles the AVX2 body tests both.
#[doc(hidden)]
pub fn conv_rows_t_i8_portable(
    planes: &[[i8; 2]],
    n: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    acc: &mut [i32],
) {
    conv_rows_pairs::<true>(planes, n, weights, direct, acc);
}

/// [`conv_rows_t_i8`]. One register tile is the pair dots of one
/// output-channel group (`(ck2, IR_T)` weight pairs) against two runs —
/// for patch pair `p`, the [`RUN`] cells of the planes from `run.base +
/// off[p]` — each run's real positions stored to the group's accumulator
/// rows (`(ir, m)`, `ir ≤ IR_T`: a short last group drops its zero-padded
/// rows there). The tile has two bodies that produce the same exact
/// sums, AVX2 where the build enables it (module docs) and `PORTABLE`
/// does not force the other.
#[inline]
fn conv_rows_pairs<const PORTABLE: bool>(
    planes: &[[i8; 2]],
    n: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    acc: &mut [i32],
) {
    use crate::backend::IR_T;
    if n == 0 {
        return;
    }
    let [ho, wo] = direct.out_hw();
    let (co, off, m) = (weights.spec.out_channels, direct.offsets(), n * ho * wo);
    // Per call, never per tile: the geometry the weights were packed for,
    // the accumulator rows, and that the farthest full-width load of any
    // run stays inside the planes.
    assert!(
        *direct.spec() == weights.pair_spec()
            && acc.len() >= co * m
            && direct.reach(n) <= planes.len(),
        "conv_rows_t_i8: operands disagree with {n} samples of {:?} over {:?}",
        direct.spec(),
        direct.in_hw()
    );
    // Each run is read once per channel group, not once per channel.
    let groups = weights.w.chunks_exact(off.len() * IR_T).zip(acc[..co * m].chunks_mut(IR_T * m));
    for (wg, acc_grp) in groups {
        for runs in direct.tiles(n) {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            if !PORTABLE {
                // SAFETY: compiled under `cfg(target_feature = "avx2")`,
                // so every CPU the build may run on has the feature
                // `tile_i8_avx2` enables; and the `assert!` above checked
                // `reach(n)` — the end of the farthest full-width load of
                // any run of `tiles(n)` — against the planes.
                unsafe { tile_i8_avx2(wg, planes, off, &runs, m, acc_grp) };
                continue;
            }
            tile_i8_portable(wg, planes, off, &runs, m, acc_grp);
        }
    }
}

/// `w₀·x₀ + w₁·x₁` in `i32`: at most `2·128²`, nowhere near overflow.
#[inline]
fn pair_dot(w: [i16; 2], x: [i8; 2]) -> i32 {
    w[0] as i32 * x[0] as i32 + w[1] as i32 * x[1] as i32
}

/// The portable body of [`conv_rows_pairs`]' tile: every index checked.
fn tile_i8_portable(
    w: &[[i16; 2]],
    planes: &[[i8; 2]],
    off: &[usize],
    runs: &[TileRun; 2],
    m: usize,
    c: &mut [i32],
) {
    use crate::backend::IR_T;
    let mut acc = [[[0i32; RUN]; 2]; IR_T];
    for (wp, &o) in w.chunks_exact(IR_T).zip(off) {
        let b = runs.map(|run| &planes[run.base + o..][..RUN]);
        for (accr, &wv) in acc.iter_mut().zip(wp) {
            for (lanes, b) in accr.iter_mut().zip(b) {
                for (x, &bv) in lanes.iter_mut().zip(b) {
                    *x += pair_dot(wv, bv);
                }
            }
        }
    }
    for (row, accr) in c.chunks_exact_mut(m).zip(&acc) {
        for (run, lanes) in runs.iter().zip(accr) {
            row[run.pos..][..run.width].copy_from_slice(&lanes[..run.width]);
        }
    }
}

/// The AVX2 body of [`conv_rows_pairs`]' tile: per patch pair, each
/// run's 8 cells are
/// sign-extended to a vector of eight `i16` pairs and each channel's
/// broadcast weight pair multiplies into both with `vpmaddwd` — eight
/// `i32` pair dots per instruction, added to that channel's accumulators
/// (a build that also has VNNI folds the multiply and the add into one
/// `vpdpwssd`).
///
/// # Safety
/// `run.base + o + RUN ≤ planes.len()` for both runs of `runs` and every
/// `o` in `off`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[target_feature(enable = "avx2")]
unsafe fn tile_i8_avx2(
    w: &[[i16; 2]],
    planes: &[[i8; 2]],
    off: &[usize],
    runs: &[TileRun; 2],
    m: usize,
    c: &mut [i32],
) {
    use crate::backend::IR_T;
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let mut acc = [[_mm256_setzero_si256(); 2]; IR_T];
    for (wp, &o) in w.chunks_exact(IR_T).zip(off) {
        let b = runs.map(|run| {
            // SAFETY: the caller guarantees `run.base + o + RUN ≤
            // planes.len()`, so the unaligned 16-byte load reads `RUN` =
            // 8 `[i8; 2]` cells of `planes`.
            let cells =
                unsafe { _mm_loadu_si128(planes.as_ptr().add(run.base + o).cast::<__m128i>()) };
            _mm256_cvtepi8_epi16(cells)
        });
        for (accr, wv) in acc.iter_mut().zip(wp) {
            // Little-endian lanes: `w[0]` is the even `i16` of every pair.
            let pair = (wv[0] as u16 as u32 | (wv[1] as u16 as u32) << 16) as i32;
            let pair = _mm256_set1_epi32(pair);
            accr[0] = _mm256_add_epi32(accr[0], _mm256_madd_epi16(b[0], pair));
            accr[1] = _mm256_add_epi32(accr[1], _mm256_madd_epi16(b[1], pair));
        }
    }
    // A whole channel group of whole runs — every tile but a row end's
    // or a short last group's — stores straight from the registers, its
    // bounds checked once for the tile.
    if c.len() == IR_T * m && runs.iter().all(|run| run.width == RUN && run.pos + RUN <= m) {
        for (ii, accr) in acc.into_iter().enumerate() {
            for (run, v) in runs.iter().zip(accr) {
                // SAFETY: `ii < IR_T` and `run.pos + RUN ≤ m`, so the 8
                // `i32`s from `ii·m + run.pos` end inside the `IR_T·m` of
                // `c` the branch condition checked it has.
                unsafe {
                    let dst = c.as_mut_ptr().add(ii * m + run.pos).cast::<__m256i>();
                    _mm256_storeu_si256(dst, v);
                }
            }
        }
        return;
    }
    for (row, accr) in c.chunks_exact_mut(m).zip(acc) {
        for (run, v) in runs.iter().zip(accr) {
            let mut lanes = [0i32; RUN];
            // SAFETY: `lanes` is 8 `i32`s, 32 bytes, the width of the
            // unaligned store.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v) };
            row[run.pos..][..run.width].copy_from_slice(&lanes[..run.width]);
        }
    }
}

/// The per-channel constants of a pooled int8 tile's epilogue: dequant +
/// bias, the folded batch-norm affine, ReLU — per element
/// `((acc·deq + bias)·scale + shift).max(0)`, unfused and in that order,
/// the eager `Conv → Affine → ReLU` arithmetic of a [`QuantPipe`]. One
/// value per output channel in every slice.
#[derive(Debug, Clone, Copy)]
pub struct DequantAffineRelu<'a> {
    /// `act_scale · w_scale[c]`.
    pub deq: &'a [f32],
    /// Convolution bias.
    pub bias: &'a [f32],
    /// Folded batch-norm scale.
    pub scale: &'a [f32],
    /// Folded batch-norm shift.
    pub shift: &'a [f32],
}

/// `((acc·deq + bias)·scale + shift).max(0)`: [`DequantAffineRelu`] per
/// element.
#[inline]
fn dequant_affine_relu([deq, bias, scale, shift]: [f32; 4], acc: i32) -> f32 {
    ((acc as f32 * deq + bias) * scale + shift).max(0.0)
}

/// The int8 twin of [`conv2d_pooled_t`](crate::backend::conv2d_pooled_t):
/// sample `b` of `planes` (as [`conv_rows_t_i8`] reads them) into `out`,
/// its pooled `(C_out, Ho/2, Wo/2)` f32 map, in one pass. A register tile
/// is half a packed channel group × two output rows × two runs of pair
/// dots — whole `2×2` windows — and finishes what it computes:
/// [`DequantAffineRelu`] on the i32 accumulators in their registers, each
/// window's comparisons in `MaxPool2d`'s order, one store of [`RUN`]
/// pooled outputs per channel. No accumulator is written anywhere. The
/// same exact sums and per-element arithmetic as [`conv_rows_t_i8`]
/// followed by the two-pass write-back; for the geometries of
/// [`DirectConv::pools_in_tile`] only.
///
/// # Panics
/// Panics — in release builds too — if `direct` does not pool in tiles or
/// was not built for the weights' pair geometry, `epilogue` or `out`
/// disagree with it, or `planes` is shorter than `b + 1` samples require.
pub fn conv_pooled_t_i8(
    planes: &[[i8; 2]],
    b: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    epilogue: &DequantAffineRelu<'_>,
    out: &mut [f32],
) {
    conv_pooled_pairs::<false>(planes, b, weights, direct, epilogue, out);
}

/// [`conv_pooled_t_i8`] through the portable tile body whatever the build
/// enables, so that a host which compiles the AVX2 body tests both.
#[doc(hidden)]
pub fn conv_pooled_t_i8_portable(
    planes: &[[i8; 2]],
    b: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    epilogue: &DequantAffineRelu<'_>,
    out: &mut [f32],
) {
    conv_pooled_pairs::<true>(planes, b, weights, direct, epilogue, out);
}

/// [`conv_pooled_t_i8`]: per packed channel group and half of it (`IR_P`
/// of its `IR_T` weight columns), the pooled tiles of the sample. A half
/// past `C_out` is zero rows and is skipped; a short last half computes
/// `IR_P` channels and stores those that exist.
fn conv_pooled_pairs<const PORTABLE: bool>(
    planes: &[[i8; 2]],
    b: usize,
    weights: &PackedConvWeights,
    direct: &DirectConv,
    epilogue: &DequantAffineRelu<'_>,
    out: &mut [f32],
) {
    use crate::backend::{IR_P, IR_T};
    let [ho, wo] = direct.out_hw();
    let (co, off, pooled) = (weights.spec.out_channels, direct.offsets(), ho / 2 * (wo / 2));
    let DequantAffineRelu { deq, bias, scale, shift } = epilogue;
    // Per call — a call is one sample — never per tile: the geometry the
    // tiles assume and the weights were packed for, the constants, the
    // pooled planes, and that the farthest full-width load of the sample's
    // last tile stays inside the planes.
    assert!(
        direct.pools_in_tile()
            && *direct.spec() == weights.pair_spec()
            && [deq, bias, scale, shift].iter().all(|k| k.len() == co)
            && out.len() == co * pooled
            && direct.reach(b + 1) <= planes.len(),
        "conv_pooled_t_i8: operands disagree with sample {b} of {:?} over {:?}",
        direct.spec(),
        direct.in_hw()
    );
    let below = direct.base(0, 1, 0);
    for (c0, out_grp) in (0..co).step_by(IR_P).zip(out.chunks_mut(IR_P * pooled)) {
        let wg = &weights.w[c0 / IR_T * off.len() * IR_T..][..off.len() * IR_T];
        let consts: [[f32; 4]; IR_P] = std::array::from_fn(|ii| {
            let c = (c0 + ii).min(co - 1);
            [deq[c], bias[c], scale[c], shift[c]]
        });
        for (base, pos) in direct.pooled_tiles(b) {
            let tile = ([base, below], c0 % IR_T, pos, pooled);
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            if !PORTABLE {
                // SAFETY: compiled under `cfg(target_feature = "avx2")`,
                // so every CPU the build may run on has the feature the
                // body enables. The `assert!` above checked
                // `pools_in_tile()` and `reach(b + 1)` — the end of the
                // farthest full-width load of any tile of
                // `pooled_tiles(b)`, two output rows × two runs each —
                // against the planes; `wg` is one whole packed group and
                // `c0 % IR_T + IR_P ≤ IR_T`; and `pos + RUN ≤ pooled`,
                // `out_grp` holding whole pooled planes.
                unsafe { pooled_tile_i8_avx2(wg, planes, off, tile, &consts, out_grp) };
                continue;
            }
            pooled_tile_i8_portable(wg, planes, off, tile, &consts, out_grp);
        }
    }
}

/// One pooled tile's place: `([base, below], first weight column of the
/// packed group, pos, pooled)` — the base of its upper-left run and the
/// distance to the same column one output row down, and where its [`RUN`]
/// pooled outputs go in each channel's plane of `pooled` elements.
type PooledTile = ([usize; 2], usize, usize, usize);

/// The portable body of [`conv_pooled_pairs`]' tile: every index checked.
fn pooled_tile_i8_portable(
    w: &[[i16; 2]],
    planes: &[[i8; 2]],
    off: &[usize],
    ([base, below], col, pos, pooled): PooledTile,
    consts: &[[f32; 4]; crate::backend::IR_P],
    out: &mut [f32],
) {
    use crate::backend::{pool_windows, IR_P, IR_T};
    let mut acc = [[[0i32; 2 * RUN]; 2]; IR_P];
    for (wp, &o) in w.chunks_exact(IR_T).zip(off) {
        let b = [&planes[base + o..][..2 * RUN], &planes[base + below + o..][..2 * RUN]];
        for (accr, &wv) in acc.iter_mut().zip(&wp[col..col + IR_P]) {
            for (row, b) in accr.iter_mut().zip(b) {
                for (x, &bv) in row.iter_mut().zip(b) {
                    *x += pair_dot(wv, bv);
                }
            }
        }
    }
    for (plane, (acc, &k)) in out.chunks_exact_mut(pooled).zip(acc.iter().zip(consts)) {
        let v = acc.map(|row| row.map(|a| dequant_affine_relu(k, a)));
        plane[pos..][..RUN].copy_from_slice(&pool_windows([&v[0], &v[1]]));
    }
}

/// The AVX2 body of [`conv_pooled_pairs`]' tile: per patch pair four
/// 16-byte loads (two runs of two output rows) sign-extended to `i16`
/// pairs, each channel's broadcast weight pair multiplied into the four
/// with `vpmaddwd`; then the epilogue on the sixteen accumulators —
/// `vcvtdq2ps`, four broadcast constants a channel — and
/// [`pool_windows_avx2`](crate::backend::pool_windows_avx2), one 8-lane
/// store per channel that exists.
///
/// # Safety
/// `w` is one packed group (`off.len()·IR_T` pairs) and `col + IR_P ≤
/// IR_T`; `base + d + o + RUN ≤ planes.len()` for every `o` in `off` and
/// `d` in `{0, RUN, below, below + RUN}`; `pos + RUN ≤ pooled`, and
/// `out` is whole planes of `pooled` elements.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[target_feature(enable = "avx2")]
unsafe fn pooled_tile_i8_avx2(
    w: &[[i16; 2]],
    planes: &[[i8; 2]],
    off: &[usize],
    ([base, below], col, pos, pooled): PooledTile,
    consts: &[[f32; 4]; crate::backend::IR_P],
    out: &mut [f32],
) {
    use crate::backend::{pool_windows_avx2, IR_P, IR_T};
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16,
        _mm256_madd_epi16, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm_loadu_si128,
    };
    let mut acc = [[_mm256_setzero_si256(); 4]; IR_P];
    for (p, &o) in off.iter().enumerate() {
        let b = [0, RUN, below, below + RUN].map(|d| {
            // SAFETY: the caller guarantees `base + d + o + RUN ≤
            // planes.len()`, so the unaligned 16-byte load reads `RUN` = 8
            // `[i8; 2]` cells of `planes`.
            let cells =
                unsafe { _mm_loadu_si128(planes.as_ptr().add(base + d + o).cast::<__m128i>()) };
            _mm256_cvtepi8_epi16(cells)
        });
        for (ii, accr) in acc.iter_mut().enumerate() {
            // SAFETY: `p < off.len()` and `col + ii < IR_T`, inside the
            // `off.len()·IR_T` pairs the caller guarantees `w` has.
            let wv = unsafe { *w.get_unchecked(p * IR_T + col + ii) };
            // Little-endian lanes: `w[0]` is the even `i16` of every pair.
            let pair = (wv[0] as u16 as u32 | (wv[1] as u16 as u32) << 16) as i32;
            let pair = _mm256_set1_epi32(pair);
            for (acc, b) in accr.iter_mut().zip(b) {
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(b, pair));
            }
        }
    }
    let zero = _mm256_setzero_ps();
    for (plane, (acc, k)) in out.chunks_exact_mut(pooled).zip(acc.into_iter().zip(consts)) {
        let [deq, bias, scale, shift] = k.map(|k| _mm256_set1_ps(k));
        // `dequant_affine_relu` per lane; `vmaxps(v, 0)` is what
        // `v.max(0.0)` compiles to: 0 for a NaN and for either zero.
        let v = acc.map(|a| {
            let t = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(a), deq), bias);
            _mm256_max_ps(_mm256_add_ps(_mm256_mul_ps(t, scale), shift), zero)
        });
        // SAFETY: `plane` is `pooled` floats and the caller guarantees
        // `pos + RUN ≤ pooled`.
        unsafe { _mm256_storeu_ps(plane.as_mut_ptr().add(pos), pool_windows_avx2(v)) };
    }
}

// ---------------------------------------------------------------------------
// Quantized convolution and stage chain
// ---------------------------------------------------------------------------

/// A quantized convolution: int8 weights + calibrated activation scale.
///
/// Inference lowers it into a compiled plan step
/// ([`PlanBuilder::push_quant_conv`](crate::graph::PlanBuilder::push_quant_conv)).
/// `forward` is that step's oracle: it quantizes the f32 input, reduces
/// with [`conv_direct_i8`], and dequantizes into an f32 NCHW tensor with
/// the bias added.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantConv2d {
    /// Per-output-channel symmetric weights, `(C_out, C_in·k·k)`.
    pub weights: QuantWeights,
    /// F32 bias, length `C_out` (added after dequantization).
    pub bias: Vec<f32>,
    /// Convolution geometry.
    pub spec: ConvSpec,
    /// Calibrated symmetric per-tensor input activation scale.
    pub act_scale: f32,
}

impl QuantConv2d {
    /// Quantizes a trained [`Conv2d`] given its calibrated input scale.
    pub fn from_conv(conv: &Conv2d, act_scale: f32) -> Self {
        let spec = conv.spec();
        let weights =
            quantize_per_channel(conv.weight().data(), spec.out_channels, spec.patch_len());
        QuantConv2d { weights, bias: conv.bias().data().to_vec(), spec, act_scale }
    }

    /// Int8 convolution forward over an f32 NCHW input (the oracle of
    /// the compiled int8 conv step; see the type docs).
    ///
    /// # Panics
    /// Panics if the input is not 4-D with `spec.in_channels` channels.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "QuantConv2d expects NCHW input");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.spec.in_channels, "QuantConv2d channel mismatch");
        let (ho, wo) = self.spec.out_size(h, w);
        let co = self.spec.out_channels;
        let (plane, m) = (ho * wo, n * ho * wo);
        let mut qx = Vec::new();
        quantize_activations(x.data(), self.act_scale, &mut qx);
        let acc = conv_direct_i8(&qx, [n, c, h, w], &self.spec, &self.weights.q);
        // Dequantize into NCHW with the bias add, per element
        // `acc · (s_x · s_w[c]) + bias[c]` — the order the plan's fused
        // epilogue reproduces.
        let mut y = Tensor::zeros(&[n, co, ho, wo]);
        let yd = y.data_mut();
        for b in 0..n {
            for ci in 0..co {
                let (d, bias) = (self.act_scale * self.weights.scales[ci], self.bias[ci]);
                let run = &acc[ci * m + b * plane..ci * m + (b + 1) * plane];
                let out = &mut yd[(b * co + ci) * plane..(b * co + ci + 1) * plane];
                for (o, &a) in out.iter_mut().zip(run) {
                    *o = a as f32 * d + bias;
                }
            }
        }
        y
    }
}

/// One stage of a quantized pipe. Convolutions run int8; the f32 stages
/// between them are the memory-bound layers where int8 buys nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantStage {
    /// Int8 convolution.
    Conv(QuantConv2d),
    /// Folded batch-norm: per-channel `(scale, shift)` in f32.
    Affine(Vec<f32>, Vec<f32>),
    /// Elementwise `max(x, 0)`.
    ReLU,
    /// Max pooling with the given square kernel (stride = kernel).
    MaxPool(usize),
}

impl QuantStage {
    fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            QuantStage::Conv(conv) => conv.forward(x),
            QuantStage::Affine(scale, shift) => affine_forward(x, scale, shift),
            QuantStage::ReLU => x.map(|v| v.max(0.0)),
            QuantStage::MaxPool(k) => maxpool_forward(x, *k),
        }
    }
}

/// A quantized stage chain: the int8 counterpart of a [`Sequential`]
/// trained network, produced by [`quantize_sequential`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantPipe {
    /// Stages applied in order.
    pub stages: Vec<QuantStage>,
}

impl QuantPipe {
    /// Runs the chain on an f32 NCHW input.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for stage in &self.stages {
            cur = stage.forward(&cur);
        }
        cur
    }
}

/// Why a network could not be quantized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantizeError {
    /// The chain contains a layer kind the quantizer does not handle.
    UnsupportedLayer(&'static str),
    /// No calibration inputs were supplied.
    NoCalibration,
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::UnsupportedLayer(name) => {
                write!(f, "cannot quantize layer `{name}`")
            }
            QuantizeError::NoCalibration => write!(f, "no calibration inputs supplied"),
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Per-channel affine `y = x·scale[c] + shift[c]` over NCHW (folded BN).
fn affine_forward(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(c, scale.len(), "affine channel mismatch");
    let plane = h * w;
    let mut y = Tensor::zeros(x.shape());
    let xd = x.data();
    let yd = y.data_mut();
    for ci in 0..c {
        let (s, t) = (scale[ci], shift[ci]);
        for b in 0..n {
            let base = (b * c + ci) * plane;
            for (yv, xv) in yd[base..base + plane].iter_mut().zip(&xd[base..base + plane]) {
                *yv = xv * s + t;
            }
        }
    }
    y
}

/// Max pooling with stride = kernel over NCHW (eval semantics of
/// [`crate::layer::MaxPool2d`], truncating odd sizes).
fn maxpool_forward(x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(h >= k && w >= k, "input smaller than pooling kernel");
    let (ho, wo) = (h / k, w / k);
    let mut y = Tensor::zeros(&[n, c, ho, wo]);
    let xd = x.data();
    let yd = y.data_mut();
    for plane in 0..n * c {
        let base = plane * h * w;
        for oy in 0..ho {
            let out_row = &mut yd[(plane * ho + oy) * wo..(plane * ho + oy + 1) * wo];
            for (ox, out) in out_row.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k {
                    let row = base + (oy * k + ky) * w + ox * k;
                    for &v in &xd[row..row + k] {
                        if v > best {
                            best = v;
                        }
                    }
                }
                *out = best;
            }
        }
    }
    y
}

/// Quantizes a trained evaluation-mode [`Sequential`] into a
/// [`QuantPipe`], calibrating each convolution's activation scale by
/// propagating the calibration set through the float network.
///
/// Returns the pipe and the final f32 activations of each calibration
/// input — downstream consumers (e.g. a detection head) calibrate on
/// those. Supported layers: `Conv2d`, `BatchNorm2d` (folded), `ReLU`,
/// `MaxPool2d`; anything else yields
/// [`QuantizeError::UnsupportedLayer`].
pub fn quantize_sequential(
    seq: &Sequential,
    calib: &[Tensor],
) -> Result<(QuantPipe, Vec<Tensor>), QuantizeError> {
    if calib.is_empty() {
        return Err(QuantizeError::NoCalibration);
    }
    let mut stages = Vec::with_capacity(seq.len());
    let mut acts: Vec<Tensor> = calib.to_vec();
    let mut scratch = Vec::new();
    for layer in seq.layers() {
        if let Some(conv) = layer.as_conv2d() {
            // One scale across the whole calibration set for this input.
            let mut max_abs = 0.0f32;
            for a in &acts {
                max_abs = max_abs.max(a.data().iter().fold(0.0f32, |m, v| m.max(v.abs())));
            }
            let act_scale = if max_abs > 0.0 { max_abs / QMAX } else { 1.0 };
            stages.push(QuantStage::Conv(QuantConv2d::from_conv(conv, act_scale)));
            // Propagate calibration in f32 so later scales reflect the
            // float activations the branches were trained on.
            let spec = conv.spec();
            acts = acts
                .iter()
                .map(|a| {
                    Blocked.conv2d_forward(
                        a,
                        conv.weight(),
                        conv.bias().data(),
                        &spec,
                        &mut scratch,
                    )
                })
                .collect();
        } else if let Some(bn) = layer.as_batchnorm() {
            let (scale, shift) = fold_batchnorm(bn);
            acts = acts.iter().map(|a| affine_forward(a, &scale, &shift)).collect();
            stages.push(QuantStage::Affine(scale, shift));
        } else if layer.name() == "ReLU" {
            acts = acts.iter().map(|a| a.map(|v| v.max(0.0))).collect();
            stages.push(QuantStage::ReLU);
        } else if let Some(pool) = layer.as_maxpool() {
            let k = pool.kernel();
            acts = acts.iter().map(|a| maxpool_forward(a, k)).collect();
            stages.push(QuantStage::MaxPool(k));
        } else {
            return Err(QuantizeError::UnsupportedLayer(layer.name()));
        }
    }
    Ok((QuantPipe { stages }, acts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, MaxPool2d, ReLU};
    use crate::rng::Rng;

    #[test]
    fn direct_reduction_matches_hand_computed_patches() {
        // 1×1×3×3 input, one 2×2 kernel of ones, stride 1, padding 1:
        // every output is the sum of the input cells its window covers.
        let qx: Vec<i8> = (1..=9).collect();
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 2, stride: 1, padding: 1 };
        let acc = conv_direct_i8(&qx, [1, 1, 3, 3], &spec, &[1, 1, 1, 1]);
        #[rustfmt::skip]
        let expect = vec![
            1,  3,  5,  3,
            5, 12, 16,  9,
            11, 24, 28, 15,
            7, 15, 17,  9,
        ];
        assert_eq!(acc, expect);
    }

    #[test]
    fn per_channel_quantization_bounds_error() {
        let mut rng = Rng::new(3);
        let w: Vec<f32> = (0..4 * 9).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
        let qw = quantize_per_channel(&w, 4, 9);
        for r in 0..4 {
            let s = qw.scales[r];
            for i in 0..9 {
                let deq = qw.q[r * 9 + i] as f32 * s;
                assert!(
                    (deq - w[r * 9 + i]).abs() <= s * 0.5 + 1e-6,
                    "row {r} elem {i}: {deq} vs {}",
                    w[r * 9 + i]
                );
            }
        }
    }

    #[test]
    fn zero_row_gets_unit_scale() {
        let qw = quantize_per_channel(&[0.0; 6], 2, 3);
        assert_eq!(qw.scales, vec![1.0, 1.0]);
        assert!(qw.q.iter().all(|&v| v == 0));
    }

    #[test]
    fn quant_conv_tracks_f32_conv() {
        let mut rng = Rng::new(7);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y_f32 = conv.forward(&x, false);
        let qconv = QuantConv2d::from_conv(&conv, calib_scale(x.data()));
        let y_q = qconv.forward(&x);
        assert_eq!(y_q.shape(), y_f32.shape());
        let max_abs = y_f32.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in y_q.data().iter().zip(y_f32.data()) {
            // Two layers of rounding (activations + weights); stay within
            // a few percent of the dynamic range.
            assert!((a - b).abs() <= 0.05 * max_abs + 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_pipe_tracks_f32_sequential() {
        let mut rng = Rng::new(9);
        let mut seq = Sequential::new(vec![
            Box::new(Conv2d::new(2, 8, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
        ]);
        // Settle running stats so eval mode is nontrivial.
        let warm = Tensor::randn(&[4, 2, 8, 8], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = seq.forward(&warm, true);
        }
        let calib: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng)).collect();
        let (pipe, final_acts) = quantize_sequential(&seq, &calib).expect("quantizable");
        assert_eq!(pipe.stages.len(), 4);
        assert_eq!(final_acts.len(), 3);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let y_f32 = seq.forward(&x, false);
        let y_q = pipe.forward(&x);
        assert_eq!(y_q.shape(), y_f32.shape());
        let max_abs = y_f32.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in y_q.data().iter().zip(y_f32.data()) {
            assert!((a - b).abs() <= 0.08 * max_abs + 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn unsupported_layer_is_reported() {
        let mut rng = Rng::new(1);
        let seq = Sequential::new(vec![Box::new(crate::layer::Linear::new(4, 2, &mut rng))]);
        let calib = vec![Tensor::zeros(&[1, 4])];
        match quantize_sequential(&seq, &calib) {
            Err(QuantizeError::UnsupportedLayer(name)) => assert_eq!(name, "Linear"),
            other => panic!("expected UnsupportedLayer, got {other:?}"),
        }
    }

    #[test]
    fn empty_calibration_is_reported() {
        let seq = Sequential::empty();
        assert_eq!(quantize_sequential(&seq, &[]), Err(QuantizeError::NoCalibration));
    }

    #[test]
    fn quant_pipe_serde_roundtrip() {
        let mut rng = Rng::new(4);
        let conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let qconv = QuantConv2d::from_conv(&conv, 0.05);
        let pipe = QuantPipe {
            stages: vec![
                QuantStage::Conv(qconv),
                QuantStage::Affine(vec![1.0, 0.5], vec![0.0, -0.1]),
                QuantStage::ReLU,
                QuantStage::MaxPool(2),
            ],
        };
        let json = serde_json::to_string(&pipe).expect("serialize");
        let back: QuantPipe = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, pipe);
        // Behavioural equality too: the deserialized pipe computes the
        // same outputs.
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        assert_eq!(pipe.forward(&x), back.forward(&x));
    }

    #[test]
    fn int8_forward_is_deterministic() {
        let mut rng = Rng::new(13);
        let conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let qconv = QuantConv2d::from_conv(&conv, 0.02);
        let x = Tensor::randn(&[2, 2, 9, 9], 1.0, &mut rng);
        let y1 = qconv.forward(&x);
        let y2 = qconv.forward(&x);
        assert_eq!(y1, y2);
    }
}
