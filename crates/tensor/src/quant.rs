//! Post-training int8 quantization: per-channel symmetric weights, an
//! i8×i8→i32 GEMM with the blocked backend's packing/microtile structure,
//! and a quantized stage chain built by walking a trained [`Sequential`].
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
//! [`gemm_i8_nt`] mirrors the `Blocked` f32 backend: the B operand is
//! packed into contiguous column panels, an `MR×NR` register microtile
//! accumulates `[[i32; NR]; MR]`, and every reduction runs over `k` in
//! increasing order (determinism contract — trivially exact here since
//! integer addition is associative, but the structure keeps the two
//! kernels reviewable side by side).

use crate::backend::ConvSpec;
use crate::layer::{BatchNorm2d, Conv2d, Sequential};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-thread quantized-activation buffer (avoids an allocation per
    /// forward, mirroring the blocked backend's scratch reuse).
    static QX_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread im2col column buffer.
    static COLS_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
    /// Per-thread i32 GEMM accumulator buffer.
    static ACC_I32: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed B panel for [`gemm_i8_nt`] (steady-state int8
    /// inference must not allocate per call).
    static PANEL_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
}

/// Largest representable quantized magnitude (symmetric int8).
pub const QMAX: f32 = 127.0;

/// Register microtile rows (A rows per microkernel call).
const MR_I8: usize = 8;
/// Register microtile columns (packed B panel width).
const NR_I8: usize = 8;

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

/// Quantizes activations with a symmetric per-tensor scale into `out`
/// (cleared and refilled): `q = round(x / scale)` clamped to ±127.
/// Rounding is ties-to-even — the single-instruction vector rounding mode,
/// so this pass auto-vectorizes; the half-step tie cases it decides
/// differently from `round()` are measure-zero against calibrated scales
/// and stay inside the ±scale/2 round-trip bound either way.
pub fn quantize_activations(x: &[f32], scale: f32, out: &mut Vec<i8>) {
    let inv = 1.0 / scale;
    out.clear();
    out.reserve(x.len());
    out.extend(x.iter().map(|&v| (v * inv).round_ties_even().clamp(-QMAX, QMAX) as i8));
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
// Int8 GEMM kernel
// ---------------------------------------------------------------------------

/// Scalar i8 dot product with i32 accumulation (row/column tails).
#[inline]
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// `C (m×n) = A (m×k) · Bᵀ` where `B` is stored `(n×k)`, accumulating in
/// `i32`. `c` is fully overwritten. Matches the f32 `gemm_nt` orientation
/// used by the im2col convolution lowering (B rows are weight channels).
///
/// # Panics
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_i8_nt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), n * k, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    c.fill(0);
    PANEL_I8.with(|panel_buf| {
        let mut panel = panel_buf.borrow_mut();
        panel.clear();
        panel.resize(k * NR_I8, 0);
        let mut j0 = 0;
        while j0 < n {
            let jw = NR_I8.min(n - j0);
            if jw == NR_I8 {
                // Pack the B column panel interleaved: panel[p*NR + j] holds
                // B[(j0+j), p], so the microkernel streams one contiguous
                // chunk per k step.
                for p in 0..k {
                    for j in 0..NR_I8 {
                        panel[p * NR_I8 + j] = b[(j0 + j) * k + p];
                    }
                }
                let mut i0 = 0;
                while i0 < m {
                    let iw = MR_I8.min(m - i0);
                    if iw == MR_I8 {
                        microkernel_i8(k, n, &a[i0 * k..], &panel, &mut c[i0 * n + j0..]);
                    } else {
                        for i in i0..m {
                            let arow = &a[i * k..(i + 1) * k];
                            for j in 0..jw {
                                c[i * n + j0 + j] =
                                    dot_i8(arow, &b[(j0 + j) * k..(j0 + j + 1) * k]);
                            }
                        }
                    }
                    i0 += iw;
                }
            } else {
                // Narrow column tail: scalar dots.
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    for j in 0..jw {
                        c[i * n + j0 + j] = dot_i8(arow, &b[(j0 + j) * k..(j0 + j + 1) * k]);
                    }
                }
            }
            j0 += jw;
        }
    })
}

/// `MR×NR` register microtile over a packed B panel: `acc[i][j] += A[i,p]
/// · panel[p][j]` with `p` increasing.
#[inline]
fn microkernel_i8(k: usize, n: usize, a: &[i8], panel: &[i8], c: &mut [i32]) {
    let mut arows: [&[i8]; MR_I8] = [&[]; MR_I8];
    for (r, row) in arows.iter_mut().enumerate() {
        *row = &a[r * k..(r + 1) * k];
    }
    let mut acc = [[0i32; NR_I8]; MR_I8];
    for (p, bchunk) in panel.chunks_exact(NR_I8).enumerate().take(k) {
        let bc: &[i8; NR_I8] = bchunk.try_into().unwrap();
        for (row, acc_row) in arows.iter().zip(acc.iter_mut()) {
            let av = row[p] as i32;
            for (cell, &bv) in acc_row.iter_mut().zip(bc) {
                *cell += av * bv as i32;
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        c[i * n..i * n + NR_I8].copy_from_slice(acc_row);
    }
}

/// Lowers quantized NCHW input to a `(N·Ho·Wo, C_in·k·k)` column matrix
/// (padding positions become zeros). Mirrors the f32 `im2col` exactly so
/// the int8 convolution sees the same patch geometry.
pub fn im2col_i8(
    x: &[i8],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    cols: &mut Vec<i8>,
) {
    crate::backend::im2col_sweep(x, 0i8, [n, c, h, w], spec, cols);
}

/// Transposed int8 conv lowering for the compiled plan: quantized input
/// → `(C_in·k·k, N·Ho·Wo)` columns ([`crate::backend::im2col_t`]) →
/// channel-major i32 accumulators `acc[co][pos]`, so the fused dequant
/// epilogue streams one contiguous run per (batch, channel). Integer
/// accumulation is exact, so the j-blocked widening-AXPY order below is
/// bit-identical to [`gemm_i8_nt`] on either operand order. `cols` (at
/// least `C_in·k·k × N·Ho·Wo`) and `acc` (at least `C_out × N·Ho·Wo`)
/// are caller-owned scratch; their used prefixes are fully overwritten.
pub fn conv_rows_t_i8(
    qx: &[i8],
    dims: [usize; 4],
    spec: &ConvSpec,
    q: &[i8],
    cols: &mut [i8],
    acc: &mut [i32],
) {
    let [n, _, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let m = n * ho * wo;
    let (co, ck) = (spec.out_channels, spec.patch_len());
    assert_eq!(q.len(), co * ck, "weight length mismatch");
    let cols = &mut cols[..ck * m];
    crate::backend::im2col_t(qx, 0i8, dims, spec, cols);
    let acc = &mut acc[..co * m];
    use crate::backend::{IR_T, JR_T};
    let jm = m - m % JR_T;
    let mut i0 = 0;
    while i0 < co {
        let ir = IR_T.min(co - i0);
        let q_grp = &q[i0 * ck..(i0 + ir) * ck];
        let acc_grp = &mut acc[i0 * m..(i0 + ir) * m];
        let mut j0 = 0;
        while j0 < jm {
            // Register-tiled block: broadcast-A widening multiply against
            // contiguous B rows, so B streams once per channel group
            // instead of once per channel. Full-height groups take the
            // const-height tile (accumulators stay in registers).
            if ir == IR_T {
                tile_tn_i8::<IR_T>(ck, m, q_grp, cols, acc_grp, j0);
            } else {
                tile_tn_i8_partial(ir, ck, m, q_grp, cols, acc_grp, j0);
            }
            j0 += JR_T;
        }
        for ii in 0..ir {
            let qrow = &q_grp[ii * ck..(ii + 1) * ck];
            for j in jm..m {
                let mut s = 0i32;
                for (p, &qv) in qrow.iter().enumerate() {
                    s += qv as i32 * cols[p * m + j] as i32;
                }
                acc_grp[ii * m + j] = s;
            }
        }
        i0 += ir;
    }
}

/// One `IR×JR_T` tile of [`conv_rows_t_i8`]'s accumulation.
#[inline]
fn tile_tn_i8<const IR: usize>(ck: usize, m: usize, q: &[i8], bt: &[i8], c: &mut [i32], j0: usize) {
    use crate::backend::JR_T;
    let mut acc = [[0i32; JR_T]; IR];
    for p in 0..ck {
        let b = &bt[p * m + j0..p * m + j0 + JR_T];
        for ii in 0..IR {
            let av = q[ii * ck + p] as i32;
            for (x, &bv) in acc[ii].iter_mut().zip(b) {
                *x += av * bv as i32;
            }
        }
    }
    for (ii, accr) in acc.iter().enumerate() {
        c[ii * m + j0..ii * m + j0 + JR_T].copy_from_slice(accr);
    }
}

/// Runtime-height tail variant of [`tile_tn_i8`].
fn tile_tn_i8_partial(
    ir: usize,
    ck: usize,
    m: usize,
    q: &[i8],
    bt: &[i8],
    c: &mut [i32],
    j0: usize,
) {
    use crate::backend::{IR_T, JR_T};
    let mut acc = [[0i32; JR_T]; IR_T];
    for p in 0..ck {
        let b = &bt[p * m + j0..p * m + j0 + JR_T];
        for (ii, accr) in acc[..ir].iter_mut().enumerate() {
            let av = q[ii * ck + p] as i32;
            for (x, &bv) in accr.iter_mut().zip(b) {
                *x += av * bv as i32;
            }
        }
    }
    for (ii, accr) in acc[..ir].iter().enumerate() {
        c[ii * m + j0..ii * m + j0 + JR_T].copy_from_slice(accr);
    }
}

// ---------------------------------------------------------------------------
// Quantized convolution and stage chain
// ---------------------------------------------------------------------------

/// A quantized convolution: int8 weights + calibrated activation scale.
///
/// `forward` quantizes the f32 input, lowers with [`im2col_i8`], runs
/// [`gemm_i8_nt`], and dequantizes into an f32 NCHW tensor with the bias
/// added — int8 in the GEMM only, f32 at the stage boundary.
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

    /// Int8 convolution forward over an f32 NCHW input.
    ///
    /// # Panics
    /// Panics if the input is not 4-D with `spec.in_channels` channels.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "QuantConv2d expects NCHW input");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.spec.in_channels, "QuantConv2d channel mismatch");
        let (ho, wo) = self.spec.out_size(h, w);
        let co = self.spec.out_channels;
        let ck = self.spec.patch_len();
        let rows_n = n * ho * wo;

        QX_I8.with(|qx_buf| {
            COLS_I8.with(|cols_buf| {
                ACC_I32.with(|acc_buf| {
                    let mut qx = qx_buf.borrow_mut();
                    let mut cols = cols_buf.borrow_mut();
                    let mut acc = acc_buf.borrow_mut();
                    quantize_activations(x.data(), self.act_scale, &mut qx);
                    im2col_i8(&qx, n, c, h, w, &self.spec, &mut cols);
                    acc.clear();
                    acc.resize(rows_n * co, 0);
                    gemm_i8_nt(rows_n, ck, co, &cols, &self.weights.q, &mut acc);

                    // Dequantize straight into NCHW, fusing the bias add:
                    // per-channel scales hoisted, contiguous plane writes,
                    // strided accumulator reads via step_by (no per-element
                    // bounds checks).
                    let deq: Vec<f32> =
                        self.weights.scales.iter().map(|s| self.act_scale * s).collect();
                    let plane = ho * wo;
                    let mut y = Tensor::zeros(&[n, co, ho, wo]);
                    let yd = y.data_mut();
                    for b in 0..n {
                        let acc_b = &acc[b * plane * co..(b + 1) * plane * co];
                        for ci in 0..co {
                            let (d, bias) = (deq[ci], self.bias[ci]);
                            let out = &mut yd[(b * co + ci) * plane..(b * co + ci + 1) * plane];
                            for (o, &a) in out.iter_mut().zip(acc_b[ci..].iter().step_by(co)) {
                                *o = a as f32 * d + bias;
                            }
                        }
                    }
                    y
                })
            })
        })
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
            let backend = crate::backend::active();
            let spec = conv.spec();
            acts = acts
                .iter()
                .map(|a| {
                    backend.conv2d_forward(
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

    fn naive_gemm_nt_i32(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[j * k + p] as i32;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
        (0..len).map(|_| rng.uniform(-127.0, 128.0).floor() as i8).collect()
    }

    #[test]
    fn gemm_i8_matches_naive_across_shapes() {
        let mut rng = Rng::new(11);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (8, 16, 8), (9, 7, 17), (16, 9, 8), (13, 27, 11)]
        {
            let a = rand_i8(m * k, &mut rng);
            let b = rand_i8(n * k, &mut rng);
            let mut c = vec![0i32; m * n];
            gemm_i8_nt(m, k, n, &a, &b, &mut c);
            assert_eq!(c, naive_gemm_nt_i32(m, k, n, &a, &b), "shape ({m},{k},{n})");
        }
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
