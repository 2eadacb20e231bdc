//! Pluggable compute backends for the hot linear-algebra kernels.
//!
//! Every GEMM and convolution in the workspace dispatches through a
//! [`Backend`]: [`Reference`] keeps the original straightforward loops as a
//! correctness oracle, while [`Blocked`] provides register-tiled,
//! cache-aware kernels with scoped-thread data parallelism over output
//! rows and the batch dimension. Layers call [`active`], so swapping the
//! whole model's compute substrate is one call to [`set_backend`]; a
//! process that never calls it runs [`Blocked`].
//!
//! # Numerical contract
//!
//! Both backends accumulate every output element over the shared dimension
//! in the same (increasing) order and never split a single reduction
//! across threads, so each backend is individually deterministic on every
//! machine and thread count. They differ only in rounding: the blocked
//! kernels use fused multiply-adds (one rounding per multiply-add instead
//! of two). The parity suite in `crates/tensor/tests/prop_backend.rs`
//! bounds the divergence at `1e-4` across randomized shapes for matmul and
//! convolution forward + backward.

mod blocked;
mod reference;

pub use blocked::Blocked;
pub use reference::Reference;

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};

/// Selects one of the built-in backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Original scalar loops: the correctness oracle.
    Reference,
    /// Register-tiled, parallel kernels (the default).
    Blocked,
}

/// Shape parameters of a 2-D convolution (NCHW, square kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl ConvSpec {
    /// Output spatial size for an `h × w` input.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let ho = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let wo = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (ho, wo)
    }

    /// Width of one im2col row: `C_in · k · k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Gradients of one convolution backward pass.
#[derive(Debug)]
pub struct ConvGrads {
    /// Weight gradient, shape `(C_out, C_in·k·k)`.
    pub dw: Tensor,
    /// Bias gradient, shape `(C_out)`.
    pub db: Tensor,
    /// Input gradient, shape of the forward input.
    pub dx: Tensor,
}

/// A compute backend: the GEMM and convolution kernels everything above
/// the tensor layer runs on.
///
/// GEMM methods write into a caller-zeroed `c` buffer. Slices are
/// row-major; dimension names follow `C (m×n) = A · B` with shared
/// dimension `k`.
pub trait Backend: Send + Sync {
    /// Backend name for diagnostics and bench labels.
    fn name(&self) -> &'static str;

    /// `C (m×n) = A (m×k) · B (k×n)`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// `C (m×n) = Aᵀ · B` where `A` is stored `(k×m)`.
    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// `C (m×n) = A · Bᵀ` where `B` is stored `(n×k)`.
    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// Convolution forward over NCHW input `x` with weight `(C_out,
    /// C_in·k·k)` and bias `(C_out)`. `scratch` is a caller-owned buffer
    /// backends may use to avoid per-call allocation (im2col columns).
    fn conv2d_forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
    ) -> Tensor;

    /// Convolution backward: gradients of weight, bias, and input given
    /// the forward input `x` and `grad_out` in NCHW layout.
    ///
    /// `cols_valid` promises that `scratch` still holds exactly what this
    /// backend's `conv2d_forward` left there for the same `x` — backends
    /// that lower to columns may then skip recomputing the lowering.
    fn conv2d_backward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
        cols_valid: bool,
    ) -> ConvGrads;

    /// Pre-bias convolution output, channel-major `(C_out, N·Ho·Wo)`:
    /// exactly this backend's [`Backend::conv2d_forward`] reduction minus
    /// the bias add and the NCHW rearrangement, so a caller-supplied
    /// write-back epilogue (bias, folded batch-norm, ReLU) reproduces the
    /// eager layer chain bit for bit, reading one contiguous run of
    /// positions per output channel. `x` is NCHW data with `dims = [n, c,
    /// h, w]`; `cols` (at least `C_in·k·k × N·Ho·Wo`) and `rows` (at
    /// least `C_out × N·Ho·Wo`) are caller-owned scratch whose used
    /// prefixes are fully overwritten — no zeroing is asked of the caller
    /// and none is done here.
    ///
    /// The default lowers to the transposed column layout ([`im2col_t`],
    /// pure data movement) and accumulates each output element with the
    /// same ascending-k `mul_add` chain from zero as the packed GEMM
    /// microkernels behind `conv2d_forward` (f32 multiplication commutes
    /// exactly, so swapping the operand roles changes no bits). An
    /// element's chain reads only its own patch, so the result does not
    /// depend on which other samples share the call. Backends whose
    /// `conv2d_forward` computes a different reduction (the direct
    /// reference loops) must override so the rows match their own forward.
    fn conv2d_rows_t(
        &self,
        x: &[f32],
        dims: [usize; 4],
        weight: &Tensor,
        spec: &ConvSpec,
        cols: &mut [f32],
        rows: &mut [f32],
    ) {
        let [n, _, h, w] = dims;
        let (ho, wo) = spec.out_size(h, w);
        let m = n * ho * wo;
        let ck = spec.patch_len();
        let cols = &mut cols[..ck * m];
        im2col_t(x, 0.0f32, dims, spec, cols);
        gemm_tn_f32(
            spec.out_channels,
            ck,
            m,
            weight.data(),
            cols,
            &mut rows[..spec.out_channels * m],
        );
    }
}

static REFERENCE: Reference = Reference;
static BLOCKED: Blocked = Blocked;

/// The backend instance for a kind (useful for benches and parity tests
/// that must pin a backend regardless of the global selection).
pub fn get(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Reference => &REFERENCE,
        BackendKind::Blocked => &BLOCKED,
    }
}

const KIND_REFERENCE: u8 = 1;
const KIND_BLOCKED: u8 = 2;

static SELECTED: AtomicU8 = AtomicU8::new(KIND_BLOCKED);

/// The globally selected backend kind: the last [`set_backend`] call,
/// [`BackendKind::Blocked`] if there was none.
pub fn backend_kind() -> BackendKind {
    match SELECTED.load(Ordering::Relaxed) {
        KIND_REFERENCE => BackendKind::Reference,
        _ => BackendKind::Blocked,
    }
}

/// Selects the process-wide backend. Affects every subsequent tensor and
/// layer operation; typically called once at startup.
pub fn set_backend(kind: BackendKind) {
    let v = match kind {
        BackendKind::Reference => KIND_REFERENCE,
        BackendKind::Blocked => KIND_BLOCKED,
    };
    SELECTED.store(v, Ordering::Relaxed);
}

/// The active backend instance.
pub fn active() -> &'static dyn Backend {
    get(backend_kind())
}

// ---------------------------------------------------------------------------
// Shared lowering helpers (used by the GEMM-based backend; the reference
// backend convolves directly and never materializes columns)
// ---------------------------------------------------------------------------

/// Lowers NCHW input to a `(N·Ho·Wo, C_in·k·k)` column matrix in `cols`
/// for the eager convolution forward and backward. Pure data movement —
/// the emitted matrix is element-for-element the naive lowering, so the
/// downstream GEMM sees identical values (bit-identity is untouched).
/// Every position of the matrix is written (copies or explicit padding
/// zeros), so the buffer is reused across calls without a full memset.
///
/// Two layouts of the same loop nest, picked by patch width:
/// * narrow patches (≲ one cache line): column sweep — contiguous source
///   reads, short-stride writes;
/// * wide patches: patch-major — each patch's destination row is
///   contiguous, with a branch-free interior fast path (const-k copies)
///   and per-element clipping only on boundary patches.
pub(crate) fn im2col(x: &Tensor, spec: &ConvSpec, cols: &mut Vec<f32>) {
    let (n, c, h, w) = dims4(x);
    if spec.patch_len() * std::mem::size_of::<f32>() > 64 && spec.kernel > 1 {
        im2col_patches(x.data(), [n, c, h, w], spec, cols);
    } else {
        im2col_columns(x.data(), [n, c, h, w], spec, cols);
    }
}

/// Transposed im2col: `(C_in·k·k, N·Ho·Wo)` — one contiguous run of
/// output positions per patch element `(ci, ky, kx)`. The unit `T` is
/// whatever one input position holds: an `f32`, or the `[i8; 2]` channel
/// pair of the int8 plans (`dims[1]` then counts pairs). Pure data
/// movement, fully overwritten each call.
///
/// Two arms:
/// * **plane shift** — a same-size stride-1 convolution (`s == 1`,
///   `2p == k − 1`: every stem, branch 3×3 and 1×1 head). The run of one
///   sample is its input plane shifted by `(ky − p)·w + (kx − p)`: one
///   clipped copy per plane, then zeros over the rows the shift pushed
///   out of the image and over the edge columns that wrapped in from the
///   neighbouring row.
/// * **row by row** — everything else (the strided first conv of a
///   branch, the attention/deep gate convs): per output row, clip the
///   in-bounds span and gather it; stride 2 de-interleaves a source row
///   sliced once.
///
/// # Panics
/// Panics unless `dims[1] == spec.in_channels`, `xdata` holds exactly
/// `dims` units and `cols` exactly `C_in·k·k × N·Ho·Wo`.
pub(crate) fn im2col_t<T: Copy>(
    xdata: &[T],
    zero: T,
    dims: [usize; 4],
    spec: &ConvSpec,
    cols: &mut [T],
) {
    let [n, c, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let m = n * ho * wo;
    let (k, s, pd) = (spec.kernel, spec.stride, spec.padding);
    // Release-mode checks: a short input or oversized `cols` would leave
    // stale columns behind and the GEMM would sum them silently.
    assert!(
        c == spec.in_channels && xdata.len() == n * c * h * w && cols.len() == c * k * k * m,
        "im2col_t: operands disagree with {dims:?} and {spec:?}"
    );
    let same_size = s == 1 && 2 * pd + 1 == k;
    let plane_out = (ho * wo).max(1);
    // Kernel taps outermost: the in-image span of output rows depends on
    // `ky` alone and that of output columns on `kx` alone.
    for ky in 0..k {
        let oy = in_bounds_span(ky, pd, s, h, ho);
        for kx in 0..k {
            let ox = in_bounds_span(kx, pd, s, w, wo);
            // `None`: the tap reads padding only.
            let tap = (oy.0 < oy.1 && ox.0 < ox.1).then(|| Tap {
                oy,
                ox,
                iy0: oy.0 * s + ky - pd,
                ix0: ox.0 * s + kx - pd,
            });
            for ci in 0..c {
                let prow = &mut cols[((ci * k + ky) * k + kx) * m..][..m];
                let planes = (0..n).map(|b| &xdata[(b * c + ci) * h * w..][..h * w]);
                for (dst, src) in prow.chunks_exact_mut(plane_out).zip(planes) {
                    match &tap {
                        None => dst.fill(zero),
                        Some(tap) if same_size => shift_plane(src, zero, w, tap, dst),
                        Some(tap) => gather_rows(src, zero, [w, wo], s, tap, dst),
                    }
                }
            }
        }
    }
}

/// The output indices `lo..hi` (within `0..out`) whose tap
/// `o·s + t − p` lands inside `0..len`; empty as `lo ≥ hi`.
fn in_bounds_span(t: usize, p: usize, s: usize, len: usize, out: usize) -> (usize, usize) {
    let lo = p.saturating_sub(t).div_ceil(s).min(out);
    let hi = if len + p > t { ((len + p - t - 1) / s + 1).min(out) } else { 0 };
    (lo, hi)
}

/// Where one kernel tap `(ky, kx)` reads: the non-empty spans of output
/// rows and columns whose source lies inside the image, and the source
/// row and column of the first of them.
struct Tap {
    oy: (usize, usize),
    ox: (usize, usize),
    iy0: usize,
    ix0: usize,
}

/// One tap of a same-size stride-1 lowering over one plane of width
/// `w`: `dst[oy·w + ox] = src[(oy + dy)·w + ox + dx]` with
/// `(dy, dx) = (ky − p, kx − p)`, zero where that leaves the image.
fn shift_plane<T: Copy>(src: &[T], zero: T, w: usize, tap: &Tap, dst: &mut [T]) {
    let ((oy_lo, oy_hi), (ox_lo, ox_hi)) = (tap.oy, tap.ox);
    dst[..oy_lo * w].fill(zero);
    dst[oy_hi * w..].fill(zero);
    // The in-image rows as one flat copy, clipped by the column shift at
    // both ends; what wraps across a row boundary lands in an edge
    // column and is zeroed below.
    let (d0, d1) = (oy_lo * w + ox_lo, (oy_hi - 1) * w + ox_hi);
    let s0 = tap.iy0 * w + tap.ix0;
    dst[d0..d1].copy_from_slice(&src[s0..s0 + (d1 - d0)]);
    if ox_lo > 0 || ox_hi < w {
        for row in dst[oy_lo * w..oy_hi * w].chunks_exact_mut(w) {
            row[..ox_lo].fill(zero);
            row[ox_hi..].fill(zero);
        }
    }
}

/// One tap of the general lowering over one plane (input rows `w` wide,
/// output rows `wo`): zero rows above and below the in-image span, then
/// per output row zeros outside the in-image columns and a gather at
/// stride `s` inside.
fn gather_rows<T: Copy>(
    src: &[T],
    zero: T,
    [w, wo]: [usize; 2],
    s: usize,
    tap: &Tap,
    dst: &mut [T],
) {
    let ((oy_lo, oy_hi), (ox_lo, ox_hi)) = (tap.oy, tap.ox);
    dst[..oy_lo * wo].fill(zero);
    dst[oy_hi * wo..].fill(zero);
    // Source rows `iy0, iy0 + s, …`, each cut once to the columns
    // `ix0, ix0 + s, …` the row reads, so the gathers below carry no
    // bounds checks.
    let reach = (ox_hi - ox_lo - 1) * s + 1;
    let src_rows = src[tap.iy0 * w..].chunks(s * w).map(|row| &row[tap.ix0..][..reach]);
    for (drow, span) in dst[oy_lo * wo..oy_hi * wo].chunks_exact_mut(wo).zip(src_rows) {
        drow[..ox_lo].fill(zero);
        drow[ox_hi..].fill(zero);
        let (last, body) = drow[ox_lo..ox_hi].split_last_mut().expect("ox_lo < ox_hi");
        match s {
            2 => {
                for (d, pair) in body.iter_mut().zip(span.chunks_exact(2)) {
                    *d = pair[0];
                }
            }
            _ => {
                for (d, &v) in body.iter_mut().zip(span.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
        *last = span[reach - 1];
    }
}

/// `C (co×m) = A (co×ck) · Bᵀ` where B is the transposed column matrix
/// from [`im2col_t`] (`ck×m`): `c[i][j] = Σ_p a[i·ck+p] · bt[p·m+j]`,
/// accumulated p-ascending with one `mul_add` chain per element from
/// zero — the identical chain the packed microkernels run, so the
/// result is bit-identical to `gemm_nt` on the swapped operands.
/// Register-tiled `IR_T×JR_T` so each B row chunk is read once per
/// channel group (not once per channel) and needs no packing: the
/// transposed layout is already contiguous along j. `c` is fully
/// overwritten (the sub-tile tails start their chains from zero too).
fn gemm_tn_f32(co: usize, ck: usize, m: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    debug_assert!(a.len() >= co * ck && bt.len() >= ck * m && c.len() >= co * m);
    let jm = m - m % JR_T;
    let mut i0 = 0;
    while i0 < co {
        let ir = IR_T.min(co - i0);
        let a_grp = &a[i0 * ck..(i0 + ir) * ck];
        let c_grp = &mut c[i0 * m..(i0 + ir) * m];
        let mut j0 = 0;
        while j0 < jm {
            // Full-height groups go through the const-height tile so the
            // accumulator block stays in registers; only the final
            // sub-8-channel group takes the runtime-height fallback.
            if ir == IR_T {
                tile_tn_f32::<IR_T>(ck, m, a_grp, bt, c_grp, j0);
            } else {
                tile_tn_f32_partial(ir, ck, m, a_grp, bt, c_grp, j0);
            }
            j0 += JR_T;
        }
        // Sub-tile j tail: scalar dots, the same ascending-p chain.
        for ii in 0..ir {
            let arow = &a_grp[ii * ck..(ii + 1) * ck];
            for j in jm..m {
                let mut acc = 0.0f32;
                for (p, &av) in arow.iter().enumerate() {
                    acc = av.mul_add(bt[p * m + j], acc);
                }
                c_grp[ii * m + j] = acc;
            }
        }
        i0 += ir;
    }
}

/// Channel-group height and position-tile width of the transposed-GEMM
/// register tiles (f32 and int8): an `8×16` accumulator block, the same
/// register budget as the packed microkernel's `MR×NR` tile.
pub(crate) const IR_T: usize = 8;
pub(crate) const JR_T: usize = 16;

/// Working-set budget of one compiled-plan tile: a plan streams as many
/// samples at a time as keep its lowering buffers (im2col columns, GEMM
/// rows / i32 accumulators, ping/pong intermediates) within this many
/// bytes, so a tile's columns are still cache-resident when its GEMM
/// reads them and its rows when the epilogue does. 256 KiB is an eighth
/// of the reference host's per-core L2 — the tile's input, output and
/// the weights need room beside it — and resolves to two samples for
/// every f32 stem, branch and gate of the canonical model. Measured at
/// 128 / 256 / 512 KiB (`BENCH_14.json`, `tile_constant`): 128 and 256
/// are within run-to-run spread of each other (256 a little ahead on the
/// 64-frame f32 fleet batches, 128 on the int8 rung), 512 is behind on
/// the int8 rung and costs resident memory everywhere.
pub(crate) const TILE_BYTES: usize = 256 * 1024;

/// One `IR×JR_T` tile of [`gemm_tn_f32`]: broadcast-A times contiguous-B
/// rows, accumulators in registers (the const height lets the row loop
/// fully unroll), p ascending from zero.
#[inline]
fn tile_tn_f32<const IR: usize>(
    ck: usize,
    m: usize,
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    j0: usize,
) {
    let mut acc = [[0.0f32; JR_T]; IR];
    for p in 0..ck {
        let b = &bt[p * m + j0..p * m + j0 + JR_T];
        for ii in 0..IR {
            let av = a[ii * ck + p];
            for (x, &bv) in acc[ii].iter_mut().zip(b) {
                *x = av.mul_add(bv, *x);
            }
        }
    }
    for (ii, accr) in acc.iter().enumerate() {
        c[ii * m + j0..ii * m + j0 + JR_T].copy_from_slice(accr);
    }
}

/// Runtime-height variant of [`tile_tn_f32`] for the sub-`IR_T` channel
/// tail — identical per-element accumulation chain.
fn tile_tn_f32_partial(
    ir: usize,
    ck: usize,
    m: usize,
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    j0: usize,
) {
    let mut acc = [[0.0f32; JR_T]; IR_T];
    for p in 0..ck {
        let b = &bt[p * m + j0..p * m + j0 + JR_T];
        for (ii, accr) in acc[..ir].iter_mut().enumerate() {
            let av = a[ii * ck + p];
            for (x, &bv) in accr.iter_mut().zip(b) {
                *x = av.mul_add(bv, *x);
            }
        }
    }
    for (ii, accr) in acc[..ir].iter().enumerate() {
        c[ii * m + j0..ii * m + j0 + JR_T].copy_from_slice(accr);
    }
}

/// Column-sweep layout: for each patch-column index `(ci, ky, kx)` the
/// valid output positions along a row form one contiguous source span,
/// so the inner loop is a branch-free contiguous read / strided write.
fn im2col_columns(xdata: &[f32], dims: [usize; 4], spec: &ConvSpec, cols: &mut Vec<f32>) {
    let [n, c, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let cols_w = spec.patch_len();
    cols.resize(n * ho * wo * cols_w, 0.0);
    // Zero a strided patch-column range [ox_a, ox_b).
    let zero_range = |cols: &mut [f32], base: usize, ox_a: usize, ox_b: usize| {
        if ox_a < ox_b {
            for o in cols[base + ox_a * cols_w..].iter_mut().step_by(cols_w).take(ox_b - ox_a) {
                *o = 0.0;
            }
        }
    };
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * s) as isize - p as isize;
            let row0 = (b * ho + oy) * wo * cols_w;
            for ci in 0..c {
                let ch_base = (b * c + ci) * h * w;
                let cc_base = ci * k * k;
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        // Whole kernel row is padding for this oy.
                        for kx in 0..k {
                            zero_range(cols, row0 + cc_base + ky * k + kx, 0, wo);
                        }
                        continue;
                    }
                    let src = &xdata[ch_base + iy as usize * w..ch_base + (iy as usize + 1) * w];
                    for kx in 0..k {
                        // Source column ix = ox·s + off; valid while 0 ≤ ix < w.
                        let off = kx as isize - p as isize;
                        let base = row0 + cc_base + ky * k + kx;
                        let ox_lo = if off >= 0 { 0 } else { ((-off) as usize).div_ceil(s) };
                        let max_ix = w as isize - 1 - off;
                        if ox_lo >= wo || max_ix < (ox_lo * s) as isize {
                            zero_range(cols, base, 0, wo);
                            continue;
                        }
                        let ox_hi = (max_ix as usize / s + 1).min(wo);
                        zero_range(cols, base, 0, ox_lo);
                        zero_range(cols, base, ox_hi, wo);
                        let ix_lo = (ox_lo * s + kx) - p;
                        let dst = cols[base + ox_lo * cols_w..].iter_mut().step_by(cols_w);
                        if s == 1 {
                            for (o, &v) in dst.zip(&src[ix_lo..ix_lo + (ox_hi - ox_lo)]) {
                                *o = v;
                            }
                        } else {
                            let srcs = src[ix_lo..].iter().step_by(s);
                            for (o, &v) in dst.take(ox_hi - ox_lo).zip(srcs) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Interior patch copy with a compile-time kernel size so the `K`-wide
/// row copies lower to straight-line moves instead of `memcpy` calls.
#[inline]
#[allow(clippy::too_many_arguments)] // hot-loop geometry scalars, not state
fn patch_interior<const K: usize>(
    x: &[f32],
    dst: &mut [f32],
    c: usize,
    hw: usize,
    bc: usize,
    iy0: usize,
    ix0: usize,
    w: usize,
) {
    for ci in 0..c {
        let sbase = (bc + ci) * hw + iy0 * w + ix0;
        let drow = &mut dst[ci * K * K..(ci + 1) * K * K];
        let srows = x[sbase..sbase + (K - 1) * w + K].chunks(w);
        for (d, s) in drow.chunks_exact_mut(K).zip(srows) {
            d.copy_from_slice(&s[..K]);
        }
    }
}

/// Patch-major layout for wide patches: each patch's destination row is
/// contiguous; interior patches take the branch-free const-k fast path,
/// boundary patches clip per kernel row and zero the clipped positions.
fn im2col_patches(xdata: &[f32], dims: [usize; 4], spec: &ConvSpec, cols: &mut Vec<f32>) {
    let [n, c, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let cols_w = spec.patch_len();
    cols.resize(n * ho * wo * cols_w, 0.0);
    let hw = h * w;
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * s) as isize - p as isize;
            let interior_y = iy0 >= 0 && iy0 + k as isize <= h as isize;
            for ox in 0..wo {
                let ix0 = (ox * s) as isize - p as isize;
                let row = ((b * ho + oy) * wo + ox) * cols_w;
                let dst = &mut cols[row..row + cols_w];
                if interior_y && ix0 >= 0 && ix0 + k as isize <= w as isize {
                    let (iy0, ix0) = (iy0 as usize, ix0 as usize);
                    match k {
                        3 => patch_interior::<3>(xdata, dst, c, hw, b * c, iy0, ix0, w),
                        5 => patch_interior::<5>(xdata, dst, c, hw, b * c, iy0, ix0, w),
                        _ => {
                            for ci in 0..c {
                                let ch = (b * c + ci) * hw;
                                let cb = ci * k * k;
                                for ky in 0..k {
                                    let s0 = ch + (iy0 + ky) * w + ix0;
                                    dst[cb + ky * k..cb + ky * k + k]
                                        .copy_from_slice(&xdata[s0..s0 + k]);
                                }
                            }
                        }
                    }
                    continue;
                }
                // Boundary patch: clip per kernel row, zero what's clipped.
                let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    let ch = (b * c + ci) * hw;
                    let cb = ci * k * k;
                    for ky in 0..k {
                        let d0 = cb + ky * k;
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            dst[d0..d0 + k].fill(0.0);
                            continue;
                        }
                        let srow = ch + iy as usize * w;
                        for v in &mut dst[d0..d0 + kx_lo] {
                            *v = 0.0;
                        }
                        for v in &mut dst[d0 + kx_hi..d0 + k] {
                            *v = 0.0;
                        }
                        if kx_lo < kx_hi {
                            let s0 = (srow as isize + ix0 + kx_lo as isize) as usize;
                            dst[d0 + kx_lo..d0 + kx_hi]
                                .copy_from_slice(&xdata[s0..s0 + (kx_hi - kx_lo)]);
                        }
                    }
                }
            }
        }
    }
}

/// Scatters column-matrix gradients back to NCHW input layout (inverse of
/// [`im2col`], accumulating where patches overlap).
pub(crate) fn col2im(cols_grad: &[f32], spec: &ConvSpec, in_shape: [usize; 4]) -> Tensor {
    let [n, c, h, w] = in_shape;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let cols_w = spec.patch_len();
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dxd = dx.data_mut();
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
            for ox in 0..wo {
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                let row = ((b * ho + oy) * wo + ox) * cols_w;
                for ci in 0..c {
                    let ch_base = (b * c + ci) * h * w;
                    let col_base = row + ci * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = ch_base + iy as usize * w;
                        let src_row = col_base + ky * k;
                        let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                        let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                        for kx in kx_lo..kx_hi {
                            dxd[dst_row + (ix0 + kx as isize) as usize] += cols_grad[src_row + kx];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Rearranges GEMM row layout `(N·Ho·Wo, C_out)` into NCHW, adding bias.
pub(crate) fn rows_to_nchw(
    rows: &[f32],
    bias: &[f32],
    n: usize,
    co: usize,
    ho: usize,
    wo: usize,
) -> Tensor {
    let mut y = Tensor::zeros(&[n, co, ho, wo]);
    let yd = y.data_mut();
    for b in 0..n {
        for oy in 0..ho {
            for ox in 0..wo {
                let r = ((b * ho + oy) * wo + ox) * co;
                for c in 0..co {
                    yd[((b * co + c) * ho + oy) * wo + ox] = rows[r + c] + bias[c];
                }
            }
        }
    }
    y
}

/// Rearranges an NCHW gradient into GEMM row layout `(N·Ho·Wo, C_out)`.
pub(crate) fn nchw_to_rows(
    grad_out: &Tensor,
    n: usize,
    co: usize,
    ho: usize,
    wo: usize,
) -> Vec<f32> {
    let mut rows = vec![0.0f32; n * ho * wo * co];
    let od = grad_out.data();
    for b in 0..n {
        for c in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    rows[((b * ho + oy) * wo + ox) * co + c] =
                        od[((b * co + c) * ho + oy) * wo + ox];
                }
            }
        }
    }
    rows
}

/// The `[N, C, H, W]` dimensions of a 4-D tensor.
pub(crate) fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    debug_assert_eq!(s.len(), 4, "expected NCHW tensor");
    (s[0], s[1], s[2], s[3])
}

/// Serializes the unit tests of this crate that flip the process-wide
/// backend selection with the ones whose assertions read it — every
/// eager-vs-compiled bit-identity test does, through [`active`].
#[cfg(test)]
pub(crate) fn lock_test_globals() -> std::sync::MutexGuard<'static, ()> {
    static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed assertion under the lock must not fail the other tests.
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn backend_selection_roundtrip() {
        let _guard = lock_test_globals();
        let before = backend_kind();
        set_backend(BackendKind::Reference);
        assert_eq!(backend_kind(), BackendKind::Reference);
        assert_eq!(active().name(), "reference");
        set_backend(BackendKind::Blocked);
        assert_eq!(backend_kind(), BackendKind::Blocked);
        assert_eq!(active().name(), "blocked");
        set_backend(before);
    }

    #[test]
    fn conv_spec_geometry() {
        let spec = ConvSpec { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, padding: 1 };
        assert_eq!(spec.out_size(8, 8), (4, 4));
        assert_eq!(spec.patch_len(), 27);
    }

    /// `im2col_t` against the index formula, for one unit type: dirty
    /// `cols` in, every unit checked.
    fn assert_im2col_t_is_naive<T: Copy + PartialEq + std::fmt::Debug>(
        dims: [usize; 4],
        spec: &ConvSpec,
        zero: T,
        dirt: T,
        mut unit: impl FnMut() -> T,
    ) {
        let [n, c, h, w] = dims;
        let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
        let (ho, wo) = spec.out_size(h, w);
        let m = n * ho * wo;
        let x: Vec<T> = (0..n * c * h * w).map(|_| unit()).collect();
        let mut cols = vec![dirt; spec.patch_len() * m];
        im2col_t(&x, zero, dims, spec, &mut cols);
        for (row, got) in cols.chunks_exact(m.max(1)).enumerate() {
            let (ci, ky, kx) = (row / (k * k), row / k % k, row % k);
            for (pos, got) in got.iter().enumerate() {
                let (b, oy, ox) = (pos / (ho * wo), pos / wo % ho, pos % wo);
                let iy = (oy * s + ky).checked_sub(p).filter(|&iy| iy < h);
                let ix = (ox * s + kx).checked_sub(p).filter(|&ix| ix < w);
                let want = match (iy, ix) {
                    (Some(iy), Some(ix)) => x[((b * c + ci) * h + iy) * w + ix],
                    _ => zero,
                };
                assert_eq!(*got, want, "{spec:?} on {dims:?}: patch row {row}, position {pos}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Both arms of `im2col_t` move exactly the units the index
        /// formula names, for every unit type the plans lower: the
        /// plane-shift arm on same-size stride-1 geometries (`k` 1, 3, 5,
        /// kernels wider than the image, one-row and one-column images),
        /// the row-by-row arm at stride 2 (the de-interleave), stride 3
        /// and stride 1 with any other padding.
        #[test]
        fn im2col_t_matches_the_index_formula(
            n in 1usize..4,
            c in 1usize..4,
            h in 1usize..9,
            w in 1usize..9,
            half in 0usize..3,
            stride in 1usize..4,
            k_any in 1usize..5,
            pad_any in 0usize..3,
            same_size in 0usize..2,
            seed in 0u64..1000,
        ) {
            let (kernel, stride, padding) = if same_size == 1 {
                (2 * half + 1, 1, half)
            } else {
                (k_any.min(h + 2 * pad_any).min(w + 2 * pad_any), stride, pad_any)
            };
            let spec = ConvSpec { in_channels: c, out_channels: 1, kernel, stride, padding };
            let dims = [n, c, h, w];
            let mut rng = Rng::new(seed);
            let mut byte = move || rng.uniform(-128.0, 128.0).floor() as i8;
            assert_im2col_t_is_naive(dims, &spec, 0.0f32, -7.5, {
                let mut i = 0.0f32;
                move || { i += 1.0; i }
            });
            assert_im2col_t_is_naive(dims, &spec, 0i8, 77, &mut byte);
            assert_im2col_t_is_naive(dims, &spec, [0i8; 2], [77, -77], || [byte(), byte()]);
        }
    }

    #[test]
    #[should_panic(expected = "im2col_t: operands disagree")]
    fn im2col_t_rejects_a_short_input_in_release_too() {
        // One channel fewer than the spec: a `debug_assert` would let a
        // release build leave the last patch rows stale.
        let spec = ConvSpec { in_channels: 3, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let mut cols = vec![0.0f32; spec.patch_len() * 16];
        im2col_t(&[0.0f32; 2 * 16], 0.0, [1, 2, 4, 4], &spec, &mut cols);
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), g> == <x, col2im(g)>: the two lowerings must be
        // adjoint linear maps for conv backward to be the true gradient.
        let mut rng = Rng::new(5);
        let spec = ConvSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 2, padding: 1 };
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let mut cols = Vec::new();
        im2col(&x, &spec, &mut cols);
        let g: Vec<f32> = (0..cols.len()).map(|i| ((i * 37) % 11) as f32 - 5.0).collect();
        let gx = col2im(&g, &spec, [2, 2, 5, 5]);
        let lhs: f64 = cols.iter().zip(&g).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = x.data().iter().zip(gx.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
