//! The blocked kernels: register-tiled GEMM with scoped-thread data
//! parallelism, and im2col + GEMM convolution.
//!
//! The GEMM microkernel computes an `MR × NR` output tile with fused
//! multiply-add accumulators held in registers across the whole shared
//! dimension, streaming `B` through a packed contiguous panel: every
//! packed `B` chunk is reused `MR` times, every `A` element `NR` times,
//! and `C` is touched exactly once — which removes the per-element
//! load/store traffic that bounds the reference loops and lets the FMA
//! units run at throughput (~4× the reference on a 128³ matmul on one
//! AVX-512 core). Each output element accumulates over `k` in increasing
//! order; results differ from the reference kernels only by FMA rounding,
//! which the parity suite bounds at `1e-4` (see `backend/mod.rs`).
//!
//! Parallelism uses `std::thread::scope` over disjoint row blocks of the
//! output (the batch/output-channel dimension after lowering) — reductions
//! are never split, so thread count does not affect results. `rayon` would
//! provide the same shape of parallelism with a persistent pool; the
//! scoped-thread implementation keeps the workspace dependency-free and
//! costs one thread spawn per large kernel invocation, which measures as
//! noise at the sizes where parallelism is enabled at all.

use super::{col2im, dims4, im2col, nchw_to_rows, rows_to_nchw, Backend, ConvGrads, ConvSpec};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Rows per microtile: 8 independent FMA chains per column vector.
const MR: usize = 8;
/// Columns per microtile: one AVX-512 vector / two AVX2 vectors, so the
/// `MR × NR` accumulator block stays in registers.
const NR: usize = 16;
/// Narrow column microtile for output widths with `8 ≤ width % NR`: one
/// AVX2 vector. Without it, n = 8 shapes — every 8-channel stem
/// convolution lowers to one — would take the scalar remainder path for
/// their entire output.
const NR8: usize = 8;
/// Minimum multiply-adds before a GEMM fans out across threads: below
/// this, thread spawn overhead exceeds the kernel time.
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

thread_local! {
    /// Per-thread buffer for transposed whole-operand packing
    /// (`gemm_tn`/`gemm_nt`).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread buffer for the microkernel's contiguous B panels
    /// (separate from `PACK`: a transposed-operand GEMM packs both).
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Register-tiled, cache-aware, parallel kernels: what every GEMM and
/// eager convolution in the workspace runs on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Blocked;

impl Backend for Blocked {
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        gemm_parallel(m, k, n, a, b, c);
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // Pack Aᵀ (k×m -> m×k), then run the main kernel. The pack is
        // O(km) against the kernel's O(kmn) and keeps A accesses unit
        // stride; per-element accumulation order is unchanged.
        debug_assert_eq!(a.len(), k * m);
        PACK.with(|buf| {
            let mut at = buf.borrow_mut();
            transpose_into(a, k, m, &mut at);
            gemm_parallel(m, k, n, &at, b, c);
        });
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // Pack Bᵀ (n×k -> k×n), then run the main kernel.
        debug_assert_eq!(b.len(), n * k);
        PACK.with(|buf| {
            let mut bt = buf.borrow_mut();
            transpose_into(b, n, k, &mut bt);
            gemm_parallel(m, k, n, a, &bt, c);
        });
    }

    fn conv2d_forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
    ) -> Tensor {
        let (n, _, h, w) = dims4(x);
        let (ho, wo) = spec.out_size(h, w);
        let rows_n = n * ho * wo;
        let ck = spec.patch_len();
        im2col(x, spec, scratch);
        let mut rows = vec![0.0f32; rows_n * spec.out_channels];
        self.gemm_nt(rows_n, ck, spec.out_channels, scratch, weight.data(), &mut rows);
        rows_to_nchw(&rows, bias, n, spec.out_channels, ho, wo)
    }

    fn conv2d_backward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
        cols_valid: bool,
    ) -> ConvGrads {
        let (n, _, h, w) = dims4(x);
        let (ho, wo) = spec.out_size(h, w);
        let rows_n = n * ho * wo;
        let ck = spec.patch_len();
        let co = spec.out_channels;
        let grows = nchw_to_rows(grad_out, n, co, ho, wo);
        // The forward pass lowered this exact input; reuse its columns
        // when the caller can vouch for them (saves one gather per step).
        if !(cols_valid && scratch.len() == rows_n * ck) {
            im2col(x, spec, scratch);
        }
        // dW (co×ck) = growsᵀ (co×rows) · cols (rows×ck).
        let mut dw = Tensor::zeros(&[co, ck]);
        self.gemm_tn(co, rows_n, ck, &grows, scratch, dw.data_mut());
        // db = column sums of grows.
        let mut db = Tensor::zeros(&[co]);
        {
            let dbd = db.data_mut();
            for row in grows.chunks_exact(co) {
                for (d, g) in dbd.iter_mut().zip(row) {
                    *d += g;
                }
            }
        }
        // dcols (rows×ck) = grows (rows×co) · W (co×ck), then scatter.
        let mut dcols = vec![0.0f32; rows_n * ck];
        self.gemm(rows_n, co, ck, &grows, weight.data(), &mut dcols);
        let dx = col2im(&dcols, spec, [n, spec.in_channels, h, w]);
        ConvGrads { dw, db, dx }
    }
}

/// Transposes `src` (rows×cols, row-major) into `dst` (cols×rows).
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    dst.clear();
    dst.resize(rows * cols, 0.0);
    // Tile the transpose so both access patterns stay cache-resident.
    const T: usize = 32;
    for r0 in (0..rows).step_by(T) {
        for c0 in (0..cols).step_by(T) {
            for r in r0..(r0 + T).min(rows) {
                for c in c0..(c0 + T).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Splits C's rows across threads when the kernel is large enough;
/// reductions stay whole per element, so the split never changes results.
fn gemm_parallel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // Threshold check before the parallelism probe: `available_parallelism`
    // reads cgroup files on Linux (heap + syscalls), which would otherwise
    // tax every small GEMM — and break the compiled path's zero-allocation
    // steady state. The probe result itself is cached for the same reason.
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops < PAR_FLOP_THRESHOLD {
        gemm_serial(m, k, n, a, b, c);
        return;
    }
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let threads =
        *THREADS.get_or_init(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1));
    if threads < 2 {
        gemm_serial(m, k, n, a, b, c);
        return;
    }
    // Row blocks aligned to MR so every thread runs whole microtiles.
    let workers = threads.min(m.div_ceil(MR));
    let rows_per = m.div_ceil(workers).div_ceil(MR) * MR;
    std::thread::scope(|s| {
        let mut rest = c;
        let mut row0 = 0;
        while row0 < m {
            let rows = rows_per.min(m - row0);
            let (chunk, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let a_block = &a[row0 * k..(row0 + rows) * k];
            s.spawn(move || gemm_serial(rows, k, n, a_block, b, chunk));
            row0 += rows;
        }
    });
}

/// Single-threaded register-tiled GEMM: C (m×n) = A (m×k) · B (k×n).
fn gemm_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let full_rows = m - m % MR;
    let full16 = n - n % NR;
    // One narrow microtile column covers 8 of any remaining width; only a
    // sub-8 sliver falls through to the scalar remainder path.
    let full8 = if n - full16 >= NR8 { full16 + NR8 } else { full16 };
    if full_rows > 0 {
        if full16 > 0 {
            panel_region::<NR>(k, n, full_rows, a, b, c, 0, full16);
        }
        if full8 > full16 {
            panel_region::<NR8>(k, n, full_rows, a, b, c, full16, full8);
        }
        // Sub-8 column tail: narrow microtiles instead of streaming AXPY —
        // same ascending-k accumulation chain per element, so identical
        // bits, but the A row block stays register-resident. Matters for
        // skinny outputs (e.g. a 13-channel head conv: n = 8 + 4 + 1).
        let mut j = full8;
        while n - j >= 4 {
            panel_region::<4>(k, n, full_rows, a, b, c, j, j + 4);
            j += 4;
        }
        while n - j >= 2 {
            panel_region::<2>(k, n, full_rows, a, b, c, j, j + 2);
            j += 2;
        }
        if j < n {
            panel_region::<1>(k, n, full_rows, a, b, c, j, n);
        }
    }
    // Row tail over all columns.
    if full_rows < m {
        let a_tail = &a[full_rows * k..];
        let c_tail = &mut c[full_rows * n..];
        axpy_block(m - full_rows, k, n, a_tail, b, c_tail, 0, n);
    }
}

/// Runs `W`-wide microtile columns over `[j_start, j_end)` for all full
/// `MR` row blocks, packing each B j-panel contiguous once so every row
/// block streams it from L1/L2 without strided bounds checks.
#[allow(clippy::too_many_arguments)] // kernel: dims + three operands + column range
fn panel_region<const W: usize>(
    k: usize,
    n: usize,
    full_rows: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    j_start: usize,
    j_end: usize,
) {
    PANEL.with(|buf| {
        let mut panel = buf.borrow_mut();
        panel.clear();
        panel.resize(k * W, 0.0);
        let mut j0 = j_start;
        while j0 + W <= j_end {
            for (dst, src) in panel.chunks_exact_mut(W).zip(b.chunks_exact(n)) {
                dst.copy_from_slice(&src[j0..j0 + W]);
            }
            let mut i0 = 0;
            while i0 + MR <= full_rows {
                microkernel::<W>(
                    k,
                    n,
                    &a[i0 * k..(i0 + MR) * k],
                    &panel,
                    &mut c[i0 * n..(i0 + MR) * n],
                    j0,
                );
                i0 += MR;
            }
            j0 += W;
        }
    });
}

/// Full `MR × W` tile: FMA accumulators in registers, B from the packed
/// panel. Accumulation runs over `k` in increasing order — the same
/// per-element chain as the scalar remainder path, so tile width never
/// changes results.
#[inline]
fn microkernel<const W: usize>(
    k: usize,
    n: usize,
    a_rows: &[f32],
    panel: &[f32],
    c_rows: &mut [f32],
    j0: usize,
) {
    let mut arows: [&[f32]; MR] = [&[]; MR];
    for (r, row) in arows.iter_mut().enumerate() {
        *row = &a_rows[r * k..(r + 1) * k];
    }
    let mut acc = [[0.0f32; W]; MR];
    for (p, bc) in panel.chunks_exact(W).enumerate() {
        let bc: &[f32; W] = bc.try_into().unwrap();
        for r in 0..MR {
            let ar = arows[r][p];
            for (dst, &bv) in acc[r].iter_mut().zip(bc) {
                *dst = ar.mul_add(bv, *dst);
            }
        }
    }
    for (r, row_acc) in acc.iter().enumerate() {
        c_rows[r * n + j0..r * n + j0 + W].copy_from_slice(row_acc);
    }
}

/// Remainder region (`rows × width` at column `j0`): reference-style
/// streaming AXPY, which stays vector-friendly for skinny shapes (e.g.
/// batch-1 linear layers) where packed tiling would cost more than it
/// saves.
#[inline]
#[allow(clippy::too_many_arguments)] // kernel: dims + three operands + tile origin
fn axpy_block(
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    j0: usize,
    width: usize,
) {
    for r in 0..rows {
        let a_row = &a[r * k..(r + 1) * k];
        let c_row = &mut c[r * n + j0..r * n + j0 + width];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n + j0..p * n + j0 + width];
            for (dst, &bv) in c_row.iter_mut().zip(b_row) {
                *dst = av.mul_add(bv, *dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Backend, Reference};
    use super::*;
    use crate::rng::Rng;

    fn random_vec(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gemm_matches_reference_across_shapes() {
        let mut rng = Rng::new(3);
        for &(m, k, n) in &[(1, 1, 1), (4, 16, 16), (5, 7, 19), (17, 33, 31), (64, 64, 64)] {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut c_ref = vec![0.0f32; m * n];
            let mut c_blk = vec![0.0f32; m * n];
            Reference.gemm(m, k, n, &a, &b, &mut c_ref);
            Blocked.gemm(m, k, n, &a, &b, &mut c_blk);
            assert_close(&c_ref, &c_blk, "gemm");
        }
    }

    #[test]
    fn gemm_tn_nt_match_reference() {
        let mut rng = Rng::new(4);
        let (m, k, n) = (13, 21, 18);
        let a_tn = random_vec(k * m, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_blk = vec![0.0f32; m * n];
        Reference.gemm_tn(m, k, n, &a_tn, &b, &mut c_ref);
        Blocked.gemm_tn(m, k, n, &a_tn, &b, &mut c_blk);
        assert_close(&c_ref, &c_blk, "gemm_tn");
        let a = random_vec(m * k, &mut rng);
        let b_nt = random_vec(n * k, &mut rng);
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_blk = vec![0.0f32; m * n];
        Reference.gemm_nt(m, k, n, &a, &b_nt, &mut c_ref);
        Blocked.gemm_nt(m, k, n, &a, &b_nt, &mut c_blk);
        assert_close(&c_ref, &c_blk, "gemm_nt");
    }

    #[test]
    fn degenerate_dims() {
        let mut c = vec![1.0f32; 6];
        Blocked.gemm(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn transpose_roundtrip() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut t = Vec::new();
        transpose_into(&src, 3, 4, &mut t);
        let mut back = Vec::new();
        transpose_into(&t, 4, 3, &mut back);
        assert_eq!(src, back);
    }
}
