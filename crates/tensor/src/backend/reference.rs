//! The reference kernels: the workspace's original scalar loops, kept as
//! the correctness oracle the optimized kernels are validated against.

use super::{dims4, Backend, ConvGrads, ConvSpec};
use crate::tensor::Tensor;

/// Straightforward scalar kernels. Slow but obviously correct: GEMM is the
/// textbook triple loop (cache-friendly loop orders, nothing else) and the
/// convolution is computed directly from its definition without lowering.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reference;

impl Backend for Reference {
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // ikj loop order: stream over rhs rows for cache locality.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut c[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // A is (k, m): stream both inputs row-wise, scatter into C rows.
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let o_row = &mut c[i * n..(i + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // B is (n, k): every output is a dot product of two rows.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (av, bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn conv2d_forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        spec: &ConvSpec,
        _scratch: &mut Vec<f32>,
    ) -> Tensor {
        let (n, ci_n, h, w) = dims4(x);
        debug_assert_eq!(ci_n, spec.in_channels);
        let (ho, wo) = spec.out_size(h, w);
        let k = spec.kernel;
        let co_n = spec.out_channels;
        let mut y = Tensor::zeros(&[n, co_n, ho, wo]);
        let yd = y.data_mut();
        let xd = x.data();
        let wd = weight.data();
        for b in 0..n {
            for co in 0..co_n {
                let w_base = co * spec.patch_len();
                for oy in 0..ho {
                    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                    for ox in 0..wo {
                        let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                        let mut acc = 0.0f32;
                        // Accumulate in (ci, ky, kx) order — the same
                        // order as the im2col patch layout, so optimized
                        // backends can match this sum exactly.
                        for ci in 0..ci_n {
                            let ch_base = (b * ci_n + ci) * h * w;
                            let wk_base = w_base + ci * k * k;
                            for ky in 0..k {
                                let iy = iy0 + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let src_row = ch_base + iy as usize * w;
                                let wrow = wk_base + ky * k;
                                for kx in 0..k {
                                    let ix = ix0 + kx as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += wd[wrow + kx] * xd[src_row + ix as usize];
                                }
                            }
                        }
                        yd[((b * co_n + co) * ho + oy) * wo + ox] = acc + bias[co];
                    }
                }
            }
        }
        y
    }

    fn conv2d_backward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        _scratch: &mut Vec<f32>,
        _cols_valid: bool,
    ) -> ConvGrads {
        let (n, ci_n, h, w) = dims4(x);
        let (ho, wo) = spec.out_size(h, w);
        let k = spec.kernel;
        let co_n = spec.out_channels;
        let mut dw = Tensor::zeros(&[co_n, spec.patch_len()]);
        let mut db = Tensor::zeros(&[co_n]);
        let mut dx = Tensor::zeros(&[n, ci_n, h, w]);
        let xd = x.data();
        let wd = weight.data();
        let gd = grad_out.data();
        let dwd = dw.data_mut();
        {
            let dbd = db.data_mut();
            for b in 0..n {
                for (co, d) in dbd.iter_mut().enumerate() {
                    let base = (b * co_n + co) * ho * wo;
                    let s: f32 = gd[base..base + ho * wo].iter().sum();
                    *d += s;
                }
            }
        }
        let dxd = dx.data_mut();
        for b in 0..n {
            for co in 0..co_n {
                let w_base = co * spec.patch_len();
                for oy in 0..ho {
                    let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                    for ox in 0..wo {
                        let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                        let g = gd[((b * co_n + co) * ho + oy) * wo + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ci in 0..ci_n {
                            let ch_base = (b * ci_n + ci) * h * w;
                            let wk_base = w_base + ci * k * k;
                            for ky in 0..k {
                                let iy = iy0 + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let src_row = ch_base + iy as usize * w;
                                let wrow = wk_base + ky * k;
                                for kx in 0..k {
                                    let ix = ix0 + kx as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    dwd[wrow + kx] += g * xd[src_row + ix as usize];
                                    dxd[src_row + ix as usize] += g * wd[wrow + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        ConvGrads { dw, db, dx }
    }
}
