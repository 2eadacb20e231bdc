//! Spatial self-attention.

use super::Layer;
use crate::init;
use crate::param::Param;
use crate::rng::Rng;
use crate::tensor::Tensor;

/// Single-head scaled dot-product self-attention over the spatial positions
/// of an NCHW feature map, with a residual connection:
///
/// ```text
/// tokens X ∈ R^{T×C},  T = H·W
/// A = softmax(X Wq (X Wk)ᵀ / √C)
/// out = X + (A · X Wv) Wo
/// ```
///
/// This is the layer the paper adds to the Deep gate to obtain the
/// Attention gate (§4.2.3).
#[derive(Debug, Clone)]
pub struct SelfAttention2d {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    channels: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    shape: [usize; 4],
    /// Per-sample token matrices and intermediates.
    xs: Vec<Tensor>,
    qs: Vec<Tensor>,
    ks: Vec<Tensor>,
    vs: Vec<Tensor>,
    attn: Vec<Tensor>,
    zs: Vec<Tensor>,
}

impl SelfAttention2d {
    /// Creates an attention layer over `channels`-dimensional tokens.
    pub fn new(channels: usize, rng: &mut Rng) -> Self {
        let mk = |rng: &mut Rng| {
            Param::new(init::xavier_uniform(&[channels, channels], channels, channels, rng))
        };
        SelfAttention2d {
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            wo: mk(rng),
            channels,
            cache: None,
        }
    }

    /// Token width `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The `(C, C)` projection matrices `[Wq, Wk, Wv, Wo]` (read-only
    /// view for the graph compiler).
    pub fn projections(&self) -> [&Tensor; 4] {
        [&self.wq.value, &self.wk.value, &self.wv.value, &self.wo.value]
    }

    /// Extracts the `(T, C)` token matrix for sample `b`.
    fn tokens(x: &Tensor, b: usize) -> Tensor {
        let [_, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let t = h * w;
        let mut m = Tensor::zeros(&[t, c]);
        let md = m.data_mut();
        for ci in 0..c {
            let src = &x.data()[(b * c + ci) * t..(b * c + ci + 1) * t];
            for (i, &v) in src.iter().enumerate() {
                md[i * c + ci] = v;
            }
        }
        m
    }

    /// Writes a `(T, C)` token matrix back into NCHW layout at sample `b`.
    fn untokens(m: &Tensor, out: &mut Tensor, b: usize) {
        let c = m.shape()[1];
        let t = m.shape()[0];
        let md = m.data();
        let od = out.data_mut();
        for ci in 0..c {
            let dst = &mut od[(b * c + ci) * t..(b * c + ci + 1) * t];
            for (i, v) in dst.iter_mut().enumerate() {
                *v = md[i * c + ci];
            }
        }
    }
}

impl Layer for SelfAttention2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "SelfAttention2d expects NCHW input");
        assert_eq!(x.shape()[1], self.channels, "SelfAttention2d channel mismatch");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let scale = 1.0 / (c as f32).sqrt();
        let mut out = Tensor::zeros(x.shape());
        let mut cache = AttnCache {
            shape: [n, c, h, w],
            xs: Vec::new(),
            qs: Vec::new(),
            ks: Vec::new(),
            vs: Vec::new(),
            attn: Vec::new(),
            zs: Vec::new(),
        };
        for b in 0..n {
            let xt = Self::tokens(x, b); // (T, C)
            let q = xt.matmul(&self.wq.value);
            let k = xt.matmul(&self.wk.value);
            let v = xt.matmul(&self.wv.value);
            let mut s = q.matmul_nt(&k); // (T, T)
            s.scale(scale);
            let a = s.softmax_rows();
            let z = a.matmul(&v); // (T, C)
            let o = z.matmul(&self.wo.value); // (T, C)
            let res = xt.add(&o);
            Self::untokens(&res, &mut out, b);
            if train {
                cache.xs.push(xt);
                cache.qs.push(q);
                cache.ks.push(k);
                cache.vs.push(v);
                cache.attn.push(a);
                cache.zs.push(z);
            }
        }
        if train {
            self.cache = Some(cache);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("SelfAttention2d::backward before forward(train)");
        let [n, c, _h, _w] = cache.shape;
        let scale = 1.0 / (c as f32).sqrt();
        let mut dx_all = Tensor::zeros(grad_out.shape());
        // Accumulate weight grads over the batch.
        let mut dwq = Tensor::zeros(&[c, c]);
        let mut dwk = Tensor::zeros(&[c, c]);
        let mut dwv = Tensor::zeros(&[c, c]);
        let mut dwo = Tensor::zeros(&[c, c]);
        for b in 0..n {
            let dout = Self::tokens(grad_out, b); // (T, C), gradient of residual output
            let xt = &cache.xs[b];
            let q = &cache.qs[b];
            let k = &cache.ks[b];
            let v = &cache.vs[b];
            let a = &cache.attn[b];
            let z = &cache.zs[b];
            // out = x + z·Wo  =>  dz = dout·Woᵀ, dWo += zᵀ·dout, dx gets dout.
            let dz = dout.matmul_nt(&self.wo.value);
            dwo.add_assign(&z.matmul_tn(&dout));
            // z = a·v  =>  da = dz·vᵀ, dv = aᵀ·dz.
            let da = dz.matmul_nt(v);
            let dv = a.matmul_tn(&dz);
            // a = softmax(s): ds_ij = a_ij * (da_ij - Σ_k da_ik a_ik).
            let t = a.shape()[0];
            let mut ds = Tensor::zeros(&[t, t]);
            for i in 0..t {
                let mut dot = 0.0;
                for j in 0..t {
                    dot += da.get2(i, j) * a.get2(i, j);
                }
                for j in 0..t {
                    ds.set2(i, j, a.get2(i, j) * (da.get2(i, j) - dot));
                }
            }
            ds.scale(scale);
            // s = q·kᵀ  =>  dq = ds·k, dk = dsᵀ·q.
            let dq = ds.matmul(k);
            let dk = ds.matmul_tn(q); // dsᵀ·q, shape (T, C)
                                      // Projections: q = x·Wq etc.
            dwq.add_assign(&xt.matmul_tn(&dq));
            dwk.add_assign(&xt.matmul_tn(&dk));
            dwv.add_assign(&xt.matmul_tn(&dv));
            let mut dxt = dout.clone(); // residual path
            dxt.add_assign(&dq.matmul_nt(&self.wq.value));
            dxt.add_assign(&dk.matmul_nt(&self.wk.value));
            dxt.add_assign(&dv.matmul_nt(&self.wv.value));
            Self::untokens(&dxt, &mut dx_all, b);
        }
        self.wq.grad.add_assign(&dwq);
        self.wk.grad.add_assign(&dwk);
        self.wv.grad.add_assign(&dwv);
        self.wo.grad.add_assign(&dwo);
        dx_all
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }

    fn name(&self) -> &'static str {
        "SelfAttention2d"
    }

    fn as_self_attention(&self) -> Option<&SelfAttention2d> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::gradcheck;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = Rng::new(1);
        let mut attn = SelfAttention2d::new(4, &mut rng);
        let x = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        let y = attn.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn zero_weights_reduce_to_identity() {
        let mut rng = Rng::new(2);
        let mut attn = SelfAttention2d::new(3, &mut rng);
        attn.wo.value = Tensor::zeros(&[3, 3]);
        let x = Tensor::randn(&[1, 3, 2, 2], 1.0, &mut rng);
        let y = attn.forward(&x, false);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::new(3);
        let mut attn = SelfAttention2d::new(2, &mut rng);
        let x = Tensor::randn(&[1, 2, 2, 2], 0.5, &mut rng);
        gradcheck(&mut attn, &x, 1e-2, 5e-2);
    }

    #[test]
    fn tokens_roundtrip() {
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, &mut rng);
        let t1 = SelfAttention2d::tokens(&x, 1);
        let mut back = Tensor::zeros(x.shape());
        SelfAttention2d::untokens(&t1, &mut back, 1);
        for ci in 0..3 {
            for h in 0..2 {
                for w in 0..2 {
                    assert_eq!(back.get4(1, ci, h, w), x.get4(1, ci, h, w));
                }
            }
        }
    }
}
