//! Neural-network layers with hand-written backpropagation.
//!
//! Layers follow a simple contract: [`Layer::forward`] caches whatever the
//! backward pass needs, [`Layer::backward`] consumes the gradient with
//! respect to the output and returns the gradient with respect to the input
//! while *accumulating* parameter gradients, and [`Layer::visit_params`]
//! exposes parameters to the optimizer and serializer.

mod activation;
mod attention;
mod conv;
mod flatten;
mod linear;
mod norm;
mod pool;
mod sequential;

pub use activation::{ReLU, Sigmoid};
pub use attention::SelfAttention2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::MaxPool2d;
pub use sequential::Sequential;

use crate::param::Param;
use crate::tensor::Tensor;

/// A differentiable network module.
///
/// Implementations cache forward-pass activations internally, so a layer
/// instance must not be shared across concurrent forward passes. `backward`
/// must be called after a `forward` with `train = true`.
pub trait Layer: Send {
    /// Computes the layer output. `train` enables training-time behaviour
    /// (batch-norm batch statistics, cached activations).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the forward input.
    ///
    /// # Panics
    /// Panics if called before a training-mode [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter (used by optimizers and
    /// serialization). The visit order must be deterministic.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every non-trainable state buffer (batch-norm running
    /// statistics). The visit order must be deterministic. Layers without
    /// buffers use the empty default.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Downcast hook for the post-training quantizer: layers that are a
    /// 2-D convolution return themselves so their weights can be
    /// re-expressed in int8. Everything else keeps the `None` default.
    fn as_conv2d(&self) -> Option<&Conv2d> {
        None
    }

    /// Downcast hook for the quantizer: batch-norm layers return
    /// themselves so their eval-mode affine can be folded into an
    /// explicit per-channel scale/shift stage.
    fn as_batchnorm(&self) -> Option<&BatchNorm2d> {
        None
    }

    /// Downcast hook for the quantizer: max-pool layers return themselves
    /// so the pooling geometry can be mirrored into the int8 pipe.
    fn as_maxpool(&self) -> Option<&MaxPool2d> {
        None
    }

    /// Downcast hook for the graph compiler: fully-connected layers
    /// return themselves so a trailing ReLU can be fused into the GEMM
    /// write-back epilogue.
    fn as_linear(&self) -> Option<&Linear> {
        None
    }

    /// Downcast hook for the graph compiler: self-attention layers return
    /// themselves so their projections can be snapshotted into a plan
    /// step.
    fn as_self_attention(&self) -> Option<&SelfAttention2d> {
        None
    }

    /// Clears accumulated gradients on all parameters.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Scalar objective used by gradient checks: 0.5 * ||y||².
    fn objective(y: &Tensor) -> f32 {
        0.5 * y.norm_sq()
    }

    /// Checks `layer`'s input and parameter gradients against central finite
    /// differences on the objective 0.5·||forward(x)||².
    pub fn gradcheck(layer: &mut dyn Layer, x: &Tensor, eps: f32, tol: f32) {
        // Analytic gradients.
        let y = layer.forward(x, true);
        let grad_out = y.clone(); // d(0.5||y||²)/dy = y
        layer.zero_grad();
        let grad_in = layer.backward(&grad_out);

        // Input gradient check.
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = objective(&layer.forward(&xp, true));
            xp.data_mut()[i] = orig - eps;
            let fm = objective(&layer.forward(&xp, true));
            xp.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numeric {num}, analytic {ana}"
            );
        }

        // Parameter gradient check. Re-run analytic pass so caches match x.
        let y = layer.forward(x, true);
        layer.zero_grad();
        let _ = layer.backward(&y.clone());
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.data().to_vec()));

        let mut param_idx = 0;
        loop {
            // Count params once.
            let mut count = 0;
            layer.visit_params(&mut |_| count += 1);
            if param_idx >= count {
                break;
            }
            let mut len = 0;
            let mut k = 0;
            layer.visit_params(&mut |p| {
                if k == param_idx {
                    len = p.len();
                }
                k += 1;
            });
            #[allow(clippy::needless_range_loop)] // i also drives visit_params probes
            for i in 0..len {
                let mut orig = 0.0;
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == param_idx {
                        orig = p.value.data()[i];
                        p.value.data_mut()[i] = orig + eps;
                    }
                    k += 1;
                });
                let fp = objective(&layer.forward(x, true));
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == param_idx {
                        p.value.data_mut()[i] = orig - eps;
                    }
                    k += 1;
                });
                let fm = objective(&layer.forward(x, true));
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == param_idx {
                        p.value.data_mut()[i] = orig;
                    }
                    k += 1;
                });
                let num = (fp - fm) / (2.0 * eps);
                let ana = analytic[param_idx][i];
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param {param_idx} grad mismatch at {i}: numeric {num}, analytic {ana}"
                );
            }
            param_idx += 1;
        }
    }
}
