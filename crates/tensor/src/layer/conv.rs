//! 2-D convolution on the blocked kernels.

use super::Layer;
use crate::backend::{Backend, Blocked, ConvSpec};
use crate::init;
use crate::param::Param;
use crate::rng::Rng;
use crate::tensor::Tensor;

/// 2-D convolution over NCHW inputs.
///
/// Weight layout is `(C_out, C_in·kh·kw)`. The kernel is
/// [`Blocked`]'s: it lowers the input to column-matrix form (im2col) and
/// performs one GEMM — the standard CPU strategy. The layer owns the
/// scratch buffer the lowering reuses across calls, so a steady-state
/// forward does not allocate for it.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    scratch: Vec<f32>,
    /// Bumped on every forward; lets `backward` prove the scratch buffer
    /// still holds the lowering of the cached training input.
    scratch_epoch: u64,
    cached_epoch: Option<u64>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(init::kaiming_normal(&[out_channels, fan_in], fan_in, rng));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv2d {
            weight,
            bias,
            spec: ConvSpec { in_channels, out_channels, kernel, stride, padding },
            cached_input: None,
            scratch: Vec::new(),
            scratch_epoch: 0,
            cached_epoch: None,
        }
    }

    /// Output spatial size for a given input size.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.out_size(h, w)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.spec.out_channels
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// The weight tensor, shape `(C_out, C_in·k·k)` (read-only view for
    /// serialization and quantization).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias tensor, shape `(C_out)`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "Conv2d expects NCHW input");
        assert_eq!(x.shape()[1], self.spec.in_channels, "Conv2d channel mismatch");
        let y = Blocked.conv2d_forward(
            x,
            &self.weight.value,
            self.bias.value.data(),
            &self.spec,
            &mut self.scratch,
        );
        self.scratch_epoch += 1;
        if train {
            self.cached_input = Some(x.clone());
            self.cached_epoch = Some(self.scratch_epoch);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Conv2d::backward before forward(train)");
        // If no forward ran since the training forward (the common
        // train-step sequence), the scratch buffer still holds this
        // input's im2col lowering and the kernel may skip recomputing it.
        let cols_valid = self.cached_epoch == Some(self.scratch_epoch);
        let grads = Blocked.conv2d_backward(
            &x,
            &self.weight.value,
            grad_out,
            &self.spec,
            &mut self.scratch,
            cols_valid,
        );
        self.cached_input = Some(x);
        self.weight.grad.add_assign(&grads.dw);
        self.bias.grad.add_assign(&grads.db);
        grads.dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn as_conv2d(&self) -> Option<&Conv2d> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::gradcheck;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = Rng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        // Dirac kernel.
        let mut w = Tensor::zeros(&[1, 9]);
        w.data_mut()[4] = 1.0;
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::randn(&[1, 1, 5, 5], 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn output_shape_stride_two() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[3, 2, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[3, 4, 4, 4]);
    }

    #[test]
    fn bias_applied_everywhere() {
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::zeros(&[2, 1]);
        conv.bias.value = Tensor::from_vec(&[2], vec![1.5, -2.0]);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y = conv.forward(&x, false);
        for i in 0..4 {
            assert_eq!(y.data()[i], 1.5);
            assert_eq!(y.data()[4 + i], -2.0);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::new(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        gradcheck(&mut conv, &x, 1e-2, 3e-2);
    }

    #[test]
    fn gradients_match_finite_differences_strided() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 1, 5, 5], 1.0, &mut rng);
        gradcheck(&mut conv, &x, 1e-2, 3e-2);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let mut rng = Rng::new(5);
        let mut conv = Conv2d::new(3, 2, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let _ = conv.forward(&x, false);
    }

    #[test]
    fn scratch_reused_across_eval_calls() {
        let mut rng = Rng::new(6);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let _ = conv.forward(&x, false);
        let cap = conv.scratch.capacity();
        assert!(cap > 0);
        for _ in 0..3 {
            let _ = conv.forward(&x, false);
        }
        // Steady-state eval must not regrow the lowering buffer.
        assert_eq!(conv.scratch.capacity(), cap);
    }

    #[test]
    fn train_step_reuses_forward_lowering() {
        // backward immediately after forward(train) must take the
        // cols_valid fast path and still produce the true gradient (the
        // gradcheck above covers correctness; this guards the epoch
        // bookkeeping against regressions that would silently recompute).
        let mut rng = Rng::new(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(conv.cached_epoch, Some(conv.scratch_epoch));
        let _ = conv.backward(&y);
        // An eval forward invalidates the cached lowering for a later
        // backward.
        let y2 = conv.forward(&x, true);
        let _ = conv.forward(&x, false);
        assert_ne!(conv.cached_epoch, Some(conv.scratch_epoch));
        let _ = conv.backward(&y2); // falls back to recompute, still runs
    }
}
