//! Per-modality stem models (§4.1).

use ecofusion_tensor::layer::{BatchNorm2d, Conv2d, Layer, MaxPool2d, ReLU, Sequential};
use ecofusion_tensor::param::Param;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

/// Feature channels produced by every stem. Early-fusion branches see
/// `STEM_CHANNELS × m` input channels for `m` fused sensors.
pub const STEM_CHANNELS: usize = 8;

/// The first convolution block of the detector, split off as the
/// per-modality stem exactly as the paper splits ResNet-18 after its first
/// convolution block (§4.3): `Conv3×3 → BatchNorm → ReLU → MaxPool2`.
///
/// One stem per sensor runs on *every* frame (the gate needs all stem
/// features to identify the context), which is why the energy model charges
/// all four stems to every adaptive configuration.
///
/// Every layer in the stem is batch-aware: `forward` accepts `(N, C, g,
/// g)` and processes all `N` frames in one convolution lowering, which is
/// what `EcoFusionModel::infer_batch` uses to amortize stem compute across
/// frames (in eval mode, batched output equals the stacked per-frame
/// outputs exactly).
#[derive(Debug)]
pub struct Stem {
    net: Sequential,
    in_channels: usize,
}

impl Stem {
    /// Creates a stem for a sensor with `in_channels` input channels.
    pub fn new(in_channels: usize, rng: &mut Rng) -> Self {
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(in_channels, STEM_CHANNELS, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(STEM_CHANNELS)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
        ]);
        Stem { net, in_channels }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output spatial size for a square input of side `g`.
    pub fn out_size(g: usize) -> usize {
        g / 2
    }

    /// Post-training int8 quantization of the stem: per-channel symmetric
    /// weights, activation scales calibrated over `calib` (raw sensor
    /// rasters, NCHW). Returns the final f32 activations of each
    /// calibration input alongside the pipe so downstream branches can
    /// calibrate on stem outputs.
    pub fn quantize(
        &self,
        calib: &[Tensor],
    ) -> Result<(ecofusion_tensor::quant::QuantPipe, Vec<Tensor>), ecofusion_tensor::QuantizeError>
    {
        ecofusion_tensor::quant::quantize_sequential(&self.net, calib)
    }

    /// Lowers the stem into a fused
    /// [`CompiledPlan`](ecofusion_tensor::graph::CompiledPlan) for inputs
    /// shaped like `in_shape` (the batch extent is ignored — a plan runs
    /// any batch): the Conv+BN+ReLU block becomes one direct convolution with
    /// a fused epilogue, bit-identical to the eager eval forward.
    ///
    /// # Errors
    /// Propagates the graph compiler's error (never fires for the stem's
    /// fixed architecture unless the shape does not feed it).
    pub fn compile(
        &self,
        in_shape: &[usize],
    ) -> Result<ecofusion_tensor::graph::CompiledPlan, ecofusion_tensor::graph::CompileError> {
        ecofusion_tensor::graph::compile_sequential(&self.net, in_shape)
    }

    /// Structural plan-cache fingerprint of the stem, salted per unit.
    pub fn plan_fingerprint(&self, salt: u64) -> u64 {
        ecofusion_tensor::graph::fingerprint_sequential(&self.net, salt)
    }
}

impl Layer for Stem {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.net.forward(x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.net.backward(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.net.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "Stem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_resolution_and_sets_channels() {
        let mut rng = Rng::new(1);
        let mut stem = Stem::new(1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 64, 64]);
        let y = stem.forward(&x, false);
        assert_eq!(y.shape(), &[1, STEM_CHANNELS, 32, 32]);
        assert_eq!(Stem::out_size(64), 32);
    }

    #[test]
    fn trainable_params_exist() {
        let mut rng = Rng::new(2);
        let mut stem = Stem::new(1, &mut rng);
        assert!(stem.param_count() > 0);
        assert_eq!(stem.in_channels(), 1);
    }

    #[test]
    fn backward_shape_matches_input() {
        let mut rng = Rng::new(3);
        let mut stem = Stem::new(1, &mut rng);
        let x = Tensor::randn(&[1, 1, 16, 16], 1.0, &mut rng);
        let y = stem.forward(&x, true);
        let dx = stem.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn batched_eval_forward_matches_per_sample() {
        let mut rng = Rng::new(4);
        let mut stem = Stem::new(1, &mut rng);
        let batch = Tensor::randn(&[3, 1, 16, 16], 1.0, &mut rng);
        let batched = stem.forward(&batch, false);
        for i in 0..3 {
            let single = stem.forward(&batch.select_batch(i), false);
            assert_eq!(batched.select_batch(i), single, "sample {i}");
        }
    }
}
