//! Branch detectors (§4.3): backbone blocks + dense head.

use crate::anchors::CellGrid;
use crate::bbox::Detection;
use crate::head::{DecodeScratch, DenseHead, DetectionLoss, HeadOutput};
use crate::stem::STEM_CHANNELS;
use ecofusion_scene::GtBox;
use ecofusion_tensor::layer::{BatchNorm2d, Conv2d, Layer, ReLU, Sequential};
use ecofusion_tensor::param::Param;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Configuration of a [`BranchDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchConfig {
    /// Number of sensors whose stem features this branch consumes
    /// (1 = single-sensor branch, >1 = early-fusion branch).
    pub num_sensors: usize,
    /// Object classes to detect.
    pub num_classes: usize,
    /// Side length of the raw sensor raster (stem input).
    pub raster: usize,
}

impl BranchConfig {
    /// Input channel count: stems concatenate along channels.
    pub fn in_channels(&self) -> usize {
        STEM_CHANNELS * self.num_sensors
    }

    /// Detection cells per side (`raster / 4`: one stem pool + one strided
    /// convolution). Finer than classic stride-8 RPN grids because the
    /// simulator's rasters are small (32–64 px) and city scenes hold up to
    /// a dozen objects — a 4-px cell keeps one object per cell.
    pub fn cells(&self) -> usize {
        self.raster / 4
    }
}

/// One detector branch: the remaining three convolution blocks of the
/// split ResNet plus the dense detection head. A branch consumes the stem
/// features of one sensor (no fusion) or the channel-concatenated stem
/// features of several sensors (early fusion, Eq. 3).
#[derive(Debug)]
pub struct BranchDetector {
    backbone: Sequential,
    head: DenseHead,
    config: BranchConfig,
}

impl BranchDetector {
    /// Creates a branch for the given configuration.
    ///
    /// # Panics
    /// Panics if the raster is not divisible by 8 or `num_sensors == 0`.
    pub fn new(config: BranchConfig, rng: &mut Rng) -> Self {
        assert!(config.num_sensors > 0, "branch needs at least one sensor");
        assert!(
            config.raster.is_multiple_of(8) && config.raster >= 16,
            "raster must be a multiple of 8"
        );
        let c_in = config.in_channels();
        let backbone = Sequential::new(vec![
            // Block 2: downsample to the detection stride.
            Box::new(Conv2d::new(c_in, 16, 3, 2, 1, rng)),
            Box::new(BatchNorm2d::new(16)),
            Box::new(ReLU::new()),
            // Block 3: refine.
            Box::new(Conv2d::new(16, 32, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(32)),
            Box::new(ReLU::new()),
            // Block 4: refine.
            Box::new(Conv2d::new(32, 32, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(32)),
            Box::new(ReLU::new()),
        ]);
        let grid = CellGrid::new(config.raster, config.cells());
        let head = DenseHead::new(32, config.num_classes, grid, rng);
        BranchDetector { backbone, head, config }
    }

    /// The branch configuration.
    pub fn config(&self) -> BranchConfig {
        self.config
    }

    /// Post-training int8 quantization: the backbone becomes a
    /// [`ecofusion_tensor::quant::QuantPipe`] and the head convolution a
    /// quantized 1×1, with activation scales calibrated by propagating
    /// `calib` (stem-feature tensors, NCHW) through the f32 network.
    /// Decoding stays on the f32 head — the quantized branch returns the
    /// same raw map layout.
    pub fn quantize(
        &self,
        calib: &[Tensor],
    ) -> Result<crate::quant::QuantBranch, ecofusion_tensor::QuantizeError> {
        let (backbone, feats) =
            ecofusion_tensor::quant::quantize_sequential(&self.backbone, calib)?;
        let head = self.head.quantize(&feats);
        Ok(crate::quant::QuantBranch { backbone, head })
    }

    /// Lowers the branch (backbone blocks + 1×1 head convolution) into a
    /// fused [`CompiledPlan`](ecofusion_tensor::graph::CompiledPlan) for
    /// stem features shaped like `in_shape` (the batch extent is ignored —
    /// a plan runs any batch): each Conv+BN+ReLU block becomes one direct
    /// convolution with a fused epilogue, bit-identical to the eager eval
    /// forward. The plan's output is the raw head map (construct a
    /// [`HeadOutput`] around it and decode with
    /// [`BranchDetector::decode_sample`]).
    ///
    /// # Errors
    /// Propagates the graph compiler's error.
    pub fn compile(
        &self,
        in_shape: &[usize],
    ) -> Result<ecofusion_tensor::graph::CompiledPlan, ecofusion_tensor::graph::CompileError> {
        let mut b = ecofusion_tensor::graph::PlanBuilder::new(in_shape);
        b.push_sequential(&self.backbone)?;
        b.push_conv(self.head.conv(), None, false)?;
        Ok(b.finish())
    }

    /// Structural plan-cache fingerprint of the branch (backbone + head
    /// geometry), salted per unit.
    pub fn plan_fingerprint(&self, salt: u64) -> u64 {
        let base = ecofusion_tensor::graph::fingerprint_sequential(&self.backbone, salt);
        mix_conv_spec(base, self.head.conv().spec())
    }

    /// Runs the backbone + head over stem features of shape
    /// `(N, 8·m, raster/2, raster/2)`. Every layer is batch-aware, so one
    /// call amortizes the backbone GEMMs across all `N` frames.
    pub fn forward(&mut self, stem_features: &Tensor, train: bool) -> HeadOutput {
        assert_eq!(
            stem_features.shape()[1],
            self.config.in_channels(),
            "stem feature channels do not match branch"
        );
        let feats = self.backbone.forward(stem_features, train);
        self.head.forward(&feats, train)
    }

    /// Decodes one sample of a batched head output.
    pub fn decode_sample(
        &self,
        out: &HeadOutput,
        sample: usize,
        score_thresh: f32,
        nms_iou: f32,
    ) -> Vec<Detection> {
        self.head.decode_sample(out, sample, score_thresh, nms_iou)
    }

    /// [`BranchDetector::decode_sample`] into `dets`, out of `scratch`
    /// ([`DenseHead::decode_sample_into`]).
    pub fn decode_sample_into(
        &self,
        out: &HeadOutput,
        sample: usize,
        score_thresh: f32,
        nms_iou: f32,
        scratch: &mut DecodeScratch,
        dets: &mut Vec<Detection>,
    ) {
        self.head.decode_sample_into(out, sample, score_thresh, nms_iou, scratch, dets);
    }

    /// Computes the loss of a head output against ground truth.
    pub fn loss(&self, out: &HeadOutput, gts: &[GtBox]) -> (DetectionLoss, Tensor) {
        self.head.loss(out, gts)
    }

    /// One training step: forward, loss, backward. Returns the loss and the
    /// gradient with respect to the stem features (for stem training).
    /// Parameter gradients are accumulated; the caller owns `zero_grad` and
    /// the optimizer step.
    pub fn train_step(&mut self, stem_features: &Tensor, gts: &[GtBox]) -> (DetectionLoss, Tensor) {
        let out = self.forward(stem_features, true);
        let (loss, grad_map) = self.head.loss(&out, gts);
        let grad_feats = self.head.backward(&grad_map);
        let grad_stem = self.backbone.backward(&grad_feats);
        (loss, grad_stem)
    }
}

/// Folds a head convolution's geometry into a backbone fingerprint
/// (FNV-1a step per dimension).
pub(crate) fn mix_conv_spec(base: u64, s: ecofusion_tensor::backend::ConvSpec) -> u64 {
    let mut h = base;
    for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
        h = (h ^ d as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Layer for BranchDetector {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        BranchDetector::forward(self, x, train).map
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head.backward(grad_out);
        self.backbone.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.backbone.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.backbone.visit_buffers(f);
        self.head.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "BranchDetector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BranchConfig {
        BranchConfig { num_sensors: 1, num_classes: 3, raster: 32 }
    }

    #[test]
    fn config_derived_quantities() {
        let c = BranchConfig { num_sensors: 3, num_classes: 8, raster: 64 };
        assert_eq!(c.in_channels(), 24);
        assert_eq!(c.cells(), 16);
    }

    #[test]
    fn forward_output_shape() {
        let mut rng = Rng::new(1);
        let mut b = BranchDetector::new(cfg(), &mut rng);
        // Stem features: raster 32 -> stem out 16x16.
        let x = Tensor::randn(&[1, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let out = b.forward(&x, false);
        assert_eq!(out.map.shape(), &[1, 5 + 3, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "channels do not match")]
    fn wrong_channels_panics() {
        let mut rng = Rng::new(2);
        let mut b = BranchDetector::new(cfg(), &mut rng);
        let x = Tensor::zeros(&[1, 16, 16, 16]);
        let _ = b.forward(&x, false);
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut rng = Rng::new(3);
        let mut b = BranchDetector::new(cfg(), &mut rng);
        let x = Tensor::randn(&[1, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let gts = vec![GtBox { class_id: 1, x1: 8.0, y1: 8.0, x2: 20.0, y2: 20.0 }];
        let mut opt = ecofusion_tensor::optim::Sgd::new(0.05, 0.9, 0.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let (l, _) = b.train_step(&x, &gts);
            ecofusion_tensor::optim::Optimizer::step(&mut opt, &mut b);
            Layer::zero_grad(&mut b);
            if first.is_none() {
                first = Some(l.total());
            }
            last = l.total();
        }
        assert!(last < first.unwrap(), "loss should fall: {first:?} -> {last}");
    }

    #[test]
    fn grad_stem_shape_matches_input() {
        let mut rng = Rng::new(4);
        let mut b = BranchDetector::new(cfg(), &mut rng);
        let x = Tensor::randn(&[1, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let (_, grad) = b.train_step(&x, &[]);
        assert_eq!(grad.shape(), x.shape());
    }

    #[test]
    fn early_fusion_branch_takes_stacked_stems() {
        let mut rng = Rng::new(5);
        let c = BranchConfig { num_sensors: 2, num_classes: 3, raster: 32 };
        let mut b = BranchDetector::new(c, &mut rng);
        let x = Tensor::randn(&[1, STEM_CHANNELS * 2, 16, 16], 1.0, &mut rng);
        let out = b.forward(&x, false);
        assert_eq!(out.map.shape(), &[1, 8, 8, 8]);
    }
}
