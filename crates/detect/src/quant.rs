//! Int8 counterparts of the detection branches.
//!
//! A [`QuantBranch`] is the post-training-quantized image of a trained
//! [`crate::BranchDetector`]: the backbone becomes a
//! [`QuantPipe`] (int8 convolutions, folded batch-norm) and the 1×1 head
//! convolution becomes a [`QuantConv2d`]. The output is the same raw
//! `HeadOutput` map in f32, so the float head's decoder (sigmoid +
//! softmax + NMS) runs unchanged on quantized maps — quantization stops
//! at the compute-bound layers.

use crate::head::HeadOutput;
use ecofusion_tensor::quant::{QuantConv2d, QuantPipe};
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// An int8-quantized branch detector: backbone pipe + head convolution.
///
/// Built by [`crate::BranchDetector::quantize`]; immutable and cheap to
/// clone across shard replicas (the weights are `Vec<i8>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantBranch {
    /// Quantized backbone blocks.
    pub backbone: QuantPipe,
    /// Quantized 1×1 detection-head convolution.
    pub head: QuantConv2d,
}

impl QuantBranch {
    /// Runs the quantized backbone + head over stem features of shape
    /// `(N, 8·m, S, S)`, stage by stage, producing the same map layout as
    /// the f32 branch. Inference runs [`QuantBranch::compile`]'s plan;
    /// this is the oracle the tests hold that plan to.
    ///
    /// # Panics
    /// Panics if the feature channel count does not match the backbone's
    /// first convolution.
    pub fn forward(&self, stem_features: &Tensor) -> HeadOutput {
        let feats = self.backbone.forward(stem_features);
        HeadOutput { map: self.head.forward(&feats) }
    }

    /// Lowers the quantized branch (int8 backbone + int8 1×1 head) into
    /// a fused [`ecofusion_tensor::graph::CompiledPlan`]: each
    /// Conv+Affine+ReLU run becomes one int8 GEMM with the dequant +
    /// folded-BN + ReLU epilogue applied straight to the i32
    /// accumulators, bit-identical to this eager forward.
    ///
    /// # Errors
    /// Propagates the graph compiler's error.
    pub fn compile(
        &self,
        in_shape: &[usize],
    ) -> Result<ecofusion_tensor::graph::CompiledPlan, ecofusion_tensor::graph::CompileError> {
        let mut b = ecofusion_tensor::graph::PlanBuilder::new(in_shape);
        b.push_quant_pipe(&self.backbone)?;
        b.push_quant_conv(&self.head, None, false)?;
        Ok(b.finish())
    }

    /// Structural plan-cache fingerprint of the quantized branch, salted
    /// per unit.
    pub fn plan_fingerprint(&self, salt: u64) -> u64 {
        let base = ecofusion_tensor::graph::fingerprint_quant_pipe(&self.backbone, salt);
        crate::branch::mix_conv_spec(base, self.head.spec)
    }
}

#[cfg(test)]
mod tests {
    use crate::branch::{BranchConfig, BranchDetector};
    use crate::stem::{Stem, STEM_CHANNELS};
    use ecofusion_tensor::layer::Layer;
    use ecofusion_tensor::rng::Rng;
    use ecofusion_tensor::tensor::Tensor;

    #[test]
    fn quantized_branch_map_tracks_f32() {
        let mut rng = Rng::new(21);
        let cfg = BranchConfig { num_sensors: 1, num_classes: 3, raster: 32 };
        let mut branch = BranchDetector::new(cfg, &mut rng);
        // Settle batch-norm running stats so eval mode is nontrivial.
        let warm = Tensor::randn(&[4, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = branch.forward(&warm, true);
        }
        let calib: Vec<Tensor> =
            (0..4).map(|_| Tensor::randn(&[1, STEM_CHANNELS, 16, 16], 1.0, &mut rng)).collect();
        let qbranch = branch.quantize(&calib).expect("branch quantizes");
        let x = Tensor::randn(&[2, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let out_f32 = branch.forward(&x, false);
        let out_q = qbranch.forward(&x);
        assert_eq!(out_q.map.shape(), out_f32.map.shape());
        let max_abs = out_f32.map.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in out_q.map.data().iter().zip(out_f32.map.data()) {
            // Four quantized convolutions deep; stay within ~15% of the
            // map's dynamic range per logit.
            assert!((a - b).abs() <= 0.15 * max_abs + 5e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_stem_tracks_f32() {
        let mut rng = Rng::new(22);
        let mut stem = Stem::new(2, &mut rng);
        let warm = Tensor::randn(&[4, 2, 16, 16], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = stem.forward(&warm, true);
        }
        let calib: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[1, 2, 16, 16], 1.0, &mut rng)).collect();
        let (pipe, _) = stem.quantize(&calib).expect("stem quantizes");
        let x = Tensor::randn(&[1, 2, 16, 16], 1.0, &mut rng);
        let y_f32 = stem.forward(&x, false);
        let y_q = pipe.forward(&x);
        assert_eq!(y_q.shape(), y_f32.shape());
        let max_abs = y_f32.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in y_q.data().iter().zip(y_f32.data()) {
            assert!((a - b).abs() <= 0.08 * max_abs + 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn compiled_branch_is_bit_identical_to_eager() {
        let mut rng = Rng::new(24);
        let cfg = BranchConfig { num_sensors: 1, num_classes: 3, raster: 32 };
        let mut branch = BranchDetector::new(cfg, &mut rng);
        let warm = Tensor::randn(&[4, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = branch.forward(&warm, true);
        }
        let x = Tensor::randn(&[2, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let eager = branch.forward(&x, false);
        let mut plan = branch.compile(x.shape()).expect("branch compiles");
        let compiled = plan.execute(&x);
        assert_eq!(compiled.shape(), eager.map.shape());
        for (a, b) in compiled.data().iter().zip(eager.map.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn compiled_quant_branch_is_bit_identical_to_eager() {
        let mut rng = Rng::new(25);
        let cfg = BranchConfig { num_sensors: 1, num_classes: 3, raster: 32 };
        let mut branch = BranchDetector::new(cfg, &mut rng);
        let warm = Tensor::randn(&[4, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = branch.forward(&warm, true);
        }
        let calib: Vec<Tensor> =
            (0..4).map(|_| Tensor::randn(&[1, STEM_CHANNELS, 16, 16], 1.0, &mut rng)).collect();
        let qbranch = branch.quantize(&calib).expect("branch quantizes");
        let x = Tensor::randn(&[2, STEM_CHANNELS, 16, 16], 1.0, &mut rng);
        let eager = qbranch.forward(&x);
        let mut plan = qbranch.compile(x.shape()).expect("quant branch compiles");
        let compiled = plan.execute(&x);
        assert_eq!(compiled.shape(), eager.map.shape());
        for (a, b) in compiled.data().iter().zip(eager.map.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        // Same structure, different salt → different cache keys.
        assert_ne!(qbranch.plan_fingerprint(0), qbranch.plan_fingerprint(1));
        assert_ne!(branch.plan_fingerprint(0), qbranch.plan_fingerprint(0));
    }

    #[test]
    fn compiled_stem_is_bit_identical_to_eager() {
        let mut rng = Rng::new(26);
        let mut stem = Stem::new(2, &mut rng);
        let warm = Tensor::randn(&[4, 2, 16, 16], 1.0, &mut rng);
        for _ in 0..5 {
            let _ = stem.forward(&warm, true);
        }
        let x = Tensor::randn(&[3, 2, 16, 16], 1.0, &mut rng);
        let eager = stem.forward(&x, false);
        let mut plan = stem.compile(x.shape()).expect("stem compiles");
        let compiled = plan.execute(&x);
        assert_eq!(compiled.shape(), eager.shape());
        for (a, b) in compiled.data().iter().zip(eager.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_ne!(stem.plan_fingerprint(0), stem.plan_fingerprint(1));
    }

    #[test]
    fn quant_branch_serde_roundtrip() {
        let mut rng = Rng::new(23);
        let cfg = BranchConfig { num_sensors: 1, num_classes: 2, raster: 16 };
        let branch = BranchDetector::new(cfg, &mut rng);
        let calib = vec![Tensor::randn(&[1, STEM_CHANNELS, 8, 8], 1.0, &mut rng)];
        let qbranch = branch.quantize(&calib).expect("branch quantizes");
        let json = serde_json::to_string(&qbranch).expect("serialize");
        let back: super::QuantBranch = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, qbranch);
        let x = Tensor::randn(&[1, STEM_CHANNELS, 8, 8], 1.0, &mut rng);
        assert_eq!(qbranch.forward(&x).map, back.forward(&x).map);
    }
}
