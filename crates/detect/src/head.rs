//! RPN-style dense detection head.

use crate::anchors::{assign_targets, CellGrid};
use crate::bbox::Detection;
use crate::nms::NmsScratch;
use ecofusion_scene::GtBox;
use ecofusion_tensor::layer::{Conv2d, Layer};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Loss components of one detection forward pass (objectness BCE + class
/// cross-entropy + smooth-L1 box regression, the Faster R-CNN loss
/// structure from Ren et al. that the paper trains with).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionLoss {
    /// Objectness binary cross-entropy over all cells.
    pub objectness: f32,
    /// Classification cross-entropy over positive cells.
    pub class: f32,
    /// Smooth-L1 box regression over positive cells.
    pub bbox: f32,
}

impl DetectionLoss {
    /// Combined scalar loss: `obj + cls + 2·box`.
    pub fn total(&self) -> f32 {
        self.objectness + self.class + 2.0 * self.bbox
    }

    /// A zero loss (used for reductions).
    pub fn zero() -> Self {
        DetectionLoss { objectness: 0.0, class: 0.0, bbox: 0.0 }
    }
}

/// The buffers of [`DenseHead::decode_sample_into`]: a frame's candidate
/// boxes and their suppression.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    candidates: Vec<Detection>,
    nms: NmsScratch,
}

/// Raw head output: a `(1, 5 + K, S, S)` map. Channel 0 holds objectness
/// logits, channels `1..=K` class logits, channels `K+1..K+5` box
/// regression parameters.
#[derive(Debug, Clone, Default)]
pub struct HeadOutput {
    /// The raw output map.
    pub map: Tensor,
}

/// Single-stage dense detection head: a 1×1 convolution over the backbone
/// feature map producing per-cell objectness, class scores, and box
/// regression — the RPN and the box head of Faster R-CNN collapsed into one
/// stage (see crate docs for the substitution rationale).
#[derive(Debug)]
pub struct DenseHead {
    conv: Conv2d,
    grid: CellGrid,
    num_classes: usize,
    /// BCE weight applied to positive cells to counter class imbalance.
    pos_weight: f32,
}

impl DenseHead {
    /// Creates a head over `in_channels` feature channels for
    /// `num_classes` classes on the given cell grid.
    pub fn new(in_channels: usize, num_classes: usize, grid: CellGrid, rng: &mut Rng) -> Self {
        let out = 5 + num_classes;
        DenseHead {
            conv: Conv2d::new(in_channels, out, 1, 1, 0, rng),
            grid,
            num_classes,
            pos_weight: 4.0,
        }
    }

    /// The cell grid this head detects on.
    pub fn grid(&self) -> CellGrid {
        self.grid
    }

    /// Number of object classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The 1×1 head convolution (read-only view for the graph compiler).
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Quantizes the 1×1 head convolution, calibrating the activation
    /// scale as the max-abs over `calib` (backbone output features).
    pub fn quantize(&self, calib: &[Tensor]) -> ecofusion_tensor::quant::QuantConv2d {
        let mut max_abs = 0.0f32;
        for a in calib {
            max_abs = max_abs.max(a.data().iter().fold(0.0f32, |m, v| m.max(v.abs())));
        }
        let scale = if max_abs > 0.0 { max_abs / ecofusion_tensor::quant::QMAX } else { 1.0 };
        ecofusion_tensor::quant::QuantConv2d::from_conv(&self.conv, scale)
    }

    /// Runs the head over backbone features of shape `(1, C, S, S)`.
    ///
    /// # Panics
    /// Panics if the spatial size does not match the cell grid.
    pub fn forward(&mut self, features: &Tensor, train: bool) -> HeadOutput {
        assert_eq!(features.shape()[2], self.grid.cells, "feature map does not match cell grid");
        assert_eq!(features.shape()[3], self.grid.cells, "feature map does not match cell grid");
        HeadOutput { map: self.conv.forward(features, train) }
    }

    /// Backpropagates a gradient w.r.t. the output map, returning the
    /// gradient w.r.t. the input features.
    pub fn backward(&mut self, grad_map: &Tensor) -> Tensor {
        self.conv.backward(grad_map)
    }

    /// Decodes detections above `score_thresh`, applying per-class NMS at
    /// `nms_iou`. Equivalent to [`DenseHead::decode_sample`] on sample 0.
    pub fn decode(&self, out: &HeadOutput, score_thresh: f32, nms_iou: f32) -> Vec<Detection> {
        self.decode_sample(out, 0, score_thresh, nms_iou)
    }

    /// Decodes one sample of a (possibly batched) head output.
    ///
    /// # Panics
    /// Panics if `sample` is outside the output's batch dimension or the
    /// map is not `(N, 5 + K, S, S)` for this head.
    pub fn decode_sample(
        &self,
        out: &HeadOutput,
        sample: usize,
        score_thresh: f32,
        nms_iou: f32,
    ) -> Vec<Detection> {
        let mut dets = Vec::new();
        let scratch = &mut DecodeScratch::default();
        self.decode_sample_into(out, sample, score_thresh, nms_iou, scratch, &mut dets);
        dets
    }

    /// [`DenseHead::decode_sample`] into `dets` (cleared first), out of
    /// `scratch`'s buffers: once they and `dets` have grown to a frame's
    /// candidates, decoding allocates nothing.
    ///
    /// # Panics
    /// As [`DenseHead::decode_sample`].
    pub fn decode_sample_into(
        &self,
        out: &HeadOutput,
        sample: usize,
        score_thresh: f32,
        nms_iou: f32,
        scratch: &mut DecodeScratch,
        dets: &mut Vec<Detection>,
    ) {
        let s = self.grid.cells;
        let k = self.num_classes;
        let shape = out.map.shape();
        assert!(sample < shape[0], "decode_sample batch index out of range");
        assert_eq!(&shape[1..], [5 + k, s, s], "head map does not match the head");
        let raster = self.grid.stride * s as f32;
        // The sample's channel planes, sliced once: objectness, the `k`
        // class planes, the four box planes.
        let cells = s * s;
        let planes = &out.map.data()[sample * (5 + k) * cells..(sample + 1) * (5 + k) * cells];
        let (objectness, planes) = planes.split_at(cells);
        let (classes, boxes) = planes.split_at(k * cells);
        // Every cell may be a candidate.
        let candidates = &mut scratch.candidates;
        candidates.clear();
        for (cell, &logit) in objectness.iter().enumerate() {
            let obj = sigmoid(logit);
            // A NaN objectness (non-finite weights or input) goes with
            // the low scores.
            if obj < score_thresh || obj.is_nan() {
                continue;
            }
            // Class softmax.
            let mut best_c = 0;
            let mut best_l = f32::NEG_INFINITY;
            let mut denom = 0.0;
            let mut max_l = f32::NEG_INFINITY;
            for plane in classes.chunks_exact(cells) {
                max_l = max_l.max(plane[cell]);
            }
            for (c, plane) in classes.chunks_exact(cells).enumerate() {
                let l = plane[cell];
                denom += (l - max_l).exp();
                if l > best_l {
                    best_l = l;
                    best_c = c;
                }
            }
            let class_prob = (best_l - max_l).exp() / denom.max(1e-12);
            // A softmax probability is at most 1; NaN, or the floor
            // under a NaN `denom`, means non-finite class logits.
            if class_prob > 1.0 || class_prob.is_nan() {
                continue;
            }
            let t: [f32; 4] = std::array::from_fn(|b| boxes[b * cells + cell]);
            let bbox = self.grid.decode(cell / s, cell % s, t).clamped(raster);
            candidates.push(Detection::new(bbox, best_c, obj * class_prob));
        }
        scratch.nms.nms_into(candidates, nms_iou, dets);
    }

    /// Computes the detection loss of `out` against ground truth and the
    /// gradient w.r.t. the output map.
    pub fn loss(&self, out: &HeadOutput, gts: &[GtBox]) -> (DetectionLoss, Tensor) {
        let s = self.grid.cells;
        let k = self.num_classes;
        let targets = assign_targets(&self.grid, gts);
        let n_cells = (s * s) as f32;
        let mut grad = Tensor::zeros(out.map.shape());
        let mut l_obj = 0.0f64;
        let mut l_cls = 0.0f64;
        let mut l_box = 0.0f64;
        let n_pos = targets.iter().filter(|t| t.is_some()).count().max(1) as f32;
        for row in 0..s {
            for col in 0..s {
                let target = &targets[row * s + col];
                let x = out.map.get4(0, 0, row, col);
                let (t_obj, w) = match target {
                    Some(_) => (1.0f32, self.pos_weight),
                    None => (0.0f32, 1.0),
                };
                // Stable BCE with logits.
                let bce = x.max(0.0) - x * t_obj + (1.0 + (-x.abs()).exp()).ln();
                l_obj += (w * bce / n_cells) as f64;
                grad.set4(0, 0, row, col, w * (sigmoid(x) - t_obj) / n_cells);
                if let Some(t) = target {
                    // Class cross-entropy at this positive cell.
                    let mut max_l = f32::NEG_INFINITY;
                    for c in 0..k {
                        max_l = max_l.max(out.map.get4(0, 1 + c, row, col));
                    }
                    let mut denom = 0.0;
                    for c in 0..k {
                        denom += (out.map.get4(0, 1 + c, row, col) - max_l).exp();
                    }
                    for c in 0..k {
                        let p = (out.map.get4(0, 1 + c, row, col) - max_l).exp() / denom.max(1e-12);
                        let y = if c == t.class_id { 1.0 } else { 0.0 };
                        grad.set4(0, 1 + c, row, col, (p - y) / n_pos);
                        if c == t.class_id {
                            l_cls += (-(p.max(1e-12)).ln() / n_pos) as f64;
                        }
                    }
                    // Smooth-L1 on the four box params; factor 2 from the
                    // combined loss is applied to the gradient here.
                    for (bi, &tt) in t.t.iter().enumerate() {
                        let pred = out.map.get4(0, 1 + k + bi, row, col);
                        let d = pred - tt;
                        let (l, g) = if d.abs() < 1.0 {
                            (0.5 * d * d, d)
                        } else {
                            (d.abs() - 0.5, d.signum())
                        };
                        l_box += (l / (4.0 * n_pos)) as f64;
                        grad.set4(0, 1 + k + bi, row, col, 2.0 * g / (4.0 * n_pos));
                    }
                }
            }
        }
        (DetectionLoss { objectness: l_obj as f32, class: l_cls as f32, bbox: l_box as f32 }, grad)
    }
}

impl Layer for DenseHead {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        DenseHead::forward(self, x, train).map
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        DenseHead::backward(self, grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ecofusion_tensor::param::Param)) {
        self.conv.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.conv.visit_buffers(f);
    }

    fn name(&self) -> &'static str {
        "DenseHead"
    }
}

fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(cells: usize) -> DenseHead {
        let mut rng = Rng::new(1);
        DenseHead::new(16, 3, CellGrid::new(cells * 8, cells), &mut rng)
    }

    fn features(cells: usize) -> Tensor {
        let mut rng = Rng::new(2);
        Tensor::randn(&[1, 16, cells, cells], 1.0, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let mut h = head(4);
        let out = h.forward(&features(4), false);
        assert_eq!(out.map.shape(), &[1, 5 + 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "cell grid")]
    fn wrong_spatial_size_panics() {
        let mut h = head(4);
        let _ = h.forward(&features(8), false);
    }

    #[test]
    fn decode_empty_when_objectness_low() {
        let h = head(4);
        let mut map = Tensor::zeros(&[1, 8, 4, 4]);
        // Objectness logit very negative everywhere.
        for row in 0..4 {
            for col in 0..4 {
                map.set4(0, 0, row, col, -20.0);
            }
        }
        let dets = h.decode(&HeadOutput { map }, 0.3, 0.5);
        assert!(dets.is_empty());
    }

    /// Non-finite logits (a snapshot with broken weights) decode to no
    /// detection at their cell instead of a NaN-scored one; finite cells
    /// are unaffected.
    #[test]
    fn decode_drops_non_finite_logits() {
        let h = head(4);
        let mut map = Tensor::full(&[1, 8, 4, 4], -10.0);
        let confident = |map: &mut Tensor, row, col| {
            map.set4(0, 0, row, col, 8.0);
            map.set4(0, 2, row, col, 6.0);
        };
        // Objectness NaN, +inf with a NaN class logit, +inf with an
        // infinite class logit, -inf.
        map.set4(0, 0, 0, 0, f32::NAN);
        confident(&mut map, 0, 1);
        map.set4(0, 0, 0, 1, f32::INFINITY);
        map.set4(0, 1, 0, 1, f32::NAN);
        confident(&mut map, 0, 2);
        map.set4(0, 2, 0, 2, f32::INFINITY);
        map.set4(0, 0, 0, 3, f32::NEG_INFINITY);
        // And one healthy cell.
        confident(&mut map, 2, 2);
        let dets = h.decode(&HeadOutput { map }, 0.3, 0.5);
        assert_eq!(dets.len(), 1, "{dets:?}");
        assert!(dets[0].score.is_finite() && dets[0].score > 0.9);
    }

    #[test]
    fn decode_finds_planted_object() {
        let h = head(4);
        let mut map = Tensor::full(&[1, 8, 4, 4], -10.0);
        // Plant one confident detection at cell (1, 2), class 1.
        map.set4(0, 0, 1, 2, 8.0); // objectness
        map.set4(0, 2, 1, 2, 6.0); // class-1 logit
        for bi in 0..4 {
            map.set4(0, 4 + bi, 1, 2, 0.0);
        }
        let dets = h.decode(&HeadOutput { map }, 0.3, 0.5);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].class_id, 1);
        assert!(dets[0].score > 0.9);
        let (cx, cy) = dets[0].bbox.center();
        assert!((cx - 20.0).abs() < 1e-3 && (cy - 12.0).abs() < 1e-3);
    }

    #[test]
    fn loss_decreases_with_training_signal() {
        // One GT box; verify a few SGD steps on the head reduce loss.
        let mut h = head(4);
        let x = features(4);
        let gts = vec![GtBox { class_id: 2, x1: 8.0, y1: 8.0, x2: 24.0, y2: 24.0 }];
        let mut first = None;
        let mut last = 0.0;
        let mut opt = ecofusion_tensor::optim::Sgd::new(0.1, 0.9, 0.0);
        for _ in 0..30 {
            let out = DenseHead::forward(&mut h, &x, true);
            let (l, grad) = h.loss(&out, &gts);
            Layer::zero_grad(&mut h);
            DenseHead::backward(&mut h, &grad);
            ecofusion_tensor::optim::Optimizer::step(&mut opt, &mut h);
            if first.is_none() {
                first = Some(l.total());
            }
            last = l.total();
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} -> {last}");
    }

    #[test]
    fn trained_head_detects_the_target() {
        let mut h = head(4);
        let x = features(4);
        let gts = vec![GtBox { class_id: 0, x1: 8.0, y1: 8.0, x2: 24.0, y2: 24.0 }];
        let mut opt = ecofusion_tensor::optim::Sgd::new(0.1, 0.9, 0.0);
        for _ in 0..200 {
            let out = DenseHead::forward(&mut h, &x, true);
            let (_, grad) = h.loss(&out, &gts);
            Layer::zero_grad(&mut h);
            DenseHead::backward(&mut h, &grad);
            ecofusion_tensor::optim::Optimizer::step(&mut opt, &mut h);
        }
        let out = DenseHead::forward(&mut h, &x, false);
        let dets = h.decode(&out, 0.5, 0.5);
        assert_eq!(dets.len(), 1, "should find exactly the target");
        let gt: crate::bbox::BBox = gts[0].into();
        assert!(dets[0].bbox.iou(&gt) > 0.7, "IoU {}", dets[0].bbox.iou(&gt));
        assert_eq!(dets[0].class_id, 0);
    }

    #[test]
    fn loss_gradient_matches_finite_differences() {
        let h = head(2);
        let mut rng = Rng::new(5);
        let mut map = Tensor::randn(&[1, 8, 2, 2], 0.5, &mut rng);
        let gts = vec![GtBox { class_id: 1, x1: 2.0, y1: 2.0, x2: 10.0, y2: 10.0 }];
        let (_, grad) = h.loss(&HeadOutput { map: map.clone() }, &gts);
        let eps = 1e-3;
        for i in 0..map.len() {
            let orig = map.data()[i];
            map.data_mut()[i] = orig + eps;
            let (lp, _) = h.loss(&HeadOutput { map: map.clone() }, &gts);
            map.data_mut()[i] = orig - eps;
            let (lm, _) = h.loss(&HeadOutput { map: map.clone() }, &gts);
            map.data_mut()[i] = orig;
            // total = obj + cls + 2*box and grad already folds the 2x.
            let num = (lp.total() - lm.total()) / (2.0 * eps);
            let ana = grad.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "grad mismatch at {i}: numeric {num}, analytic {ana}"
            );
        }
    }

    #[test]
    fn empty_gt_only_objectness_loss() {
        let h = head(4);
        let mut rng = Rng::new(6);
        let map = Tensor::randn(&[1, 8, 4, 4], 0.5, &mut rng);
        let (l, _) = h.loss(&HeadOutput { map }, &[]);
        assert_eq!(l.class, 0.0);
        assert_eq!(l.bbox, 0.0);
        assert!(l.objectness > 0.0);
    }
}
