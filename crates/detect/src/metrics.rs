//! Fusion-loss metric.
//!
//! The paper scores every configuration by the "fusion loss" `L_f(φ)`: the
//! combined classification (cross-entropy) and regression (smooth L1) loss
//! of the fused detections against ground truth (§3.3, following Ren et
//! al.). The paper does not spell out how unmatched boxes enter the loss;
//! this implementation documents its choices explicitly:
//!
//! * detections are greedily matched to ground truth by IoU (≥ 0.3);
//! * matched pairs contribute `−ln(score)` if the class is right,
//!   `−ln(1 − score)` if wrong (a cross-entropy on the detection
//!   confidence), plus a smooth-L1 on size-normalized corner offsets;
//! * each missed ground-truth object costs [`MISS_PENALTY`] — missing a
//!   vehicle is the failure mode Fig. 1 calls out ("None misses
//!   vehicles"), so it dominates;
//! * each unmatched (false-positive) detection costs its own confidence.
//!
//! The total is normalized by the number of ground-truth objects.

use crate::bbox::{BBox, Detection};
use crate::wbf::{FusionScratch, WbfParams};
use ecofusion_scene::GtBox;
use serde::{Deserialize, Serialize};

/// Loss charged per missed ground-truth object.
pub const MISS_PENALTY: f32 = 4.0;

/// IoU at which a detection counts as matching a ground-truth box.
pub const MATCH_IOU: f32 = 0.3;

/// Components of the fusion loss for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FusionLoss {
    /// Confidence cross-entropy over matched detections.
    pub classification: f32,
    /// Smooth-L1 box regression over matched detections.
    pub regression: f32,
    /// Penalty for ground-truth objects with no matching detection.
    pub misses: f32,
    /// Penalty for detections matching no ground-truth object.
    pub false_positives: f32,
}

impl FusionLoss {
    /// Combined scalar loss.
    pub fn total(&self) -> f32 {
        self.classification + self.regression + self.misses + self.false_positives
    }
}

fn smooth_l1_scalar(d: f32) -> f32 {
    if d.abs() < 1.0 {
        0.5 * d * d
    } else {
        d.abs() - 0.5
    }
}

/// A ground-truth box as the matching loop reads it.
#[derive(Debug, Clone, Copy)]
struct GtRef {
    bbox: BBox,
    /// `bbox.area()`.
    area: f32,
    class_id: usize,
}

/// The buffers of the loss kernel, for a caller that scores many frames
/// ([`LossScratch::fusion_loss`]); every [`FusionScratch`] holds one.
/// Once they have grown to a frame's boxes, a loss allocates nothing.
#[derive(Debug, Default)]
pub struct LossScratch {
    gts: Vec<GtRef>,
    gt_matched: Vec<bool>,
    det_matched: Vec<bool>,
    /// Detection indices in matching order.
    order: Vec<usize>,
}

impl LossScratch {
    /// [`fusion_loss`] of `dets` against `gts`, out of this scratch's
    /// buffers.
    pub fn fusion_loss(&mut self, dets: &[Detection], gts: &[GtBox]) -> FusionLoss {
        self.load_gts(gts);
        self.loss(dets, false)
    }

    /// Loads a frame's ground truth, converted once for every loss taken
    /// against it.
    fn load_gts(&mut self, gts: &[GtBox]) {
        self.gts.clear();
        self.gts.extend(gts.iter().map(|gt| {
            let bbox = BBox::from(*gt);
            GtRef { bbox, area: bbox.area(), class_id: gt.class_id }
        }));
    }

    /// Fusion loss of `dets` against the loaded ground truth. `sorted`
    /// promises that `dets` is already in descending score order.
    fn loss(&mut self, dets: &[Detection], sorted: bool) -> FusionLoss {
        let LossScratch { gts, gt_matched, det_matched, order } = self;
        let mut loss = FusionLoss::default();
        gt_matched.clear();
        gt_matched.resize(gts.len(), false);
        det_matched.clear();
        det_matched.resize(dets.len(), false);
        // Greedy matching in descending score order, ties in index order.
        order.clear();
        order.extend(0..dets.len());
        if !sorted {
            order
                .sort_unstable_by(|&a, &b| dets[b].score.total_cmp(&dets[a].score).then(a.cmp(&b)));
        }
        for &di in order.iter() {
            let d = &dets[di];
            let d_area = d.bbox.area();
            let mut best: Option<(usize, f32)> = None;
            for (gi, gt) in gts.iter().enumerate() {
                if gt_matched[gi] {
                    continue;
                }
                let iou = d.bbox.iou_with_areas(d_area, &gt.bbox, gt.area);
                if iou >= MATCH_IOU && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((gi, iou));
                }
            }
            if let Some((gi, _)) = best {
                gt_matched[gi] = true;
                det_matched[di] = true;
                let gt = &gts[gi];
                let gb = &gt.bbox;
                // Confidence cross-entropy: reward confident correct class,
                // punish confident wrong class.
                let p = d.score.clamp(1e-4, 1.0 - 1e-4);
                loss.classification +=
                    if d.class_id == gt.class_id { -p.ln() } else { -(1.0 - p).ln() };
                // Size-normalized corner regression.
                let sw = gb.width().max(1.0);
                let sh = gb.height().max(1.0);
                loss.regression += smooth_l1_scalar((d.bbox.x1 - gb.x1) / sw)
                    + smooth_l1_scalar((d.bbox.y1 - gb.y1) / sh)
                    + smooth_l1_scalar((d.bbox.x2 - gb.x2) / sw)
                    + smooth_l1_scalar((d.bbox.y2 - gb.y2) / sh);
            }
        }
        for matched in gt_matched.iter() {
            if !matched {
                loss.misses += MISS_PENALTY;
            }
        }
        for (d, matched) in dets.iter().zip(det_matched.iter()) {
            if !matched {
                loss.false_positives += d.score;
            }
        }
        let norm = gts.len().max(1) as f32;
        FusionLoss {
            classification: loss.classification / norm,
            regression: loss.regression / norm,
            misses: loss.misses / norm,
            false_positives: loss.false_positives / norm,
        }
    }
}

/// Computes the fusion loss of `dets` against `gts`.
///
/// An empty frame with no detections scores zero.
pub fn fusion_loss(dets: &[Detection], gts: &[GtBox]) -> FusionLoss {
    LossScratch::default().fusion_loss(dets, gts)
}

/// Total fusion loss `L_f(φ)` of every branch subset in `masks` (bit `b`
/// of a mask selects `branch_dets[b]`), in the order given.
///
/// Equal, bit for bit, to fusing each subset's detections with
/// [`weighted_boxes_fusion`](crate::weighted_boxes_fusion) over as many
/// models as the subset has branches — a one-branch subset passes through
/// unfused, as in the model's Fuse stage — and taking
/// [`fusion_loss`]`(..).total()` of the result, but the frame's boxes are
/// sorted, masked and pair-indexed and its ground truth converted once.
///
/// # Panics
/// Panics if a mask is zero or selects a branch `branch_dets` lacks.
pub fn subset_fusion_losses(
    branch_dets: &[Vec<Detection>],
    masks: impl IntoIterator<Item = u8>,
    gts: &[GtBox],
    params: &WbfParams,
    scratch: &mut FusionScratch,
) -> Vec<f32> {
    let masks = masks.into_iter();
    let mut losses = Vec::with_capacity(masks.size_hint().0);
    subset_fusion_losses_into(branch_dets, masks, gts, params, scratch, &mut losses);
    losses
}

/// [`subset_fusion_losses`] appended to `losses`: a caller that keeps
/// the vector (and `scratch`) across frames allocates nothing once both
/// have grown.
///
/// # Panics
/// As [`subset_fusion_losses`].
pub fn subset_fusion_losses_into<D: AsRef<[Detection]>>(
    branch_dets: &[D],
    masks: impl IntoIterator<Item = u8>,
    gts: &[GtBox],
    params: &WbfParams,
    scratch: &mut FusionScratch,
    losses: &mut Vec<f32>,
) {
    scratch.load(branch_dets.iter().map(AsRef::as_ref), params);
    scratch.loss.load_gts(gts);
    for mask in masks {
        assert!(
            mask != 0 && (mask as usize) >> branch_dets.len() == 0,
            "mask {mask:#b} is not a subset of {} branches",
            branch_dets.len()
        );
        let loss = if mask.is_power_of_two() {
            scratch.loss.loss(branch_dets[mask.trailing_zeros() as usize].as_ref(), false)
        } else {
            scratch
                .fuse_branches((0..8).filter(|b| mask >> b & 1 != 0), mask.count_ones() as usize);
            scratch.loss.loss(&scratch.fused, true)
        };
        losses.push(loss.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(class: usize, x1: f32, y1: f32, x2: f32, y2: f32) -> GtBox {
        GtBox { class_id: class, x1, y1, x2, y2 }
    }

    fn det(class: usize, x1: f32, y1: f32, x2: f32, y2: f32, score: f32) -> Detection {
        Detection::new(BBox::new(x1, y1, x2, y2), class, score)
    }

    #[test]
    fn perfect_detection_low_loss() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let dets = [det(0, 10.0, 10.0, 20.0, 20.0, 0.99)];
        let l = fusion_loss(&dets, &gts);
        assert!(l.total() < 0.05, "{l:?}");
        assert_eq!(l.misses, 0.0);
    }

    #[test]
    fn missed_object_costs_miss_penalty() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let l = fusion_loss(&[], &gts);
        assert_eq!(l.total(), MISS_PENALTY);
    }

    #[test]
    fn empty_frame_zero_loss() {
        let l = fusion_loss(&[], &[]);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn false_positive_costs_its_confidence() {
        let dets = [det(0, 40.0, 40.0, 50.0, 50.0, 0.7)];
        let l = fusion_loss(&dets, &[]);
        assert!((l.false_positives - 0.7).abs() < 1e-6);
    }

    #[test]
    fn wrong_class_worse_than_right_class() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let right = fusion_loss(&[det(0, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        let wrong = fusion_loss(&[det(1, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        assert!(wrong.total() > right.total());
    }

    #[test]
    fn sloppy_box_worse_than_tight_box() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let tight = fusion_loss(&[det(0, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        let sloppy = fusion_loss(&[det(0, 7.0, 7.0, 24.0, 24.0, 0.9)], &gts);
        assert!(sloppy.regression > tight.regression);
    }

    #[test]
    fn loss_normalized_by_gt_count() {
        let one = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let two = [gt(0, 10.0, 10.0, 20.0, 20.0), gt(0, 40.0, 40.0, 50.0, 50.0)];
        let l1 = fusion_loss(&[], &one);
        let l2 = fusion_loss(&[], &two);
        // Average per-object loss is the same.
        assert!((l1.total() - l2.total()).abs() < 1e-6);
    }

    /// A NaN score makes the loss NaN, not the matching order undefined.
    #[test]
    fn nan_scores_do_not_break_matching() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let mut dets: Vec<Detection> = (0..30)
            .map(|i| {
                det(0, 40.0 + i as f32, 40.0, 50.0 + i as f32, 50.0, 0.1 + (i % 5) as f32 * 0.1)
            })
            .collect();
        dets.push(det(0, 10.0, 10.0, 20.0, 20.0, 0.9));
        for i in [2, 3, 17] {
            dets[i].score = f32::NAN;
        }
        let l = fusion_loss(&dets, &gts);
        assert_eq!(l.misses, 0.0);
        assert!(l.classification.is_finite() && l.regression.is_finite());
        assert!(l.false_positives.is_nan());
    }

    #[test]
    fn greedy_match_prefers_confident_detection() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        // Two candidates for one GT: the confident one should match, the
        // other becomes a false positive.
        let dets = [det(0, 10.0, 10.0, 20.0, 20.0, 0.95), det(0, 11.0, 11.0, 21.0, 21.0, 0.3)];
        let l = fusion_loss(&dets, &gts);
        assert!((l.false_positives - 0.3).abs() < 1e-6);
        assert!(l.classification < 0.1);
    }
}
