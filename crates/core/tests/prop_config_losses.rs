//! The one-pass configuration scorer against the naive per-configuration
//! composition it replaced.
//!
//! [`EcoFusionModel::config_losses_from`] sorts a frame's branch
//! detections once and fuses and scores all 127 branch subsets out of one
//! scratch. Its contract is bit-identity (`f32::to_bits`) with the naive
//! composition kept below as the oracle: per configuration, `branch_ids`
//! → clone the branches' detections → `weighted_boxes_fusion` (a lone
//! branch passes through) → `fusion_loss(..).total()`. The oracle's WBF
//! and loss are the straightforward pre-kernel implementations, so the
//! public one-shot functions are held to them as well.
//!
//! The generators aim at what could tell the two apart: score ties within
//! and across branches, identical boxes, empty branches, frames entirely
//! below `skip_box_thresh`, zero ground-truth boxes, and more classes than
//! the model's eight. A second, dense generator aims at the bitset pass:
//! frames as full as the served model's (up to 64 boxes a branch, so the
//! loaded boxes span one to seven bitmask words, some exactly 64 or 128),
//! clusters of many members, tied IoUs and tied scaled scores, IoU
//! thresholds at 0, 1 and below 0, zero-area boxes, NaN and ±∞ scores.

use ecofusion_core::{ConfigId, EcoFusionModel};
use ecofusion_detect::{
    fusion_loss, subset_fusion_losses, weighted_boxes_fusion, BBox, Detection, FusionScratch,
    WbfParams,
};
use ecofusion_scene::GtBox;
use ecofusion_tensor::rng::Rng;
use proptest::prelude::*;

/// The naive oracle: one cluster list scanned in full per detection, one
/// `Vec` per cluster, every list sorted where it is used.
mod naive {
    use ecofusion_detect::metrics::{FusionLoss, MATCH_IOU, MISS_PENALTY};
    use ecofusion_detect::{BBox, Detection, WbfParams};
    use ecofusion_scene::GtBox;
    use std::cmp::Ordering;

    struct Cluster {
        class_id: usize,
        members: Vec<Detection>,
        fused: Detection,
    }

    impl Cluster {
        fn refresh(&mut self) {
            let total: f32 = self.members.iter().map(|d| d.score).sum();
            let (mut x1, mut y1, mut x2, mut y2) = (0.0, 0.0, 0.0, 0.0);
            for d in &self.members {
                let w = d.score / total.max(1e-9);
                x1 += w * d.bbox.x1;
                y1 += w * d.bbox.y1;
                x2 += w * d.bbox.x2;
                y2 += w * d.bbox.y2;
            }
            let score = total / self.members.len() as f32;
            self.fused = Detection::new(BBox::new(x1, y1, x2, y2), self.class_id, score);
        }
    }

    /// Descending score; a NaN score (only the dense frames have them)
    /// counts as the largest, where `f32::total_cmp` puts it.
    fn by_score_desc(a: f32, b: f32) -> Ordering {
        b.partial_cmp(&a).unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
    }

    pub fn wbf(
        outputs: &[Vec<Detection>],
        params: &WbfParams,
        num_models: usize,
    ) -> Vec<Detection> {
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut all: Vec<Detection> = outputs
            .iter()
            .flatten()
            .filter(|d| d.score >= params.skip_box_thresh)
            .copied()
            .collect();
        all.sort_by(|a, b| by_score_desc(a.score, b.score));
        for det in all {
            let mut best: Option<(usize, f32)> = None;
            for (ci, c) in clusters.iter().enumerate() {
                if c.class_id != det.class_id {
                    continue;
                }
                let iou = c.fused.bbox.iou(&det.bbox);
                if iou > params.iou_thresh && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((ci, iou));
                }
            }
            match best {
                Some((ci, _)) => {
                    clusters[ci].members.push(det);
                    clusters[ci].refresh();
                }
                None => clusters.push(Cluster {
                    class_id: det.class_id,
                    members: vec![det],
                    fused: det,
                }),
            }
        }
        let mut fused: Vec<Detection> = clusters
            .into_iter()
            .map(|c| {
                let mut d = c.fused;
                let n = c.members.len().min(num_models) as f32;
                d.score *= n / num_models as f32;
                d
            })
            .filter(|d| d.score >= params.min_score)
            .collect();
        fused.sort_by(|a, b| by_score_desc(a.score, b.score));
        fused
    }

    fn smooth_l1(d: f32) -> f32 {
        if d.abs() < 1.0 {
            0.5 * d * d
        } else {
            d.abs() - 0.5
        }
    }

    pub fn loss(dets: &[Detection], gts: &[GtBox]) -> FusionLoss {
        let mut loss = FusionLoss::default();
        let mut gt_matched = vec![false; gts.len()];
        let mut det_matched = vec![false; dets.len()];
        let mut order: Vec<usize> = (0..dets.len()).collect();
        order.sort_by(|&a, &b| by_score_desc(dets[a].score, dets[b].score));
        for &di in &order {
            let d = &dets[di];
            let mut best: Option<(usize, f32)> = None;
            for (gi, gt) in gts.iter().enumerate() {
                if gt_matched[gi] {
                    continue;
                }
                let iou = d.bbox.iou(&BBox::from(*gt));
                if iou >= MATCH_IOU && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((gi, iou));
                }
            }
            if let Some((gi, _)) = best {
                gt_matched[gi] = true;
                det_matched[di] = true;
                let gt = &gts[gi];
                let gb = BBox::from(*gt);
                let p = d.score.clamp(1e-4, 1.0 - 1e-4);
                loss.classification +=
                    if d.class_id == gt.class_id { -p.ln() } else { -(1.0 - p).ln() };
                let sw = gb.width().max(1.0);
                let sh = gb.height().max(1.0);
                loss.regression += smooth_l1((d.bbox.x1 - gb.x1) / sw)
                    + smooth_l1((d.bbox.y1 - gb.y1) / sh)
                    + smooth_l1((d.bbox.x2 - gb.x2) / sw)
                    + smooth_l1((d.bbox.y2 - gb.y2) / sh);
            }
        }
        for matched in &gt_matched {
            if !matched {
                loss.misses += MISS_PENALTY;
            }
        }
        for (di, matched) in det_matched.iter().enumerate() {
            if !matched {
                loss.false_positives += dets[di].score;
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

/// Per configuration: `branch_ids` → clone → fuse → loss.
fn naive_config_losses(
    model: &EcoFusionModel,
    branch_dets: &[Vec<Detection>],
    gts: &[GtBox],
    params: &WbfParams,
) -> Vec<f32> {
    let space = model.space();
    (0..space.num_configs())
        .map(|i| {
            let outputs: Vec<Vec<Detection>> =
                space.branch_ids(ConfigId(i)).iter().map(|b| branch_dets[b.0].clone()).collect();
            let fused = if outputs.len() == 1 {
                outputs[0].clone()
            } else {
                naive::wbf(&outputs, params, outputs.len())
            };
            naive::loss(&fused, gts).total()
        })
        .collect()
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// [`bits`], every NaN one: a NaN score makes a loss NaN whichever box the
/// greedy matcher takes first, but not always the same NaN.
fn bits_any_nan(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| if l.is_nan() { f32::NAN.to_bits() } else { l.to_bits() }).collect()
}

fn det_bits(dets: &[Detection]) -> Vec<(usize, [u32; 5])> {
    dets.iter()
        .map(|d| {
            let b = d.bbox;
            (d.class_id, [b.x1, b.y1, b.x2, b.y2, d.score].map(f32::to_bits))
        })
        .collect()
}

/// Boxes on a coarse lattice around four well-separated anchors, so that
/// identical and heavily overlapping boxes are common.
fn arb_bbox() -> impl Strategy<Value = BBox> {
    const ANCHORS: [(f32, f32); 4] = [(4.0, 4.0), (30.0, 8.0), (12.0, 40.0), (44.0, 44.0)];
    const JITTER: [f32; 5] = [0.0, 0.0, 1.0, 1.5, 3.0];
    const SIZE: [f32; 4] = [8.0, 8.0, 9.0, 12.0];
    (0usize..4, 0usize..5, 0usize..5, 0usize..4, 0usize..4).prop_map(|(a, jx, jy, w, h)| {
        let (x, y) = (ANCHORS[a].0 + JITTER[jx], ANCHORS[a].1 + JITTER[jy]);
        BBox::new(x, y, x + SIZE[w], y + SIZE[h])
    })
}

/// Scores from a short list (ties everywhere, values on both sides of the
/// 0.05 thresholds) or, sometimes, anywhere in `[0, 1)`.
fn arb_score() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.01f32),
        Just(0.05f32),
        Just(0.3f32),
        Just(0.3f32),
        Just(0.6f32),
        Just(0.9f32),
        0.0f32..1.0,
    ]
}

/// Mostly three classes (so boxes meet), sometimes up to eleven.
fn arb_class() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..3, 0usize..3, 0usize..11]
}

fn arb_detection() -> impl Strategy<Value = Detection> {
    (arb_bbox(), arb_class(), arb_score())
        .prop_map(|(bbox, class_id, score)| Detection::new(bbox, class_id, score))
}

/// Seven branch outputs, each possibly empty; one frame in five has every
/// score scaled under `skip_box_thresh`.
fn arb_branch_dets() -> impl Strategy<Value = Vec<Vec<Detection>>> {
    let branch = prop_oneof![
        prop::collection::vec(arb_detection(), 0..1),
        prop::collection::vec(arb_detection(), 0..6),
        prop::collection::vec(arb_detection(), 0..14),
    ];
    (prop::collection::vec(branch, 7..8), 0usize..5).prop_map(|(mut branches, quiet)| {
        if quiet == 0 {
            for d in branches.iter_mut().flatten() {
                d.score *= 0.04;
            }
        }
        branches
    })
}

fn arb_gt() -> impl Strategy<Value = GtBox> {
    (arb_bbox(), arb_class()).prop_map(|(b, class_id)| GtBox {
        class_id,
        x1: b.x1,
        y1: b.y1,
        x2: b.x2,
        y2: b.y2,
    })
}

/// Zero to four ground-truth boxes, zero often.
fn arb_gts() -> impl Strategy<Value = Vec<GtBox>> {
    prop_oneof![prop::collection::vec(arb_gt(), 0..1), prop::collection::vec(arb_gt(), 0..5)]
}

/// Boxes on a tight lattice around three anchors — mirrored offsets, so
/// a box between two lone boxes can tie in IoU, and some sizes zero — or,
/// one offset in three, anywhere near one, so that some pairs overlap by a
/// sliver.
fn arb_dense_bbox() -> impl Strategy<Value = BBox> {
    const ANCHORS: [(f32, f32); 3] = [(4.0, 4.0), (20.0, 6.0), (10.0, 18.0)];
    const JITTER: [f32; 7] = [-3.0, -1.5, -1.0, 0.0, 1.0, 1.5, 3.0];
    const SIZE: [f32; 6] = [0.0, 6.0, 8.0, 8.0, 8.0, 10.0];
    let jitter = || prop_oneof![(0usize..7).prop_map(|i| JITTER[i]), Just(0.0f32), -4.0f32..4.0];
    (0usize..3, jitter(), jitter(), 0usize..6, 0usize..6).prop_map(|(a, jx, jy, w, h)| {
        let (x, y) = (ANCHORS[a].0 + jx, ANCHORS[a].1 + jy);
        BBox::new(x, y, x + SIZE[w], y + SIZE[h])
    })
}

/// Scores whose scaled values tie across lone boxes and merged clusters
/// (`0.8 · 1/4` = `0.4 · 2/4`, `0.6 · 1/2` = `0.3 · 2/2`), all admitted.
fn arb_dense_detection() -> impl Strategy<Value = Detection> {
    const SCORES: [f32; 9] = [0.15, 0.2, 0.3, 0.3, 0.4, 0.4, 0.6, 0.8, 0.9];
    (arb_dense_bbox(), 0usize..3, 0usize..9)
        .prop_map(|(bbox, class_id, s)| Detection::new(bbox, class_id, SCORES[s]))
}

/// Seven branches of up to 64 boxes, `total` of them dealt out by branch
/// hint (a full branch passes a box on). One frame in four has a few
/// scores replaced by NaN, ±∞ or one under `skip_box_thresh`.
fn arb_dense_branch_dets() -> impl Strategy<Value = Vec<Vec<Detection>>> {
    let total = prop_oneof![
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        1usize..449,
        300usize..449,
    ];
    let hinted = prop::collection::vec((arb_dense_detection(), 0usize..7), 448..449);
    let poison = prop::collection::vec((0usize..448, 0usize..4), 0..5);
    (total, hinted, 0usize..4, poison).prop_map(|(total, hinted, quiet, poison)| {
        let mut branches: Vec<Vec<Detection>> = vec![Vec::new(); 7];
        for (det, hint) in hinted.into_iter().take(total) {
            let b = (hint..hint + 7).map(|b| b % 7).find(|&b| branches[b].len() < 64).unwrap();
            branches[b].push(det);
        }
        if quiet == 0 {
            const SPECIAL: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.01];
            for (at, kind) in poison {
                let b = at % 7;
                if !branches[b].is_empty() {
                    let i = at % branches[b].len();
                    branches[b][i].score = SPECIAL[kind];
                }
            }
        }
        branches
    })
}

/// Up to five ground-truth boxes on the dense lattice.
fn arb_dense_gts() -> impl Strategy<Value = Vec<GtBox>> {
    let gt = (arb_dense_bbox(), 0usize..3).prop_map(|(b, class_id)| GtBox {
        class_id,
        x1: b.x1,
        y1: b.y1,
        x2: b.x2,
        y2: b.y2,
    });
    prop::collection::vec(gt, 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_scorer_equals_naive_composition(
        first in (arb_branch_dets(), arb_gts()),
        second in (arb_branch_dets(), arb_gts()),
    ) {
        let model = EcoFusionModel::new(32, 8, &mut Rng::new(13));
        // A scratch that has already scored another frame must not carry
        // anything over.
        let mut scratch = FusionScratch::default();
        for (branch_dets, gts) in [&first, &second] {
            let expected = bits(&naive_config_losses(&model, branch_dets, gts, &WbfParams::default()));
            prop_assert_eq!(&bits(&model.config_losses_from(branch_dets, gts)), &expected);
            let reused = subset_fusion_losses(
                branch_dets,
                1..=127u8,
                gts,
                &WbfParams::default(),
                &mut scratch,
            );
            prop_assert_eq!(&bits(&reused), &expected);
        }
    }

    #[test]
    fn one_shot_fusion_and_loss_equal_naive(
        branch_dets in arb_branch_dets(),
        gts in arb_gts(),
        iou_thresh in prop_oneof![Just(0.55f32), 0.1f32..0.9],
    ) {
        let params = WbfParams { iou_thresh, ..WbfParams::default() };
        for k in 2..7 {
            let fused = weighted_boxes_fusion(&branch_dets, &params, k);
            prop_assert_eq!(det_bits(&fused), det_bits(&naive::wbf(&branch_dets, &params, k)));
        }
        let fused = weighted_boxes_fusion(&branch_dets, &params, 7);
        prop_assert_eq!(det_bits(&fused), det_bits(&naive::wbf(&branch_dets, &params, 7)));
        // Fused (sorted) and raw (unsorted) lists both.
        for dets in [&fused, &branch_dets.concat()] {
            let (got, want) = (fusion_loss(dets, &gts), naive::loss(dets, &gts));
            prop_assert_eq!(
                bits(&[got.classification, got.regression, got.misses, got.false_positives]),
                bits(&[want.classification, want.regression, want.misses, want.false_positives])
            );
        }
    }
}

proptest! {
    // Each case fuses up to 448 boxes 127 times on both sides.
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn dense_frames_score_like_the_naive_composition(
        first in (arb_dense_branch_dets(), arb_dense_gts()),
        second in (arb_dense_branch_dets(), arb_dense_gts()),
        iou_thresh in prop_oneof![
            Just(0.55f32),
            Just(0.0f32),
            Just(1.0f32),
            Just(-0.25f32),
            0.0f32..0.2,
            0.1f32..0.9,
        ],
    ) {
        let model = EcoFusionModel::new(32, 8, &mut Rng::new(13));
        let params = WbfParams { iou_thresh, ..WbfParams::default() };
        // One scratch across both frames, the denser one second or first.
        let mut scratch = FusionScratch::default();
        for (branch_dets, gts) in [&first, &second] {
            let expected = bits_any_nan(&naive_config_losses(&model, branch_dets, gts, &params));
            let got = subset_fusion_losses(branch_dets, 1..=127u8, gts, &params, &mut scratch);
            prop_assert_eq!(&bits_any_nan(&got), &expected);
            for k in 2..8 {
                let fused = weighted_boxes_fusion(branch_dets, &params, k);
                prop_assert_eq!(det_bits(&fused), det_bits(&naive::wbf(branch_dets, &params, k)));
            }
        }
    }
}
