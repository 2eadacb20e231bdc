//! The serving step decodes, suppresses and scores out of buffers it
//! keeps across frames. Reused over a sequence of frames of different
//! sizes — empty outputs, NaN logits and scores, a class count that grows
//! mid-sequence — each scratch form gives what the allocating form gives,
//! bit for bit: `decode_sample_into` what a fresh decode with the
//! definition of NMS (stable sort by score, then every candidate against
//! every kept box of its class) gives, `NmsScratch::nms_into` what that
//! definition gives, and `LossScratch::fusion_loss` what `fusion_loss`
//! gives.

use ecofusion_detect::{
    fusion_loss, BBox, CellGrid, DecodeScratch, DenseHead, Detection, HeadOutput, LossScratch,
    NmsScratch,
};
use ecofusion_scene::GtBox;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

/// The head's logistic, as it computes it.
fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// The definition of greedy per-class NMS.
fn nms_definition(mut dets: Vec<Detection>, iou_thresh: f32) -> Vec<Detection> {
    dets.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut keep: Vec<Detection> = Vec::with_capacity(dets.len());
    'outer: for d in dets {
        for k in &keep {
            if k.class_id == d.class_id && k.bbox.iou(&d.bbox) > iou_thresh {
                continue 'outer;
            }
        }
        keep.push(d);
    }
    keep
}

/// Decoding as the head did it with a list of its own per frame: every
/// cell a candidate, softmax over the classes, then NMS.
fn decode_allocating(
    grid: CellGrid,
    classes: usize,
    out: &HeadOutput,
    sample: usize,
    (score_thresh, nms_iou): (f32, f32),
) -> Vec<Detection> {
    let s = grid.cells;
    let cells = s * s;
    let planes = &out.map.data()[sample * (5 + classes) * cells..][..(5 + classes) * cells];
    let (objectness, planes) = planes.split_at(cells);
    let (class_planes, boxes) = planes.split_at(classes * cells);
    let mut dets = Vec::new();
    for (cell, &logit) in objectness.iter().enumerate() {
        let obj = sigmoid(logit);
        if obj < score_thresh || obj.is_nan() {
            continue;
        }
        let (mut best_c, mut best_l, mut denom, mut max_l) =
            (0, f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY);
        for plane in class_planes.chunks_exact(cells) {
            max_l = max_l.max(plane[cell]);
        }
        for (c, plane) in class_planes.chunks_exact(cells).enumerate() {
            let l = plane[cell];
            denom += (l - max_l).exp();
            if l > best_l {
                best_l = l;
                best_c = c;
            }
        }
        let class_prob = (best_l - max_l).exp() / denom.max(1e-12);
        if class_prob > 1.0 || class_prob.is_nan() {
            continue;
        }
        let t: [f32; 4] = std::array::from_fn(|b| boxes[b * cells + cell]);
        let bbox = grid.decode(cell / s, cell % s, t).clamped(grid.stride * s as f32);
        dets.push(Detection::new(bbox, best_c, obj * class_prob));
    }
    nms_definition(dets, nms_iou)
}

/// Bitwise, so that NaN compares too.
fn bits(dets: &[Detection]) -> Vec<([u32; 4], usize, u32)> {
    let bits = |d: &Detection| {
        let b = d.bbox;
        ([b.x1, b.y1, b.x2, b.y2].map(f32::to_bits), d.class_id, d.score.to_bits())
    };
    dets.iter().map(bits).collect()
}

/// A value drawn from a spread of logits, with NaN and ±∞ now and then.
fn logit(rng: &mut Rng) -> f32 {
    match rng.uniform_usize(0, 40) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => rng.uniform(-4.0, 4.0) as f32,
    }
}

#[test]
fn reused_decode_scratch_decodes_what_a_fresh_decode_does() {
    let mut rng = Rng::new(0xDEC0DE);
    let mut scratch = DecodeScratch::default();
    let mut dets = Vec::new();
    // (raster, cells, classes): growing and shrinking grids, and a class
    // count that grows mid-sequence.
    let shapes = [(16, 4, 3), (32, 8, 3), (8, 2, 1), (32, 8, 8), (16, 4, 8), (32, 8, 3)];
    let mut frames = 0;
    for (step, &(raster, cells, classes)) in shapes.iter().cycle().take(36).enumerate() {
        let grid = CellGrid::new(raster, cells);
        let head = DenseHead::new(4, classes, grid, &mut rng);
        let batch = rng.uniform_usize(1, 4);
        let n = batch * (5 + classes) * cells * cells;
        let mut data: Vec<f32> = (0..n).map(|_| logit(&mut rng)).collect();
        if step % 5 == 4 {
            // A frame whose every objectness is NaN: an empty output.
            data.iter_mut().for_each(|v| *v = f32::NAN);
        }
        let out = HeadOutput { map: Tensor::from_vec(&[batch, 5 + classes, cells, cells], data) };
        for sample in 0..batch {
            for thresholds in [(0.0, 0.5), (0.3, 0.3), (0.05, 0.0), (0.5, 1.0), (1.5, 0.5)] {
                let (score_thresh, nms_iou) = thresholds;
                head.decode_sample_into(
                    &out,
                    sample,
                    score_thresh,
                    nms_iou,
                    &mut scratch,
                    &mut dets,
                );
                let expected = decode_allocating(grid, classes, &out, sample, thresholds);
                assert_eq!(
                    bits(&dets),
                    bits(&expected),
                    "step {step}, sample {sample}, {thresholds:?}"
                );
                let fresh = head.decode_sample(&out, sample, score_thresh, nms_iou);
                assert_eq!(bits(&fresh), bits(&expected), "step {step}, sample {sample}");
                frames += 1;
            }
        }
    }
    assert!(frames > 300);
}

#[test]
fn reused_nms_scratch_keeps_what_the_definition_keeps() {
    let mut rng = Rng::new(0x0A15);
    let mut scratch = NmsScratch::default();
    let mut kept = Vec::new();
    for step in 0..200 {
        // Lists of 0 to 90 boxes, long and short in turn.
        let n = if step % 3 == 0 { rng.uniform_usize(0, 4) } else { rng.uniform_usize(0, 90) };
        let classes = rng.uniform_usize(1, 9);
        let candidates: Vec<Detection> = (0..n)
            .map(|_| {
                let (x, y) = (rng.uniform(0.0, 24.0) as f32, rng.uniform(0.0, 24.0) as f32);
                let (w, h) = (rng.uniform(0.0, 10.0) as f32, rng.uniform(0.0, 10.0) as f32);
                let score = match rng.uniform_usize(0, 12) {
                    0 => f32::NAN,
                    q => q as f32 / 8.0,
                };
                Detection::new(BBox::new(x, y, x + w, y + h), rng.uniform_usize(0, classes), score)
            })
            .collect();
        for iou in [0.0, 0.3, 0.5, 1.0] {
            scratch.nms_into(&candidates, iou, &mut kept);
            let expected = nms_definition(candidates.clone(), iou);
            assert_eq!(bits(&kept), bits(&expected), "step {step}, {n} boxes, iou {iou}");
        }
    }
}

#[test]
fn reused_loss_scratch_scores_what_fusion_loss_does() {
    let mut rng = Rng::new(0x1055);
    let mut scratch = LossScratch::default();
    let loss_bits = |l: ecofusion_detect::FusionLoss| {
        [l.classification, l.regression, l.misses, l.false_positives].map(f32::to_bits)
    };
    for step in 0..300 {
        let (n_gts, n_dets) = match step % 4 {
            0 => (0, 0),
            1 => (rng.uniform_usize(0, 3), rng.uniform_usize(0, 60)),
            2 => (rng.uniform_usize(0, 12), 0),
            _ => (rng.uniform_usize(0, 12), rng.uniform_usize(0, 20)),
        };
        let corner = |rng: &mut Rng| (rng.uniform(0.0, 28.0) as f32, rng.uniform(0.0, 28.0) as f32);
        let gts: Vec<GtBox> = (0..n_gts)
            .map(|_| {
                let (x1, y1) = corner(&mut rng);
                let class_id = rng.uniform_usize(0, 8);
                GtBox { class_id, x1, y1, x2: x1 + 4.0, y2: y1 + 3.0 }
            })
            .collect();
        let dets: Vec<Detection> = (0..n_dets)
            .map(|_| {
                let (x1, y1) = corner(&mut rng);
                let score = if rng.chance(0.05) { f32::NAN } else { rng.uniform(0.0, 1.0) as f32 };
                let bbox = BBox::new(x1, y1, x1 + 4.5, y1 + 3.5);
                Detection::new(bbox, rng.uniform_usize(0, 8), score)
            })
            .collect();
        assert_eq!(
            loss_bits(scratch.fusion_loss(&dets, &gts)),
            loss_bits(fusion_loss(&dets, &gts)),
            "step {step}: {n_gts} objects, {n_dets} detections"
        );
    }
}
