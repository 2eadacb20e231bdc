//! Non-maximum suppression.

use crate::bbox::Detection;

/// Greedy per-class NMS: keeps the highest-scoring detection and removes
/// same-class detections with IoU above `iou_thresh`.
///
/// Output is sorted by descending score (a stable sort: ties keep their
/// input order). [`NmsScratch::nms_into`] is the same out of buffers a
/// caller keeps.
///
/// # Panics
/// Panics if `iou_thresh` is outside `[0, 1]`.
pub fn nms(dets: Vec<Detection>, iou_thresh: f32) -> Vec<Detection> {
    let mut kept = Vec::with_capacity(dets.len());
    NmsScratch::default().nms_into(&dets, iou_thresh, &mut kept);
    kept
}

/// The buffers of [`nms`], for a caller that suppresses many lists: once
/// they have grown to the longest list met, a suppression allocates
/// nothing.
#[derive(Debug, Default)]
pub struct NmsScratch {
    /// Candidate indices by descending score, ties in index order.
    order: Vec<usize>,
    /// Per kept box: the kept box of its class kept just before it.
    next: Vec<usize>,
    /// `(class_id, newest kept box)` per class met.
    heads: Vec<(usize, usize)>,
}

impl NmsScratch {
    /// [`nms`] of `candidates` into `kept`, which is cleared first.
    ///
    /// The candidates are ranked by an unstable sort of their indices
    /// keyed on `(score, index)` — the order a stable sort by score gives
    /// — and copied into `kept` in that order. Kept detections are then
    /// chained per class (an intrusive `next` index per kept box, and one
    /// `(class_id, newest kept box)` entry per class met, found by a
    /// linear scan — `class_id` arrives from outside, so it never indexes
    /// a table), and a candidate is measured only against the chain of its
    /// own class: `Σ_c k_c · n_c` IoU tests for `n_c` candidates and `k_c`
    /// kept boxes of class `c`, where one list of all kept boxes costs
    /// `k · n`. The tests made are the ones that list would make with the
    /// cross-class ones left out, so the same boxes are kept. The kept
    /// prefix is compacted inside `kept` itself.
    ///
    /// # Panics
    /// Panics if `iou_thresh` is outside `[0, 1]`.
    pub fn nms_into(
        &mut self,
        candidates: &[Detection],
        iou_thresh: f32,
        kept: &mut Vec<Detection>,
    ) {
        assert!((0.0..=1.0).contains(&iou_thresh), "iou_thresh must be in [0, 1]");
        let NmsScratch { order, next, heads } = self;
        order.clear();
        order.extend(0..candidates.len());
        order.sort_unstable_by(|&a, &b| {
            candidates[b].score.total_cmp(&candidates[a].score).then(a.cmp(&b))
        });
        kept.clear();
        kept.extend(order.iter().map(|&i| candidates[i]));
        /// Ends a chain (no kept box has this index: `k < kept.len()`).
        const END: usize = usize::MAX;
        // `kept[..k]` are the kept boxes.
        let mut k = 0;
        next.clear();
        heads.clear();
        'outer: for i in 0..kept.len() {
            let d = kept[i];
            let class = heads.iter().position(|&(class_id, _)| class_id == d.class_id);
            let head = class.map_or(END, |c| heads[c].1);
            let mut at = head;
            while at != END {
                if kept[at].bbox.iou(&d.bbox) > iou_thresh {
                    continue 'outer;
                }
                at = next[at];
            }
            kept[k] = d;
            next.push(head);
            match class {
                Some(c) => heads[c].1 = k,
                None => heads.push((d.class_id, k)),
            }
            k += 1;
        }
        kept.truncate(k);
    }
}

/// Soft-NMS (Bodla et al.): instead of removing overlapping detections,
/// decays their scores by `exp(-iou² / sigma)`; detections falling below
/// `score_thresh` are dropped.
///
/// # Panics
/// Panics if `sigma <= 0`.
pub fn soft_nms(mut dets: Vec<Detection>, sigma: f32, score_thresh: f32) -> Vec<Detection> {
    assert!(sigma > 0.0, "sigma must be positive");
    let mut out: Vec<Detection> = Vec::with_capacity(dets.len());
    while !dets.is_empty() {
        // Select current max.
        let (mi, _) = dets
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.score.total_cmp(&b.1.score))
            .expect("non-empty");
        let m = dets.swap_remove(mi);
        out.push(m);
        for d in &mut dets {
            if d.class_id == m.class_id {
                let iou = d.bbox.iou(&m.bbox);
                d.score *= (-iou * iou / sigma).exp();
            }
        }
        dets.retain(|d| d.score >= score_thresh);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;

    fn det(x: f32, score: f32, class: usize) -> Detection {
        Detection::new(BBox::new(x, 0.0, x + 4.0, 4.0), class, score)
    }

    #[test]
    fn suppresses_overlapping_same_class() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 0), det(20.0, 0.7, 0)];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.7);
    }

    #[test]
    fn keeps_overlapping_different_class() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 1)];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn output_sorted_by_score() {
        let dets = vec![det(0.0, 0.2, 0), det(20.0, 0.9, 0), det(40.0, 0.5, 0)];
        let kept = nms(dets, 0.5);
        let scores: Vec<f32> = kept.iter().map(|d| d.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.2]);
    }

    #[test]
    fn empty_input_ok() {
        assert!(nms(Vec::new(), 0.5).is_empty());
        assert!(soft_nms(Vec::new(), 0.5, 0.01).is_empty());
    }

    #[test]
    fn nms_idempotent() {
        let dets = vec![det(0.0, 0.9, 0), det(1.0, 0.8, 0), det(30.0, 0.6, 1)];
        let once = nms(dets, 0.4);
        let twice = nms(once.clone(), 0.4);
        assert_eq!(once, twice);
    }

    #[test]
    fn soft_nms_decays_not_removes() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 0)];
        let kept = soft_nms(dets, 0.5, 0.01);
        // Both survive but the second is decayed.
        assert_eq!(kept.len(), 2);
        assert!(kept[1].score < 0.8);
    }

    #[test]
    fn soft_nms_drops_below_threshold() {
        let dets = vec![det(0.0, 0.9, 0), det(0.1, 0.2, 0)];
        let kept = soft_nms(dets, 0.1, 0.15);
        assert_eq!(kept.len(), 1);
    }

    /// NaN scores must not reach a comparator that is no total order
    /// (std's sort may panic on one): they rank first and nothing breaks.
    #[test]
    fn nan_scores_are_ordered_not_fatal() {
        let mut dets: Vec<Detection> =
            (0..40).map(|i| det(i as f32 * 10.0, 0.1 + (i % 7) as f32 * 0.1, 0)).collect();
        for i in [3, 11, 12, 29] {
            dets[i].score = f32::NAN;
        }
        let kept = nms(dets.clone(), 0.5);
        assert_eq!(kept.len(), 40);
        assert!(kept[..4].iter().all(|d| d.score.is_nan()));
        assert!(kept[4..].windows(2).all(|w| w[0].score >= w[1].score));
        assert!(soft_nms(dets, 0.5, 0.01).len() <= 40);
    }

    /// The definition: every candidate against every kept box, in one
    /// list. The oracle of the class-chained form.
    fn nms_double_loop(mut dets: Vec<Detection>, iou_thresh: f32) -> Vec<Detection> {
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

    /// Bitwise, so that NaN scores compare too.
    fn assert_same(a: &[Detection], b: &[Detection], what: &str) {
        let bits = |d: &Detection| {
            let b = d.bbox;
            ([b.x1, b.y1, b.x2, b.y2].map(f32::to_bits), d.class_id, d.score.to_bits())
        };
        assert_eq!(
            a.iter().map(bits).collect::<Vec<_>>(),
            b.iter().map(bits).collect::<Vec<_>>(),
            "{what}"
        );
    }

    /// The chained form keeps what the double loop keeps, in its order:
    /// crowded random boxes with tied and NaN scores and repeated boxes,
    /// under every way of assigning classes and at the thresholds'
    /// extremes.
    #[test]
    fn chained_nms_matches_the_double_loop() {
        use ecofusion_tensor::rng::Rng;
        type ClassOf = fn(usize, &mut Rng) -> usize;
        let class_of: [(&str, ClassOf); 4] = [
            ("one class", |_, _| 3),
            ("eight classes", |_, rng| rng.uniform_usize(0, 8)),
            ("a class per box", |i, _| i),
            ("outside ids", |i, _| if i % 3 == 0 { usize::MAX } else { usize::MAX - i % 4 }),
        ];
        for (name, class) in class_of {
            for seed in 0..12u64 {
                let mut rng = Rng::new(0x0A15 ^ seed);
                let n = rng.uniform_usize(0, 90);
                let mut dets: Vec<Detection> = Vec::with_capacity(n);
                for i in 0..n {
                    let d = if i > 0 && rng.chance(0.15) {
                        // An identical box, or the same box under another
                        // score.
                        let mut twin = dets[rng.uniform_usize(0, i)];
                        if rng.chance(0.5) {
                            twin.score = rng.uniform(0.0, 1.0) as f32;
                        }
                        twin
                    } else {
                        let (x, y) = (rng.uniform(0.0, 24.0) as f32, rng.uniform(0.0, 24.0) as f32);
                        let (w, h) = (rng.uniform(0.0, 10.0) as f32, rng.uniform(0.0, 10.0) as f32);
                        // Scores on a coarse lattice tie often.
                        let score = match rng.uniform_usize(0, 12) {
                            0 => f32::NAN,
                            q => q as f32 / 8.0,
                        };
                        Detection::new(BBox::new(x, y, x + w, y + h), class(i, &mut rng), score)
                    };
                    dets.push(d);
                }
                for thresh in [0.0, 0.3, 0.5, 1.0] {
                    let what = format!("{name}, seed {seed}, {n} boxes, iou {thresh}");
                    assert_same(
                        &nms(dets.clone(), thresh),
                        &nms_double_loop(dets.clone(), thresh),
                        &what,
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "iou_thresh")]
    fn bad_threshold_panics() {
        let _ = nms(Vec::new(), 1.5);
    }
}
