//! Weighted Boxes Fusion — the paper's late-fusion block (§4.4).
//!
//! Implements the algorithm of Solovyev et al., *"Weighted boxes fusion:
//! Ensembling boxes from different object detection models"* (Image and
//! Vision Computing 2021): detections from all branches are clustered by
//! class and IoU; each cluster is replaced by a confidence-weighted average
//! box whose score reflects both the member scores and how many of the
//! contributing models agreed.

use crate::bbox::{BBox, Detection};
use serde::{Deserialize, Serialize};

/// Parameters for [`weighted_boxes_fusion`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WbfParams {
    /// IoU above which two same-class boxes are merged into one cluster.
    pub iou_thresh: f32,
    /// Detections below this score are discarded before fusion.
    pub skip_box_thresh: f32,
    /// Fused detections below this score are discarded after fusion.
    pub min_score: f32,
}

impl Default for WbfParams {
    fn default() -> Self {
        WbfParams { iou_thresh: 0.55, skip_box_thresh: 0.05, min_score: 0.05 }
    }
}

/// Terminator of the chains in [`FusionScratch`], and "no slot".
const NONE: u32 = u32::MAX;

/// One input box as the cluster loop reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    det: Detection,
    /// `det.bbox.area()`.
    area: f32,
    /// Index of `det.class_id` in [`FusionScratch::classes`].
    class: u32,
    /// Position in the concatenated branch outputs: the tie-break that
    /// makes the unstable sort below the stable one.
    seq: u32,
    /// Index of the branch output the box came from.
    pub(crate) branch: u32,
}

#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// The fused box, its area and score.
    bbox: BBox,
    area: f32,
    score: f32,
    /// Members as a chain of entry indices through
    /// [`FusionScratch::next_member`], in the order they joined. Clusters
    /// are created in entry order, so `head` also ranks them by creation.
    head: u32,
    tail: u32,
    len: u32,
    /// Next cluster of the class with more than one member.
    next_merged: u32,
}

/// Reusable buffers of the fusion and fusion-loss kernels. A warm scratch
/// (one that has seen a frame at least as large) makes both
/// allocation-free, which is what lets the loss-based oracle score all
/// 127 configurations of a frame without touching the heap.
#[derive(Debug, Default)]
pub struct FusionScratch {
    /// The loaded boxes in descending score order, ties in concatenation
    /// order: filtered by branch it is each subset's own sorted input.
    entries: Vec<Entry>,
    /// Distinct class ids of the loaded boxes.
    classes: Vec<usize>,
    /// Detections only ever merge within a class, so each class keeps its
    /// clusters, in creation order, in a run of `clusters` of its own —
    /// `class_start[c]..class_start[c] + class_len[c]`, with room for one
    /// cluster per box of the class — and a box scans that run only.
    class_start: Vec<u32>,
    class_len: Vec<u32>,
    clusters: Vec<Cluster>,
    /// Per class: the chain of its clusters with more than one member.
    class_merged: Vec<u32>,
    /// Per entry: the next member of the cluster the entry joined.
    next_member: Vec<u32>,
    /// Per entry: the slot of the cluster the entry founded, if it did.
    founded: Vec<u32>,
    /// The IoU threshold `pairs` was built for, once
    /// [`FusionScratch::index_pairs`] has run on the loaded boxes.
    indexed: Option<f32>,
    /// Per entry `i`, in `pairs[pair_start[i]..pair_start[i + 1]]`: every
    /// earlier entry of the same class whose box overlaps `i`'s above the
    /// threshold, with that IoU.
    pair_start: Vec<u32>,
    pairs: Vec<(u32, f32)>,
    /// Cluster slots in output order (while indexing: entries by class).
    order: Vec<u32>,
    /// Output of the last [`FusionScratch::fuse_where`].
    pub(crate) fused: Vec<Detection>,
    pub(crate) loss: crate::metrics::LossScratch,
}

impl FusionScratch {
    /// Loads the boxes of `branch_outputs`, sorted once for every fusion
    /// pass over them.
    pub(crate) fn load(&mut self, branch_outputs: &[Vec<Detection>]) {
        self.entries.clear();
        self.classes.clear();
        self.class_start.clear();
        self.indexed = None;
        for (branch, dets) in branch_outputs.iter().enumerate() {
            for det in dets {
                let class = match self.classes.iter().position(|c| *c == det.class_id) {
                    Some(c) => c,
                    None => {
                        self.classes.push(det.class_id);
                        self.class_start.push(0);
                        self.classes.len() - 1
                    }
                };
                // A count for now, a start below.
                self.class_start[class] += 1;
                self.entries.push(Entry {
                    det: *det,
                    area: det.bbox.area(),
                    class: class as u32,
                    seq: self.entries.len() as u32,
                    branch: branch as u32,
                });
            }
        }
        let mut start = 0;
        for s in &mut self.class_start {
            start += std::mem::replace(s, start);
        }
        // Descending score, feeding the cluster loop its most confident
        // boxes first; `seq` makes the key unique, so this is the stable
        // sort without its merge buffer.
        self.entries
            .sort_unstable_by(|a, b| b.det.score.total_cmp(&a.det.score).then(a.seq.cmp(&b.seq)));
        // One cluster slot and one chain link per box; a pass overwrites
        // what it reads.
        let n = self.entries.len();
        let blank = Cluster {
            bbox: BBox::new(0.0, 0.0, 0.0, 0.0),
            area: 0.0,
            score: 0.0,
            head: NONE,
            tail: NONE,
            len: 0,
            next_merged: NONE,
        };
        self.clusters.resize(n, blank);
        self.next_member.resize(n, NONE);
        self.founded.resize(n, NONE);
    }

    /// Prepares the loaded boxes for many fusion passes at `iou_thresh`.
    ///
    /// Most clusters of a pass never merge, and the fused box of such a
    /// cluster is its one member's own box, whose IoU with any later box
    /// is the same in every pass. With those computed once, a pass looks
    /// up the few unmerged clusters a box can join and measures the box
    /// against the merged ones only.
    pub(crate) fn index_pairs(&mut self, iou_thresh: f32) {
        self.pairs.clear();
        self.pair_start.clear();
        self.pair_start.push(0);
        self.order.clear();
        self.order.resize(self.entries.len(), 0);
        self.class_len.clear();
        self.class_len.resize(self.classes.len(), 0);
        for (i, e) in self.entries.iter().enumerate() {
            let class = e.class as usize;
            let start = self.class_start[class] as usize;
            let end = start + self.class_len[class] as usize;
            for &j in &self.order[start..end] {
                let earlier = &self.entries[j as usize];
                let iou = earlier.det.bbox.iou_with_areas(earlier.area, &e.det.bbox, e.area);
                if iou > iou_thresh {
                    self.pairs.push((j, iou));
                }
            }
            self.order[end] = i as u32;
            self.class_len[class] += 1;
            self.pair_start.push(self.pairs.len() as u32);
        }
        self.indexed = Some(iou_thresh);
    }

    fn members(&self, c: &Cluster) -> impl Iterator<Item = &Detection> {
        std::iter::successors(Some(c.head), |&i| {
            let next = self.next_member[i as usize];
            (next != NONE).then_some(next)
        })
        .map(|i| &self.entries[i as usize].det)
    }

    /// Confidence-weighted mean box of the members of the cluster in `slot`.
    fn refresh(&mut self, slot: usize) {
        let c = &self.clusters[slot];
        let total: f32 = self.members(c).map(|d| d.score).sum();
        let mut x1 = 0.0;
        let mut y1 = 0.0;
        let mut x2 = 0.0;
        let mut y2 = 0.0;
        for d in self.members(c) {
            let w = d.score / total.max(1e-9);
            x1 += w * d.bbox.x1;
            y1 += w * d.bbox.y1;
            x2 += w * d.bbox.x2;
            y2 += w * d.bbox.y2;
        }
        let score = total / c.len as f32;
        let bbox = BBox::new(x1, y1, x2, y2);
        let c = &mut self.clusters[slot];
        c.bbox = bbox;
        c.area = bbox.area();
        c.score = score;
    }

    /// Weighted boxes fusion over the loaded boxes that `keep` admits, as
    /// the outputs of `num_models` ensemble members; the result is left
    /// in `self.fused`.
    pub(crate) fn fuse_where(
        &mut self,
        keep: impl Fn(&Entry) -> bool,
        params: &WbfParams,
        num_models: usize,
    ) {
        assert!(num_models > 0, "num_models must be positive");
        self.class_len.clear();
        self.class_len.resize(self.classes.len(), 0);
        self.class_merged.clear();
        self.class_merged.resize(self.classes.len(), NONE);
        let admits = |e: &Entry| e.det.score >= params.skip_box_thresh && keep(e);
        let indexed = self.indexed == Some(params.iou_thresh);
        for i in 0..self.entries.len() {
            if !admits(&self.entries[i]) {
                continue;
            }
            let e = self.entries[i];
            let class = e.class as usize;
            let start = self.class_start[class] as usize;
            let end = start + self.class_len[class] as usize;
            // Best-overlapping cluster of the box's class; the first one
            // created wins a tie.
            let mut best: Option<(usize, f32)> = None;
            let mut offer = |slot: usize, iou: f32| {
                if iou > params.iou_thresh
                    && best.is_none_or(|(s, b)| iou > b || (iou == b && slot < s))
                {
                    best = Some((slot, iou));
                }
            };
            let measure = |c: &Cluster| c.bbox.iou_with_areas(c.area, &e.det.bbox, e.area);
            if indexed {
                let mut slot = self.class_merged[class];
                while slot != NONE {
                    let c = &self.clusters[slot as usize];
                    offer(slot as usize, measure(c));
                    slot = c.next_merged;
                }
                let pairs = self.pair_start[i] as usize..self.pair_start[i + 1] as usize;
                for &(j, iou) in &self.pairs[pairs] {
                    // Only if `j` is in this pass and still alone in the
                    // cluster it founded.
                    let slot = self.founded[j as usize];
                    if admits(&self.entries[j as usize])
                        && slot != NONE
                        && self.clusters[slot as usize].len == 1
                    {
                        offer(slot as usize, iou);
                    }
                }
            } else {
                for (slot, c) in (start..end).zip(&self.clusters[start..end]) {
                    offer(slot, measure(c));
                }
            }
            self.next_member[i] = NONE;
            match best {
                Some((slot, _)) => {
                    self.founded[i] = NONE;
                    let c = &mut self.clusters[slot];
                    self.next_member[c.tail as usize] = i as u32;
                    c.tail = i as u32;
                    c.len += 1;
                    if c.len == 2 {
                        c.next_merged =
                            std::mem::replace(&mut self.class_merged[class], slot as u32);
                    }
                    self.refresh(slot);
                }
                None => {
                    self.clusters[end] = Cluster {
                        bbox: e.det.bbox,
                        area: e.area,
                        score: e.det.score,
                        head: i as u32,
                        tail: i as u32,
                        len: 1,
                        next_merged: NONE,
                    };
                    self.founded[i] = end as u32;
                    self.class_len[class] += 1;
                }
            }
        }
        self.order.clear();
        for (start, len) in self.class_start.iter().zip(&self.class_len) {
            for slot in *start..*start + *len {
                let c = &mut self.clusters[slot as usize];
                // Boxes confirmed by fewer models lose confidence.
                let n = (c.len as usize).min(num_models) as f32;
                c.score *= n / num_models as f32;
                if c.score >= params.min_score {
                    self.order.push(slot);
                }
            }
        }
        // Descending score, ties in creation order.
        let clusters = &self.clusters;
        self.order.sort_unstable_by(|&a, &b| {
            let (a, b) = (&clusters[a as usize], &clusters[b as usize]);
            b.score.total_cmp(&a.score).then(a.head.cmp(&b.head))
        });
        self.fused.clear();
        self.fused.extend(self.order.iter().map(|&slot| {
            let c = &clusters[slot as usize];
            Detection::new(c.bbox, self.entries[c.head as usize].det.class_id, c.score)
        }));
    }
}

/// Fuses detections produced by `num_models` ensemble members.
///
/// Returns fused detections sorted by descending score. Cluster scores are
/// rescaled by `min(n_members, num_models) / num_models` so boxes confirmed
/// by fewer models lose confidence — the mechanism that lets late fusion
/// suppress single-sensor hallucinations.
///
/// # Panics
/// Panics if `num_models` is zero.
pub fn weighted_boxes_fusion(
    branch_outputs: &[Vec<Detection>],
    params: &WbfParams,
    num_models: usize,
) -> Vec<Detection> {
    let mut scratch = FusionScratch::default();
    scratch.load(branch_outputs);
    scratch.fuse_where(|_| true, params, num_models);
    scratch.fused
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x1: f32, y1: f32, x2: f32, y2: f32, class: usize, score: f32) -> Detection {
        Detection::new(BBox::new(x1, y1, x2, y2), class, score)
    }

    #[test]
    fn two_agreeing_models_merge() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b = vec![det(0.2, 0.1, 4.1, 4.2, 0, 0.9)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 1);
        // Both models agreed: score is the member average, no down-scale.
        assert!((fused[0].score - 0.85).abs() < 1e-5);
        // Fused box lies between the inputs.
        assert!(fused[0].bbox.x1 > 0.0 && fused[0].bbox.x1 < 0.2);
    }

    #[test]
    fn lone_detection_downweighted() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b: Vec<Detection> = Vec::new();
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 1);
        // Only 1 of 2 models saw it: score halves.
        assert!((fused[0].score - 0.4).abs() < 1e-5);
    }

    #[test]
    fn different_classes_never_merge() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b = vec![det(0.0, 0.0, 4.0, 4.0, 1, 0.8)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn fused_box_within_convex_hull() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.5)];
        let b = vec![det(1.0, 1.0, 5.0, 5.0, 0, 0.5)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        let f = fused[0].bbox;
        assert!(f.x1 >= 0.0 && f.y1 >= 0.0 && f.x2 <= 5.0 && f.y2 <= 5.0);
    }

    #[test]
    fn skip_thresh_filters_inputs() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.01)];
        let fused = weighted_boxes_fusion(&[a], &WbfParams::default(), 1);
        assert!(fused.is_empty());
    }

    #[test]
    fn higher_score_dominates_fused_position() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.9)];
        let b = vec![det(2.0, 0.0, 6.0, 4.0, 0, 0.1)];
        let p = WbfParams { iou_thresh: 0.2, ..Default::default() };
        let fused = weighted_boxes_fusion(&[a, b], &p, 2);
        assert_eq!(fused.len(), 1);
        // Weighted centre x should sit much closer to the 0.9-score box.
        let (cx, _) = fused[0].bbox.center();
        assert!(cx < 2.5, "cx {cx}");
    }

    #[test]
    fn output_sorted_by_score() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.3), det(20.0, 20.0, 24.0, 24.0, 1, 0.9)];
        let fused = weighted_boxes_fusion(&[a], &WbfParams::default(), 1);
        assert!(fused[0].score >= fused[1].score);
    }

    #[test]
    fn empty_inputs_ok() {
        let fused = weighted_boxes_fusion(&[], &WbfParams::default(), 3);
        assert!(fused.is_empty());
    }

    /// A box equally close to two clusters joins the one created first —
    /// also when the pair index offers it second: it visits the merged
    /// cluster before the unmerged one that was founded earlier.
    #[test]
    fn indexed_pass_breaks_ties_like_the_scan() {
        let params = WbfParams::default();
        let outputs = [
            vec![det(0.0, 0.0, 8.0, 8.0, 0, 0.9)],
            vec![det(3.0, 0.0, 11.0, 8.0, 0, 0.8)],
            vec![det(3.0, 0.0, 11.0, 8.0, 0, 0.8)],
            vec![det(1.5, 0.0, 9.5, 8.0, 0, 0.5)],
        ];
        let mut scratch = FusionScratch::default();
        scratch.load(&outputs);
        scratch.fuse_where(|_| true, &params, 4);
        let scanned = scratch.fused.clone();
        assert_eq!(scanned.len(), 2);
        // The two boxes at x = 3 stayed alone; the one at 1.5 went left.
        assert!(scanned.iter().any(|d| d.bbox.x1 == 3.0), "{scanned:?}");
        assert!(scanned.iter().any(|d| d.bbox.x1 > 0.0 && d.bbox.x1 < 1.5), "{scanned:?}");
        scratch.index_pairs(params.iou_thresh);
        scratch.fuse_where(|_| true, &params, 4);
        assert_eq!(scratch.fused, scanned);
    }

    /// NaN scores fail `skip_box_thresh` like low ones.
    #[test]
    fn nan_scores_are_skipped() {
        let mut a: Vec<Detection> = (0..30)
            .map(|i| det(i as f32 * 10.0, 0.0, i as f32 * 10.0 + 4.0, 4.0, 0, 0.5))
            .collect();
        for i in [0, 7, 8, 22] {
            a[i].score = f32::NAN;
        }
        let fused = weighted_boxes_fusion(&[a], &WbfParams::default(), 1);
        assert_eq!(fused.len(), 26);
        assert!(fused.iter().all(|d| d.score == 0.5));
    }

    #[test]
    #[should_panic(expected = "num_models")]
    fn zero_models_panics() {
        let _ = weighted_boxes_fusion(&[], &WbfParams::default(), 0);
    }
}
