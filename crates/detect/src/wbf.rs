//! Weighted Boxes Fusion — the paper's late-fusion block (§4.4).
//!
//! Implements the algorithm of Solovyev et al., *"Weighted boxes fusion:
//! Ensembling boxes from different object detection models"* (Image and
//! Vision Computing 2021): detections from all branches are clustered by
//! class and IoU; each cluster is replaced by a confidence-weighted average
//! box whose score reflects both the member scores and how many of the
//! contributing models agreed.
//!
//! One pass serves [`weighted_boxes_fusion`], the `Fuse` stage
//! ([`FusionScratch::fuse`]) and [`subset_fusion_losses`](crate::subset_fusion_losses);
//! it costs what it admits and merges, not what the frame holds. Loading
//! sorts the boxes and masks them per branch; a pass ORs its branches'
//! words and walks the set bits. A lone box is a bit in `alone`; clusters
//! of two or more are rows per class, which a box measures besides the
//! lone boxes a pair index (swept once per load) offers. The output merges
//! the lone boxes, in order and scaled by `1/k`, into the sorted rows.

use crate::bbox::{BBox, Detection};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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

/// Terminator of the member chains in [`FusionScratch`].
const NONE: u32 = u32::MAX;

/// One loaded box as the fusion pass reads it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    det: Detection,
    /// `det.bbox.area()`.
    area: f32,
    /// Index of `det.class_id` in [`FusionScratch::classes`].
    class: u32,
    /// Index of the branch output the box came from.
    branch: u32,
}

/// A cluster of two or more boxes.
#[derive(Debug, Clone, Copy)]
struct Merged {
    /// The fused box, its area and score.
    bbox: BBox,
    area: f32,
    score: f32,
    /// Members, in the order they joined, chained through `next_member`;
    /// the founder `head` also ranks clusters by creation.
    head: u32,
    tail: u32,
    len: u32,
}

/// Reusable buffers of the fusion and fusion-loss kernels. A warm scratch
/// (one that has seen a frame at least as large) makes both
/// allocation-free: the oracle scores all 127 configurations of a frame,
/// and the `Fuse` stage fuses one, without touching the heap.
#[derive(Debug, Default)]
pub struct FusionScratch {
    params: WbfParams,
    /// The boxes at or above `skip_box_thresh` as they came (`loaded`), and
    /// by descending score, ties in concatenation order: each subset's input.
    entries: Vec<Entry>,
    loaded: Vec<Entry>,
    /// Distinct class ids of the loaded boxes.
    classes: Vec<usize>,
    /// Bitmasks over `entries`, `words` words each: per branch, per class,
    /// those with an earlier pair partner; per pass, the admitted ones in
    /// no merged cluster, and the ones visited (`paired` + merged classes).
    branch_bits: Vec<u64>,
    class_bits: Vec<u64>,
    paired: Vec<u64>,
    alone: Vec<u64>,
    live: Vec<u64>,
    branches: usize,
    words: usize,
    /// Per class, its merged clusters in creation order: `merged[class_start[c]..]`
    /// (`class_len[c]` of them, room for one per box of the class).
    class_start: Vec<u32>,
    class_len: Vec<u32>,
    merged: Vec<Merged>,
    /// Per entry: the next member of the merged cluster the entry is in.
    next_member: Vec<u32>,
    /// `(later, earlier, iou)` of the same-class pairs above the threshold,
    /// by later entry: entry `i`'s are `pairs[pair_start[i]..pair_start[i + 1]]`.
    pairs: Vec<(u32, u32, f32)>,
    pair_start: Vec<u32>,
    /// Sort keys `(score or left edge, entry)`; merged rows in output order.
    keys: Vec<u64>,
    order: Vec<u32>,
    /// Output of the last pass.
    pub(crate) fused: Vec<Detection>,
    pub(crate) loss: crate::metrics::LossScratch,
}

impl FusionScratch {
    /// [`weighted_boxes_fusion`] out of this scratch's buffers.
    ///
    /// # Panics
    /// Panics if `num_models` is zero.
    pub fn fuse<'a>(
        &mut self,
        branch_outputs: impl IntoIterator<Item = &'a [Detection]>,
        params: &WbfParams,
        num_models: usize,
    ) -> &[Detection] {
        self.load(branch_outputs, params);
        self.fuse_branches(0..self.branches, num_models);
        &self.fused
    }

    /// Loads `branch_outputs` for any number of passes at `params`.
    pub(crate) fn load<'a>(
        &mut self,
        branch_outputs: impl IntoIterator<Item = &'a [Detection]>,
        params: &WbfParams,
    ) {
        self.params = *params;
        self.loaded.clear();
        self.classes.clear();
        self.class_start.clear();
        self.branches = 0;
        for (branch, dets) in branch_outputs.into_iter().enumerate() {
            self.branches = branch + 1;
            self.loaded.reserve(dets.len());
            // A NaN score fails the threshold like a low one.
            for det in dets.iter().filter(|d| d.score >= params.skip_box_thresh) {
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
                let (area, class, branch) = (det.bbox.area(), class as u32, branch as u32);
                self.loaded.push(Entry { det: *det, area, class, branch });
            }
        }
        let mut start = 0;
        for s in &mut self.class_start {
            start += std::mem::replace(s, start);
        }
        // The cluster loop takes the most confident boxes first.
        let (loaded, n, words) = (&self.loaded, self.loaded.len(), self.loaded.len().div_ceil(64));
        self.keys.clear();
        self.keys.extend(loaded.iter().zip(0..).map(|(e, i)| key(-e.det.score, i)));
        self.keys.sort_unstable();
        self.entries.clear();
        self.entries.extend(self.keys.iter().map(|&k| loaded[k as u32 as usize]));
        self.words = words;
        self.branch_bits.clear();
        self.branch_bits.resize(self.branches * words, 0);
        self.class_bits.clear();
        self.class_bits.resize(self.classes.len() * words, 0);
        for (i, e) in self.entries.iter().enumerate() {
            self.branch_bits[e.branch as usize * words + i / 64] |= 1 << (i % 64);
            self.class_bits[e.class as usize * words + i / 64] |= 1 << (i % 64);
        }
        // Room for a cluster per box; a pass overwrites what it reads.
        let zero = BBox::new(0.0, 0.0, 0.0, 0.0);
        self.merged
            .resize(n, Merged { bbox: zero, area: 0.0, score: 0.0, head: 0, tail: 0, len: 0 });
        self.next_member.resize(n, NONE);
        self.index_pairs();
    }

    /// The pair index: per class, a sweep by left edge measures only the
    /// pairs whose x-extents overlap — `iou > t ≥ 0` needs a positive
    /// intersection. Offers are order-independent (largest IoU wins, ties
    /// go to the earliest-created cluster), so a box's pairs are unordered.
    fn index_pairs(&mut self) {
        let (entries, t) = (&self.entries, self.params.iou_thresh);
        // A NaN edge, which `BBox::intersection` skips as `max` does here,
        // sorts first.
        let left = |i: usize| entries[i].det.bbox.x1.max(f32::NEG_INFINITY);
        self.pairs.clear();
        self.paired.clear();
        self.paired.resize(self.words, 0);
        for of_class in self.class_bits.chunks(self.words.max(1)) {
            self.keys.clear();
            self.keys.extend(set_bits(of_class).map(|i| key(left(i), i as u32)));
            self.keys.sort_unstable();
            for (p, &ka) in self.keys.iter().enumerate() {
                let a = &entries[ka as u32 as usize];
                for &kb in &self.keys[p + 1..] {
                    let b = &entries[kb as u32 as usize];
                    // A negative threshold passes zero IoUs: no pruning.
                    if t >= 0.0 && b.det.bbox.x1 >= a.det.bbox.x2 {
                        break;
                    }
                    // The IoU is symmetric but for the sign of a zero.
                    let iou = a.det.bbox.iou_with_areas(a.area, &b.det.bbox, b.area);
                    if iou > t {
                        let (i, j) = ((ka as u32).min(kb as u32), (ka as u32).max(kb as u32));
                        self.pairs.push((j, i, iou));
                        self.paired[j as usize / 64] |= 1 << (j % 64);
                    }
                }
            }
        }
        self.pairs.sort_unstable_by_key(|p| p.0);
        let pairs = &self.pairs;
        self.pair_start.clear();
        let starts = (0..=entries.len() as u32).map(|i| pairs.partition_point(|p| p.0 < i));
        self.pair_start.extend(starts.map(|s| s as u32));
    }

    /// Weighted boxes fusion over the loaded boxes of `branches`, as the
    /// outputs of `models` ensemble members, into `self.fused`.
    pub(crate) fn fuse_branches(&mut self, branches: impl Iterator<Item = usize>, models: usize) {
        assert!(models > 0, "num_models must be positive");
        let words = self.words;
        self.alone.clear();
        self.alone.resize(words, 0);
        for b in branches {
            let mask = &self.branch_bits[b * words..(b + 1) * words];
            self.alone.iter_mut().zip(mask).for_each(|(a, m)| *a |= m);
        }
        self.class_len.clear();
        self.class_len.resize(self.classes.len(), 0);
        self.live.clone_from(&self.paired);
        for w in 0..words {
            let mut bits = self.alone[w] & self.live[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.admit(i);
                // `admit` may have made a class live.
                bits = self.alone[w] & self.live[w] & (u64::MAX << (i % 64) << 1);
            }
        }
        self.emit(models);
    }

    /// Entry `i` joins the cluster of its class it overlaps best above the
    /// threshold — the first one created wins a tie — or stays alone.
    fn admit(&mut self, i: usize) {
        let e = &self.entries[i];
        let class = e.class as usize;
        let start = self.class_start[class] as usize;
        let rows = start..start + self.class_len[class] as usize;
        let t = self.params.iou_thresh;
        // (founder, IoU, its row unless it is alone)
        let mut best: Option<(u32, f32, Option<usize>)> = None;
        let mut offer = |head: u32, iou: f32, row: Option<usize>| {
            if iou > t && best.is_none_or(|(h, b, _)| iou > b || (iou == b && head < h)) {
                best = Some((head, iou, row));
            }
        };
        for (row, m) in rows.clone().zip(&self.merged[rows]) {
            offer(m.head, m.bbox.iou_with_areas(m.area, &e.det.bbox, e.area), Some(row));
        }
        let pairs = self.pair_start[i] as usize..self.pair_start[i + 1] as usize;
        for &(_, j, iou) in &self.pairs[pairs] {
            if self.alone[j as usize / 64] >> (j % 64) & 1 != 0 {
                offer(j, iou, None);
            }
        }
        let Some((head, _, row)) = best else { return };
        let row = row.unwrap_or_else(|| {
            // The lone founder's cluster becomes a row; its class is live.
            if self.class_len[class] == 0 {
                let bits = &self.class_bits[class * self.words..(class + 1) * self.words];
                self.live.iter_mut().zip(bits).for_each(|(l, c)| *l |= c);
            }
            let row = start + self.class_len[class] as usize;
            self.class_len[class] += 1;
            self.alone[head as usize / 64] &= !(1 << (head % 64));
            self.merged[row] = Merged { head, tail: head, len: 1, ..self.merged[row] };
            row
        });
        self.alone[i / 64] &= !(1 << (i % 64));
        self.next_member[i] = NONE;
        let m = &mut self.merged[row];
        self.next_member[m.tail as usize] = i as u32;
        m.tail = i as u32;
        m.len += 1;
        self.refresh(row);
    }

    /// Confidence-weighted mean box of the members of merged cluster `row`.
    fn refresh(&mut self, row: usize) {
        let m = self.merged[row];
        let members = || {
            std::iter::successors(Some(m.head), |&i| {
                let next = self.next_member[i as usize];
                (next != NONE).then_some(next)
            })
            .map(|i| &self.entries[i as usize].det)
        };
        let total: f32 = members().map(|d| d.score).sum();
        let (mut x1, mut y1, mut x2, mut y2) = (0.0, 0.0, 0.0, 0.0);
        for d in members() {
            let w = d.score / total.max(1e-9);
            x1 += w * d.bbox.x1;
            y1 += w * d.bbox.y1;
            x2 += w * d.bbox.x2;
            y2 += w * d.bbox.y2;
        }
        let bbox = BBox::new(x1, y1, x2, y2);
        self.merged[row] = Merged { bbox, area: bbox.area(), score: total / m.len as f32, ..m };
    }

    /// `fused` ← the pass's clusters at or above `min_score`, scored by
    /// how many of the `num_models` members agreed, in descending score
    /// order, ties in creation order.
    fn emit(&mut self, num_models: usize) {
        let (k, min_score) = (num_models as f32, self.params.min_score);
        self.order.clear();
        for (start, len) in self.class_start.iter().zip(&self.class_len) {
            for row in *start..*start + *len {
                let m = &mut self.merged[row as usize];
                // Boxes confirmed by fewer models lose confidence.
                m.score *= (m.len as usize).min(num_models) as f32 / k;
                if m.score >= min_score {
                    self.order.push(row);
                }
            }
        }
        let (entries, merged) = (&self.entries, &self.merged);
        let rank = |m: &Merged| key(-m.score, m.head);
        self.order.sort_unstable_by_key(|&row| rank(&merged[row as usize]));
        let mut rows = self.order.iter().map(|&row| &merged[row as usize]).peekable();
        let fused =
            |m: &Merged| Detection::new(m.bbox, entries[m.head as usize].det.class_id, m.score);
        self.fused.clear();
        for i in set_bits(&self.alone) {
            let e = &entries[i].det;
            // Scaling keeps the lone boxes' descending order: the first
            // under `min_score` ends them.
            let score = e.score * (1.0 / k);
            if score.partial_cmp(&min_score).is_none_or(Ordering::is_lt) {
                break;
            }
            let first = |m: &&Merged| rank(m) < key(-score, i as u32);
            self.fused.extend(std::iter::from_fn(|| rows.next_if(first)).map(fused));
            self.fused.push(Detection::new(e.bbox, e.class_id, score));
        }
        self.fused.extend(rows.map(fused));
    }
}

/// `(x, i)` as one key that sorts like `(x, i)` with [`f32::total_cmp`].
fn key(x: f32, i: u32) -> u64 {
    let b = x.to_bits();
    ((b ^ ((b as i32 >> 31) as u32 | 0x8000_0000)) as u64) << 32 | i as u64
}

/// The indices of the set bits of `words`, in order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |b| Some(b & b.wrapping_sub(1)))
            .take_while(|&b| b != 0)
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
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
    scratch.fuse(branch_outputs.iter().map(Vec::as_slice), params, num_models);
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

    /// A box equally close to two clusters joins the one created first,
    /// as the full scan over every cluster did — also when the merged
    /// cluster is the one measured and the earlier founder a lone box of
    /// the pair index.
    #[test]
    fn indexed_pass_breaks_ties_like_the_scan() {
        let outputs = [
            vec![det(0.0, 0.0, 8.0, 8.0, 0, 0.9)],
            vec![det(3.0, 0.0, 11.0, 8.0, 0, 0.8)],
            vec![det(3.0, 0.0, 11.0, 8.0, 0, 0.8)],
            vec![det(1.5, 0.0, 9.5, 8.0, 0, 0.5)],
        ];
        let fused = weighted_boxes_fusion(&outputs, &WbfParams::default(), 4);
        assert_eq!(fused.len(), 2);
        // The two boxes at x = 3 merged; the one at 1.5 went left.
        assert!(fused.iter().any(|d| d.bbox.x1 == 3.0 && d.score == 0.4), "{fused:?}");
        assert!(fused.iter().any(|d| d.bbox.x1 > 0.0 && d.bbox.x1 < 1.5), "{fused:?}");
    }

    /// The pair index measures every pair that can pass the threshold: a
    /// sliver of overlap at threshold 0; a box whose left edge is NaN,
    /// which `BBox::intersection` skips (it has no area, so its IoU with a
    /// box holding the intersection can pass 1); and, under a negative
    /// threshold, which a zero IoU passes, every pair of a class.
    #[test]
    fn the_sweep_misses_no_pair_that_can_merge() {
        let a = det(0.0, 0.0, 4.0, 4.0, 0, 0.9);
        let sliver = det(3.999, 0.0, 8.0, 4.0, 0, 0.8);
        let far = det(20.0, 20.0, 24.0, 24.0, 0, 0.7);
        let nan_left = Detection::new(BBox { x1: f32::NAN, y1: 0.0, x2: 3.0, y2: 4.0 }, 0, 0.8);
        let fused = |b: Vec<Detection>, iou_thresh| {
            let params = WbfParams { iou_thresh, ..WbfParams::default() };
            weighted_boxes_fusion(&[vec![a], b], &params, 2).len()
        };
        assert_eq!(fused(vec![sliver, far], 0.5), 3);
        assert_eq!(fused(vec![sliver, far], 0.0), 2);
        assert_eq!(fused(vec![nan_left, far], 0.5), 2);
        assert_eq!(fused(vec![far], -0.5), 1);
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
