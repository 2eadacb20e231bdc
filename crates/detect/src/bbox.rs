//! Axis-aligned bounding boxes and detections.

use ecofusion_scene::GtBox;
use serde::{Deserialize, Serialize};

/// An axis-aligned box in grid-pixel coordinates, `(x1, y1)` top-left and
/// `(x2, y2)` bottom-right.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BBox {
    /// Left edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
    /// Right edge.
    pub x2: f32,
    /// Bottom edge.
    pub y2: f32,
}

impl BBox {
    /// Creates a box, normalizing so `x1 <= x2` and `y1 <= y2`.
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        BBox { x1: x1.min(x2), y1: y1.min(y2), x2: x1.max(x2), y2: y1.max(y2) }
    }

    /// Box area (non-negative).
    pub fn area(&self) -> f32 {
        (self.x2 - self.x1).max(0.0) * (self.y2 - self.y1).max(0.0)
    }

    /// Box centre.
    pub fn center(&self) -> (f32, f32) {
        ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Width of the box.
    pub fn width(&self) -> f32 {
        (self.x2 - self.x1).max(0.0)
    }

    /// Height of the box.
    pub fn height(&self) -> f32 {
        (self.y2 - self.y1).max(0.0)
    }

    /// Intersection area with `other`.
    pub fn intersection(&self, other: &BBox) -> f32 {
        let w = (self.x2.min(other.x2) - self.x1.max(other.x1)).max(0.0);
        let h = (self.y2.min(other.y2) - self.y1.max(other.y1)).max(0.0);
        w * h
    }

    /// Intersection-over-union with `other`, in `[0, 1]`.
    pub fn iou(&self, other: &BBox) -> f32 {
        self.iou_with_areas(self.area(), other, other.area())
    }

    /// [`BBox::iou`] for callers that hold both areas already (the
    /// fusion and loss kernels compute each box's area once, not once
    /// per pair).
    pub(crate) fn iou_with_areas(&self, area: f32, other: &BBox, other_area: f32) -> f32 {
        let inter = self.intersection(other);
        let union = area + other_area - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Generalized IoU (Rezatofighi et al.), in `[-1, 1]`.
    pub fn giou(&self, other: &BBox) -> f32 {
        let iou = self.iou(other);
        let cx1 = self.x1.min(other.x1);
        let cy1 = self.y1.min(other.y1);
        let cx2 = self.x2.max(other.x2);
        let cy2 = self.y2.max(other.y2);
        let hull = ((cx2 - cx1) * (cy2 - cy1)).max(1e-9);
        let union = self.area() + other.area() - self.intersection(other);
        iou - (hull - union) / hull
    }

    /// Clamps the box into `[0, size] × [0, size]`.
    pub fn clamped(&self, size: f32) -> BBox {
        BBox {
            x1: self.x1.clamp(0.0, size),
            y1: self.y1.clamp(0.0, size),
            x2: self.x2.clamp(0.0, size),
            y2: self.y2.clamp(0.0, size),
        }
    }
}

impl From<GtBox> for BBox {
    fn from(g: GtBox) -> Self {
        BBox::new(g.x1, g.y1, g.x2, g.y2)
    }
}

/// A scored, classified detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Predicted box.
    pub bbox: BBox,
    /// Predicted class id.
    pub class_id: usize,
    /// Confidence score in `[0, 1]`.
    pub score: f32,
}

impl Detection {
    /// Creates a detection.
    pub fn new(bbox: BBox, class_id: usize, score: f32) -> Self {
        Detection { bbox, class_id, score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let b = BBox::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!(b.x1, 1.0);
        assert_eq!(b.y1, 2.0);
        assert_eq!(b.x2, 5.0);
        assert_eq!(b.y2, 6.0);
    }

    #[test]
    fn iou_identical_is_one() {
        let b = BBox::new(0.0, 0.0, 4.0, 4.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BBox::new(1.0, 0.0, 3.0, 2.0);
        // inter = 2, union = 6.
        assert!((a.iou(&b) - 2.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn iou_symmetric() {
        let a = BBox::new(0.0, 0.0, 3.0, 2.0);
        let b = BBox::new(1.0, 1.0, 4.0, 5.0);
        assert_eq!(a.iou(&b), b.iou(&a));
    }

    #[test]
    fn giou_less_than_iou_when_disjoint() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(3.0, 3.0, 4.0, 4.0);
        assert!(a.giou(&b) < 0.0);
        let c = BBox::new(0.0, 0.0, 1.0, 1.0);
        assert!((a.giou(&c) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_box_zero_area() {
        let b = BBox::new(1.0, 1.0, 1.0, 5.0);
        assert_eq!(b.area(), 0.0);
        let other = BBox::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(b.iou(&other), 0.0);
    }

    #[test]
    fn clamped_within_bounds() {
        let b = BBox::new(-3.0, -1.0, 70.0, 65.0).clamped(64.0);
        assert_eq!(b, BBox::new(0.0, 0.0, 64.0, 64.0));
    }

    #[test]
    fn from_gtbox() {
        let g = GtBox { class_id: 2, x1: 1.0, y1: 2.0, x2: 3.0, y2: 4.0 };
        let b: BBox = g.into();
        assert_eq!(b, BBox::new(1.0, 2.0, 3.0, 4.0));
    }
}
