//! Scene container and ground-truth projection.

use crate::context::Context;
use crate::object::SceneObject;
use serde::{Deserialize, Serialize};

/// Lateral half-width of the observed world region, metres. The sensor
/// frame covers `x ∈ [-WORLD_HALF_WIDTH_M, +WORLD_HALF_WIDTH_M]`.
///
/// Chosen so a car spans several grid cells at the 32–64 px rasters the
/// reproduction trains at (RADIATE's radar frames are 1152² px over a far
/// larger area; the simulator keeps the px-per-object ratio learnable
/// instead of the absolute coverage).
pub const WORLD_HALF_WIDTH_M: f64 = 12.0;

/// Longitudinal depth of the observed world region, metres. The sensor
/// frame covers `y ∈ [0, WORLD_DEPTH_M]` ahead of the ego vehicle.
pub const WORLD_DEPTH_M: f64 = 24.0;

/// Minimum half-extent of a projected ground-truth box, in grid pixels.
/// Physical sensors blur point targets to at least their point-spread /
/// beam width, so a pedestrian never shrinks below a detectable footprint.
pub const MIN_BOX_HALF_PX: f64 = 1.0;

/// A ground-truth axis-aligned box in grid-pixel coordinates plus class id.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GtBox {
    /// Class id (index into `ObjectClass::ALL`).
    pub class_id: usize,
    /// Left edge, pixels.
    pub x1: f32,
    /// Top edge (far end, small y = far), pixels.
    pub y1: f32,
    /// Right edge, pixels.
    pub x2: f32,
    /// Bottom edge, pixels.
    pub y2: f32,
}

impl GtBox {
    /// Box area in square pixels.
    pub fn area(&self) -> f32 {
        (self.x2 - self.x1).max(0.0) * (self.y2 - self.y1).max(0.0)
    }
}

/// A single latent world snapshot: the context plus every object in view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Driving context this scene was sampled from.
    pub context: Context,
    /// Objects in the ego frame.
    pub objects: Vec<SceneObject>,
    /// Ego speed, m/s.
    pub ego_speed: f64,
    /// Unique id for bookkeeping (stable across splits).
    pub id: u64,
}

impl Scene {
    /// Creates an empty scene in `context`.
    pub fn empty(context: Context, id: u64) -> Self {
        Scene { context, objects: Vec::new(), ego_speed: context.profile().ego_speed_mps, id }
    }

    /// Converts world metres to grid pixels for a `grid × grid` raster.
    ///
    /// The mapping places far objects at small row indices (image
    /// convention): `px = (x + W/2) / W * grid`, `py = (D − y) / D * grid`.
    pub fn world_to_grid(x: f64, y: f64, grid: usize) -> (f64, f64) {
        let g = grid as f64;
        let px = (x + WORLD_HALF_WIDTH_M) / (2.0 * WORLD_HALF_WIDTH_M) * g;
        let py = (WORLD_DEPTH_M - y) / WORLD_DEPTH_M * g;
        (px, py)
    }

    /// Ground-truth boxes of all objects projected into a `grid × grid`
    /// raster, clamped to the raster bounds. Boxes are never smaller than
    /// `2 × MIN_BOX_HALF_PX` per side (sensor point-spread).
    pub fn ground_truth_boxes(&self, grid: usize) -> Vec<GtBox> {
        self.ground_truth_iter(grid).collect()
    }

    /// [`Scene::ground_truth_boxes`], box by box, for a caller that keeps
    /// its own buffer.
    pub fn ground_truth_iter(&self, grid: usize) -> impl ExactSizeIterator<Item = GtBox> + '_ {
        let g = grid as f32;
        self.objects.iter().map(move |o| {
            let (hx, hy) = o.half_extents_m();
            let (px1, py1) = Self::world_to_grid(o.x - hx, o.y + hy, grid);
            let (px2, py2) = Self::world_to_grid(o.x + hx, o.y - hy, grid);
            let (cx, cy) = ((px1 + px2) / 2.0, (py1 + py2) / 2.0);
            let hw = ((px2 - px1) / 2.0).max(MIN_BOX_HALF_PX);
            let hh = ((py2 - py1) / 2.0).max(MIN_BOX_HALF_PX);
            GtBox {
                class_id: o.class.id(),
                x1: ((cx - hw) as f32).clamp(0.0, g),
                y1: ((cy - hh) as f32).clamp(0.0, g),
                x2: ((cx + hw) as f32).clamp(0.0, g),
                y2: ((cy + hh) as f32).clamp(0.0, g),
            }
        })
    }

    /// Whether a world-frame point is inside the observed region.
    pub fn in_view(x: f64, y: f64) -> bool {
        x.abs() <= WORLD_HALF_WIDTH_M && (0.0..=WORLD_DEPTH_M).contains(&y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectClass;

    #[test]
    fn world_to_grid_corners() {
        let grid = 64;
        // Near-left corner -> bottom-left pixel region.
        let (px, py) = Scene::world_to_grid(-WORLD_HALF_WIDTH_M, 0.0, grid);
        assert!((px - 0.0).abs() < 1e-9);
        assert!((py - 64.0).abs() < 1e-9);
        // Far-right corner -> top-right.
        let (px, py) = Scene::world_to_grid(WORLD_HALF_WIDTH_M, WORLD_DEPTH_M, grid);
        assert!((px - 64.0).abs() < 1e-9);
        assert!((py - 0.0).abs() < 1e-9);
    }

    #[test]
    fn gt_box_contains_object_center() {
        let mut scene = Scene::empty(Context::City, 0);
        scene.objects.push(SceneObject::new(ObjectClass::Car, 3.0, 20.0));
        let boxes = scene.ground_truth_boxes(64);
        assert_eq!(boxes.len(), 1);
        let b = boxes[0];
        let (cx, cy) = Scene::world_to_grid(3.0, 20.0, 64);
        assert!(b.x1 < cx as f32 && (cx as f32) < b.x2);
        assert!(b.y1 < cy as f32 && (cy as f32) < b.y2);
        assert!(b.area() > 0.0);
    }

    #[test]
    fn gt_boxes_clamped_to_grid() {
        let mut scene = Scene::empty(Context::City, 0);
        // Object at the very edge of view.
        scene.objects.push(SceneObject::new(ObjectClass::Bus, WORLD_HALF_WIDTH_M - 0.1, 1.0));
        let boxes = scene.ground_truth_boxes(64);
        let b = boxes[0];
        assert!(b.x2 <= 64.0 && b.y2 <= 64.0 && b.x1 >= 0.0 && b.y1 >= 0.0);
    }

    #[test]
    fn larger_class_larger_box() {
        let mut scene = Scene::empty(Context::City, 0);
        scene.objects.push(SceneObject::new(ObjectClass::Pedestrian, 0.0, 20.0));
        scene.objects.push(SceneObject::new(ObjectClass::Bus, 10.0, 20.0));
        let boxes = scene.ground_truth_boxes(64);
        assert!(boxes[1].area() > boxes[0].area());
    }

    #[test]
    fn in_view_boundaries() {
        assert!(Scene::in_view(0.0, 0.0));
        assert!(Scene::in_view(-WORLD_HALF_WIDTH_M, WORLD_DEPTH_M));
        assert!(!Scene::in_view(WORLD_HALF_WIDTH_M + 0.1, 10.0));
        assert!(!Scene::in_view(0.0, -0.1));
    }

    #[test]
    fn serde_roundtrip() {
        let mut scene = Scene::empty(Context::Rain, 7);
        scene.objects.push(SceneObject::new(ObjectClass::Van, 1.0, 2.0));
        let json = serde_json::to_string(&scene).unwrap();
        let back: Scene = serde_json::from_str(&json).unwrap();
        assert_eq!(scene, back);
    }
}
