//! Scene objects and the RADIATE class set.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The eight annotated object classes of the RADIATE dataset, as listed in
/// §5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Passenger car.
    Car,
    /// Van.
    Van,
    /// Truck.
    Truck,
    /// Bus.
    Bus,
    /// Motorbike.
    Motorbike,
    /// Bicycle.
    Bicycle,
    /// Single pedestrian.
    Pedestrian,
    /// Group of pedestrians.
    GroupOfPedestrians,
}

impl ObjectClass {
    /// All classes in dataset order; the index of a class in this array is
    /// its integer id used by detector heads.
    pub const ALL: [ObjectClass; 8] = [
        ObjectClass::Car,
        ObjectClass::Van,
        ObjectClass::Truck,
        ObjectClass::Bus,
        ObjectClass::Motorbike,
        ObjectClass::Bicycle,
        ObjectClass::Pedestrian,
        ObjectClass::GroupOfPedestrians,
    ];

    /// Number of classes.
    pub const COUNT: usize = 8;

    /// Integer id (index in [`ObjectClass::ALL`]).
    pub fn id(&self) -> usize {
        ObjectClass::ALL.iter().position(|c| c == self).expect("class in ALL")
    }

    /// Typical footprint (width, length) in metres, used both to rasterize
    /// objects into sensor grids and to derive ground-truth boxes.
    pub fn footprint_m(&self) -> (f64, f64) {
        match self {
            ObjectClass::Car => (1.8, 4.5),
            ObjectClass::Van => (2.0, 5.5),
            ObjectClass::Truck => (2.5, 8.0),
            ObjectClass::Bus => (2.5, 11.0),
            ObjectClass::Motorbike => (0.8, 2.2),
            ObjectClass::Bicycle => (0.6, 1.8),
            ObjectClass::Pedestrian => (0.7, 0.7),
            ObjectClass::GroupOfPedestrians => (2.4, 2.4),
        }
    }

    /// Radar cross-section proxy in `[0, 1]`: metallic vehicles return far
    /// stronger radar echoes than pedestrians.
    pub fn radar_reflectivity(&self) -> f64 {
        match self {
            ObjectClass::Car => 0.9,
            ObjectClass::Van => 0.95,
            ObjectClass::Truck => 1.0,
            ObjectClass::Bus => 1.0,
            ObjectClass::Motorbike => 0.6,
            ObjectClass::Bicycle => 0.35,
            ObjectClass::Pedestrian => 0.25,
            ObjectClass::GroupOfPedestrians => 0.45,
        }
    }

    /// Optical contrast proxy in `[0, 1]` for camera rendering.
    pub fn optical_contrast(&self) -> f64 {
        match self {
            ObjectClass::Car => 0.85,
            ObjectClass::Van => 0.85,
            ObjectClass::Truck => 0.9,
            ObjectClass::Bus => 0.95,
            ObjectClass::Motorbike => 0.7,
            ObjectClass::Bicycle => 0.65,
            ObjectClass::Pedestrian => 0.75,
            ObjectClass::GroupOfPedestrians => 0.85,
        }
    }

    /// Whether the class is a pedestrian-type class.
    pub fn is_pedestrian(&self) -> bool {
        matches!(self, ObjectClass::Pedestrian | ObjectClass::GroupOfPedestrians)
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectClass::Car => "car",
            ObjectClass::Van => "van",
            ObjectClass::Truck => "truck",
            ObjectClass::Bus => "bus",
            ObjectClass::Motorbike => "motorbike",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::Pedestrian => "pedestrian",
            ObjectClass::GroupOfPedestrians => "group of pedestrians",
        };
        f.write_str(s)
    }
}

/// An object instance in the ego frame.
///
/// Coordinates: `x` lateral (metres, + right), `y` longitudinal (metres,
/// + forward from the ego vehicle). `heading` is radians from the +y axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Object class.
    pub class: ObjectClass,
    /// Lateral position of the centre, metres.
    pub x: f64,
    /// Longitudinal position of the centre, metres.
    pub y: f64,
    /// Heading, radians from +y.
    pub heading: f64,
    /// Speed along the heading, m/s.
    pub speed: f64,
}

impl SceneObject {
    /// Creates an object of `class` at `(x, y)`.
    pub fn new(class: ObjectClass, x: f64, y: f64) -> Self {
        SceneObject { class, x, y, heading: 0.0, speed: 0.0 }
    }

    /// Axis-aligned bounding half-extents in metres after rotating the
    /// footprint by `heading`.
    pub fn half_extents_m(&self) -> (f64, f64) {
        let (w, l) = self.class.footprint_m();
        let (hw, hl) = (w / 2.0, l / 2.0);
        let (s, c) = self.heading.sin_abs_cos_abs();
        // Rotated rectangle AABB: |c|*w + |s|*l etc.
        (c * hw + s * hl, s * hw + c * hl)
    }

    /// Advances the object `dt` seconds along its heading.
    pub fn step(&mut self, dt: f64) {
        self.x += self.speed * self.heading.sin() * dt;
        self.y += self.speed * self.heading.cos() * dt;
    }
}

trait SinAbsCosAbs {
    fn sin_abs_cos_abs(self) -> (f64, f64);
}

impl SinAbsCosAbs for f64 {
    fn sin_abs_cos_abs(self) -> (f64, f64) {
        (self.sin().abs(), self.cos().abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for (i, c) in ObjectClass::ALL.iter().enumerate() {
            assert_eq!(c.id(), i);
        }
    }

    #[test]
    fn display_matches_dataset_names() {
        assert_eq!(ObjectClass::GroupOfPedestrians.to_string(), "group of pedestrians");
        assert_eq!(ObjectClass::Car.to_string(), "car");
    }

    #[test]
    fn footprints_ordered_sanely() {
        let car = ObjectClass::Car.footprint_m();
        let bus = ObjectClass::Bus.footprint_m();
        let ped = ObjectClass::Pedestrian.footprint_m();
        assert!(bus.1 > car.1, "bus longer than car");
        assert!(ped.1 < car.0, "pedestrian smaller than a car is wide");
    }

    #[test]
    fn radar_reflectivity_vehicle_vs_pedestrian() {
        assert!(
            ObjectClass::Truck.radar_reflectivity() > ObjectClass::Pedestrian.radar_reflectivity()
        );
    }

    #[test]
    fn half_extents_axis_aligned() {
        let o = SceneObject::new(ObjectClass::Car, 0.0, 10.0);
        let (hx, hy) = o.half_extents_m();
        assert!((hx - 0.9).abs() < 1e-9);
        assert!((hy - 2.25).abs() < 1e-9);
    }

    #[test]
    fn half_extents_rotated_quarter_turn() {
        let mut o = SceneObject::new(ObjectClass::Car, 0.0, 10.0);
        o.heading = std::f64::consts::FRAC_PI_2;
        let (hx, hy) = o.half_extents_m();
        // Quarter turn swaps extents.
        assert!((hx - 2.25).abs() < 1e-9);
        assert!((hy - 0.9).abs() < 1e-9);
    }

    #[test]
    fn step_moves_along_heading() {
        let mut o = SceneObject::new(ObjectClass::Car, 0.0, 0.0);
        o.speed = 10.0;
        o.heading = 0.0; // straight ahead (+y)
        o.step(0.5);
        assert!((o.y - 5.0).abs() < 1e-9);
        assert!(o.x.abs() < 1e-9);
    }

    #[test]
    fn predicate_helpers() {
        assert!(ObjectClass::Pedestrian.is_pedestrian());
        assert!(!ObjectClass::Car.is_pedestrian());
    }
}
