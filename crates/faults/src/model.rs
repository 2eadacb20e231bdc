//! The fault model library: what each fault kind does to a grid.

use ecofusion_scene::Context;
use ecofusion_sensors::grid;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Upper clamp applied after noise-injecting faults, slightly above the
/// hottest clean sensor output so a noise burst can saturate cells but not
/// push unbounded values into the stems.
pub const FAULT_CLAMP_HI: f32 = 2.0;

/// Calibration drift speed: grid cells of spatial offset accumulated per
/// faulty frame at severity 1.
pub const DRIFT_CELLS_PER_FRAME: f64 = 0.25;

/// The supported sensor degradation modes.
///
/// Every kind is scaled by a severity in `[0, 1]` and applied to one
/// sensor's observation grid; kinds compose freely (several events may hit
/// the same sensor in the same frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// Total or partial signal loss: the grid is scaled by
    /// `1 − severity` (a blank grid at severity 1 — a dead sensor or a
    /// fully occluded aperture).
    Dropout,
    /// The sensor repeats its last delivered observation (a wedged driver
    /// or a stuck capture buffer). Severity is ignored: a frame is either
    /// frozen or live.
    FrozenFrame,
    /// SNR collapse: strong Gaussian noise plus salt speckle swamp the
    /// signal (interference, a failing ADC, heavy spray on the optics).
    NoiseBurst,
    /// Spatial miscalibration that grows over the fault's lifetime: the
    /// grid shifts sideways by [`DRIFT_CELLS_PER_FRAME`]` × severity`
    /// cells per faulty frame (a knocked mount slowly working loose).
    CalibrationDrift,
    /// Context-tied weather attenuation: the grid is scaled toward the
    /// sensor's worst-case signal retention for the scene's context
    /// ([`Context::weather_attenuation`]) — fog blinds optics, radar
    /// barely notices.
    WeatherAttenuation,
}

impl FaultKind {
    /// Every fault kind, in a stable order (fault-matrix sweeps iterate
    /// this).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Dropout,
        FaultKind::FrozenFrame,
        FaultKind::NoiseBurst,
        FaultKind::CalibrationDrift,
        FaultKind::WeatherAttenuation,
    ];

    /// Short label for tables and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Dropout => "dropout",
            FaultKind::FrozenFrame => "frozen",
            FaultKind::NoiseBurst => "noise-burst",
            FaultKind::CalibrationDrift => "calib-drift",
            FaultKind::WeatherAttenuation => "weather",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Applies a stateless fault kind to one sensor grid in place.
///
/// [`FaultKind::FrozenFrame`] is *not* stateless (it needs the previous
/// observation) and is handled by the
/// [`FaultInjector`](crate::FaultInjector); here it is a documented
/// pass-through — the grid is left untouched. Freezing to the *current*
/// frame is indistinguishable from no fault on a single grid, so the
/// identity is the only behavior this signature can implement, and
/// panicking instead used to take down whole schedule sweeps whose storm
/// composition happened to route a frozen event through the stateless
/// path.
///
/// `frames_since_onset` drives time-growing faults (calibration drift);
/// `rng` must be a per-`(frame, event)` seeded stream so injection stays
/// reproducible regardless of schedule composition.
///
/// # Panics
/// Panics on a severity outside `[0, 1]`.
pub fn apply_stateless(
    grid: &mut Tensor,
    kind: FaultKind,
    severity: f64,
    context: Context,
    sensor_index: usize,
    frames_since_onset: u64,
    rng: &mut Rng,
) {
    assert!((0.0..=1.0).contains(&severity), "fault severity must be in [0, 1]");
    let sev = severity as f32;
    match kind {
        FaultKind::Dropout => {
            let keep = 1.0 - sev;
            for v in grid.data_mut() {
                *v *= keep;
            }
        }
        FaultKind::FrozenFrame => {
            // Stateful kind, stateless path: pass through unchanged (see
            // the function docs). The FaultInjector owns real freezing.
        }
        FaultKind::NoiseBurst => {
            grid::add_gaussian_noise(grid, 0.6 * sev, rng);
            grid::add_salt_noise(grid, 0.25 * severity, 1.2 * sev, rng);
            grid::clamp(grid, FAULT_CLAMP_HI);
        }
        FaultKind::CalibrationDrift => {
            let g = grid.shape()[3];
            let cells = (DRIFT_CELLS_PER_FRAME * severity * (frames_since_onset + 1) as f64).round()
                as usize;
            let offset = cells.min(g);
            if offset > 0 {
                shift_right(grid, offset);
            }
        }
        FaultKind::WeatherAttenuation => {
            let retention = context.weather_attenuation()[sensor_index] as f32;
            let factor = 1.0 - sev * (1.0 - retention);
            for v in grid.data_mut() {
                *v *= factor;
            }
        }
    }
}

/// Shifts every row of a `(1, 1, g, g)` grid right by `offset` cells,
/// zero-filling the vacated left edge (returns exit the field of view).
fn shift_right(grid: &mut Tensor, offset: usize) {
    let g = grid.shape()[3];
    for y in 0..g {
        for x in (0..g).rev() {
            let v = if x >= offset { grid.get4(0, 0, y, x - offset) } else { 0.0 };
            grid.set4(0, 0, y, x, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_grid(g: usize) -> Tensor {
        let mut t = Tensor::zeros(&[1, 1, g, g]);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            *v = i as f32 * 0.01;
        }
        t
    }

    #[test]
    fn dropout_full_severity_blanks() {
        let mut t = ramp_grid(8);
        apply_stateless(&mut t, FaultKind::Dropout, 1.0, Context::City, 0, 0, &mut Rng::new(1));
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn dropout_half_severity_halves() {
        let mut t = ramp_grid(8);
        let before = t.sum();
        apply_stateless(&mut t, FaultKind::Dropout, 0.5, Context::City, 0, 0, &mut Rng::new(1));
        assert!((t.sum() - 0.5 * before).abs() < 1e-4);
    }

    #[test]
    fn noise_burst_raises_variance_and_stays_clamped() {
        let mut t = Tensor::zeros(&[1, 1, 16, 16]);
        apply_stateless(&mut t, FaultKind::NoiseBurst, 1.0, Context::City, 2, 0, &mut Rng::new(2));
        assert!(t.norm_sq() > 1.0, "burst should inject substantial energy");
        assert!(t.max() <= FAULT_CLAMP_HI && t.min() >= 0.0);
    }

    #[test]
    fn drift_grows_with_time() {
        let offset_of = |since: u64| {
            let mut t = Tensor::zeros(&[1, 1, 16, 16]);
            t.set4(0, 0, 8, 4, 1.0);
            apply_stateless(
                &mut t,
                FaultKind::CalibrationDrift,
                1.0,
                Context::City,
                3,
                since,
                &mut Rng::new(3),
            );
            (0..16).find(|&x| t.get4(0, 0, 8, x) > 0.0)
        };
        assert_eq!(offset_of(3), Some(5), "1 cell after 4 faulty frames at 0.25 cells/frame");
        assert_eq!(offset_of(15), Some(8), "4 cells after 16 faulty frames");
        assert_eq!(offset_of(1000), None, "content fully drifted out of view");
    }

    #[test]
    fn weather_attenuation_tracks_context_profile() {
        let mut fog_cam = ramp_grid(8);
        let before = fog_cam.sum();
        apply_stateless(
            &mut fog_cam,
            FaultKind::WeatherAttenuation,
            1.0,
            Context::Fog,
            0,
            0,
            &mut Rng::new(4),
        );
        let expect = Context::Fog.weather_attenuation()[0] as f32;
        assert!((fog_cam.sum() - expect * before).abs() < 1e-3);

        // Radar in fog barely moves.
        let mut fog_radar = ramp_grid(8);
        let before_r = fog_radar.sum();
        apply_stateless(
            &mut fog_radar,
            FaultKind::WeatherAttenuation,
            1.0,
            Context::Fog,
            3,
            0,
            &mut Rng::new(5),
        );
        assert!(fog_radar.sum() > 0.9 * before_r);
    }

    #[test]
    fn zero_severity_is_identity_for_scaling_faults() {
        for kind in [FaultKind::Dropout, FaultKind::WeatherAttenuation, FaultKind::CalibrationDrift]
        {
            let mut t = ramp_grid(8);
            let before = t.clone();
            apply_stateless(&mut t, kind, 0.0, Context::Snow, 1, 7, &mut Rng::new(6));
            assert_eq!(t, before, "{kind:?}");
        }
    }

    #[test]
    fn frozen_frame_is_stateless_passthrough() {
        // The stateful kind must not panic the stateless path: it passes
        // the grid through untouched and draws no random numbers.
        let mut t = ramp_grid(8);
        let before = t.clone();
        let mut rng = Rng::new(7);
        apply_stateless(&mut t, FaultKind::FrozenFrame, 1.0, Context::City, 0, 0, &mut rng);
        assert_eq!(t, before);
        let mut fresh = Rng::new(7);
        assert_eq!(rng.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0), "no RNG draws");
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn out_of_range_severity_panics() {
        let mut t = ramp_grid(8);
        apply_stateless(&mut t, FaultKind::Dropout, 1.5, Context::City, 0, 0, &mut Rng::new(8));
    }

    #[test]
    fn labels_stable() {
        assert_eq!(FaultKind::Dropout.to_string(), "dropout");
        assert_eq!(FaultKind::ALL.len(), 5);
    }
}
