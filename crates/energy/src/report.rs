//! Combined energy reporting (Eq. 11): the platform / sensor split of a
//! [`StageTrace`], which is where the numbers are composed.

use crate::precision::Precision;
use crate::px2::{BranchSpec, Px2Model, StemPolicy};
use crate::sensors::SensorPowerModel;
use crate::stage::StageTrace;
use crate::units::{Joules, Millis};
use serde::{Deserialize, Serialize};

/// Energy and latency of one frame under a configuration, split into the
/// platform (PX2) share and the sensor share: a view of a [`StageTrace`]
/// ([`StageTrace::breakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// PX2 platform energy `E(φ)` (Eq. 6).
    pub platform: Joules,
    /// Sensor energy `Σ E_s` with unused sensors clock gated (Eq. 10).
    pub sensors_gated: Joules,
    /// Sensor energy with all sensors active (no clock gating).
    pub sensors_all_active: Joules,
    /// Pipeline latency of the configuration.
    pub latency: Millis,
}

impl EnergyBreakdown {
    /// The f32 breakdown of a set of branches: their
    /// [`StageTrace::compute_prec`], viewed.
    pub fn compute(
        px2: &Px2Model,
        sensors: &SensorPowerModel,
        branches: &[BranchSpec],
        policy: StemPolicy,
    ) -> Self {
        StageTrace::compute_prec(px2, sensors, branches, policy, Precision::F32).breakdown(sensors)
    }

    /// Total energy with clock gating: `E_total = E(φ) + Σ_{s∈φ} E_s`
    /// (Eq. 11; unused sensors pay motor power only).
    pub fn total_gated(&self) -> Joules {
        self.platform + self.sensors_gated
    }

    /// Total energy without clock gating (all sensors always measuring).
    pub fn total_ungated(&self) -> Joules {
        self.platform + self.sensors_all_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_sensors::SensorKind;
    use SensorKind::{CameraLeft as CL, CameraRight as CR, Lidar as L, Radar as R};

    fn late4() -> Vec<BranchSpec> {
        vec![
            BranchSpec::Single(CL),
            BranchSpec::Single(CR),
            BranchSpec::Single(L),
            BranchSpec::Single(R),
        ]
    }

    #[test]
    fn late_fusion_matches_table3_baseline() {
        let b = EnergyBreakdown::compute(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &late4(),
            StemPolicy::Static,
        );
        // Table 3: late fusion total 13.27 J in every scene.
        assert!((b.total_gated().joules() - 13.273).abs() < 0.01, "{}", b.total_gated());
        // With all sensors in use, gated == ungated.
        assert!((b.total_gated().joules() - b.total_ungated().joules()).abs() < 1e-9);
    }

    #[test]
    fn city_config_matches_table3() {
        // Knowledge gate in City: early-3 (C_L+C_R+L), radar gated.
        let b = EnergyBreakdown::compute(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &[BranchSpec::Early(vec![CL, CR, L])],
            StemPolicy::Static,
        );
        // 1.379 + 0.475 (cams) + 3.0 (lidar) + 0.6 (radar motor) = 5.454.
        assert!((b.total_gated().joules() - 5.454).abs() < 0.01, "{}", b.total_gated());
    }

    #[test]
    fn junction_config_matches_table3() {
        // Knowledge gate at junctions: early-2 cameras, radar+lidar gated.
        let b = EnergyBreakdown::compute(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &[BranchSpec::Early(vec![CL, CR])],
            StemPolicy::Static,
        );
        // 1.195 + 0.475 + 0.6 + 0.6 = 2.87.
        assert!((b.total_gated().joules() - 2.87).abs() < 0.01, "{}", b.total_gated());
    }

    #[test]
    fn night_config_matches_table3() {
        // Night: late fusion of {R, L, C_R}; left camera gated (free).
        let b = EnergyBreakdown::compute(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &[BranchSpec::Single(R), BranchSpec::Single(L), BranchSpec::Single(CR)],
            StemPolicy::Static,
        );
        // 2.853 platform + 6 + 3 + 0.2375 = 12.09.
        assert!((b.total_gated().joules() - 12.091).abs() < 0.01, "{}", b.total_gated());
    }

    #[test]
    fn gating_saves_vs_ungated() {
        let b = EnergyBreakdown::compute(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &[BranchSpec::Early(vec![CL, CR])],
            StemPolicy::Static,
        );
        assert!(b.total_gated().joules() < b.total_ungated().joules());
    }
}
