//! The configuration space Φ.

use ecofusion_energy::BranchSpec;
use ecofusion_sensors::SensorKind;
use serde::{DeError, Deserialize, Serialize, Value};

/// Index of a branch in [`ConfigSpace::branches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BranchId(pub usize);

/// Index of a configuration (an ensemble of branches) in Φ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigId(pub usize);

/// The paper's configuration space: four single-sensor branches plus three
/// early-fusion branches (§4.3: "one branch for each input sensor and three
/// early fusion branches that fuse both homogeneous and heterogeneous sets
/// of sensors"), and every non-empty ensemble of those branches as a
/// configuration (late fusion over the ensemble, so the model can mix
/// no / early / late fusion freely).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    branches: Vec<BranchSpec>,
    /// [`ConfigSpace::label`] of every configuration, indexed by
    /// `ConfigId`: derived from `branches`, so not serialized.
    labels: Vec<String>,
}

impl Serialize for ConfigSpace {
    fn to_value(&self) -> Value {
        Value::Map(vec![("branches".to_string(), self.branches.to_value())])
    }
}

impl Deserialize for ConfigSpace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Branches {
            branches: Vec<BranchSpec>,
        }
        let Branches { branches } = Branches::from_value(v)?;
        // Bounded before the `2^branches` labels are built (and a branch
        // mask is a `u8`).
        if branches.len() > 8 {
            return Err(DeError::custom(format!(
                "a configuration space has at most 8 branches, not {}",
                branches.len()
            )));
        }
        Ok(ConfigSpace::new(branches))
    }
}

impl ConfigSpace {
    /// Branch indices of the canonical layout.
    pub const CAMERA_LEFT: BranchId = BranchId(0);
    /// Right camera branch.
    pub const CAMERA_RIGHT: BranchId = BranchId(1);
    /// Lidar branch.
    pub const LIDAR: BranchId = BranchId(2);
    /// Radar branch.
    pub const RADAR: BranchId = BranchId(3);
    /// Early fusion of both cameras (homogeneous set).
    pub const EARLY_CAMERAS: BranchId = BranchId(4);
    /// Early fusion of both cameras + lidar (the paper's early baseline).
    pub const EARLY_CCL: BranchId = BranchId(5);
    /// Early fusion of lidar + radar (heterogeneous set).
    pub const EARLY_LR: BranchId = BranchId(6);

    /// The space of every non-empty ensemble of `branches`, with its
    /// labels built once.
    fn new(branches: Vec<BranchSpec>) -> Self {
        let mut space = ConfigSpace { branches, labels: Vec::new() };
        space.labels = (0..space.num_configs())
            .map(|i| {
                let parts: Vec<String> = space
                    .branch_ids(ConfigId(i))
                    .iter()
                    .map(|b| space.branches[b.0].label())
                    .collect();
                format!("{{{}}}", parts.join(", "))
            })
            .collect();
        space
    }

    /// Builds the canonical 7-branch space.
    pub fn canonical() -> Self {
        use SensorKind::{CameraLeft as CL, CameraRight as CR, Lidar as L, Radar as R};
        ConfigSpace::new(vec![
            BranchSpec::Single(CL),
            BranchSpec::Single(CR),
            BranchSpec::Single(L),
            BranchSpec::Single(R),
            BranchSpec::Early(vec![CL, CR]),
            BranchSpec::Early(vec![CL, CR, L]),
            BranchSpec::Early(vec![L, R]),
        ])
    }

    /// The branch specifications.
    pub fn branches(&self) -> &[BranchSpec] {
        &self.branches
    }

    /// Number of branches.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of configurations: every non-empty branch subset.
    pub fn num_configs(&self) -> usize {
        (1 << self.branches.len()) - 1
    }

    /// The bitmask of a configuration (`ConfigId(i)` ↔ mask `i + 1`).
    fn mask(&self, id: ConfigId) -> usize {
        assert!(id.0 < self.num_configs(), "config id {} out of range", id.0);
        id.0 + 1
    }

    /// The branches of a configuration as a bitmask: bit `b` is set when
    /// `BranchId(b)` is a member.
    ///
    /// # Panics
    /// Panics if the space has more than 8 branches.
    pub fn branch_mask(&self, id: ConfigId) -> u8 {
        u8::try_from(self.mask(id)).expect("a branch mask holds at most 8 branches")
    }

    /// Branch indices of a configuration, ascending.
    pub fn branch_ids(&self, id: ConfigId) -> Vec<BranchId> {
        let mask = self.mask(id);
        (0..self.branches.len()).filter(|b| mask & (1 << b) != 0).map(BranchId).collect()
    }

    /// Branch specs of a configuration.
    pub fn branch_specs(&self, id: ConfigId) -> Vec<BranchSpec> {
        self.branch_ids(id).into_iter().map(|b| self.branches[b.0].clone()).collect()
    }

    /// The configuration consisting of exactly the given branches.
    ///
    /// # Panics
    /// Panics if `ids` is empty or contains an out-of-range branch.
    pub fn config_of(&self, ids: &[BranchId]) -> ConfigId {
        assert!(!ids.is_empty(), "a configuration needs at least one branch");
        let mut mask = 0usize;
        for b in ids {
            assert!(b.0 < self.branches.len(), "branch id {} out of range", b.0);
            mask |= 1 << b.0;
        }
        ConfigId(mask - 1)
    }

    /// Human-readable configuration label, e.g. `{C_L, E(C_L+C_R+L)}`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn label(&self, id: ConfigId) -> String {
        assert!(id.0 < self.num_configs(), "config id {} out of range", id.0);
        self.labels[id.0].clone()
    }

    /// Convenience ids for the paper's static baselines.
    ///
    /// `(left camera, right camera, lidar, radar, early fusion, late fusion)`
    /// where early = `E(C_L+C_R+L)` alone and late = all four single-sensor
    /// branches (exactly the rows of Table 1).
    pub fn baseline_ids(&self) -> BaselineIds {
        BaselineIds {
            camera_left: self.config_of(&[Self::CAMERA_LEFT]),
            camera_right: self.config_of(&[Self::CAMERA_RIGHT]),
            lidar: self.config_of(&[Self::LIDAR]),
            radar: self.config_of(&[Self::RADAR]),
            early: self.config_of(&[Self::EARLY_CCL]),
            late: self.config_of(&[
                Self::CAMERA_LEFT,
                Self::CAMERA_RIGHT,
                Self::LIDAR,
                Self::RADAR,
            ]),
        }
    }
}

/// The paper's fixed baseline configurations (Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineIds {
    /// Left camera only.
    pub camera_left: ConfigId,
    /// Right camera only.
    pub camera_right: ConfigId,
    /// Lidar only.
    pub lidar: ConfigId,
    /// Radar only.
    pub radar: ConfigId,
    /// Early fusion `C_L + C_R + L`.
    pub early: ConfigId,
    /// Late fusion `C_L + C_R + L + R`.
    pub late: ConfigId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetSpec};
    use crate::model::{EcoFusionModel, InferenceOptions};
    use ecofusion_tensor::rng::Rng;

    #[test]
    fn canonical_space_shape() {
        let s = ConfigSpace::canonical();
        assert_eq!(s.num_branches(), 7);
        assert_eq!(s.num_configs(), 127);
    }

    #[test]
    fn config_branch_roundtrip() {
        let s = ConfigSpace::canonical();
        for i in 0..s.num_configs() {
            let id = ConfigId(i);
            let ids = s.branch_ids(id);
            assert!(!ids.is_empty());
            assert_eq!(s.config_of(&ids), id);
        }
    }

    #[test]
    fn baseline_ids_consistent() {
        let s = ConfigSpace::canonical();
        let b = s.baseline_ids();
        assert_eq!(s.branch_ids(b.late).len(), 4);
        assert_eq!(s.branch_ids(b.early), vec![ConfigSpace::EARLY_CCL]);
        assert_eq!(s.label(b.camera_left), "{C_L}");
        assert_eq!(s.label(b.early), "{E(C_L+C_R+L)}");
    }

    /// Platform energy (J) and latency (ms) of each of `ids` as an
    /// untrained model serves it as a static baseline: the space names
    /// the baselines, the model's static path charges them.
    fn served_static_costs(ids: &[ConfigId]) -> Vec<(f64, f64)> {
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(1));
        let data = Dataset::generate(&DatasetSpec::small(2));
        let opts = InferenceOptions::new(0.01, 0.5);
        ids.iter()
            .map(|&id| {
                let (_, trace) = model.detect_static(&data.test()[0], id, &opts).unwrap();
                (trace.platform_energy().joules(), trace.total_latency().millis())
            })
            .collect()
    }

    #[test]
    fn energies_match_paper_for_baselines() {
        let b = ConfigSpace::canonical().baseline_ids();
        let costs = served_static_costs(&[b.camera_left, b.radar, b.early, b.late]);
        let e: Vec<f64> = costs.iter().map(|c| c.0).collect();
        assert!((e[0] - 0.945).abs() < 1e-9, "{}", e[0]);
        assert!((e[1] - 0.954).abs() < 1e-9, "{}", e[1]);
        assert!((e[2] - 1.379).abs() < 1e-9, "{}", e[2]);
        assert!((e[3] - 3.798).abs() < 1e-9, "{}", e[3]);
    }

    #[test]
    fn latencies_match_paper_for_baselines() {
        let b = ConfigSpace::canonical().baseline_ids();
        let costs = served_static_costs(&[b.camera_left, b.early, b.late]);
        let t: Vec<f64> = costs.iter().map(|c| c.1).collect();
        assert!((t[0] - 21.57).abs() < 1e-9, "{}", t[0]);
        assert!((t[1] - 31.36).abs() < 1e-9, "{}", t[1]);
        assert!((t[2] - 84.32).abs() < 0.35, "{}", t[2]);
    }

    /// Every configuration of the model's adaptive cost table costs energy.
    #[test]
    fn every_config_has_positive_energy() {
        let model = EcoFusionModel::new(32, 8, &mut Rng::new(1));
        let e = model.config_energies();
        assert_eq!(e.len(), ConfigSpace::canonical().num_configs());
        assert!(e.iter().all(|j| j.joules() > 0.0));
    }

    /// The label table is derived, not stored: a serialized space holds
    /// its branches only, reloads equal, and a branch list too long to
    /// enumerate is refused before any label is built.
    #[test]
    fn serialized_space_rebuilds_its_labels() {
        let s = ConfigSpace::canonical();
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(!json.contains("labels"), "{json}");
        let back: ConfigSpace = serde_json::from_str(&json).expect("reloads");
        assert_eq!(back, s);
        assert_eq!(back.label(ConfigId(126)), s.label(ConfigId(126)));
        let wide = format!("{{\"branches\":[{}]}}", ["{\"Single\":\"Lidar\"}"; 40].join(","));
        let err = serde_json::from_str::<ConfigSpace>(&wide).unwrap_err();
        assert!(err.to_string().contains("at most 8 branches"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_config_panics() {
        let s = ConfigSpace::canonical();
        let _ = s.config_of(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_config_id_panics() {
        let s = ConfigSpace::canonical();
        let _ = s.branch_ids(ConfigId(127));
    }
}
