//! Calibrated Nvidia Drive PX2 platform model.
//!
//! # Calibration (derived from paper Table 1)
//!
//! The paper reports, per static configuration (energy J / latency ms):
//!
//! ```text
//! single camera     0.945 / 21.57      early-3 (C_L+C_R+L)  1.379 / 31.36
//! single radar      0.954 / 21.85      late-4 (all)         3.798 / 84.32
//! single lidar      0.954 / 21.85
//! ```
//!
//! Late-4 energy is *exactly* the sum of the four single-sensor energies
//! (0.945·2 + 0.954·2 = 3.798), so energy composes additively. Splitting
//! each single configuration into stem + branch with a stem share of
//! 0.088 J / 2.0 ms (one convolution block ≈ 9 % of the single-sensor
//! pipeline) reproduces every published row; the early-2 branch energy
//! 1.019 J is implied by Table 3's junction/motorway row
//! (1.195 + 2·(1.9/8) + 2·(2.4/4) = 2.87 J, matching the paper exactly).
//!
//! Latency composes additively with an ensemble-overlap factor of 0.958
//! applied to the branch sum when two or more branches run (the PX2's two
//! GPUs pipeline independent branches): 8 + 0.958·78.84 + 0.8 ≈ 84.3 ms
//! matches the late-4 row.
//!
//! # Calibration, not composition
//!
//! [`Px2Model`] is the calibration table: per-component costs and the
//! int8 scales. Turning them into one configuration's cost — stems per
//! [`StemPolicy`], the branch sum and its ensemble overlap, gate and
//! fusion block, and the sensors' Eq. 10 share — is done in one place,
//! [`StageTrace::compute_prec`](crate::stage::StageTrace::compute_prec).

use crate::precision::Precision;
use crate::units::{Joules, Millis, Watts};
use ecofusion_sensors::SensorKind;
use serde::{Deserialize, Serialize};

/// Default int8/f32 cost ratio of a stem execution, applied to the PX2
/// calibration as a multiplicative scale: the model's `dp4a` regime — the
/// PX2's Pascal GPUs run int8 dot products four wide at ~4× the f32 MAC
/// rate. It is not the host's ratio: the reference host's compiled int8
/// stem plan takes 1.08× its f32 twin's time (`fused_pipeline/
/// stem_plan_batch64{_int8,}`, `BENCH_27.json`), since a one-channel
/// input fills one lane of each 4-channel quad.
pub const INT8_STEM_SCALE: f64 = 0.41;

/// Default int8/f32 cost ratio of a branch-body execution, the model's
/// `dp4a` regime like [`INT8_STEM_SCALE`]: branches are deeper (three
/// convolution blocks + head) and pay more dequantization traffic at
/// stage boundaries, so the ratio is slightly worse than the stem's. On
/// the reference host the compiled int8 branch plan takes 0.36× its f32
/// twin's time (`fused_pipeline/branch_plan_batch16{_int8,}`,
/// `BENCH_27.json`).
pub const INT8_BRANCH_SCALE: f64 = 0.45;

/// What a branch consumes: one sensor (no fusion) or an early-fused set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchSpec {
    /// Single-sensor branch (paper: "no fusion" within the branch).
    Single(SensorKind),
    /// Early-fusion branch over the given sensors (raw/stem-feature concat).
    Early(Vec<SensorKind>),
}

impl BranchSpec {
    /// The sensors this branch consumes.
    pub fn sensors(&self) -> Vec<SensorKind> {
        self.sensor_slice().to_vec()
    }

    /// [`BranchSpec::sensors`], borrowed.
    pub fn sensor_slice(&self) -> &[SensorKind] {
        match self {
            BranchSpec::Single(s) => std::slice::from_ref(s),
            BranchSpec::Early(v) => v,
        }
    }

    /// Number of sensors consumed.
    pub fn arity(&self) -> usize {
        match self {
            BranchSpec::Single(_) => 1,
            BranchSpec::Early(v) => v.len(),
        }
    }

    /// Compact label (e.g. `C_L`, `E(C_L+C_R+L)`).
    pub fn label(&self) -> String {
        match self {
            BranchSpec::Single(s) => s.abbrev().to_string(),
            BranchSpec::Early(v) => {
                let inner: Vec<&str> = v.iter().map(|s| s.abbrev()).collect();
                format!("E({})", inner.join("+"))
            }
        }
    }
}

/// How stems are charged to a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StemPolicy {
    /// Static pipeline (paper Table 1 baselines and Table 3 knowledge
    /// configurations): every branch is compiled as an independent network
    /// with its *own* stems, so a configuration pays one stem per sensor
    /// per branch (Table 3's fog row is only reproduced with this
    /// accounting — its config energy is the plain sum of the published
    /// per-configuration energies).
    Static,
    /// Adaptive EcoFusion pipeline: all four stems always run (the gate
    /// needs every modality's features to identify the context) and run
    /// concurrently, so they contribute the energy of four stems but the
    /// latency of one.
    Adaptive,
}

/// Calibrated PX2 cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Px2Model {
    /// Energy of one stem execution.
    pub stem_energy: Joules,
    /// Latency of one stem execution.
    pub stem_latency: Millis,
    /// Energy/latency of a single-sensor camera branch.
    pub camera_branch: (Joules, Millis),
    /// Energy/latency of a single-sensor radar or lidar branch.
    pub range_branch: (Joules, Millis),
    /// Energy/latency of the two-camera early-fusion branch.
    pub early2_branch: (Joules, Millis),
    /// Energy/latency of the three-sensor early-fusion branch.
    pub early3_branch: (Joules, Millis),
    /// Energy/latency of the lidar+radar early-fusion branch (not in the
    /// paper's tables; interpolated between early-2 and the range-sensor
    /// premium).
    pub early_lr_branch: (Joules, Millis),
    /// Gate inference cost. The paper measures < 0.005 J after TensorRT
    /// compilation and ignores it; the default charges zero energy and
    /// 1 ms latency.
    pub gate: (Joules, Millis),
    /// Weighted-boxes-fusion block cost (CPU-side, negligible energy).
    pub fusion_block: (Joules, Millis),
    /// Multiplier on the branch-latency sum when ≥ 2 branches run.
    pub ensemble_overlap: f64,
    /// Average platform power under load (paper: 45.4 W), for reporting.
    pub platform_power: Watts,
    /// Int8/f32 cost ratio of one stem execution (energy and latency).
    /// `0.0` means "unset" (e.g. a snapshot written before the int8 path
    /// existed) and falls back to [`INT8_STEM_SCALE`].
    #[serde(default)]
    pub int8_stem_scale: f64,
    /// Int8/f32 cost ratio of one branch-body execution. `0.0` means
    /// "unset" and falls back to [`INT8_BRANCH_SCALE`].
    #[serde(default)]
    pub int8_branch_scale: f64,
}

impl Default for Px2Model {
    fn default() -> Self {
        Px2Model {
            stem_energy: Joules::new(0.088),
            stem_latency: Millis::new(2.0),
            camera_branch: (Joules::new(0.857), Millis::new(19.57)),
            range_branch: (Joules::new(0.866), Millis::new(19.85)),
            early2_branch: (Joules::new(1.019), Millis::new(22.90)),
            early3_branch: (Joules::new(1.115), Millis::new(25.36)),
            early_lr_branch: (Joules::new(1.037), Millis::new(23.30)),
            gate: (Joules::zero(), Millis::new(1.0)),
            fusion_block: (Joules::zero(), Millis::new(0.8)),
            ensemble_overlap: 0.958,
            platform_power: Watts::new(45.4),
            int8_stem_scale: INT8_STEM_SCALE,
            int8_branch_scale: INT8_BRANCH_SCALE,
        }
    }
}

impl Px2Model {
    /// Energy and latency of one branch body (stems excluded).
    pub fn branch_cost(&self, spec: &BranchSpec) -> (Joules, Millis) {
        match spec {
            BranchSpec::Single(s) if s.is_camera() => self.camera_branch,
            BranchSpec::Single(_) => self.range_branch,
            BranchSpec::Early(v) => match v.len() {
                0 | 1 => self.camera_branch, // degenerate; treated as single
                2 if v.iter().all(|s| s.is_camera()) => self.early2_branch,
                2 if v.iter().all(|s| !s.is_camera()) => self.early_lr_branch,
                2 => self.early2_branch,
                3 => self.early3_branch,
                // Wider fusions extrapolate the per-sensor increment of
                // the 2 -> 3 step (+0.096 J / +2.46 ms per extra sensor).
                m => {
                    let extra = (m - 3) as f64;
                    (
                        self.early3_branch.0 + Joules::new(0.096) * extra,
                        self.early3_branch.1 + Millis::new(2.46) * extra,
                    )
                }
            },
        }
    }

    /// The effective int8/f32 stem cost ratio: the configured field, or
    /// [`INT8_STEM_SCALE`] when the field is unset (`0.0`).
    pub fn stem_scale(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F32 => 1.0,
            Precision::Int8 => {
                if self.int8_stem_scale > 0.0 {
                    self.int8_stem_scale
                } else {
                    INT8_STEM_SCALE
                }
            }
        }
    }

    /// The effective int8/f32 branch cost ratio: the configured field, or
    /// [`INT8_BRANCH_SCALE`] when the field is unset (`0.0`).
    pub fn branch_scale(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F32 => 1.0,
            Precision::Int8 => {
                if self.int8_branch_scale > 0.0 {
                    self.int8_branch_scale
                } else {
                    INT8_BRANCH_SCALE
                }
            }
        }
    }

    /// [`branch_cost`](Self::branch_cost) under a given precision: int8
    /// scales both energy and latency by the measured ratio.
    pub fn branch_cost_prec(&self, spec: &BranchSpec, precision: Precision) -> (Joules, Millis) {
        let (e, t) = self.branch_cost(spec);
        let s = self.branch_scale(precision);
        (e * s, t * s)
    }

    /// The unique sensors used by a set of branches.
    pub fn sensors_used(branches: &[BranchSpec]) -> Vec<SensorKind> {
        let mut used = [false; SensorKind::COUNT];
        for b in branches {
            for s in b.sensors() {
                used[s.index()] = true;
            }
        }
        SensorKind::ALL.iter().copied().filter(|s| used[s.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::SensorPowerModel;
    use crate::stage::StageTrace;
    use SensorKind::{CameraLeft as CL, CameraRight as CR, Lidar as L, Radar as R};

    fn m() -> Px2Model {
        Px2Model::default()
    }

    /// Platform energy and pipeline latency of `b`, as the one
    /// composition gives them.
    fn cost(
        px2: &Px2Model,
        b: &[BranchSpec],
        policy: StemPolicy,
        p: Precision,
    ) -> (Joules, Millis) {
        let trace = StageTrace::compute_prec(px2, &SensorPowerModel::default(), b, policy, p);
        (trace.platform_energy(), trace.total_latency())
    }

    #[test]
    fn single_camera_matches_table1() {
        let (e, t) = cost(&m(), &[BranchSpec::Single(CL)], StemPolicy::Static, Precision::F32);
        assert!((e.joules() - 0.945).abs() < 1e-9, "{e}");
        assert!((t.millis() - 21.57).abs() < 1e-9, "{t}");
    }

    #[test]
    fn single_radar_matches_table1() {
        let (e, t) = cost(&m(), &[BranchSpec::Single(R)], StemPolicy::Static, Precision::F32);
        assert!((e.joules() - 0.954).abs() < 1e-9);
        assert!((t.millis() - 21.85).abs() < 1e-9);
    }

    #[test]
    fn early3_matches_table1() {
        let b = [BranchSpec::Early(vec![CL, CR, L])];
        let (e, t) = cost(&m(), &b, StemPolicy::Static, Precision::F32);
        assert!((e.joules() - 1.379).abs() < 1e-9, "{e}");
        assert!((t.millis() - 31.36).abs() < 1e-9, "{t}");
    }

    #[test]
    fn late4_matches_table1() {
        let b = [
            BranchSpec::Single(CL),
            BranchSpec::Single(CR),
            BranchSpec::Single(L),
            BranchSpec::Single(R),
        ];
        let (e, t) = cost(&m(), &b, StemPolicy::Static, Precision::F32);
        assert!((e.joules() - 3.798).abs() < 1e-9, "{e}");
        assert!((t.millis() - 84.32).abs() < 0.35, "{t}");
    }

    #[test]
    fn adaptive_charges_all_stems() {
        let b = [BranchSpec::Early(vec![CL, CR, L])];
        let (e, t) = cost(&m(), &b, StemPolicy::Adaptive, Precision::F32);
        // 4 stems + early3 branch.
        assert!((e.joules() - (0.088 * 4.0 + 1.115)).abs() < 1e-9);
        // Latency: 1 stem (parallel) + gate + branch.
        assert!((t.millis() - (2.0 + 1.0 + 25.36)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn adaptive_early3_close_to_paper_eco_row() {
        // The paper's EcoFusion λE=0.01 row: 1.533 J / 35.14 ms. A gate
        // that mostly selects the early-3 branch gives 1.467 J / 28.36 ms;
        // mixing in heavier picks raises the mean. Sanity: within range.
        let b = [BranchSpec::Early(vec![CL, CR, L])];
        let e = cost(&m(), &b, StemPolicy::Adaptive, Precision::F32).0.joules();
        assert!(e > 1.3 && e < 1.6, "{e}");
    }

    #[test]
    fn energy_additivity_over_branches() {
        let single: f64 =
            [BranchSpec::Single(CL)].iter().map(|b| m().branch_cost(b).0.joules()).sum();
        let ens = [BranchSpec::Single(CL), BranchSpec::Single(CL)];
        let both: f64 = ens.iter().map(|b| m().branch_cost(b).0.joules()).sum();
        assert!((both - 2.0 * single).abs() < 1e-12);
    }

    #[test]
    fn more_branches_cost_more() {
        let small = cost(&m(), &[BranchSpec::Single(CL)], StemPolicy::Static, Precision::F32);
        let big = [BranchSpec::Single(CL), BranchSpec::Single(R)];
        let big = cost(&m(), &big, StemPolicy::Static, Precision::F32);
        assert!(big.0.joules() > small.0.joules());
        assert!(big.1.millis() > small.1.millis());
    }

    #[test]
    fn sensors_used_dedupes() {
        let b = [BranchSpec::Single(CL), BranchSpec::Early(vec![CL, CR])];
        let used = Px2Model::sensors_used(&b);
        assert_eq!(used, vec![CL, CR]);
    }

    #[test]
    fn wide_fusion_extrapolates() {
        let b4 = BranchSpec::Early(vec![CL, CR, L, R]);
        let (e4, t4) = m().branch_cost(&b4);
        let (e3, t3) = m().early3_branch;
        assert!(e4.joules() > e3.joules());
        assert!(t4.millis() > t3.millis());
    }

    #[test]
    fn labels() {
        assert_eq!(BranchSpec::Single(CL).label(), "C_L");
        assert_eq!(BranchSpec::Early(vec![CL, CR, L]).label(), "E(C_L+C_R+L)");
    }

    /// At f32 the scales are exactly 1, so every scaled cost is bit for
    /// bit the calibrated one.
    #[test]
    fn f32_precision_delegates_exactly() {
        assert_eq!(m().stem_scale(Precision::F32).to_bits(), 1.0f64.to_bits());
        assert_eq!(m().branch_scale(Precision::F32).to_bits(), 1.0f64.to_bits());
        for b in [BranchSpec::Early(vec![CL, CR, L]), BranchSpec::Single(R)] {
            assert_eq!(m().branch_cost_prec(&b, Precision::F32), m().branch_cost(&b));
        }
    }

    #[test]
    fn int8_is_cheaper_on_stems_and_branches_only() {
        let b = [BranchSpec::Single(CL)];
        let (e8, t8) = cost(&m(), &b, StemPolicy::Adaptive, Precision::Int8);
        let (e32, t32) = cost(&m(), &b, StemPolicy::Adaptive, Precision::F32);
        // 4 stems and the camera branch scale; the gate does not.
        let expected = 0.088 * 4.0 * INT8_STEM_SCALE + 0.857 * INT8_BRANCH_SCALE;
        assert!((e8.joules() - expected).abs() < 1e-9, "{e8}");
        assert!(e8.joules() < e32.joules());
        assert!(t8.millis() < t32.millis());
        // Gate latency share is unscaled (1 ms sits in both totals).
        assert!(
            (t8.millis() - (2.0 * INT8_STEM_SCALE + 1.0 + 19.57 * INT8_BRANCH_SCALE)).abs() < 1e-9
        );
    }

    #[test]
    fn zero_scale_fields_fall_back_to_measured_defaults() {
        // A Px2Model deserialized from a snapshot that predates the int8
        // path has both scale fields at serde's 0.0 default.
        let mut px2 = m();
        px2.int8_stem_scale = 0.0;
        px2.int8_branch_scale = 0.0;
        assert_eq!(px2.stem_scale(Precision::Int8), INT8_STEM_SCALE);
        assert_eq!(px2.branch_scale(Precision::Int8), INT8_BRANCH_SCALE);
        assert_eq!(px2.stem_scale(Precision::F32), 1.0);
        let b = [BranchSpec::Single(R)];
        assert_eq!(
            cost(&px2, &b, StemPolicy::Static, Precision::Int8),
            cost(&m(), &b, StemPolicy::Static, Precision::Int8)
        );
    }
}
