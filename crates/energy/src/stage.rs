//! Per-stage decomposition of the Eq. 11 energy/latency accounting.
//!
//! The staged perception pipeline (`ecofusion-core`'s `pipeline` module)
//! executes seven explicit stage units per frame. This module gives each
//! stage its share of the calibrated cost model, and it is where that
//! model is composed: [`StageTrace::compute_prec`] is the only code that
//! turns the PX2 calibration ([`Px2Model`]) and the sensor model into a
//! configuration's Eq. 6/10/11 cost, and a [`StageTrace`] is the only
//! record of it — its totals are read off the stages.

use crate::precision::Precision;
use crate::px2::{BranchSpec, Px2Model, StemPolicy};
use crate::sensors::SensorPowerModel;
use crate::units::{Joules, Millis};
use ecofusion_sensors::SensorKind;
use serde::{Deserialize, Serialize};

/// The seven stage units of the staged perception pipeline, in execution
/// order on the default path. Demand-driven execution may reorder
/// `GateScore`/`Select` ahead of `Stems` (feature-free gates), but the
/// accounting order is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Sensor measurement: the Eq. 10 clock-gated sensor energy.
    Sense,
    /// Per-modality stem convolutions.
    Stems,
    /// Gate network / rule evaluation producing `L_f(Φ)` estimates.
    GateScore,
    /// Eq. 7–9 joint optimization picking φ*.
    Select,
    /// Execution of the selected branch ensemble.
    Branch,
    /// Weighted-boxes-fusion block.
    Fuse,
    /// Energy/latency accounting itself (charged zero by the model).
    Account,
}

impl StageKind {
    /// All stages in accounting order.
    pub const ALL: [StageKind; 7] = [
        StageKind::Sense,
        StageKind::Stems,
        StageKind::GateScore,
        StageKind::Select,
        StageKind::Branch,
        StageKind::Fuse,
        StageKind::Account,
    ];

    /// Number of stages.
    pub const COUNT: usize = 7;

    /// Position in [`StageKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            StageKind::Sense => 0,
            StageKind::Stems => 1,
            StageKind::GateScore => 2,
            StageKind::Select => 3,
            StageKind::Branch => 4,
            StageKind::Fuse => 5,
            StageKind::Account => 6,
        }
    }

    /// Short label for tables and benches.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Sense => "sense",
            StageKind::Stems => "stems",
            StageKind::GateScore => "gate",
            StageKind::Select => "select",
            StageKind::Branch => "branch",
            StageKind::Fuse => "fuse",
            StageKind::Account => "account",
        }
    }
}

/// Modeled energy/latency of one stage for one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Energy charged to the stage.
    pub energy: Joules,
    /// Latency charged to the stage.
    pub latency: Millis,
}

/// Per-stage accounting of one inference, plus the stem-execution
/// counters the demand-driven pipeline actually observed.
///
/// The modeled costs always describe the *charged* pipeline (Eq. 11 with
/// the configured [`StemPolicy`]); the counters describe the *executed*
/// one. Under the adaptive policy the model charges all four stems — the
/// paper's compiled engine runs them unconditionally — so a pruned run
/// shows `stems_executed < 4` next to an unchanged `Stems` charge: the
/// compute saved on this host, without silently re-calibrating the PX2
/// numbers the tables are pinned to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTrace {
    /// Modeled cost per stage, indexed by [`StageKind::index`].
    pub costs: [StageCost; StageKind::COUNT],
    /// Stems actually run on the host for this frame (0–4).
    pub stems_executed: u8,
    /// Stems not run: pruned by the demand-driven plan.
    pub stems_skipped: u8,
}

impl StageTrace {
    /// Eq. 11 of `branches` under `policy` at `precision`, stage by stage:
    /// the one place the PX2 calibration and the sensor model become a
    /// configuration's cost. Int8 scales the `Stems` and `Branch` stages
    /// ([`Px2Model::stem_scale`] / [`Px2Model::branch_scale`], `× 1.0` at
    /// f32); every other stage is precision-invariant. The counters
    /// default to the modeled stem count (everything executed); the
    /// pipeline executor overwrites them with what actually ran.
    pub fn compute_prec(
        px2: &Px2Model,
        sensors: &SensorPowerModel,
        branches: &[BranchSpec],
        policy: StemPolicy,
        precision: Precision,
    ) -> Self {
        let active: Vec<SensorKind> = Px2Model::sensors_used(branches);
        let stems = match policy {
            StemPolicy::Static => branches.iter().map(|b| b.arity()).sum(),
            StemPolicy::Adaptive => SensorKind::COUNT,
        };
        let stem_scale = px2.stem_scale(precision);
        let stem_cost = StageCost {
            energy: px2.stem_energy * (stems as f64 * stem_scale),
            latency: match policy {
                StemPolicy::Static => px2.stem_latency * (stems as f64 * stem_scale),
                // All four stems run concurrently in the adaptive engine.
                StemPolicy::Adaptive => px2.stem_latency * stem_scale,
            },
        };
        let gate_cost = match policy {
            StemPolicy::Static => StageCost::default(),
            StemPolicy::Adaptive => StageCost { energy: px2.gate.0, latency: px2.gate.1 },
        };
        let branch_energy: Joules =
            branches.iter().map(|b| px2.branch_cost_prec(b, precision).0).sum();
        let branch_sum: Millis =
            branches.iter().map(|b| px2.branch_cost_prec(b, precision).1).sum();
        let branch_latency =
            if branches.len() >= 2 { branch_sum * px2.ensemble_overlap } else { branch_sum };
        let fuse_cost = if branches.len() >= 2 {
            StageCost { energy: px2.fusion_block.0, latency: px2.fusion_block.1 }
        } else {
            StageCost::default()
        };
        let mut costs = [StageCost::default(); StageKind::COUNT];
        costs[StageKind::Sense.index()] =
            StageCost { energy: sensors.total_frame_energy(&active), latency: Millis::zero() };
        costs[StageKind::Stems.index()] = stem_cost;
        costs[StageKind::GateScore.index()] = gate_cost;
        costs[StageKind::Branch.index()] =
            StageCost { energy: branch_energy, latency: branch_latency };
        costs[StageKind::Fuse.index()] = fuse_cost;
        StageTrace { costs, stems_executed: stems.min(SensorKind::COUNT) as u8, stems_skipped: 0 }
    }

    /// The cost of one stage.
    pub fn cost(&self, stage: StageKind) -> StageCost {
        self.costs[stage.index()]
    }

    /// Eq. 6's platform energy `E(φ)`: the Stems, Branch, GateScore and
    /// Fuse energies, added in that order.
    pub fn platform_energy(&self) -> Joules {
        let e = |stage: StageKind| self.cost(stage).energy;
        e(StageKind::Stems) + e(StageKind::Branch) + e(StageKind::GateScore) + e(StageKind::Fuse)
    }

    /// Eq. 11's clock-gated total: [`platform_energy`](Self::platform_energy),
    /// then the Sense stage. (The total without clock gating is
    /// `platform_energy()` plus
    /// [`SensorPowerModel::total_frame_energy_all_active`].)
    pub fn total_energy(&self) -> Joules {
        self.platform_energy() + self.cost(StageKind::Sense).energy
    }

    /// The pipeline latency: the Stems, GateScore, Branch and Fuse
    /// latencies, added in that order.
    pub fn total_latency(&self) -> Millis {
        let t = |stage: StageKind| self.cost(stage).latency;
        t(StageKind::Stems) + t(StageKind::GateScore) + t(StageKind::Branch) + t(StageKind::Fuse)
    }

    /// Same trace with the executor's observed stem counters.
    pub fn with_stem_counts(mut self, executed: u8, skipped: u8) -> Self {
        debug_assert!(
            (executed + skipped) as usize <= SensorKind::COUNT,
            "stem counters exceed the sensor count"
        );
        self.stems_executed = executed;
        self.stems_skipped = skipped;
        self
    }
}

/// A labeled per-stage energy rollup: the report-facing view of
/// accumulated [`StageTrace`] sums. Telemetry keeps per-stage totals as a
/// bare `[f64; StageKind::COUNT]` indexed by [`StageKind::index`]; a
/// machine-readable report wants them keyed by stage *name* so a reader
/// (or a diff tool) never depends on the array order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRollup {
    /// Energy per stage, Joules, keyed by [`StageKind::label`].
    pub per_stage_j: std::collections::BTreeMap<String, f64>,
    /// Sum over all stages, Joules (equals the Eq. 11 gated total of the
    /// runs the sums came from).
    pub total_j: f64,
}

impl StageRollup {
    /// Builds a rollup from per-stage sums in [`StageKind::ALL`] order
    /// (the layout `StreamTelemetry` and `EvalSummary` carry).
    ///
    /// # Panics
    /// Panics if `sums` does not have [`StageKind::COUNT`] entries.
    pub fn from_sums(sums: &[f64]) -> Self {
        assert_eq!(sums.len(), StageKind::COUNT, "need one sum per stage");
        let per_stage_j: std::collections::BTreeMap<String, f64> = StageKind::ALL
            .into_iter()
            .zip(sums)
            .map(|(stage, &j)| (stage.label().to_string(), j))
            .collect();
        StageRollup { total_j: sums.iter().sum(), per_stage_j }
    }

    /// The rolled-up energy of one stage, Joules (0 for a stage absent
    /// from the map — e.g. a report written before a stage existed).
    pub fn stage_j(&self, stage: StageKind) -> f64 {
        self.per_stage_j.get(stage.label()).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SensorKind::{CameraLeft as CL, CameraRight as CR, Lidar as L, Radar as R};

    fn late4() -> Vec<BranchSpec> {
        vec![
            BranchSpec::Single(CL),
            BranchSpec::Single(CR),
            BranchSpec::Single(L),
            BranchSpec::Single(R),
        ]
    }

    /// The f32 static-policy trace of `branches` under the default models.
    fn static_trace(branches: &[BranchSpec]) -> StageTrace {
        let (px2, sensors) = (Px2Model::default(), SensorPowerModel::default());
        StageTrace::compute_prec(&px2, &sensors, branches, StemPolicy::Static, Precision::F32)
    }

    /// The total without clock gating: every sensor measures.
    fn ungated(trace: &StageTrace) -> Joules {
        trace.platform_energy() + SensorPowerModel::default().total_frame_energy_all_active()
    }

    #[test]
    fn late_fusion_matches_table3_baseline() {
        let t = static_trace(&late4());
        // Table 3: late fusion total 13.27 J in every scene.
        assert!((t.total_energy().joules() - 13.273).abs() < 0.01, "{}", t.total_energy());
        // With all sensors in use, gated == ungated.
        assert!((t.total_energy().joules() - ungated(&t).joules()).abs() < 1e-9);
    }

    #[test]
    fn city_config_matches_table3() {
        // Knowledge gate in City: early-3 (C_L+C_R+L), radar gated.
        let t = static_trace(&[BranchSpec::Early(vec![CL, CR, L])]);
        // 1.379 + 0.475 (cams) + 3.0 (lidar) + 0.6 (radar motor) = 5.454.
        assert!((t.total_energy().joules() - 5.454).abs() < 0.01, "{}", t.total_energy());
    }

    #[test]
    fn junction_config_matches_table3() {
        // Knowledge gate at junctions: early-2 cameras, radar+lidar gated.
        let t = static_trace(&[BranchSpec::Early(vec![CL, CR])]);
        // 1.195 + 0.475 + 0.6 + 0.6 = 2.87.
        assert!((t.total_energy().joules() - 2.87).abs() < 0.01, "{}", t.total_energy());
    }

    #[test]
    fn night_config_matches_table3() {
        // Night: late fusion of {R, L, C_R}; left camera gated (free).
        let t =
            static_trace(&[BranchSpec::Single(R), BranchSpec::Single(L), BranchSpec::Single(CR)]);
        // 2.853 platform + 6 + 3 + 0.2375 = 12.09.
        assert!((t.total_energy().joules() - 12.091).abs() < 0.01, "{}", t.total_energy());
    }

    #[test]
    fn gating_saves_vs_ungated() {
        let t = static_trace(&[BranchSpec::Early(vec![CL, CR])]);
        assert!(t.total_energy().joules() < ungated(&t).joules());
    }

    #[test]
    fn int8_scales_only_stems_and_branch_stages() {
        let px2 = Px2Model::default();
        let sensors = SensorPowerModel::default();
        let branches = [BranchSpec::Single(CL), BranchSpec::Single(R)];
        let f32_trace = StageTrace::compute_prec(
            &px2,
            &sensors,
            &branches,
            StemPolicy::Adaptive,
            Precision::F32,
        );
        let i8_trace = StageTrace::compute_prec(
            &px2,
            &sensors,
            &branches,
            StemPolicy::Adaptive,
            Precision::Int8,
        );
        assert!(
            i8_trace.cost(StageKind::Stems).energy.joules()
                < f32_trace.cost(StageKind::Stems).energy.joules()
        );
        assert!(
            i8_trace.cost(StageKind::Branch).latency.millis()
                < f32_trace.cost(StageKind::Branch).latency.millis()
        );
        for stage in [StageKind::Sense, StageKind::GateScore, StageKind::Select, StageKind::Fuse] {
            assert_eq!(i8_trace.cost(stage), f32_trace.cost(stage), "{stage:?}");
        }
    }

    #[test]
    fn single_branch_has_no_fuse_cost() {
        let trace = StageTrace::compute_prec(
            &Px2Model::default(),
            &SensorPowerModel::default(),
            &[BranchSpec::Single(L)],
            StemPolicy::Adaptive,
            Precision::F32,
        );
        assert_eq!(trace.cost(StageKind::Fuse), StageCost::default());
        assert_eq!(trace.cost(StageKind::Select), StageCost::default());
        assert!(trace.cost(StageKind::Branch).energy.joules() > 0.0);
    }

    #[test]
    fn adaptive_charges_four_stems_regardless_of_counters() {
        let px2 = Px2Model::default();
        let trace = StageTrace::compute_prec(
            &px2,
            &SensorPowerModel::default(),
            &[BranchSpec::Early(vec![L, R])],
            StemPolicy::Adaptive,
            Precision::F32,
        )
        .with_stem_counts(2, 2);
        assert_eq!(trace.stems_executed, 2);
        assert_eq!(trace.stems_skipped, 2);
        // The charge stays at the compiled engine's four stems.
        assert!((trace.cost(StageKind::Stems).energy.joules() - 0.088 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn rollup_keys_every_stage_and_sums() {
        let sums = [0.25, 0.352, 0.01, 0.0, 3.0, 0.05, 0.0];
        let r = StageRollup::from_sums(&sums);
        assert_eq!(r.per_stage_j.len(), StageKind::COUNT);
        for (i, stage) in StageKind::ALL.into_iter().enumerate() {
            assert_eq!(r.stage_j(stage), sums[i]);
        }
        assert!((r.total_j - sums.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one sum per stage")]
    fn rollup_rejects_wrong_arity() {
        let _ = StageRollup::from_sums(&[1.0, 2.0]);
    }

    #[test]
    fn stage_indexing_is_consistent() {
        for (i, s) in StageKind::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.label().is_empty());
        }
        assert_eq!(StageKind::COUNT, StageKind::ALL.len());
    }
}
