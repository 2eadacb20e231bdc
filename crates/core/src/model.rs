//! The EcoFusion model: Fig. 3 / Algorithm 1.

use crate::config::{BaselineIds, ConfigId, ConfigSpace};
use crate::optimizer::{select_config, CandidateRule};
use ecofusion_detect::{
    subset_fusion_losses_into, weighted_boxes_fusion, BranchConfig, BranchDetector, Detection,
    FusionScratch, Stem, WbfParams,
};
use ecofusion_energy::{
    EnergyBreakdown, Joules, Precision, Px2Model, SensorPowerModel, StageTrace, StemPolicy,
};
use ecofusion_gating::{AttentionGate, DeepGate, GateKind, KnowledgeGate, LossBasedGate};
use ecofusion_scene::GtBox;
use ecofusion_sensors::{SensorKind, SensorMask};
use ecofusion_tensor::graph::CompileError;
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

use crate::dataset::Frame;
use crate::knowledge::{default_degraded_fallbacks, default_knowledge_rules};

/// Loss penalty added to every configuration that requires a sensor the
/// health mask rules out. It exceeds [`KNOWLEDGE_REJECT_LOSS`], so under
/// fault-aware gating a rejected-but-healthy configuration always beats a
/// preferred-but-broken one.
///
/// [`KNOWLEDGE_REJECT_LOSS`]: ecofusion_gating::knowledge::KNOWLEDGE_REJECT_LOSS
pub const UNAVAILABLE_SENSOR_PENALTY: f32 = 4.0e6;

/// All four gating strategies over one configuration space.
pub struct GateSet {
    /// Static context rules (§4.2.1).
    pub knowledge: KnowledgeGate,
    /// Learned CNN+MLP gate (§4.2.2).
    pub deep: DeepGate,
    /// Learned gate with self-attention (§4.2.3).
    pub attention: AttentionGate,
    /// A-posteriori oracle (§4.2.4).
    pub loss_based: LossBasedGate,
}

impl fmt::Debug for GateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GateSet(knowledge, deep, attention, loss-based)")
    }
}

/// Options for one adaptive inference (Algorithm 1's tunables).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceOptions {
    /// Energy weight `λ_E ∈ [0, 1]` in Eq. 8.
    pub lambda_e: f64,
    /// Candidate margin `γ` in Eq. 7 (the paper uses 0.5).
    pub gamma: f32,
    /// Which gating strategy to use.
    pub gate: GateKind,
    /// Candidate-selection rule variant.
    pub rule: CandidateRule,
    /// Objectness threshold for branch decoding.
    pub score_thresh: f32,
    /// Per-class NMS IoU for branch decoding.
    pub nms_iou: f32,
    /// Sensor availability for fault-aware gating. With the default
    /// all-available mask, inference is bit-identical to mask-less
    /// operation; with sensors masked out, configurations that need them
    /// are penalized by [`UNAVAILABLE_SENSOR_PENALTY`] before selection,
    /// and the knowledge gate switches to its degraded-context fallbacks.
    #[serde(default)]
    pub health: SensorMask,
    /// Numeric precision of the stems and branch bodies. The default
    /// [`Precision::F32`] is bit-identical to the pre-quantization
    /// pipeline; [`Precision::Int8`] runs the post-training-quantized
    /// image of the same weights (built lazily on first use, see
    /// [`EcoFusionModel::ensure_quant`]) and charges the int8-scaled
    /// Eq. 11 costs.
    #[serde(default)]
    pub precision: Precision,
}

impl InferenceOptions {
    /// Creates options with the paper's defaults: attention gating, margin
    /// rule, decode thresholds 0.2 (score) / 0.5 (NMS IoU).
    pub fn new(lambda_e: f64, gamma: f32) -> Self {
        InferenceOptions {
            lambda_e,
            gamma,
            gate: GateKind::Attention,
            rule: CandidateRule::Margin,
            score_thresh: 0.2,
            nms_iou: 0.5,
            health: SensorMask::all_available(),
            precision: Precision::F32,
        }
    }

    /// Same options with a different gate.
    pub fn with_gate(mut self, gate: GateKind) -> Self {
        self.gate = gate;
        self
    }

    /// Same options with a sensor availability mask (fault-aware gating).
    pub fn with_health(mut self, health: SensorMask) -> Self {
        self.health = health;
        self
    }

    /// Same options with a different stem/branch precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Result of one adaptive inference.
#[derive(Debug, Clone)]
pub struct InferenceOutput {
    /// Final fused detections Ŷ.
    pub detections: Vec<Detection>,
    /// The selected configuration φ*.
    pub selected_config: ConfigId,
    /// Human-readable label of φ*.
    pub selected_label: String,
    /// The gate's per-configuration loss estimates L_f(Φ).
    pub predicted_losses: Vec<f32>,
    /// Energy/latency breakdown of executing φ* (adaptive stem policy,
    /// at the precision the frame ran).
    pub energy: EnergyBreakdown,
    /// Per-stage decomposition of `energy` (sums to its Eq. 11 totals)
    /// plus the stem executions the demand-driven pipeline observed.
    pub stage_trace: StageTrace,
    /// Precision the stems and branches ran at for this frame.
    pub precision: Precision,
    /// 1 when the knowledge gate had no rule for the frame's context and
    /// fell back to its cheapest configuration, 0 otherwise (always 0 for
    /// other gates).
    pub gate_fallbacks: u32,
}

impl InferenceOutput {
    /// Platform energy of the executed configuration (Eq. 6).
    pub fn energy_joules(&self) -> f64 {
        self.energy.platform.joules()
    }
}

/// Error from [`EcoFusionModel::infer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The frame's observation grid does not match the model.
    GridMismatch {
        /// Grid the model was built for.
        expected: usize,
        /// Grid of the offending frame.
        found: usize,
    },
    /// Building the int8 image of the model failed (an
    /// [`Precision::Int8`] inference on an unquantizable architecture).
    Quantize(ecofusion_tensor::QuantizeError),
    /// A stem or branch could not be lowered to its compiled plan — an
    /// installed int8 image whose layer shapes do not chain (a stale or
    /// version-skewed [`QuantSnapshot`](crate::snapshot::QuantSnapshot)
    /// that passed [`EcoFusionModel::install_quant`]'s count checks).
    Compile {
        /// The unit whose plan failed to build.
        unit: PlanUnit,
        /// The graph compiler's reason.
        source: CompileError,
    },
}

/// A network unit the pipeline runs as one compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanUnit {
    /// The stem of the canonical sensor with this index.
    Stem(usize),
    /// The canonical branch with this index.
    Branch(usize),
}

impl fmt::Display for PlanUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanUnit::Stem(s) => write!(f, "stem {s}"),
            PlanUnit::Branch(b) => write!(f, "branch {b}"),
        }
    }
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::GridMismatch { expected, found } => {
                write!(f, "frame grid {found} does not match model grid {expected}")
            }
            InferError::Quantize(e) => write!(f, "int8 quantization failed: {e}"),
            InferError::Compile { unit, source } => {
                write!(f, "{unit} does not lower to a plan: {source}")
            }
        }
    }
}

impl Error for InferError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InferError::GridMismatch { .. } => None,
            InferError::Quantize(e) => Some(e),
            InferError::Compile { source, .. } => Some(source),
        }
    }
}

/// Eq. 11 of every configuration under the adaptive stem policy, built
/// once by [`EcoFusionModel::new`]: a model's cost models never change
/// after construction.
#[derive(Debug)]
struct CostTable {
    /// [`crate::pipeline::account_prec`] per `[precision][configuration]`.
    accounts: [Vec<(EnergyBreakdown, StageTrace)>; 2],
    /// The F32 platform energies: the column Eq. 8 selects over.
    energies: Vec<Joules>,
}

/// The full adaptive perception model: four stems, seven branches, four
/// gates, the joint optimizer, and the WBF fusion block.
#[derive(Debug)]
pub struct EcoFusionModel {
    pub(crate) stems: Vec<Stem>,
    pub(crate) branches: Vec<BranchDetector>,
    pub(crate) space: ConfigSpace,
    pub(crate) gates: GateSet,
    pub(crate) px2: Px2Model,
    pub(crate) sensor_power: SensorPowerModel,
    wbf: WbfParams,
    /// Eq. 11 of every configuration under the adaptive stem policy.
    costs: CostTable,
    /// Required-sensor bitmask per configuration (bit `i` = canonical
    /// sensor `i`), for fault-aware selection.
    pub(crate) config_sensors: Vec<u8>,
    pub(crate) grid: usize,
    num_classes: usize,
    /// Lazily built int8 image of the stems and branches, invalidated by
    /// any mutable weight access ([`EcoFusionModel::stems_mut`] /
    /// [`EcoFusionModel::branches_mut`]).
    pub(crate) quant: Option<crate::snapshot::QuantSnapshot>,
    /// Memoized fused-operator plans of the stems and branches, keyed by
    /// (structural fingerprint, per-sample input shape, precision).
    /// Invalidation mirrors the int8 image: every mutable weight access
    /// clears it.
    pub(crate) plans: ecofusion_tensor::graph::PlanCache,
    /// The replica's step buffers (see [`crate::pipeline`]): stem rows,
    /// the branch head map, decode, fusion and the per-frame lists of the
    /// stages. Grown by the first steps that need them, rewritten by
    /// every step; they hold activations, never weights, so no weight
    /// access invalidates them and no snapshot carries them. Lent out
    /// for the length of a step (`None` then).
    pub(crate) scratch: Option<Box<crate::pipeline::StepScratch>>,
}

impl EcoFusionModel {
    /// Builds an untrained model for `grid`-pixel observations and
    /// `num_classes` object classes.
    ///
    /// # Panics
    /// Panics if `grid` is not a multiple of 16 (stems halve the
    /// resolution and branches need a multiple of 8), at least 32.
    pub fn new(grid: usize, num_classes: usize, rng: &mut Rng) -> Self {
        if let Some((field, value, rule)) = Self::dimension_rule(grid) {
            panic!("{field} {value} {rule}");
        }
        let space = ConfigSpace::canonical();
        let stems: Vec<Stem> = (0..SensorKind::COUNT).map(|_| Stem::new(1, rng)).collect();
        let branches: Vec<BranchDetector> = space
            .branches()
            .iter()
            .map(|spec| {
                BranchDetector::new(
                    BranchConfig { num_sensors: spec.arity(), num_classes, raster: grid },
                    rng,
                )
            })
            .collect();
        let px2 = Px2Model::default();
        let sensor_power = SensorPowerModel::default();
        let n = space.num_configs();
        let accounts = [Precision::F32, Precision::Int8].map(|precision| {
            (0..n)
                .map(|i| {
                    let specs = space.branch_specs(ConfigId(i));
                    crate::pipeline::account_prec(
                        &px2,
                        &sensor_power,
                        &specs,
                        StemPolicy::Adaptive,
                        precision,
                    )
                })
                .collect::<Vec<_>>()
        });
        let costs =
            CostTable { energies: accounts[0].iter().map(|(b, _)| b.platform).collect(), accounts };
        let config_sensors: Vec<u8> = (0..n)
            .map(|i| {
                space
                    .branch_specs(ConfigId(i))
                    .iter()
                    .flat_map(|spec| spec.sensors())
                    .fold(0u8, |mask, k| mask | (1 << k.index()))
            })
            .collect();
        let stem_c = ecofusion_detect::stem::STEM_CHANNELS * SensorKind::COUNT;
        let gates = GateSet {
            knowledge: KnowledgeGate::new(default_knowledge_rules(&space), n)
                .with_degraded_rules(default_degraded_fallbacks(&space), config_sensors.clone()),
            deep: DeepGate::new(stem_c, grid / 2, n, rng),
            attention: AttentionGate::new(stem_c, grid / 2, n, rng),
            loss_based: LossBasedGate::new(n),
        };
        EcoFusionModel {
            stems,
            branches,
            space,
            gates,
            px2,
            sensor_power,
            wbf: WbfParams::default(),
            costs,
            config_sensors,
            grid,
            num_classes,
            quant: None,
            plans: ecofusion_tensor::graph::PlanCache::new(),
            scratch: None,
        }
    }

    /// Everything [`EcoFusionModel::new`] requires of its arguments, as
    /// the `(field, value, rule)` they break; any class count builds.
    /// `new` asserts it, a snapshot restore checks it first.
    pub(crate) fn dimension_rule(grid: usize) -> Option<(&'static str, usize, &'static str)> {
        (!grid.is_multiple_of(16) || grid < 32).then_some((
            "grid",
            grid,
            "must be a multiple of 16, at least 32",
        ))
    }

    /// The configuration space Φ.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The paper's fixed baseline configuration ids.
    pub fn baseline_ids(&self) -> BaselineIds {
        self.space.baseline_ids()
    }

    /// The PX2 cost model.
    pub fn px2(&self) -> &Px2Model {
        &self.px2
    }

    /// The sensor power model.
    pub fn sensor_power(&self) -> &SensorPowerModel {
        &self.sensor_power
    }

    /// Required-sensor bitmask of every configuration (bit `i` =
    /// canonical sensor `i` consumed by at least one branch).
    pub fn config_sensor_bits(&self) -> &[u8] {
        &self.config_sensors
    }

    /// Adds [`UNAVAILABLE_SENSOR_PENALTY`] to every configuration that
    /// requires a sensor `mask` rules out, in place. A no-op for the
    /// all-available mask.
    pub fn penalize_unavailable(&self, losses: &mut [f32], mask: SensorMask) {
        if mask.is_all_available() {
            return;
        }
        for (loss, bits) in losses.iter_mut().zip(&self.config_sensors) {
            if !mask.allows_bits(*bits) {
                *loss += UNAVAILABLE_SENSOR_PENALTY;
            }
        }
    }

    /// Eq. 7–9 selection over predicted losses, with fault-aware masking:
    /// configurations needing a sensor the options' health mask rules out
    /// are penalized out of contention first, in `adjusted` (the step's
    /// buffer). The all-available mask is a guaranteed no-op that also
    /// skips the copy — the single selection path both
    /// [`EcoFusionModel::infer`] and [`EcoFusionModel::infer_batch`] go
    /// through, so the two can never diverge on masking policy.
    pub(crate) fn select_with_health(
        &self,
        predicted: &[f32],
        opts: &InferenceOptions,
        adjusted: &mut Vec<f32>,
    ) -> ConfigId {
        let idx = if opts.health.is_all_available() {
            select_config(predicted, &self.costs.energies, opts.lambda_e, opts.gamma, opts.rule)
        } else {
            adjusted.clear();
            adjusted.extend_from_slice(predicted);
            self.penalize_unavailable(adjusted, opts.health);
            select_config(adjusted, &self.costs.energies, opts.lambda_e, opts.gamma, opts.rule)
        };
        ConfigId(idx)
    }

    /// The `Account` stage of an adaptive inference that selected
    /// `config` at `precision`: its row of the cost table.
    pub(crate) fn account_adaptive(
        &self,
        config: ConfigId,
        precision: Precision,
    ) -> (EnergyBreakdown, StageTrace) {
        self.costs.accounts[usize::from(precision.discriminant())][config.0].clone()
    }

    /// Observation grid size the model expects.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of object classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Mutable access to the stems (training). Drops any cached int8
    /// image: the quantized weights must track the f32 ones.
    pub fn stems_mut(&mut self) -> &mut [Stem] {
        self.quant = None;
        self.plans.clear();
        &mut self.stems
    }

    /// Mutable access to the branches (training). Drops any cached int8
    /// image: the quantized weights must track the f32 ones.
    pub fn branches_mut(&mut self) -> &mut [BranchDetector] {
        self.quant = None;
        self.plans.clear();
        &mut self.branches
    }

    /// Mutable access to the gates (training). Nothing is invalidated
    /// here: a learned gate drops its own compiled plan whenever its
    /// parameters are visited.
    pub fn gates_mut(&mut self) -> &mut GateSet {
        &mut self.gates
    }

    /// Concatenates per-sensor stem features into the gate input F.
    pub fn gate_features(stem_feats: &[Tensor]) -> Tensor {
        let refs: Vec<&Tensor> = stem_feats.iter().collect();
        Tensor::concat_channels(&refs)
    }

    /// Late-fuses branch outputs with weighted boxes fusion (§4.4). A
    /// single branch passes through unfused.
    pub fn fuse(&self, outputs: &[Vec<Detection>]) -> Vec<Detection> {
        if outputs.len() == 1 {
            return outputs[0].clone();
        }
        weighted_boxes_fusion(outputs, &self.wbf, outputs.len())
    }

    /// [`EcoFusionModel::fuse`] of `num_branches` (two or more) branch
    /// outputs out of a scratch kept across frames — the `Fuse` stage,
    /// which asks the allocator for the returned detections only.
    pub(crate) fn fuse_scratch<'a>(
        &self,
        outputs: impl IntoIterator<Item = &'a [Detection]>,
        num_branches: usize,
        scratch: &mut FusionScratch,
    ) -> Vec<Detection> {
        scratch.fuse(outputs, &self.wbf, num_branches).to_vec()
    }

    /// True fusion loss of every configuration for one frame given the
    /// per-branch detections (the gate-training target and the oracle
    /// input).
    pub fn config_losses_from(&self, branch_dets: &[Vec<Detection>], gts: &[GtBox]) -> Vec<f32> {
        let mut losses = Vec::with_capacity(self.space.num_configs());
        self.config_losses_into(branch_dets, gts, &mut FusionScratch::default(), &mut losses);
        losses
    }

    /// [`EcoFusionModel::config_losses_from`] appended to `losses`, for
    /// callers that score many frames: a scratch and a vector kept across
    /// calls make every frame after the first allocation-free.
    pub(crate) fn config_losses_into<D: AsRef<[Detection]>>(
        &self,
        branch_dets: &[D],
        gts: &[GtBox],
        scratch: &mut FusionScratch,
        losses: &mut Vec<f32>,
    ) {
        let masks = (0..self.space.num_configs()).map(|i| self.space.branch_mask(ConfigId(i)));
        subset_fusion_losses_into(branch_dets, masks, gts, &self.wbf, scratch, losses);
    }

    /// Algorithm 1: adaptive inference on one frame.
    ///
    /// A thin driver over the staged pipeline
    /// ([`crate::pipeline`]): Sense → Stems → GateScore → Select →
    /// Branch → Fuse → Account, with the Stems stage pruned to the
    /// sensors the plan demands (feature-free gates defer stems until
    /// after Select and run only the winner's).
    ///
    /// # Errors
    /// Returns [`InferError::GridMismatch`] if the frame was rendered at a
    /// different grid size than the model, and [`InferError::Compile`] if
    /// an installed int8 image does not lower (see
    /// [`EcoFusionModel::install_quant`]).
    pub fn infer(
        &mut self,
        frame: &Frame,
        opts: &InferenceOptions,
    ) -> Result<InferenceOutput, InferError> {
        // One staged executor serves both entry points: a single frame
        // is a batch of one (stems are batch-invariant in eval mode, so
        // the results are bit-identical — the golden traces pin it).
        let mut outputs = Vec::with_capacity(1);
        self.infer_batch_into(std::slice::from_ref(frame), opts, &mut outputs)?;
        Ok(outputs.pop().expect("one output per frame"))
    }

    /// Algorithm 1 over a whole batch of frames, amortizing shared
    /// compute: each demanded stem runs once per sensor over the stacked
    /// batch, learned gates score every frame in one network pass, and
    /// each branch demanded by at least one frame executes once over
    /// exactly the frames that selected it. Per-frame results are
    /// identical to calling [`EcoFusionModel::infer`] sequentially.
    ///
    /// A thin driver over the staged pipeline; see
    /// [`EcoFusionModel::infer_batch_into`] for the variant that appends
    /// to a caller's vector.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    pub fn infer_batch(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
    ) -> Result<Vec<InferenceOutput>, InferError> {
        let mut outputs = Vec::with_capacity(frames.len());
        self.infer_batch_into(frames, opts, &mut outputs)?;
        Ok(outputs)
    }

    /// Applies `f` to every trainable parameter of stems and branches
    /// (used by the trainer's optimizer). Drops any cached int8 image,
    /// like the other mutable weight accessors.
    pub fn visit_perception_params(
        &mut self,
        f: &mut dyn FnMut(&mut ecofusion_tensor::param::Param),
    ) {
        self.quant = None;
        self.plans.clear();
        for s in &mut self.stems {
            s.visit_params(f);
        }
        for b in &mut self.branches {
            b.visit_params(f);
        }
    }

    /// Builds — or returns the cached — post-training int8 image of the
    /// stems and branches (a [`QuantSnapshot`]), calibrating activation
    /// scales over the seeded fixture frames. Deterministic for a given
    /// set of weights, so shard replicas build identical images.
    ///
    /// The image is invalidated by any mutable weight access and rebuilt
    /// on the next call.
    ///
    /// [`QuantSnapshot`]: crate::snapshot::QuantSnapshot
    ///
    /// # Errors
    /// Returns the [`ecofusion_tensor::QuantizeError`] of the first layer
    /// that cannot be quantized (unreachable for the canonical
    /// architecture, which is all Conv/BN/ReLU/MaxPool).
    pub fn ensure_quant(
        &mut self,
    ) -> Result<&crate::snapshot::QuantSnapshot, ecofusion_tensor::QuantizeError> {
        if self.quant.is_none() {
            self.quant = Some(crate::snapshot::QuantSnapshot::capture(self)?);
        }
        Ok(self.quant.as_ref().expect("just built"))
    }

    /// The cached int8 image, if one has been built and not invalidated.
    pub fn quantized(&self) -> Option<&crate::snapshot::QuantSnapshot> {
        self.quant.as_ref()
    }

    /// Installs a previously captured int8 image (e.g. loaded from disk
    /// beside the weight snapshot), skipping recalibration. Only the
    /// image's header and unit counts are checked here; layer shapes are
    /// checked when a unit is first lowered, and a unit that does not
    /// chain fails that inference with [`InferError::Compile`].
    ///
    /// # Errors
    /// Returns [`crate::snapshot::RestoreModelError::QuantMismatch`] if
    /// the image was captured for a different architecture.
    pub fn install_quant(
        &mut self,
        snap: crate::snapshot::QuantSnapshot,
    ) -> Result<(), crate::snapshot::RestoreModelError> {
        use crate::snapshot::RestoreModelError::QuantMismatch;
        if snap.grid() != self.grid {
            return Err(QuantMismatch { what: "grid", expected: self.grid, found: snap.grid() });
        }
        if snap.num_classes() != self.num_classes {
            return Err(QuantMismatch {
                what: "num_classes",
                expected: self.num_classes,
                found: snap.num_classes(),
            });
        }
        if snap.stems.len() != self.stems.len() {
            return Err(QuantMismatch {
                what: "stems",
                expected: self.stems.len(),
                found: snap.stems.len(),
            });
        }
        if snap.branches.len() != self.branches.len() {
            return Err(QuantMismatch {
                what: "branches",
                expected: self.branches.len(),
                found: snap.branches.len(),
            });
        }
        self.quant = Some(snap);
        // Int8 plans captured from the previous image are stale now.
        self.plans.clear();
        Ok(())
    }

    /// Cumulative plan-cache counters (hits / misses / compiles) of the
    /// fused-execution layer. See [`ecofusion_tensor::graph`].
    pub fn plan_cache_stats(&self) -> ecofusion_tensor::graph::PlanCacheStats {
        self.plans.stats()
    }

    /// Compiled plans currently resident (drops to zero after any mutable
    /// weight access, like the int8 image).
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Plan-cache counter deltas since the previous call; the runtime's
    /// step recorder adds every replica's to its metrics once per traced
    /// step.
    pub fn take_plan_delta(&mut self) -> ecofusion_tensor::graph::PlanCacheStats {
        self.plans.take_delta()
    }
}

/// The sharded runtime moves model replicas into its worker threads;
/// this holds because `Layer: Send` is a supertrait and every other field
/// is plain owned data. A compile error here means a non-`Send` layer or
/// cache snuck into the model.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EcoFusionModel>();
    assert_send::<crate::snapshot::ModelSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetSpec};

    fn tiny_model() -> EcoFusionModel {
        let mut rng = Rng::new(1);
        EcoFusionModel::new(32, 8, &mut rng)
    }

    #[test]
    fn model_shape() {
        let m = tiny_model();
        assert_eq!(m.space().num_branches(), 7);
        assert_eq!(m.space().num_configs(), 127);
        assert_eq!(m.grid(), 32);
    }

    #[test]
    fn infer_runs_untrained() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(2));
        let opts = InferenceOptions::new(0.01, 0.5);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.predicted_losses.len(), 127);
        assert!(out.energy_joules() > 0.0);
        assert!(!out.selected_label.is_empty());
    }

    #[test]
    fn infer_grid_mismatch_errors() {
        let mut m = tiny_model();
        let mut spec = DatasetSpec::small(3);
        spec.grid = 48;
        let data = Dataset::generate(&spec);
        let opts = InferenceOptions::new(0.0, 0.5);
        let err = m.infer(&data.test()[0], &opts).unwrap_err();
        assert!(matches!(err, InferError::GridMismatch { expected: 32, found: 48 }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn knowledge_gate_selects_table3_config() {
        let mut m = tiny_model();
        let mut spec = DatasetSpec::small(4);
        spec.mix = crate::dataset::DatasetMix::Single(ecofusion_scene::Context::City);
        spec.num_scenes = 10;
        let data = Dataset::generate(&spec);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.selected_label, "{E(C_L+C_R+L)}");
    }

    #[test]
    fn loss_based_gate_runs() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(5));
        let opts = InferenceOptions::new(0.5, 0.5).with_gate(GateKind::LossBased);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        // Oracle predictions are finite true losses.
        assert!(out.predicted_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn lambda_one_picks_cheapest_candidate() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(6));
        // Huge gamma: all configs candidates; λ=1 must pick the global
        // energy minimum = a single-branch config.
        let opts =
            InferenceOptions { lambda_e: 1.0, gamma: 1e9, ..InferenceOptions::new(1.0, 0.5) };
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(m.space().branch_ids(out.selected_config).len(), 1);
    }

    #[test]
    fn static_baseline_energy_matches_table1() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(7));
        let opts = InferenceOptions::new(0.0, 0.5);
        let late = m.baseline_ids().late;
        let (_, breakdown, _) = m.detect_static(&data.test()[0], late, &opts).unwrap();
        assert!((breakdown.platform.joules() - 3.798).abs() < 1e-9);
    }

    #[test]
    fn fuse_single_branch_passthrough() {
        let m = tiny_model();
        let dets =
            vec![vec![Detection::new(ecofusion_detect::BBox::new(0.0, 0.0, 4.0, 4.0), 0, 0.9)]];
        let fused = m.fuse(&dets);
        assert_eq!(fused, dets[0]);
    }

    #[test]
    fn infer_batch_matches_sequential_infer() {
        let data = Dataset::generate(&DatasetSpec::small(9));
        let frames: Vec<Frame> = data.test().iter().take(5).cloned().collect();
        for gate in [GateKind::Deep, GateKind::Attention, GateKind::Knowledge, GateKind::LossBased]
        {
            // Fresh model per gate so layer caches cannot leak between the
            // two code paths.
            let mut m = tiny_model();
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
            let batched = m.infer_batch(&frames, &opts).unwrap();
            let sequential: Vec<InferenceOutput> =
                frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
            assert_eq!(batched.len(), sequential.len());
            for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
                assert_eq!(b.selected_config, s.selected_config, "{gate:?} frame {i}");
                assert_eq!(b.selected_label, s.selected_label, "{gate:?} frame {i}");
                assert_eq!(b.detections, s.detections, "{gate:?} frame {i}");
                assert_eq!(
                    b.energy.platform.joules(),
                    s.energy.platform.joules(),
                    "{gate:?} frame {i}"
                );
                assert_eq!(b.predicted_losses.len(), s.predicted_losses.len());
                for (x, y) in b.predicted_losses.iter().zip(&s.predicted_losses) {
                    assert!(
                        (x - y).abs() <= 1e-5 * (1.0 + x.abs()),
                        "{gate:?} frame {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn infer_batch_empty_and_mismatch() {
        let mut m = tiny_model();
        let opts = InferenceOptions::new(0.01, 0.5);
        assert!(m.infer_batch(&[], &opts).unwrap().is_empty());
        let mut spec = DatasetSpec::small(10);
        spec.grid = 48;
        let data = Dataset::generate(&spec);
        let frames: Vec<Frame> = data.test().iter().take(2).cloned().collect();
        let err = m.infer_batch(&frames, &opts).unwrap_err();
        assert!(matches!(err, InferError::GridMismatch { expected: 32, found: 48 }));
    }

    #[test]
    fn config_sensor_bits_match_specs() {
        let m = tiny_model();
        let bits = m.config_sensor_bits();
        assert_eq!(bits.len(), 127);
        // Late fusion of all four sensors needs all four bits.
        assert_eq!(bits[m.baseline_ids().late.0], 0b1111);
        // The lidar-only baseline needs exactly the lidar bit.
        assert_eq!(bits[m.baseline_ids().lidar.0], 1 << SensorKind::Lidar.index());
    }

    #[test]
    fn all_available_mask_is_bit_identical() {
        let data = Dataset::generate(&DatasetSpec::small(12));
        let frame = &data.test()[0];
        for gate in [GateKind::Attention, GateKind::Knowledge] {
            let mut m = tiny_model();
            let plain = m.infer(frame, &InferenceOptions::new(0.01, 0.5).with_gate(gate)).unwrap();
            let masked = m
                .infer(
                    frame,
                    &InferenceOptions::new(0.01, 0.5)
                        .with_gate(gate)
                        .with_health(SensorMask::all_available()),
                )
                .unwrap();
            assert_eq!(plain.selected_config, masked.selected_config, "{gate:?}");
            assert_eq!(plain.detections, masked.detections, "{gate:?}");
            assert_eq!(plain.predicted_losses, masked.predicted_losses, "{gate:?}");
        }
    }

    #[test]
    fn masked_sensors_never_selected() {
        let data = Dataset::generate(&DatasetSpec::small(13));
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        for gate in [GateKind::Attention, GateKind::Deep, GateKind::Knowledge] {
            let mut m = tiny_model();
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_health(no_cams);
            for f in data.test().iter().take(3) {
                let out = m.infer(f, &opts).unwrap();
                let bits = m.config_sensor_bits()[out.selected_config.0];
                assert!(
                    no_cams.allows_bits(bits),
                    "{gate:?} selected camera-dependent {} under a no-camera mask",
                    out.selected_label
                );
            }
        }
    }

    #[test]
    fn infer_batch_matches_sequential_under_mask() {
        let data = Dataset::generate(&DatasetSpec::small(14));
        let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
        let mask = SensorMask::all_available().without(SensorKind::Lidar);
        let mut m = tiny_model();
        let opts = InferenceOptions::new(0.01, 0.5).with_health(mask);
        let batched = m.infer_batch(&frames, &opts).unwrap();
        let sequential: Vec<InferenceOutput> =
            frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.selected_config, s.selected_config);
            assert_eq!(b.detections, s.detections);
        }
    }

    #[test]
    fn knowledge_gate_falls_back_under_camera_dropout() {
        let mut m = tiny_model();
        let mut spec = DatasetSpec::small(15);
        spec.mix = crate::dataset::DatasetMix::Single(ecofusion_scene::Context::City);
        spec.num_scenes = 10;
        let data = Dataset::generate(&spec);
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        let opts =
            InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge).with_health(no_cams);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        // City's primary {E(C_L+C_R+L)} needs cameras; the degraded rule
        // walks the clear-context fallbacks to the lidar/radar pair.
        assert_eq!(out.selected_label, "{E(L+R)}");
    }

    #[test]
    fn quant_image_invalidated_by_weight_access() {
        let mut m = tiny_model();
        assert!(m.quantized().is_none());
        m.ensure_quant().expect("quantizes");
        assert!(m.quantized().is_some());
        let _ = m.stems_mut();
        assert!(m.quantized().is_none(), "stems_mut must drop the image");
        m.ensure_quant().expect("rebuilds");
        let _ = m.branches_mut();
        assert!(m.quantized().is_none(), "branches_mut must drop the image");
        m.ensure_quant().expect("rebuilds");
        m.visit_perception_params(&mut |_| {});
        assert!(m.quantized().is_none(), "param visitor must drop the image");
    }

    /// Mirror of [`quant_image_invalidated_by_weight_access`] for the
    /// fused-plan cache: every mutable weight access drops the resident
    /// plans, and the next run rebuilds them against the new weights (a
    /// stale plan must never serve).
    #[test]
    fn plan_cache_invalidated_by_weight_access() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(9));
        let opts = InferenceOptions::new(0.01, 0.5);
        m.infer(&data.test()[0], &opts).expect("infers");
        assert!(m.plan_cache_len() > 0, "a run must populate the plan cache");
        let warm = m.plan_cache_stats();
        assert!(warm.compiles > 0 && warm.compiles == warm.misses);

        let _ = m.stems_mut();
        assert_eq!(m.plan_cache_len(), 0, "stems_mut must drop compiled plans");
        m.infer(&data.test()[0], &opts).expect("infers");
        let rebuilt = m.plan_cache_stats();
        assert!(rebuilt.compiles > warm.compiles, "stale plans must be recompiled");
        assert!(m.plan_cache_len() > 0);

        let _ = m.branches_mut();
        assert_eq!(m.plan_cache_len(), 0, "branches_mut must drop compiled plans");
        m.infer(&data.test()[0], &opts).expect("infers");
        assert!(m.plan_cache_stats().compiles > rebuilt.compiles);

        m.visit_perception_params(&mut |_| {});
        assert_eq!(m.plan_cache_len(), 0, "param visitor must drop compiled plans");

        // Steady state: a re-run with untouched weights only hits.
        m.infer(&data.test()[0], &opts).expect("infers");
        let cold = m.plan_cache_stats();
        m.infer(&data.test()[0], &opts).expect("infers");
        let steady = m.plan_cache_stats();
        assert_eq!(steady.compiles, cold.compiles, "warm re-run must not recompile");
        assert!(steady.hits > cold.hits, "warm re-run must hit the cache");
    }

    #[test]
    fn options_without_precision_field_deserialize_to_f32() {
        // An options JSON written before the precision axis existed.
        let opts = InferenceOptions::new(0.01, 0.5);
        let json = serde_json::to_string(&opts).expect("serialize");
        let stripped =
            json.replace(",\"precision\":\"F32\"", "").replace("\"precision\":\"F32\",", "");
        assert_ne!(json, stripped, "precision field expected in serialized options");
        let back: InferenceOptions = serde_json::from_str(&stripped).expect("deserialize");
        assert_eq!(back.precision, Precision::F32);
        assert_eq!(back, opts);
    }

    #[test]
    fn config_losses_len() {
        let mut m = tiny_model();
        let data = Dataset::generate(&DatasetSpec::small(8));
        let opts = InferenceOptions::new(0.0, 0.5);
        let sample = m.oracle_pass(&data.test()[..1], &opts).unwrap().pop().unwrap();
        let losses = sample.losses;
        assert_eq!(losses.len(), 127);
        assert!(losses.iter().all(|l| l.is_finite() && *l >= 0.0));
    }
}
