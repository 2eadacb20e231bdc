//! The staged perception pipeline: `infer`/`infer_batch` decomposed into
//! explicit stage units with demand-driven stem execution.
//!
//! # Stage graph
//!
//! ```text
//!            ┌─────────┐   ┌─────────┐   ┌───────────┐   ┌────────┐
//! frame ───▶ │  Sense  │──▶│  Stems  │──▶│ GateScore │──▶│ Select │──┐
//!            └─────────┘   └────▲────┘   └───────────┘   └────┬───┘  │
//!                               │   demand-driven stems       │      │
//!                               └─────────────────────────────┘      │
//!            ┌─────────┐   ┌─────────┐   ┌───────────┐               │
//! output ◀── │ Account │◀──│  Fuse   │◀──│  Branch   │◀──────────────┘
//!            └─────────┘   └─────────┘   └───────────┘
//! ```
//!
//! A [`PipelinePlan`] is derived from the [`InferenceOptions`] *before*
//! anything executes, and prunes the `Stems` stage to the sensors that
//! can still matter:
//!
//! * **Feature-free gates** (knowledge, loss-based oracle) never read the
//!   stem features, so for the knowledge gate `GateScore` and `Select`
//!   run *first* and only the stems feeding the selected configuration's
//!   branches execute — the demand-driven stem rule. A City stream that
//!   the degraded fallback reroutes to `{E(L+R)}` runs 2 stems instead
//!   of 4; the budget ladder's emergency rung (knowledge gate, cheapest
//!   single branch) runs 1.
//! * **Learned gates** need the gate-feature tensor, but sensors the
//!   health mask rules out contribute *zero-filled* feature blocks
//!   (matching the
//!   [`UNAVAILABLE_SENSOR_PENALTY`](crate::model::UNAVAILABLE_SENSOR_PENALTY)
//!   semantics: a masked sensor cannot influence the decision), so their
//!   stems are skipped. Any stem the winning configuration still needs —
//!   possible only when every configuration is masked — is computed on
//!   demand before `Branch`.
//! * The **loss-based oracle** runs every branch a posteriori (§4.2.4),
//!   so all stems stay demanded. Its `GateScore` input — the true fusion
//!   loss of all 127 configurations, also the gate-training target — is
//!   one call of [`ecofusion_detect::subset_fusion_losses`] per frame:
//!   the frame's branch detections are sorted, bitmasked per branch and
//!   pair-indexed (a sweep by left edge) once, and each of the 120
//!   multi-branch configurations is one fusion pass that walks the boxes
//!   its mask admits, keeps the ones that join nothing implicit and
//!   measures only clusters that merged — out of one [`FusionScratch`]
//!   held across steps, which the `Fuse` stage shares. `Branch` then
//!   reuses the oracle's detections instead of re-running branches.
//!
//! On the default all-healthy path with a learned gate the plan demands
//! every stem before `GateScore`, and execution is bit-identical to the
//! original monolithic `infer` (the golden traces pin this).
//!
//! # Two blocks with entries of their own
//!
//! Outside `train_branches` nothing else turns a frame into detections or
//! losses: two blocks of the executor are also reachable on their own,
//! and `infer` runs the very same functions.
//!
//! * **The oracle pass** ([`EcoFusionModel::oracle_pass`]): every stem,
//!   all seven branches over every frame, and from their detections the
//!   true fusion loss of all 127 configurations — the block `GateScore`
//!   runs for the loss-based gate — returned per frame as an
//!   [`OracleSample`] together with the learned gates' input. It reads
//!   ground truth, so its callers are gate training
//!   ([`Trainer::gate_samples`](crate::trainer::Trainer::gate_samples)),
//!   gate assessment and the per-branch diagnostics of the experiment
//!   harness; the serving path reaches the block only through
//!   [`GateKind::LossBased`].
//! * **A fixed selection** ([`EcoFusionModel::detect_static`]): the
//!   `Branch` and `Fuse` stages with the frame "selecting" a given
//!   configuration and no gate. It demands only that configuration's own
//!   stems, and charges only them ([`StemPolicy::Static`]).
//!
//! Both take [`InferenceOptions`] as they are (decode thresholds,
//! precision, health mask), fail a wrong-sized frame with
//! [`InferError::GridMismatch`], and run on the replica's `StepScratch`
//! like any step — so they obey the rule below, *the producer overwrites
//! everything it hands on*, and may be interleaved with `infer` freely.
//!
//! # Accounting
//!
//! The `Account` stage charges a frame its configuration's [`StageTrace`]
//! — Eq. 11 per stage, composed by [`StageTrace::compute_prec`] alone;
//! every total a consumer reads (platform energy, the clock-gated total,
//! latency) is added up from the trace's stages. Adaptive inference
//! reads it from the model's per-configuration cost table
//! ([`account_prec`] for every configuration at both precisions, built
//! once by [`EcoFusionModel::new`]); the trace then records how many
//! stems actually ran and how many were pruned. The *charged*
//! energy always follows the configured [`StemPolicy`] (the paper's
//! compiled engine runs all four stems), so pruning shows up in the
//! counters — real compute saved on this host — without re-calibrating
//! the published numbers.
//!
//! # Precision axis
//!
//! [`InferenceOptions::precision`] selects the kernels of the
//! compute-bound stages. Under [`Precision::F32`] (the default) execution
//! is bit-identical to the pre-quantization pipeline — the golden traces
//! pin it. Under [`Precision::Int8`] the `Stems` and `Branch` stages run
//! the post-training-quantized image of the same weights
//! ([`QuantSnapshot`], built lazily and invalidated on weight mutation):
//! i8×i8→i32 convolutions with folded batch-norm, dequantized back to f32
//! at stage boundaries so
//! `GateScore`, `Select`, decoding, and `Fuse` are untouched. The
//! `Account` stage then charges the int8-scaled Eq. 11 stem/branch costs
//! (the budget ladder's emergency rung exploits this: one stem,
//! quantized).
//!
//! # Compiled execution
//!
//! All three network stacks of the model run as
//! [`CompiledPlan`](ecofusion_tensor::graph::CompiledPlan)s and as
//! nothing else: the four stems and seven branches through the model's
//! [`PlanCache`], the learned gates through a plan each gate owns behind
//! `Gate::predict_batch` (lowered on first scoring, dropped by any access
//! to the gate's parameters). That covers the static baselines, the
//! gate-training targets and gate assessment too (the two blocks above).
//! The layers' own `forward` is for training — in eval mode, for the
//! tests' oracles and the benches. Plans are batch-agnostic — they
//! stream cache-sized tiles of whatever batch they are handed — so the
//! cache keys carry the **per-sample** shape only: a replica compiles
//! 4 + 7 plans per precision the first time each unit runs and nothing
//! afterwards, whatever sub-batch sizes selection goes on to produce,
//! and a plan's arena is sized for a tile, not for the largest batch
//! met.
//!
//! A stem's row is written once, by the register tiles of the stem's
//! plan ([`CompiledPlan::execute_indexed_to`](ecofusion_tensor::graph::CompiledPlan::execute_indexed_to):
//! a destination per sample), into the bank's rows for the step. No
//! consumer copies a row: the plans of the gate and the branches read
//! every (frame, sensor) block where the bank holds it
//! ([`CompiledPlan::execute_indexed_into`](ecofusion_tensor::graph::CompiledPlan::execute_indexed_into)).
//!
//! # Step buffers
//!
//! Every tensor one stage hands to the next lives in the replica's
//! `StepScratch` (one per [`EcoFusionModel`], so one per shard; private,
//! never serialized, and holding activations only, so no weight access
//! invalidates it) instead of being allocated, zeroed, used once and
//! freed every step — at batch 64 those were 0.25–2 MiB each, above the
//! allocator's trim threshold, so every step faulted its pages in again.
//! Who owns what:
//!
//! | buffer | written by | read by |
//! |---|---|---|
//! | `bank.stem_out[s]` `(j, C, h, w)`, one row a frame that demands stem `s` | stem `s`'s plan — row `j` from the grid of frame `pending[j]`, read in its observation | the plans of the learned gate and the branches |
//! | `fusion` | the oracle's configuration scorer, per frame of a loss-based step; the `Fuse` stage, per frame that selected two or more branches | itself |
//! | `bank.zero` `(C, h, w)` | nobody after it is sized | the learned gate's plan, for every sensor the health mask rules out |
//! | `branch.head` `(k, 5 + K, S, S)` | the branch's plan | `decode_sample_into` |
//! | `branch.dets`, one list per (frame, branch) decoded, back to back | `decode_sample_into`, via `branch.kept` | the oracle's scorer; the `Fuse` stage, which copies a lone branch's list or fuses several into the frame's own |
//! | `predicted`, `oracle`, `selected`, `masks`, `need`, `demand`, `all` — per-frame and per-branch lists | the stage that decides them | the stages after it; `Account` moves each frame's predicted losses into its output |
//!
//! Nothing is stacked, gathered or concatenated between two stages: a
//! plan's first convolution lowers the blocks it is handed into its own
//! planes. Each buffer grows to the largest batch it has been asked for
//! ([`Tensor::resize`]) and is never cleared. What makes stale contents
//! harmless is that **the producer overwrites everything it hands on**: a
//! plan writes every element of its output, and a row is read only
//! through the index `ensure` set for it in this batch. Debug builds — so
//! every test — hold that to account: `begin_step` fills the stem rows
//! and the head map with NaN, as a plan does its arena before every tile.
//! A step that fails half-way leaves the buffers as they are; the next
//! starts from `BatchStemBank::reset`, which forgets every row. Lists
//! are cleared and refilled, never dropped, and plan lookups borrow
//! their key ([`PlanCache::try_get_or_compile_by`]), so once the buffers
//! have grown a step requests from the allocator only what its outputs
//! hand out — per frame the fused detections (a list of exactly their
//! length), the predicted losses and the configuration's label.

use crate::config::ConfigId;
use crate::dataset::Frame;
use crate::model::{EcoFusionModel, InferError, InferenceOptions, InferenceOutput, PlanUnit};
use crate::snapshot::QuantSnapshot;
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::{DecodeScratch, Detection, FusionScratch, HeadOutput, Stem};
use ecofusion_energy::{Precision, Px2Model, SensorPowerModel, StageTrace, StemPolicy};
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_scene::GtBox;
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::graph::{self, PlanCache, PlanPrecision};
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Bitmask covering every canonical sensor.
pub const ALL_SENSOR_BITS: u8 = (1 << SensorKind::COUNT) - 1;

/// Plan-cache fingerprint salts. Stems are salted by their sensor index
/// and branches by an offset range so two units with identical
/// architecture (every stem, arity-equal branches) still get distinct
/// cache keys — a plan owns one unit's weight snapshot.
const STEM_SALT_BASE: u64 = 0;
const BRANCH_SALT_BASE: u64 = 0x100;

/// Runs stem `s` over the grids of sensor `k` of `pending` — frames of
/// `frames`, each grid read where its observation holds it — into `rows`,
/// one sample's `(C, h, w)` features after another: the matching
/// compiled plan is fetched from (or built into) `plans` and stores every
/// sample straight to its row, all of it. Plans run any batch (see
/// [`ecofusion_tensor::graph`]), so the plan's key carries the per-sample
/// shape only: a unit compiles once per precision, whatever sub-batch
/// sizes the steps go on to produce.
///
/// # Errors
/// [`InferError::Compile`] if the stem does not lower — only an installed
/// int8 image can do that; the f32 stems are built to the grid. `rows` is
/// untouched then.
fn stem_forward(
    plans: &mut PlanCache,
    stems: &[Stem],
    quant: Option<&QuantSnapshot>,
    k: SensorKind,
    (frames, pending): (&[Frame], &[usize]),
    rows: &mut [f32],
) -> Result<(), InferError> {
    let s = k.index();
    let salt = STEM_SALT_BASE + s as u64;
    let side = frames.first().map_or(0, |f| f.obs.grid_size());
    let shape = [pending.len(), 1, side, side];
    let plan = match quant {
        Some(q) => {
            let fp = graph::fingerprint_quant_pipe(&q.stems[s], salt);
            plans.try_get_or_compile_by(fp, &shape[1..], PlanPrecision::Int8, || {
                graph::compile_quant_pipe(&q.stems[s], &shape)
            })
        }
        None => {
            let fp = stems[s].plan_fingerprint(salt);
            plans.try_get_or_compile_by(fp, &shape[1..], PlanPrecision::F32, || {
                stems[s].compile(&shape)
            })
        }
    }
    .map_err(|source| InferError::Compile { unit: PlanUnit::Stem(s), source })?;
    let grid = |j: usize| frames[pending[j]].obs.grid(k).data();
    let per = rows.len() / pending.len();
    plan.execute_indexed_to(pending.len(), 1, &grid, rows.chunks_exact_mut(per));
    Ok(())
}

/// What the stage graph will execute for one set of inference options,
/// derived *before* execution so pruned stems never run at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// Stems that must run before `GateScore` (bit `i` = canonical
    /// sensor `i`). Zero for gates that never read features.
    pub gate_stem_bits: u8,
    /// Whether the gate reads the stem-feature tensor at all.
    pub gate_reads_features: bool,
    /// Whether every branch must run before gating (loss-based oracle).
    pub needs_oracle: bool,
}

impl PipelinePlan {
    /// Stems demanded before the gate scores (oracle gates demand all).
    pub fn pre_gate_bits(&self) -> u8 {
        if self.needs_oracle {
            ALL_SENSOR_BITS
        } else {
            self.gate_stem_bits
        }
    }
}

/// The `Account` stage: the Eq. 11 stage trace of `specs` under `policy`
/// at `precision` ([`StageTrace::compute_prec`], the one composition).
/// Adaptive inference reads it from the model's per-configuration cost
/// table, which `EcoFusionModel::new` builds with it; a static baseline
/// calls it directly.
pub fn account_prec(
    px2: &Px2Model,
    sensors: &SensorPowerModel,
    specs: &[ecofusion_energy::BranchSpec],
    policy: StemPolicy,
    precision: Precision,
) -> StageTrace {
    StageTrace::compute_prec(px2, sensors, specs, policy, precision)
}

/// An empty vestige of the stem-feature cache, kept only for
/// `benchmark/`; ROADMAP item 12(d) deletes it.
#[derive(Debug, Default)]
pub struct StemFeatureCache;

impl StemFeatureCache {
    /// The empty vestige.
    pub fn new() -> Self {
        StemFeatureCache
    }
}

/// The buffers of one replica's serving step, kept across steps: every
/// tensor a step hands from one stage to the next, and every per-frame
/// list a stage keeps, lives here instead of being allocated, used once
/// and freed (module docs, *Step buffers*). Holds no weights, so nothing
/// ever invalidates it. What it owns:
///
/// * `bank` — the stem rows, where each frame's are, and the frames a
///   forward runs;
/// * `branch` — the head map a branch's plan writes, decode's candidates
///   and suppression buffers, and per frame and branch the decoded
///   detections;
/// * `fusion` — the fusion pass of the oracle's scorer and of `Fuse`;
/// * per frame: the stems a stage demands (`need`), the gate's predicted
///   losses until `Account` hands them out (`predicted`), the oracle's
///   true losses (`oracle`), the selection and its branch mask
///   (`selected`, `masks`);
/// * per branch: the frames that demand it (`demand`); `all`, the frames
///   of a block every frame takes part in;
/// * the oracle frame's ground truth (`gts`), the penalized copy of a
///   masked frame's predictions (`adjusted`), and the empty features a
///   feature-free gate is handed (`no_features`).
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    /// Stem outputs and where each frame's rows are.
    bank: BatchStemBank,
    /// What the `Branch` stage leaves for `Fuse`.
    branch: BranchOut,
    /// The fusion pass of the oracle's configuration scorer and of the
    /// `Fuse` stage: warm after the first step that needs it, it scores
    /// or fuses a frame out of its own buffers.
    fusion: FusionScratch,
    /// `0..n`, for the blocks every frame of the step takes part in.
    all: Vec<usize>,
    /// Per frame, the stems a stage demands.
    need: Vec<u8>,
    /// Per frame, the gate's predicted losses; `Account` moves each into
    /// its frame's output.
    predicted: Vec<Vec<f32>>,
    /// Per frame, the oracle's true loss of every configuration, back to
    /// back (loss-based steps only).
    oracle: Vec<f32>,
    /// The ground truth of the frame the oracle scores.
    gts: Vec<GtBox>,
    /// Per frame, the configuration `Select` chose, and its branch mask.
    selected: Vec<ConfigId>,
    masks: Vec<u8>,
    /// Per branch, the frames that demand it.
    demand: Vec<Vec<usize>>,
    /// A frame's predictions with the sensors its health mask rules out
    /// penalized.
    adjusted: Vec<f32>,
    /// The `features` a gate that reads none is handed.
    no_features: Tensor,
}

/// The `Branch` stage's buffers: what a branch's plan writes, what decode
/// works in, and per frame and branch the detections — what `Fuse` (or
/// the oracle's scorer) reads.
#[derive(Debug, Default)]
struct BranchOut {
    /// The raw head map one branch's plan produced.
    head: HeadOutput,
    /// Decode's candidates and suppression buffers, and the list it
    /// decodes a frame into.
    decode: DecodeScratch,
    kept: Vec<Detection>,
    /// Every list decoded this step, back to back: one buffer whatever
    /// the batch, as large as the largest step's lists.
    dets: Vec<Detection>,
    /// `spans[i · branches + b]`: `(start, len)` of frame `i`'s list of
    /// branch `b` in `dets`, valid this step only where bit `b` of
    /// `decoded[i]` is set.
    spans: Vec<(usize, usize)>,
    /// Per frame, the branches decoded for it this step.
    decoded: Vec<u8>,
    branches: usize,
}

impl BranchOut {
    /// Forgets the last step's detections and makes room for `n` frames
    /// of `branches` branches.
    fn reset(&mut self, n: usize, branches: usize) {
        self.branches = branches;
        self.dets.clear();
        self.spans.clear();
        self.spans.resize(n * branches, (0, 0));
        self.decoded.clear();
        self.decoded.resize(n, 0);
    }

    /// Files `self.kept` as frame `i`'s list of branch `b`.
    fn keep(&mut self, i: usize, b: usize) {
        self.spans[i * self.branches + b] = (self.dets.len(), self.kept.len());
        self.dets.extend_from_slice(&self.kept);
        self.decoded[i] |= 1 << b;
    }

    /// Frame `i`'s detections of branch `b`.
    ///
    /// # Panics
    /// Panics unless the branch was decoded for the frame.
    fn of(&self, i: usize, b: usize) -> &[Detection] {
        assert!(self.decoded[i] >> b & 1 != 0, "demanded branch {b} of frame {i} executed");
        let (start, len) = self.spans[i * self.branches + b];
        &self.dets[start..start + len]
    }
}

/// Lazily computed per-sensor stem features for a batch of frames. Lives
/// in the replica's [`StepScratch`]; [`BatchStemBank::reset`] starts a
/// batch.
#[derive(Debug, Default)]
struct BatchStemBank {
    n: usize,
    half: usize,
    /// Per sensor, the rows of its stem forward, `(j, C, h, w)`, each
    /// written whole by the stem's plan. A sensor runs at most one
    /// forward per batch, so its rows stay put until the step ends.
    stem_out: [Vec<f32>; SensorKind::COUNT],
    /// The frames whose grids the forward of the sensor being ensured
    /// runs: row `j` is frame `pending[j]`'s.
    pending: Vec<usize>,
    /// One `(C, h, w)` block of zeros, shared: what a sensor the health
    /// mask rules out contributes to the learned gates' input.
    zero: Vec<f32>,
    /// Per sensor, per frame: the row of the sensor's forward that holds
    /// the frame's features, if one does.
    rows: [Vec<Option<usize>>; SensorKind::COUNT],
}

impl BatchStemBank {
    /// Forgets the last batch and sizes the per-frame maps for `n` frames
    /// of `half`-sided stem features. The rows keep their allocations and
    /// stale contents (NaN in debug builds); nothing reads them before a
    /// forward rewrites them: every frame starts without a row.
    fn reset(&mut self, n: usize, half: usize) {
        self.n = n;
        self.half = half;
        for rows in &mut self.rows {
            rows.clear();
            rows.resize(n, None);
        }
        self.zero.resize(STEM_CHANNELS * half * half, 0.0);
        #[cfg(debug_assertions)]
        for out in &mut self.stem_out {
            out.fill(f32::NAN);
        }
    }

    /// Runs every `(frame, sensor)` stem demanded by `need_bits` that is
    /// not yet present. All missing rows of one sensor run in a single
    /// forward over their grids, read where the observations hold them,
    /// each into a row of its own (eval-mode stems are batch-invariant, so
    /// subsets are bit-identical). With `quant` set, the int8 stem pipes
    /// execute instead of the f32 stems, as plans out of `plans`.
    ///
    /// # Errors
    /// [`InferError::Compile`] from the first stem that does not lower.
    ///
    /// # Panics
    /// Panics if a sensor that already ran a forward this batch needs a
    /// second one: the pipeline demands a sensor either before the gate,
    /// for every frame, or after selection, for the winners' frames.
    fn ensure(
        &mut self,
        stems: &[Stem],
        frames: &[Frame],
        need_bits: &[u8],
        quant: Option<&QuantSnapshot>,
        plans: &mut PlanCache,
    ) -> Result<(), InferError> {
        let per = STEM_CHANNELS * self.half * self.half;
        for k in SensorKind::ALL {
            let s = k.index();
            let ran = self.rows[s].iter().any(Option::is_some);
            self.pending.clear();
            for i in (0..self.n).filter(|&i| need_bits[i] >> s & 1 != 0) {
                if self.rows[s][i].is_none() {
                    self.rows[s][i] = Some(self.pending.len());
                    self.pending.push(i);
                }
            }
            if self.pending.is_empty() {
                continue;
            }
            assert!(!ran, "a second forward would overwrite the rows of sensor {s}'s first");
            let out = &mut self.stem_out[s];
            let len = self.pending.len() * per;
            // (A warm buffer has its size; what it grows by starts as
            // debug builds leave the rest: NaN.)
            out.resize(out.len().max(len), f32::NAN);
            stem_forward(plans, stems, quant, k, (frames, &self.pending), &mut out[..len])?;
        }
        Ok(())
    }

    /// One frame's `(C, h, w)` features of a sensor, where the bank holds
    /// them — what the plans of the gate and the branches read, in place.
    /// A sensor outside `live_bits` is the shared block of zeros.
    ///
    /// # Panics
    /// Panics if a live sensor's stem has not run for the frame.
    fn block(&self, live_bits: u8, sensor: usize, frame: usize) -> &[f32] {
        let per = self.zero.len();
        match self.rows[sensor][frame] {
            _ if live_bits & (1 << sensor) == 0 => &self.zero,
            None => panic!("stem {sensor} of frame {frame}: demanded by the plan"),
            Some(j) => &self.stem_out[sensor][j * per..(j + 1) * per],
        }
    }

    /// Stems of `frame` executed and skipped this batch.
    fn counts(&self, frame: usize) -> (u8, u8) {
        let executed = self.rows.iter().filter(|rows| rows[frame].is_some()).count() as u8;
        (executed, SensorKind::COUNT as u8 - executed)
    }
}

/// What the oracle pass ([`EcoFusionModel::oracle_pass`]) knows about one
/// frame: a gate-training sample `(features, losses)` and the branch
/// outputs the losses were scored from.
#[derive(Debug, Clone)]
pub struct OracleSample {
    /// The learned gates' input F, `(1, 4·C, h, w)`: the four stem
    /// outputs concatenated along channels, zero-filled for a sensor the
    /// options' health mask rules out.
    pub features: Tensor,
    /// Decoded detections of every branch, in branch-table order.
    pub branch_dets: Vec<Vec<Detection>>,
    /// True fusion loss `L_f(φ)` of every configuration.
    pub losses: Vec<f32>,
}

/// Frames one [`EcoFusionModel::oracle_pass`] step runs, so that scoring
/// a whole dataset leaves the replica's step buffers no larger than a
/// serving step does.
const ORACLE_PASS_BATCH: usize = 16;

impl EcoFusionModel {
    /// Derives the stage-graph plan for one set of inference options:
    /// which stems the gate demands, whether the oracle runs, and
    /// whether stem execution is deferred until after `Select`.
    pub fn plan(&self, opts: &InferenceOptions) -> PipelinePlan {
        match opts.gate {
            GateKind::Knowledge => {
                PipelinePlan { gate_stem_bits: 0, gate_reads_features: false, needs_oracle: false }
            }
            GateKind::LossBased => PipelinePlan {
                gate_stem_bits: ALL_SENSOR_BITS,
                gate_reads_features: false,
                needs_oracle: true,
            },
            GateKind::Deep | GateKind::Attention => PipelinePlan {
                gate_stem_bits: opts.health.bits(),
                gate_reads_features: true,
                needs_oracle: false,
            },
        }
    }

    /// The `Sense` stage: the observation already exists (sensing
    /// happened upstream), so the stage validates it against the model
    /// and accounts the sensor energy later.
    fn sense(&self, frame: &Frame) -> Result<(), InferError> {
        if frame.obs.grid_size() != self.grid {
            return Err(InferError::GridMismatch {
                expected: self.grid,
                found: frame.obs.grid_size(),
            });
        }
        Ok(())
    }

    /// Runs `stages` on the replica's step buffers. The stages borrow the
    /// model and its buffers side by side; a failed step hands the
    /// buffers back like any other.
    fn with_scratch<T>(&mut self, stages: impl FnOnce(&mut Self, &mut StepScratch) -> T) -> T {
        let mut scratch = self.scratch.take().unwrap_or_default();
        let out = stages(self, &mut scratch);
        self.scratch = Some(scratch);
        out
    }

    /// Opens a step: `Sense` over every frame, the int8 image if the
    /// options run on it, and step buffers that have forgotten the last
    /// batch.
    fn begin_step(
        &mut self,
        scratch: &mut StepScratch,
        frames: &[Frame],
        opts: &InferenceOptions,
    ) -> Result<(), InferError> {
        for frame in frames {
            self.sense(frame)?;
        }
        if opts.precision == Precision::Int8 {
            self.ensure_quant().map_err(InferError::Quantize)?;
        }
        let n = frames.len();
        scratch.bank.reset(n, self.grid / 2);
        scratch.branch.reset(n, self.branches.len());
        scratch.all.clear();
        scratch.all.extend(0..n);
        #[cfg(debug_assertions)]
        scratch.branch.head.map.data_mut().fill(f32::NAN);
        Ok(())
    }

    /// The `Stems` stage: banks every `(frame, sensor)` stem `need_bits`
    /// demands and the bank lacks, at the options' precision.
    fn ensure_stems(
        &mut self,
        bank: &mut BatchStemBank,
        frames: &[Frame],
        need_bits: &[u8],
        precision: Precision,
    ) -> Result<(), InferError> {
        let quant = match precision {
            Precision::Int8 => self.quant.as_ref(),
            Precision::F32 => None,
        };
        bank.ensure(&self.stems, frames, need_bits, quant, &mut self.plans)
    }

    /// Staged Algorithm 1 over a batch, on the replica's step buffers:
    /// appends one output per frame to `out` (the body behind
    /// [`EcoFusionModel::infer_batch_into`]).
    fn run_stages(
        &mut self,
        scratch: &mut StepScratch,
        frames: &[Frame],
        opts: &InferenceOptions,
        out: &mut Vec<InferenceOutput>,
    ) -> Result<(), InferError> {
        if frames.is_empty() {
            return Ok(());
        }
        let n = frames.len();
        let plan = self.plan(opts);
        self.begin_step(scratch, frames, opts)?;
        // Stems demanded before gating, across the whole batch — inside
        // the oracle block when the loss-based gate is active, whose
        // detections are kept: Branch reuses them instead of re-running
        // branches.
        if plan.needs_oracle {
            self.oracle_stages(scratch, frames, opts)?;
        } else {
            let StepScratch { bank, need, .. } = scratch;
            need.clear();
            need.resize(n, plan.pre_gate_bits());
            self.ensure_stems(bank, frames, need, opts.precision)?;
        }
        // GateScore. The learned gates run one batched pass over each
        // frame's four stem rows, read where the bank holds them; the
        // knowledge gate reads only `context`, the oracle only
        // `oracle_losses`, so their `features` are empty.
        let StepScratch { bank, predicted, oracle, no_features, .. } = scratch;
        predicted.clear();
        if plan.gate_reads_features {
            let live = plan.gate_stem_bits;
            let block =
                |at: usize| bank.block(live, at % SensorKind::COUNT, at / SensorKind::COUNT);
            match opts.gate {
                GateKind::Deep => {
                    self.gates.deep.predict_blocks(n, SensorKind::COUNT, &block, predicted)
                }
                _ => self.gates.attention.predict_blocks(n, SensorKind::COUNT, &block, predicted),
            }
        } else {
            let configs = self.space.num_configs();
            for (i, f) in frames.iter().enumerate() {
                let input = GateInput {
                    features: no_features,
                    context: Some(f.scene.context),
                    oracle_losses: plan.needs_oracle.then(|| &oracle[i * configs..][..configs]),
                    sensor_health: Some(opts.health),
                };
                predicted.push(match opts.gate {
                    GateKind::Knowledge => self.gates.knowledge.predict(&input),
                    _ => self.gates.loss_based.predict(&input),
                });
            }
        }
        // Select per frame; Branch over what was selected.
        let StepScratch { predicted, selected, adjusted, .. } = scratch;
        selected.clear();
        for p in predicted.iter() {
            selected.push(self.select_with_health(p, opts, adjusted));
        }
        self.run_branches(scratch, frames, opts)?;
        // Fuse + Account per frame.
        out.reserve(n);
        for (i, frame) in frames.iter().enumerate() {
            let selected = scratch.selected[i];
            let detections = self.fuse_frame(scratch, i);
            let trace = self.account_adaptive(selected, opts.precision);
            let (executed, skipped) = scratch.bank.counts(i);
            // Knowledge-gate fallback attribution: a frame whose context
            // has no rule was served by the gate's cheapest-config
            // fallback.
            let fallback = opts.gate == GateKind::Knowledge
                && !self.gates.knowledge.has_rule(frame.scene.context);
            out.push(InferenceOutput {
                detections,
                selected_config: selected,
                selected_label: self.space.label(selected),
                predicted_losses: std::mem::take(&mut scratch.predicted[i]),
                stage_trace: trace.with_stem_counts(executed, skipped),
                precision: opts.precision,
                gate_fallbacks: u32::from(fallback),
            });
        }
        Ok(())
    }

    /// The `Fuse` stage of frame `i`, out of the step's `fusion` scratch:
    /// the detections of its configuration's branches, fused when there
    /// are several, as a list of their own of exactly their length — what
    /// the frame's output hands out.
    fn fuse_frame(&self, scratch: &mut StepScratch, i: usize) -> Vec<Detection> {
        let StepScratch { branch, fusion, masks, .. } = scratch;
        let mask = masks[i];
        if mask.is_power_of_two() {
            return branch.of(i, mask.trailing_zeros() as usize).to_vec();
        }
        let outs = (0..self.branches.len()).filter(|b| mask >> b & 1 != 0);
        let outs = outs.map(|b| branch.of(i, b));
        self.fuse_scratch(outs, mask.count_ones() as usize, fusion)
    }

    /// The oracle block of a step that [`EcoFusionModel::begin_step`]
    /// opened: every stem, every branch over every frame, and from those
    /// the true fusion loss of all 127 configurations. Leaves every
    /// branch's detections of every frame in `scratch.branch`, and the
    /// losses, frame after frame, in `scratch.oracle`.
    ///
    /// # Errors
    /// [`InferError::Compile`] from the first unit that does not lower.
    fn oracle_stages(
        &mut self,
        scratch: &mut StepScratch,
        frames: &[Frame],
        opts: &InferenceOptions,
    ) -> Result<(), InferError> {
        let StepScratch { bank, branch, fusion, all, need, oracle, gts, .. } = scratch;
        need.clear();
        need.resize(frames.len(), ALL_SENSOR_BITS);
        self.ensure_stems(bank, frames, need, opts.precision)?;
        for b in 0..self.branches.len() {
            self.branch_batch_from_bank(b, bank, all, opts, branch)?;
        }
        oracle.clear();
        for (i, f) in frames.iter().enumerate() {
            gts.clear();
            gts.extend(f.gt_iter());
            // (A branch mask is a `u8`: at most eight branches.)
            let mut dets: [&[Detection]; 8] = [&[]; 8];
            let dets = &mut dets[..self.branches.len()];
            for (b, list) in dets.iter_mut().enumerate() {
                *list = branch.of(i, b);
            }
            self.config_losses_into(dets, gts, fusion, oracle);
        }
        Ok(())
    }

    /// The `Branch` stage of a batch whose selection (`scratch.selected`)
    /// is decided — by `Select`, or by a caller that fixes it:
    /// demand-driven stems for the configurations' sensors only, then each
    /// demanded branch once, over exactly the frames that selected it. A
    /// branch the oracle block already decoded for every frame is not run
    /// again.
    ///
    /// # Errors
    /// [`InferError::Compile`] from the first unit that does not lower.
    fn run_branches(
        &mut self,
        scratch: &mut StepScratch,
        frames: &[Frame],
        opts: &InferenceOptions,
    ) -> Result<(), InferError> {
        let StepScratch { bank, branch, selected, masks, need, demand, .. } = scratch;
        need.clear();
        need.extend(selected.iter().map(|s| self.config_sensors[s.0]));
        self.ensure_stems(bank, frames, need, opts.precision)?;
        // Group frames by branch so every branch the batch needs
        // executes exactly once.
        let n_branches = self.branches.len();
        masks.clear();
        masks.extend(selected.iter().map(|sel| self.space.branch_mask(*sel)));
        demand.resize_with(n_branches, Vec::new);
        for (b, idxs) in demand.iter_mut().enumerate() {
            idxs.clear();
            idxs.extend(masks.iter().enumerate().filter(|(_, m)| *m >> b & 1 != 0).map(|(i, _)| i));
        }
        for (b, idxs) in demand.iter().enumerate() {
            if idxs.is_empty() || branch.decoded.iter().all(|d| d >> b & 1 != 0) {
                continue;
            }
            self.branch_batch_from_bank(b, bank, idxs, opts, branch)?;
        }
        Ok(())
    }

    /// Runs one branch's plan over the banked stem features of `frames`
    /// (the whole batch or the sub-batch that selected the branch) — each
    /// (frame, sensor) row read in the bank where it lies — and decodes
    /// one detection list per frame into its slot of `out`. The plan
    /// rewrites `out.head` whole.
    ///
    /// # Errors
    /// [`InferError::Compile`] if the branch does not lower (an installed
    /// int8 image whose shapes do not chain).
    fn branch_batch_from_bank(
        &mut self,
        branch: usize,
        bank: &BatchStemBank,
        frames: &[usize],
        opts: &InferenceOptions,
        out: &mut BranchOut,
    ) -> Result<(), InferError> {
        let sensors = self.space.branches()[branch].sensor_slice();
        let m = sensors.len();
        let shape = [frames.len(), STEM_CHANNELS * m, bank.half, bank.half];
        let salt = BRANCH_SALT_BASE + branch as u64;
        // Int8 backbone + head produce the same raw map layout as the f32
        // branch; the f32 head decodes it (sigmoid/softmax/NMS stay full
        // precision).
        let plan = if opts.precision == Precision::Int8 {
            let q = self.quant.as_ref().expect("int8 image built before the Branch stage");
            let qb = &q.branches[branch];
            let fp = qb.plan_fingerprint(salt);
            self.plans
                .try_get_or_compile_by(fp, &shape[1..], PlanPrecision::Int8, || qb.compile(&shape))
        } else {
            let det = &self.branches[branch];
            let fp = det.plan_fingerprint(salt);
            self.plans
                .try_get_or_compile_by(fp, &shape[1..], PlanPrecision::F32, || det.compile(&shape))
        }
        .map_err(|source| InferError::Compile { unit: PlanUnit::Branch(branch), source })?;
        let block =
            |at: usize| bank.block(ALL_SENSOR_BITS, sensors[at % m].index(), frames[at / m]);
        plan.resize_output(frames.len(), &mut out.head.map);
        plan.execute_indexed_into(frames.len(), m, &block, &mut out.head.map);
        let det = &self.branches[branch];
        for (j, &i) in frames.iter().enumerate() {
            let (score, iou) = (opts.score_thresh, opts.nms_iou);
            det.decode_sample_into(&out.head, j, score, iou, &mut out.decode, &mut out.kept);
            out.keep(i, branch);
        }
        Ok(())
    }

    /// [`EcoFusionModel::infer_batch`] appending the outputs to `out`: a
    /// caller that keeps the vector across steps (the runtime's work units
    /// do) leaves a warm step allocating only what the outputs hand out —
    /// per frame its detections, its predicted losses and its label. On
    /// an error `out` holds the outputs it held before.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    pub fn infer_batch_into(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        out: &mut Vec<InferenceOutput>,
    ) -> Result<(), InferError> {
        self.with_scratch(|model, scratch| model.run_stages(scratch, frames, opts, out))
    }

    /// [`EcoFusionModel::infer_batch`] behind a one-lane-per-frame assert:
    /// a vestige kept only for `benchmark/`; ROADMAP item 12(d) deletes it.
    pub fn infer_batch_cached(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        _caches: &mut [StemFeatureCache],
        lane_of: &[usize],
    ) -> Result<Vec<InferenceOutput>, InferError> {
        assert_eq!(lane_of.len(), frames.len(), "one cache lane per frame");
        self.infer_batch(frames, opts)
    }

    /// Runs a *fixed* configuration as a static baseline (paper Table 1
    /// rows: None / Early / Late): the `Branch` and `Fuse` stages with
    /// the frame "selecting" `config` and no gate. Only the
    /// configuration's own stems execute — the returned trace counts
    /// them — and only they are charged ([`StemPolicy::Static`]), at the
    /// options' precision.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    pub fn detect_static(
        &mut self,
        frame: &Frame,
        config: ConfigId,
        opts: &InferenceOptions,
    ) -> Result<(Vec<Detection>, StageTrace), InferError> {
        let (detections, (executed, skipped)) = self.with_scratch(|model, scratch| {
            let frames = std::slice::from_ref(frame);
            model.begin_step(scratch, frames, opts)?;
            scratch.selected.clear();
            scratch.selected.push(config);
            model.run_branches(scratch, frames, opts)?;
            Ok((model.fuse_frame(scratch, 0), scratch.bank.counts(0)))
        })?;
        let specs = self.space.branch_specs(config);
        let trace =
            account_prec(&self.px2, &self.sensor_power, &specs, StemPolicy::Static, opts.precision);
        Ok((detections, trace.with_stem_counts(executed, skipped)))
    }

    /// The oracle pass (module docs, *Two blocks with entries of their
    /// own*): per frame, the learned gates' input, every branch's
    /// detections and the true fusion loss of all 127 configurations —
    /// what the loss-based gate scores a frame from, returned instead of
    /// consumed. `opts` supplies the decode thresholds, the precision and
    /// the health mask of the features; gate, `λ_E` and `γ` are not read.
    /// Frames run `ORACLE_PASS_BATCH` at a time; plans are batch-agnostic,
    /// so the result does not depend on it.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    pub fn oracle_pass(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
    ) -> Result<Vec<OracleSample>, InferError> {
        let (branches, configs) = (self.branches.len(), self.space.num_configs());
        self.with_scratch(|model, scratch| {
            let mut samples = Vec::with_capacity(frames.len());
            for chunk in frames.chunks(ORACLE_PASS_BATCH) {
                model.begin_step(scratch, chunk, opts)?;
                model.oracle_stages(scratch, chunk, opts)?;
                let (bank, live) = (&scratch.bank, opts.health.bits());
                let shape = [1, SensorKind::COUNT * STEM_CHANNELS, bank.half, bank.half];
                samples.extend((0..chunk.len()).map(|i| {
                    let rows = (0..SensorKind::COUNT).flat_map(|s| bank.block(live, s, i));
                    OracleSample {
                        features: Tensor::from_vec(&shape, rows.copied().collect()),
                        branch_dets: (0..branches)
                            .map(|b| scratch.branch.of(i, b).to_vec())
                            .collect(),
                        losses: scratch.oracle[i * configs..][..configs].to_vec(),
                    }
                }));
            }
            Ok(samples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetMix, DatasetSpec};
    use crate::model::EcoFusionModel;
    use ecofusion_scene::Context;
    use ecofusion_sensors::SensorMask;
    use ecofusion_tensor::rng::Rng;

    fn tiny_model() -> EcoFusionModel {
        let mut rng = Rng::new(1);
        EcoFusionModel::new(32, 8, &mut rng)
    }

    fn city_data(seed: u64) -> Dataset {
        let mut spec = DatasetSpec::small(seed);
        spec.mix = DatasetMix::Single(Context::City);
        spec.num_scenes = 10;
        Dataset::generate(&spec)
    }

    #[test]
    fn plan_reflects_gate_and_mask() {
        let m = tiny_model();
        let attention = m.plan(&InferenceOptions::new(0.01, 0.5));
        assert!(attention.gate_reads_features);
        assert_eq!(attention.gate_stem_bits, ALL_SENSOR_BITS);
        assert_ne!(attention.pre_gate_bits(), 0);

        let masked = InferenceOptions::new(0.01, 0.5)
            .with_health(SensorMask::all_available().without(SensorKind::Lidar));
        let plan = m.plan(&masked);
        assert_eq!(plan.gate_stem_bits & (1 << SensorKind::Lidar.index()), 0);
        assert_eq!(plan.pre_gate_bits().count_ones(), 3);

        let knowledge = m.plan(&InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
        assert_eq!(knowledge.pre_gate_bits(), 0);

        let oracle = m.plan(&InferenceOptions::new(0.01, 0.5).with_gate(GateKind::LossBased));
        assert!(oracle.needs_oracle);
        assert_eq!(oracle.pre_gate_bits(), ALL_SENSOR_BITS);
    }

    #[test]
    fn learned_gate_runs_all_stems_on_healthy_path() {
        let mut m = tiny_model();
        let data = city_data(41);
        let out = m.infer(&data.test()[0], &InferenceOptions::new(0.01, 0.5)).unwrap();
        assert_eq!(out.stage_trace.stems_executed, 4);
        assert_eq!(out.stage_trace.stems_skipped, 0);
    }

    #[test]
    fn knowledge_gate_runs_only_the_winners_stems() {
        let mut m = tiny_model();
        let data = city_data(42);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        // City's rule is early-3 {E(C_L+C_R+L)}: three stems, radar pruned.
        assert_eq!(out.selected_label, "{E(C_L+C_R+L)}");
        assert_eq!(out.stage_trace.stems_executed, 3);
        assert_eq!(out.stage_trace.stems_skipped, 1);
    }

    #[test]
    fn degraded_fallback_prunes_further() {
        let mut m = tiny_model();
        let data = city_data(43);
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        let opts =
            InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge).with_health(no_cams);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.selected_label, "{E(L+R)}");
        assert_eq!(out.stage_trace.stems_executed, 2);
        assert_eq!(out.stage_trace.stems_skipped, 2);
    }

    #[test]
    fn emergency_rung_runs_one_stem() {
        let mut m = tiny_model();
        let data = city_data(44);
        // The budget ladder's last rung: knowledge gate, every config a
        // candidate, λ_E = 1 → the globally cheapest single branch.
        let opts = InferenceOptions {
            lambda_e: 1.0,
            gamma: 1.0e9,
            ..InferenceOptions::new(1.0, 0.5).with_gate(GateKind::Knowledge)
        };
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(m.space().branch_ids(out.selected_config).len(), 1);
        assert_eq!(out.stage_trace.stems_executed, 1);
        assert_eq!(out.stage_trace.stems_skipped, 3);
    }

    #[test]
    fn oracle_gate_runs_every_stem() {
        let mut m = tiny_model();
        let data = city_data(45);
        let opts = InferenceOptions::new(0.5, 0.5).with_gate(GateKind::LossBased);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.stage_trace.stems_executed, 4);
    }

    #[test]
    fn batch_counters_match_single_frame() {
        let data = city_data(46);
        let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
        for gate in [GateKind::Knowledge, GateKind::Attention] {
            let mut m = tiny_model();
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
            let batched = m.infer_batch(&frames, &opts).unwrap();
            let sequential: Vec<InferenceOutput> =
                frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.stage_trace.stems_executed, s.stage_trace.stems_executed, "{gate:?}");
                assert_eq!(b.stage_trace.stems_skipped, s.stage_trace.stems_skipped, "{gate:?}");
                assert_eq!(b.detections, s.detections, "{gate:?}");
            }
        }
    }

    #[test]
    fn int8_inference_runs_and_charges_less() {
        let data = city_data(50);
        let frame = &data.test()[0];
        for gate in [GateKind::Attention, GateKind::Knowledge] {
            let mut m = tiny_model();
            let f32_out =
                m.infer(frame, &InferenceOptions::new(0.01, 0.5).with_gate(gate)).unwrap();
            let i8_opts =
                InferenceOptions::new(0.01, 0.5).with_gate(gate).with_precision(Precision::Int8);
            let i8_out = m.infer(frame, &i8_opts).unwrap();
            assert_eq!(f32_out.precision, Precision::F32, "{gate:?}");
            assert_eq!(i8_out.precision, Precision::Int8, "{gate:?}");
            // The served trace is the int8 adaptive account of φ*, with
            // the stems the frame ran.
            let trace = &i8_out.stage_trace;
            let want = account_prec(
                m.px2(),
                m.sensor_power(),
                &m.space().branch_specs(i8_out.selected_config),
                StemPolicy::Adaptive,
                Precision::Int8,
            )
            .with_stem_counts(trace.stems_executed, trace.stems_skipped);
            assert_eq!(*trace, want, "{gate:?}");
            // Same configuration selected (the gate is precision-invariant
            // for knowledge; learned gates see quantized features but the
            // charge comparison needs matching configs, so only assert
            // energy when they agree).
            if i8_out.selected_config == f32_out.selected_config {
                let (i8_j, f32_j) =
                    (i8_out.stage_trace.platform_energy(), f32_out.stage_trace.platform_energy());
                assert!(i8_j < f32_j, "{gate:?}: int8 {i8_j} !< f32 {f32_j}");
            }
            assert!(i8_out.detections.iter().all(|d| d.score.is_finite()), "{gate:?}");
        }
    }

    #[test]
    fn int8_batch_matches_sequential_int8() {
        let data = city_data(51);
        let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
        let mut m = tiny_model();
        let opts = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let batched = m.infer_batch(&frames, &opts).unwrap();
        let sequential: Vec<_> = frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.selected_config, s.selected_config);
            assert_eq!(b.detections, s.detections);
            assert_eq!(b.precision, Precision::Int8);
        }
    }

    #[test]
    fn int8_emergency_rung_runs_one_quantized_stem() {
        let mut m = tiny_model();
        let data = city_data(52);
        let opts = InferenceOptions {
            lambda_e: 1.0,
            gamma: 1.0e9,
            ..InferenceOptions::new(1.0, 0.5)
                .with_gate(GateKind::Knowledge)
                .with_precision(Precision::Int8)
        };
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(m.space().branch_ids(out.selected_config).len(), 1);
        assert_eq!(out.stage_trace.stems_executed, 1);
        assert_eq!(out.precision, Precision::Int8);
        // The quantized emergency rung undercuts the f32 one.
        let f32_opts = InferenceOptions { precision: Precision::F32, ..opts };
        let f32_out = m.infer(&data.test()[0], &f32_opts).unwrap();
        assert_eq!(f32_out.selected_config, out.selected_config);
        assert!(out.stage_trace.platform_energy() < f32_out.stage_trace.platform_energy());
        assert!(out.stage_trace.total_latency() < f32_out.stage_trace.total_latency());
    }
}
