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
//! — Eq. 11 per stage, composed by [`StageTrace::compute_prec`] alone —
//! and the [`EnergyBreakdown`] that is a view of it, so the stage costs
//! sum to the breakdown's totals bit for bit. Adaptive inference reads
//! both from the model's per-configuration cost table ([`account_prec`]
//! for every configuration at both precisions, built once by
//! [`EcoFusionModel::new`]); the trace then records how many stems
//! actually ran, were served from a cache, or were pruned. The *charged*
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
//! ([`QuantSnapshot`](crate::snapshot::QuantSnapshot), built lazily and
//! invalidated on weight mutation): i8×i8→i32 convolutions with folded
//! batch-norm, dequantized back to f32 at stage boundaries so
//! `GateScore`, `Select`, decoding, and `Fuse` are untouched. The
//! `Account` stage then charges the int8-scaled Eq. 11 stem/branch costs
//! (the budget ladder's emergency rung exploits this: one stem,
//! quantized). Stem-feature caches are bypassed for int8 batches — they
//! hold f32 features.
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
//! # Stem-feature caching
//!
//! [`StemFeatureCache`] memoizes one `(grid, stem features)` pair per
//! sensor — exactly what a frozen-frame fault or a static scene
//! produces. The runtime keeps one cache per stream and routes it into
//! [`EcoFusionModel::infer_batch_cached`] via a [`StemCacheRouter`];
//! identical grids inside one micro-batch are deduplicated too. Because
//! stems are batch-invariant in eval mode (asserted by the detect
//! crate's tests), a cached row is bit-identical to recomputing it. A
//! stem's row is written once, by the register tiles of the stem's plan
//! ([`CompiledPlan::execute_blocks_to`](ecofusion_tensor::graph::CompiledPlan::execute_blocks_to):
//! a destination per sample), into a buffer of its own that the bank
//! holds for the step — a frame's row is an index to it, shared by the
//! frames whose grid repeats it — and that **the stream's cache entry
//! owns when the step ends**: `BatchStemBank::publish` swaps it for the
//! entry's old buffer, which the next step's forward fills. So a miss
//! costs its stream one copy, the 4 KiB grid, and no copy of the 8 KiB
//! features; a hit one (into the bank's replayed rows); an in-batch
//! alias's own stream its two; none an allocation. No consumer copies a
//! row either: the plans of the gate and the branches read every (frame,
//! sensor) block where the bank holds it
//! ([`CompiledPlan::execute_blocks_into`](ecofusion_tensor::graph::CompiledPlan::execute_blocks_into)).
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
//! | `bank.stem_out[s][j]` `(C, h, w)`, one buffer a miss | stem `s`'s plan — row `j` from the grid of miss `j`, read in its observation | the plans of the learned gate and the branches; after them `publish`, which hands the buffer to the stream's cache entry (cached f32 steps) and keeps the entry's old one |
//! | `fusion` | the oracle's configuration scorer, per frame of a loss-based step; the `Fuse` stage, per frame that selected two or more branches | itself |
//! | `bank.replayed` `(j, C, h, w)` | `BatchStemBank::ensure`, one copy per cache hit | the same plans |
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
//! every test — hold that to account: `begin_step` fills the stem rows —
//! whichever buffers the bank holds after the last step's swaps — and the
//! head map with NaN, as a plan does its arena before every tile.
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
use ecofusion_energy::{
    EnergyBreakdown, Precision, Px2Model, SensorPowerModel, StageKind, StageTrace, StemPolicy,
};
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_scene::GtBox;
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::graph::{self, PlanCache, PlanPrecision};
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bitmask covering every canonical sensor.
pub const ALL_SENSOR_BITS: u8 = (1 << SensorKind::COUNT) - 1;

/// Plan-cache fingerprint salts. Stems are salted by their sensor index
/// and branches by an offset range so two units with identical
/// architecture (every stem, arity-equal branches) still get distinct
/// cache keys — a plan owns one unit's weight snapshot.
const STEM_SALT_BASE: u64 = 0;
const BRANCH_SALT_BASE: u64 = 0x100;

/// Runs stem `s` over the grids of sensor `k` of `misses` — frames of
/// `frames`, each grid read where its observation holds it — into `rows`,
/// one sample's `(C, h, w)` features each: the matching compiled plan is
/// fetched from (or built into) `plans` and stores every sample straight
/// to its row, all of it. Plans run any batch (see
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
    (frames, misses): (&[Frame], &[usize]),
    rows: &mut [Vec<f32>],
) -> Result<(), InferError> {
    let s = k.index();
    let salt = STEM_SALT_BASE + s as u64;
    let side = frames.first().map_or(0, |f| f.obs.grid_size());
    let shape = [misses.len(), 1, side, side];
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
    let grid = |j: usize| frames[misses[j]].obs.grid(k).data();
    plan.execute_indexed_to(misses.len(), 1, &grid, rows.iter_mut().map(Vec::as_mut_slice));
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

    /// Whether stem execution is deferred until after `Select` (nothing
    /// is demanded before the gate, so only the winner's stems run).
    pub fn demand_driven(&self) -> bool {
        self.pre_gate_bits() == 0
    }
}

/// The `Account` stage: the Eq. 11 stage trace of `specs` under `policy`
/// at `precision` ([`StageTrace::compute_prec`], the one composition) and
/// the breakdown it is a view of. Adaptive inference reads it from the
/// model's per-configuration cost table, which `EcoFusionModel::new`
/// builds with it; a static baseline calls it directly.
pub fn account_prec(
    px2: &Px2Model,
    sensors: &SensorPowerModel,
    specs: &[ecofusion_energy::BranchSpec],
    policy: StemPolicy,
    precision: Precision,
) -> (EnergyBreakdown, StageTrace) {
    let trace = StageTrace::compute_prec(px2, sensors, specs, policy, precision);
    (trace.breakdown(sensors), trace)
}

/// Per-sensor memo of the last `(grid, stem features)` pair, plus
/// hit/miss counters. One cache serves one stream: consecutive frames
/// with an unchanged grid (frozen-frame faults, static scenes) reuse the
/// stem output instead of re-running the convolution.
#[derive(Debug, Default)]
pub struct StemFeatureCache {
    entries: [Option<CacheEntry>; SensorKind::COUNT],
    hits: u64,
    misses: u64,
}

#[derive(Debug, Default)]
struct CacheEntry {
    grid: Tensor,
    feat: Vec<f32>,
    /// Set only inside [`BatchStemBank::publish`]: the row of the step's
    /// forward the entry is about to take over.
    claim: Option<usize>,
}

impl StemFeatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        StemFeatureCache::default()
    }

    /// Returns the memoized `(C, h, w)` features when `grid` matches the
    /// cached one bit for bit. Counting is explicit
    /// ([`StemFeatureCache::note`]) because an intra-batch alias also
    /// counts as a reuse.
    fn lookup(&self, sensor: usize, grid: &Tensor) -> Option<&[f32]> {
        match &self.entries[sensor] {
            Some(e) if e.grid == *grid => Some(&e.feat),
            _ => None,
        }
    }

    fn note(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Memoizes `(grid, feat)` for `sensor` by copy, overwriting the
    /// entry's buffers in place: a stream's grids and features keep their
    /// sizes, so this allocates once per stream, not per frame.
    fn store(&mut self, sensor: usize, grid: &Tensor, feat: &[f32]) {
        let e = self.entries[sensor].get_or_insert_default();
        e.claim = None;
        e.remember(grid);
        e.feat.clear();
        e.feat.extend_from_slice(feat);
    }

    /// Memoizes `(grid, row)` for `sensor` if the entry still waits for
    /// row `j` (`claim`), **taking** the row's buffer and leaving the
    /// entry's old one in its place: the features a stem's plan wrote
    /// there are not copied again.
    fn adopt(&mut self, sensor: usize, j: usize, grid: &Tensor, row: &mut Vec<f32>) {
        let e = self.entries[sensor].as_mut().expect("claimed before it is adopted");
        if e.claim == Some(j) {
            e.claim = None;
            e.remember(grid);
            std::mem::swap(&mut e.feat, row);
        }
    }

    fn claim(&mut self, sensor: usize, j: usize) {
        self.entries[sensor].get_or_insert_default().claim = Some(j);
    }

    /// Lookups that matched the cached grid.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (and forced a stem execution).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl CacheEntry {
    /// Copies `grid` over the entry's own, in place when the shapes agree.
    fn remember(&mut self, grid: &Tensor) {
        if self.grid.shape() == grid.shape() {
            self.grid.data_mut().copy_from_slice(grid.data());
        } else {
            self.grid = grid.clone();
        }
    }
}

/// Routes per-frame cache lookups of a micro-batch to per-stream caches:
/// frame `i` uses `caches[lane_of[i]]`.
pub struct StemCacheRouter<'a> {
    caches: &'a mut [StemFeatureCache],
    lane_of: &'a [usize],
}

impl<'a> StemCacheRouter<'a> {
    /// Creates a router.
    ///
    /// # Panics
    /// Panics if any lane index is out of range.
    pub fn new(caches: &'a mut [StemFeatureCache], lane_of: &'a [usize]) -> Self {
        assert!(lane_of.iter().all(|&l| l < caches.len()), "cache lane index out of range");
        StemCacheRouter { caches, lane_of }
    }
}

/// The buffers of one replica's serving step, kept across steps: every
/// tensor a step hands from one stage to the next, and every per-frame
/// list a stage keeps, lives here instead of being allocated, used once
/// and freed (module docs, *Step buffers*). Holds no weights, so nothing
/// ever invalidates it. What it owns:
///
/// * `bank` — the stem rows and where each frame's are, the grids a
///   forward runs, the in-batch dedupe buckets;
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

/// Where the bank holds one frame's features of one sensor.
#[derive(Debug, Clone, Copy)]
enum StemRow {
    /// Nowhere: no stage has demanded them (yet).
    Missing,
    /// Row `j` of the sensor's stem forward.
    Forward(usize),
    /// Row `j` of the rows replayed from the streams' caches.
    Replayed(usize),
}

/// The misses of one sensor's batch so far, bucketed by the first cache
/// line of their grids: a pending grid is compared in full only with the
/// misses in its bucket, not with every earlier miss of the batch.
#[derive(Debug, Default)]
struct GridBuckets {
    /// Per key, the last miss with it.
    last: HashMap<[u32; 16], usize>,
    /// Per miss `j`: its frame, and the miss before it in its bucket.
    misses: Vec<(usize, Option<usize>)>,
    /// Full-grid comparisons made since the bank was created.
    #[cfg(test)]
    compares: usize,
}

impl GridBuckets {
    /// The miss whose grid of sensor `k` equals `frame`'s — at most one
    /// does, or the later would have been its alias — else `frame`
    /// becomes the next miss.
    fn alias_or_insert(&mut self, frame: usize, k: SensorKind, of: &[Frame]) -> Option<usize> {
        let grid = of[frame].obs.grid(k);
        // `+ 0.0` folds −0.0 onto 0.0, which `==` holds equal.
        let key = std::array::from_fn(|i| grid.data().get(i).map_or(0, |v| (v + 0.0).to_bits()));
        let mut at = self.last.get(&key).copied();
        while let Some(j) = at {
            let (other, before) = self.misses[j];
            #[cfg(test)]
            (self.compares += 1);
            if of[other].obs.grid(k) == grid {
                return Some(j);
            }
            at = before;
        }
        let before = self.last.insert(key, self.misses.len());
        self.misses.push((frame, before));
        None
    }
}

/// Lazily computed per-sensor stem features for a batch of frames, with
/// optional per-stream cache routing and intra-batch deduplication. Lives
/// in the replica's [`StepScratch`]; [`BatchStemBank::reset`] starts a
/// batch.
#[derive(Debug, Default)]
struct BatchStemBank {
    n: usize,
    half: usize,
    /// Per sensor, the rows of its stem forward: one `(C, h, w)` buffer a
    /// miss, each written whole by the stem's plan. A sensor runs at most
    /// one forward per batch, so its rows stay put until the step ends —
    /// when [`BatchStemBank::publish`] swaps a row's buffer for the one
    /// its stream's cache entry held.
    stem_out: [Vec<Vec<f32>>; SensorKind::COUNT],
    /// The frames whose grids the forward of the sensor being ensured
    /// runs: row `j` is frame `misses[j]`'s (and its in-batch aliases').
    misses: Vec<usize>,
    /// The `(C, h, w)` rows the streams' caches replayed this batch, back
    /// to back: a hit is copied here once and read in place.
    replayed: Vec<f32>,
    /// One `(C, h, w)` block of zeros, shared: what a sensor the health
    /// mask rules out contributes to the learned gates' input.
    zero: Vec<f32>,
    /// Per sensor, per frame: where the features are.
    rows: [Vec<StemRow>; SensorKind::COUNT],
    /// Per-frame bits of stems run fresh.
    computed: Vec<u8>,
    /// Per-frame bits of stems served from a cache or an identical
    /// in-batch grid.
    cached: Vec<u8>,
    dedupe: GridBuckets,
}

impl BatchStemBank {
    /// Forgets the last batch and sizes the per-frame maps for `n` frames
    /// of `half`-sided stem features. The rows keep their allocations and
    /// stale contents (NaN in debug builds); nothing reads them before a
    /// forward rewrites them: every row starts [`StemRow::Missing`].
    fn reset(&mut self, n: usize, half: usize) {
        self.n = n;
        self.half = half;
        for rows in &mut self.rows {
            rows.clear();
            rows.resize(n, StemRow::Missing);
        }
        for bits in [&mut self.computed, &mut self.cached] {
            bits.clear();
            bits.resize(n, 0);
        }
        self.replayed.clear();
        self.zero.resize(STEM_CHANNELS * half * half, 0.0);
        #[cfg(debug_assertions)]
        for row in self.stem_out.iter_mut().flatten() {
            row.fill(f32::NAN);
        }
    }

    fn has(&self, sensor: usize, frame: usize) -> bool {
        (self.computed[frame] | self.cached[frame]) & (1 << sensor) != 0
    }

    /// Runs every `(frame, sensor)` stem demanded by `need_bits` that is
    /// not yet present, consulting `router` first when given (what the
    /// step computes reaches the caches when it ends:
    /// [`BatchStemBank::publish`]). All missing rows of one sensor run in
    /// a single forward over their grids, read where the observations hold
    /// them, each into a row of its own (eval-mode stems are
    /// batch-invariant, so subsets are bit-identical). With `quant` set,
    /// the int8 stem pipes execute instead of the f32 stems (the caller
    /// guarantees the router is disabled then — caches hold f32
    /// features), as plans out of `plans`.
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
        mut router: Option<&mut StemCacheRouter<'_>>,
        quant: Option<&QuantSnapshot>,
        plans: &mut PlanCache,
    ) -> Result<(), InferError> {
        let per = STEM_CHANNELS * self.half * self.half;
        for k in SensorKind::ALL {
            let s = k.index();
            let bit = 1u8 << s;
            let ran = self.rows[s].iter().any(|row| matches!(row, StemRow::Forward(_)));
            // The grids one forward runs: row `j` of it is miss `j`'s,
            // and that of every frame whose grid repeats it.
            self.misses.clear();
            self.dedupe.last.clear();
            self.dedupe.misses.clear();
            for i in (0..self.n).filter(|&i| need_bits[i] & bit != 0) {
                if self.has(s, i) {
                    continue;
                }
                let grid = frames[i].obs.grid(k);
                // Cache lookups + intra-batch dedupe (identical grids of
                // one micro-batch compute once and share the row: a hit
                // the entry-based cache cannot serve yet).
                let reused = router.as_deref_mut().and_then(|r| {
                    let cache = &mut r.caches[r.lane_of[i]];
                    let row = if let Some(feat) = cache.lookup(s, grid) {
                        self.replayed.extend_from_slice(feat);
                        Some(StemRow::Replayed(self.replayed.len() / per - 1))
                    } else {
                        self.dedupe.alias_or_insert(i, k, frames).map(StemRow::Forward)
                    };
                    cache.note(row.is_some());
                    row
                });
                let served = if reused.is_some() { &mut self.cached } else { &mut self.computed };
                served[i] |= bit;
                self.rows[s][i] = reused.unwrap_or(StemRow::Forward(self.misses.len()));
                if reused.is_none() {
                    self.misses.push(i);
                }
            }
            if self.misses.is_empty() {
                continue;
            }
            assert!(!ran, "a second forward would overwrite the rows of sensor {s}'s first");
            let out = &mut self.stem_out[s];
            out.resize_with(out.len().max(self.misses.len()), Vec::new);
            let rows = &mut out[..self.misses.len()];
            // (A warm row has its size; one a cache took, or a new one,
            // starts as debug builds leave the others: NaN.)
            rows.iter_mut().for_each(|row| row.resize(per, f32::NAN));
            stem_forward(plans, stems, quant, k, (frames, &self.misses), rows)?;
        }
        Ok(())
    }

    /// Memoizes what the step's stem forwards computed in the caches of
    /// the frames' streams, once nothing reads the bank any more. A miss
    /// costs its stream the copy of the grid and no copy of the features:
    /// the plan wrote them into a row of their own, and the stream's entry
    /// **takes that buffer**, leaving its old one for the next step's
    /// forward to fill. An in-batch alias's stream gets the copy it always
    /// got. Per sensor the misses' streams come first, then the aliases',
    /// and of several stores to one entry the last stands — the order they
    /// were always made in — so a miss only claims its entry, the aliases
    /// copy while every row is still where `block` finds it, and then each
    /// miss whose claim stands hands its row over.
    fn publish(&mut self, frames: &[Frame], router: &mut StemCacheRouter<'_>) {
        for k in SensorKind::ALL {
            let (s, bit) = (k.index(), 1u8 << k.index());
            // `(frame, row)` of the frames `served` lists whose features
            // are a row of the forward.
            fn forward<'a>(
                served: &'a [u8],
                rows: &'a [StemRow],
                bit: u8,
            ) -> impl Iterator<Item = (usize, usize)> + 'a {
                rows.iter().enumerate().filter_map(move |(i, row)| match row {
                    StemRow::Forward(j) if served[i] & bit != 0 => Some((i, *j)),
                    _ => None,
                })
            }
            for (i, j) in forward(&self.computed, &self.rows[s], bit) {
                router.caches[router.lane_of[i]].claim(s, j);
            }
            for (i, j) in forward(&self.cached, &self.rows[s], bit) {
                let cache = &mut router.caches[router.lane_of[i]];
                cache.store(s, frames[i].obs.grid(k), &self.stem_out[s][j]);
            }
            for (i, j) in forward(&self.computed, &self.rows[s], bit) {
                let cache = &mut router.caches[router.lane_of[i]];
                cache.adopt(s, j, frames[i].obs.grid(k), &mut self.stem_out[s][j]);
            }
        }
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
            StemRow::Missing => panic!("stem {sensor} of frame {frame}: demanded by the plan"),
            StemRow::Forward(j) => &self.stem_out[sensor][j],
            StemRow::Replayed(j) => &self.replayed[j * per..(j + 1) * per],
        }
    }

    fn counts(&self, frame: usize) -> (u8, u8, u8) {
        let executed = self.computed[frame].count_ones() as u8;
        let cached = self.cached[frame].count_ones() as u8;
        (executed, cached, SensorKind::COUNT as u8 - executed - cached)
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
        router: Option<&mut StemCacheRouter<'_>>,
        precision: Precision,
    ) -> Result<(), InferError> {
        // Stem-feature caches hold f32 features; an int8 batch must
        // neither consult nor fill them (cross-precision poisoning).
        let (quant, router) = match precision {
            Precision::Int8 => (self.quant.as_ref(), None),
            Precision::F32 => (None, router),
        };
        bank.ensure(&self.stems, frames, need_bits, router, quant, &mut self.plans)
    }

    /// Staged Algorithm 1 over a batch (the body behind
    /// [`EcoFusionModel::infer_batch`] and
    /// [`EcoFusionModel::infer_batch_cached_into`]), on the replica's step
    /// buffers: appends one output per frame to `out`.
    pub(crate) fn run_staged_batch(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        router: Option<StemCacheRouter<'_>>,
        out: &mut Vec<InferenceOutput>,
    ) -> Result<(), InferError> {
        self.with_scratch(|model, scratch| model.run_stages(scratch, frames, opts, router, out))
    }

    fn run_stages(
        &mut self,
        scratch: &mut StepScratch,
        frames: &[Frame],
        opts: &InferenceOptions,
        mut router: Option<StemCacheRouter<'_>>,
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
            self.oracle_stages(scratch, frames, opts, router.as_mut())?;
        } else {
            let StepScratch { bank, need, .. } = scratch;
            need.clear();
            need.resize(n, plan.pre_gate_bits());
            self.ensure_stems(bank, frames, need, router.as_mut(), opts.precision)?;
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
        self.run_branches(scratch, frames, opts, router.as_mut())?;
        // Nothing reads the bank's rows past this point. (Int8 rows are
        // not what the caches hold, and were computed without them.)
        if let (Some(router), Precision::F32) = (router.as_mut(), opts.precision) {
            scratch.bank.publish(frames, router);
        }
        // Fuse + Account per frame.
        out.reserve(n);
        for (i, frame) in frames.iter().enumerate() {
            let selected = scratch.selected[i];
            let detections = self.fuse_frame(scratch, i);
            let (energy, trace) = self.account_adaptive(selected, opts.precision);
            let (executed, cached, skipped) = scratch.bank.counts(i);
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
                energy,
                stage_trace: trace.with_stem_counts(executed, cached, skipped),
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
        router: Option<&mut StemCacheRouter<'_>>,
    ) -> Result<(), InferError> {
        let StepScratch { bank, branch, fusion, all, need, oracle, gts, .. } = scratch;
        need.clear();
        need.resize(frames.len(), ALL_SENSOR_BITS);
        self.ensure_stems(bank, frames, need, router, opts.precision)?;
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
        router: Option<&mut StemCacheRouter<'_>>,
    ) -> Result<(), InferError> {
        let StepScratch { bank, branch, selected, masks, need, demand, .. } = scratch;
        need.clear();
        need.extend(selected.iter().map(|s| self.config_sensors[s.0]));
        self.ensure_stems(bank, frames, need, router, opts.precision)?;
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

    /// [`EcoFusionModel::infer_batch`] with per-stream stem-feature
    /// caches: frame `i` consults and updates `caches[lane_of[i]]`.
    /// Results are identical to the uncached path — a cache hit replays
    /// the features an identical grid would produce (stems are
    /// batch-invariant in eval mode) — only the stem compute changes.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    ///
    /// # Panics
    /// Panics if `lane_of.len() != frames.len()` or a lane index is out
    /// of range.
    pub fn infer_batch_cached(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        caches: &mut [StemFeatureCache],
        lane_of: &[usize],
    ) -> Result<Vec<InferenceOutput>, InferError> {
        let mut out = Vec::with_capacity(frames.len());
        self.infer_batch_cached_into(frames, opts, caches, lane_of, &mut out)?;
        Ok(out)
    }

    /// [`EcoFusionModel::infer_batch_cached`] appending the outputs to
    /// `out`: a caller that keeps the vector across steps (the runtime's
    /// work units do) leaves a warm step allocating only what the outputs
    /// hand out — per frame its detections, its predicted losses and its
    /// label. On an error `out` holds the outputs it held before.
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    ///
    /// # Panics
    /// As [`EcoFusionModel::infer_batch_cached`].
    pub fn infer_batch_cached_into(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        caches: &mut [StemFeatureCache],
        lane_of: &[usize],
        out: &mut Vec<InferenceOutput>,
    ) -> Result<(), InferError> {
        assert_eq!(lane_of.len(), frames.len(), "one cache lane per frame");
        let router = StemCacheRouter::new(caches, lane_of);
        self.run_staged_batch(frames, opts, Some(router), out)
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
    ) -> Result<(Vec<Detection>, EnergyBreakdown, StageTrace), InferError> {
        let (detections, (executed, cached, skipped)) = self.with_scratch(|model, scratch| {
            let frames = std::slice::from_ref(frame);
            model.begin_step(scratch, frames, opts)?;
            scratch.selected.clear();
            scratch.selected.push(config);
            model.run_branches(scratch, frames, opts, None)?;
            Ok((model.fuse_frame(scratch, 0), scratch.bank.counts(0)))
        })?;
        let specs = self.space.branch_specs(config);
        let (energy, trace) =
            account_prec(&self.px2, &self.sensor_power, &specs, StemPolicy::Static, opts.precision);
        Ok((detections, energy, trace.with_stem_counts(executed, cached, skipped)))
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
                model.oracle_stages(scratch, chunk, opts, None)?;
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

/// Emits the trace spans of one processed frame onto its stream's track:
/// a `frame` span carrying the selected configuration, precision, stem
/// counts, and Eq. 11 totals, wrapping one child span per pipeline stage
/// (`sense → stems → gate → select → branch → fuse → account`) whose
/// exact modeled energy/latency ride in the span arguments.
///
/// `start_ns` is the virtual begin time (the caller's per-stream clock,
/// floored to the current tick); each stage advances the clock by its
/// modeled latency and the frame's end time — returned so the caller can
/// persist the clock — is the sum. Everything is derived from the
/// [`InferenceOutput`] alone, so the emission is deterministic and
/// trivially replayable; the property tests assert the stage spans nest
/// and that their argument payloads sum to the
/// [`StageTrace`] totals exactly.
///
/// No-op (returning `start_ns`) when the sink is disabled.
pub fn trace_frame(
    sink: &mut ecofusion_trace::TraceSink,
    stream: u32,
    tick: u64,
    start_ns: u64,
    out: &InferenceOutput,
) -> u64 {
    use ecofusion_trace::{ns_from_ms, ArgValue, Track};
    if !sink.is_enabled() {
        return start_ns;
    }
    let track = Track::Stream(stream);
    sink.begin(
        track,
        start_ns,
        "frame",
        vec![
            ("tick", ArgValue::U64(tick)),
            ("config", ArgValue::U64(out.selected_config.0 as u64)),
            ("label", ArgValue::Text(out.selected_label.clone())),
            ("precision", ArgValue::Str(out.precision.label())),
            ("stems_executed", ArgValue::U64(out.stage_trace.stems_executed as u64)),
            ("stems_cached", ArgValue::U64(out.stage_trace.stems_cached as u64)),
            ("stems_skipped", ArgValue::U64(out.stage_trace.stems_skipped as u64)),
            ("energy_j", ArgValue::F64(out.energy.total_gated().joules())),
            ("latency_ms", ArgValue::F64(out.energy.latency.millis())),
            ("gate_fallbacks", ArgValue::U64(out.gate_fallbacks as u64)),
        ],
    );
    let mut cursor = start_ns;
    for stage in StageKind::ALL {
        let cost = out.stage_trace.cost(stage);
        sink.begin(
            track,
            cursor,
            stage.label(),
            vec![
                ("energy_j", ArgValue::F64(cost.energy.joules())),
                ("latency_ms", ArgValue::F64(cost.latency.millis())),
            ],
        );
        cursor += ns_from_ms(cost.latency.millis());
        sink.end(track, cursor, stage.label());
        sink.bump(
            &format!("ecofusion_stage_energy_joules_total{{stage=\"{}\"}}", stage.label()),
            cost.energy.joules(),
        );
    }
    sink.end(track, cursor, "frame");
    sink.bump(&format!("ecofusion_frames_total{{stream=\"{stream}\"}}"), 1.0);
    sink.bump("ecofusion_stems_executed_total", out.stage_trace.stems_executed as f64);
    sink.bump("ecofusion_stems_cached_total", out.stage_trace.stems_cached as f64);
    sink.bump("ecofusion_stems_skipped_total", out.stage_trace.stems_skipped as f64);
    if out.precision == Precision::Int8 {
        sink.bump("ecofusion_int8_frames_total", 1.0);
    }
    if out.gate_fallbacks > 0 {
        sink.bump("ecofusion_gate_fallbacks_total", out.gate_fallbacks as f64);
    }
    cursor
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
        assert!(!attention.demand_driven());

        let masked = InferenceOptions::new(0.01, 0.5)
            .with_health(SensorMask::all_available().without(SensorKind::Lidar));
        let plan = m.plan(&masked);
        assert_eq!(plan.gate_stem_bits & (1 << SensorKind::Lidar.index()), 0);
        assert_eq!(plan.pre_gate_bits().count_ones(), 3);

        let knowledge = m.plan(&InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
        assert!(knowledge.demand_driven());
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
        assert!(out.stage_trace.matches(&out.energy));
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
        assert!(out.stage_trace.matches(&out.energy));
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
    fn stem_cache_hits_on_frozen_grids_and_keeps_results_identical() {
        let data = city_data(47);
        let frame = data.test()[0].clone();
        // The same frame served twice in a row (a frozen-frame fault):
        // the second batch must be served entirely from the cache.
        let frames = vec![frame.clone(), frame.clone()];
        let opts = InferenceOptions::new(0.01, 0.5);
        let mut cached_model = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let lanes = [0usize, 0];
        let outs = cached_model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).unwrap();
        // Frame 0 misses, frame 1 aliases to it inside the batch.
        assert_eq!(outs[0].stage_trace.stems_executed, 4);
        assert_eq!(outs[1].stage_trace.stems_cached, 4);
        assert_eq!(outs[1].stage_trace.stems_executed, 0);
        // A later batch with the identical grid hits the stored entries.
        let outs2 =
            cached_model.infer_batch_cached(&frames[..1], &opts, &mut caches, &[0]).unwrap();
        assert_eq!(outs2[0].stage_trace.stems_cached, 4);
        // Frame 1 of the first batch aliased (4 reuses), the second batch
        // hit the stored entries (4 more); frame 0's four lookups missed.
        assert_eq!(caches[0].hits(), 8);
        assert_eq!(caches[0].misses(), 4);
        // Results are identical to the uncached model.
        let mut plain = tiny_model();
        let plain_out = plain.infer(&frame, &opts).unwrap();
        assert_eq!(outs[0].detections, plain_out.detections);
        assert_eq!(outs[1].detections, plain_out.detections);
        assert_eq!(outs2[0].detections, plain_out.detections);
        assert_eq!(outs[0].selected_config, plain_out.selected_config);
    }

    /// In-batch dedupe against the quadratic form it replaced — every
    /// pending grid compared with every earlier miss of the batch, kept
    /// here as the oracle: 256 frames, duplicates placed adjacent, first
    /// and last, and in the middle, give the same rows and the same
    /// hit/miss counters, and the bank compares whole grids once per
    /// duplicate instead of 32 640 times per sensor.
    #[test]
    fn in_batch_dedupe_matches_the_quadratic_form_in_linear_compares() {
        let mut m = tiny_model();
        let base = city_data(54);
        let n = 256;
        let mut frames: Vec<Frame> = (0..n)
            .map(|i| {
                // The same few scenes, made distinct where the key looks.
                let mut frame = base.test()[i % base.test().len()].clone();
                for k in SensorKind::ALL {
                    frame.obs.grid_mut(k).data_mut()[5] += i as f32;
                }
                frame
            })
            .collect();
        for (copy, of) in [(1, 0), (255, 0), (101, 100), (250, 3)] {
            frames[copy] = frames[of].clone();
        }
        let mut caches: Vec<StemFeatureCache> = (0..n).map(|_| StemFeatureCache::new()).collect();
        let lanes: Vec<usize> = (0..n).collect();
        let mut router = StemCacheRouter::new(&mut caches, &lanes);
        let mut bank = BatchStemBank::default();
        bank.reset(n, m.grid / 2);
        let all = vec![ALL_SENSOR_BITS; n];
        bank.ensure(&m.stems, &frames, &all, Some(&mut router), None, &mut m.plans)
            .expect("stems lower");
        let (mut hits, mut misses) = (vec![0u64; n], vec![0u64; n]);
        for k in SensorKind::ALL {
            let mut missed: Vec<usize> = Vec::new();
            for i in 0..n {
                let earlier =
                    missed.iter().position(|&j| frames[j].obs.grid(k) == frames[i].obs.grid(k));
                let row = earlier.unwrap_or(missed.len());
                assert!(
                    matches!(bank.rows[k.index()][i], StemRow::Forward(j) if j == row),
                    "{k:?} of frame {i}: {:?}, the quadratic form has row {row}",
                    bank.rows[k.index()][i]
                );
                match earlier {
                    Some(_) => hits[i] += 1,
                    None => {
                        misses[i] += 1;
                        missed.push(i);
                    }
                }
            }
            let (first, last) = (
                bank.block(ALL_SENSOR_BITS, k.index(), 0),
                bank.block(ALL_SENSOR_BITS, k.index(), 255),
            );
            assert_eq!(first, last, "a duplicate reads the row of its original");
        }
        for (i, cache) in caches.iter().enumerate() {
            assert_eq!((cache.hits(), cache.misses()), (hits[i], misses[i]), "frame {i}");
        }
        // One whole-grid comparison per duplicate and sensor; the
        // quadratic form makes n·(n − 1)/2 per sensor.
        assert_eq!(bank.dedupe.compares, 4 * SensorKind::COUNT);
    }

    #[test]
    fn stem_cache_store_overwrites_its_entry_in_place() {
        let mut cache = StemFeatureCache::new();
        let (g1, g2) = (Tensor::full(&[1, 1, 4, 4], 1.0), Tensor::full(&[1, 1, 4, 4], 2.0));
        cache.store(0, &g1, &[1.0; 8]);
        let buffers = |c: &StemFeatureCache| {
            let e = c.entries[0].as_ref().expect("stored");
            (e.grid.data().as_ptr(), e.feat.as_ptr())
        };
        let first = buffers(&cache);
        cache.store(0, &g2, &[2.0; 8]);
        assert_eq!(buffers(&cache), first, "same shapes must reuse the entry's buffers");
        assert!(cache.lookup(0, &g1).is_none(), "the old grid is gone");
        assert_eq!(cache.lookup(0, &g2).expect("hit"), [2.0; 8]);
        // A differently shaped pair replaces the entry.
        let g3 = Tensor::full(&[1, 1, 2, 2], 3.0);
        cache.store(0, &g3, &[3.0; 2]);
        assert_eq!(cache.lookup(0, &g3).expect("hit"), [3.0; 2]);
    }

    #[test]
    fn stem_cache_misses_on_changing_grids_without_changing_results() {
        let data = city_data(48);
        let frames: Vec<Frame> = data.test().iter().take(3).cloned().collect();
        let opts = InferenceOptions::new(0.01, 0.5);
        let mut cached_model = tiny_model();
        let mut plain_model = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let lanes = [0usize, 0, 0];
        let cached_out =
            cached_model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).unwrap();
        let plain_out = plain_model.infer_batch(&frames, &opts).unwrap();
        for (c, p) in cached_out.iter().zip(&plain_out) {
            assert_eq!(c.detections, p.detections);
            assert_eq!(c.selected_config, p.selected_config);
            assert_eq!(c.predicted_losses, p.predicted_losses);
        }
        assert_eq!(caches[0].hits(), 0, "distinct frames must not hit");
        assert!(caches[0].misses() > 0);
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
            assert!(i8_out.stage_trace.matches(&i8_out.energy), "{gate:?}");
            // Same configuration selected (the gate is precision-invariant
            // for knowledge; learned gates see quantized features but the
            // charge comparison needs matching configs, so only assert
            // energy when they agree).
            if i8_out.selected_config == f32_out.selected_config {
                assert!(
                    i8_out.energy.platform.joules() < f32_out.energy.platform.joules(),
                    "{gate:?}: int8 {} !< f32 {}",
                    i8_out.energy.platform,
                    f32_out.energy.platform
                );
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
        assert!(out.energy.platform.joules() < f32_out.energy.platform.joules());
        assert!(out.energy.latency.millis() < f32_out.energy.latency.millis());
    }

    #[test]
    fn int8_batches_bypass_stem_caches() {
        let data = city_data(53);
        let frame = data.test()[0].clone();
        let frames = vec![frame.clone(), frame];
        let mut m = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let opts = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let outs = m.infer_batch_cached(&frames, &opts, &mut caches, &[0, 0]).unwrap();
        // The cache must stay untouched: int8 features would poison it.
        assert_eq!(caches[0].hits() + caches[0].misses(), 0);
        assert_eq!(outs[0].detections, outs[1].detections);
        // An f32 batch afterwards fills the cache with f32 features.
        let f32_opts = InferenceOptions::new(0.01, 0.5);
        let _ = m.infer_batch_cached(&frames, &f32_opts, &mut caches, &[0, 0]).unwrap();
        assert!(caches[0].misses() > 0);
    }

    #[test]
    #[should_panic(expected = "one cache lane per frame")]
    fn cache_lane_mismatch_panics() {
        let data = city_data(49);
        let frames: Vec<Frame> = data.test().iter().take(2).cloned().collect();
        let mut m = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let _ = m.infer_batch_cached(&frames, &InferenceOptions::new(0.01, 0.5), &mut caches, &[0]);
    }
}
