//! Shadow replay: per-layer timing from outside the program.
//!
//! The benchmark may not instrument the server, so the layers below
//! `process_step_stats` are timed by running the same work again. After
//! each timed step the tick's frames (cloned before ingest) are grouped
//! the way the scheduler groups them — by home shard and by the
//! `stream_options` read before the step — and each group is
//!
//! 1. replayed through `infer_batch_cached` on a bench-owned replica with
//!    its own per-stream stem caches (the `core.infer` span), and then
//! 2. decomposed: the stems, gate, branches, fusion and accounting that
//!    the replica just ran are executed once more through each layer's
//!    public entry, as child spans of that `core.infer` span.
//!
//! The children use the same compiled plans the pipeline uses
//! (`Stem::compile`, `BranchDetector::compile`, the int8 image's pipes),
//! take the selected configurations from the replica's outputs, and batch
//! exactly as `core::pipeline` does. Each child covers what its layer's
//! public entry does (`stem_features_batch` stacks its grids,
//! `run_branch_batch` concatenates its sensors' features). What they
//! leave out — cache routing, copying rows between the stem bank and the
//! branches, selection, output assembly — is the pipeline's self time.

use crate::spans::Spans;
use crate::workload::{GRID, MODEL_SEED, NUM_CLASSES};
use ecofusion_core::pipeline::account_prec;
use ecofusion_core::{
    EcoFusionModel, Frame, InferenceOptions, InferenceOutput, Precision, QuantSnapshot,
    StemFeatureCache,
};
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::{Detection, HeadOutput};
use ecofusion_energy::StemPolicy;
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_sensors::{SensorKind, SensorSuite};
use ecofusion_tensor::graph::{
    compile_quant_pipe, fingerprint_quant_pipe, CompiledPlan, PlanCache, PlanKey, PlanPrecision,
};
use ecofusion_tensor::{Rng, Tensor};
use ecofusion_trace::Track;
use std::time::Instant;

/// Track of the shadow spans in the exported trace.
pub const SHADOW_TRACK: Track = Track::Shard(0);

pub fn infer_span(gate: GateKind) -> &'static str {
    match gate {
        GateKind::Attention => "core.infer.attention",
        GateKind::Knowledge => "core.infer.knowledge",
        GateKind::Deep => "core.infer.deep",
        GateKind::LossBased => "core.infer.loss_based",
    }
}

pub fn gate_span(gate: GateKind) -> &'static str {
    match gate {
        GateKind::Attention => "gating.score.attention",
        GateKind::Knowledge => "gating.score.knowledge",
        GateKind::Deep => "gating.score.deep",
        GateKind::LossBased => "gating.score.loss_based",
    }
}

pub const STEMS_SPAN: &str = "detect.stems";
pub const BRANCH_SPAN: &str = "detect.branch";
pub const FUSE_SPAN: &str = "detect.fuse";
pub const ACCOUNT_SPAN: &str = "energy.account";
pub const RENDER_SPAN: &str = "sensors.render";

/// What the tick looked like before the step: the frames about to be
/// ingested and the options each stream will run them with.
pub struct Captured {
    pub frames: Vec<Frame>,
    pub opts: Vec<InferenceOptions>,
}

/// Counts the shadow keeps beside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShadowCounts {
    pub frames: u64,
    pub units: u64,
    /// (frame, branch) executions.
    pub branches_run: u64,
    /// Frames per gate, in `GateKind::ALL` order.
    pub frames_by_gate: [u64; 4],
    /// Frames whose decomposed detections differ in number from the
    /// replica's output: the decomposition no longer mirrors the pipeline.
    pub mirror_mismatches: u64,
}

pub struct Shadow {
    /// Runs `infer_batch_cached`, like a shard's model.
    replica: EcoFusionModel,
    caches: Vec<StemFeatureCache>,
    /// The same weights again; lends its stems, branches and gates to
    /// the layer spans (the mutable accessors drop a model's plans, so
    /// the replica cannot lend its own).
    parts: EcoFusionModel,
    /// Int8 image of the same weights (what `ensure_quant` builds).
    quant: QuantSnapshot,
    /// How long building that image took, ms.
    pub quant_build_ms: f64,
    /// The layer spans' compiled plans.
    plans: PlanCache,
    /// Re-renders one frame a tick, to price the load generator's sensors.
    suite: SensorSuite,
    shards: usize,
    pub counts: ShadowCounts,
}

/// Where the layer spans of one replayed unit go: children of its
/// `core.infer` span, on its tick.
struct Children<'a> {
    spans: &'a mut Spans,
    infer: usize,
    tick: u64,
}

impl Children<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.spans.time(name, SHADOW_TRACK, Some(self.infer), self.tick, f).0
    }
}

fn new_model() -> EcoFusionModel {
    EcoFusionModel::new(GRID, NUM_CLASSES, &mut Rng::new(MODEL_SEED))
}

impl Shadow {
    pub fn new(streams: usize, shards: usize) -> Self {
        let parts = new_model();
        let t = Instant::now();
        let quant = QuantSnapshot::capture(&parts).expect("canonical model quantizes");
        let quant_build_ms = t.elapsed().as_secs_f64() * 1e3;
        Shadow {
            replica: new_model(),
            caches: (0..streams).map(|_| StemFeatureCache::new()).collect(),
            parts,
            quant,
            quant_build_ms,
            plans: PlanCache::new(),
            suite: SensorSuite::new(GRID),
            shards,
            counts: ShadowCounts::default(),
        }
    }

    /// The replica's plan-cache counters (it mirrors shard 0's).
    pub fn plan_cache_stats(&self) -> ecofusion_tensor::graph::PlanCacheStats {
        self.replica.plan_cache_stats()
    }

    /// Replays one tick: groups the captured frames by `(home shard,
    /// options)` in first-seen order, as `build_units` does.
    pub fn replay(&mut self, spans: &mut Spans, tick: u64, captured: Captured) {
        let scene = &captured.frames[tick as usize % captured.frames.len()].scene;
        spans.time(RENDER_SPAN, SHADOW_TRACK, None, tick, || {
            std::hint::black_box(self.suite.observe(scene, &mut Rng::new(tick)));
        });
        let mut units: Vec<(usize, InferenceOptions, Vec<usize>, Vec<Frame>)> = Vec::new();
        for (lane, (frame, opts)) in captured.frames.into_iter().zip(captured.opts).enumerate() {
            let shard = lane % self.shards;
            match units.iter_mut().find(|(s, o, _, _)| *s == shard && *o == opts) {
                Some((_, _, lanes, frames)) => {
                    lanes.push(lane);
                    frames.push(frame);
                }
                None => units.push((shard, opts, vec![lane], vec![frame])),
            }
        }
        for (_, opts, lanes, frames) in units {
            self.replay_unit(spans, tick, &lanes, &frames, &opts);
        }
    }

    fn replay_unit(
        &mut self,
        spans: &mut Spans,
        tick: u64,
        lanes: &[usize],
        frames: &[Frame],
        opts: &InferenceOptions,
    ) {
        let (outs, infer) = spans.time(infer_span(opts.gate), SHADOW_TRACK, None, tick, || {
            self.replica.infer_batch_cached(frames, opts, &mut self.caches, lanes)
        });
        let outs = outs.expect("generated frames match the model's grid");
        let n = frames.len();
        self.counts.units += 1;
        self.counts.frames += n as u64;
        self.counts.frames_by_gate[GateKind::ALL.iter().position(|g| *g == opts.gate).unwrap()] +=
            n as u64;

        let mut under = Children { spans, infer, tick };
        let int8 = opts.precision == Precision::Int8;
        let plan = self.replica.plan(opts);
        let mut rows: Vec<Vec<Option<Tensor>>> = vec![vec![None; n]; SensorKind::COUNT];

        // Stems the gate demands, then the gate.
        let pre_gate = vec![plan.pre_gate_bits(); n];
        self.run_stems(&mut under, frames, &pre_gate, int8, &mut rows);
        let num_branches = self.replica.space().num_branches();
        let mut branch_dets: Vec<Vec<Option<Vec<Detection>>>> = vec![vec![None; n]; num_branches];
        let all: Vec<usize> = (0..n).collect();
        if plan.needs_oracle {
            // The oracle runs every branch before it scores.
            for (b, dets) in branch_dets.iter_mut().enumerate() {
                self.run_branch(&mut under, b, &all, opts, &rows, dets);
            }
        }
        self.score_gate(&mut under, frames, opts, &rows, &branch_dets, plan.needs_oracle);

        // Demand-driven stems of the winners, then each demanded branch
        // over exactly the frames that selected it.
        let need: Vec<u8> =
            outs.iter().map(|o| self.replica.config_sensor_bits()[o.selected_config.0]).collect();
        self.run_stems(&mut under, frames, &need, int8, &mut rows);
        let branch_ids: Vec<Vec<usize>> = outs
            .iter()
            .map(|o| {
                self.replica.space().branch_ids(o.selected_config).iter().map(|b| b.0).collect()
            })
            .collect();
        for (b, dets) in branch_dets.iter_mut().enumerate() {
            let idxs: Vec<usize> =
                (0..n).filter(|&i| branch_ids[i].contains(&b) && dets[i].is_none()).collect();
            if !idxs.is_empty() {
                self.run_branch(&mut under, b, &idxs, opts, &rows, dets);
            }
        }
        self.counts.branches_run +=
            branch_dets.iter().flatten().filter(|d| d.is_some()).count() as u64;

        // Fuse and account, one span each per unit.
        let per_frame: Vec<Vec<Vec<Detection>>> = branch_ids
            .iter()
            .enumerate()
            .map(|(i, ids)| {
                ids.iter()
                    .map(|&b| branch_dets[b][i].clone().expect("demanded branch ran"))
                    .collect()
            })
            .collect();
        let fused: Vec<Vec<Detection>> =
            under.time(FUSE_SPAN, || per_frame.iter().map(|outs| self.parts.fuse(outs)).collect());
        let specs: Vec<_> =
            outs.iter().map(|o| self.replica.space().branch_specs(o.selected_config)).collect();
        under.time(ACCOUNT_SPAN, || {
            for s in &specs {
                std::hint::black_box(account_prec(
                    self.replica.px2(),
                    self.replica.sensor_power(),
                    s,
                    StemPolicy::Adaptive,
                    opts.precision,
                ));
            }
        });
        self.counts.mirror_mismatches += mirror_mismatches(&fused, &outs);
    }

    /// Runs every `(frame, sensor)` stem `need_bits` demands and `rows`
    /// lacks; all missing rows of one sensor in one stacked plan
    /// execution, like `BatchStemBank::ensure`.
    fn run_stems(
        &mut self,
        under: &mut Children<'_>,
        frames: &[Frame],
        need_bits: &[u8],
        int8: bool,
        rows: &mut [Vec<Option<Tensor>>],
    ) {
        for kind in SensorKind::ALL {
            let s = kind.index();
            let pending: Vec<usize> = (0..frames.len())
                .filter(|&i| need_bits[i] & (1 << s) != 0 && rows[s][i].is_none())
                .collect();
            if pending.is_empty() {
                continue;
            }
            let grids: Vec<&Tensor> = pending.iter().map(|&i| frames[i].obs.grid(kind)).collect();
            let shape = [pending.len(), 1, GRID, GRID];
            let plan = stem_plan(&mut self.plans, &mut self.parts, &self.quant, s, int8, &shape);
            // The span covers what the stem entry (`stem_features_batch`)
            // does: stacking the grids and running the stem. Copying the
            // rows into per-frame slots is the pipeline's own work.
            let y = under.time(STEMS_SPAN, || plan.execute(&Tensor::stack_batch(&grids)));
            for (j, &i) in pending.iter().enumerate() {
                rows[s][i] = Some(y.select_batch(j));
            }
        }
    }

    /// Runs branch `b` over the frames `idxs`: one plan execution plus a
    /// decode per frame, like `branch_batch_from_bank`.
    fn run_branch(
        &mut self,
        under: &mut Children<'_>,
        b: usize,
        idxs: &[usize],
        opts: &InferenceOptions,
        rows: &[Vec<Option<Tensor>>],
        dets: &mut [Option<Vec<Detection>>],
    ) {
        let sensors = self.replica.space().branches()[b].sensors();
        let per_sensor: Vec<Tensor> = sensors
            .iter()
            .map(|k| {
                let r: Vec<&Tensor> = idxs
                    .iter()
                    .map(|&i| rows[k.index()][i].as_ref().expect("stem ran before its branch"))
                    .collect();
                Tensor::stack_batch(&r)
            })
            .collect();
        let channels: usize = per_sensor.iter().map(|t| t.shape()[1]).sum();
        let tail = &per_sensor[0].shape()[2..];
        let shape = [&[idxs.len(), channels], tail].concat();
        let salt = 0x100 + b as u64;
        let plan = if opts.precision == Precision::Int8 {
            let qb = self.quant.branch(b);
            let key = PlanKey {
                fingerprint: qb.plan_fingerprint(salt),
                shape: shape.clone(),
                precision: PlanPrecision::Int8,
            };
            self.plans.try_get_or_compile(key, || qb.compile(&shape))
        } else {
            let det = &self.parts.branches_mut()[b];
            let key = PlanKey {
                fingerprint: det.plan_fingerprint(salt),
                shape: shape.clone(),
                precision: PlanPrecision::F32,
            };
            self.plans.try_get_or_compile(key, || det.compile(&shape))
        }
        .expect("canonical branch compiles");
        // The span covers what the branch entry (`run_branch_batch`)
        // does: concatenating its sensors' features, the detector, and the
        // decode. Restacking rows from per-frame slots is the pipeline's.
        let decoded: Vec<Vec<Detection>> = under.time(BRANCH_SPAN, || {
            let input = Tensor::concat_channels(&per_sensor.iter().collect::<Vec<_>>());
            let out = HeadOutput { map: plan.execute(&input) };
            let det = &self.parts.branches_mut()[b];
            (0..idxs.len())
                .map(|j| det.decode_sample(&out, j, opts.score_thresh, opts.nms_iou))
                .collect()
        });
        for (&i, d) in idxs.iter().zip(decoded) {
            dets[i] = Some(d);
        }
    }

    /// The gate's scoring pass over the unit. The oracle's score is the
    /// true fusion loss of every configuration, so its span includes
    /// `config_losses_from`.
    fn score_gate(
        &mut self,
        under: &mut Children<'_>,
        frames: &[Frame],
        opts: &InferenceOptions,
        rows: &[Vec<Option<Tensor>>],
        branch_dets: &[Vec<Option<Vec<Detection>>>],
        oracle: bool,
    ) {
        let n = frames.len();
        let reads_features = matches!(opts.gate, GateKind::Attention | GateKind::Deep);
        let gate_batch = if reads_features {
            let stacked: Vec<Tensor> = rows
                .iter()
                .map(|r| {
                    let refs: Vec<&Tensor> = r
                        .iter()
                        .map(|t| t.as_ref().expect("learned gates read every stem"))
                        .collect();
                    Tensor::stack_batch(&refs)
                })
                .collect();
            EcoFusionModel::gate_features(&stacked)
        } else {
            Tensor::zeros(&[n, 1, 1, 1])
        };
        let gts: Vec<_> = frames.iter().map(Frame::gt_boxes).collect();
        let per_frame_dets: Vec<Vec<Vec<Detection>>> = if oracle {
            (0..n)
                .map(|i| {
                    branch_dets
                        .iter()
                        .map(|b| b[i].clone().expect("oracle ran every branch"))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        under.time(gate_span(opts.gate), || {
            let losses: Vec<Vec<f32>> = per_frame_dets
                .iter()
                .zip(&gts)
                .map(|(dets, gt)| self.parts.config_losses_from(dets, gt))
                .collect();
            let inputs: Vec<GateInput<'_>> = frames
                .iter()
                .enumerate()
                .map(|(i, f)| GateInput {
                    features: &gate_batch,
                    context: Some(f.scene.context),
                    oracle_losses: losses.get(i).map(Vec::as_slice),
                    sensor_health: Some(opts.health),
                })
                .collect();
            let gates = self.parts.gates_mut();
            std::hint::black_box(match opts.gate {
                GateKind::Knowledge => gates.knowledge.predict_batch(&gate_batch, &inputs),
                GateKind::Deep => gates.deep.predict_batch(&gate_batch, &inputs),
                GateKind::Attention => gates.attention.predict_batch(&gate_batch, &inputs),
                GateKind::LossBased => gates.loss_based.predict_batch(&gate_batch, &inputs),
            });
        });
    }
}

/// The compiled plan of stem `s` for inputs of `shape`, from the shadow's
/// cache.
fn stem_plan<'a>(
    plans: &'a mut PlanCache,
    parts: &mut EcoFusionModel,
    quant: &QuantSnapshot,
    s: usize,
    int8: bool,
    shape: &[usize],
) -> &'a mut CompiledPlan {
    let shape = shape.to_vec();
    if int8 {
        let pipe = quant.stem(s);
        let key = PlanKey {
            fingerprint: fingerprint_quant_pipe(pipe, s as u64),
            shape: shape.clone(),
            precision: PlanPrecision::Int8,
        };
        plans.try_get_or_compile(key, || compile_quant_pipe(pipe, &shape))
    } else {
        let stem = &parts.stems_mut()[s];
        let key = PlanKey {
            fingerprint: stem.plan_fingerprint(s as u64),
            shape: shape.clone(),
            precision: PlanPrecision::F32,
        };
        plans.try_get_or_compile(key, || stem.compile(&shape))
    }
    .expect("canonical stem compiles")
}

fn mirror_mismatches(fused: &[Vec<Detection>], outs: &[InferenceOutput]) -> u64 {
    fused.iter().zip(outs).filter(|(f, o)| f.len() != o.detections.len()).count() as u64
}

/// Stem plan micro-measurements at the workload's unit batch: compile
/// time, execute time per precision, and the operation and byte counts
/// computed from the shapes (not measured).
pub struct StemPlanProbe {
    pub compile_ms: f64,
    pub f32_us: f64,
    pub i8_us: f64,
    pub macs: f64,
    pub bytes: f64,
}

impl Shadow {
    /// Times sensor 0's stem plan (every stem has the same shape) on a
    /// `(batch, 1, g, g)` input: median of 31 executions per precision.
    pub fn probe_stem_plan(&mut self, batch: usize) -> StemPlanProbe {
        const RUNS: usize = 31;
        let x = Tensor::randn(&[batch, 1, GRID, GRID], 1.0, &mut Rng::new(2));
        let t = Instant::now();
        let mut f32_plan = self.parts.stems_mut()[0].compile(x.shape()).expect("stem compiles");
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut i8_plan =
            compile_quant_pipe(self.quant.stem(0), x.shape()).expect("int8 stem compiles");
        let time = |plan: &mut CompiledPlan| {
            let runs: Vec<f64> = (0..RUNS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(plan.execute(std::hint::black_box(&x)));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            crate::stats::median(&runs)
        };
        let f32_us = time(&mut f32_plan);
        let i8_us = time(&mut i8_plan);
        // Conv3×3 (pad 1, stride 1), 1 → STEM_CHANNELS channels, over g × g.
        let positions = (batch * GRID * GRID) as f64;
        let macs = positions * (9 * STEM_CHANNELS) as f64;
        // f32 input read + weights read + 2×2-pooled f32 output written.
        let bytes =
            4.0 * (positions + (9 * STEM_CHANNELS) as f64 + positions / 4.0 * STEM_CHANNELS as f64);
        StemPlanProbe { compile_ms, f32_us, i8_us, macs, bytes }
    }
}
