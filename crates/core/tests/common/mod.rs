//! The reference the staged pipeline is tested against, shared by
//! `prop_pipeline.rs` and `prop_compiled.rs`.
//!
//! [`monolithic_infer_batch`] is Algorithm 1 in one straight line, built
//! from public pieces only and from none of the pipeline's machinery: no
//! plan (demand-driven stems), no plan cache, no compiled plans. Every
//! network runs through its layer-by-layer eval forward —
//! `Layer::forward(_, false)` on the f32 stems, branches and learned
//! gates, `QuantPipe::forward` / `QuantBranch::forward` on the int8 image
//! — which is the oracle the graph compiler's bit-identity contract is
//! stated against. Comparing `infer` / `infer_batch` to it bit for bit
//! therefore pins two things at once: *when* stems run never changes
//! *what* a frame produces, and a compiled plan computes exactly what the
//! layers it was lowered from compute.

use ecofusion_core::{ConfigId, EcoFusionModel, Frame, InferenceOptions, QuantSnapshot};
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::Detection;
use ecofusion_energy::Precision;
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_scene::{Context, ScenarioGenerator};
use ecofusion_sensors::{SensorKind, SensorSuite};
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use proptest::prelude::*;

pub const GRID: usize = 32;

/// `n` frames of one context: the scenes advance one seeded generator,
/// each observation draws its sensor noise from its own seed.
pub fn render_frames(seed: u64, context: Context, n: usize) -> Vec<Frame> {
    let mut generator = ScenarioGenerator::new(seed);
    let suite = SensorSuite::new(GRID);
    (0..n)
        .map(|i| {
            let scene = generator.scene(context);
            let obs = suite.observe(&scene, &mut Rng::new(seed ^ (0xF00D + i as u64)));
            Frame { scene, obs }
        })
        .collect()
}

pub fn arb_context() -> impl Strategy<Value = Context> {
    (0usize..Context::ALL.len()).prop_map(|i| Context::ALL[i])
}

/// The model's int8 image when `opts` run on it. A clone: the eager
/// forwards below reach the f32 weights through `stems_mut` /
/// `branches_mut`, which drop the model's image and compiled plans; both
/// rebuild identically on the next inference, so only a caller that
/// counts compiles needs to care.
pub fn eager_quant(model: &mut EcoFusionModel, opts: &InferenceOptions) -> Option<QuantSnapshot> {
    (opts.precision == Precision::Int8)
        .then(|| model.ensure_quant().expect("canonical model quantizes").clone())
}

/// All four stems, each through its layers' eval forward over the whole
/// stacked batch: one `(N, C, h, w)` tensor per sensor.
pub fn eager_stems(
    model: &mut EcoFusionModel,
    quant: Option<&QuantSnapshot>,
    frames: &[Frame],
) -> Vec<Tensor> {
    SensorKind::ALL
        .iter()
        .map(|k| {
            let grids: Vec<&Tensor> = frames.iter().map(|f| f.obs.grid(*k)).collect();
            let stacked = Tensor::stack_batch(&grids);
            match quant {
                None => model.stems_mut()[k.index()].forward(&stacked, false),
                Some(q) => q.stem(k.index()).forward(&stacked),
            }
        })
        .collect()
}

/// Branch `b` through its layers' eval forward over the whole batch of
/// eager stem features, decoded per frame by the f32 head.
pub fn eager_branch(
    model: &mut EcoFusionModel,
    quant: Option<&QuantSnapshot>,
    b: usize,
    feats: &[Tensor],
    opts: &InferenceOptions,
) -> Vec<Vec<Detection>> {
    let parts: Vec<&Tensor> =
        model.space().branches()[b].sensors().iter().map(|k| &feats[k.index()]).collect();
    let input = Tensor::concat_channels(&parts);
    let branch = &mut model.branches_mut()[b];
    let out = match quant {
        None => branch.forward(&input, false),
        Some(q) => q.branch(b).forward(&input),
    };
    (0..input.shape()[0])
        .map(|j| branch.decode_sample(&out, j, opts.score_thresh, opts.nms_iou))
        .collect()
}

/// What the reference produces per frame: the selected configuration,
/// the fused detections and the gate's per-configuration losses.
pub type Reference = (ConfigId, Vec<Detection>, Vec<f32>);

/// The monolithic reference over a batch, at either precision (module
/// docs). Every stem runs unconditionally over the stacked batch, masked
/// sensors are zeroed in the gate features, then gate → Eq. 7–9 select →
/// the selected branches → fuse, per frame.
///
/// It runs on `model` itself, so both sides share one set of weights by
/// construction.
pub fn monolithic_infer_batch(
    model: &mut EcoFusionModel,
    frames: &[Frame],
    opts: &InferenceOptions,
) -> Vec<Reference> {
    let n = frames.len();
    let quant = eager_quant(model, opts);
    // Stems: always all four, each over the whole stacked batch.
    let feats = eager_stems(model, quant.as_ref(), frames);
    // One branch over the whole batch.
    let run_branch =
        |model: &mut EcoFusionModel, b: usize| eager_branch(model, quant.as_ref(), b, &feats, opts);
    let num_branches = model.space().num_branches();
    let mut branch_dets: Vec<Option<Vec<Vec<Detection>>>> = vec![None; num_branches];
    // Oracle losses for the loss-based gate (all branches, a posteriori).
    let oracle: Option<Vec<Vec<f32>>> = (opts.gate == GateKind::LossBased).then(|| {
        for (b, slot) in branch_dets.iter_mut().enumerate() {
            *slot = Some(run_branch(model, b));
        }
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let dets: Vec<Vec<Detection>> = branch_dets
                    .iter()
                    .map(|d| d.as_ref().expect("all branches ran")[i].clone())
                    .collect();
                model.config_losses_from(&dets, &f.gt_boxes())
            })
            .collect()
    });
    // Gate features with the masked sensors zero-filled (the staged
    // pipeline's spec for unavailable modalities).
    let zero = Tensor::zeros(&[n, STEM_CHANNELS, GRID / 2, GRID / 2]);
    let gate_parts: Vec<&Tensor> = SensorKind::ALL
        .iter()
        .map(|k| if opts.health.is_available(*k) { &feats[k.index()] } else { &zero })
        .collect();
    let gate_feats = Tensor::concat_channels(&gate_parts);
    let predicted: Vec<Vec<f32>> = match opts.gate {
        // Learned gates: the trunk's eval forward over the batch, then the
        // inverse of the training-time log1p squash.
        GateKind::Deep | GateKind::Attention => {
            let gates = model.gates_mut();
            let raw = if opts.gate == GateKind::Deep {
                gates.deep.forward(&gate_feats, false)
            } else {
                gates.attention.forward(&gate_feats, false)
            };
            raw.data()
                .chunks(raw.len() / n)
                .map(|row| row.iter().map(|v| v.exp_m1().max(0.0)).collect())
                .collect()
        }
        GateKind::Knowledge | GateKind::LossBased => frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let input = GateInput {
                    features: &gate_feats,
                    context: Some(f.scene.context),
                    oracle_losses: oracle.as_ref().map(|o| o[i].as_slice()),
                    sensor_health: Some(opts.health),
                };
                if opts.gate == GateKind::Knowledge {
                    model.gates_mut().knowledge.predict(&input)
                } else {
                    model.gates_mut().loss_based.predict(&input)
                }
            })
            .collect(),
    };
    // Eq. 7–9 with the fault-aware penalty, via the same public pieces
    // the model composes internally; then the selected branches on the
    // eagerly computed stems, and fuse.
    let energies = model.config_energies().to_vec();
    predicted
        .into_iter()
        .enumerate()
        .map(|(i, predicted)| {
            let mut adjusted = predicted.clone();
            model.penalize_unavailable(&mut adjusted, opts.health);
            let selected = ConfigId(ecofusion_core::select_config(
                &adjusted,
                &energies,
                opts.lambda_e,
                opts.gamma,
                opts.rule,
            ));
            let outputs: Vec<Vec<Detection>> = model
                .space()
                .branch_ids(selected)
                .iter()
                .map(|b| {
                    if branch_dets[b.0].is_none() {
                        branch_dets[b.0] = Some(run_branch(model, b.0));
                    }
                    branch_dets[b.0].as_ref().expect("just ran")[i].clone()
                })
                .collect();
            (selected, model.fuse(&outputs), predicted)
        })
        .collect()
}
