//! Property tests of the fused-operator compiled execution layer
//! ([`ecofusion_tensor::graph`]) as seen through the full pipeline.
//!
//! Three contracts:
//!
//! 1. **Bit-identity** — `infer_batch`, which runs every network as a
//!    compiled plan, produces byte-for-byte the detections, selected
//!    configurations and gate losses of the monolithic reference built
//!    from the layers' own eval forwards (`common::monolithic_infer_batch`,
//!    shared with `prop_pipeline.rs`), across seeds × contexts × health
//!    masks × batch sizes (below and across the plans' tiles) × learned
//!    gates × `Precision::{F32, Int8}`, and again after the gate weights
//!    change under a compiled gate plan. Reuse changes nothing either:
//!    one warm replica serving a sequence of batches of changing size,
//!    health mask, precision and gate — a failed step among them — out
//!    of its step buffers produces every batch exactly as a fresh model
//!    does.
//! 2. **Compile once** — plans are keyed by per-sample shape, so a model
//!    served sub-batches of every size compiles nothing after the step
//!    that first ran each unit.
//! 3. **Zero steady-state allocations** — once a plan is warm,
//!    `CompiledPlan::execute_into` performs no heap allocation at all at
//!    any batch size (stem and branch in f32 and int8, both learned
//!    gates), measured with
//!    a counting global allocator; a plan lowers a tile at a time, so no
//!    GEMM reaches the backend's parallel threshold and no scoped thread
//!    (which allocates a stack) is spawned. The same allocator holds the
//!    oracle's configuration scorer to one allocation per frame — the
//!    returned losses — once its scratch is warm, which in a replica's
//!    second loss-based step it is, holds the `Fuse` stage of a
//!    four-branch frame to fusing out of that scratch, and a whole warm
//!    `infer_batch` to what is per frame: it counts requested bytes and
//!    the largest single request too, and a batch-64 step may ask for no
//!    buffer that scales with the batch.

mod common;
// The counting global allocator, shared with the runtime crate's
// `telemetry_scorekeeper.rs` (a test binary holds one global allocator,
// and the workspace one copy of its `unsafe impl`).
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::{arb_context, monolithic_infer_batch, render_frames, Reference, GRID};
use counting_alloc::{allocs_on_this_thread, bytes_on_this_thread, LARGEST};
use ecofusion_core::{EcoFusionModel, InferenceOptions, InferenceOutput, StemFeatureCache};
use ecofusion_detect::stem::{Stem, STEM_CHANNELS};
use ecofusion_detect::{
    subset_fusion_losses, BBox, BranchConfig, BranchDetector, Detection, FusionScratch, WbfParams,
};
use ecofusion_energy::Precision;
use ecofusion_gating::{AttentionGate, DeepGate, GateKind};
use ecofusion_scene::{Context, GtBox};
use ecofusion_sensors::SensorMask;
use ecofusion_tensor::graph::{compile_quant_pipe, CompiledPlan};
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::Tensor;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Bit-identity
// ---------------------------------------------------------------------------

/// Every frame of a served batch against its reference, bit for bit.
fn assert_matches_reference(served: &[InferenceOutput], reference: &[Reference]) {
    assert_eq!(served.len(), reference.len());
    for (out, (selected, detections, predicted)) in served.iter().zip(reference) {
        assert_eq!(&out.detections, detections, "detections differ");
        assert_eq!(out.selected_config, *selected);
        assert_eq!(out.predicted_losses.len(), predicted.len());
        for (a, b) in out.predicted_losses.iter().zip(predicted) {
            assert_eq!(a.to_bits(), b.to_bits(), "gate losses differ: {a} vs {b}");
        }
    }
}

proptest! {
    // Each case builds one model and runs the batch four times (served +
    // reference, before and after a gate-weight update); sixteen cases
    // sweep both precisions, both learned gates, a spread of health
    // masks, and batch sizes 1..8 (the plans' tiles hold 2 or 3 samples).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_inference_is_bit_identical_to_eager(
        seed in 0u64..1000,
        context in arb_context(),
        mask_bits in 0u8..16,
        batch in 1usize..9,
        int8 in (0u8..2).prop_map(|b| b == 1),
        deep in (0u8..2).prop_map(|b| b == 1),
    ) {
        let frames = render_frames(seed, context, batch);
        let opts = InferenceOptions::new(0.01, 0.5)
            .with_gate(if deep { GateKind::Deep } else { GateKind::Attention })
            .with_health(SensorMask::from_bits(mask_bits))
            .with_precision(if int8 { Precision::Int8 } else { Precision::F32 });
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x7ACE));

        let served = model.infer_batch(&frames, &opts).expect("served batch");
        prop_assert!(model.plan_cache_len() > 0, "serving must populate the plan cache");
        prop_assert!(served.iter().all(|o| o.precision == opts.precision));
        assert_matches_reference(&served, &monolithic_infer_batch(&mut model, &frames, &opts));
        // The learned gates now hold a compiled plan of their old
        // weights; an update through `gates_mut` must reach the next
        // served scoring exactly as it reaches the layers' own forward.
        let gates = model.gates_mut();
        gates.deep.visit_params(&mut |p| p.value.scale(0.5));
        gates.attention.visit_params(&mut |p| p.value.scale(0.5));
        let updated = model.infer_batch(&frames, &opts).expect("served batch");
        prop_assert!(
            served[0].predicted_losses != updated[0].predicted_losses,
            "the gate update must show in the served scores"
        );
        assert_matches_reference(&updated, &monolithic_infer_batch(&mut model, &frames, &opts));
    }
}

/// One warm replica against a fresh model per batch: the step buffers a
/// replica keeps across steps hold the last batch's values, so every
/// producer must rewrite all of what it hands on. The sequence shrinks
/// and regrows the batch (64 → 3 → 64 → 1), masks a sensor after a step
/// that left its features in the gate's buffer (the zero block must be
/// written, not inherited) and unmasks it again, alternates f32 and
/// int8, visits all four gates, and fails one step at plan compile in
/// the middle of the Stems stage before serving the next.
#[test]
fn a_warm_replica_serves_every_batch_like_a_fresh_model() {
    use ecofusion_core::model::{InferError, PlanUnit};
    use ecofusion_core::QuantSnapshot;
    use ecofusion_sensors::SensorKind;
    use GateKind::{Attention, Deep, Knowledge, LossBased};
    use Precision::{Int8, F32};

    const SEED: u64 = 0x5C4A;
    let fresh = || EcoFusionModel::new(GRID, 8, &mut Rng::new(SEED));
    let frames = render_frames(23, Context::City, 64);
    let all = SensorMask::all_available();
    let no_lidar = all.without(SensorKind::Lidar);
    let no_cameras = all.without(SensorKind::CameraLeft).without(SensorKind::CameraRight);
    let mut warm = fresh();
    let serve = |warm: &mut EcoFusionModel, n, mask, precision, gate| {
        let opts = InferenceOptions::new(0.01, 0.5)
            .with_gate(gate)
            .with_health(mask)
            .with_precision(precision);
        let served = warm.infer_batch(&frames[..n], &opts).expect("served batch");
        assert_matches_reference(
            &served,
            &monolithic_infer_batch(&mut fresh(), &frames[..n], &opts),
        );
    };
    for (n, mask, precision, gate) in [
        (64, all, F32, Attention),
        (3, no_lidar, F32, Attention),
        (64, all, Int8, Attention),
        (1, no_cameras, Int8, Deep),
        (64, all, F32, Deep),
        (3, all, Int8, Knowledge),
        (64, no_cameras, F32, Knowledge),
        (1, all, F32, LossBased),
        (3, no_lidar, Int8, LossBased),
    ] {
        serve(&mut warm, n, mask, precision, gate);
    }
    // A version-skewed int8 image: the first stem's convolution has
    // stride 0, which the plan compiler refuses — after the step has
    // stacked its stem input and before any stem output is written.
    let good = warm.ensure_quant().expect("quantizes").clone();
    let json = serde_json::to_string(&good).expect("serializes");
    let skewed = json.replacen("\"stride\":1", "\"stride\":0", 1);
    assert_ne!(skewed, json, "the image's first convolution has stride 1");
    let skewed: QuantSnapshot = serde_json::from_str(&skewed).expect("a loadable image");
    warm.install_quant(skewed).expect("header and counts still match");
    let int8 = InferenceOptions::new(0.01, 0.5).with_precision(Int8);
    let err = warm.infer_batch(&frames, &int8).expect_err("stem 0 does not lower");
    assert!(matches!(err, InferError::Compile { unit: PlanUnit::Stem(0), .. }), "{err}");
    warm.install_quant(good).expect("the good image again");
    serve(&mut warm, 64, no_lidar, Int8, Attention);
    serve(&mut warm, 64, all, F32, Attention);
}

// ---------------------------------------------------------------------------
// Compile once
// ---------------------------------------------------------------------------

/// Plans are keyed by per-sample shape: once a step has run every unit
/// (the oracle gate runs all four stems and all seven branches), serving
/// sub-batches of every size from 1 to 64 compiles nothing more — per
/// precision.
#[test]
fn plan_compiles_stop_after_the_first_step() {
    let frames = render_frames(11, Context::City, 64);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0xC0DE));
    let mut expected = 0;
    for precision in [Precision::F32, Precision::Int8] {
        let opts = InferenceOptions::new(0.01, 0.5).with_precision(precision);
        let first = opts.with_gate(GateKind::LossBased);
        model.infer_batch(&frames[..3], &first).expect("first step");
        expected += 4 + 7;
        assert_eq!(
            model.plan_cache_stats().compiles,
            expected,
            "{precision:?}: 4 stems + 7 branches"
        );
        for n in 1..=frames.len() {
            model.infer_batch(&frames[..n], &opts).expect("sub-batch");
            assert_eq!(
                model.plan_cache_stats().compiles,
                expected,
                "{precision:?}: a sub-batch of {n} compiled a plan"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations
// ---------------------------------------------------------------------------

/// Allocations of `plan.execute_into` at batch 1, 7 and 64 after one warm
/// run at the largest batch (which sizes any per-thread GEMM pack buffer).
fn steady_state_allocs(plan: &mut CompiledPlan, rng: &mut Rng) -> u64 {
    let sample = plan.sample_shape().to_vec();
    let mut pair = |n: usize| {
        let x = Tensor::randn(&[&[n], &sample[..]].concat(), 1.0, rng);
        (x, Tensor::zeros(&plan.out_shape_for(n)))
    };
    let (warm_x, mut warm_out) = pair(64);
    let mut runs = [pair(1), pair(7), pair(64)];
    plan.execute_into(&warm_x, &mut warm_out);
    let before = allocs_on_this_thread();
    for (x, out) in &mut runs {
        for _ in 0..3 {
            plan.execute_into(x, out);
        }
    }
    allocs_on_this_thread() - before
}

/// One warm plan serves batch 1, 7 and 64 without touching the heap: the
/// arena is sized for a tile at compile time, whatever the batch, and a
/// convolution's offset table is built when the plan is compiled, never
/// per call. Stem and two-sensor branch in f32 and int8 (the fused
/// dequant+BN+ReLU epilogue runs out of the arena's own buffers; the
/// branch has the strided, the same-size and the 1×1 geometry) and the
/// trunks of both learned gates (the attention gate's per-sample scratch
/// lives in the arena too).
#[test]
fn warm_plans_execute_any_batch_without_allocating() {
    let mut rng = Rng::new(77);
    let mut stem = Stem::new(1, &mut rng);
    let warm = Tensor::randn(&[4, 1, GRID, GRID], 1.0, &mut rng);
    for _ in 0..3 {
        let _ = stem.forward(&warm, true);
    }
    let calib: Vec<Tensor> =
        (0..3).map(|_| Tensor::randn(&[1, 1, GRID, GRID], 1.0, &mut rng)).collect();
    let (pipe, _) = stem.quantize(&calib).expect("stem quantizes");
    let config = BranchConfig { num_sensors: 2, num_classes: 8, raster: GRID };
    let branch = BranchDetector::new(config, &mut rng);
    let feats = [1, config.in_channels(), GRID / 2, GRID / 2];
    let branch_calib: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&feats, 1.0, &mut rng)).collect();
    let qbranch = branch.quantize(&branch_calib).expect("branch quantizes");
    let gate_in = [1, 4 * STEM_CHANNELS, GRID / 2, GRID / 2];
    let attention = AttentionGate::new(4 * STEM_CHANNELS, GRID / 2, 127, &mut rng);
    let deep = DeepGate::new(4 * STEM_CHANNELS, GRID / 2, 127, &mut rng);
    let plans = [
        ("f32 stem", stem.compile(warm.shape()).expect("stem compiles")),
        ("int8 stem", compile_quant_pipe(&pipe, warm.shape()).expect("pipe compiles")),
        ("f32 branch", branch.compile(&feats).expect("branch compiles")),
        ("int8 branch", qbranch.compile(&feats).expect("quantized branch compiles")),
        ("attention gate", attention.compile(&gate_in).expect("gate compiles")),
        ("deep gate", deep.compile(&gate_in).expect("gate compiles")),
    ];
    for (name, mut plan) in plans {
        let allocs = steady_state_allocs(&mut plan, &mut rng);
        assert_eq!(allocs, 0, "steady-state {name} plan allocated {allocs} times");
    }
}

/// Scoring all 127 configurations of a frame through a scratch that has
/// seen a frame at least as large allocates the returned `Vec<f32>` and
/// nothing else: the sort, the pair index, the cluster runs, the fused
/// list and the match buffers all live in the scratch.
#[test]
fn warm_scratch_scores_a_frame_with_one_allocation() {
    let mut rng = Rng::new(79);
    let mut frame = |per_branch: usize| -> Vec<Vec<Detection>> {
        (0..7)
            .map(|_| {
                (0..per_branch)
                    .map(|_| {
                        let (x, y) = (rng.uniform(0.0, 24.0) as f32, rng.uniform(0.0, 24.0) as f32);
                        Detection::new(
                            BBox::new(x, y, x + 8.0, y + 8.0),
                            rng.uniform_usize(0, 8),
                            rng.uniform(0.05, 1.0) as f32,
                        )
                    })
                    .collect()
            })
            .collect()
    };
    // The warm-up frame is the denser one: it overlaps more, so its pair
    // index is the larger.
    let (warm, next) = (frame(64), frame(40));
    let gts: Vec<GtBox> = [(2.0, 3.0), (14.0, 9.0), (20.0, 20.0)]
        .iter()
        .map(|&(x, y)| GtBox { class_id: 1, x1: x, y1: y, x2: x + 8.0, y2: y + 8.0 })
        .collect();
    let params = WbfParams::default();
    let mut scratch = FusionScratch::default();
    let _ = subset_fusion_losses(&warm, 1..=127u8, &gts, &params, &mut scratch);
    let before = allocs_on_this_thread();
    let losses = subset_fusion_losses(&next, 1..=127u8, &gts, &params, &mut scratch);
    let after = allocs_on_this_thread();
    assert_eq!(losses.len(), 127);
    assert_eq!(after - before, 1, "a warm frame allocated {} times", after - before);
}

/// A warm batch-64 step asks the allocator for what is per frame — the
/// returned detections and gate losses, decode's candidate list and
/// chains — and for nothing sized by the batch: stem inputs and outputs,
/// the gathered gate and branch inputs and the head maps are the
/// replica's step buffers, rewritten in place. At most 24 requests and
/// 16 KiB per frame, and no single request above 64 KiB (the largest
/// left is the gate's `(64, 127)` score matrix; a `plan.execute` per unit
/// used to ask for up to 2 MiB, zeroed, every step).
#[test]
fn a_warm_step_requests_no_batch_sized_buffer() {
    let frames = render_frames(29, Context::City, 64);
    let opts = InferenceOptions::new(0.01, 0.5);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0xA110C));
    for _ in 0..2 {
        model.infer_batch(&frames, &opts).expect("warm-up step");
    }
    LARGEST.with(|c| c.set(0));
    let (allocs, bytes) = (allocs_on_this_thread(), bytes_on_this_thread());
    let served = model.infer_batch(&frames, &opts).expect("warm step");
    let allocs = (allocs_on_this_thread() - allocs) as f64 / frames.len() as f64;
    let kib = (bytes_on_this_thread() - bytes) as f64 / 1024.0 / frames.len() as f64;
    let largest = LARGEST.with(|c| c.get());
    assert_eq!(served.len(), frames.len());
    assert!(allocs <= 24.0, "{allocs:.1} allocations per frame");
    assert!(kib <= 16.0, "{kib:.1} KiB requested per frame");
    assert!(largest <= 64 * 1024, "one request of {largest} bytes");

    // The same bounds hold where the stem caches exist for: 64 frozen
    // streams, every lookup of the step a hit. A hit is copied into the
    // bank's own rows and read there; it used to be a fresh 8 KiB tensor
    // per sensor and frame.
    let mut caches: Vec<StemFeatureCache> =
        frames.iter().map(|_| StemFeatureCache::new()).collect();
    let lanes: Vec<usize> = (0..frames.len()).collect();
    for _ in 0..2 {
        model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).expect("filling step");
    }
    LARGEST.with(|c| c.set(0));
    let (allocs, bytes) = (allocs_on_this_thread(), bytes_on_this_thread());
    let replayed = model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).expect("all hits");
    let allocs = (allocs_on_this_thread() - allocs) as f64 / frames.len() as f64;
    let kib = (bytes_on_this_thread() - bytes) as f64 / 1024.0 / frames.len() as f64;
    let largest = LARGEST.with(|c| c.get());
    assert!(caches.iter().all(|c| (c.hits(), c.misses()) == (8, 4)), "every lookup hit");
    assert!(replayed.iter().zip(&served).all(|(a, b)| a.detections == b.detections));
    assert!(allocs <= 24.0, "all hits: {allocs:.1} allocations per frame");
    assert!(kib <= 16.0, "all hits: {kib:.1} KiB requested per frame");
    assert!(largest <= 64 * 1024, "all hits: one request of {largest} bytes");
}

/// The oracle's configuration scorer lives in the replica's step buffers:
/// a warm loss-based step — `mixed_policy` serves one per frame, at batch
/// 1 — scores its frame out of buffers an earlier step grew. While each
/// step built its `FusionScratch` from nothing it regrew seven vectors
/// through the frame's ≈ 420 boxes: the four steps below asked for 149–174
/// allocations and 106–141 KiB each; they ask for 100–106 and 23–24 KiB
/// (detections, losses, decode's lists — what is per frame; 102–127 and
/// 24–58 KiB until the `Fuse` stage of the frames that select two or
/// more branches fused out of the same scratch).
#[test]
fn a_warm_loss_based_step_grows_no_fusion_scratch() {
    let frames = render_frames(31, Context::City, 4);
    let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::LossBased);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0xA110C));
    for frame in frames.iter().chain(&frames) {
        model.infer_batch(std::slice::from_ref(frame), &opts).expect("warm-up step");
    }
    for (i, frame) in frames.iter().enumerate() {
        let (allocs, bytes) = (allocs_on_this_thread(), bytes_on_this_thread());
        let served = model.infer_batch(std::slice::from_ref(frame), &opts).expect("warm step");
        let allocs = allocs_on_this_thread() - allocs;
        let kib = (bytes_on_this_thread() - bytes) as f64 / 1024.0;
        assert_eq!(served[0].predicted_losses.len(), 127);
        assert!(allocs <= 138, "frame {i}: {allocs} allocations");
        assert!(kib <= 82.0, "frame {i}: {kib:.1} KiB requested");
    }
}

/// The `Fuse` stage fuses out of the replica's step buffers too. A Rain
/// frame under the knowledge gate selects full late fusion, four
/// branches; while the stage built a `FusionScratch` from nothing for
/// every such frame it asked for 45.5 allocations and 47.9 KiB a frame
/// (eight frames, third step); out of the warm scratch it asks for 26.0 and
/// 12.3 KiB — decode's lists and the detections it returns.
#[test]
fn a_warm_multi_branch_step_fuses_out_of_the_step_buffers() {
    let frames = render_frames(37, Context::Rain, 8);
    let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0xA110C));
    for _ in 0..2 {
        model.infer_batch(&frames, &opts).expect("warm-up step");
    }
    let (allocs, bytes) = (allocs_on_this_thread(), bytes_on_this_thread());
    let served = model.infer_batch(&frames, &opts).expect("warm step");
    let allocs = (allocs_on_this_thread() - allocs) as f64 / frames.len() as f64;
    let kib = (bytes_on_this_thread() - bytes) as f64 / 1024.0 / frames.len() as f64;
    assert!(served.iter().all(|o| o.selected_label == "{C_L, C_R, L, R}"));
    assert!(allocs <= 28.0, "{allocs:.1} allocations per frame");
    assert!(kib <= 16.0, "{kib:.1} KiB requested per frame");
}
