//! Property tests of the staged pipeline.
//!
//! The central property: the staged, demand-driven executor behind
//! `infer` is *bit-identical* to a monolithic reference that always runs
//! every stem eagerly and then executes gate → select → branch → fuse in
//! one straight line — across seeds × contexts × health masks × gates.
//! The reference (`common::monolithic_infer_batch`, shared with
//! `prop_compiled.rs`) reproduces the pipeline's semantic spec (masked
//! sensors contribute zero-filled gate features) without any pruning and
//! through the layers' own eval forwards, so the comparison isolates what
//! the pipeline adds: *when* stems run and *how* (compiled plans), never
//! *what* the frame produces.
//!
//! A second test pins the accounting: `StageTrace` energies and latencies
//! sum to the `EnergyBreakdown` totals bit for bit for every configuration
//! under both stem policies at both precisions, and the whole cost table
//! to a digest recorded before the composition was moved into the trace.
//!
//! The two blocks of the executor that have entries of their own are
//! held to the same oracle: the oracle pass (gate features, per-branch
//! detections, the 127 true losses) and `detect_static` (a fixed
//! selection), at both precisions.
//!
//! And a warm replica: its step buffers are rewritten, never cleared,
//! so one serving a sequence of different batches, f32 and int8, with
//! grids repeated inside and across batches, is held to the same
//! reference frame by frame.

mod common;

use common::{
    arb_context, eager_branch, eager_quant, eager_stems, monolithic_infer_batch, render_frames,
    Reference, GRID,
};
use ecofusion_core::model::{InferError, InferenceOutput};
use ecofusion_core::{ConfigId, EcoFusionModel, Frame, InferenceOptions};
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::Detection;
use ecofusion_energy::{Precision, StageTrace, StemPolicy};
use ecofusion_gating::GateKind;
use ecofusion_scene::Context;
use ecofusion_sensors::{SensorKind, SensorMask};
use ecofusion_tensor::rng::Rng;
use proptest::prelude::*;

fn render_frame(seed: u64, context: Context) -> Frame {
    render_frames(seed, context, 1).pop().expect("one frame")
}

/// The reference on one frame: a batch of one.
fn monolithic_infer(
    model: &mut EcoFusionModel,
    frame: &Frame,
    opts: &InferenceOptions,
) -> Reference {
    monolithic_infer_batch(model, std::slice::from_ref(frame), opts).pop().expect("one frame")
}

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0usize..GateKind::ALL.len()).prop_map(|i| GateKind::ALL[i])
}

proptest! {
    // Each case builds a fresh model and runs up to eight inferences;
    // two dozen cases still sweep every gate × many mask/context combos.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn staged_execution_matches_monolithic_reference(
        seed in 0u64..1000,
        context in arb_context(),
        gate in arb_gate(),
        mask_bits in 0u8..16,
    ) {
        let frame = render_frame(seed, context);
        let mask = SensorMask::from_bits(mask_bits);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x5EED));
        let staged = model.infer(&frame, &opts).expect("matching grid");
        let (ref_selected, ref_dets, ref_predicted) =
            monolithic_infer(&mut model, &frame, &opts);
        prop_assert_eq!(staged.selected_config, ref_selected, "{:?} mask {:#06b}", gate, mask_bits);
        prop_assert_eq!(&staged.detections, &ref_dets, "{:?} mask {:#06b}", gate, mask_bits);
        prop_assert_eq!(&staged.predicted_losses, &ref_predicted, "{:?}", gate);
        // The demand-driven pipeline never runs more stems than the
        // monolith, and the counters always cover all four sensors.
        let t = &staged.stage_trace;
        prop_assert!(t.stems_executed <= 4);
        prop_assert_eq!(
            t.stems_executed + t.stems_skipped,
            SensorKind::COUNT as u8
        );
        prop_assert!(t.matches(&staged.energy), "trace must decompose the breakdown");
    }

    #[test]
    fn staged_batch_matches_staged_sequential(
        seed in 0u64..1000,
        context in arb_context(),
        gate in arb_gate(),
        mask_bits in 0u8..16,
    ) {
        let frames: Vec<Frame> =
            (0..3).map(|i| render_frame(seed.wrapping_add(i * 131), context)).collect();
        let mask = SensorMask::from_bits(mask_bits);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0xBA7C4));
        let batched = model.infer_batch(&frames, &opts).expect("matching grid");
        let sequential: Vec<InferenceOutput> =
            frames.iter().map(|f| model.infer(f, &opts).expect("matching grid")).collect();
        for (b, s) in batched.iter().zip(&sequential) {
            prop_assert_eq!(b.selected_config, s.selected_config, "{:?}", gate);
            prop_assert_eq!(&b.detections, &s.detections, "{:?}", gate);
            prop_assert_eq!(b.stage_trace.stems_executed, s.stage_trace.stems_executed);
            prop_assert_eq!(b.stage_trace.stems_skipped, s.stage_trace.stems_skipped);
        }
    }

    #[test]
    fn oracle_pass_matches_the_eager_oracle(
        seed in 0u64..1000,
        context in arb_context(),
        // One frame, a tile's worth, one chunk of the pass, and across
        // its chunk border.
        batch in (0usize..4).prop_map(|i| [1, 3, 16, 20][i]),
        mask_bits in (0u8..3).prop_map(|i| [0b1111, 0b1011, 0b0110][i as usize]),
        int8 in (0u8..2).prop_map(|b| b == 1),
    ) {
        let frames = render_frames(seed, context, batch);
        let mask = SensorMask::from_bits(mask_bits);
        let opts = InferenceOptions::new(0.01, 0.5)
            .with_health(mask)
            .with_precision(if int8 { Precision::Int8 } else { Precision::F32 });
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x04AC1E));
        let samples = model.oracle_pass(&frames, &opts).expect("matching grid");
        prop_assert_eq!(samples.len(), batch);

        let quant = eager_quant(&mut model, &opts);
        let feats = eager_stems(&mut model, quant.as_ref(), &frames);
        let branch_dets: Vec<Vec<Vec<Detection>>> = (0..model.space().num_branches())
            .map(|b| eager_branch(&mut model, quant.as_ref(), b, &feats, &opts))
            .collect();
        let per = STEM_CHANNELS * (GRID / 2) * (GRID / 2);
        for (i, (sample, frame)) in samples.iter().zip(&frames).enumerate() {
            // Gate features: the eager stems' channel concatenation, a
            // zero block for each masked sensor.
            prop_assert_eq!(
                sample.features.shape(),
                &[1, SensorKind::COUNT * STEM_CHANNELS, GRID / 2, GRID / 2]
            );
            for k in SensorKind::ALL {
                let s = k.index();
                let got = &sample.features.data()[s * per..(s + 1) * per];
                let want = &feats[s].data()[i * per..(i + 1) * per];
                let equal = if mask.is_available(k) {
                    got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
                } else {
                    got.iter().all(|g| g.to_bits() == 0)
                };
                prop_assert!(equal, "frame {} sensor {:?} int8 {}", i, k, int8);
            }
            let dets: Vec<Vec<Detection>> = branch_dets.iter().map(|b| b[i].clone()).collect();
            prop_assert_eq!(&sample.branch_dets, &dets, "frame {} int8 {}", i, int8);
            let losses = model.config_losses_from(&dets, &frame.gt_boxes());
            prop_assert_eq!(
                sample.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "frame {} int8 {}", i, int8
            );
        }
    }

    #[test]
    fn detect_static_matches_eager_branches_and_runs_only_its_stems(
        seed in 0u64..1000,
        context in arb_context(),
        int8 in (0u8..2).prop_map(|b| b == 1),
    ) {
        let frame = render_frame(seed, context);
        let opts = InferenceOptions::new(0.0, 0.5)
            .with_precision(if int8 { Precision::Int8 } else { Precision::F32 });
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x57A71C));
        let b = model.baseline_ids();
        for config in [b.camera_left, b.camera_right, b.lidar, b.radar, b.early, b.late] {
            let (dets, energy, trace) =
                model.detect_static(&frame, config, &opts).expect("matching grid");
            // Host work: the configuration's stems and no other (the
            // eager path this replaced ran all four).
            let sensors = model.config_sensor_bits()[config.0].count_ones() as u8;
            prop_assert_eq!(
                (trace.stems_executed, trace.stems_skipped),
                (sensors, SensorKind::COUNT as u8 - sensors)
            );
            // Charge: the static policy at the options' precision.
            let (want_energy, want_trace) = ecofusion_core::pipeline::account_prec(
                model.px2(),
                model.sensor_power(),
                &model.space().branch_specs(config),
                StemPolicy::Static,
                opts.precision,
            );
            prop_assert_eq!(energy, want_energy);
            prop_assert!(trace.matches(&energy));
            prop_assert_eq!(trace.total_energy().joules(), want_trace.total_energy().joules());

            let quant = eager_quant(&mut model, &opts);
            let feats = eager_stems(&mut model, quant.as_ref(), std::slice::from_ref(&frame));
            let outs: Vec<Vec<Detection>> = model
                .space()
                .branch_ids(config)
                .iter()
                .map(|id| eager_branch(&mut model, quant.as_ref(), id.0, &feats, &opts).remove(0))
                .collect();
            prop_assert_eq!(dets, model.fuse(&outs), "config {} int8 {}", config.0, int8);
        }
    }

    #[test]
    fn demand_driven_knowledge_gate_never_runs_unused_stems(
        seed in 0u64..1000,
        context in arb_context(),
        mask_bits in 0u8..16,
    ) {
        let frame = render_frame(seed, context);
        let mask = SensorMask::from_bits(mask_bits);
        let opts =
            InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0xCAFE));
        let out = model.infer(&frame, &opts).expect("matching grid");
        let config_bits = model.config_sensor_bits()[out.selected_config.0];
        prop_assert_eq!(
            out.stage_trace.stems_executed as u32,
            config_bits.count_ones(),
            "knowledge gate must run exactly the winner's stems ({})",
            out.selected_label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One warm replica over eight batches drawn from four scenes, each
    /// frame's four grids taken from any of them — so a grid repeats
    /// inside a batch and across batches — under learned and oracle
    /// gates, with int8 steps in between. Every frame is served as a
    /// fresh model serves it, and its stem counts cover the four sensors.
    /// (Debug builds fill the bank's rows with NaN before each step, so a
    /// row read before this step's forward wrote it would show.)
    #[test]
    fn warm_serving_of_mixed_batches_matches_a_fresh_model(
        seed in 0u64..1000,
        picks in proptest::collection::vec(0u32..256, 24..48),
    ) {
        let scenes = render_frames(seed, Context::City, 4);
        let fresh = || EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0xCAC4E));
        let mut warm = fresh();
        for (step, batch) in picks.chunks(picks.len().div_ceil(8)).enumerate() {
            // Two bits of a pick per sensor: which scene its grid is.
            let frames: Vec<Frame> = batch
                .iter()
                .map(|&sources| {
                    let mut frame = scenes[0].clone();
                    for k in SensorKind::ALL {
                        let from = &scenes[(sources >> (2 * k.index()) & 3) as usize];
                        *frame.obs.grid_mut(k) = from.obs.grid(k).clone();
                    }
                    frame
                })
                .collect();
            let gate = [GateKind::Attention, GateKind::LossBased, GateKind::Deep][step % 3];
            let precision = if step % 4 == 2 { Precision::Int8 } else { Precision::F32 };
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_precision(precision);
            let served = warm.infer_batch(&frames, &opts).expect("served");
            let reference = monolithic_infer_batch(&mut fresh(), &frames, &opts);
            for (i, (out, (selected, detections, predicted))) in served.iter().zip(&reference).enumerate() {
                let what = format!("step {step} ({gate:?}, {precision:?}) frame {i}");
                prop_assert_eq!(&out.detections, detections, "{}", what);
                prop_assert_eq!(out.selected_config, *selected, "{}", what);
                prop_assert_eq!(&out.predicted_losses, predicted, "{}", what);
                let trace = &out.stage_trace;
                prop_assert_eq!(trace.stems_executed + trace.stems_skipped, 4, "{}", what);
            }
        }
    }
}

/// Not a property, but pinned here with the trace tests: the adaptive
/// trace of a live inference decomposes its own breakdown exactly.
#[test]
fn live_inference_trace_decomposes_breakdown() {
    let frame = render_frame(7, Context::Fog);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(11));
    for gate in GateKind::ALL {
        let out = model.infer(&frame, &InferenceOptions::new(0.05, 0.5).with_gate(gate)).unwrap();
        let trace: &StageTrace = &out.stage_trace;
        assert!(trace.matches(&out.energy), "{gate:?}");
        assert_eq!(trace.stems_executed + trace.stems_skipped, 4, "{gate:?}");
    }
}

/// The accounting: for all 127 configurations, both stem policies and
/// both precisions, a `StageTrace`'s totals are its `EnergyBreakdown`'s
/// bit for bit.
#[test]
fn stage_trace_sums_to_energy_breakdown() {
    let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(3));
    for config in 0..model.space().num_configs() {
        let specs = model.space().branch_specs(ConfigId(config));
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            for precision in [Precision::F32, Precision::Int8] {
                let (breakdown, trace) = ecofusion_core::pipeline::account_prec(
                    model.px2(),
                    model.sensor_power(),
                    &specs,
                    policy,
                    precision,
                );
                let what = format!("config {config} {policy:?} {precision:?}");
                assert_eq!(
                    trace.total_energy().joules().to_bits(),
                    breakdown.total_gated().joules().to_bits(),
                    "{what}"
                );
                assert_eq!(
                    trace.total_latency().millis().to_bits(),
                    breakdown.latency.millis().to_bits(),
                    "{what}"
                );
                assert!(trace.matches(&breakdown), "{what}");
            }
        }
    }
}

/// The whole Eq. 11 cost table, bit for bit: every `EnergyBreakdown` field
/// and every `StageCost` that `account_prec` returns for the 127
/// configurations × {Static, Adaptive} × {F32, Int8}, plus
/// `ConfigSpace::{energies, latencies}` under both policies, folded by
/// FNV-1a over their `to_bits()`. Recorded while the PX2 model still
/// composed configuration costs beside the stage trace: it holds the one
/// composition to the numbers every table, selection and report was
/// served with.
#[test]
fn cost_table_matches_the_recorded_digest() {
    use ecofusion_core::pipeline::account_prec;
    use ecofusion_core::ConfigSpace;
    use ecofusion_energy::{Px2Model, SensorPowerModel};
    let (px2, sensors, space) =
        (Px2Model::default(), SensorPowerModel::default(), ConfigSpace::canonical());
    let policies = [StemPolicy::Static, StemPolicy::Adaptive];
    let mut cells: Vec<f64> = Vec::new();
    for config in 0..space.num_configs() {
        let specs = space.branch_specs(ConfigId(config));
        for policy in policies {
            for precision in [Precision::F32, Precision::Int8] {
                let (b, trace) = account_prec(&px2, &sensors, &specs, policy, precision);
                cells.extend([
                    b.platform.joules(),
                    b.sensors_gated.joules(),
                    b.sensors_all_active.joules(),
                    b.latency.millis(),
                ]);
                for cost in trace.costs {
                    cells.extend([cost.energy.joules(), cost.latency.millis()]);
                }
            }
        }
    }
    for policy in policies {
        cells.extend(space.energies(&px2, policy).iter().map(|e| e.joules()));
        cells.extend(space.latencies(&px2, policy).iter().map(|t| t.millis()));
    }
    assert_eq!(cells.len(), 127 * 2 * 2 * (4 + 2 * 7) + 2 * 2 * 127);
    let digest = cells
        .iter()
        .flat_map(|c| c.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, 0x7326_e44c_977b_853c, "digest {digest:#018x}");
}

/// A frame of the wrong size is an error from the `Sense` stage of both
/// blocks, not a panic inside a convolution.
#[test]
fn oracle_pass_and_detect_static_reject_a_wrong_sized_frame() {
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(5));
    let scene = ecofusion_scene::ScenarioGenerator::new(9).scene(Context::City);
    let obs = ecofusion_sensors::SensorSuite::new(48).observe(&scene, &mut Rng::new(10));
    let frame = Frame { scene, obs };
    let opts = InferenceOptions::new(0.0, 0.5);
    let late = model.baseline_ids().late;
    let mismatch = InferError::GridMismatch { expected: GRID, found: 48 };
    assert_eq!(model.detect_static(&frame, late, &opts).unwrap_err(), mismatch);
    assert_eq!(model.oracle_pass(std::slice::from_ref(&frame), &opts).unwrap_err(), mismatch);
    // The replica still serves.
    let good = render_frame(11, Context::City);
    assert!(model.detect_static(&good, late, &opts).is_ok());
    assert_eq!(model.oracle_pass(std::slice::from_ref(&good), &opts).unwrap().len(), 1);
}
