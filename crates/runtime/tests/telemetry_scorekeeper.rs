//! `StreamTelemetry` and `evaluate_frames` keep score with one
//! accumulator (`ecofusion_eval::EvalAccumulator`): over the same
//! inference outputs they report the same summary, and embedding it cost
//! `record` no allocation.

// The one counting global allocator of the workspace's tests.
#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_on_this_thread, bytes_on_this_thread};
use ecofusion_core::{Dataset, DatasetSpec, EcoFusionModel, Frame, InferenceOptions};
use ecofusion_eval::{evaluate_frames, FrameOutcome};
use ecofusion_gating::GateKind;
use ecofusion_runtime::StreamTelemetry;
use ecofusion_tensor::rng::Rng;

const FRAMES: usize = 32;

/// 32 frames and their outputs under a gate per quarter, so the
/// histogram sees several labels and the stem counters differ.
fn served() -> (Vec<Frame>, Vec<ecofusion_core::InferenceOutput>) {
    let mut spec = DatasetSpec::small(77);
    spec.num_scenes = 2 * FRAMES;
    let data = Dataset::generate(&spec);
    let frames: Vec<Frame> = data.train().iter().take(FRAMES).cloned().collect();
    assert_eq!(frames.len(), FRAMES);
    let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(3));
    let outputs = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::ALL[i * 4 / FRAMES]);
            model.infer(f, &opts).expect("matching grid")
        })
        .collect();
    (frames, outputs)
}

#[test]
fn summary_equals_evaluate_frames_over_the_same_outputs() {
    let (frames, outputs) = served();
    let mut telemetry = StreamTelemetry::new();
    for (f, out) in frames.iter().zip(&outputs) {
        telemetry.record(out.clone(), f.gt_boxes(), 0);
    }
    let refs: Vec<&Frame> = frames.iter().collect();
    let mut outs = outputs.into_iter();
    let offline = evaluate_frames(&refs, 8, |_| {
        let out = outs.next().expect("one output per frame");
        FrameOutcome {
            detections: out.detections,
            energy: out.energy,
            config_label: out.selected_label,
            stage: Some(out.stage_trace),
        }
    });
    assert!(offline.config_histogram.len() > 1, "the gates should disagree on a configuration");
    assert_eq!(
        serde_json::to_string(&telemetry.summary(8)).expect("serializes"),
        serde_json::to_string(&offline).expect("serializes")
    );
}

/// What `record` asked the allocator for over these 32 frames at the
/// parent of the PR that embedded the accumulator (measured there with
/// this test): `fusion_loss`'s matching lists and the `detections` copy
/// per frame, a label clone and a map node on a configuration's first
/// sight, the history vectors' doubling.
const PARENT_ALLOCS: u64 = 176;
const PARENT_BYTES: u64 = 60_910;

#[test]
fn record_requests_no_more_than_it_did() {
    let (frames, outputs) = served();
    let gts: Vec<_> = frames.iter().map(Frame::gt_boxes).collect();
    let mut telemetry = StreamTelemetry::new();
    let (allocs, bytes) = (allocs_on_this_thread(), bytes_on_this_thread());
    for (out, gt) in outputs.into_iter().zip(gts) {
        telemetry.record(out, gt, 1);
    }
    let (allocs, bytes) = (allocs_on_this_thread() - allocs, bytes_on_this_thread() - bytes);
    println!("record: {allocs} allocations, {bytes} bytes over {FRAMES} frames");
    assert_eq!(telemetry.frames(), FRAMES as u64);
    assert!(allocs <= PARENT_ALLOCS, "{allocs} allocations, {PARENT_ALLOCS} at the parent");
    assert!(bytes <= PARENT_BYTES, "{bytes} bytes, {PARENT_BYTES} at the parent");
}
