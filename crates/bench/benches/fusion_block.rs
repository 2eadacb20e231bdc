//! Fusion-block microbenchmarks: WBF (the paper's §4.4 block) vs NMS, and
//! the loss-based oracle's per-frame scorer.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions};
use ecofusion_detect::{
    nms, soft_nms, subset_fusion_losses, weighted_boxes_fusion, BBox, Detection, FusionScratch,
    WbfParams,
};
use ecofusion_runtime::{StreamSpec, VehicleStream};
use ecofusion_scene::{Context, GtBox};
use ecofusion_tensor::rng::Rng;

fn random_detections(n: usize, rng: &mut Rng) -> Vec<Detection> {
    (0..n)
        .map(|_| {
            let x = rng.uniform(0.0, 56.0) as f32;
            let y = rng.uniform(0.0, 56.0) as f32;
            let w = rng.uniform(4.0, 12.0) as f32;
            let h = rng.uniform(4.0, 12.0) as f32;
            Detection::new(
                BBox::new(x, y, x + w, y + h),
                rng.uniform_usize(0, 8),
                rng.uniform(0.05, 1.0) as f32,
            )
        })
        .collect()
}

fn bench_fusers(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion_block");
    for &n in &[8usize, 32, 128] {
        let mut rng = Rng::new(n as u64);
        // Four branches' worth of detections.
        let branches: Vec<Vec<Detection>> =
            (0..4).map(|_| random_detections(n / 4, &mut rng)).collect();
        let flat: Vec<Detection> = branches.iter().flatten().copied().collect();
        group.bench_with_input(BenchmarkId::new("wbf", n), &branches, |b, branches| {
            b.iter(|| black_box(weighted_boxes_fusion(branches, &WbfParams::default(), 4)));
        });
        group.bench_with_input(BenchmarkId::new("nms", n), &flat, |b, flat| {
            b.iter(|| black_box(nms(flat.clone(), 0.5)));
        });
        group.bench_with_input(BenchmarkId::new("soft_nms", n), &flat, |b, flat| {
            b.iter(|| black_box(soft_nms(flat.clone(), 0.5, 0.05)));
        });
    }
    // The loss-based oracle's per-frame work: every non-empty subset of
    // seven branches fused and scored, through a warm scratch. Uniform
    // random boxes rarely merge.
    let mut rng = Rng::new(127);
    let branches: Vec<Vec<Detection>> = (0..7).map(|_| random_detections(60, &mut rng)).collect();
    let gts: Vec<GtBox> = random_detections(4, &mut rng)
        .iter()
        .map(|d| GtBox {
            class_id: d.class_id,
            x1: d.bbox.x1,
            y1: d.bbox.y1,
            x2: d.bbox.x2,
            y2: d.bbox.y2,
        })
        .collect();
    let mut scratch = FusionScratch::default();
    group.bench_function("config_losses", |b| {
        b.iter(|| {
            black_box(subset_fusion_losses(
                &branches,
                1..=127u8,
                &gts,
                &WbfParams::default(),
                &mut scratch,
            ))
        });
    });
    // The same on what `mixed_policy`'s oracle stream (seed 7) serves it:
    // the untrained serving model's ≈ 440 boxes a frame, 60-odd per
    // branch, which do merge. One frame an iteration, eight in turn.
    let mut stream = VehicleStream::new(StreamSpec::new(711, 32).with_context(Context::ALL[6]));
    let frames: Vec<Frame> = (0..8).map(|_| stream.next_frame()).collect();
    let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(0xEC0F));
    let samples =
        model.oracle_pass(&frames, &InferenceOptions::new(0.01, 0.5)).expect("grid matches");
    let gts: Vec<Vec<GtBox>> = frames.iter().map(Frame::gt_boxes).collect();
    let mut next = (0..frames.len()).cycle();
    group.bench_function("config_losses_dense", |b| {
        b.iter(|| {
            let i = next.next().expect("cycles");
            black_box(subset_fusion_losses(
                &samples[i].branch_dets,
                1..=127u8,
                &gts[i],
                &WbfParams::default(),
                &mut scratch,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fusers);
criterion_main!(benches);
