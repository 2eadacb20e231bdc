//! Wall-clock microbenchmarks of the compiled plans and the fault
//! subsystem — what a kernel change iterates on (this machine's latency, a
//! different quantity from the calibrated PX2 latencies the tables
//! report). Whole inferences, the runtime and the per-stage breakdown are
//! timed by the serving benchmark under `benchmark/`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ecofusion_bench::bench_fixture;
use ecofusion_faults::{FaultInjector, FaultKind, FaultSchedule, SensorHealthMonitor};
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

/// The compiled plans of the Stems and Branch stages on batch-8 shapes,
/// f32 and int8: `CompiledPlan::execute_into` on a warm plan — one direct
/// convolution per conv block, its BN + ReLU (+ pooling) epilogue writing
/// what the next block reads, zero steady-state allocations. The f32 `*_eager` rows
/// beside them are the layers' own eval forward, which training runs and
/// serving does not: what a training step pays per forward.
///
/// Then batch scaling: one stem, one branch and the attention gate's
/// plan, each executed at batch 1, 16 and 64 — the last is the batch
/// `fleet_wide` serves — with its GMAC/s (`thrpt`, in Gelem/s of
/// multiply-accumulates): a plan streams cache-sized tiles, so the rate
/// should hold flat from 16 to 64. Beside them the emergency rung's int8
/// plans: `stem_plan_batch64_int8`, the same pooled tile shape as
/// `stem_plan_batch64` over channel quads that are three quarters
/// padding (one `vpdpbusd` where the f32 tile has one FMA, so it costs
/// about the same), and `branch_plan_batch16_int8` beside
/// `branch_plan_batch16` — 16 is `squeeze_int8`'s unit batch — whose
/// quads are whole, four multiply-accumulates a lane a step.
fn bench_fused_pipeline(c: &mut Criterion) {
    use ecofusion_tensor::graph::compile_quant_pipe;
    use ecofusion_tensor::layer::Layer;
    use ecofusion_tensor::tensor::Tensor;

    let (mut model, _) = bench_fixture(13);
    let grid = model.grid();
    let mut rng = Rng::new(0xF05E);
    let mut group = c.benchmark_group("fused_pipeline");

    // Stems stage: one 1-channel sensor, batch 8 (the scheduler's
    // micro-batch cap).
    let x = Tensor::randn(&[8, 1, grid, grid], 1.0, &mut rng);
    {
        let stem = &mut model.stems_mut()[SensorKind::Lidar.index()];
        let mut plan = stem.compile(x.shape()).expect("stem compiles");
        let mut out = Tensor::zeros(&plan.out_shape_for(8));
        group.bench_function("stem_batch8_eager", |bench| {
            bench.iter(|| black_box(Layer::forward(stem, &x, false)));
        });
        group.bench_function("stem_batch8_compiled", |bench| {
            bench.iter(|| plan.execute_into(black_box(&x), &mut out));
        });
    }

    // Branch stage: the single-camera branch on batch-8 stem features.
    let side = grid / 2;
    let feats = Tensor::randn(&[8, 8, side, side], 1.0, &mut rng);
    {
        let mut bplan = {
            let branch = &model.branches_mut()[0];
            branch.compile(feats.shape()).expect("branch compiles")
        };
        let mut bout = Tensor::zeros(&bplan.out_shape_for(8));
        let branch = &mut model.branches_mut()[0];
        group.bench_function("branch_batch8_eager", |bench| {
            bench.iter(|| black_box(branch.forward(&feats, false)));
        });
        group.bench_function("branch_batch8_compiled", |bench| {
            bench.iter(|| bplan.execute_into(black_box(&feats), &mut bout));
        });
    }

    // Int8 counterparts off the model's quantized image.
    model.ensure_quant().expect("model quantizes");
    let qsnap = model.quantized().expect("quant image cached").clone();
    {
        let pipe = qsnap.stem(SensorKind::Lidar.index());
        let mut qplan = compile_quant_pipe(pipe, x.shape()).expect("stem pipe compiles");
        let mut out = Tensor::zeros(&qplan.out_shape_for(8));
        group.bench_function("stem_batch8_int8_compiled", |bench| {
            bench.iter(|| qplan.execute_into(black_box(&x), &mut out));
        });
    }
    {
        let qbranch = qsnap.branch(0);
        let mut qbplan = qbranch.compile(feats.shape()).expect("quant branch compiles");
        let mut bout = Tensor::zeros(&qbplan.out_shape_for(8));
        group.bench_function("branch_batch8_int8_compiled", |bench| {
            bench.iter(|| qbplan.execute_into(black_box(&feats), &mut bout));
        });
    }

    let gate_shape = [1, 8 * SensorKind::COUNT, side, side];
    let plans = [
        ("stem", model.stems_mut()[0].compile(x.shape()), vec![1, 1, grid, grid]),
        ("branch", model.branches_mut()[0].compile(feats.shape()), vec![1, 8, side, side]),
        ("attention_gate", model.gates_mut().attention.compile(&gate_shape), gate_shape.to_vec()),
    ];
    for (name, plan, mut shape) in plans {
        let mut plan = plan.expect("canonical stacks compile");
        for batch in [1usize, 16, 64] {
            shape[0] = batch;
            let x = Tensor::randn(&shape, 1.0, &mut rng);
            let mut out = Tensor::zeros(&plan.out_shape_for(batch));
            group.throughput(Throughput::Elements((batch * plan.macs_per_sample()) as u64));
            group.bench_function(format!("{name}_plan_batch{batch}"), |bench| {
                bench.iter(|| plan.execute_into(black_box(&x), &mut out));
            });
        }
    }
    let int8 = [
        ("stem", compile_quant_pipe(qsnap.stem(0), x.shape()), vec![64, 1, grid, grid]),
        ("branch", qsnap.branch(0).compile(feats.shape()), vec![16, 8, side, side]),
    ];
    for (name, plan, shape) in int8 {
        let mut qplan = plan.expect("quantized stacks compile");
        let x = Tensor::randn(&shape, 1.0, &mut rng);
        let mut out = Tensor::zeros(&qplan.out_shape_for(shape[0]));
        group.throughput(Throughput::Elements((shape[0] * qplan.macs_per_sample()) as u64));
        group.bench_function(format!("{name}_plan_batch{}_int8", shape[0]), |bench| {
            bench.iter(|| qplan.execute_into(black_box(&x), &mut out));
        });
    }
    group.finish();
}

/// Per-frame cost of the glue that rides along with inference: injector
/// passthrough (clean frame), injector with three active faults, one
/// health-monitor update, and one head decode + NMS. The monitor's cost is
/// read against the int8 branch plan's time per frame
/// (`fused_pipeline/branch_batch8_int8_compiled` ÷ 8) — the emergency
/// rung's one branch is the least inference a frame can ride with, and the
/// monitor runs in the server's serial pick phase: about half of it on the
/// reference host since that plan runs on channel quads (`BENCH_27.json`;
/// a third before).
/// `decode_sample` is the benchmark's shape: 64 cells of an untrained
/// 8-class head, every cell a candidate, most of them kept.
fn bench_fault_pipeline(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(11);
    let frame = data.test()[0].clone();
    let context = frame.scene.context;
    let mut group = c.benchmark_group("fault_pipeline");

    let mut clean_injector = FaultInjector::new(FaultSchedule::empty(), 3);
    group.bench_function("injector_passthrough", |bench| {
        bench.iter(|| black_box(clean_injector.apply(frame.obs.clone(), context)));
    });

    let schedule = FaultSchedule::empty().with_camera_dropout(0, u64::MAX).with_event(
        SensorKind::Lidar,
        FaultKind::NoiseBurst,
        0,
        u64::MAX,
        1.0,
    );
    let mut active_injector = FaultInjector::new(schedule, 3);
    group.bench_function("injector_three_active_faults", |bench| {
        bench.iter(|| black_box(active_injector.apply(frame.obs.clone(), context)));
    });

    let mut monitor = SensorHealthMonitor::default();
    group.bench_function("health_monitor_update", |bench| {
        bench.iter(|| {
            monitor.update(black_box(&frame.obs));
            black_box(monitor.mask())
        });
    });

    // Branch 0's head map through the layers' own eval forward.
    let feats: Vec<Tensor> = model.space().branches()[0]
        .sensors()
        .iter()
        .map(|k| model.stems_mut()[k.index()].forward(frame.obs.grid(*k), false))
        .collect();
    let input = Tensor::concat_channels(&feats.iter().collect::<Vec<_>>());
    let branch = &mut model.branches_mut()[0];
    let head = branch.forward(&input, false);
    let opts = ecofusion_core::InferenceOptions::new(0.01, 0.5);
    let kept = branch.decode_sample(&head, 0, opts.score_thresh, opts.nms_iou).len();
    assert!(kept > 40, "an untrained head keeps most of its 64 cells, not {kept}");
    group.bench_function("decode_sample", |bench| {
        bench.iter(|| {
            black_box(branch.decode_sample(black_box(&head), 0, opts.score_thresh, opts.nms_iou))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fused_pipeline, bench_fault_pipeline);
criterion_main!(benches);
