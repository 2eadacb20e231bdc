//! End-to-end pipeline wall-clock benchmarks (this machine's latency — a
//! different quantity from the calibrated PX2 latencies the tables report).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ecofusion_bench::bench_fixture;
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions};
use ecofusion_faults::{FaultInjector, FaultKind, FaultSchedule, SensorHealthMonitor};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{PerceptionServer, RuntimeConfig, StreamSpec, VehicleStream};
use ecofusion_scene::Context;
use ecofusion_sensors::{SensorKind, SensorMask};
use ecofusion_tensor::rng::Rng;

fn bench_static_configs(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(7);
    let frame = &data.test()[0];
    let opts = InferenceOptions::new(0.0, 0.5);
    let b = model.baseline_ids();
    let mut group = c.benchmark_group("static_config");
    for (name, id) in
        [("single_camera", b.camera_right), ("early_fusion", b.early), ("late_fusion", b.late)]
    {
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(model.detect_static(frame, id, &opts)));
        });
    }
    group.finish();
}

fn bench_adaptive(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(8);
    let frame = &data.test()[0];
    let mut group = c.benchmark_group("adaptive_infer");
    for (name, gate) in [
        ("knowledge", GateKind::Knowledge),
        ("deep", GateKind::Deep),
        ("attention", GateKind::Attention),
    ] {
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(model.infer(frame, &opts).unwrap()));
        });
    }
    group.finish();
}

fn bench_stems_and_gate_features(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(9);
    let frame = &data.test()[0];
    c.bench_function("stem_features_all_sensors", |bench| {
        bench.iter(|| black_box(model.stem_features(&frame.obs, false)));
    });
}

/// Batched vs. sequential adaptive inference over the same 8 frames: the
/// amortization the `infer_batch` path buys (shared stems, one gate pass,
/// grouped branch execution).
fn bench_batched_inference(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(10);
    let frames: Vec<_> = data.test().iter().take(8).cloned().collect();
    let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Attention);
    let mut group = c.benchmark_group("adaptive_infer_8_frames");
    group.bench_function("sequential", |bench| {
        bench.iter(|| {
            for f in &frames {
                black_box(model.infer(f, &opts).unwrap());
            }
        });
    });
    group.bench_function("batched", |bench| {
        bench.iter(|| black_box(model.infer_batch(&frames, &opts).unwrap()));
    });
    group.finish();
}

/// The multi-stream runtime at 8 concurrent vehicle streams: per-stream
/// sequential `infer` (the no-runtime baseline) vs. the
/// `PerceptionServer` coalescing the same frames into cross-stream
/// micro-batches. Results are bit-identical between the two paths (the
/// runtime's integration tests assert it frame by frame); the difference
/// is pure throughput. Cross-stream amortization covers the per-call
/// work — stems, the gate network pass, branch dispatch, and on
/// multi-core hosts the batched GEMMs cross the backend's thread fan-out
/// threshold that per-frame shapes never reach.
fn bench_multistream_runtime(c: &mut Criterion) {
    const STREAMS: u64 = 8;
    const FRAMES_PER_STREAM: usize = 4;
    let specs: Vec<StreamSpec> = (0..STREAMS)
        .map(|i| {
            StreamSpec::new(3000 + i, 32)
                .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Attention))
        })
        .collect();
    let frames: Vec<Vec<Frame>> =
        specs.iter().map(|s| VehicleStream::new(*s).generate(FRAMES_PER_STREAM)).collect();
    let mut group = c.benchmark_group("multistream_8_streams");
    group.bench_function("per_stream_sequential", |bench| {
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(4));
        bench.iter(|| {
            for (spec, stream_frames) in specs.iter().zip(&frames) {
                for frame in stream_frames {
                    black_box(model.infer(frame, &spec.base_opts).unwrap());
                }
            }
        });
    });
    // One shard (pinned — the single-core batching claim) and one shard
    // per hardware-ish core: on a multi-core host the sharded row shows
    // the worker fan-out, on a single-core box it shows its overhead.
    for shards in [1usize, 4] {
        group.bench_function(format!("cross_stream_batched_{shards}_shard"), |bench| {
            let model = EcoFusionModel::new(32, 8, &mut Rng::new(4));
            let cfg = RuntimeConfig {
                max_batch: STREAMS as usize,
                num_classes: 8,
                ..RuntimeConfig::default()
            }
            .with_shards(shards);
            let mut server = PerceptionServer::new(model, &specs, cfg);
            bench.iter(|| {
                // Ingest one frame per stream per tick, process, repeat —
                // the live scheduler's steady state (telemetry accounting
                // is part of serving and stays in the measurement).
                for round in 0..FRAMES_PER_STREAM {
                    for (i, stream_frames) in frames.iter().enumerate() {
                        server.ingest(i, stream_frames[round].clone());
                    }
                    server.process_step().unwrap();
                    server.advance_tick();
                }
                black_box(server.drain().unwrap());
            });
        });
    }
    group.finish();
}

/// Per-stage wall-clock of the staged pipeline, plus the demand-driven
/// stem rule's effect per context: the knowledge gate defers stems until
/// after `Select`, so only the winner's stems execute. The setup prints
/// (and asserts) stems-executed per context — the acceptance signal that
/// pruned contexts run measurably fewer than four stems per frame.
fn bench_stage_breakdown(c: &mut Criterion) {
    let (mut model, data) = bench_fixture(12);
    let frame = data.test()[0].clone();
    let mut group = c.benchmark_group("stage_breakdown");

    // Stems-skipped-per-context under the knowledge gate (City under
    // camera dropout exercises the degraded fallback ladder).
    let know = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
    let no_cams = SensorMask::all_available()
        .without(SensorKind::CameraLeft)
        .without(SensorKind::CameraRight);
    let mut gen = ecofusion_scene::ScenarioGenerator::new(21);
    let suite = ecofusion_sensors::SensorSuite::new(model.grid());
    let mut any_pruned = false;
    for context in Context::ALL {
        let scene = gen.scene(context);
        let f = Frame { obs: suite.observe(&scene, &mut Rng::new(77)), scene };
        let clean = model.infer(&f, &know).unwrap().stage_trace.stems_executed;
        let degraded =
            model.infer(&f, &know.with_health(no_cams)).unwrap().stage_trace.stems_executed;
        eprintln!(
            "stage_breakdown: {context:?}: {clean}/4 stems executed (knowledge), \
             {degraded}/4 under camera dropout"
        );
        any_pruned |= clean < 4 || degraded < 4;
    }
    assert!(any_pruned, "demand-driven stems must prune at least one context below 4");

    // Per-stage wall-clock on this machine: the stem, branch and gate
    // rows execute what a serving step executes — a warm compiled plan
    // (the gate through `Gate::predict`, which owns its plan).
    let stem_grid = frame.obs.grid(SensorKind::Lidar).clone();
    group.bench_function("stems_one_sensor", |bench| {
        let stem = &model.stems_mut()[SensorKind::Lidar.index()];
        let mut plan = stem.compile(stem_grid.shape()).expect("stem compiles");
        bench.iter(|| black_box(plan.execute(&stem_grid)));
    });
    let feats = model.stem_features(&frame.obs, false);
    let gate_feats = EcoFusionModel::gate_features(&feats);
    group.bench_function("gate_score_attention", |bench| {
        let input = ecofusion_gating::GateInput::with_context(&gate_feats, frame.scene.context);
        bench.iter(|| {
            black_box(ecofusion_gating::Gate::predict(&mut model.gates_mut().attention, &input))
        });
    });
    let opts = InferenceOptions::new(0.01, 0.5);
    let predicted = vec![0.5f32; model.space().num_configs()];
    let energies = model.space().energies(model.px2(), ecofusion_energy::StemPolicy::Adaptive);
    group.bench_function("select", |bench| {
        bench.iter(|| {
            black_box(ecofusion_core::select_config(
                &predicted,
                &energies,
                opts.lambda_e,
                opts.gamma,
                opts.rule,
            ))
        });
    });
    let branch0_input = model.branch_input(0, &feats);
    group.bench_function("branch_single_camera", |bench| {
        let branch = &model.branches_mut()[0];
        let mut plan = branch.compile(branch0_input.shape()).expect("branch compiles");
        bench.iter(|| {
            let out = ecofusion_detect::HeadOutput { map: plan.execute(&branch0_input) };
            black_box(branch.decode(&out, opts.score_thresh, opts.nms_iou))
        });
    });

    // Int8 counterparts of the stem and branch stages — the plans the
    // quantized emergency rung serves with. Same inputs as the f32 rows
    // above (the int8 branch row stops at the raw map; decoding is the
    // f32 head's either way), so the pairs read as per-stage speedups.
    model.ensure_quant().expect("model quantizes");
    let qsnap = model.quantized().expect("quant image cached").clone();
    group.bench_function("stems_one_sensor_int8", |bench| {
        let pipe = qsnap.stem(SensorKind::Lidar.index());
        let mut plan = ecofusion_tensor::graph::compile_quant_pipe(pipe, stem_grid.shape())
            .expect("stem pipe compiles");
        bench.iter(|| black_box(plan.execute(&stem_grid)));
    });
    group.bench_function("branch_single_camera_int8", |bench| {
        let mut plan =
            qsnap.branch(0).compile(branch0_input.shape()).expect("quant branch compiles");
        bench.iter(|| black_box(plan.execute(&branch0_input)));
    });
    let branch_outs: Vec<Vec<ecofusion_detect::Detection>> =
        (0..4).map(|b| model.run_branch(b, &feats, opts.score_thresh, opts.nms_iou)).collect();
    group.bench_function("fuse_wbf_late4", |bench| {
        bench.iter(|| black_box(model.fuse(&branch_outs)));
    });
    let late_specs = model.space().branch_specs(model.baseline_ids().late);
    group.bench_function("account", |bench| {
        bench.iter(|| {
            black_box(ecofusion_core::pipeline::account(
                model.px2(),
                model.sensor_power(),
                &late_specs,
                ecofusion_energy::StemPolicy::Adaptive,
            ))
        });
    });

    // End to end: pruned knowledge inference vs the all-stems learned
    // gate on the same frame.
    group.bench_function("infer_knowledge_pruned", |bench| {
        bench.iter(|| black_box(model.infer(&frame, &know).unwrap()));
    });
    group.bench_function("infer_attention_all_stems", |bench| {
        bench.iter(|| black_box(model.infer(&frame, &opts).unwrap()));
    });
    // The emergency rung's full path: knowledge gate, pruned stems,
    // int8 stem/branch kernels.
    let know_int8 = know.with_precision(ecofusion_core::Precision::Int8);
    group.bench_function("infer_knowledge_pruned_int8", |bench| {
        bench.iter(|| black_box(model.infer(&frame, &know_int8).unwrap()));
    });
    group.finish();
}

/// The compiled plans of the Stems and Branch stages on batch-8 shapes,
/// f32 and int8: `CompiledPlan::execute_into` on a warm plan — one
/// im2col + GEMM per conv block with the BN+ReLU epilogue fused into the
/// write-back, zero steady-state allocations. The f32 `*_eager` rows
/// beside them are the layers' own eval forward, which training runs and
/// serving does not: what a training step pays per forward.
///
/// Then batch scaling: one stem, one branch and the attention gate's
/// plan, each executed at batch 1, 16 and 64 with its GMAC/s
/// (`thrpt`, in Gelem/s of multiply-accumulates) — a plan streams
/// cache-sized tiles, so the rate should hold flat from 16 to 64.
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
        ("gate", model.gates_mut().attention.compile(&gate_shape), gate_shape.to_vec()),
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
    group.finish();
}

/// Per-frame cost of the fault subsystem next to the inference it rides
/// along with: injector passthrough (clean frame), injector with three
/// active faults, and one health-monitor update. All three must be
/// negligible vs. `adaptive_infer` — the subsystem's overhead budget.
fn bench_fault_pipeline(c: &mut Criterion) {
    let (_, data) = bench_fixture(11);
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
    group.finish();
}

criterion_group!(
    benches,
    bench_static_configs,
    bench_adaptive,
    bench_stems_and_gate_features,
    bench_batched_inference,
    bench_multistream_runtime,
    bench_stage_breakdown,
    bench_fused_pipeline,
    bench_fault_pipeline
);
criterion_main!(benches);
