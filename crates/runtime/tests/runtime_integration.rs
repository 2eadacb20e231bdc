//! Integration tests of the multi-stream runtime: bit-identical batching,
//! energy-telemetry consistency, budget adaptation, backpressure, and
//! end-to-end determinism.

use ecofusion_core::{EcoFusionModel, InferenceOutput};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{
    run_simulation, BackpressurePolicy, EnergyBudget, PerceptionServer, RuntimeConfig, StreamSpec,
    VehicleStream,
};
use ecofusion_tensor::rng::Rng;

const GRID: usize = 32;
const NUM_CLASSES: usize = 8;

fn model(seed: u64) -> EcoFusionModel {
    EcoFusionModel::new(GRID, NUM_CLASSES, &mut Rng::new(seed))
}

fn specs(n: usize) -> Vec<StreamSpec> {
    (0..n).map(|i| StreamSpec::new(100 + i as u64, GRID)).collect()
}

/// Runs `body` at every shard count this suite covers, handing it the
/// default config at that count. Per-stream outputs, digests and reports
/// are shard-count-invariant, so each test's assertions must hold
/// unchanged at both; a count above the stream count is clamped.
fn at_each_shard_count(body: impl Fn(RuntimeConfig)) {
    for shards in [1, 4] {
        body(RuntimeConfig::default().with_shards(shards));
    }
}

/// The acceptance property: frames scheduled through cross-stream
/// micro-batches produce exactly the outputs of per-stream sequential
/// `infer` on an identically-seeded model.
#[test]
fn cross_stream_batching_bit_identical_to_sequential() {
    at_each_shard_count(|cfg| {
        let specs = specs(3);
        let frames_per_stream = 6usize;

        // Batched path: live simulation through the server.
        let mut server = PerceptionServer::new(
            model(42),
            &specs,
            RuntimeConfig { max_batch: 4, num_classes: 8, ..cfg },
        );
        let mut streams: Vec<VehicleStream> =
            specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut server, &mut streams, frames_per_stream as u64).unwrap();

        // Sequential path: twin model (same seed => identical weights), twin
        // streams (same specs => identical frames), plain `infer` per frame.
        let mut twin = model(42);
        for (i, spec) in specs.iter().enumerate() {
            let mut stream = VehicleStream::new(*spec);
            let expected: Vec<InferenceOutput> = stream
                .generate(frames_per_stream)
                .iter()
                .map(|f| twin.infer(f, &spec.base_opts).unwrap())
                .collect();
            let telemetry = server.telemetry(i);
            assert_eq!(telemetry.frames() as usize, frames_per_stream, "stream {i}");
            for (k, out) in expected.iter().enumerate() {
                assert_eq!(
                    telemetry.selected_configs()[k],
                    out.selected_config,
                    "stream {i} frame {k}: selected config diverged"
                );
                assert_eq!(
                    telemetry.detections()[k],
                    out.detections,
                    "stream {i} frame {k}: detections diverged"
                );
            }
            let platform: f64 = expected.iter().map(|o| o.energy.platform.joules()).sum();
            assert!((telemetry.platform_j() - platform).abs() < 1e-12, "stream {i} energy");
        }
    });
}

/// Per-stream energy telemetry must sum exactly to the report totals.
#[test]
fn per_stream_energy_sums_to_report_total() {
    at_each_shard_count(|cfg| {
        let specs = specs(4);
        let mut server = PerceptionServer::new(model(7), &specs, cfg);
        let mut streams: Vec<VehicleStream> =
            specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut server, &mut streams, 8).unwrap();
        let report = server.report();
        assert!(report.frames > 0);
        let platform: f64 = report.per_stream.iter().map(|s| s.total_platform_j).sum();
        let gated: f64 = report.per_stream.iter().map(|s| s.total_gated_j).sum();
        assert!((report.total_platform_j - platform).abs() < 1e-12);
        assert!((report.total_gated_j - gated).abs() < 1e-12);
        for s in &report.per_stream {
            // Per-stream: summary means times frame count reproduce the totals.
            assert!(
                (s.summary.avg_total_gated_j * s.summary.frames as f64 - s.total_gated_j).abs()
                    < 1e-9
            );
            assert!(s.total_gated_j >= s.total_platform_j, "sensor energy is non-negative");
            assert!(s.total_platform_j > 0.0);
        }
    });
}

/// A stream with a starvation-level budget escalates along the ladder and
/// spends less energy per frame than an unbudgeted twin.
#[test]
fn tight_budget_escalates_and_cuts_energy() {
    at_each_shard_count(|cfg| {
        // Knowledge gate in a fixed City context: the rule always executes
        // early-3 (≈ 5.5 J/frame with gated sensors) — comfortably above the
        // 4 J budget, so the controller must climb the ladder; the emergency
        // rung (all candidates, λ_E = 1) caps spend at the cheapest branch.
        let mut base = StreamSpec::new(55, GRID).with_opts(
            ecofusion_core::InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge),
        );
        base.drift_stay_prob = 1.0; // hold the city context for the whole run
        let tight = base.with_budget(EnergyBudget { target_j: 4.0, window: 4, relax_margin: 0.4 });
        let ticks = 48u64;

        let mut free_server = PerceptionServer::new(model(3), &[base], cfg);
        let mut free_streams = vec![VehicleStream::new(base)];
        run_simulation(&mut free_server, &mut free_streams, ticks).unwrap();
        let free = &free_server.report().per_stream[0];

        let mut tight_server = PerceptionServer::new(model(3), &[tight], cfg);
        let mut tight_streams = vec![VehicleStream::new(tight)];
        run_simulation(&mut tight_server, &mut tight_streams, ticks).unwrap();
        let constrained = &tight_server.report().per_stream[0];

        assert_eq!(free.escalations, 0, "unlimited budget must not adapt");
        assert!(constrained.escalations > 0, "tight budget must escalate");
        assert!(constrained.final_level > 0);
        assert!(constrained.final_lambda_e > base.base_opts.lambda_e);
        assert!(
            constrained.summary.avg_total_gated_j < free.summary.avg_total_gated_j,
            "budgeted stream should spend less: {} vs {}",
            constrained.summary.avg_total_gated_j,
            free.summary.avg_total_gated_j
        );
    });
}

/// Overloaded drop-oldest queues drop frames and record it; stall queues
/// lose nothing but defer the producer.
#[test]
fn backpressure_policies_account_overload() {
    at_each_shard_count(|cfg| {
        // Two streams emitting every tick, server processing at most one frame
        // per tick => sustained 2x overload, tiny queues.
        let overload = |policy| {
            let specs: Vec<StreamSpec> =
                (0..2).map(|i| StreamSpec::new(70 + i, GRID).with_queue(2, policy)).collect();
            let mut server = PerceptionServer::new(
                model(5),
                &specs,
                RuntimeConfig { max_batch: 1, num_classes: 8, ..cfg },
            );
            let mut streams: Vec<VehicleStream> =
                specs.iter().map(|s| VehicleStream::new(*s)).collect();
            run_simulation(&mut server, &mut streams, 16).unwrap();
            server.report()
        };

        let dropping = overload(BackpressurePolicy::DropOldest);
        let total_dropped: u64 = dropping.per_stream.iter().map(|s| s.dropped).sum();
        assert!(total_dropped > 0, "2x overload with depth-2 queues must drop");
        assert!(dropping.per_stream.iter().all(|s| s.stalls == 0));
        assert!(dropping.per_stream.iter().all(|s| s.queue_high_water <= 2));

        let stalling = overload(BackpressurePolicy::Stall);
        let total_stalls: u64 = stalling.per_stream.iter().map(|s| s.stalls).sum();
        assert!(total_stalls > 0, "2x overload with stall policy must stall producers");
        assert!(stalling.per_stream.iter().all(|s| s.dropped == 0));
        // Stalled producers deferred frames; drained total is what was accepted.
        assert!(stalling.frames < dropping.frames + total_dropped);
    });
}

/// The whole simulation is deterministic: two identically-configured runs
/// produce identical reports.
#[test]
fn simulation_is_deterministic() {
    at_each_shard_count(|cfg| {
        let run = || {
            let specs: Vec<StreamSpec> = (0..3)
                .map(|i| {
                    StreamSpec::new(200 + i, GRID)
                        .with_budget(EnergyBudget::per_frame(6.0))
                        .with_timing(1 + i % 2, i)
                })
                .collect();
            let mut server = PerceptionServer::new(model(11), &specs, cfg);
            let mut streams: Vec<VehicleStream> =
                specs.iter().map(|s| VehicleStream::new(*s)).collect();
            run_simulation(&mut server, &mut streams, 20).unwrap();
            server.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.total_platform_j, b.total_platform_j);
        for (x, y) in a.per_stream.iter().zip(&b.per_stream) {
            assert_eq!(x.summary.config_histogram, y.summary.config_histogram);
            assert_eq!(x.summary.map_pct, y.summary.map_pct);
            assert_eq!(x.dropped, y.dropped);
            assert_eq!(x.final_level, y.final_level);
            assert_eq!(x.total_gated_j, y.total_gated_j);
        }
    });
}

/// Malformed frames are refused at the ingest boundary, so a bad frame
/// can never fail a micro-batch mid-step and take healthy frames with it
/// — and the refusal is a counted outcome, not a server-killing panic.
#[test]
fn ingest_rejects_wrong_grid_frame() {
    at_each_shard_count(|cfg| {
        let specs = specs(1);
        let mut server = PerceptionServer::new(model(17), &specs, cfg);
        let mut wrong = VehicleStream::new(StreamSpec::new(500, 48));
        assert_eq!(
            server.ingest(0, wrong.next_frame()),
            ecofusion_runtime::IngestOutcome::RejectedMalformed
        );
        // The server keeps serving: a healthy frame on the same stream still
        // goes through.
        let mut healthy = VehicleStream::new(specs[0]);
        assert_eq!(
            server.ingest(0, healthy.next_frame()),
            ecofusion_runtime::IngestOutcome::Enqueued
        );
        assert_eq!(server.drain().unwrap(), 1);
        let report = server.report();
        assert_eq!(report.per_stream[0].rejected_malformed, 1);
        assert_eq!(report.frames, 1);
    });
}

/// Direct ingest against a full stall-policy queue counts as a stall in
/// the report, without the simulation driver's record_stall protocol.
#[test]
fn direct_ingest_rejection_counts_as_stall() {
    at_each_shard_count(|cfg| {
        let spec = specs(1)[0].with_queue(1, BackpressurePolicy::Stall);
        let mut server = PerceptionServer::new(model(19), &[spec], cfg);
        let mut stream = VehicleStream::new(spec);
        assert_eq!(
            server.ingest(0, stream.next_frame()),
            ecofusion_runtime::IngestOutcome::Enqueued
        );
        assert_eq!(
            server.ingest(0, stream.next_frame()),
            ecofusion_runtime::IngestOutcome::Rejected
        );
        server.drain().unwrap();
        let report = server.report();
        assert_eq!(report.per_stream[0].stalls, 1);
        assert_eq!(report.per_stream[0].dropped, 0);
        assert_eq!(report.frames, 1);
    });
}

/// Micro-batches actually coalesce frames from different streams.
#[test]
fn batches_span_streams() {
    let specs = specs(4);
    // Batch composition is the one thing that legitimately varies with the
    // shard count (units are per-shard), so this test pins one shard.
    let cfg =
        RuntimeConfig { max_batch: 8, num_classes: 8, ..RuntimeConfig::default() }.with_shards(1);
    let mut server = PerceptionServer::new(model(13), &specs, cfg);
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, 6).unwrap();
    let report = server.report();
    // 4 streams emit per tick and the batch cap is 8: every step coalesces
    // all four streams into one micro-batch.
    assert!(report.avg_batch_size > 3.0, "avg batch {}", report.avg_batch_size);
    assert_eq!(report.frames, 24);
}

/// Clean streams with fault-aware gating enabled behave bit-identically
/// to streams without it: the monitor stays healthy, the mask stays
/// all-available, and every decision matches.
#[test]
fn health_gating_is_identity_on_clean_streams() {
    at_each_shard_count(|cfg| {
        let frames = 8u64;
        let plain_specs = specs(2);
        let gated_specs: Vec<StreamSpec> =
            plain_specs.iter().map(|s| s.with_health_gating(true)).collect();

        let mut plain = PerceptionServer::new(
            model(23),
            &plain_specs,
            RuntimeConfig { max_batch: 4, num_classes: 8, ..cfg },
        );
        let mut plain_streams: Vec<VehicleStream> =
            plain_specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut plain, &mut plain_streams, frames).unwrap();

        let mut gated = PerceptionServer::new(
            model(23),
            &gated_specs,
            RuntimeConfig { max_batch: 4, num_classes: 8, ..cfg },
        );
        let mut gated_streams: Vec<VehicleStream> =
            gated_specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut gated, &mut gated_streams, frames).unwrap();

        for i in 0..plain_specs.len() {
            assert_eq!(
                plain.telemetry(i).selected_configs(),
                gated.telemetry(i).selected_configs(),
                "stream {i}"
            );
            assert_eq!(
                plain.telemetry(i).detections(),
                gated.telemetry(i).detections(),
                "stream {i}"
            );
        }
        let report = gated.report();
        for s in &report.per_stream {
            assert!(s.health_gating);
            assert_eq!(s.masked_frames, 0);
            assert!(s.final_mask.is_all_available());
        }
    });
}

/// A camera-dropout schedule drives the lane monitor to mask the cameras,
/// and the fault-aware knowledge gate reroutes to camera-free
/// configurations while the fault-blind twin keeps running camera-based
/// ones.
#[test]
fn fault_aware_gate_reroutes_under_camera_dropout() {
    at_each_shard_count(|cfg| {
        use ecofusion_core::InferenceOptions;
        use ecofusion_faults::FaultSchedule;
        use ecofusion_scene::Context;
        use ecofusion_sensors::SensorKind;

        let ticks = 24u64;
        let onset = 6u64;
        let base = StreamSpec::new(700, GRID)
            .with_context(Context::City)
            .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
        // Long dwell keeps the stream in City for the whole run, so the
        // knowledge gate's clean choice is stable.
        let base = StreamSpec { dwell_frames: 64, drift_stay_prob: 1.0, ..base };
        let schedule = FaultSchedule::empty().with_camera_dropout(onset, u64::MAX);

        let run = |health_gating: bool| {
            let spec = base.with_health_gating(health_gating);
            let mut server = PerceptionServer::new(
                model(29),
                &[spec],
                RuntimeConfig { max_batch: 2, num_classes: 8, ..cfg },
            );
            let mut streams = vec![VehicleStream::new(spec).with_faults(schedule.clone())];
            run_simulation(&mut server, &mut streams, ticks).unwrap();
            let labels: Vec<String> = {
                let t = server.telemetry(0);
                t.selected_configs().iter().map(|c| format!("{:?}", c)).collect()
            };
            (server.report(), labels)
        };

        let (blind_report, blind_labels) = run(false);
        let (aware_report, aware_labels) = run(true);

        // Pre-onset decisions agree (clean frames, healthy mask).
        assert_eq!(blind_labels[..onset as usize], aware_labels[..onset as usize]);
        // The aware server masked the cameras and changed its decisions.
        let aware = &aware_report.per_stream[0];
        assert!(aware.masked_frames > 0, "mask never engaged");
        assert!(!aware.final_mask.is_available(SensorKind::CameraLeft));
        assert!(!aware.final_mask.is_available(SensorKind::CameraRight));
        assert!(aware.health_transitions > 0);
        assert!(aware.degraded_frames >= aware.masked_frames);
        // The blind server saw the same degradation in telemetry but kept its
        // camera-based decisions.
        let blind = &blind_report.per_stream[0];
        assert!(blind.degraded_frames > 0);
        assert_eq!(blind.masked_frames, 0, "gating off must never mask");
        assert_ne!(
            blind_labels.last(),
            aware_labels.last(),
            "fault-aware gate should have rerouted away from the cameras"
        );
        // Reproducibility: the aware run is deterministic end to end.
        let (aware_again, labels_again) = run(true);
        assert_eq!(aware_labels, labels_again);
        assert_eq!(aware.masked_frames, aware_again.per_stream[0].masked_frames);
    });
}

/// When several frames of one lane are coalesced into a single step, all
/// of them execute under the lane's final mask and the masked-frame
/// counter describes exactly that mask — no half-counted steps.
#[test]
fn multi_frame_pop_counts_against_executed_mask() {
    at_each_shard_count(|cfg| {
        use ecofusion_core::InferenceOptions;
        use ecofusion_faults::FaultSchedule;
        use ecofusion_scene::Context;

        let spec = StreamSpec::new(900, GRID)
            .with_context(Context::City)
            .with_queue(8, BackpressurePolicy::DropOldest)
            .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge))
            .with_health_gating(true);
        let spec = StreamSpec { dwell_frames: 64, drift_stay_prob: 1.0, ..spec };
        // Cameras dead from the very first frame: the monitor reaches Failed
        // shortly after its warmup window.
        let schedule = FaultSchedule::empty().with_camera_dropout(0, u64::MAX);
        let mut stream = VehicleStream::new(spec).with_faults(schedule);
        let mut server = PerceptionServer::new(
            model(31),
            &[spec],
            RuntimeConfig { max_batch: 4, num_classes: 8, ..cfg },
        );

        // Step 1: four frames in one batch, all inside the monitor warmup.
        for _ in 0..4 {
            server.ingest(0, stream.next_frame());
        }
        assert_eq!(server.process_step().unwrap(), 4);
        let after_warmup = server.telemetry(0).masked_frames();
        assert_eq!(after_warmup, 0, "warmup frames must not count as masked");

        // Step 2: four more frames in one batch; the monitor fails the
        // cameras while absorbing them, so the whole batch runs (and counts)
        // under the engaged mask.
        for _ in 0..4 {
            server.ingest(0, stream.next_frame());
        }
        assert_eq!(server.process_step().unwrap(), 4);
        let report = server.report();
        let s = &report.per_stream[0];
        assert_eq!(s.masked_frames, 4, "whole batch must count against the executed mask");
        assert!(!s.final_mask.is_available(ecofusion_sensors::SensorKind::CameraLeft));
        // The options in force reflect the same mask telemetry counted.
        assert_eq!(server.stream_options(0).health, s.final_mask);
    });
}

/// A stale int8 image — one whose layer shapes do not chain, as a
/// version-skewed file from disk might — used to panic inside the step
/// that first ran it. It now fails that step with an error that names
/// the unit, and the server is still there to report.
#[test]
fn stale_int8_image_fails_the_step_with_a_typed_error() {
    use ecofusion_core::model::{InferError, PlanUnit};
    use ecofusion_core::{InferenceOptions, Precision, QuantSnapshot};

    let mut served = model(37);
    let json = serde_json::to_string(served.ensure_quant().expect("quantizes")).expect("json");
    // The first `in_channels` in the file is stem 0's convolution (1).
    let skewed = json.replacen("\"in_channels\":1,", "\"in_channels\":3,", 1);
    assert_ne!(skewed, json, "the image's JSON layout moved under this test");
    let image: QuantSnapshot = serde_json::from_str(&skewed).expect("still a well-formed image");
    served.install_quant(image).expect("header checks pass");

    let spec = StreamSpec::new(800, GRID)
        .with_opts(InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8));
    let mut server = PerceptionServer::new(served, &[spec], RuntimeConfig::default());
    let mut stream = VehicleStream::new(spec);
    server.ingest(0, stream.next_frame());
    let err = server.process_step().unwrap_err();
    assert!(matches!(err, InferError::Compile { unit: PlanUnit::Stem(0), .. }), "{err:?}");
    assert!(err.to_string().contains("stem 0"), "{err}");
    assert_eq!(server.report().frames, 0);
}

/// A knowledge gate missing the rule for the served context falls back
/// on every frame, and the traced server counts each fallback once: the
/// metric equals the report's total.
#[test]
fn traced_gate_fallbacks_are_counted_once() {
    use ecofusion_core::InferenceOptions;
    use ecofusion_scene::Context;
    use ecofusion_trace::TraceSink;
    use serde::{Deserialize, Serialize, Value};

    let mut served = model(41);
    let gate = &mut served.gates_mut().knowledge;
    let Value::Map(mut fields) = gate.to_value() else { panic!("a gate serializes to a map") };
    let Some((_, Value::Map(rules))) = fields.iter_mut().find(|(k, _)| k == "rules") else {
        panic!("the gate has a rule map")
    };
    let city = Context::City.to_value();
    let before = rules.len();
    rules.retain(|(context, _)| Value::Str(context.clone()) != city);
    assert_eq!(rules.len(), before - 1, "the gate had a City rule");
    *gate = Deserialize::from_value(&Value::Map(fields)).expect("the gate loads back");
    assert!(!gate.has_rule(Context::City));

    let mut spec = StreamSpec::new(900, GRID)
        .with_context(Context::City)
        .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
    spec.drift_stay_prob = 1.0;
    let mut server = PerceptionServer::new(served, &[spec], RuntimeConfig::default());
    server.set_tracer(TraceSink::with_capacity(64));
    run_simulation(&mut server, &mut [VehicleStream::new(spec)], 12).unwrap();
    let report = server.report();
    assert!(report.total_gate_fallbacks > 0, "every City frame falls back");
    let metric = server.tracer().unwrap().metrics().get("ecofusion_gate_fallbacks_total").copied();
    assert_eq!(metric, Some(report.total_gate_fallbacks as f64));
}
