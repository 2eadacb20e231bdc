//! The shard-determinism invariant, asserted end to end: per-stream
//! outputs, reports, and fleet aggregates are bit-identical for any shard
//! count, with work stealing on or off, and with the fleet budget
//! coordinator enabled — sharding may change throughput, never results.
//! Nor may stealing change what the flight recorder writes.

use ecofusion_core::{EcoFusionModel, InferenceOptions};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{
    run_simulation, BackpressurePolicy, EnergyBudget, FleetBudgetPolicy, PerceptionServer,
    RuntimeConfig, RuntimeReport, StreamSpec, VehicleStream,
};
use ecofusion_scene::Context;
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::TraceSink;

const GRID: usize = 32;

fn model(seed: u64) -> EcoFusionModel {
    EcoFusionModel::new(GRID, 8, &mut Rng::new(seed))
}

/// A deliberately heterogeneous fleet: mixed gates, energy weights,
/// budgets, emission timings, and one overloaded drop-oldest queue, so
/// the step mixes multiple option groups, backpressure, and ladder moves.
fn diverse_specs(n: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let mut spec = StreamSpec::new(300 + i as u64, GRID)
                .with_opts(InferenceOptions::new(0.01 * (1 + i % 3) as f64, 0.5))
                .with_timing(1 + (i % 3) as u64, (i % 2) as u64);
            if i % 2 == 1 {
                spec = spec.with_opts(spec.base_opts.with_gate(GateKind::Knowledge));
            }
            if i % 3 == 0 {
                spec = spec.with_budget(EnergyBudget::per_frame(6.0));
            }
            if i == 0 {
                spec = spec.with_queue(2, BackpressurePolicy::DropOldest);
            }
            spec
        })
        .collect()
}

fn run_fleet(
    seed: u64,
    specs: &[StreamSpec],
    cfg: RuntimeConfig,
    ticks: u64,
) -> (RuntimeReport, Vec<String>) {
    let (report, outputs, _) = serve(seed, specs, cfg, ticks, None);
    (report, outputs)
}

/// [`run_fleet`] with `sink` installed as the server's tracer, handed
/// back after the run.
fn serve(
    seed: u64,
    specs: &[StreamSpec],
    cfg: RuntimeConfig,
    ticks: u64,
    sink: Option<TraceSink>,
) -> (RuntimeReport, Vec<String>, Option<TraceSink>) {
    let mut server = PerceptionServer::new(model(seed), specs, cfg);
    if let Some(sink) = sink {
        server.set_tracer(sink);
    }
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, ticks).unwrap();
    let outputs = (0..specs.len())
        .map(|i| {
            let t = server.telemetry(i);
            format!("{:?}|{:?}", t.selected_configs(), t.detections())
        })
        .collect();
    (server.report(), outputs, server.take_tracer())
}

/// Everything the invariant covers, as one comparable string: per-stream
/// reports (serialized, bitwise via JSON of exact floats) plus the
/// shard-invariant fleet aggregates with float bits spelled out.
/// Deliberately excludes `batches`/`avg_batch_size` (units are
/// per-shard, so batch composition legitimately varies) and the
/// host-dependent `shards[].busy_ms`.
fn fingerprint(report: &RuntimeReport) -> String {
    let per_stream = serde_json::to_string(&report.per_stream).unwrap();
    format!(
        "{per_stream}|frames={} platform={:016x} gated={:016x} stems={}+{} lat={:016x}/{:016x}/{:016x}/{:016x}/{:016x} granted={:016x}",
        report.frames,
        report.total_platform_j.to_bits(),
        report.total_gated_j.to_bits(),
        report.total_stems_executed,
        report.total_stems_saved,
        report.latency_mean_ms.to_bits(),
        report.latency_p50_ms.to_bits(),
        report.latency_p95_ms.to_bits(),
        report.latency_p99_ms.to_bits(),
        report.latency_max_ms.to_bits(),
        report.total_granted_j.to_bits(),
    )
}

#[test]
fn reports_bit_identical_across_shard_counts() {
    let specs = diverse_specs(6);
    let cfg = |shards| RuntimeConfig::default().with_shards(shards);
    let (base_report, base_outputs) = run_fleet(42, &specs, cfg(1), 20);
    assert_eq!(base_report.shards.len(), 1);
    for shards in [2usize, 4] {
        let (report, outputs) = run_fleet(42, &specs, cfg(shards), 20);
        assert_eq!(report.shards.len(), shards, "shard roster");
        assert_eq!(outputs, base_outputs, "{shards}-shard outputs diverged");
        assert_eq!(
            fingerprint(&report),
            fingerprint(&base_report),
            "{shards}-shard report diverged"
        );
        // Work accounting stays complete: every frame ran on some shard.
        let executed: u64 = report.shards.iter().map(|s| s.frames).sum();
        assert_eq!(executed, report.frames);
        let homed: usize = report.shards.iter().map(|s| s.streams).sum();
        assert_eq!(homed, specs.len());
    }
}

#[test]
fn work_stealing_is_invisible_in_outputs() {
    let specs = diverse_specs(6);
    let cfg = |stealing| RuntimeConfig::default().with_shards(4).with_work_stealing(stealing);
    let (with_steal, outputs_steal) = run_fleet(43, &specs, cfg(true), 20);
    let (without, outputs_plain) = run_fleet(43, &specs, cfg(false), 20);
    assert_eq!(outputs_steal, outputs_plain);
    assert_eq!(fingerprint(&with_steal), fingerprint(&without));
    let steals: u64 = without.shards.iter().map(|s| s.steals).sum();
    assert_eq!(steals, 0, "stealing off must never steal");
}

/// One saturated shard, one starved: shard 0 owns four every-tick streams
/// with distinct options (four units per step), shard 1 owns two streams
/// that emit every sixth tick — so its worker drains almost immediately
/// and must steal to stay busy. Outputs still match the 1-shard run
/// exactly, and the steal counters prove the path actually ran. Both
/// 2-shard runs are traced, and their recordings are equal event for
/// event and series for series: which worker ran a unit is not recorded.
#[test]
fn stealing_under_imbalance_preserves_outputs() {
    let specs: Vec<StreamSpec> = (0..6)
        .map(|i| {
            let spec = StreamSpec::new(800 + i as u64, GRID)
                .with_opts(InferenceOptions::new(0.01 * (1 + i) as f64, 0.5));
            if i % 2 == 0 {
                spec // home shard 0: emits every tick
            } else {
                spec.with_timing(6, 3) // home shard 1: mostly idle
            }
        })
        .collect();
    let ticks = 32;
    let traced = || {
        let sink = Some(TraceSink::with_capacity(1 << 16));
        let (report, outputs, sink) =
            serve(44, &specs, RuntimeConfig::default().with_shards(2), ticks, sink);
        (report, outputs, sink.expect("the tracer comes back"))
    };
    let (sharded, sharded_outputs, sink) = traced();
    let (_, rerun_outputs, rerun_sink) = traced();
    let (serial, serial_outputs) =
        run_fleet(44, &specs, RuntimeConfig::default().with_shards(1), ticks);
    assert_eq!(sharded_outputs, serial_outputs, "stolen work changed outputs");
    assert_eq!(fingerprint(&sharded), fingerprint(&serial));
    let steals: u64 = sharded.shards.iter().map(|s| s.steals).sum();
    assert!(steals > 0, "starved shard never stole: {:?}", sharded.shards);
    let stolen: u64 = sharded.shards.iter().map(|s| s.stolen_frames).sum();
    assert!(stolen > 0);

    assert_eq!(rerun_outputs, sharded_outputs);
    assert_eq!(sink.dropped(), 0, "the ring holds the whole run");
    assert!(!sink.is_empty());
    assert_eq!(sink.snapshot(), rerun_sink.snapshot(), "the trace follows the steal schedule");
    assert_eq!(sink.metrics(), rerun_sink.metrics(), "the metrics follow the steal schedule");
}

/// The fleet budget coordinator composes with sharding: grants are
/// computed from shard-invariant rolling means at the step barrier, so
/// coordinated runs are bit-identical across shard counts — and the
/// grants actually change behavior (a receiver stream stays on its base
/// policy on donated headroom where an uncoordinated twin escalates).
#[test]
fn fleet_budget_coordinator_is_shard_invariant_and_grants_headroom() {
    // Fixed City context + knowledge gate: a stable ≈5.5 J/frame draw.
    // The donor (12 J target, short window) has standing headroom; the
    // receiver (4.5 J target, window 8) runs hot. Grants flow once the
    // donor's window fills at tick 2 — before the receiver's first
    // full-window check at tick 8 — so the granted receiver never
    // escalates while the uncoordinated one must.
    let base = StreamSpec::new(77, GRID)
        .with_context(Context::City)
        .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
    let base = StreamSpec { dwell_frames: 64, drift_stay_prob: 1.0, ..base };
    let specs = [
        base.with_budget(EnergyBudget { target_j: 12.0, window: 2, relax_margin: 0.5 }),
        StreamSpec { seed: 78, ..base }.with_budget(EnergyBudget {
            target_j: 4.5,
            window: 8,
            relax_margin: 0.5,
        }),
    ];
    let policy = FleetBudgetPolicy::default();
    let ticks = 24;

    let coordinated = |shards| {
        run_fleet(
            45,
            &specs,
            RuntimeConfig::default().with_shards(shards).with_fleet_budget(policy),
            ticks,
        )
    };
    let (one_shard, one_outputs) = coordinated(1);
    let (two_shard, two_outputs) = coordinated(2);
    assert_eq!(one_outputs, two_outputs);
    assert_eq!(fingerprint(&one_shard), fingerprint(&two_shard));

    let (plain, _) = run_fleet(45, &specs, RuntimeConfig::default().with_shards(2), ticks);
    assert!(one_shard.total_granted_j > 0.0, "no headroom flowed");
    assert_eq!(one_shard.per_stream[0].granted_j, 0.0, "donor draws nothing");
    assert!(one_shard.per_stream[1].granted_j > 0.0, "receiver holds a grant");
    assert!(plain.per_stream[1].escalations > 0, "uncoordinated receiver must escalate");
    assert_eq!(
        one_shard.per_stream[1].escalations, 0,
        "granted receiver should ride donated headroom"
    );
    // Grants change policy pressure, not accounting: the uncoordinated
    // run's donor is untouched by the coordinator.
    assert_eq!(plain.per_stream[0].escalations, 0);
}
