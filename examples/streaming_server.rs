//! Multi-stream perception serving with cross-stream batching, sharded
//! multi-core execution, and per-stream energy budgets.
//!
//! Part 1 runs a live simulation: eight simulated vehicles — different
//! seeds, starting contexts, frame phases, and budgets — feed one
//! `PerceptionServer` running on two worker shards, which coalesces
//! ready frames across streams into per-shard micro-batches and walks
//! each over-budget stream down its policy ladder. Part 2 is a
//! throughput shootout on pre-generated frames: cross-stream batched
//! scheduling (1 shard and 2 shards) vs. per-stream sequential `infer`
//! — all three produce bit-identical results, so any speedup is free.
//!
//! ```text
//! cargo run --release --example streaming_server            # full demo
//! cargo run --release --example streaming_server -- --smoke # CI smoke
//! ```

use ecofusion::faults::{FaultKind, FaultSchedule};
use ecofusion::prelude::*;
use ecofusion::tensor::rng::Rng;
use std::time::Instant;

const GRID: usize = 32;
const NUM_STREAMS: u64 = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    live_simulation(if smoke { 16 } else { 60 })?;
    throughput_shootout(if smoke { 4 } else { 16 })?;
    Ok(())
}

/// Live serving: staggered streams, drifting contexts, tight budgets on
/// the odd streams.
fn live_simulation(ticks: u64) -> Result<(), Box<dyn std::error::Error>> {
    let contexts = Context::ALL;
    let specs: Vec<StreamSpec> = (0..NUM_STREAMS)
        .map(|i| {
            let budget = if i % 2 == 1 {
                EnergyBudget { target_j: 4.0, window: 8, relax_margin: 0.5 }
            } else {
                EnergyBudget::unlimited()
            };
            StreamSpec::new(1000 + i, GRID)
                .with_context(contexts[i as usize % contexts.len()])
                .with_budget(budget)
                .with_timing(1, i % 3)
                .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge))
        })
        .collect();

    let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(77));
    // Two worker shards: streams are dealt round-robin across them, and
    // the per-stream results are bit-identical to a 1-shard server (the
    // runtime's determinism invariant).
    let cfg =
        RuntimeConfig { max_batch: 8, num_classes: 8, ..RuntimeConfig::default() }.with_shards(2);
    let mut server = PerceptionServer::new(model, &specs, cfg);
    // Stream 0 suffers a frozen-frame fault on every sensor: its grids
    // stop changing, which its health monitor sees as degraded sensors.
    let freeze_onset = 4u64;
    let mut freeze = FaultSchedule::empty();
    for sensor in SensorKind::ALL {
        freeze = freeze.with_event(sensor, FaultKind::FrozenFrame, freeze_onset, u64::MAX, 1.0);
    }
    let mut streams: Vec<VehicleStream> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let stream = VehicleStream::new(*s);
            if i == 0 {
                stream.with_faults(freeze.clone())
            } else {
                stream
            }
        })
        .collect();
    run_simulation(&mut server, &mut streams, ticks)?;
    let report = server.report();

    println!(
        "live: {} frames from {} streams in {} micro-batches (avg batch {:.1})",
        report.frames,
        report.per_stream.len(),
        report.batches,
        report.avg_batch_size
    );
    for shard in &report.shards {
        println!(
            "  shard {}: {} streams, {} frames in {} batches, {} steals, busy {:.1} ms",
            shard.shard, shard.streams, shard.frames, shard.batches, shard.steals, shard.busy_ms
        );
    }
    println!(
        "fleet latency: mean {:.1} ms, p50 {:.1}, p95 {:.1}, p99 {:.1}, max {:.1}",
        report.latency_mean_ms,
        report.latency_p50_ms,
        report.latency_p95_ms,
        report.latency_p99_ms,
        report.latency_max_ms
    );
    println!(
        "total energy: {:.1} J platform, {:.1} J with gated sensors\n",
        report.total_platform_j, report.total_gated_j
    );
    println!(
        "{:<6} {:>6} {:>7} {:>9} {:>9} {:>7} {:>6} {:>6} {:>10} {:>9}  gate",
        "stream",
        "frames",
        "mAP%",
        "J/frame",
        "budget",
        "escal.",
        "level",
        "drop",
        "stems r/s",
        "degraded"
    );
    for s in &report.per_stream {
        let budget = specs[s.stream].budget.target_j;
        println!(
            "{:<6} {:>6} {:>7.1} {:>9.2} {:>9} {:>7} {:>6} {:>6} {:>10} {:>9}  {:?} λ={:.2}",
            s.stream,
            s.summary.frames,
            s.summary.map_pct,
            s.summary.avg_total_gated_j,
            if budget.is_finite() { format!("{budget:.1}") } else { "∞".to_string() },
            s.escalations,
            s.final_level,
            s.dropped,
            format!("{}/{}", s.stems_executed, s.stems_skipped),
            s.degraded_frames,
            s.final_gate,
            s.final_lambda_e,
        );
    }
    println!(
        "stems: {} executed, {} pruned across all streams",
        report.total_stems_executed, report.total_stems_saved
    );
    // The staged-pipeline guarantees, asserted so the smoke run fails
    // loudly if they regress: knowledge-gated streams prune stems, and
    // the frozen stream's health monitor flags every frame from the
    // freeze on.
    assert!(
        report.total_stems_saved > 0,
        "knowledge-gated streams must skip stems via the demand-driven plan"
    );
    let frozen = &report.per_stream[0];
    let frozen_frames = frozen.summary.frames as u64 - freeze_onset;
    assert!(
        frozen.degraded_frames >= frozen_frames,
        "the frozen-frame stream's monitor saw {} degraded frames, not all {frozen_frames} frozen ones",
        frozen.degraded_frames
    );
    println!();
    Ok(())
}

/// Pure scheduling/inference throughput on pre-generated frames: the
/// quantity the `pipeline` bench tracks.
fn throughput_shootout(frames_per_stream: usize) -> Result<(), Box<dyn std::error::Error>> {
    let specs: Vec<StreamSpec> = (0..NUM_STREAMS)
        .map(|i| {
            StreamSpec::new(2000 + i, GRID)
                .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Attention))
        })
        .collect();
    let frames: Vec<Vec<Frame>> =
        specs.iter().map(|spec| VehicleStream::new(*spec).generate(frames_per_stream)).collect();

    // Cross-stream batched: one ingest round per frame index, then a
    // processing step — exactly what the live scheduler does per tick.
    let run_server = |shards: usize| -> Result<_, Box<dyn std::error::Error>> {
        let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(5));
        let cfg = RuntimeConfig { max_batch: 8, num_classes: 8, ..RuntimeConfig::default() }
            .with_shards(shards);
        let mut server = PerceptionServer::new(model, &specs, cfg);
        let t = Instant::now();
        for round in 0..frames_per_stream {
            for (i, stream_frames) in frames.iter().enumerate() {
                server.ingest(i, stream_frames[round].clone());
            }
            server.process_step()?;
            server.advance_tick();
        }
        server.drain()?;
        Ok((server, t.elapsed().as_secs_f64()))
    };
    let (server, batched_s) = run_server(1)?;
    let (sharded, sharded_s) = run_server(2)?;
    // The determinism invariant, checked live: the 2-shard server made
    // exactly the decisions of the 1-shard one, stream by stream.
    for i in 0..specs.len() {
        assert_eq!(
            server.telemetry(i).selected_configs(),
            sharded.telemetry(i).selected_configs(),
            "stream {i}: shard count changed a selection"
        );
        assert_eq!(
            server.telemetry(i).detections(),
            sharded.telemetry(i).detections(),
            "stream {i}: shard count changed detections"
        );
    }

    // Per-stream sequential on an identically-seeded model.
    let mut twin = EcoFusionModel::new(GRID, 8, &mut Rng::new(5));
    let t = Instant::now();
    for (spec, stream_frames) in specs.iter().zip(&frames) {
        for frame in stream_frames {
            let _ = twin.infer(frame, &spec.base_opts)?;
        }
    }
    let sequential_s = t.elapsed().as_secs_f64();

    let n = NUM_STREAMS as usize * frames_per_stream;
    println!(
        "shootout over {n} frames ({NUM_STREAMS} streams x {frames_per_stream}): \
         batched {:.1} ms ({:.0} fps) vs sequential {:.1} ms ({:.0} fps) -> {:.2}x",
        batched_s * 1e3,
        n as f64 / batched_s,
        sequential_s * 1e3,
        n as f64 / sequential_s,
        sequential_s / batched_s
    );
    println!(
        "2-shard run: {:.1} ms ({:.0} fps), outputs bit-identical to 1 shard \
         (speedup needs a multi-core host)",
        sharded_s * 1e3,
        n as f64 / sharded_s,
    );
    Ok(())
}
