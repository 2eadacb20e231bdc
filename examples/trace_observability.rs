//! Deterministic observability: the flight recorder on a live server.
//!
//! Runs a four-stream server — tight budgets on the odd streams so the
//! budget ladder moves, a mid-run sensor dropout on stream 0 so health
//! monitoring and fault events fire — with a `TraceSink` installed, then
//! exports the recording twice: a Chrome `trace_event` JSON you can load
//! in Perfetto (one track per stream, per shard, plus the scheduler) and
//! a Prometheus-style text snapshot. The step count and the largest
//! micro-batch it prints are read back from the recording itself: the
//! scheduler track's `step` markers and the shard tracks' `unit` spans.
//!
//! Everything is on virtual, tick-derived time. Stream-track events
//! replay the global pick order, so that part of the trace is
//! bit-identical across reruns and shard counts. A unit's span sits on
//! its home shard's track whichever worker thread ran it (who stole what
//! is counted in the report's per-shard rows, not recorded), so the
//! whole recording is bit-identical across reruns: `--smoke` records the
//! run twice and asserts that both exports match byte for byte.
//!
//! ```text
//! cargo run --release --example trace_observability            # demo scale
//! cargo run --release --example trace_observability -- --smoke # CI smoke
//! ```

use ecofusion::faults::{FaultKind, FaultSchedule};
use ecofusion::prelude::*;
use ecofusion::tensor::rng::Rng;
use ecofusion::trace::{EventKind, TraceSink, Track};

const GRID: usize = 32;
const NUM_STREAMS: u64 = 4;

/// Serves the four streams for `ticks` ticks with a recorder armed, and
/// returns the report and the recording.
fn record(ticks: u64) -> Result<(RuntimeReport, TraceSink), Box<dyn std::error::Error>> {
    let specs: Vec<StreamSpec> = (0..NUM_STREAMS)
        .map(|i| {
            let budget = if i % 2 == 1 {
                EnergyBudget { target_j: 4.0, window: 8, relax_margin: 0.5 }
            } else {
                EnergyBudget::unlimited()
            };
            StreamSpec::new(4000 + i, GRID)
                .with_context(Context::ALL[i as usize % Context::ALL.len()])
                .with_budget(budget)
                .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge))
                .with_health_gating(true)
        })
        .collect();
    let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(77));
    let cfg =
        RuntimeConfig { max_batch: 8, num_classes: 8, ..RuntimeConfig::default() }.with_shards(2);
    let mut server = PerceptionServer::new(model, &specs, cfg);

    // Arm the recorder: a bounded ring — when it overflows, the oldest
    // events go first and `dropped()` counts them.
    server.set_tracer(TraceSink::with_capacity(1 << 16));

    // Stream 0 loses its lidar for a stretch mid-run.
    let dropout = FaultSchedule::empty().with_event(
        SensorKind::Lidar,
        FaultKind::Dropout,
        ticks / 4,
        ticks / 2,
        1.0,
    );
    let mut streams: Vec<VehicleStream> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let stream = VehicleStream::new(*s);
            if i == 0 {
                stream.with_faults(dropout.clone())
            } else {
                stream
            }
        })
        .collect();

    run_simulation(&mut server, &mut streams, ticks)?;
    Ok((server.report(), server.take_tracer().expect("the tracer we installed")))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ticks = if smoke { 16 } else { 80 };
    let (report, sink) = record(ticks)?;

    // One `step` marker per step that processed frames, and one `unit`
    // span per micro-batch, carrying its frame count.
    let steps = sink.events().filter(|e| e.track == Track::Scheduler && e.name == "step").count();
    let max_batch = sink
        .events()
        .filter(|e| matches!(e.track, Track::Shard(_)) && e.name == "unit")
        .filter(|e| e.kind == EventKind::Begin)
        .filter_map(|e| e.arg_f64("frames"))
        .map(|frames| frames as usize)
        .max()
        .unwrap_or(0);

    println!(
        "served {} frames over {steps} observed steps (max micro-batch {max_batch}); \
         recorded {} events ({} dropped, ring seq up to {})",
        report.frames,
        sink.len(),
        sink.dropped(),
        sink.total_emitted(),
    );
    let count = |kind: EventKind| sink.events().filter(|e| e.kind == kind).count();
    println!(
        "event mix: {} span begin/end pairs, {} instants, {} counters",
        count(EventKind::Begin),
        count(EventKind::Instant),
        count(EventKind::Counter),
    );
    for name in ["ladder", "health", "fault"] {
        let n = sink.events().filter(|e| e.name == name).count();
        println!("  {name:<7} events: {n}");
    }
    let stream_spans = sink
        .events()
        .filter(|e| matches!(e.track, Track::Stream(_)) && e.kind == EventKind::Begin)
        .count();
    println!("  stream-track spans: {stream_spans} (frame + 7 stages per frame)");

    // The ladder must have moved on the tight-budget streams, and the
    // dropout must have surfaced; fail loudly in CI if not.
    assert!(
        sink.events().any(|e| e.name == "ladder"),
        "tight budgets should force at least one ladder move"
    );
    assert!(
        sink.events().any(|e| e.name == "fault"),
        "the scripted dropout should record fault events"
    );

    let (chrome, prom) = (chrome_trace_json(&sink), prometheus_snapshot(&sink));
    if smoke {
        // Two shards, stealing on: the rerun's exports are the same bytes.
        let (_, rerun) = record(ticks)?;
        assert!(chrome == chrome_trace_json(&rerun), "the Chrome export differs on a rerun");
        assert!(prom == prometheus_snapshot(&rerun), "the Prometheus export differs on a rerun");
        println!("rerun: byte-identical Chrome and Prometheus exports");
    }

    std::fs::create_dir_all("results")?;
    std::fs::write("results/observability.trace.json", chrome)?;
    std::fs::write("results/observability.prom", prom)?;
    println!(
        "wrote results/observability.trace.json (load in Perfetto / chrome://tracing) \
         and results/observability.prom"
    );
    Ok(())
}
