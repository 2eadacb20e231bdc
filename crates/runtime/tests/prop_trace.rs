//! Property tests of the per-frame spans the server's flight recorder
//! emits onto a stream track.
//!
//! Two properties across seeds × contexts × gates × health masks ×
//! start ticks, each one frame served by a traced one-stream server:
//!
//! 1. **Nesting** — every `Begin` on the stream track is closed by the
//!    `End` with the same name in LIFO order, timestamps never run
//!    backwards, and the seven stage spans sit exactly one level inside
//!    the `frame` span.
//! 2. **Exact accounting** — the `energy_j`/`latency_ms` args of each
//!    stage span are that stage's [`StageTrace`] cost bit for bit (the
//!    recorder copies the per-stage `f64`s unrounded), the trace's totals
//!    are the frame's Eq. 11 breakdown bit for bit, the frame starts at
//!    its tick, and the virtual-time cursor advances by exactly the
//!    modeled latency of each stage.
//!
//! Plus the zero-overhead contract: a server given a disabled sink
//! records nothing.

use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions, InferenceOutput};
use ecofusion_energy::{StageKind, StageTrace};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{PerceptionServer, RuntimeConfig, StreamSpec};
use ecofusion_scene::{Context, ScenarioGenerator};
use ecofusion_sensors::{SensorMask, SensorSuite};
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::{ns_from_ms, EventKind, TraceSink, Track, TICK_NS};
use proptest::prelude::*;

const GRID: usize = 32;

fn render_frame(seed: u64, context: Context) -> Frame {
    let mut generator = ScenarioGenerator::new(seed);
    let scene = generator.scene(context);
    let suite = SensorSuite::new(GRID);
    let obs = suite.observe(&scene, &mut Rng::new(seed ^ 0xF00D));
    Frame { scene, obs }
}

fn model(seed: u64) -> EcoFusionModel {
    EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x7ACE))
}

/// Serves `frame` under `opts` at tick `tick` on a one-stream server
/// whose tracer is `sink`, and returns the sink.
fn serve_traced(
    seed: u64,
    frame: Frame,
    opts: InferenceOptions,
    tick: u64,
    sink: TraceSink,
) -> TraceSink {
    let spec = StreamSpec::new(seed, GRID).with_opts(opts);
    let mut server = PerceptionServer::new(model(seed), &[spec], RuntimeConfig::default());
    server.set_tracer(sink);
    for _ in 0..tick {
        server.advance_tick();
    }
    server.ingest(0, frame);
    assert_eq!(server.process_step().expect("matching grid"), 1);
    server.take_tracer().expect("the sink we installed")
}

fn arb_context() -> impl Strategy<Value = Context> {
    (0usize..Context::ALL.len()).prop_map(|i| Context::ALL[i])
}

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0usize..GateKind::ALL.len()).prop_map(|i| GateKind::ALL[i])
}

proptest! {
    // Each case builds and runs two fresh models; sixteen cases still
    // sweep every gate and a spread of masks/contexts/start ticks.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frame_spans_nest_and_stage_args_sum_exactly(
        seed in 0u64..1000,
        context in arb_context(),
        gate in arb_gate(),
        mask_bits in 0u8..16,
        start_ms in 0u64..500,
    ) {
        let frame = render_frame(seed, context);
        let opts = InferenceOptions::new(0.01, 0.5)
            .with_gate(gate)
            .with_health(SensorMask::from_bits(mask_bits));
        let out: InferenceOutput = model(seed).infer(&frame, &opts).expect("matching grid");
        let sink = serve_traced(seed, frame, opts, start_ms, TraceSink::with_capacity(256));
        let start_ns = start_ms * TICK_NS;
        let spans: Vec<_> = sink
            .events()
            .filter(|e| e.track == Track::Stream(0))
            .filter(|e| matches!(e.kind, EventKind::Begin | EventKind::End))
            .collect();

        // Property 1: LIFO nesting with matching names, monotone time,
        // stages exactly one level inside the frame span.
        let mut stack: Vec<(&str, u64)> = Vec::new();
        let mut last_t = start_ns;
        for e in &spans {
            prop_assert!(e.t_ns >= last_t, "time ran backwards at {}", e.name);
            last_t = e.t_ns;
            if e.kind == EventKind::Begin {
                if e.name != "frame" {
                    prop_assert_eq!(stack.len(), 1, "stage `{}` outside frame span", e.name);
                }
                stack.push((e.name, e.t_ns));
            } else {
                let (name, t_begin) = stack.pop().expect("End without matching Begin");
                prop_assert_eq!(name, e.name, "crossed spans");
                prop_assert!(e.t_ns >= t_begin);
            }
        }
        prop_assert!(stack.is_empty(), "unclosed spans: {:?}", stack);
        prop_assert_eq!(spans[0].name, "frame");
        prop_assert_eq!(spans[0].t_ns, start_ns, "the frame starts at its tick");

        // Property 2: each stage span carries its stage's cost bit for
        // bit, the cursor advances by the modeled latencies, and the
        // trace's totals are the frame's Eq. 11 breakdown.
        let trace: &StageTrace = &out.stage_trace;
        let mut cursor = start_ns;
        let mut seen = 0usize;
        for e in spans.iter().filter(|e| e.kind == EventKind::Begin && e.name != "frame") {
            let stage = StageKind::ALL[seen];
            prop_assert_eq!(e.name, stage.label(), "stage order");
            prop_assert_eq!(e.t_ns, cursor, "stage `{}` start", e.name);
            let energy = e.arg_f64("energy_j").expect("stage span carries energy_j");
            let ms = e.arg_f64("latency_ms").expect("stage span carries latency_ms");
            prop_assert_eq!(energy.to_bits(), trace.cost(stage).energy.joules().to_bits());
            prop_assert_eq!(ms.to_bits(), trace.cost(stage).latency.millis().to_bits());
            cursor += ns_from_ms(ms);
            seen += 1;
        }
        prop_assert_eq!(seen, StageKind::ALL.len(), "one span per pipeline stage");
        prop_assert_eq!(
            trace.total_energy().joules().to_bits(),
            out.energy.total_gated().joules().to_bits(),
            "exact energy sum"
        );
        prop_assert_eq!(
            trace.total_latency().millis().to_bits(),
            out.energy.latency.millis().to_bits(),
            "exact latency sum"
        );
        let frame_end = spans.last().expect("the frame span closes");
        prop_assert_eq!(frame_end.name, "frame");
        prop_assert_eq!(frame_end.t_ns, cursor, "the frame ends where its last stage does");
    }
}

#[test]
fn a_disabled_sink_records_nothing() {
    let frame = render_frame(7, Context::City);
    let sink = serve_traced(7, frame, InferenceOptions::new(0.01, 0.5), 3, TraceSink::disabled());
    assert_eq!(sink.total_emitted(), 0);
    assert!(sink.metrics().is_empty());
}
