//! Property tests of the per-frame trace instrumentation
//! ([`ecofusion_core::trace_frame`]).
//!
//! Two properties across seeds × contexts × gates × health masks:
//!
//! 1. **Nesting** — every `Begin` on the stream track is closed by the
//!    `End` with the same name in LIFO order, timestamps never run
//!    backwards, and the seven stage spans sit exactly one level inside
//!    the `frame` span.
//! 2. **Exact accounting** — the `energy_j`/`latency_ms` args of each
//!    stage span are that stage's [`StageTrace`] cost bit for bit
//!    (`trace_frame` copies the per-stage `f64`s unrounded), the trace's
//!    totals are the frame's Eq. 11 breakdown bit for bit, and the
//!    virtual-time cursor advances by exactly the modeled latency of each
//!    stage.
//!
//! Plus the zero-overhead contract: a disabled sink records nothing and
//! leaves the time cursor untouched.

use ecofusion_core::{trace_frame, EcoFusionModel, Frame, InferenceOptions};
use ecofusion_energy::{StageKind, StageTrace};
use ecofusion_gating::GateKind;
use ecofusion_scene::{Context, ScenarioGenerator};
use ecofusion_sensors::{SensorMask, SensorSuite};
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::{ns_from_ms, EventKind, TraceSink, Track};
use proptest::prelude::*;

const GRID: usize = 32;

fn render_frame(seed: u64, context: Context) -> Frame {
    let mut generator = ScenarioGenerator::new(seed);
    let scene = generator.scene(context);
    let suite = SensorSuite::new(GRID);
    let obs = suite.observe(&scene, &mut Rng::new(seed ^ 0xF00D));
    Frame { scene, obs }
}

fn arb_context() -> impl Strategy<Value = Context> {
    (0usize..Context::ALL.len()).prop_map(|i| Context::ALL[i])
}

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0usize..GateKind::ALL.len()).prop_map(|i| GateKind::ALL[i])
}

proptest! {
    // Each case builds and runs a fresh model; sixteen cases still sweep
    // every gate and a spread of masks/contexts/start offsets.
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
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x7ACE));
        let out = model.infer(&frame, &opts).expect("matching grid");

        let mut sink = TraceSink::with_capacity(256);
        let start_ns = start_ms * 1_000_000;
        let end_ns = trace_frame(&mut sink, 3, 5, start_ns, &out);

        // Property 1: LIFO nesting with matching names, monotone time,
        // stages exactly one level inside the frame span.
        let mut stack: Vec<(&str, u64)> = Vec::new();
        let mut last_t = start_ns;
        for e in sink.events() {
            prop_assert_eq!(e.track, Track::Stream(3));
            prop_assert!(e.t_ns >= last_t, "time ran backwards at {}", e.name);
            last_t = e.t_ns;
            match e.kind {
                EventKind::Begin => {
                    if e.name != "frame" {
                        prop_assert_eq!(stack.len(), 1, "stage `{}` outside frame span", e.name);
                    }
                    stack.push((e.name, e.t_ns));
                }
                EventKind::End => {
                    let (name, t_begin) = stack.pop().expect("End without matching Begin");
                    prop_assert_eq!(name, e.name, "crossed spans");
                    prop_assert!(e.t_ns >= t_begin);
                }
                _ => {}
            }
        }
        prop_assert!(stack.is_empty(), "unclosed spans: {:?}", stack);

        // Property 2: each stage span carries its stage's cost bit for
        // bit, the cursor advances by the modeled latencies, and the
        // trace's totals are the frame's Eq. 11 breakdown.
        let trace: &StageTrace = &out.stage_trace;
        let mut cursor = start_ns;
        let mut seen = 0usize;
        for e in sink.events().filter(|e| e.kind == EventKind::Begin && e.name != "frame") {
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
        prop_assert_eq!(end_ns, cursor, "returned cursor is the frame end");

        // Zero-overhead contract: disabled sink records nothing and the
        // cursor does not move.
        let mut off = TraceSink::disabled();
        prop_assert_eq!(trace_frame(&mut off, 3, 5, start_ns, &out), start_ns);
        prop_assert_eq!(off.total_emitted(), 0);
        prop_assert!(off.metrics().is_empty());
    }
}
