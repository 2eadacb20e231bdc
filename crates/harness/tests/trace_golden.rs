//! Golden-trace determinism: a seeded suite run emits a bit-identical
//! event sequence across reruns and across shard counts, and arming the
//! tracer never perturbs the suite report.
//!
//! Stream-track events replay the global pick order (the runtime sorts
//! accounting rows by pick index), so they are shard-invariant by
//! construction; `steady_city` additionally clamps to one shard (one
//! stream), making the *whole* event vector — shard and scheduler tracks
//! included — identical between `--shards 1` and `--shards 4`.

use ecofusion_energy::StageKind;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_harness::{run_suite, run_suite_traced, ModelProvider, SuiteId};
use ecofusion_trace::{EventKind, TraceSink, Track};

const CAPACITY: usize = 1 << 16;

fn traced_steady_city(
    provider: &ModelProvider,
    shards: usize,
) -> (ecofusion_harness::SuiteReport, TraceSink) {
    let (report, sink) = run_suite_traced(
        provider,
        SuiteId::SteadyCity,
        Scale::Quick,
        shards,
        ecofusion_core::Precision::F32,
        Some(CAPACITY),
    )
    .expect("traced steady_city run");
    (report, sink.expect("traced run returns its sink"))
}

#[test]
fn steady_city_trace_is_bit_identical_across_reruns_and_shard_counts() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (report1, sink1) = traced_steady_city(&provider, 1);
    let (report1b, sink1b) = traced_steady_city(&provider, 1);
    let (report4, sink4) = traced_steady_city(&provider, 4);

    assert_eq!(sink1.dropped(), 0, "capacity must cover a quick run");
    assert!(!sink1.is_empty(), "traced run must record events");

    // Rerun: the full event sequence (seq, track, t_ns, name, kind, args)
    // is bit-identical.
    assert_eq!(sink1.snapshot(), sink1b.snapshot(), "rerun trace differs");
    assert_eq!(sink1.metrics(), sink1b.metrics(), "rerun metrics differ");

    // Shard counts 1 vs 4: same event sequence and same report digest.
    assert_eq!(sink1.snapshot(), sink4.snapshot(), "shard-count trace differs");
    assert_eq!(sink1.metrics(), sink4.metrics(), "shard-count metrics differ");
    assert_eq!(report1.determinism_digest, report1b.determinism_digest);
    assert_eq!(report1.determinism_digest, report4.determinism_digest);
}

#[test]
fn steady_city_trace_covers_every_stage_of_every_frame() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (report, sink) = traced_steady_city(&provider, 1);
    assert!(report.frames > 0);
    let begins = |name: &str| {
        sink.events()
            .filter(|e| {
                e.kind == EventKind::Begin && e.name == name && matches!(e.track, Track::Stream(_))
            })
            .count() as u64
    };
    assert_eq!(begins("frame"), report.frames, "one frame span per frame");
    for stage in StageKind::ALL {
        assert_eq!(begins(stage.label()), report.frames, "one `{}` span per frame", stage.label());
    }
    // Scheduler track records one step marker per processed tick.
    let steps =
        sink.events().filter(|e| e.track == Track::Scheduler && e.name == "step").count() as u64;
    assert!(steps > 0, "scheduler track must carry step markers");
}

#[test]
fn arming_the_tracer_changes_no_gated_report_field() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let untraced = run_suite(&provider, SuiteId::SteadyCity, Scale::Quick, 1)
        .expect("untraced steady_city run");
    let (traced, _) = traced_steady_city(&provider, 1);
    assert_eq!(untraced, traced);
}
