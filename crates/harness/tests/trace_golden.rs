//! Golden-trace determinism: a seeded suite run emits a bit-identical
//! event sequence across reruns and across shard counts, its export is
//! pinned byte for byte, its metrics reconcile with its report, and
//! arming the tracer never perturbs the suite report.
//!
//! Stream-track events replay the global pick order (the runtime sorts
//! accounting rows by pick index), so they are shard-invariant by
//! construction; `steady_city` additionally clamps to one shard (one
//! stream), making the *whole* event vector — shard and scheduler tracks
//! included — identical between `--shards 1` and `--shards 4`. On more
//! than one shard the shard tracks, the step markers' steal counts and
//! the [`SCHEDULE_DEPENDENT`] series follow the work-steal schedule.

use ecofusion_energy::StageKind;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_harness::digest::Fnv1a;
use ecofusion_harness::{reconcile_metrics, run_suite, ModelProvider, SuiteId, SuiteReport};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, Event, EventKind, TraceSink, Track};
use std::collections::BTreeSet;

/// The series whose values follow the work-steal schedule on more than
/// one shard: how many units were stolen, and each replica's plan-cache
/// traffic, which depends on which replica served which unit first.
const SCHEDULE_DEPENDENT: [&str; 4] = [
    "ecofusion_steals_total",
    "ecofusion_plan_cache_hits_total",
    "ecofusion_plan_cache_misses_total",
    "ecofusion_plan_cache_compiles_total",
];

fn traced(provider: &ModelProvider, id: SuiteId, shards: usize) -> (SuiteReport, TraceSink) {
    let (report, sink) =
        run_suite(provider, id, Scale::Quick, shards, ecofusion_core::Precision::F32, true)
            .expect("traced suite run");
    (report, sink.expect("traced run returns its sink"))
}

fn traced_steady_city(provider: &ModelProvider, shards: usize) -> (SuiteReport, TraceSink) {
    traced(provider, SuiteId::SteadyCity, shards)
}

/// FNV-1a-64 of `text`'s bytes, as hex.
fn fnv_hex(text: &str) -> String {
    let mut digest = Fnv1a::default();
    text.bytes().for_each(|b| digest.byte(b));
    format!("{:016x}", digest.finish())
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

/// Asserts one frame span and one span per pipeline stage on the stream
/// tracks for every frame of `report`.
fn assert_every_stage_of_every_frame(report: &SuiteReport, sink: &TraceSink) {
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
}

/// The same count on the exported Chrome JSON, re-parsed the way a
/// trace viewer reads it: a non-empty `traceEvents` array with one
/// `"ph":"B"` `frame` span and one per pipeline stage for every frame.
fn assert_exported_json_has_every_span(report: &SuiteReport, sink: &TraceSink) {
    fn field<'a>(map: &'a [(String, serde::Value)], key: &str) -> Option<&'a serde::Value> {
        map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let value: serde::Value =
        serde_json::from_str(&chrome_trace_json(sink)).expect("the Chrome trace parses");
    let top = value.as_map().expect("the top level is an object");
    let events = field(top, "traceEvents").and_then(|v| v.as_seq()).expect("a traceEvents array");
    assert!(!events.is_empty(), "traceEvents is empty");
    let begins = |name: &str| {
        events
            .iter()
            .filter_map(|e| e.as_map())
            .filter(|m| {
                let text = |k: &str| field(m, k).and_then(|v| v.as_str());
                text("ph") == Some("B") && text("name") == Some(name)
            })
            .count() as u64
    };
    assert_eq!(begins("frame"), report.frames, "one exported frame span per frame");
    for stage in StageKind::ALL {
        let label = stage.label();
        assert_eq!(begins(label), report.frames, "one exported `{label}` span per frame");
    }
}

#[test]
fn steady_city_trace_covers_every_stage_of_every_frame() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (report, sink) = traced_steady_city(&provider, 1);
    assert_every_stage_of_every_frame(&report, &sink);
    // Scheduler track records one step marker per processed tick.
    let steps =
        sink.events().filter(|e| e.track == Track::Scheduler && e.name == "step").count() as u64;
    assert!(steps > 0, "scheduler track must carry step markers");
}

#[test]
fn arming_the_tracer_changes_no_gated_report_field() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (untraced, sink) = run_suite(
        &provider,
        SuiteId::SteadyCity,
        Scale::Quick,
        1,
        ecofusion_core::Precision::F32,
        false,
    )
    .expect("untraced steady_city run");
    assert!(sink.is_none());
    let (traced, _) = traced_steady_city(&provider, 1);
    assert_eq!(untraced, traced);
}

/// The exported bytes of quick `steady_city` at one shard: its Chrome
/// JSON and Prometheus text, as recorded before the scheduler's emission
/// moved into the runtime's step recorder, less the cached-stem frame
/// argument and counter series that left with the stem-feature cache.
/// Rerun and shard-count equality
/// say nothing about the export across commits; this does. A deliberate
/// change to an event, an argument or a series records new digests.
#[test]
fn steady_city_export_matches_the_recorded_digests() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (_, sink) = traced_steady_city(&provider, 1);
    assert_eq!(fnv_hex(&chrome_trace_json(&sink)), "3ea363fb89bc3c85", "Chrome JSON");
    assert_eq!(fnv_hex(&prometheus_snapshot(&sink)), "3e6c29067cd23880", "Prometheus text");
}

/// Every counted series agrees with the report it was traced beside —
/// on a clean stream, on faulted, health-gated ones (skipped stems) and
/// on squeezed ones (escalations).
#[test]
fn traced_metrics_reconcile_with_the_report() {
    let provider = ModelProvider::prepare(Scale::Quick);
    for id in [SuiteId::SteadyCity, SuiteId::FaultStorm, SuiteId::BudgetSqueeze] {
        let (report, sink) = traced(&provider, id, 1);
        assert!(report.frames > 0);
        if let Err(e) = reconcile_metrics(&report, &sink) {
            panic!("{}: {e}", id.label());
        }
    }
}

/// A faulted suite on more than one shard (`fault_storm` has two
/// streams, so four shards clamp to two, and units may be stolen): its
/// stream tracks are the one-shard run's event for event (`seq` aside,
/// which counts the shard tracks' events too), every frame has its stage
/// spans — in the exported Chrome JSON too — the metrics reconcile with
/// the report at both counts, and the Prometheus series differ only among
/// [`SCHEDULE_DEPENDENT`].
#[test]
fn fault_storm_stream_tracks_and_metrics_hold_across_shard_counts() {
    let provider = ModelProvider::prepare(Scale::Quick);
    let (report1, sink1) = traced(&provider, SuiteId::FaultStorm, 1);
    let (report4, sink4) = traced(&provider, SuiteId::FaultStorm, 4);
    for (shards, report, sink) in [(1, &report1, &sink1), (4, &report4, &sink4)] {
        assert_eq!(sink.dropped(), 0, "capacity must cover a quick run");
        assert_every_stage_of_every_frame(report, sink);
        if let Err(e) = reconcile_metrics(report, sink) {
            panic!("fault_storm on {shards} shard(s): {e}");
        }
    }
    assert_eq!(report1.determinism_digest, report4.determinism_digest);
    assert_exported_json_has_every_span(&report4, &sink4);

    let streams = |sink: &TraceSink| -> Vec<Event> {
        let on_stream = |e: &&Event| matches!(e.track, Track::Stream(_));
        sink.events().filter(on_stream).map(|e| Event { seq: 0, ..e.clone() }).collect()
    };
    let (streams1, streams4) = (streams(&sink1), streams(&sink4));
    assert!(!streams1.is_empty(), "traced run must record stream events");
    assert!(streams1 == streams4, "stream-track events differ between 1 and 4 shards");

    let (metrics1, metrics4) = (sink1.metrics(), sink4.metrics());
    let series: BTreeSet<&String> = metrics1.keys().chain(metrics4.keys()).collect();
    for name in series {
        let (at1, at4) = (metrics1.get(name), metrics4.get(name));
        assert!(
            at1 == at4 || SCHEDULE_DEPENDENT.contains(&name.as_str()),
            "`{name}` differs between 1 and 4 shards ({at1:?} vs {at4:?}) but is not \
             schedule-dependent"
        );
    }
}
