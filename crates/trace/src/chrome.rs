//! Chrome `trace_event` JSON export (Perfetto / `chrome://tracing`).

use crate::event::{ArgValue, Event, EventKind, Track};
use crate::sink::TraceSink;
use serde::Value;
use std::collections::BTreeSet;

/// Process ids the tracks are grouped under in the viewer: every stream
/// is a thread of the "streams" process, every shard a thread of
/// "shards", and the scheduler its own process.
const PID_STREAMS: u64 = 1;
const PID_SHARDS: u64 = 2;
const PID_SCHEDULER: u64 = 3;

fn pid_tid(track: Track) -> (u64, u64) {
    match track {
        Track::Stream(i) => (PID_STREAMS, i as u64),
        Track::Shard(i) => (PID_SHARDS, i as u64),
        Track::Scheduler => (PID_SCHEDULER, 0),
    }
}

fn category(track: Track) -> &'static str {
    match track {
        Track::Stream(_) => "stream",
        Track::Shard(_) => "shard",
        Track::Scheduler => "sched",
    }
}

fn arg_value(v: &ArgValue) -> Value {
    match v {
        ArgValue::U64(n) => Value::U64(*n),
        ArgValue::F64(f) => Value::F64(*f),
        ArgValue::Str(s) => Value::Str((*s).to_string()),
        ArgValue::Text(s) => Value::Str(s.clone()),
    }
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Value {
    let mut obj = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        obj.push(("tid".to_string(), Value::U64(tid)));
    }
    obj.push((
        "args".to_string(),
        Value::Map(vec![("name".to_string(), Value::Str(value.to_string()))]),
    ));
    Value::Map(obj)
}

fn trace_event(event: &Event) -> Value {
    let (pid, tid) = pid_tid(event.track);
    let ph = match event.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
        EventKind::Counter => "C",
    };
    let mut obj = vec![
        ("name".to_string(), Value::Str(event.name.to_string())),
        ("cat".to_string(), Value::Str(category(event.track).to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        // trace_event timestamps are microseconds; integer division keeps
        // the export exactly reproducible.
        ("ts".to_string(), Value::U64(event.t_ns / 1_000)),
        ("pid".to_string(), Value::U64(pid)),
        ("tid".to_string(), Value::U64(tid)),
    ];
    if event.kind == EventKind::Instant {
        // Thread-scoped instant (renders as an arrow on its own track).
        obj.push(("s".to_string(), Value::Str("t".to_string())));
    }
    if !event.args.is_empty() {
        let args: Vec<(String, Value)> =
            event.args.iter().map(|(k, v)| ((*k).to_string(), arg_value(v))).collect();
        obj.push(("args".to_string(), Value::Map(args)));
    }
    Value::Map(obj)
}

/// Renders the sink's retained events as a Chrome `trace_event` JSON
/// document (object form, `traceEvents` array), with one named thread
/// track per stream and per shard plus a scheduler track. Load the file
/// in <https://ui.perfetto.dev> or `chrome://tracing`.
///
/// The export is a pure function of the recorded events: a seeded run's
/// trace serializes bit-identically on every host.
pub fn chrome_trace_json(sink: &TraceSink) -> String {
    let tracks: BTreeSet<Track> = sink.events().map(|e| e.track).collect();
    let mut events: Vec<Value> = Vec::with_capacity(sink.len() + 2 * tracks.len() + 3);
    // Name the process groups that actually occur, then each thread.
    let pids: BTreeSet<u64> = tracks.iter().map(|&t| pid_tid(t).0).collect();
    for pid in pids {
        let name = match pid {
            PID_STREAMS => "streams",
            PID_SHARDS => "shards",
            _ => "scheduler",
        };
        events.push(metadata("process_name", pid, None, name));
    }
    for &track in &tracks {
        let (pid, tid) = pid_tid(track);
        let label = match track {
            Track::Stream(i) => format!("stream {i}"),
            Track::Shard(i) => format!("shard {i}"),
            Track::Scheduler => "scheduler".to_string(),
        };
        events.push(metadata("thread_name", pid, Some(tid), &label));
    }
    events.extend(sink.events().map(trace_event));
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Value::Map(vec![
                ("dropped_events".to_string(), Value::U64(sink.dropped())),
                ("total_emitted".to_string(), Value::U64(sink.total_emitted())),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("value trees always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::with_capacity(64);
        sink.begin(Track::Stream(0), 0, "frame", vec![("config", ArgValue::U64(2))]);
        sink.begin(Track::Stream(0), 0, "sense", vec![("energy_j", ArgValue::F64(0.5))]);
        sink.end(Track::Stream(0), 1_000, "sense");
        sink.end(Track::Stream(0), 1_000, "frame");
        sink.instant(Track::Shard(1), 500, "marker", vec![("shard", ArgValue::U64(1))]);
        sink.counter(Track::Scheduler, 0, "queued", 3.0);
        sink
    }

    #[test]
    fn export_parses_and_covers_every_event() {
        let sink = sample_sink();
        let json = chrome_trace_json(&sink);
        let doc: Value = serde_json::from_str(&json).expect("export must be valid JSON");
        let map = doc.as_map().expect("object form");
        let events = map
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_seq())
            .expect("traceEvents array");
        // 3 tracks => 3 process_name + 3 thread_name metadata events.
        assert_eq!(events.len(), sink.len() + 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.as_map())
            .filter_map(|m| m.iter().find(|(k, _)| k == "ph"))
            .filter_map(|(_, v)| v.as_str())
            .collect();
        for ph in ["M", "B", "E", "i", "C"] {
            assert!(phases.contains(&ph), "missing phase {ph}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace_json(&sample_sink()), chrome_trace_json(&sample_sink()));
    }

    #[test]
    fn empty_sink_exports_empty_trace() {
        let json = chrome_trace_json(&TraceSink::disabled());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = doc
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v))
            .and_then(|v| v.as_seq())
            .unwrap();
        assert!(events.is_empty());
    }
}
