//! The step recorder: the one place the serving path writes to the flight
//! recorder.
//!
//! A [`PerceptionServer`](crate::PerceptionServer) with a sink installed
//! holds one `Recorder`, which owns the [`TraceSink`], the virtual clocks
//! the spans are laid out on, and the metric series names, built once.
//! The scheduler's serial phases tell it what happened, in global pick
//! order, so the event sequence is deterministic; nothing else touches
//! the sink, and a server records exactly when it holds a recorder. Time
//! is virtual: a tick is [`TICK_NS`], and a span lasts the modeled
//! latency of what it covers.
//!
//! Nothing here depends on which thread ran what: a unit's span sits on
//! its home shard's track, and what work stealing and the replicas' plan
//! caches did is counted in [`ShardReport`](crate::ShardReport) instead.
//! So every export is a function of the suite and the shard layout, and
//! the stream tracks and every series are identical at any shard count.

use crate::budget::PolicyStep;
use crate::scheduler::StepStats;
use crate::shard::UnitPayload;
use ecofusion_core::{InferenceOutput, Precision};
use ecofusion_energy::StageKind;
use ecofusion_faults::HealthState;
use ecofusion_sensors::SensorKind;
use ecofusion_trace::ArgValue::{Str, Text, F64, U64};
use ecofusion_trace::{ns_from_ms, TraceSink, Track, TICK_NS};
use std::fmt::Display;

/// A server's flight recorder: its sink, clocks and series names.
pub(crate) struct Recorder {
    sink: TraceSink,
    /// Per stream, ns: where its next frame span may begin (floored to
    /// the current tick).
    stream_clock_ns: Vec<u64>,
    /// Per shard, ns: where the next unit span on its track may begin.
    shard_clock_ns: Vec<u64>,
    /// Scheduler track, ns: one past the last step marker, which keeps
    /// apart the several steps a drain runs within one tick.
    sched_clock_ns: u64,
    /// `ecofusion_frames_total`, per stream.
    frames: Vec<String>,
    /// `ecofusion_stage_energy_joules_total`, in `StageKind::ALL` order.
    stage_energy: Vec<String>,
    /// `ecofusion_ladder_moves_total`: escalate, relax.
    moves: Vec<String>,
    /// `ecofusion_ladder_rung_total`, per ladder level.
    rungs: Vec<String>,
}

/// `family{key="v"}` for each `v` of `values`.
fn series(family: &str, key: &str, values: impl IntoIterator<Item = impl Display>) -> Vec<String> {
    values.into_iter().map(|v| format!("{family}{{{key}=\"{v}\"}}")).collect()
}

/// Every sensor's health, in `SensorKind::ALL` order.
type States = [HealthState; SensorKind::COUNT];

impl Recorder {
    /// A recorder writing to `sink` for `streams` streams on `shards`
    /// shards, whose ladders have at most `rungs` levels.
    pub(crate) fn new(sink: TraceSink, streams: usize, shards: usize, rungs: usize) -> Self {
        let stages = StageKind::ALL.map(|s| s.label());
        Recorder {
            sink,
            stream_clock_ns: vec![0; streams],
            shard_clock_ns: vec![0; shards],
            sched_clock_ns: 0,
            frames: series("ecofusion_frames_total", "stream", 0..streams),
            stage_energy: series("ecofusion_stage_energy_joules_total", "stage", stages),
            moves: series("ecofusion_ladder_moves_total", "direction", ["escalate", "relax"]),
            rungs: series("ecofusion_ladder_rung_total", "level", 0..rungs),
        }
    }

    /// The sink.
    pub(crate) fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// The sink, for export after a run.
    pub(crate) fn into_sink(self) -> TraceSink {
        self.sink
    }

    /// A scripted budget timeline moved `stream`'s target at `tick`.
    pub(crate) fn retarget(&mut self, stream: usize, tick: u64, target_j: f64) {
        let args = vec![("tick", U64(tick)), ("target_j", F64(target_j))];
        self.sink.instant(Track::Stream(stream as u32), tick * TICK_NS, "budget_retarget", args);
        self.sink.bump("ecofusion_budget_retargets_total", 1.0);
    }

    /// `stream`'s monitor saw a frame at `tick`: one marker per sensor
    /// whose state moved from `before` to `after`.
    pub(crate) fn health(&mut self, stream: usize, tick: u64, before: States, after: States) {
        for (sensor, (from, to)) in before.into_iter().zip(after).enumerate() {
            if from == to {
                continue;
            }
            let args = vec![
                ("sensor", Str(SensorKind::ALL[sensor].abbrev())),
                ("from", Str(from.label())),
                ("to", Str(to.label())),
                ("tick", U64(tick)),
            ];
            self.sink.instant(Track::Stream(stream as u32), tick * TICK_NS, "health", args);
            self.sink.bump("ecofusion_health_transitions_total", 1.0);
        }
    }

    /// Where the scheduler-track events of a step at `tick` sit.
    fn step_ns(&self, tick: u64) -> u64 {
        self.sched_clock_ns.max(tick * TICK_NS)
    }

    /// A unit of home shard `home` ran without error: a span on that
    /// shard's track, as long as its frames' modeled latencies.
    pub(crate) fn unit(&mut self, tick: u64, home: usize, unit: &UnitPayload) {
        let track = Track::Shard(home as u32);
        let start = self.shard_clock_ns[home].max(self.step_ns(tick));
        let dur: u64 =
            unit.outputs.iter().map(|o| ns_from_ms(o.stage_trace.total_latency().millis())).sum();
        self.shard_clock_ns[home] = start + dur;
        let streams = unit.lane_ids.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let args = vec![
            ("frames", U64(unit.outputs.len() as u64)),
            ("streams", Text(streams)),
            ("tick", U64(tick)),
        ];
        self.sink.begin(track, start, "unit", args);
        self.sink.end(track, start + dur, "unit");
    }

    /// `stream` accounted `out` at `tick`: a `frame` span (configuration,
    /// precision, stem counts, Eq. 11 totals) around one span per pipeline
    /// stage, each as long as the stage's modeled latency and carrying its
    /// exact cost; the per-frame metrics; a marker if the gate fell back.
    /// The frame begins at the stream's clock, floored to the tick, and
    /// the clock moves to its end.
    pub(crate) fn frame(&mut self, stream: usize, tick: u64, out: &InferenceOutput) {
        let track = Track::Stream(stream as u32);
        let start = self.stream_clock_ns[stream].max(tick * TICK_NS);
        let trace = &out.stage_trace;
        let args = vec![
            ("tick", U64(tick)),
            ("config", U64(out.selected_config.0 as u64)),
            ("label", Text(out.selected_label.clone())),
            ("precision", Str(out.precision.label())),
            ("stems_executed", U64(trace.stems_executed as u64)),
            ("stems_skipped", U64(trace.stems_skipped as u64)),
            ("energy_j", F64(trace.total_energy().joules())),
            ("latency_ms", F64(trace.total_latency().millis())),
            ("gate_fallbacks", U64(out.gate_fallbacks as u64)),
        ];
        self.sink.begin(track, start, "frame", args);
        let mut cursor = start;
        for (stage, series) in StageKind::ALL.into_iter().zip(&self.stage_energy) {
            let cost = trace.cost(stage);
            let (joules, ms) = (cost.energy.joules(), cost.latency.millis());
            let args = vec![("energy_j", F64(joules)), ("latency_ms", F64(ms))];
            self.sink.begin(track, cursor, stage.label(), args);
            cursor += ns_from_ms(ms);
            self.sink.end(track, cursor, stage.label());
            self.sink.bump(series, joules);
        }
        self.sink.end(track, cursor, "frame");
        self.stream_clock_ns[stream] = cursor;
        self.sink.bump(&self.frames[stream], 1.0);
        self.sink.bump("ecofusion_stems_executed_total", trace.stems_executed as f64);
        self.sink.bump("ecofusion_stems_skipped_total", trace.stems_skipped as f64);
        if out.precision == Precision::Int8 {
            self.sink.bump("ecofusion_int8_frames_total", 1.0);
        }
        if out.gate_fallbacks > 0 {
            self.sink.bump("ecofusion_gate_fallbacks_total", out.gate_fallbacks as f64);
            self.sink.instant(track, start, "gate_fallback", vec![("tick", U64(tick))]);
        }
    }

    /// `stream`'s ladder moved from level `from` to `to`, rung `step`, at
    /// the end of the frame just accounted.
    pub(crate) fn ladder(&mut self, stream: usize, from: usize, to: usize, step: &PolicyStep) {
        let (direction, reason, series) = if to > from {
            ("escalate", "rolling energy over target", &self.moves[0])
        } else {
            ("relax", "rolling energy under relax margin", &self.moves[1])
        };
        let args = vec![
            ("from", U64(from as u64)),
            ("to", U64(to as u64)),
            ("direction", Str(direction)),
            ("reason", Str(reason)),
            ("gate", Text(step.gate.to_string())),
            ("lambda_e", F64(step.lambda_e)),
            ("precision", Str(step.precision.label())),
        ];
        let at = self.stream_clock_ns[stream];
        self.sink.instant(Track::Stream(stream as u32), at, "ladder", args);
        self.sink.bump(series, 1.0);
        // Per-rung arrivals ride the metrics map (never evicted, unlike
        // ring events).
        self.sink.bump(&self.rungs[to], 1.0);
    }

    /// `stream`'s fault schedule fired `events` times producing a frame
    /// at `tick`.
    pub(crate) fn fault(&mut self, stream: usize, tick: u64, events: u64) {
        let args = vec![("tick", U64(tick)), ("events", U64(events))];
        self.sink.instant(Track::Stream(stream as u32), tick * TICK_NS, "fault", args);
        self.sink.bump("ecofusion_fault_events_total", events as f64);
    }

    /// A step that processed frames ended: its marker and the queue depth
    /// on the scheduler track, and its counter.
    pub(crate) fn step(&mut self, stats: &StepStats) {
        let at = self.step_ns(stats.tick);
        let args = vec![
            ("tick", U64(stats.tick)),
            ("frames", U64(stats.frames as u64)),
            ("units", U64(stats.units as u64)),
        ];
        self.sink.instant(Track::Scheduler, at, "step", args);
        self.sink.counter(Track::Scheduler, at, "queued", stats.queued_after as f64);
        self.sink.bump("ecofusion_steps_total", 1.0);
        self.sched_clock_ns = at + 1;
    }
}
