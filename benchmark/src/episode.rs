//! One episode: cold set-up, warm-up, and a fixed number of timed ticks
//! against a fresh `PerceptionServer`, in a process of its own.
//!
//! The loop is closed: one driver thread produces every stream's next
//! frame (untimed), then ingests them and runs one processing step
//! (timed), and only then produces the next tick's frames. Every frame of
//! a tick completes with that tick's step, so the step time is the
//! frame-to-detections latency.

use crate::alloc;
use crate::host::{self, host_factors, HostProbe};
use crate::shadow::{self, Captured, Shadow};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workload::{Workload, GRID, MODEL_SEED, NUM_CLASSES};
use ecofusion_core::{EcoFusionModel, Frame};
use ecofusion_energy::StageKind;
use ecofusion_gating::GateKind;
use ecofusion_harness::digest::{absorb_stream, format_digest, Fnv1a};
use ecofusion_runtime::budget::default_ladder;
use ecofusion_runtime::{PerceptionServer, RuntimeReport, ShardReport, VehicleStream};
use ecofusion_tensor::Rng;
use ecofusion_trace::{chrome_trace_json, TraceSink, Track};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What an episode records beside serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the end-to-end numbers come from these episodes only.
    Plain,
    /// The benchmark's spans and the shadow replay: per-layer numbers.
    Spans,
    /// The program's own recorder (`set_tracer`), to price it.
    Sink,
}

pub struct EpisodeArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warmup_ticks: u64,
    pub timed_ticks: u64,
    pub mode: Mode,
    /// Where a `Spans` episode writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
}

/// What an episode hands back to the driver.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// FNV-1a digest of every stream's selections and detection counts.
    pub digest: String,
    /// Names of the correctness checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The outcome as a JSON value tree (the child-to-driver wire format).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "values".to_string(),
                Value::Map(self.values.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect()),
            ),
            ("digest".to_string(), Value::Str(self.digest.clone())),
            (
                "failures".to_string(),
                Value::Seq(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    /// One line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("value trees always serialize")
    }

    /// Parses what [`Outcome::to_json`] wrote.
    ///
    /// # Errors
    /// Says which part of the line is not an outcome.
    pub fn from_json(line: &str) -> Result<Outcome, String> {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("child output: {e}"))?;
        let map = doc.as_map().ok_or("child output is not an object")?;
        let field =
            |name: &str| serde::find_field(map, name).ok_or(format!("child output lacks {name:?}"));
        let mut out = Outcome::default();
        for (k, v) in field("values")?.as_map().ok_or("values is not an object")? {
            let Value::F64(v) = v else {
                return Err(format!("value {k:?} is not a float"));
            };
            out.values.insert(k.clone(), *v);
        }
        out.digest = field("digest")?.as_str().ok_or("digest is not a string")?.to_string();
        for v in field("failures")?.as_seq().ok_or("failures is not a list")? {
            out.failures.push(v.as_str().ok_or("a failure is not a string")?.to_string());
        }
        Ok(out)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Frames that count as failed: dropped by backpressure, refused by a
/// stalled or validating queue, or lost with a step that returned `Err`.
pub fn failed_frames(
    dropped: u64,
    stalled: u64,
    rejected_malformed: u64,
    err_step_frames: u64,
) -> u64 {
    dropped + stalled + rejected_malformed + err_step_frames
}

/// Running measurements of the timed calls.
#[derive(Default)]
struct Meter {
    generate: Duration,
    /// Wall spent in the host probe (untimed, like generation).
    probing: Duration,
    offered: u64,
    served: u64,
    err_step_frames: u64,
    /// Per step: wall of the timed calls, ms.
    step_ms: Vec<f64>,
    /// Per step: process CPU time over the timed calls, ns.
    step_cpu_ns: Vec<f64>,
    /// Per step: the host probe's sample taken right after it, ns.
    probe_ns: Vec<f64>,
    units: u64,
    batches: u64,
    batched_frames: u64,
    steals: u64,
    queued_after_max: usize,
}

impl Meter {
    /// Wall of the timed calls so far, ms, as the clock read it.
    fn serve_ms(&self) -> f64 {
        self.step_ms.iter().sum()
    }

    /// Adds one step's outcome. An `Err` step loses the frames it popped;
    /// the caller passes how many were queued for it.
    fn note_step<E>(&mut self, offered: u64, result: &Result<ecofusion_runtime::StepStats, E>) {
        self.offered += offered;
        match result {
            Ok(stats) => {
                self.served += stats.frames as u64;
                self.units += stats.units as u64;
                self.batches += stats.batch_sizes.len() as u64;
                self.batched_frames += stats.batch_sizes.iter().sum::<usize>() as u64;
                self.steals += stats.steals;
                self.queued_after_max = self.queued_after_max.max(stats.queued_after);
            }
            Err(_) => self.err_step_frames += offered,
        }
    }
}

/// One tick of the closed loop. Generation is untimed; `ingest` × streams
/// and `process_step_stats` are timed together.
fn drive_tick(
    server: &mut PerceptionServer,
    streams: &mut [VehicleStream],
    meter: &mut Meter,
    clock: &Instant,
    host_probe: &mut HostProbe,
    mut probe: Option<(&mut Spans, &mut Shadow)>,
) {
    let t = Instant::now();
    let frames: Vec<Frame> = streams.iter_mut().map(VehicleStream::next_frame).collect();
    meter.generate += t.elapsed();
    let tick = server.tick();
    let offered = frames.len() as u64;
    let captured = probe.as_ref().map(|_| Captured {
        frames: frames.clone(),
        opts: (0..frames.len()).map(|i| server.stream_options(i)).collect(),
    });

    alloc::arm();
    let cpu0 = host::process_cpu_ns();
    let t0 = clock.elapsed();
    for (i, frame) in frames.into_iter().enumerate() {
        // Refusals and drops are read from the report at the end.
        let _ = server.ingest(i, frame);
    }
    let t_mid = clock.elapsed();
    let result = server.process_step_stats();
    let t1 = clock.elapsed();
    let cpu1 = host::process_cpu_ns();
    alloc::disarm();
    server.advance_tick();

    meter.step_ms.push((t1 - t0).as_secs_f64() * 1e3);
    meter.step_cpu_ns.push((cpu1 - cpu0) as f64);
    let t = Instant::now();
    meter.probe_ns.push(host_probe.sample());
    meter.probing += t.elapsed();
    meter.note_step(offered, &result);

    if let (Some((spans, shadow)), Some(captured)) = (probe.as_mut(), captured) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let parent = spans.record("serve.tick", Track::Scheduler, None, tick, ns(t0), ns(t1));
        spans.record("runtime.ingest", Track::Scheduler, Some(parent), tick, ns(t0), ns(t_mid));
        spans.record("runtime.step", Track::Scheduler, Some(parent), tick, ns(t_mid), ns(t1));
        shadow.replay(spans, tick, captured);
    }
}

/// Runs the episode. `process_start` is when this process entered `main`.
pub fn run(args: &EpisodeArgs, process_start: Instant) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();

    // Bench-owned measurements first, outside set-up time.
    let mut spans = Spans::new();
    let mut shadow = None;
    let mut pre_setup = Duration::ZERO;
    if args.mode == Mode::Spans {
        let t = Instant::now();
        out.set("harness.timer_overhead_ns", host::timer_overhead_ns());
        shadow = Some(Shadow::new(w.streams, w.shards));
        pre_setup = t.elapsed();
    }
    let clock = Instant::now();

    // Set-up: model, server (replica restore), streams, warm-up ticks.
    let t = Instant::now();
    let model = EcoFusionModel::new(GRID, NUM_CLASSES, &mut Rng::new(MODEL_SEED));
    out.set("core.model_new_ms", t.elapsed().as_secs_f64() * 1e3);
    let specs = w.specs(args.seed);
    let t = Instant::now();
    let mut server = PerceptionServer::new(model, &specs, w.config());
    out.set("runtime.server_new_ms", t.elapsed().as_secs_f64() * 1e3);
    if args.mode == Mode::Sink {
        server.set_tracer(TraceSink::with_capacity(4096));
    }
    let mut streams = w.sources(&specs, args.warmup_ticks + args.timed_ticks);
    let mut host_probe = HostProbe::default();
    let mut warm = Meter::default();
    for _ in 0..args.warmup_ticks {
        let probe = shadow.as_mut().map(|s| (&mut spans, s));
        drive_tick(&mut server, &mut streams, &mut warm, &clock, &mut host_probe, probe);
    }
    // Set-up is mostly its warm-up ticks, so their probe samples say how
    // fast the host ran it.
    let setup = process_start.elapsed() - warm.generate - warm.probing - pre_setup;
    let setup_factor = median(&warm.probe_ns) / host::HOST_REF_NS;
    out.set("setup_s", setup.as_secs_f64() / setup_factor);

    // Baselines of the cumulative counters the timed window is cut from.
    let int8_before: u64 = (0..w.streams).map(|i| server.telemetry(i).int8_frames()).sum();
    let shards_before = (args.mode == Mode::Spans).then(|| server.report().shards);
    // Per-layer values cover the timed window only.
    spans.clear();
    if let Some(shadow) = shadow.as_mut() {
        shadow.counts = Default::default();
    }

    // The timed window.
    let mut meter = Meter::default();
    let (allocs0, bytes0) = alloc::totals();
    for _ in 0..args.timed_ticks {
        let probe = shadow.as_mut().map(|s| (&mut spans, s));
        drive_tick(&mut server, &mut streams, &mut meter, &clock, &mut host_probe, probe);
    }
    let (allocs1, bytes1) = alloc::totals();
    let peak_rss_mb = host::peak_rss_mb();

    let t = Instant::now();
    let report = server.report();
    out.set("runtime.report_ms", t.elapsed().as_secs_f64() * 1e3);

    // End-to-end values. The timed ones are in reference-host time: each
    // step's wall and CPU time over the host factor measured around it.
    let frames = meter.served.max(1) as f64;
    let factors = host_factors(&meter.probe_ns);
    let over_factor =
        |v: &[f64]| -> Vec<f64> { v.iter().zip(&factors).map(|(x, f)| x / f).collect() };
    let step_ms = over_factor(&meter.step_ms);
    let serve_s = step_ms.iter().sum::<f64>() / 1e3;
    out.set("serve_s", serve_s);
    out.set("serve_fps", meter.served as f64 / serve_s);
    out.set("step_ms_p50", median(&step_ms));
    let p95 = percentile(&step_ms, 95.0);
    out.set("step_ms_p95", p95.value);
    out.set("cpu_us_per_frame", over_factor(&meter.step_cpu_ns).iter().sum::<f64>() / 1e3 / frames);
    // For the record: how the host ran, and what the clock read.
    out.set("harness.host_factor", median(&factors));
    out.set("clock_serve_fps", meter.served as f64 / (meter.serve_ms() / 1e3));
    out.set("steps", meter.step_ms.len() as f64);
    out.set("p95_beyond", p95.beyond as f64);
    out.set("allocs_per_frame", (allocs1 - allocs0) as f64 / frames);
    out.set("alloc_kb_per_frame", (bytes1 - bytes0) as f64 / 1024.0 / frames);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("generate_s", (warm.generate + meter.generate).as_secs_f64());

    // Modeled values, over everything the server served (warm-up
    // included: the ladder's climb is part of what a budget costs).
    let all_frames = report.frames.max(1) as f64;
    let weighted = |f: fn(&ecofusion_runtime::StreamReport) -> f64| -> f64 {
        report.per_stream.iter().map(|s| f(s) * s.summary.frames as f64).sum::<f64>() / all_frames
    };
    let energy = report.total_gated_j / all_frames;
    let model_latency = weighted(|s| s.summary.avg_latency_ms);
    out.set("energy_j_per_frame", energy);
    out.set("model_latency_ms", model_latency);
    out.set("fusion_loss", weighted(|s| s.summary.avg_loss));

    // Failures.
    let dropped: u64 = report.per_stream.iter().map(|s| s.dropped).sum();
    let stalls: u64 = report.per_stream.iter().map(|s| s.stalls).sum();
    let malformed: u64 = report.per_stream.iter().map(|s| s.rejected_malformed).sum();
    let failed =
        failed_frames(dropped, stalls, malformed, warm.err_step_frames + meter.err_step_frames);
    let offered = warm.offered + meter.offered;
    out.set("frames_offered", offered as f64);
    out.set("frames_failed", failed as f64);
    out.set("failed_share", failed as f64 / offered.max(1) as f64);
    out.set("served_share", (offered - failed.min(offered)) as f64 / offered.max(1) as f64);
    out.set("runtime.dropped", dropped as f64);
    out.set("runtime.stalls", stalls as f64);
    out.set("runtime.rejected_malformed", malformed as f64);

    // Correctness of this episode.
    out.check(report.frames == offered, || {
        format!("frames_served: served {} of {} offered", report.frames, offered)
    });
    out.check(meter.served == w.streams as u64 * args.timed_ticks, || {
        format!("timed_frames: served {} in the timed window", meter.served)
    });
    let stage_j: f64 =
        (0..w.streams).map(|i| server.telemetry(i).stage_energy_j().iter().sum::<f64>()).sum();
    let stage_ms: f64 =
        (0..w.streams).map(|i| server.telemetry(i).stage_latency_ms().iter().sum::<f64>()).sum();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    out.check(close(stage_j, report.total_gated_j), || {
        format!("stage_energy_sum: stages {stage_j} J vs Eq. 11 total {} J", report.total_gated_j)
    });
    out.check(close(stage_ms / all_frames, model_latency), || {
        format!(
            "stage_latency_sum: stages {} ms vs total {model_latency} ms",
            stage_ms / all_frames
        )
    });
    let int8_timed =
        (0..w.streams).map(|i| server.telemetry(i).int8_frames()).sum::<u64>() - int8_before;
    let level_min = report.per_stream.iter().map(|s| s.final_level).min().unwrap_or(0);
    if w.expect_int8 {
        let last_rung = default_ladder(&specs[0].base_opts).len() - 1;
        out.check(level_min == last_rung, || {
            format!("last_rung: a stream ended on level {level_min}, not {last_rung}")
        });
        out.check(int8_timed == meter.served, || {
            format!("int8_frames: {int8_timed} of {} timed frames ran int8", meter.served)
        });
    }
    let mut digest = Fnv1a::default();
    for i in 0..w.streams {
        absorb_stream(&mut digest, &server, i);
    }
    out.digest = format_digest(&digest);

    match args.mode {
        Mode::Plain => {}
        Mode::Sink => {
            let sink = server.take_tracer().expect("sink installed at set-up");
            out.set("trace.events_per_frame", sink.total_emitted() as f64 / all_frames);
            out.set("trace.ring_dropped", sink.dropped() as f64);
        }
        Mode::Spans => {
            let mut shadow = shadow.expect("built for the spans mode");
            let before = shards_before.expect("taken for the spans mode");
            layer_values(&mut out, &meter, &report, &before, &server, &spans, &shadow);
            let probe = shadow.probe_stem_plan(w.unit_batch);
            out.set("tensor.plan_compile_ms", probe.compile_ms);
            out.set("tensor.stem_plan_us.f32", probe.f32_us);
            out.set("tensor.stem_plan_us.i8", probe.i8_us);
            out.set("tensor.stem_plan_macs", probe.macs);
            out.set("tensor.stem_plan_bytes", probe.bytes);
            out.set("tensor.stem_plan_gmacs_per_s.f32", probe.macs / probe.f32_us / 1e3);
            out.set("tensor.stem_plan_gmacs_per_s.i8", probe.macs / probe.i8_us / 1e3);
            out.set("runtime.int8_frame_share", int8_timed as f64 / frames);
            out.set("runtime.final_level_min", level_min as f64);
            out.check(shadow.counts.mirror_mismatches == 0, || {
                format!(
                    "shadow_mirror: {} frames decomposed differently",
                    shadow.counts.mirror_mismatches
                )
            });
            if let Some(path) = &args.trace_out {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir).expect("trace directory is creatable");
                }
                std::fs::write(path, chrome_trace_json(&spans.to_sink()))
                    .expect("trace file writes");
            }
        }
    }
    out
}

/// The shard-invariance pass: serves the workload's first `ticks` ticks
/// on its own shard count and on one shard, feeding both servers the same
/// frames, and compares the per-stream digests. Untimed.
pub fn verify_shards(w: &'static Workload, seed: u64, ticks: u64) -> Outcome {
    let mut out = Outcome::default();
    let specs = w.specs(seed);
    let mut servers: Vec<PerceptionServer> = [w.shards, 1]
        .into_iter()
        .map(|shards| {
            let model = EcoFusionModel::new(GRID, NUM_CLASSES, &mut Rng::new(MODEL_SEED));
            PerceptionServer::new(model, &specs, w.config_with_shards(shards))
        })
        .collect();
    let mut streams = w.sources(&specs, ticks);
    for _ in 0..ticks {
        let frames: Vec<Frame> = streams.iter_mut().map(VehicleStream::next_frame).collect();
        for server in &mut servers {
            for (i, frame) in frames.iter().enumerate() {
                let _ = server.ingest(i, frame.clone());
            }
            let step = server.process_step_stats();
            out.check(step.is_ok(), || format!("shard_invariance: a step failed: {step:?}"));
            server.advance_tick();
        }
    }
    let digests: Vec<String> = servers
        .iter()
        .map(|server| {
            let mut digest = Fnv1a::default();
            for i in 0..w.streams {
                absorb_stream(&mut digest, server, i);
            }
            format_digest(&digest)
        })
        .collect();
    out.check(digests[0] == digests[1], || {
        format!("shard_invariance: {} shards {} vs 1 shard {}", w.shards, digests[0], digests[1])
    });
    out.digest = digests[0].clone();
    out
}

/// The per-layer values of a `Spans` episode, over its timed window
/// (the spans and the shadow's counts were reset when it began).
fn layer_values(
    out: &mut Outcome,
    meter: &Meter,
    report: &RuntimeReport,
    shards_before: &[ShardReport],
    server: &PerceptionServer,
    spans: &Spans,
    shadow: &Shadow,
) {
    let frames = meter.served.max(1) as f64;
    let all_frames = report.frames.max(1) as f64;
    let steps = meter.step_ms.len().max(1) as f64;
    let us_per_frame = |ns: f64| ns / 1e3 / frames;
    let total = |name: &str| spans.total_ns(name) as f64;
    let by_gate = |f: fn(GateKind) -> &'static str| -> f64 {
        GateKind::ALL.iter().map(|g| total(f(*g))).sum()
    };

    // runtime
    let step_ns = total("runtime.step");
    let infer_ns = by_gate(shadow::infer_span);
    out.set("runtime.ingest_us_per_frame", us_per_frame(total("runtime.ingest")));
    out.set("runtime.step_us_per_frame", us_per_frame(step_ns));
    let busy: Vec<f64> = report
        .shards
        .iter()
        .zip(shards_before)
        .map(|(after, before)| after.busy_ms - before.busy_ms)
        .collect();
    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    let busy_mean = busy.iter().sum::<f64>() / busy.len() as f64;
    // On one shard the step is the replayed inference plus the
    // scheduler's own time. On several, units run concurrently and the
    // step waits for the busiest shard, not for the sum of the shadow's
    // sequential replays.
    let sched_self_ns = if busy.len() == 1 { step_ns - infer_ns } else { step_ns - busy_max * 1e6 };
    out.set("runtime.sched_self_us_per_frame", us_per_frame(sched_self_ns));
    out.set("runtime.units_per_step", meter.units as f64 / steps);
    out.set("runtime.batch_size_mean", meter.batched_frames as f64 / meter.batches.max(1) as f64);
    let wait_ticks: f64 =
        report.per_stream.iter().map(|s| s.avg_queue_wait_ticks * s.summary.frames as f64).sum();
    out.set("runtime.queue_wait_ticks_mean", wait_ticks / all_frames);
    out.set("runtime.queued_after_max", meter.queued_after_max as f64);
    out.set("runtime.shard_busy_share", busy_mean / meter.serve_ms());
    out.set("runtime.shard_imbalance", busy_max / busy_mean);
    out.set("runtime.steals_per_kstep", meter.steals as f64 / steps * 1e3);
    let escalations: u64 = report.per_stream.iter().map(|s| s.escalations).sum();
    out.set("runtime.escalations", escalations as f64);
    out.set("runtime.gate_fallbacks", report.total_gate_fallbacks as f64);
    out.set("runtime.step_ms_p99", percentile(&meter.step_ms, 99.0).value);
    out.set("runtime.step_ms_max", percentile(&meter.step_ms, 100.0).value);

    // core
    out.set("core.quant_build_ms", shadow.quant_build_ms);
    out.set("core.infer_us_per_frame", us_per_frame(infer_ns));
    for (g, gate) in GateKind::ALL.into_iter().enumerate() {
        // Per frame of that gate; 0 where no stream runs the gate.
        let n = shadow.counts.frames_by_gate[g].max(1) as f64;
        let label = gate_label(gate);
        out.set(
            &format!("core.infer_us_per_frame.{label}"),
            total(shadow::infer_span(gate)) / 1e3 / n,
        );
        out.set(
            &format!("gating.score_us_per_frame.{label}"),
            total(shadow::gate_span(gate)) / 1e3 / n,
        );
    }
    let infer_self: f64 =
        GateKind::ALL.iter().map(|g| spans.self_ns(shadow::infer_span(*g)) as f64).sum();
    out.set("core.pipeline_self_us_per_frame", us_per_frame(infer_self));
    out.set("harness.infer_children_residual_pct", infer_self / infer_ns.max(1.0) * 100.0);
    out.set("core.stems_executed_per_frame", report.total_stems_executed as f64 / all_frames);
    let skipped: u64 = report.per_stream.iter().map(|s| s.stems_skipped).sum();
    out.set("core.stems_skipped_per_frame", skipped as f64 / all_frames);
    let hits: u64 = report.per_stream.iter().map(|s| s.stem_cache_hits).sum();
    let misses: u64 = report.per_stream.iter().map(|s| s.stem_cache_misses).sum();
    out.set("core.stem_cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    let plans = shadow.plan_cache_stats();
    out.set("core.plan_cache_compiles", plans.compiles as f64);
    out.set(
        "core.plan_cache_hit_rate",
        plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
    );

    // detect, gating, energy
    out.set("detect.stems_us_per_frame", us_per_frame(total(shadow::STEMS_SPAN)));
    out.set("detect.branch_us_per_frame", us_per_frame(total(shadow::BRANCH_SPAN)));
    out.set("detect.fuse_us_per_frame", us_per_frame(total(shadow::FUSE_SPAN)));
    out.set(
        "detect.branches_run_per_frame",
        shadow.counts.branches_run as f64 / shadow.counts.frames.max(1) as f64,
    );
    let streams = server.num_streams();
    let detections: usize = (0..streams)
        .map(|i| server.telemetry(i).detections().iter().map(Vec::len).sum::<usize>())
        .sum();
    out.set("detect.detections_per_frame", detections as f64 / all_frames);
    out.set("gating.score_us_per_frame", us_per_frame(by_gate(shadow::gate_span)));
    out.set("energy.account_us_per_frame", us_per_frame(total(shadow::ACCOUNT_SPAN)));
    for (k, stage) in StageKind::ALL.into_iter().enumerate() {
        let j: f64 = (0..streams).map(|i| server.telemetry(i).stage_energy_j()[k]).sum();
        let ms: f64 = (0..streams).map(|i| server.telemetry(i).stage_latency_ms()[k]).sum();
        out.set(&format!("energy.stage_j_per_frame.{}", stage.label()), j / all_frames);
        out.set(&format!("energy.stage_model_ms_per_frame.{}", stage.label()), ms / all_frames);
    }

    // sensors and the load generator (outside serve time)
    let renders = spans.count(shadow::RENDER_SPAN).max(1) as f64;
    out.set("sensors.render_us_per_frame", total(shadow::RENDER_SPAN) / 1e3 / renders);
    let generate_s = meter.generate.as_secs_f64();
    out.set("harness.generate_share", generate_s / (generate_s + meter.serve_ms() / 1e3));
}

/// The metric-name suffix of a gate.
pub fn gate_label(gate: GateKind) -> &'static str {
    match gate {
        GateKind::Attention => "attention",
        GateKind::Knowledge => "knowledge",
        GateKind::Deep => "deep",
        GateKind::LossBased => "loss_based",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_runtime::StepStats;

    #[test]
    fn an_err_step_fails_every_frame_it_was_offered() {
        let mut meter = Meter::default();
        let ok: Result<StepStats, &str> =
            Ok(StepStats { frames: 4, units: 1, batch_sizes: vec![4], ..StepStats::default() });
        meter.note_step(4, &ok);
        meter.note_step(4, &Err("grid mismatch"));
        meter.note_step(4, &ok);
        assert_eq!(meter.offered, 12);
        assert_eq!(meter.served, 8);
        assert_eq!(meter.err_step_frames, 4);
        // Two dropped, one stalled, none malformed, plus the lost step.
        let failed = failed_frames(2, 1, 0, meter.err_step_frames);
        assert_eq!(failed, 7);
        assert_eq!(failed as f64 / meter.offered as f64, 7.0 / 12.0);
    }

    #[test]
    fn outcome_round_trips_through_its_wire_format() {
        let mut out = Outcome::default();
        out.set("serve_fps", 2931.25);
        out.set("steps", 200.0);
        out.digest = "00ff".to_string();
        out.check(false, || "digest: a \"quoted\" detail".to_string());
        let back = Outcome::from_json(&out.to_json()).expect("own output parses");
        assert_eq!(back.values, out.values);
        assert_eq!(back.digest, out.digest);
        assert_eq!(back.failures, out.failures);
        assert!(Outcome::from_json("{\"values\":{}}").is_err());
    }
}
