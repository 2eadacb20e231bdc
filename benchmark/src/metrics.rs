//! The metric tables: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` lists the same names; a
//! unit test keeps the two in step.

use ecofusion_energy::StageKind;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Must be identical in every episode of a run (modeled values and
    /// allocation counts; on `fleet_sharded` allocation counts follow
    /// thread timing and are exempt).
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, better: &'static str, bound: f64, exact: bool) -> Metric {
    Metric { name: name.to_string(), unit, better, bound: Some(bound), exact }
}

fn layer(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric { name: name.into(), unit, better, bound: None, exact: false }
}

/// End-to-end metrics, measured with every kind of tracing off; each is
/// the median of a run's episodes.
///
/// The bounds are what `BENCHMARK.json` carries: the share by which a
/// metric's median over runs of different seeds may worsen. The timed
/// metrics' bounds are two to three times the widest spread
/// `AA_RESULTS.md` shows for them (in reference-host time; by the clock
/// alone the spreads are that wide themselves). The modeled and allocation metrics are bit-equal for
/// a fixed seed (the run itself fails if its episodes disagree); their
/// bounds cover three times their seed-to-seed spread.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        e2e("setup_s", "s", "lower", 0.25, false),
        e2e("serve_fps", "1/s", "higher", 0.20, false),
        e2e("step_ms_p50", "ms", "lower", 0.20, false),
        e2e("step_ms_p95", "ms", "lower", 0.25, false),
        e2e("cpu_us_per_frame", "us", "lower", 0.20, false),
        e2e("energy_j_per_frame", "J", "lower", 0.05, true),
        e2e("model_latency_ms", "ms", "lower", 0.05, true),
        e2e("fusion_loss", "loss", "lower", 0.10, true),
        e2e("allocs_per_frame", "count", "lower", 0.02, true),
        e2e("alloc_kb_per_frame", "KiB", "lower", 0.01, true),
        e2e("peak_rss_mb", "MiB", "lower", 0.15, false),
        // 1 − `failed_share`: the contract has no place for a metric that
        // reads 0, and the failed share must be 0 on every workload.
        e2e("served_share", "ratio", "higher", 0.001, true),
    ]
}

/// Per-layer metrics, from the traced run only. Layers are crates. A
/// metric that does not apply to a workload (a gate no stream runs, the
/// shard metrics on one shard) reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        // runtime: the scheduler around the model
        layer("runtime.ingest_us_per_frame", "us", "lower"),
        layer("runtime.step_us_per_frame", "us", "lower"),
        layer("runtime.sched_self_us_per_frame", "us", "lower"),
        layer("runtime.units_per_step", "count", "lower"),
        layer("runtime.batch_size_mean", "count", "higher"),
        layer("runtime.queue_wait_ticks_mean", "ticks", "lower"),
        layer("runtime.queued_after_max", "count", "lower"),
        layer("runtime.shard_busy_share", "ratio", "higher"),
        layer("runtime.shard_imbalance", "ratio", "lower"),
        layer("runtime.steals_per_kstep", "count", "lower"),
        layer("runtime.escalations", "count", "lower"),
        layer("runtime.final_level_min", "count", "lower"),
        layer("runtime.int8_frame_share", "ratio", "higher"),
        layer("runtime.gate_fallbacks", "count", "lower"),
        layer("runtime.dropped", "count", "lower"),
        layer("runtime.stalls", "count", "lower"),
        layer("runtime.rejected_malformed", "count", "lower"),
        layer("runtime.failed_share", "ratio", "lower"),
        layer("runtime.server_new_ms", "ms", "lower"),
        layer("runtime.report_ms", "ms", "lower"),
        layer("runtime.step_ms_p99", "ms", "lower"),
        layer("runtime.step_ms_max", "ms", "lower"),
        // core: the staged pipeline
        layer("core.model_new_ms", "ms", "lower"),
        layer("core.quant_build_ms", "ms", "lower"),
        layer("core.infer_us_per_frame", "us", "lower"),
        layer("core.pipeline_self_us_per_frame", "us", "lower"),
        layer("core.stems_executed_per_frame", "count", "lower"),
        layer("core.stems_skipped_per_frame", "count", "higher"),
        layer("core.stem_cache_hit_rate", "ratio", "higher"),
        layer("core.plan_cache_compiles", "count", "lower"),
        layer("core.plan_cache_hit_rate", "ratio", "higher"),
        // detect, gating, energy
        layer("detect.stems_us_per_frame", "us", "lower"),
        layer("detect.branch_us_per_frame", "us", "lower"),
        layer("detect.fuse_us_per_frame", "us", "lower"),
        layer("detect.branches_run_per_frame", "count", "lower"),
        layer("detect.detections_per_frame", "count", "higher"),
        layer("gating.score_us_per_frame", "us", "lower"),
        layer("energy.account_us_per_frame", "us", "lower"),
        // tensor: one stem plan at the workload's unit batch
        layer("tensor.stem_plan_us.f32", "us", "lower"),
        layer("tensor.stem_plan_us.i8", "us", "lower"),
        layer("tensor.stem_plan_macs", "count", "lower"),
        layer("tensor.stem_plan_bytes", "B", "lower"),
        layer("tensor.stem_plan_gmacs_per_s.f32", "GMAC/s", "higher"),
        layer("tensor.stem_plan_gmacs_per_s.i8", "GMAC/s", "higher"),
        layer("tensor.plan_compile_ms", "ms", "lower"),
        // the load generator, the program's recorder, the benchmark itself
        layer("sensors.render_us_per_frame", "us", "lower"),
        layer("trace.sink_overhead_pct", "%", "lower"),
        layer("trace.events_per_frame", "count", "lower"),
        layer("trace.ring_dropped", "count", "lower"),
        layer("harness.generate_share", "ratio", "lower"),
        layer("harness.span_overhead_pct", "%", "lower"),
        layer("harness.infer_children_residual_pct", "%", "lower"),
        layer("harness.host_factor", "ratio", "lower"),
        layer("harness.timer_overhead_ns", "ns", "lower"),
    ];
    for gate in ["attention", "knowledge", "deep", "loss_based"] {
        m.push(layer(format!("core.infer_us_per_frame.{gate}"), "us", "lower"));
        m.push(layer(format!("gating.score_us_per_frame.{gate}"), "us", "lower"));
    }
    for stage in StageKind::ALL {
        m.push(layer(format!("energy.stage_j_per_frame.{}", stage.label()), "J", "lower"));
        m.push(layer(format!("energy.stage_model_ms_per_frame.{}", stage.label()), "ms", "lower"));
    }
    m
}
