//! Suite execution: drives the named workloads through the real
//! [`PerceptionServer`] and rolls the results into a [`BenchReport`].

use crate::digest::{absorb_stream, format_digest, Fnv1a};
use crate::report::{
    BenchReport, BuildMeta, FleetPoint, LatencyStats, ShardPoint, SuiteReport, SCHEMA_VERSION,
};
use crate::scenario::ScenarioCounters;
use crate::suites::{plan, stream_specs, SuiteId, MODEL_SEED, SUITE_CLASSES, SUITE_GRID};
use ecofusion_core::model::InferError;
use ecofusion_core::{
    Dataset, DatasetSpec, EcoFusionModel, Frame, ModelSnapshot, Precision, TrainConfig, Trainer,
};
use ecofusion_energy::{StageKind, StageRollup};
use ecofusion_eval::experiments::common::Scale;
use ecofusion_runtime::{
    run_simulation_observed, BudgetTimeline, LatencyHistogram, PerceptionServer, RuntimeConfig,
    RuntimeReport, StreamSpec, VehicleStream,
};
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::TraceSink;
use std::collections::{BTreeMap, BTreeSet};

/// Ring capacity, in events, of every traced suite run. The largest quick
/// suite, `fleet_scale`, records about 56 000 events and every other one
/// under 5 000, so a quick run keeps every event; a longer run keeps the
/// most recent ones and counts the rest as dropped.
pub const TRACE_RING_EVENTS: usize = 1 << 16;

/// Builds the serving model for every suite of a run.
///
/// Quick scale serves an *untrained* seeded model: weight initialization
/// is deterministic in [`MODEL_SEED`], construction is milliseconds, and
/// every regression-gate property (selection behavior, modeled costs,
/// detection determinism) is exercised just as it would be with trained
/// weights. Full scale pays for a `fast_demo` training run once and then
/// restores the snapshot per suite, so all suites serve identical
/// weights.
pub struct ModelProvider {
    snapshot: Option<ModelSnapshot>,
    label: String,
}

impl ModelProvider {
    /// Prepares the provider for `scale` (trains once at full scale).
    pub fn prepare(scale: Scale) -> ModelProvider {
        match scale {
            Scale::Quick => {
                ModelProvider { snapshot: None, label: format!("untrained({MODEL_SEED})") }
            }
            Scale::Full => {
                let dataset = Dataset::generate(&DatasetSpec::small(MODEL_SEED));
                let mut trainer = Trainer::new(TrainConfig::fast_demo(), MODEL_SEED);
                let mut model = trainer.train(&dataset).expect("training the suite model");
                ModelProvider {
                    snapshot: Some(model.snapshot()),
                    label: format!("fast_demo({MODEL_SEED})"),
                }
            }
        }
    }

    /// Model provenance string for the report metadata.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A fresh model instance (servers consume their model by value).
    pub fn model(&self) -> EcoFusionModel {
        match &self.snapshot {
            Some(snap) => snap.restore().expect("snapshot restores"),
            None => EcoFusionModel::new(SUITE_GRID, SUITE_CLASSES, &mut Rng::new(MODEL_SEED)),
        }
    }
}

/// Runs every suite (or the `only` subset, by label) at `scale` on
/// `shards` runtime worker shards, every stream starting at `precision`,
/// and assembles the full report.
///
/// Every gated report field is shard-invariant (the runtime's core
/// invariant), so reports taken at different shard counts diff cleanly;
/// only the per-shard breakdown changes.
///
/// With `traced`, every suite runs with an enabled [`TraceSink`] of
/// [`TRACE_RING_EVENTS`] and the per-suite sinks (suite label, sink) are
/// returned alongside the report for export. Untraced, the servers run
/// without any tracer; either way the report is the same.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_report(
    scale: Scale,
    only: &[String],
    shards: usize,
    precision: Precision,
    traced: bool,
) -> Result<(BenchReport, Vec<(String, TraceSink)>), InferError> {
    let provider = ModelProvider::prepare(scale);
    let mut suites = Vec::new();
    let mut sinks = Vec::new();
    for id in SuiteId::ALL {
        if !only.is_empty() && !only.iter().any(|s| s == id.label()) {
            continue;
        }
        let (suite, sink) = run_suite(&provider, id, scale, shards, precision, traced)?;
        suites.push(suite);
        if let Some(sink) = sink {
            sinks.push((id.label().to_string(), sink));
        }
    }
    let report = BenchReport {
        schema: SCHEMA_VERSION,
        build: BuildMeta {
            git_rev: git_rev(),
            scale: match scale {
                Scale::Quick => "quick".to_string(),
                Scale::Full => "full".to_string(),
            },
            model: provider.label().to_string(),
            grid: SUITE_GRID,
            num_classes: SUITE_CLASSES,
            shards,
        },
        suites,
    };
    Ok((report, sinks))
}

/// Runs one suite end to end and aggregates its report, every stream
/// starting at `precision` (int8 drives the whole suite quantized — what
/// the int8 baseline gates). With `traced`, one enabled [`TraceSink`] of
/// [`TRACE_RING_EVENTS`] rides through every fleet sub-run of the suite
/// (installed on each server, taken back after its drive) and is
/// returned for export. Trace timestamps restart per sub-run — only
/// `fleet_scale` has more than one — and a full ring keeps the most
/// recent events.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_suite(
    provider: &ModelProvider,
    id: SuiteId,
    scale: Scale,
    shards: usize,
    precision: Precision,
    traced: bool,
) -> Result<(SuiteReport, Option<TraceSink>), InferError> {
    let plan = plan(id, scale);
    let mut rollup = Rollup::default();
    let mut fleet = Vec::new();
    let mut sink = traced.then(|| TraceSink::with_capacity(TRACE_RING_EVENTS));
    for &streams in &plan.fleets {
        // The precision is applied to each spec's *own* options, so suites
        // with heterogeneous per-stream policies (mixed_policy) keep them.
        let vehicles = stream_specs(id, streams, plan.ticks)
            .into_iter()
            .map(|(s, schedule)| {
                let spec = StreamSpec { base_opts: s.base_opts.with_precision(precision), ..s };
                match schedule {
                    Some(faults) => VehicleStream::new(spec).with_faults(faults),
                    None => VehicleStream::new(spec),
                }
            })
            .collect();
        let (mut server, contexts) = drive(
            provider.model(),
            vehicles,
            plan.max_batch,
            shards,
            plan.ticks,
            &[],
            sink.take(),
        )?;
        sink = server.take_tracer();
        let report = rollup.absorb(&server, contexts);
        fleet.push(FleetPoint {
            streams,
            frames: report.frames,
            avg_batch_size: report.avg_batch_size,
            shards: server.num_shards(),
            per_shard: report
                .shards
                .iter()
                .map(|s| ShardPoint {
                    shard: s.shard,
                    streams: s.streams,
                    frames: s.frames,
                    batches: s.batches,
                    steals: s.steals,
                    stolen_frames: s.stolen_frames,
                })
                .collect(),
        });
    }
    let c = &rollup.counters;
    let hist = &rollup.hist;
    let report = SuiteReport {
        suite: id.label().to_string(),
        seed: id.base_seed(),
        streams: rollup.streams,
        ticks: plan.ticks,
        frames: c.frames,
        map_pct: rollup.per_frame(rollup.map_weighted),
        avg_loss: rollup.per_frame(rollup.loss_weighted),
        total_platform_j: rollup.platform_j,
        total_gated_j: rollup.gated_j,
        stage_energy: StageRollup::from_sums(&rollup.stage_sums),
        latency: LatencyStats {
            mean_ms: hist.mean(),
            p50_ms: hist.percentile(50.0),
            p95_ms: hist.percentile(95.0),
            p99_ms: hist.percentile(99.0),
            max_ms: hist.max(),
        },
        stems_executed: rollup.stems_executed,
        stems_skipped: rollup.stems_skipped,
        dropped: c.dropped,
        stalls: c.stalls,
        escalations: c.escalations,
        max_final_level: c.max_final_level as usize,
        degraded_frames: c.degraded_frames,
        masked_frames: c.masked_frames,
        int8_frames: c.int8_frames,
        gate_fallbacks: c.gate_fallbacks,
        contexts_visited: rollup.contexts.iter().map(|s| s.to_string()).collect(),
        config_histogram: rollup.histogram,
        determinism_digest: format_digest(&rollup.digest),
        // Single-fleet suites report the fleet table only when it adds
        // information (fleet_scale's scaling curve).
        fleet: if plan.fleets.len() > 1 { fleet } else { Vec::new() },
    };
    Ok((report, sink))
}

/// Checks a traced suite run's metrics against its report: the frames
/// counted per stream sum to `frames`, and the stems executed and
/// skipped, the gate fallbacks and the escalating ladder moves each equal
/// their report field (a series never bumped counts 0). A series counted
/// twice, or not at all, shows here.
///
/// # Errors
/// Every series that disagrees with its field, in one message.
pub fn reconcile_metrics(report: &SuiteReport, sink: &TraceSink) -> Result<(), String> {
    // A name's series whatever their labels: the per-stream frame counts
    // add up.
    let counted = |name: &str| -> f64 {
        let labelled = |series: &str| {
            series.strip_prefix(name).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        };
        sink.metrics().iter().filter(|(series, _)| labelled(series)).map(|(_, n)| n).sum()
    };
    let wrong: Vec<String> = [
        ("ecofusion_frames_total", report.frames),
        ("ecofusion_stems_executed_total", report.stems_executed),
        ("ecofusion_stems_skipped_total", report.stems_skipped),
        ("ecofusion_gate_fallbacks_total", report.gate_fallbacks),
        ("ecofusion_ladder_moves_total{direction=\"escalate\"}", report.escalations),
    ]
    .into_iter()
    .filter(|&(name, field)| counted(name) != field as f64)
    .map(|(name, field)| format!("{name} counted {}, the report says {field}", counted(name)))
    .collect();
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("; "))
    }
}

/// The one place a suite or a scenario meets the runtime: serves
/// `streams` for `ticks` ticks on a fresh server built from their specs
/// (`max_batch`, `shards`), stream `i` under `timelines[i]` if it has
/// one and the server under `tracer` if any, then drains it. Returns the
/// finished server and the contexts its frames visited.
pub(crate) fn drive(
    model: EcoFusionModel,
    mut streams: Vec<VehicleStream>,
    max_batch: usize,
    shards: usize,
    ticks: u64,
    timelines: &[Option<BudgetTimeline>],
    tracer: Option<TraceSink>,
) -> Result<(PerceptionServer, BTreeSet<&'static str>), InferError> {
    let specs: Vec<StreamSpec> = streams.iter().map(|s| *s.spec()).collect();
    let cfg = RuntimeConfig { max_batch, num_classes: SUITE_CLASSES, shards, ..Default::default() };
    let mut server = PerceptionServer::new(model, &specs, cfg);
    for (i, timeline) in timelines.iter().enumerate() {
        if let Some(t) = timeline {
            server.set_budget_timeline(i, t.clone());
        }
    }
    if let Some(t) = tracer {
        server.set_tracer(t);
    }
    let mut contexts = BTreeSet::new();
    run_simulation_observed(&mut server, &mut streams, ticks, |frame: &Frame| {
        contexts.insert(frame.scene.context.label());
    })?;
    Ok((server, contexts))
}

/// What a [`SuiteReport`] and a [`ScenarioOutcome`](crate::ScenarioOutcome)
/// read of finished servers. Every sum is a left fold over streams in lane
/// order, continued across the servers absorbed (`fleet_scale`'s sub-runs).
#[derive(Default)]
pub(crate) struct Rollup {
    pub counters: ScenarioCounters,
    pub streams: usize,
    pub map_weighted: f64,
    pub loss_weighted: f64,
    pub platform_j: f64,
    pub gated_j: f64,
    /// Per-stage energy sums, Joules, `StageKind::ALL` order.
    pub stage_sums: [f64; StageKind::COUNT],
    pub hist: LatencyHistogram,
    pub stems_executed: u64,
    pub stems_skipped: u64,
    pub histogram: BTreeMap<String, usize>,
    pub contexts: BTreeSet<&'static str>,
    pub digest: Fnv1a,
}

impl Rollup {
    /// Folds one finished server (and the contexts its drive visited)
    /// in, returning the server's report.
    pub fn absorb(
        &mut self,
        server: &PerceptionServer,
        contexts: BTreeSet<&'static str>,
    ) -> RuntimeReport {
        let report = server.report();
        let c = &mut self.counters;
        for (i, s) in report.per_stream.iter().enumerate() {
            let t = server.telemetry(i);
            let n = s.summary.frames as f64;
            self.map_weighted += s.summary.map_pct * n;
            self.loss_weighted += s.summary.avg_loss * n;
            self.platform_j += s.total_platform_j;
            self.gated_j += s.total_gated_j;
            for (sum, j) in self.stage_sums.iter_mut().zip(t.stage_energy_j()) {
                *sum += j;
            }
            self.hist.merge(t.latency_histogram());
            self.stems_executed += s.stems_executed;
            self.stems_skipped += s.stems_skipped;
            for (label, count) in &s.summary.config_histogram {
                *self.histogram.entry(label.clone()).or_default() += count;
            }
            c.churn += t.selected_configs().windows(2).filter(|w| w[0] != w[1]).count() as u64;
            c.escalations += s.escalations;
            c.relaxations += s.relaxations;
            c.max_final_level = c.max_final_level.max(s.final_level as u64);
            c.rungs |= server.controller(i).rungs_visited();
            c.health_transitions += s.health_transitions;
            c.gate_fallbacks += s.gate_fallbacks;
            c.degraded_frames += s.degraded_frames;
            c.masked_frames += s.masked_frames;
            c.int8_frames += s.int8_frames;
            c.dropped += s.dropped;
            c.stalls += s.stalls;
            absorb_stream(&mut self.digest, server, i);
        }
        c.frames += report.frames;
        self.streams += report.per_stream.len();
        self.contexts.extend(contexts);
        c.contexts = self.contexts.len() as u64;
        report
    }

    /// A frame-weighted sum as a per-frame mean (0 frames divide by 1).
    pub fn per_frame(&self, sum: f64) -> f64 {
        sum / self.counters.frames.max(1) as f64
    }
}

/// The current git revision (short), for report provenance. Falls back to
/// `GITHUB_SHA` (truncated) outside a git checkout, then to `unknown` —
/// provenance is metadata, never load-bearing for the gate.
fn git_rev() -> String {
    if let Ok(out) =
        std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output()
    {
        if out.status.success() {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn quick_provider_is_untrained_and_deterministic() {
        let p = ModelProvider::prepare(Scale::Quick);
        assert!(p.label().starts_with("untrained"));
        let a = p.model();
        let b = p.model();
        assert_eq!(a.grid(), SUITE_GRID);
        assert_eq!(a.grid(), b.grid());
    }
}
