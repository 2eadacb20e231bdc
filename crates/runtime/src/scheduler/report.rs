//! The aggregate report of a server: per-stream reports, fleet-wide
//! latency and per-shard execution.

use super::PerceptionServer;
use crate::hist::LatencyHistogram;
use crate::shard::ShardReport;
use ecofusion_core::Precision;
use ecofusion_eval::EvalSummary;
use ecofusion_gating::GateKind;
use ecofusion_sensors::SensorMask;
use serde::Serialize;

/// Everything the report says about one stream.
#[derive(Debug, Clone, Serialize)]
pub struct StreamReport {
    /// Stream index (position in the spec list).
    pub stream: usize,
    /// The harness-compatible accuracy/energy/latency summary.
    pub summary: EvalSummary,
    /// Frames actually inside the summary's mAP window. Telemetry keeps
    /// at most [`crate::telemetry::HISTORY_CAP`] per-frame records (the
    /// oldest half is discarded beyond that), so on runs longer than the
    /// cap `summary.map_pct` covers only these most recent frames while
    /// the scalar counters stay exact over the whole run. Equal to
    /// `summary.frames` until the cap is first hit.
    pub map_window_frames: usize,
    /// Frames evicted by drop-oldest backpressure.
    pub dropped: u64,
    /// Producer stalls under stall backpressure.
    pub stalls: u64,
    /// Deepest the stream's queue ever got.
    pub queue_high_water: usize,
    /// Mean scheduler-tick queueing delay per processed frame.
    pub avg_queue_wait_ticks: f64,
    /// Median per-frame modeled latency, ms (fixed-bucket histogram
    /// upper edge; the mean stays in `summary.avg_latency_ms`).
    pub latency_p50_ms: f64,
    /// 95th-percentile per-frame modeled latency, ms.
    pub latency_p95_ms: f64,
    /// 99th-percentile per-frame modeled latency, ms.
    pub latency_p99_ms: f64,
    /// Budget escalations (moves to a cheaper policy).
    pub escalations: u64,
    /// Budget relaxations (moves back toward the base policy).
    pub relaxations: u64,
    /// Escalation level at the end of the run (0 = base policy).
    pub final_level: usize,
    /// Gate in force at the end of the run.
    pub final_gate: GateKind,
    /// `λ_E` in force at the end of the run.
    pub final_lambda_e: f64,
    /// Rolling mean total energy at the end of the run, Joules/frame.
    pub rolling_energy_j: f64,
    /// Fleet-coordinator grant in force at the end of the run,
    /// Joules/frame (0 without a fleet budget).
    pub granted_j: f64,
    /// Total platform energy spent by the stream, Joules.
    pub total_platform_j: f64,
    /// Total platform + clock-gated sensor energy spent, Joules.
    pub total_gated_j: f64,
    /// Frames processed while the health monitor saw a degraded or failed
    /// sensor.
    pub degraded_frames: u64,
    /// Frames processed with at least one sensor masked out of gating.
    pub masked_frames: u64,
    /// Stems the demand-driven pipeline actually ran for the stream.
    pub stems_executed: u64,
    /// Stems pruned by the demand-driven plan (never run at all).
    pub stems_skipped: u64,
    /// Frames whose perception stages ran int8-quantized (the emergency
    /// rung of the default ladder, or an explicit `Precision::Int8`).
    pub int8_frames: u64,
    /// Frames on which the knowledge gate was missing a context rule and
    /// degraded to its cheapest-configuration fallback.
    pub gate_fallbacks: u64,
    /// Numeric precision in force at the end of the run.
    pub final_precision: Precision,
    /// Always 0: a vestige kept only for `benchmark/`; ROADMAP 12(d) deletes it.
    pub stem_cache_hits: u64,
    /// Always 0: a vestige kept only for `benchmark/`; ROADMAP 12(d) deletes it.
    pub stem_cache_misses: u64,
    /// Mean per-stage total energy per frame, Joules, in
    /// `StageKind::ALL` order (empty before the first frame).
    pub stage_energy_j: Vec<f64>,
    /// Health-state transitions (e.g. healthy → failed) over the run.
    pub health_transitions: u64,
    /// Per-sensor health scores at the end of the run, canonical order.
    pub final_health: Vec<f64>,
    /// Availability mask in force at the end of the run.
    pub final_mask: SensorMask,
    /// Whether fault-aware gating was enabled for the stream.
    pub health_gating: bool,
    /// Frames rejected at ingest validation (grid mismatch).
    pub rejected_malformed: u64,
}

/// Aggregate outcome of a runtime session.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeReport {
    /// Per-stream reports, in stream order.
    pub per_stream: Vec<StreamReport>,
    /// Frames processed across all streams.
    pub frames: u64,
    /// Micro-batches (work units) executed without error.
    pub batches: u64,
    /// Mean frames per micro-batch.
    pub avg_batch_size: f64,
    /// Sum of per-stream platform energy, Joules.
    pub total_platform_j: f64,
    /// Sum of per-stream platform + gated sensor energy, Joules.
    pub total_gated_j: f64,
    /// Stems executed across all streams.
    pub total_stems_executed: u64,
    /// Frames that ran int8-quantized, across all streams.
    pub total_int8_frames: u64,
    /// Knowledge-gate missing-rule fallbacks, across all streams.
    pub total_gate_fallbacks: u64,
    /// Stems pruned across all streams (the compute the staged pipeline
    /// saved vs. always-run-four).
    pub total_stems_saved: u64,
    /// Fleet-wide mean modeled latency, ms, from the merged per-stream
    /// histograms (0 before the first frame).
    pub latency_mean_ms: f64,
    /// Fleet-wide median modeled latency, ms (bucket upper edge).
    pub latency_p50_ms: f64,
    /// Fleet-wide 95th-percentile modeled latency, ms.
    pub latency_p95_ms: f64,
    /// Fleet-wide 99th-percentile modeled latency, ms.
    pub latency_p99_ms: f64,
    /// Fleet-wide maximum modeled latency, ms (exact).
    pub latency_max_ms: f64,
    /// Sum of fleet-coordinator grants in force at the end of the run,
    /// Joules/frame.
    pub total_granted_j: f64,
    /// Per-shard execution stats (which worker did what; the steal,
    /// plan-cache and wall-clock fields depend on the thread schedule or
    /// the host and are never part of the determinism invariant).
    pub shards: Vec<ShardReport>,
}

impl PerceptionServer {
    /// Builds the aggregate report.
    pub fn report(&self) -> RuntimeReport {
        let per_stream: Vec<StreamReport> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let summary = lane.telemetry.summary(self.cfg.num_classes);
                let stage_energy_j = summary.stage_energy_j.clone();
                StreamReport {
                    stream: i,
                    summary,
                    map_window_frames: lane.telemetry.retained_frames(),
                    dropped: lane.queue.dropped(),
                    // Producer stalls surface two ways: the simulation driver
                    // defers generation (record_stall), while direct ingest
                    // against a full stall-policy queue is rejected by the
                    // queue itself. The report covers both.
                    stalls: lane.stalls + lane.queue.rejected(),
                    queue_high_water: lane.queue.high_water(),
                    avg_queue_wait_ticks: lane.telemetry.avg_queue_wait_ticks(),
                    latency_p50_ms: lane.telemetry.latency_percentile_ms(50.0),
                    latency_p95_ms: lane.telemetry.latency_percentile_ms(95.0),
                    latency_p99_ms: lane.telemetry.latency_percentile_ms(99.0),
                    escalations: lane.controller.escalations(),
                    relaxations: lane.controller.relaxations(),
                    final_level: lane.controller.level(),
                    final_gate: lane.opts.gate,
                    final_lambda_e: lane.opts.lambda_e,
                    rolling_energy_j: lane.controller.rolling_mean_j(),
                    granted_j: lane.controller.grant_j(),
                    total_platform_j: lane.telemetry.platform_j(),
                    total_gated_j: lane.telemetry.total_gated_j(),
                    degraded_frames: lane.telemetry.degraded_frames(),
                    masked_frames: lane.telemetry.masked_frames(),
                    stems_executed: lane.telemetry.stems_executed(),
                    stems_skipped: lane.telemetry.stems_skipped(),
                    int8_frames: lane.telemetry.int8_frames(),
                    gate_fallbacks: lane.telemetry.gate_fallbacks(),
                    final_precision: lane.opts.precision,
                    stem_cache_hits: 0,
                    stem_cache_misses: 0,
                    stage_energy_j,
                    health_transitions: lane.monitor.transitions(),
                    final_health: lane.monitor.scores().to_vec(),
                    final_mask: lane.active_mask(),
                    health_gating: lane.health_gating,
                    rejected_malformed: lane.malformed,
                }
            })
            .collect();
        let frames: u64 = per_stream.iter().map(|s| s.summary.frames as u64).sum();
        // Fleet-wide latency: merge the per-stream histograms (exact for
        // mean/max, bucket-edge percentiles). Merging per-stream state in
        // lane order keeps the result shard-count-invariant.
        let mut fleet_hist = LatencyHistogram::new();
        for lane in &self.lanes {
            fleet_hist.merge(lane.telemetry.latency_histogram());
        }
        let shards = self
            .shard_work
            .iter()
            .zip(self.shards.states())
            .map(|(work, s)| ShardReport {
                busy_ms: s.busy_ns as f64 / 1e6,
                plan_cache: s.model.plan_cache_stats(),
                ..work.clone()
            })
            .collect();
        RuntimeReport {
            frames,
            batches: self.batches,
            avg_batch_size: if self.batches == 0 {
                0.0
            } else {
                self.batched_frames as f64 / self.batches as f64
            },
            total_platform_j: per_stream.iter().map(|s| s.total_platform_j).sum(),
            total_gated_j: per_stream.iter().map(|s| s.total_gated_j).sum(),
            total_stems_executed: per_stream.iter().map(|s| s.stems_executed).sum(),
            total_int8_frames: per_stream.iter().map(|s| s.int8_frames).sum(),
            total_gate_fallbacks: per_stream.iter().map(|s| s.gate_fallbacks).sum(),
            total_stems_saved: per_stream.iter().map(|s| s.stems_skipped).sum(),
            latency_mean_ms: fleet_hist.mean(),
            latency_p50_ms: fleet_hist.percentile(50.0),
            latency_p95_ms: fleet_hist.percentile(95.0),
            latency_p99_ms: fleet_hist.percentile(99.0),
            latency_max_ms: fleet_hist.max(),
            total_granted_j: per_stream.iter().map(|s| s.granted_j).sum(),
            shards,
            per_stream,
        }
    }
}
