//! The multi-stream scheduler: round-robin frame coalescing into
//! cross-stream micro-batches, sharded multi-core execution (see
//! [`crate::shard`]), budget-driven policy adaptation (per-stream ladders
//! plus an optional fleet-wide headroom coordinator), and the aggregate
//! runtime report.

use crate::budget::{
    default_ladder, redistribute_headroom, BudgetController, BudgetPosture, BudgetTimeline,
    FleetBudgetPolicy,
};
use crate::hist::LatencyHistogram;
use crate::queue::{FrameQueue, IngestOutcome, QueuedFrame};
use crate::shard::{shard_of, ShardPool, ShardReport, StepUnit, UnitPayload};
use crate::stream::{StreamSpec, VehicleStream};
use crate::telemetry::StreamTelemetry;
use ecofusion_core::model::InferError;
use ecofusion_core::{
    trace_frame, CandidateRule, EcoFusionModel, Frame, InferenceOptions, InferenceOutput,
    Precision, StemFeatureCache,
};
use ecofusion_eval::EvalSummary;
use ecofusion_faults::{HealthState, SensorHealthMonitor};
use ecofusion_gating::GateKind;
use ecofusion_sensors::{SensorKind, SensorMask};
use ecofusion_trace::{ns_from_ms, ArgValue, TraceSink, Track, TICK_NS};
use serde::Serialize;

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Maximum frames coalesced into the micro-batches of one processing
    /// step (across all streams).
    pub max_batch: usize,
    /// Object classes, for the mAP in per-stream summaries.
    pub num_classes: usize,
    /// Worker shards the streams are partitioned across (round-robin by
    /// stream index, clamped to the stream count). Per-stream outputs,
    /// digests, and reports are bit-identical for any value; shards only
    /// change which worker thread executes each micro-batch.
    pub shards: usize,
    /// Whether a drained shard may steal ready work units from the
    /// deepest neighbor (only meaningful with `shards > 1`; stealing is
    /// also output-invariant).
    pub work_stealing: bool,
    /// Fleet-wide budget coordination: under-budget streams donate
    /// headroom to over-budget ones each step. `None` (the default)
    /// keeps every stream on its own budget.
    pub fleet_budget: Option<FleetBudgetPolicy>,
}

impl Default for RuntimeConfig {
    /// `max_batch` 8, 8 classes, one shard, work stealing on, no fleet
    /// budget.
    fn default() -> Self {
        RuntimeConfig {
            max_batch: 8,
            num_classes: 8,
            shards: 1,
            work_stealing: true,
            fleet_budget: None,
        }
    }
}

impl RuntimeConfig {
    /// Same config with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Same config with work stealing switched on or off.
    pub fn with_work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Same config with a fleet budget coordinator.
    pub fn with_fleet_budget(mut self, policy: FleetBudgetPolicy) -> Self {
        self.fleet_budget = Some(policy);
        self
    }
}

/// A totally ordered grouping key over [`InferenceOptions`]: float fields
/// by bit pattern, enums by discriminant, the health mask by its bits.
/// Two options values produced by the policy ladder / health gating are
/// semantically equal iff their keys are equal, so keyed grouping batches
/// exactly what the old linear `find` over `PartialEq` batched — in
/// O(log groups) per frame instead of O(groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OptionsKey {
    gate: GateKind,
    rule: u8,
    lambda_bits: u64,
    gamma_bits: u32,
    score_bits: u32,
    nms_bits: u32,
    health_bits: u8,
    precision: u8,
}

impl OptionsKey {
    fn of(opts: &InferenceOptions) -> Self {
        OptionsKey {
            gate: opts.gate,
            rule: match opts.rule {
                CandidateRule::Margin => 0,
                CandidateRule::PaperEq7 => 1,
            },
            lambda_bits: opts.lambda_e.to_bits(),
            gamma_bits: opts.gamma.to_bits(),
            score_bits: opts.score_thresh.to_bits(),
            nms_bits: opts.nms_iou.to_bits(),
            health_bits: opts.health.bits(),
            precision: opts.precision.discriminant(),
        }
    }
}

/// One stream's server-side state.
struct Lane {
    queue: FrameQueue,
    controller: BudgetController,
    base_opts: InferenceOptions,
    opts: InferenceOptions,
    telemetry: StreamTelemetry,
    monitor: SensorHealthMonitor,
    health_gating: bool,
    stalls: u64,
    malformed: u64,
    /// Scripted budget retargets (see [`BudgetTimeline`]); applied at the
    /// top of each processing step against the scheduler tick.
    timeline: Option<BudgetTimeline>,
}

impl Lane {
    fn new(spec: &StreamSpec) -> Self {
        Lane {
            queue: FrameQueue::new(spec.queue_capacity, spec.backpressure),
            controller: BudgetController::new(spec.budget, default_ladder(&spec.base_opts)),
            base_opts: spec.base_opts,
            opts: spec.base_opts,
            telemetry: StreamTelemetry::new(),
            monitor: SensorHealthMonitor::default(),
            health_gating: spec.health_gating,
            stalls: 0,
            malformed: 0,
            timeline: None,
        }
    }

    /// The availability mask the lane's gating currently runs with (all
    /// available when fault-aware gating is off).
    fn active_mask(&self) -> SensorMask {
        if self.health_gating {
            self.monitor.mask()
        } else {
            SensorMask::all_available()
        }
    }
}

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
    /// Stems served from the stream's feature cache (frozen grids).
    pub stems_cached: u64,
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
    /// Stem-cache lookups that found a matching grid.
    pub stem_cache_hits: u64,
    /// Stem-cache lookups that missed.
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
    /// Micro-batches executed (`infer_batch` calls).
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
    /// Stems pruned or served from caches across all streams (the
    /// compute the staged pipeline saved vs. always-run-four).
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
    /// Per-shard execution stats (which worker did what; the wall-clock
    /// fields are host-dependent and never part of the determinism
    /// invariant).
    pub shards: Vec<ShardReport>,
}

/// The multi-stream perception server.
///
/// Frames enter per-stream bounded queues via
/// [`PerceptionServer::ingest`]; each [`PerceptionServer::process_step`]
/// pops up to `max_batch` ready frames round-robin across streams, groups
/// them by `(home shard, current [`InferenceOptions`])`, and runs one
/// batched inference per group — in parallel across worker shards when
/// `cfg.shards > 1`, with work stealing for imbalanced fleets. Because
/// the batched path is bit-identical to per-frame
/// [`EcoFusionModel::infer`] and the pick phase is global, coalescing,
/// sharding, and stealing change throughput, never results: per-stream
/// outputs and reports are bit-identical for any shard count.
///
/// # Example
///
/// ```
/// use ecofusion_core::EcoFusionModel;
/// use ecofusion_runtime::{PerceptionServer, RuntimeConfig, StreamSpec, VehicleStream};
/// use ecofusion_tensor::rng::Rng;
///
/// let model = EcoFusionModel::new(32, 8, &mut Rng::new(1));
/// let specs = [StreamSpec::new(10, 32), StreamSpec::new(11, 32)];
/// let mut server = PerceptionServer::new(model, &specs, RuntimeConfig::default());
/// let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
/// for (i, s) in streams.iter_mut().enumerate() {
///     server.ingest(i, s.next_frame());
/// }
/// let processed = server.process_step().unwrap();
/// assert_eq!(processed, 2);
/// ```
pub struct PerceptionServer {
    /// Worker shards; shard 0 holds the original model and runs on the
    /// thread that calls `process_step`, the rest hold snapshot-restored
    /// replicas (restore is inference-bit-identical) and run on helper
    /// threads that live as long as the server.
    shards: ShardPool,
    /// The models' observation grid side.
    grid: usize,
    lanes: Vec<Lane>,
    /// Per-stream stem-feature caches (parallel to `lanes`), kept out of
    /// `Lane` so they can be moved into work units during a step.
    stem_caches: Vec<StemFeatureCache>,
    /// Per lane, its slot in the cache list of the unit being built
    /// (`usize::MAX` between units: none yet).
    cache_slot_of: Vec<usize>,
    cfg: RuntimeConfig,
    tick: u64,
    batches: u64,
    batched_frames: u64,
    /// Optional event sink (see [`PerceptionServer::set_tracer`]). Only
    /// the serial scheduler phases write to it — never the worker
    /// threads — which is what keeps the event sequence deterministic
    /// and the sink lock-free.
    tracer: Option<TraceSink>,
    /// Per-stream virtual clocks, ns: where the next frame span on each
    /// stream track may begin (floored to the current tick).
    stream_clock_ns: Vec<u64>,
    /// Per-shard virtual clocks, ns, for the unit spans on shard tracks.
    shard_clock_ns: Vec<u64>,
    /// Scheduler-track clock, ns: disambiguates the multiple processing
    /// steps a drain runs within one tick.
    sched_clock_ns: u64,
    /// The buffers of the scheduler's own phases.
    step: StepBuffers,
}

/// The scheduler's step buffers — what `coalesce`, `build_units` and
/// `account_units` would otherwise allocate every step, the work units
/// themselves included. A unit slot keeps its frame, lane, wait, pick,
/// cache and output lists across steps, cleared and refilled, so a warm
/// step allocates only what it hands out: per frame the output's
/// detections, predicted losses and label and the ground truth telemetry
/// keeps, and per step [`StepStats::batch_sizes`].
#[derive(Default)]
struct StepBuffers {
    /// The frames `coalesce` picked, in pick order.
    picked: Vec<(usize, QueuedFrame)>,
    /// The unit slots; the first `live` are this step's units, in
    /// first-seen group order.
    units: Vec<StepUnit>,
    live: usize,
    /// `((home shard, options), slot)` of this step's units, sorted by
    /// key: the grouping index.
    groups: Vec<((usize, OptionsKey), usize)>,
    /// This step's frames with their outputs, put in global pick order
    /// for accounting.
    rows: Vec<Row>,
}

/// One executed frame on its way through accounting.
struct Row {
    pick: u64,
    lane: usize,
    frame: Frame,
    output: InferenceOutput,
    wait: u64,
}

/// What one [`PerceptionServer::process_step_stats`] call did — the
/// per-step scheduler stats shared by the [`SimObserver`] hook and the
/// tracer, so the harness and the flight recorder observe the runtime
/// through one path.
///
/// All fields except `steals`/`stolen_frames` are shard-count-invariant;
/// steal counts depend on thread timing (like
/// [`crate::ShardReport::busy_ms`]) and are always 0 with a single shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepStats {
    /// Scheduler tick the step ran at.
    pub tick: u64,
    /// Frames processed (0 when every queue was empty).
    pub frames: usize,
    /// Work units (micro-batches) the frames were grouped into.
    pub units: usize,
    /// Frames per executed micro-batch, in unit order.
    pub batch_sizes: Vec<usize>,
    /// Units claimed by a non-home worker during this step.
    pub steals: u64,
    /// Frames inside those stolen units.
    pub stolen_frames: u64,
    /// Frames still queued across all streams after the step.
    pub queued_after: usize,
}

impl PerceptionServer {
    /// Creates a server for the given streams.
    ///
    /// With `cfg.shards > 1` the model is snapshotted once and restored
    /// into one replica per extra shard; snapshot restore is proven
    /// inference-bit-identical, and inference never mutates observable
    /// model state, so every shard serves exactly the same function. The
    /// shard count is clamped to the stream count (an idle shard is pure
    /// overhead). Each shard but the first gets a worker thread here,
    /// parked between steps and stopped when the server is dropped; a
    /// one-shard server starts none.
    ///
    /// # Panics
    /// Panics if `specs` is empty, `cfg.max_batch` or `cfg.shards` is
    /// zero, or a spec's grid does not match the model's.
    pub fn new(model: EcoFusionModel, specs: &[StreamSpec], cfg: RuntimeConfig) -> Self {
        assert!(!specs.is_empty(), "server needs at least one stream");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.shards > 0, "shards must be positive");
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.grid, model.grid(), "stream {i} grid does not match model");
        }
        let num_shards = cfg.shards.min(specs.len());
        let grid = model.grid();
        PerceptionServer {
            shards: ShardPool::new(model, num_shards),
            grid,
            lanes: specs.iter().map(Lane::new).collect(),
            stem_caches: specs.iter().map(|_| StemFeatureCache::new()).collect(),
            cache_slot_of: vec![usize::MAX; specs.len()],
            cfg,
            tick: 0,
            batches: 0,
            batched_frames: 0,
            tracer: None,
            stream_clock_ns: vec![0; specs.len()],
            shard_clock_ns: vec![0; num_shards],
            sched_clock_ns: 0,
            step: StepBuffers::default(),
        }
    }

    /// Installs an event sink; every subsequent step emits frame/stage
    /// spans, scheduler unit spans, and decision events into it. Pass
    /// [`TraceSink::disabled`] (or never call this) for the zero-overhead
    /// path — instrumentation is skipped at its first branch.
    pub fn set_tracer(&mut self, sink: TraceSink) {
        self.tracer = Some(sink);
    }

    /// Removes and returns the installed sink (for export after a run).
    pub fn take_tracer(&mut self) -> Option<TraceSink> {
        self.tracer.take()
    }

    /// The installed sink, if any.
    pub fn tracer(&self) -> Option<&TraceSink> {
        self.tracer.as_ref()
    }

    /// Whether an enabled sink is installed.
    fn tracing(&self) -> bool {
        self.tracer.as_ref().is_some_and(|t| t.is_enabled())
    }

    /// Number of streams served.
    pub fn num_streams(&self) -> usize {
        self.lanes.len()
    }

    /// Number of worker shards (after clamping to the stream count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current scheduler tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the scheduler clock by one tick.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
    }

    /// Offers a frame to `stream`'s queue under its backpressure policy.
    ///
    /// A frame rendered at a different grid size than the model is
    /// rejected here with [`IngestOutcome::RejectedMalformed`] — validating
    /// at the ingest boundary means a malformed frame can never fail a
    /// micro-batch mid-step (which would lose the healthy frames coalesced
    /// with it), and rejecting instead of panicking means one broken
    /// producer cannot take down the whole server.
    ///
    /// # Panics
    /// Panics if `stream` is out of range (a caller bug, not a data
    /// fault).
    pub fn ingest(&mut self, stream: usize, frame: Frame) -> IngestOutcome {
        if frame.obs.grid_size() != self.grid {
            self.lanes[stream].malformed += 1;
            return IngestOutcome::RejectedMalformed;
        }
        let tick = self.tick;
        self.lanes[stream].queue.push(frame, tick)
    }

    /// Whether `stream`'s queue would apply backpressure to a push now.
    pub fn queue_full(&self, stream: usize) -> bool {
        self.lanes[stream].queue.is_full()
    }

    /// Records a producer stall for `stream` (the simulation driver calls
    /// this instead of generating a frame when a stall-policy queue is
    /// full).
    pub fn record_stall(&mut self, stream: usize) {
        self.lanes[stream].stalls += 1;
    }

    /// Frames currently queued across all streams.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// The inference options `stream` currently runs with (reflects any
    /// budget adaptation so far).
    pub fn stream_options(&self, stream: usize) -> InferenceOptions {
        self.lanes[stream].opts
    }

    /// The budget controller of `stream`.
    pub fn controller(&self, stream: usize) -> &BudgetController {
        &self.lanes[stream].controller
    }

    /// The telemetry of `stream`.
    pub fn telemetry(&self, stream: usize) -> &StreamTelemetry {
        &self.lanes[stream].telemetry
    }

    /// The health monitor of `stream`.
    pub fn health(&self, stream: usize) -> &SensorHealthMonitor {
        &self.lanes[stream].monitor
    }

    /// The stem-feature cache of `stream`.
    pub fn stem_cache(&self, stream: usize) -> &StemFeatureCache {
        &self.stem_caches[stream]
    }

    /// Installs a scripted budget timeline on `stream`: at the top of
    /// every processing step, the phase in force at the current tick (if
    /// any) retargets the stream's budget controller via
    /// [`BudgetController::set_target_j`]. Retargeting moves only the
    /// target — the rolling window and ladder level are kept, so the
    /// controller adapts against the new target from existing evidence
    /// exactly as it would against a real supply change.
    ///
    /// # Panics
    /// Panics if `stream` is out of range or the timeline is invalid.
    pub fn set_budget_timeline(&mut self, stream: usize, timeline: BudgetTimeline) {
        assert!(timeline.is_structurally_valid(), "budget timeline must be valid");
        self.lanes[stream].timeline = Some(timeline);
    }

    /// Applies every lane's scripted budget timeline at the current tick
    /// (no-op for lanes without one or whose target is already in force).
    fn apply_budget_timelines(&mut self) {
        let tick = self.tick;
        let mut retargets: Vec<(usize, f64)> = Vec::new();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let Some(target) = lane.timeline.as_ref().and_then(|t| t.target_at(tick)) else {
                continue;
            };
            if lane.controller.budget().target_j != target {
                lane.controller.set_target_j(target);
                retargets.push((i, target));
            }
        }
        if let Some(tr) = self.tracer.as_mut().filter(|t| t.is_enabled()) {
            for (stream, target) in retargets {
                tr.instant(
                    Track::Stream(stream as u32),
                    tick * TICK_NS,
                    "budget_retarget",
                    vec![("tick", ArgValue::U64(tick)), ("target_j", ArgValue::F64(target))],
                );
                tr.bump("ecofusion_budget_retargets_total", 1.0);
            }
        }
    }

    /// Runs one processing step: pops up to `max_batch` ready frames
    /// round-robin across streams (oldest first within each stream),
    /// groups them by `(home shard, current options)`, executes the
    /// groups in parallel across the worker shards (with work stealing),
    /// and accounts the results serially in group order. Returns the
    /// number of frames processed (0 when all queues are empty).
    ///
    /// The pick phase is global and serial — identical to the single-core
    /// scheduler for any shard count — so backpressure, queue waits, and
    /// every per-stream output are shard-count-invariant.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the model (a queued frame rendered
    /// at the wrong grid size, or an installed int8 image that does not
    /// lower to plans).
    pub fn process_step(&mut self) -> Result<usize, InferError> {
        self.process_step_stats().map(|stats| stats.frames)
    }

    /// [`PerceptionServer::process_step`] returning the per-step
    /// scheduler stats ([`StepStats`]) instead of just the frame count.
    /// The simulation driver feeds these to its [`SimObserver`] — the
    /// same observation the tracer's scheduler track records.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the model.
    pub fn process_step_stats(&mut self) -> Result<StepStats, InferError> {
        let tick = self.tick;
        self.apply_budget_timelines();
        self.coalesce();
        if self.step.picked.is_empty() {
            return Ok(StepStats { tick, ..StepStats::default() });
        }
        let tracing = self.tracing();
        // Health monitoring: every popped frame updates its lane's monitor
        // before options are grouped, so the mask each micro-batch runs
        // with reflects the newest evidence. When several frames of one
        // lane are popped in a single step they all execute under the
        // lane's final (most-informed) mask, and telemetry counts against
        // that same mask so the counters always describe the gating that
        // actually ran. With fault-aware gating off (the default) the
        // monitor still tracks health for telemetry but the lane's
        // options — and therefore every inference result — stay
        // untouched.
        let mut transitions: Vec<(usize, usize, HealthState, HealthState)> = Vec::new();
        for (lane_idx, queued) in &self.step.picked {
            let monitor = &mut self.lanes[*lane_idx].monitor;
            let before = monitor.states();
            monitor.update(&queued.frame.obs);
            if tracing {
                for (sensor, (b, a)) in before.into_iter().zip(monitor.states()).enumerate() {
                    if b != a {
                        transitions.push((*lane_idx, sensor, b, a));
                    }
                }
            }
        }
        for lane in &mut self.lanes {
            if lane.health_gating {
                lane.opts.health = lane.active_mask();
            }
        }
        for (lane_idx, _) in &self.step.picked {
            let lane = &mut self.lanes[*lane_idx];
            let mask = lane.active_mask();
            lane.telemetry.note_health(lane.monitor.degraded_count() > 0, !mask.is_all_available());
        }
        // Monitor updates run in pick order, so the transition events do
        // too — deterministic for any shard count.
        if let Some(tr) = self.tracer.as_mut() {
            for (lane, sensor, from, to) in transitions {
                tr.instant(
                    Track::Stream(lane as u32),
                    tick * TICK_NS,
                    "health",
                    vec![
                        ("sensor", ArgValue::Str(SensorKind::ALL[sensor].abbrev())),
                        ("from", ArgValue::Str(health_label(from))),
                        ("to", ArgValue::Str(health_label(to))),
                        ("tick", ArgValue::U64(tick)),
                    ],
                );
                tr.bump("ecofusion_health_transitions_total", 1.0);
            }
        }
        let processed = self.step.picked.len();
        let step_ns = self.sched_clock_ns.max(tick * TICK_NS);
        let steals_before: (u64, u64) =
            self.shards.states().fold((0, 0), |(s, f), sh| (s + sh.steals, f + sh.stolen_frames));
        self.build_units();
        let num_units = self.step.live;
        self.shards.execute(&mut self.step.units, num_units, self.cfg.work_stealing);
        let (steals, stolen_frames) = {
            let after: (u64, u64) = self
                .shards
                .states()
                .fold((0, 0), |(s, f), sh| (s + sh.steals, f + sh.stolen_frames));
            (after.0 - steals_before.0, after.1 - steals_before.1)
        };
        let batch_sizes = self.account_units(step_ns)?;
        self.coordinate_fleet_budget();
        let queued_after = self.queued();
        // Flush fused-plan-cache deltas from every replica. Deltas only
        // drain while tracing so counters stay cumulative over a traced
        // run; idle replicas contribute zero, which keeps the totals
        // shard-count-invariant for single-stream golden suites.
        let plans = if tracing {
            self.shards.states().fold((0u64, 0u64, 0u64), |(h, m, c), mut sh| {
                let d = sh.model.take_plan_delta();
                (h + d.hits, m + d.misses, c + d.compiles)
            })
        } else {
            (0, 0, 0)
        };
        if let Some(tr) = self.tracer.as_mut().filter(|_| tracing) {
            tr.instant(
                Track::Scheduler,
                step_ns,
                "step",
                vec![
                    ("tick", ArgValue::U64(tick)),
                    ("frames", ArgValue::U64(processed as u64)),
                    ("units", ArgValue::U64(num_units as u64)),
                    ("steals", ArgValue::U64(steals)),
                ],
            );
            tr.counter(Track::Scheduler, step_ns, "queued", queued_after as f64);
            tr.bump("ecofusion_steps_total", 1.0);
            if steals > 0 {
                tr.bump("ecofusion_steals_total", steals as f64);
            }
            if plans.0 > 0 {
                tr.bump("ecofusion_plan_cache_hits_total", plans.0 as f64);
            }
            if plans.1 > 0 {
                tr.bump("ecofusion_plan_cache_misses_total", plans.1 as f64);
            }
            if plans.2 > 0 {
                tr.bump("ecofusion_plan_cache_compiles_total", plans.2 as f64);
            }
        }
        self.sched_clock_ns = step_ns + 1;
        Ok(StepStats {
            tick,
            frames: processed,
            units: num_units,
            batch_sizes,
            steals,
            stolen_frames,
            queued_after,
        })
    }

    /// Partitions the picked frames into work units keyed on `(home
    /// shard, options)`, in first-seen order, filling the scheduler's unit
    /// slots. The grouping index is kept sorted, so grouping costs O(n log
    /// g) comparisons in the number of distinct groups, instead of the old
    /// O(n·g) linear scan per frame.
    ///
    /// Each lane contributes to exactly one unit per step (one home
    /// shard, one current options value), so moving its stem cache into
    /// the unit is safe, and all its frames stay in FIFO pick order
    /// inside that unit — the property that lets work stealing hand off
    /// whole units without ever reordering a stream.
    fn build_units(&mut self) {
        let tick = self.tick;
        let num_shards = self.shards.len();
        let StepBuffers { picked, units, live, groups, .. } = &mut self.step;
        groups.clear();
        *live = 0;
        for (pick, (lane_idx, queued)) in picked.drain(..).enumerate() {
            let opts = self.lanes[lane_idx].opts;
            let shard = shard_of(lane_idx, num_shards);
            let key = (shard, OptionsKey::of(&opts));
            let slot = match groups.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(at) => groups[at].1,
                Err(at) => {
                    groups.insert(at, (key, *live));
                    if *live == units.len() {
                        units.push(StepUnit::new(shard, opts));
                    }
                    units[*live].reset(shard, opts);
                    *live += 1;
                    *live - 1
                }
            };
            let payload = units[slot].payload_mut();
            payload.lane_ids.push(lane_idx);
            payload.frames.push(queued.frame);
            payload.waits.push(tick.saturating_sub(queued.enqueue_tick));
            payload.picks.push(pick as u64);
        }
        // Move the distinct lanes' stem caches into the unit so a stolen
        // unit still serves its streams' caches (hit/miss counters stay
        // invariant under stealing).
        let slot_of = &mut self.cache_slot_of;
        for unit in &mut units[..*live] {
            let payload = unit.payload_mut();
            for &lane in &payload.lane_ids {
                if slot_of[lane] == usize::MAX {
                    slot_of[lane] = payload.cache_lanes.len();
                    payload.cache_lanes.push(lane);
                }
                payload.cache_slot.push(slot_of[lane]);
            }
            for &lane in &payload.cache_lanes {
                slot_of[lane] = usize::MAX;
                payload.caches.push(std::mem::take(&mut self.stem_caches[lane]));
            }
        }
    }

    /// Serial post-join accounting: restores the moved stem caches and
    /// emits the shard-track unit spans in unit (= first-seen group)
    /// order, then records telemetry and budget spend per frame in
    /// **global pick order**. Per-lane accounting state is identical
    /// either way (each lane's frames stay in its own FIFO order inside
    /// one unit), but replaying the flat pick order also makes the
    /// emitted stream-track event sequence — and any future cross-lane
    /// accounting — independent of how units were grouped across shards.
    /// Returns the executed batch sizes, in unit order.
    fn account_units(&mut self, step_ns: u64) -> Result<Vec<usize>, InferError> {
        let tick = self.tick;
        let tracing = self.tracing();
        let mut first_err = None;
        let StepBuffers { units, live, rows, .. } = &mut self.step;
        let mut batch_sizes = Vec::with_capacity(*live);
        rows.clear();
        for unit in &mut units[..*live] {
            let home = unit.shard;
            let payload = unit.payload_mut();
            // Caches go back even when a unit failed: a lost step must
            // not silently reset a stream's stem cache.
            for (lane, cache) in payload.cache_lanes.iter().zip(payload.caches.drain(..)) {
                self.stem_caches[*lane] = cache;
            }
            if let Some(e) = payload.error.take() {
                first_err = first_err.or(Some(e));
                payload.frames.clear();
                continue;
            }
            let frames = payload.outputs.len();
            self.batches += 1;
            self.batched_frames += frames as u64;
            batch_sizes.push(frames);
            if tracing {
                // Unit span on the executing worker's shard track; with
                // stealing on and several shards the executor (and so
                // this span's track and any steal marker) is
                // schedule-dependent — documented as outside the
                // determinism invariant, like `ShardReport::busy_ms`.
                let worker = payload.executed_by;
                let tr = self.tracer.as_mut().expect("tracing implies a sink");
                let track = Track::Shard(worker as u32);
                let start = self.shard_clock_ns[worker].max(step_ns);
                let dur: u64 =
                    payload.outputs.iter().map(|o| ns_from_ms(o.energy.latency.millis())).sum();
                let streams =
                    payload.lane_ids.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
                tr.begin(
                    track,
                    start,
                    "unit",
                    vec![
                        ("home", ArgValue::U64(home as u64)),
                        ("worker", ArgValue::U64(worker as u64)),
                        ("frames", ArgValue::U64(frames as u64)),
                        ("streams", ArgValue::Text(streams)),
                        ("tick", ArgValue::U64(tick)),
                    ],
                );
                if worker != home {
                    tr.instant(
                        track,
                        start,
                        "steal",
                        vec![
                            ("victim", ArgValue::U64(home as u64)),
                            ("thief", ArgValue::U64(worker as u64)),
                            ("frames", ArgValue::U64(frames as u64)),
                        ],
                    );
                }
                tr.end(track, start + dur, "unit");
                self.shard_clock_ns[worker] = start + dur;
            }
            let UnitPayload { lane_ids, frames, outputs, waits, picks, .. } = payload;
            let taken = lane_ids.iter().zip(frames.drain(..)).zip(outputs.drain(..));
            rows.extend(taken.zip(waits.iter()).zip(picks.iter()).map(
                |((((&lane, frame), output), &wait), &pick)| Row {
                    pick,
                    lane,
                    frame,
                    output,
                    wait,
                },
            ));
        }
        // Picks are distinct, so an unstable sort is the pick order.
        rows.sort_unstable_by_key(|r| r.pick);
        for Row { lane: lane_idx, frame, output, wait, .. } in rows.drain(..) {
            let lane = &mut self.lanes[lane_idx];
            let mut frame_end_ns = 0;
            if tracing {
                let tr = self.tracer.as_mut().expect("tracing implies a sink");
                let start = self.stream_clock_ns[lane_idx].max(tick * TICK_NS);
                frame_end_ns = trace_frame(tr, lane_idx as u32, tick, start, &output);
                self.stream_clock_ns[lane_idx] = frame_end_ns;
                if output.gate_fallbacks > 0 {
                    tr.instant(
                        Track::Stream(lane_idx as u32),
                        start,
                        "gate_fallback",
                        vec![("tick", ArgValue::U64(tick))],
                    );
                    tr.bump("ecofusion_gate_fallbacks_total", output.gate_fallbacks as f64);
                }
            }
            let spent_j = output.energy.total_gated().joules();
            lane.telemetry.record(output, frame.gt_boxes(), wait);
            let level_before = lane.controller.level();
            if let Some(step) = lane.controller.record(spent_j) {
                lane.opts = step.apply(&lane.base_opts);
                // Policy rungs are built from the base options; the
                // health mask must survive ladder moves.
                if lane.health_gating {
                    lane.opts.health = lane.monitor.mask();
                }
                if tracing {
                    let level = lane.controller.level();
                    let (direction, reason) = if level > level_before {
                        ("escalate", "rolling energy over target")
                    } else {
                        ("relax", "rolling energy under relax margin")
                    };
                    let tr = self.tracer.as_mut().expect("tracing implies a sink");
                    tr.instant(
                        Track::Stream(lane_idx as u32),
                        frame_end_ns,
                        "ladder",
                        vec![
                            ("from", ArgValue::U64(level_before as u64)),
                            ("to", ArgValue::U64(level as u64)),
                            ("direction", ArgValue::Str(direction)),
                            ("reason", ArgValue::Str(reason)),
                            ("gate", ArgValue::Text(step.gate.to_string())),
                            ("lambda_e", ArgValue::F64(step.lambda_e)),
                            ("precision", ArgValue::Str(step.precision.label())),
                        ],
                    );
                    tr.bump(
                        &format!("ecofusion_ladder_moves_total{{direction=\"{direction}\"}}"),
                        1.0,
                    );
                    // Per-rung occupancy rides the metrics map (never
                    // evicted, unlike ring events) so coverage scoring can
                    // recover the set of rungs a run visited.
                    tr.bump(&format!("ecofusion_ladder_rung_total{{level=\"{level}\"}}"), 1.0);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(batch_sizes),
        }
    }

    /// Fleet budget coordination, once per step at the barrier: computes
    /// grants from per-stream rolling means (shard-invariant state, in
    /// lane order) and installs them on the controllers for the *next*
    /// step. No-op without a configured policy.
    fn coordinate_fleet_budget(&mut self) {
        let Some(policy) = self.cfg.fleet_budget else {
            return;
        };
        let postures: Vec<BudgetPosture> = self
            .lanes
            .iter()
            .map(|lane| BudgetPosture {
                target_j: lane.controller.budget().target_j,
                rolling_mean_j: lane.controller.rolling_mean_j(),
                window_full: lane.controller.window_full(),
            })
            .collect();
        let grants = redistribute_headroom(&policy, &postures);
        for (lane, grant) in self.lanes.iter_mut().zip(grants) {
            lane.controller.set_grant_j(grant);
        }
    }

    /// Processes until every queue is empty. Returns total frames
    /// processed.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the model.
    pub fn drain(&mut self) -> Result<usize, InferError> {
        let mut total = 0;
        loop {
            let n = self.process_step()?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Emits a fault-activation marker for `stream` (the simulation
    /// driver calls this when a stream's [`VehicleStream::fault_counts`]
    /// advanced while producing a frame). No-op without an enabled sink.
    fn trace_fault(&mut self, stream: usize, tick: u64, events: u64) {
        let Some(tr) = self.tracer.as_mut().filter(|t| t.is_enabled()) else {
            return;
        };
        tr.instant(
            Track::Stream(stream as u32),
            tick * TICK_NS,
            "fault",
            vec![("tick", ArgValue::U64(tick)), ("events", ArgValue::U64(events))],
        );
        tr.bump("ecofusion_fault_events_total", events as f64);
    }

    /// Round-robin pick of up to `max_batch` queued frames across lanes,
    /// into `step.picked`.
    fn coalesce(&mut self) {
        let picked = &mut self.step.picked;
        picked.clear();
        'fill: loop {
            let mut any = false;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if picked.len() >= self.cfg.max_batch {
                    break 'fill;
                }
                if let Some(q) = lane.queue.pop() {
                    picked.push((i, q));
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

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
                    stems_cached: lane.telemetry.stems_cached(),
                    stems_skipped: lane.telemetry.stems_skipped(),
                    int8_frames: lane.telemetry.int8_frames(),
                    gate_fallbacks: lane.telemetry.gate_fallbacks(),
                    final_precision: lane.opts.precision,
                    stem_cache_hits: self.stem_caches[i].hits(),
                    stem_cache_misses: self.stem_caches[i].misses(),
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
        let num_shards = self.shards.len();
        let shards = self
            .shards
            .states()
            .enumerate()
            .map(|(i, s)| ShardReport {
                shard: i,
                streams: (0..self.lanes.len()).filter(|&l| shard_of(l, num_shards) == i).count(),
                frames: s.frames,
                batches: s.batches,
                steals: s.steals,
                stolen_frames: s.stolen_frames,
                busy_ms: s.busy_ns as f64 / 1e6,
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
            total_stems_saved: per_stream.iter().map(|s| s.stems_cached + s.stems_skipped).sum(),
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

/// Drives `server` for `ticks` scheduler ticks against live streams: each
/// tick, every stream due per its period/phase produces one frame (unless
/// its stall-policy queue is full, which defers the producer), then one
/// processing step runs. Remaining queued frames are drained at the end so
/// the report covers every accepted frame.
///
/// # Errors
/// Propagates [`InferError`] from the model.
///
/// # Panics
/// Panics if `streams.len()` differs from the server's stream count.
pub fn run_simulation(
    server: &mut PerceptionServer,
    streams: &mut [VehicleStream],
    ticks: u64,
) -> Result<(), InferError> {
    run_simulation_observed(server, streams, ticks, |_: &Frame| {})
}

/// Observer of a [`run_simulation_observed`] drive: sees every produced
/// frame and the scheduler stats of every non-empty processing step.
/// Both hooks default to no-ops, and any `FnMut(&Frame)` closure is an
/// observer (frame hook only), so the pre-existing closure call sites
/// keep working unchanged. The workload-suite harness and the tracer
/// share this single observation path.
pub trait SimObserver {
    /// Called with every produced frame, just before it is offered to
    /// the server (whether or not backpressure later drops it).
    fn on_frame(&mut self, _frame: &Frame) {}

    /// Called after every processing step that handled at least one
    /// frame, with that step's scheduler stats.
    fn on_step(&mut self, _stats: &StepStats) {}
}

impl<F: FnMut(&Frame)> SimObserver for F {
    fn on_frame(&mut self, frame: &Frame) {
        self(frame)
    }
}

/// [`run_simulation`] with a [`SimObserver`]: the observer sees every
/// produced frame and the per-step scheduler stats (tick, batch sizes,
/// steals). Fault-schedule activations are also surfaced here — the
/// driver is the only place that can see a stream's injector counters
/// advance — as `fault` trace events when the server has a tracer.
///
/// # Errors
/// Propagates [`InferError`] from the model.
///
/// # Panics
/// Panics if `streams.len()` differs from the server's stream count.
pub fn run_simulation_observed(
    server: &mut PerceptionServer,
    streams: &mut [VehicleStream],
    ticks: u64,
    mut observer: impl SimObserver,
) -> Result<(), InferError> {
    assert_eq!(streams.len(), server.num_streams(), "stream/server mismatch");
    let mut fault_events: Vec<u64> = streams.iter().map(|s| s.fault_counts().1).collect();
    for tick in 0..ticks {
        for (i, stream) in streams.iter_mut().enumerate() {
            if !stream.emits_at(tick) {
                continue;
            }
            let stall_policy =
                stream.spec().backpressure == crate::queue::BackpressurePolicy::Stall;
            // An over-producing source emits `burst()` frames per due
            // tick (1 for every pre-existing spec); the stall check runs
            // per frame so a queue that fills mid-burst defers only the
            // remainder of the burst.
            for _ in 0..stream.spec().burst() {
                if stall_policy && server.queue_full(i) {
                    server.record_stall(i);
                    continue;
                }
                let frame = stream.next_frame();
                let (_, events) = stream.fault_counts();
                if events > fault_events[i] {
                    server.trace_fault(i, tick, events - fault_events[i]);
                    fault_events[i] = events;
                }
                observer.on_frame(&frame);
                server.ingest(i, frame);
            }
        }
        let stats = server.process_step_stats()?;
        if stats.frames > 0 {
            observer.on_step(&stats);
        }
        server.advance_tick();
    }
    // Drain every remaining queued frame so the report covers everything
    // accepted, still surfacing each step to the observer.
    loop {
        let stats = server.process_step_stats()?;
        if stats.frames == 0 {
            break;
        }
        observer.on_step(&stats);
    }
    Ok(())
}

/// Static label of a health state for trace event arguments.
fn health_label(state: HealthState) -> &'static str {
    match state {
        HealthState::Healthy => "healthy",
        HealthState::Degraded => "degraded",
        HealthState::Failed => "failed",
    }
}
