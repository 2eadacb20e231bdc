//! The multi-stream scheduler: round-robin frame coalescing into
//! cross-stream micro-batches, sharded multi-core execution (see
//! [`crate::shard`]), budget-driven policy adaptation (per-stream ladders
//! plus an optional fleet-wide headroom coordinator), and the aggregate
//! runtime report (its types and [`PerceptionServer::report`] live in the
//! `report` submodule).
//!
//! [`PerceptionServer::process_step_stats`] is a list of its phases —
//! budget timelines, coalesce, health, build units, execute, account,
//! fleet budget, record the step — each a method of its own. What the
//! flight recorder sees, the phases tell the server's private step
//! recorder (`crate::recorder`), which owns the sink and its clocks.

use crate::budget::{
    default_ladder, redistribute_headroom, BudgetController, BudgetPosture, BudgetTimeline,
    FleetBudgetPolicy,
};
use crate::queue::{FrameQueue, IngestOutcome, QueuedFrame};
use crate::recorder::{self, Recorder};
use crate::shard::{shard_of, ShardPool, ShardReport, StepUnit, UnitPayload};
use crate::stream::{StreamSpec, VehicleStream};
use crate::telemetry::StreamTelemetry;
use ecofusion_core::model::InferError;
use ecofusion_core::{CandidateRule, EcoFusionModel, Frame, InferenceOptions, InferenceOutput};
use ecofusion_faults::SensorHealthMonitor;
use ecofusion_gating::GateKind;
use ecofusion_sensors::SensorMask;
use ecofusion_trace::TraceSink;

mod report;

pub use report::{RuntimeReport, StreamReport};

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
    cfg: RuntimeConfig,
    tick: u64,
    batches: u64,
    batched_frames: u64,
    /// What each shard's worker executed, counted serially from every
    /// unit's `executed_by` (`busy_ms` is the shard's own, read by
    /// [`PerceptionServer::report`]).
    shard_work: Vec<ShardReport>,
    /// The flight recorder (see [`PerceptionServer::set_tracer`]); only
    /// the serial scheduler phases call it, never the worker threads.
    recorder: Option<Recorder>,
    /// The buffers of the scheduler's own phases.
    step: StepBuffers,
}

/// The scheduler's step buffers — what `coalesce`, `build_units` and
/// `account_units` would otherwise allocate every step, the work units
/// themselves included. A unit slot keeps its frame, lane, wait, pick
/// and output lists across steps, cleared and refilled, so a warm
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
/// per-step scheduler stats the flight recorder's step marker records.
///
/// All fields except `steals`/`stolen_frames` are shard-count-invariant;
/// steal counts depend on thread timing (like
/// [`crate::ShardReport::busy_ms`]) and are always 0 with a single shard.
/// They count every unit a non-home worker ran, failed ones included.
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
        let shard_work = (0..num_shards)
            .map(|shard| ShardReport {
                shard,
                streams: (0..specs.len()).filter(|&l| shard_of(l, num_shards) == shard).count(),
                ..ShardReport::default()
            })
            .collect();
        PerceptionServer {
            shards: ShardPool::new(model, num_shards),
            grid,
            lanes: specs.iter().map(Lane::new).collect(),
            cfg,
            tick: 0,
            batches: 0,
            batched_frames: 0,
            shard_work,
            recorder: None,
            step: StepBuffers::default(),
        }
    }

    /// Installs an event sink; every subsequent step emits frame/stage
    /// spans, scheduler unit spans, and decision events into it, on
    /// virtual clocks that start at zero. Pass [`TraceSink::disabled`]
    /// (or never call this) for the zero-overhead path — every hook is
    /// one branch.
    pub fn set_tracer(&mut self, sink: TraceSink) {
        let rungs = self.lanes.iter().map(|l| l.controller.rungs()).max().unwrap_or(0);
        self.recorder = Some(Recorder::new(sink, self.lanes.len(), self.shards.len(), rungs));
    }

    /// Removes and returns the installed sink (for export after a run).
    pub fn take_tracer(&mut self) -> Option<TraceSink> {
        self.recorder.take().map(Recorder::into_sink)
    }

    /// The installed sink, if any.
    pub fn tracer(&self) -> Option<&TraceSink> {
        self.recorder.as_ref().map(Recorder::sink)
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
        let mut rec = recorder::armed(&mut self.recorder);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let Some(target) = lane.timeline.as_ref().and_then(|t| t.target_at(tick)) else {
                continue;
            };
            if lane.controller.budget().target_j != target {
                lane.controller.set_target_j(target);
                if let Some(rec) = &mut rec {
                    rec.retarget(i, tick, target);
                }
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
    /// scheduler stats ([`StepStats`]) instead of just the frame count —
    /// what the tracer's scheduler track records.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the model.
    pub fn process_step_stats(&mut self) -> Result<StepStats, InferError> {
        let tick = self.tick;
        self.apply_budget_timelines();
        self.coalesce();
        let mut stats = StepStats { tick, frames: self.step.picked.len(), ..StepStats::default() };
        if stats.frames == 0 {
            return Ok(stats);
        }
        self.update_health();
        self.build_units();
        stats.units = self.step.live;
        self.shards.execute(&mut self.step.units, stats.units, self.cfg.work_stealing);
        self.account_units(&mut stats)?;
        self.coordinate_fleet_budget();
        stats.queued_after = self.queued();
        if let Some(rec) = recorder::armed(&mut self.recorder) {
            rec.step(&stats, self.shards.states().map(|mut s| s.model.take_plan_delta()));
        }
        Ok(stats)
    }

    /// Health monitoring: every popped frame updates its lane's monitor,
    /// in pick order, before options are grouped, so the mask each
    /// micro-batch runs with reflects the newest evidence. When several
    /// frames of one lane are popped in a single step they all execute
    /// under the lane's final (most-informed) mask, and telemetry counts
    /// against that same mask so the counters always describe the gating
    /// that actually ran. With fault-aware gating off (the default) the
    /// monitor still tracks health for telemetry but the lane's options —
    /// and therefore every inference result — stay untouched.
    fn update_health(&mut self) {
        let tick = self.tick;
        let mut rec = recorder::armed(&mut self.recorder);
        for (lane_idx, queued) in &self.step.picked {
            let monitor = &mut self.lanes[*lane_idx].monitor;
            let before = monitor.states();
            monitor.update(&queued.frame.obs);
            if let Some(rec) = &mut rec {
                rec.health(*lane_idx, tick, before, monitor.states());
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
    }

    /// Partitions the picked frames into work units keyed on `(home
    /// shard, options)`, in first-seen order, filling the scheduler's unit
    /// slots. The grouping index is kept sorted, so grouping costs O(n log
    /// g) comparisons in the number of distinct groups, instead of the old
    /// O(n·g) linear scan per frame.
    ///
    /// Each lane contributes to exactly one unit per step (one home
    /// shard, one current options value), and all its frames stay in FIFO
    /// pick order inside that unit — the property that lets work stealing
    /// hand off whole units without ever reordering a stream.
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
    }

    /// Serial post-join accounting: counts each unit to the worker that
    /// ran it (its steals into `stats` too) and records its span, in unit
    /// (= first-seen group) order, then records telemetry and budget
    /// spend per frame in **global pick order**. Per-lane accounting
    /// state is identical either way (each lane's frames stay in its own
    /// FIFO order inside one unit), but replaying the flat pick order also
    /// makes the recorded stream-track event sequence — and any future
    /// cross-lane accounting — independent of how units were grouped
    /// across shards. Fills `stats`' batch sizes, in unit order, and steal
    /// counts.
    fn account_units(&mut self, stats: &mut StepStats) -> Result<(), InferError> {
        let tick = self.tick;
        let mut rec = recorder::armed(&mut self.recorder);
        let mut first_err = None;
        let StepBuffers { units, live, rows, .. } = &mut self.step;
        stats.batch_sizes = Vec::with_capacity(*live);
        rows.clear();
        for unit in &mut units[..*live] {
            let home = unit.shard;
            let payload = unit.payload_mut();
            let (worker, frames) = (payload.executed_by, payload.frames.len());
            let work = &mut self.shard_work[worker];
            work.frames += frames as u64;
            work.batches += 1;
            if worker != home {
                work.steals += 1;
                work.stolen_frames += frames as u64;
                stats.steals += 1;
                stats.stolen_frames += frames as u64;
            }
            if let Some(e) = payload.error.take() {
                first_err = first_err.or(Some(e));
                payload.frames.clear();
                continue;
            }
            self.batches += 1;
            self.batched_frames += frames as u64;
            stats.batch_sizes.push(frames);
            if let Some(rec) = &mut rec {
                rec.unit(tick, home, payload);
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
            if let Some(rec) = &mut rec {
                rec.frame(lane_idx, tick, &output);
            }
            let lane = &mut self.lanes[lane_idx];
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
                if let Some(rec) = &mut rec {
                    rec.ladder(lane_idx, level_before, lane.controller.level(), &step);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
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

/// [`run_simulation`] that hands every produced frame to `on_frame`,
/// just before it is offered to the server (whether or not backpressure
/// later drops it). Fault-schedule activations are also surfaced here —
/// the driver is the only place that can see a stream's injector counters
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
    mut on_frame: impl FnMut(&Frame),
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
                    if let Some(rec) = recorder::armed(&mut server.recorder) {
                        rec.fault(i, tick, events - fault_events[i]);
                    }
                    fault_events[i] = events;
                }
                on_frame(&frame);
                server.ingest(i, frame);
            }
        }
        server.process_step()?;
        server.advance_tick();
    }
    // Drain every remaining queued frame so the report covers everything
    // accepted.
    while server.process_step()? > 0 {}
    Ok(())
}
