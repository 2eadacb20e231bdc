//! Multi-stream perception runtime.
//!
//! The paper evaluates EcoFusion one vehicle at a time; the production
//! target is a server that ingests **many concurrent vehicle streams** and
//! keeps each within its energy budget while amortizing compute across
//! them — and across cores. This crate provides that layer on top of
//! [`EcoFusionModel::infer_batch`](ecofusion_core::EcoFusionModel::infer_batch):
//!
//! ```text
//!  VehicleStream 0 ──┐ (seeded SceneSequence + context drift)
//!  VehicleStream 1 ──┤
//!       ...          ├─▶ per-stream FrameQueue (bounded, backpressure)
//!  VehicleStream N ──┘            │
//!                                 ▼  global round-robin pick (serial:
//!                                    the pop schedule, and so every
//!                                    drop/stall, is shard-invariant)
//!                     work units keyed on (home shard, InferenceOptions)
//!                                 │
//!              ┌──────────────────┼──────────────────┐ shard workers
//!              ▼                  ▼                  ▼
//!          shard 0            shard 1    ...     shard S-1
//!       (model replica;    (model replica;    (model replica;
//!        the caller of      a helper thread    a helper thread
//!        process_step)      started with       started with
//!                           the server)        the server)
//!       infer_batch_into on each unit; a drained shard steals
//!       whole units of other shards (never splitting a stream's
//!       FIFO run)
//!              └──────────────────┼──────────────────┘
//!                                 ▼  serial accounting, unit order
//!      StreamTelemetry     BudgetController      RuntimeReport
//!      (energy/latency/    (rolling energy vs    (per-stream reports,
//!       accuracy)           budget → ladder;      fleet latency
//!                           fleet coordinator     percentiles, shard
//!                           regrants headroom)    stats)
//! ```
//!
//! # Sharded execution and the determinism invariant
//!
//! [`RuntimeConfig::shards`] partitions streams round-robin across worker
//! shards, each owning a snapshot-restored replica of the serving model
//! (restore is inference-bit-identical, and inference never mutates
//! observable model state). Every processing step picks frames with the
//! *single global* round-robin coalescer first — so queue pops,
//! backpressure drops, and stalls cannot depend on the shard layout —
//! then executes per-shard option-keyed groups in parallel and accounts
//! results serially in group order. Batched inference is bit-identical to
//! sequential, so the invariant holds by construction and is asserted by
//! this crate's tests and the CI shard matrix: **per-stream outputs,
//! selection digests, and reports are bit-identical for any shard count,
//! with work stealing on or off.** Cross-stream batching (PR 2) was
//! amortization-bound on one core; shards resolve that caveat — on an
//! S-core host, S shards execute their micro-batches concurrently. The
//! thread that calls `process_step` is shard 0's worker; every other
//! shard runs on a helper thread the server starts once, parks between
//! steps and joins when it is dropped (see [`shard`]).
//!
//! **Work stealing** ([`RuntimeConfig::work_stealing`]): a worker whose
//! shard has no unclaimed units left claims whole units of other shards,
//! newest unit first, via one atomic compare-exchange per claim. A
//! stream's frames for a step always travel in one unit, so stealing
//! never reorders a stream. Which worker ran a unit shows only in
//! [`ShardReport`]: the flight recorder never sees it.
//!
//! **Fleet budget coordinator** ([`RuntimeConfig::fleet_budget`]): once
//! per step, streams whose rolling spend sits comfortably under their
//! [`EnergyBudget`] donate a fraction of that headroom into a pool that
//! over-budget streams draw from (pro rata to their deficit, capped at a
//! fraction of their own target) via [`BudgetController::set_grant_j`].
//! Grants are computed at the step barrier from per-stream rolling means
//! — shard-invariant state — so coordination composes with sharding
//! without touching the determinism invariant.
//!
//! * [`VehicleStream`] — a deterministic frame source: a seeded
//!   [`ScenarioGenerator`](ecofusion_scene::ScenarioGenerator) whose
//!   context drifts over time, rolled forward in
//!   [`SceneSequence`](ecofusion_scene::SceneSequence) segments and
//!   rendered through the sensor suite.
//! * [`FrameQueue`] — a bounded per-stream queue. When full, the
//!   [`BackpressurePolicy`] either drops the oldest queued frame
//!   (freshness wins) or stalls the producer (completeness wins).
//! * [`PerceptionServer`] — the scheduler: each processing step pops
//!   ready frames round-robin across streams, groups them by their
//!   stream's current [`InferenceOptions`](ecofusion_core::InferenceOptions),
//!   and feeds each group through one batched staged-pipeline call.
//!   Results are bit-identical to running per-stream sequential `infer`
//!   (guaranteed by the batched path and asserted by this crate's tests);
//!   stem executions saved by demand-driven pruning surface in
//!   [`StreamReport`].
//! * [`BudgetController`] — per-stream rolling energy accounting. When the
//!   rolling mean total (platform + clock-gated sensor) energy exceeds the
//!   stream's [`EnergyBudget`], the controller escalates along a
//!   [`PolicyStep`] ladder (raising `λ_E`, ultimately switching to the
//!   knowledge gate); when spend falls well below budget it relaxes back.
//! * [`StreamTelemetry`] / [`RuntimeReport`] — per-stream frames, energy,
//!   latency, queue waits, drops, detection accuracy, and sensor-health
//!   counters (degraded/masked frames, health transitions), rolled into
//!   an [`EvalSummary`](ecofusion_eval::EvalSummary) per stream.
//! * **Fault tolerance** — [`VehicleStream::with_faults`] attaches an
//!   [`ecofusion_faults::FaultSchedule`] to a stream's observations; each
//!   lane runs an [`ecofusion_faults::SensorHealthMonitor`], and with
//!   [`StreamSpec::health_gating`] enabled the monitor's availability
//!   mask feeds the stream's
//!   [`InferenceOptions`](ecofusion_core::InferenceOptions) so gating
//!   steers away from dead sensors (surviving budget-ladder moves).
//!   Malformed frames are rejected at ingest with
//!   [`IngestOutcome::RejectedMalformed`] instead of panicking, so one
//!   broken producer cannot take down the server.
//! * **Flight recorder** — [`PerceptionServer::set_tracer`] installs an
//!   [`ecofusion_trace::TraceSink`]. A private step recorder then owns
//!   it, the virtual clocks its spans are laid out on, and every span,
//!   marker and metric of the serving path: frame and stage spans, unit
//!   spans on their home shard's track, step markers, ladder moves and
//!   rungs, gate fallbacks, health transitions, budget retargets and
//!   fault activations — what the server decided, never which thread
//!   ran it, so a recording depends on the streams and the shard layout
//!   alone. The scheduler's serial phases call it; without a sink, or
//!   with a disabled one, each call site is one branch.

#![forbid(unsafe_code)]

pub mod budget;
pub mod hist;
pub mod queue;
mod recorder;
pub mod scheduler;
pub mod shard;
pub mod stream;
pub mod telemetry;

pub use budget::{
    redistribute_headroom, BudgetController, BudgetPhase, BudgetPosture, BudgetTimeline,
    EnergyBudget, FleetBudgetPolicy, PolicyStep,
};
pub use hist::LatencyHistogram;
pub use queue::{BackpressurePolicy, FrameQueue, IngestOutcome};
pub use scheduler::{
    run_simulation, run_simulation_observed, PerceptionServer, RuntimeConfig, RuntimeReport,
    StepStats, StreamReport,
};
pub use shard::ShardReport;
pub use stream::{StreamSpec, VehicleStream};
pub use telemetry::StreamTelemetry;
