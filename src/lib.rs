//! # EcoFusion
//!
//! A Rust reproduction of *"EcoFusion: Energy-Aware Adaptive Sensor Fusion
//! for Efficient Autonomous Vehicle Perception"* (DAC 2022).
//!
//! This facade crate re-exports the public API of every workspace crate so a
//! downstream user can depend on `ecofusion` alone.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ecofusion::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a synthetic RADIATE-like dataset, train the model, and run
//! // the adaptive pipeline on one frame.
//! let spec = DatasetSpec::small(42);
//! let dataset = Dataset::generate(&spec);
//! let mut trainer = Trainer::new(TrainConfig::fast_demo(), 42);
//! let mut model = trainer.train(&dataset)?;
//! let frame = &dataset.test()[0];
//! let out = model.infer(frame, &InferenceOptions::new(0.01, 0.5))?;
//! println!("selected {}, {} detections, {:.3} J",
//!          out.selected_label, out.detections.len(), out.energy_joules());
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios.
//!
//! ## Performance
//!
//! All linear algebra runs on the `Blocked` kernels of
//! [`tensor::backend`]: register-tiled FMA GEMM, im2col+GEMM convolution
//! with scratch reuse for training, direct convolution inside the
//! compiled inference plans, and scoped-thread parallelism. The call is
//! static — there is no mode to select. `Reference` keeps the original
//! scalar loops as the oracle the kernel tests hold `Blocked` to (they
//! agree within `1e-4`, enforced by property tests); `Blocked` is ≥3×
//! faster on GEMM-bound shapes and >10× on branch convolutions — `cargo
//! bench -p ecofusion-bench --bench tensor_ops -- backend` measures it on
//! your machine.
//!
//! For throughput over many frames, prefer
//! [`core::EcoFusionModel::infer_batch`] over per-frame
//! [`core::EcoFusionModel::infer`]: each demanded stem runs once per
//! sensor over the stacked batch, learned gates score all frames in one
//! pass, and each branch executes once over the frames that selected it,
//! with per-frame results identical to the sequential path.
//!
//! ## Staged pipeline
//!
//! Both entry points are thin drivers over an explicit stage graph
//! ([`core::pipeline`]): Sense → Stems → GateScore → Select → Branch →
//! Fuse → Account — and so is everything else that infers: a static
//! baseline ([`core::EcoFusionModel::detect_static`]) is its Branch and
//! Fuse stages under a fixed selection, and gate targets and gate
//! assessment read the loss-based oracle's block
//! ([`core::EcoFusionModel::oracle_pass`]). A [`core::PipelinePlan`] prunes the Stems stage
//! *before* execution: feature-free gates (knowledge, oracle) gate and
//! select first and run only the winning configuration's stems — a City
//! stream rerouted to `{E(L+R)}` runs 2 of 4, the budget ladder's
//! emergency rung just 1 — while sensors a health mask rules out
//! contribute zero-filled gate features and skip their stems. Every
//! inference carries an [`energy::StageTrace`], the one record of its
//! Eq. 11 cost: the charge of every stage (its totals, such as
//! [`energy::StageTrace::total_energy`], are added up from them) plus
//! executed/pruned stem counters, threaded through
//! [`core::InferenceOutput`], the runtime's telemetry and reports, and
//! [`eval::EvalSummary`]. See `examples/stage_profile.rs`.
//!
//! ## Streaming runtime
//!
//! The [`runtime`] crate serves **many concurrent vehicle streams** from
//! one model:
//!
//! ```text
//! streams ─▶ bounded per-stream queues ─▶ round-robin coalescing
//!         ─▶ cross-stream micro-batches ─▶ infer_batch ─▶ telemetry
//! ```
//!
//! Each [`runtime::VehicleStream`] is a seeded scene sequence whose
//! driving context drifts over time. Frames land in bounded per-stream
//! queues whose [`runtime::BackpressurePolicy`] either drops the oldest
//! frame (freshness wins) or stalls the producer (completeness wins) when
//! full. The [`runtime::PerceptionServer`] coalesces ready frames across
//! streams into micro-batches — results are bit-identical to per-stream
//! sequential `infer`, so batching only changes throughput. Per-stream
//! [`runtime::EnergyBudget`]s map rolling energy spend to gate policy: a
//! stream over budget climbs a [`runtime::PolicyStep`] ladder that raises
//! `λ_E`, widens the candidate margin `γ`, and ultimately runs the
//! knowledge gate with every configuration a candidate (the single
//! cheapest branch), relaxing back with hysteresis once spend falls. Each
//! stream's accuracy/energy/latency telemetry aggregates — through the
//! same [`eval::EvalAccumulator`] — into the [`eval::EvalSummary`] the
//! offline harness reports. See
//! `examples/streaming_server.rs`.
//!
//! ## Sensor faults & fault-aware gating
//!
//! The [`faults`] crate makes sensor degradation a scriptable scenario
//! axis. A [`faults::FaultSchedule`] describes per-sensor events (dropout,
//! frozen frame, noise burst, growing calibration drift, context-tied
//! weather attenuation) with onset, duration, and severity; a
//! [`faults::FaultInjector`] applies them to the output of
//! [`sensors::SensorSuite::observe`] — bit-identical passthrough when no
//! event is active, seeded per-`(frame, event)` RNG streams when one is,
//! so degraded runs are exactly as reproducible as clean ones. A
//! [`faults::SensorHealthMonitor`] estimates per-sensor health online from
//! grid statistics (energy/variance/frame-delta EWMAs) and summarizes
//! failed sensors as a [`sensors::SensorMask`]. The mask rides in
//! [`core::InferenceOptions`]: configurations that need a masked sensor
//! are penalized out of Eq. 7–9 selection, and the knowledge gate walks
//! per-context degraded fallback rules instead of its primary choice.
//! [`runtime::VehicleStream::with_faults`] attaches schedules to served
//! streams, per-lane monitors feed masks when
//! [`runtime::StreamSpec::health_gating`] is on, and the
//! `eval` robustness experiment sweeps the fault matrix clean vs.
//! fault-blind vs. fault-aware. See `examples/fault_injection.rs`.
//!
//! ## Observability
//!
//! The [`trace`] crate is a deterministic flight recorder: a bounded
//! ring of typed events ([`trace::TraceSink`]) on virtual, tick-derived
//! time, so a seeded run emits a *bit-identical* event sequence on every
//! host, every rerun, and (for the stream tracks and the metrics) every
//! shard count.
//! Install a sink on a server with
//! [`runtime::PerceptionServer::set_tracer`] and the runtime's step
//! recorder — the one module that writes to it — records every layer:
//! per-stage pipeline spans with exact modeled energy/latency, scheduler
//! steps and work units, budget-ladder moves, knowledge-gate
//! fallbacks, sensor-health transitions, and fault activations. Export
//! with [`trace::chrome_trace_json`] (load in Perfetto) or
//! [`trace::prometheus_snapshot`]; with no sink installed every hook is
//! one branch — gated bench numbers are unchanged, which CI asserts. See
//! `examples/trace_observability.rs`, and `bench_report --trace DIR`, which
//! writes one Chrome trace and one snapshot per workload suite.

pub use ecofusion_core as core;
pub use ecofusion_detect as detect;
pub use ecofusion_energy as energy;
pub use ecofusion_eval as eval;
pub use ecofusion_faults as faults;
pub use ecofusion_gating as gating;
pub use ecofusion_harness as harness;
pub use ecofusion_runtime as runtime;
pub use ecofusion_scene as scene;
pub use ecofusion_search as search;
pub use ecofusion_sensors as sensors;
pub use ecofusion_tensor as tensor;
pub use ecofusion_trace as trace;

/// Convenient single-import surface for the most common types.
pub mod prelude {
    pub use ecofusion_core::{
        BranchId, ConfigId, ConfigSpace, Dataset, DatasetSpec, EcoFusionModel, Frame,
        InferenceOptions, PipelinePlan, TrainConfig, Trainer,
    };
    pub use ecofusion_detect::{BBox, Detection, WbfParams};
    pub use ecofusion_energy::{Joules, Millis, Px2Model, SensorPowerModel, StageKind, StageTrace};
    pub use ecofusion_eval::{map_voc, EvalSummary};
    pub use ecofusion_faults::{
        FaultInjector, FaultKind, FaultSchedule, HealthState, SensorHealthMonitor,
    };
    pub use ecofusion_gating::{AttentionGate, DeepGate, GateKind, KnowledgeGate, LossBasedGate};
    pub use ecofusion_runtime::{
        run_simulation, run_simulation_observed, BackpressurePolicy, EnergyBudget,
        PerceptionServer, RuntimeConfig, RuntimeReport, StepStats, StreamSpec, VehicleStream,
    };
    pub use ecofusion_scene::{Context, ObjectClass, ScenarioGenerator, Scene};
    pub use ecofusion_sensors::{SensorKind, SensorMask, SensorSuite};
    pub use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
}
