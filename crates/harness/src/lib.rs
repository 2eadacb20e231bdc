//! Deterministic workload-suite harness and regression gate.
//!
//! EcoFusion's whole claim is a quantified trade-off curve — energy,
//! latency, and mAP per gating strategy (Eq. 11, Table 2). This crate
//! turns that curve into an *enforced invariant*: named, fully seeded
//! workload suites run end to end through the real
//! [`PerceptionServer`](ecofusion_runtime::PerceptionServer), emit one
//! machine-readable [`BenchReport`] per run, and a compare mode diffs a
//! fresh report against a committed baseline under per-metric tolerances
//! so CI fails when behavior drifts or costs grow.
//!
//! ```text
//!  SuiteId::ALL ──▶ plan(scale) ──▶ stream_specs()     Scenario (JSON)
//!        │                               │                   │
//!        │                               ▼                   ▼
//!        │         drive(): PerceptionServer (real runtime: queues,
//!        │         batching, budget ladder, health gating, stem caches)
//!        │                               │
//!        ▼                               ▼
//!  run_report() ◀── SuiteReport ◀── Rollup::absorb ──▶ ScenarioOutcome
//!        │          (mAP, stage sums, latency histogram, stem & cache
//!        ▼           counters, ScenarioCounters, FNV-1a digest)
//!  BenchReport JSON ──▶ compare(baseline, fresh)
//!                           │  (exact diff of every unbanded field)
//!                           ▼
//!              Vec<Violation> (empty = gate passes)
//! ```
//!
//! ## The seven suites
//!
//! | suite | exercises |
//! |---|---|
//! | `steady_city`      | steady-state serving, one City stream |
//! | `context_churn`    | drift walk across the whole RADIATE context mix |
//! | `fault_storm`      | scripted dropout/frozen/drift/noise faults with health gating |
//! | `budget_squeeze`   | budget ladder driven to the emergency rung |
//! | `fleet_scale`      | 1/4/16/64/256-stream fleets, cross-stream batching |
//! | `queue_saturation` | stall-policy producers over-producing into short queues |
//! | `mixed_policy`     | heterogeneous per-stream gates in one batch group |
//!
//! Beyond the hand-written suites, the [`scenario`] module defines
//! serializable adversarial scenarios, their coverage signatures, and
//! the distilled record–replay suites the `ecofusion-search` crate
//! discovers; committed distilled suites under `suites/distilled/` are
//! replayed by `cargo test` (`tests/committed_gates.rs`) beside the
//! table above's baseline compares.
//!
//! ## Determinism contract
//!
//! Every suite is a pure function of its definition: stream seeds, drift
//! walks, sensor noise, fault schedules, and the model weights are all
//! seeded, and a report records no clock, so every suite-level field is
//! gated strictly or with an explicit band — see [`compare`] for the
//! exact rules.
//!
//! Run it via the `bench_report` binary:
//!
//! ```text
//! cargo run --release -p ecofusion-bench --bin bench_report -- --quick
//! cargo run --release -p ecofusion-bench --bin bench_report -- compare
//! ```

pub mod compare;
pub mod digest;
pub mod report;
pub mod run;
pub mod scenario;
pub mod suites;

pub use compare::{compare, Violation};
pub use report::{
    BenchReport, BuildMeta, FleetPoint, LatencyStats, ShardPoint, SuiteReport, SCHEMA_VERSION,
};
pub use run::{reconcile_metrics, run_report, run_suite, ModelProvider, TRACE_RING_EVENTS};
pub use scenario::{
    load_distilled_dir, replay_distilled, run_scenario, CoverageSignature, DistilledProvenance,
    DistilledSuite, ReplayDrift, Scenario, ScenarioCounters, ScenarioOutcome, ScenarioSize,
    ScenarioStream, StaleDistilledSuite, DEFAULT_DISTILLED_DIR, DISTILLED_SCHEMA_VERSION,
};
pub use suites::{plan, stream_specs, SuiteId, SuitePlan, MODEL_SEED, SUITE_CLASSES, SUITE_GRID};

/// Default location of the committed baseline the gate compares
/// against.
pub const DEFAULT_BASELINE_PATH: &str = "baselines/bench_baseline.json";
