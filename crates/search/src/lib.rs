//! Coverage-guided adversarial scenario search.
//!
//! The hand-written workload suites only defend scenarios someone
//! thought to author. This crate *discovers* them: starting from a few
//! seeded templates, it mutates the three adversarial input axes of a
//! [`Scenario`](ecofusion_harness::Scenario) — fault schedules
//! (shift/split/merge/severity-perturb events), scripted context walks
//! (dwell edits, forced ambiguous transitions), and budget timelines
//! (squeeze ramps, oscillations) — entirely under one seeded RNG, runs
//! every candidate through the real
//! [`PerceptionServer`](ecofusion_runtime::PerceptionServer), and keeps
//! a candidate only when its
//! [`CoverageSignature`](ecofusion_harness::CoverageSignature) (ladder
//! rungs hit, gate-decision churn, health transitions, knowledge-gate
//! fallbacks, per-stage energy overshoot, mAP loss vs. the clean twin)
//! lands in a behavior class the corpus has not seen.
//!
//! ```text
//!  seed templates ──▶ mutate (faults / walks / timelines, seeded RNG)
//!        ▲                      │
//!        │                      ▼
//!     corpus ◀── novel? ── CoverageSignature ◀── run_scenario (real server)
//!        │                                            ▲ clean twin (memoized)
//!        ▼
//!   minimize (drop events/segments/phases while the signature holds)
//!        │
//!        ▼
//!   DistilledSuite JSON ──▶ suites/distilled/ ──▶ replayed by `cargo test`
//! ```
//!
//! Everything is deterministic: the same `(seed, config)` search
//! produces a bit-identical corpus, minimization is a fixed-point
//! greedy pass in a fixed order, and the distilled suites record the
//! exact digest and counters a replay must reproduce (the property
//! tests assert both).
//!
//! The `scenario_search` binary in `ecofusion-bench` fronts discovery
//! and distillation (`--search`, `--minimize`); the harness's committed
//! gates (`crates/harness/tests/committed_gates.rs`) replay every
//! distilled suite.

pub mod minimize;
pub mod mutate;
pub mod search;

pub use minimize::{distill, minimize};
pub use mutate::{mutate_scenario, MUTATION_OPS};
pub use search::{search, seed_scenarios, CorpusEntry, Evaluator, SearchConfig};
