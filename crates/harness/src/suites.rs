//! The named workload-suite registry.
//!
//! A suite is a fully seeded, end-to-end serving workload: a set of
//! [`StreamSpec`]s (plus optional fault schedules) driven through the real
//! [`PerceptionServer`](ecofusion_runtime::PerceptionServer) for a fixed
//! number of scheduler ticks. Every knob is pinned by the suite
//! definition, so two runs of the same suite at the same scale produce the
//! same frames, the same selections, and the same modeled energy — the
//! property the regression gate's determinism fields check bit-for-bit.

use ecofusion_core::InferenceOptions;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_faults::FaultSchedule;
use ecofusion_gating::GateKind;
use ecofusion_runtime::{BackpressurePolicy, EnergyBudget, StreamSpec};
use ecofusion_scene::Context;

/// Observation grid side length every suite runs at (matches the
/// quick-scale experiment harness and the demo model).
pub const SUITE_GRID: usize = 32;

/// Object classes of the suite model.
pub const SUITE_CLASSES: usize = 8;

/// Seed of the serving model's weight initialization.
pub const MODEL_SEED: u64 = 0xEC0F;

/// The seven named workload suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteId {
    /// One stream pinned to the City context: the steady-state serving
    /// baseline (no drift, no faults, no budget pressure).
    SteadyCity,
    /// One stream whose context drift walk visits the whole RADIATE mix:
    /// exercises per-context gating churn.
    ContextChurn,
    /// Two fault-aware streams under the scripted
    /// [`FaultSchedule::storm`] (dropout, frozen frames, calibration
    /// drift, noise bursts): exercises health monitoring and degraded
    /// gating.
    FaultStorm,
    /// One stream under a budget far below what the base policy spends:
    /// the controller must climb the whole ladder to the emergency rung.
    BudgetSqueeze,
    /// 1- to 256-stream fleets over the same per-stream workload:
    /// exercises cross-stream batching, sharded multi-core execution, and
    /// scheduler scaling.
    FleetScale,
    /// Stall-policy producers emitting 2 frames per tick into short
    /// queues behind a narrow batch cap: sustained saturation, so the
    /// gate covers producer stalls, queue high-water, and queueing delay
    /// under backpressure that *defers* instead of dropping.
    QueueSaturation,
    /// Four streams with heterogeneous per-stream gates (attention,
    /// knowledge, deep, loss-based) coalesced into the same batch groups:
    /// exercises options-keyed unit grouping with policies that can never
    /// merge, including the knowledge gate's missing-rule fallback.
    MixedPolicy,
}

impl SuiteId {
    /// All suites, in report order.
    pub const ALL: [SuiteId; 7] = [
        SuiteId::SteadyCity,
        SuiteId::ContextChurn,
        SuiteId::FaultStorm,
        SuiteId::BudgetSqueeze,
        SuiteId::FleetScale,
        SuiteId::QueueSaturation,
        SuiteId::MixedPolicy,
    ];

    /// Stable machine-readable name (the report's `suite` field).
    pub fn label(self) -> &'static str {
        match self {
            SuiteId::SteadyCity => "steady_city",
            SuiteId::ContextChurn => "context_churn",
            SuiteId::FaultStorm => "fault_storm",
            SuiteId::BudgetSqueeze => "budget_squeeze",
            SuiteId::FleetScale => "fleet_scale",
            SuiteId::QueueSaturation => "queue_saturation",
            SuiteId::MixedPolicy => "mixed_policy",
        }
    }

    /// Parses a [`SuiteId::label`] back.
    pub fn from_label(s: &str) -> Option<SuiteId> {
        SuiteId::ALL.into_iter().find(|id| id.label() == s)
    }

    /// Base seed of the suite's streams (stream `i` uses `seed + i`).
    pub fn base_seed(self) -> u64 {
        match self {
            SuiteId::SteadyCity => 101,
            SuiteId::ContextChurn => 202,
            SuiteId::FaultStorm => 301,
            SuiteId::BudgetSqueeze => 401,
            SuiteId::FleetScale => 500,
            SuiteId::QueueSaturation => 601,
            SuiteId::MixedPolicy => 701,
        }
    }
}

/// The resolved shape of one suite at one scale.
#[derive(Debug, Clone)]
pub struct SuitePlan {
    /// Which suite this is.
    pub id: SuiteId,
    /// Scheduler ticks each sub-run is driven for (queues are drained
    /// afterwards, so every accepted frame is processed and reported).
    pub ticks: u64,
    /// Stream counts of the suite's sub-runs: `[1]` for the single-fleet
    /// suites, `[1, 4, 16, 64, 256]` for [`SuiteId::FleetScale`].
    pub fleets: Vec<usize>,
    /// Scheduler micro-batch cap.
    pub max_batch: usize,
}

/// Resolves a suite's plan at the given scale. Quick is sized for the CI
/// perf gate (seconds); full is the overnight soak shape (~4× the
/// horizon).
pub fn plan(id: SuiteId, scale: Scale) -> SuitePlan {
    let mul = match scale {
        Scale::Quick => 1,
        Scale::Full => 4,
    };
    let (ticks, fleets, max_batch) = match id {
        SuiteId::SteadyCity => (64, vec![1], 8),
        SuiteId::ContextChurn => (128, vec![1], 8),
        SuiteId::FaultStorm => (64, vec![2], 8),
        SuiteId::BudgetSqueeze => (64, vec![1], 8),
        // Fleet ticks stay short (the 256-stream sub-run already processes
        // ~256 frames/tick); the wider batch cap keeps big fleets from
        // serializing on the per-step frame budget.
        SuiteId::FleetScale => (16, vec![1, 4, 16, 64, 256], 32),
        // Three 2x producers against a 4-frame batch cap: 6 frames/tick
        // offered, 4 processed, so the stall-policy queues saturate and
        // stay saturated.
        SuiteId::QueueSaturation => (48, vec![3], 4),
        SuiteId::MixedPolicy => (64, vec![4], 8),
    };
    SuitePlan { id, ticks: ticks * mul, fleets, max_batch }
}

/// Builds the stream specs (and fault schedules) of one sub-run of a
/// suite with `fleet` streams over `ticks` scheduler ticks.
pub fn stream_specs(
    id: SuiteId,
    fleet: usize,
    ticks: u64,
) -> Vec<(StreamSpec, Option<FaultSchedule>)> {
    let base = SuiteId::base_seed(id);
    match id {
        SuiteId::SteadyCity => {
            let mut spec = StreamSpec::new(base, SUITE_GRID).with_context(Context::City);
            spec.drift_stay_prob = 1.0;
            vec![(spec, None)]
        }
        SuiteId::ContextChurn => {
            let mut spec = StreamSpec::new(base, SUITE_GRID);
            // Short segments that always redraw: the walk sweeps the whole
            // RADIATE mix inside the quick horizon.
            spec.dwell_frames = 4;
            spec.drift_stay_prob = 0.0;
            vec![(spec, None)]
        }
        SuiteId::FaultStorm => (0..fleet.max(2))
            .map(|i| {
                let spec = StreamSpec::new(base + i as u64, SUITE_GRID)
                    .with_context(if i % 2 == 0 { Context::City } else { Context::Rain })
                    .with_health_gating(true);
                (spec, Some(FaultSchedule::storm(ticks)))
            })
            .collect(),
        SuiteId::BudgetSqueeze => {
            // Target far below even the emergency rung's spend, with a
            // short window: the ladder is climbed to its last rung within
            // the first half of the run and never relaxes.
            let budget = EnergyBudget { target_j: 0.5, window: 8, relax_margin: 0.8 };
            let spec = StreamSpec::new(base, SUITE_GRID).with_budget(budget);
            vec![(spec, None)]
        }
        SuiteId::FleetScale => (0..fleet)
            .map(|i| {
                let spec = StreamSpec::new(base + i as u64, SUITE_GRID)
                    .with_context(Context::ALL[i % Context::ALL.len()]);
                (spec, None)
            })
            .collect(),
        SuiteId::QueueSaturation => {
            let contexts = [Context::City, Context::Rain, Context::Night];
            (0..fleet.max(3))
                .map(|i| {
                    let spec = StreamSpec::new(base + i as u64, SUITE_GRID)
                        .with_context(contexts[i % contexts.len()])
                        .with_queue(4, BackpressurePolicy::Stall)
                        .with_frames_per_tick(2);
                    (spec, None)
                })
                .collect()
        }
        SuiteId::MixedPolicy => {
            let gates =
                [GateKind::Attention, GateKind::Knowledge, GateKind::Deep, GateKind::LossBased];
            (0..fleet.max(4))
                .map(|i| {
                    let opts = InferenceOptions::new(0.01, 0.5).with_gate(gates[i % gates.len()]);
                    let spec = StreamSpec::new(base + i as u64, SUITE_GRID)
                        .with_context(Context::ALL[(2 * i) % Context::ALL.len()])
                        .with_opts(opts);
                    (spec, None)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for id in SuiteId::ALL {
            assert_eq!(SuiteId::from_label(id.label()), Some(id));
        }
        assert_eq!(SuiteId::from_label("nope"), None);
    }

    #[test]
    fn plans_are_sized() {
        for id in SuiteId::ALL {
            let quick = plan(id, Scale::Quick);
            let full = plan(id, Scale::Full);
            assert!(quick.ticks > 0);
            assert!(full.ticks > quick.ticks, "{id:?} full must be larger");
            assert!(!quick.fleets.is_empty());
            for &fleet in &quick.fleets {
                let specs = stream_specs(id, fleet, quick.ticks);
                assert!(!specs.is_empty());
                for (spec, _) in &specs {
                    assert_eq!(spec.grid, SUITE_GRID);
                }
            }
        }
        assert_eq!(plan(SuiteId::FleetScale, Scale::Quick).fleets, vec![1, 4, 16, 64, 256]);
    }

    #[test]
    fn fault_storm_streams_are_fault_aware() {
        let specs = stream_specs(SuiteId::FaultStorm, 2, 64);
        assert_eq!(specs.len(), 2);
        for (spec, schedule) in &specs {
            assert!(spec.health_gating);
            let schedule = schedule.as_ref().expect("storm schedule");
            assert!(!schedule.is_empty());
        }
    }

    #[test]
    fn queue_saturation_overproduces_into_stall_queues() {
        let specs = stream_specs(SuiteId::QueueSaturation, 3, 48);
        assert_eq!(specs.len(), 3);
        for (spec, schedule) in &specs {
            assert!(schedule.is_none());
            assert_eq!(spec.backpressure, BackpressurePolicy::Stall);
            assert_eq!(spec.burst(), 2, "each producer offers 2 frames/tick");
            assert!(spec.queue_capacity < 8, "short queues saturate quickly");
        }
        assert!(plan(SuiteId::QueueSaturation, Scale::Quick).max_batch < 6);
    }

    #[test]
    fn mixed_policy_gates_are_heterogeneous() {
        let specs = stream_specs(SuiteId::MixedPolicy, 4, 64);
        assert_eq!(specs.len(), 4);
        let mut gates: Vec<GateKind> = specs.iter().map(|(s, _)| s.base_opts.gate).collect();
        gates.sort_by_key(|g| format!("{g:?}"));
        gates.dedup();
        assert_eq!(gates.len(), 4, "all four gate kinds in one batch group");
    }

    #[test]
    fn suite_streams_use_distinct_seeds() {
        let specs = stream_specs(SuiteId::FleetScale, 16, 16);
        let mut seeds: Vec<u64> = specs.iter().map(|(s, _)| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }
}
