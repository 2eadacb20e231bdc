//! Property-based tests of the energy models.

use ecofusion_energy::{
    BranchSpec, Joules, Millis, Precision, Px2Model, SensorPowerModel, SensorState, StageKind,
    StageTrace, StemPolicy,
};
use ecofusion_sensors::SensorKind;
use proptest::prelude::*;

fn arb_sensor() -> impl Strategy<Value = SensorKind> {
    (0usize..4).prop_map(|i| SensorKind::from_index(i).expect("index < 4"))
}

fn arb_branch() -> impl Strategy<Value = BranchSpec> {
    prop_oneof![
        arb_sensor().prop_map(BranchSpec::Single),
        prop::collection::btree_set(arb_sensor(), 2..4)
            .prop_map(|s| BranchSpec::Early(s.into_iter().collect())),
    ]
}

/// Platform energy and pipeline latency of `branches`, as the one
/// composition gives them.
fn cost(px2: &Px2Model, branches: &[BranchSpec], policy: StemPolicy) -> (Joules, Millis) {
    let sensors = SensorPowerModel::default();
    let trace = StageTrace::compute_prec(px2, &sensors, branches, policy, Precision::F32);
    (trace.platform_energy(), trace.total_latency())
}

proptest! {
    #[test]
    fn platform_energy_positive_and_monotone(
        branches in prop::collection::vec(arb_branch(), 1..6),
        extra in arb_branch(),
    ) {
        let px2 = Px2Model::default();
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            let base = cost(&px2, &branches, policy).0;
            prop_assert!(base.joules() > 0.0);
            let mut bigger = branches.clone();
            bigger.push(extra.clone());
            let more = cost(&px2, &bigger, policy).0;
            prop_assert!(more.joules() > base.joules(), "{policy:?}");
        }
    }

    #[test]
    fn static_energy_is_additive_over_branches(
        a in arb_branch(),
        b in arb_branch(),
    ) {
        let px2 = Px2Model::default();
        let ea = cost(&px2, std::slice::from_ref(&a), StemPolicy::Static).0;
        let eb = cost(&px2, std::slice::from_ref(&b), StemPolicy::Static).0;
        let eab = cost(&px2, &[a, b], StemPolicy::Static).0;
        // Static pipelines replicate stems per branch, so energy adds
        // exactly (the paper's late-4 row validates this).
        prop_assert!((eab.joules() - (ea.joules() + eb.joules())).abs() < 1e-9);
    }

    #[test]
    fn latency_positive_and_monotone(
        branches in prop::collection::vec(arb_branch(), 1..6),
        extra in arb_branch(),
    ) {
        let px2 = Px2Model::default();
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            let t = cost(&px2, &branches, policy).1;
            prop_assert!(t.millis() > 0.0);
            let mut bigger = branches.clone();
            bigger.push(extra.clone());
            prop_assert!(cost(&px2, &bigger, policy).1.millis() > t.millis());
        }
    }

    #[test]
    fn adaptive_charges_at_least_four_stems(branches in prop::collection::vec(arb_branch(), 1..4)) {
        let px2 = Px2Model::default();
        let e = cost(&px2, &branches, StemPolicy::Adaptive).0;
        let branch_only: f64 = branches.iter().map(|b| px2.branch_cost(b).0.joules()).sum();
        prop_assert!(e.joules() >= branch_only + 4.0 * px2.stem_energy.joules() - 1e-9);
    }

    #[test]
    fn trace_totals_non_negative_and_consistent(
        branches in prop::collection::vec(arb_branch(), 1..6),
    ) {
        let px2 = Px2Model::default();
        let sensors = SensorPowerModel::default();
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            let t = StageTrace::compute_prec(&px2, &sensors, &branches, policy, Precision::F32);
            let gated_sensors = t.cost(StageKind::Sense).energy.joules();
            prop_assert!(t.platform_energy().joules() > 0.0);
            prop_assert!(gated_sensors >= 0.0);
            prop_assert!(t.total_latency().millis() > 0.0);
            // Eq. 11 additivity: the total is exactly platform + the
            // clock-gated sensor share, and the stages sum to it.
            prop_assert!(
                (t.total_energy().joules() - (t.platform_energy().joules() + gated_sensors))
                    .abs() < 1e-12
            );
            let stages: f64 = t.costs.iter().map(|c| c.energy.joules()).sum();
            prop_assert!((t.total_energy().joules() - stages).abs() < 1e-12);
            // Clock gating can only save sensor energy, never cost.
            let ungated = t.platform_energy() + sensors.total_frame_energy_all_active();
            prop_assert!(t.total_energy().joules() <= ungated.joules() + 1e-12);
        }
    }

    #[test]
    fn trace_monotone_in_executed_branches(
        branches in prop::collection::vec(arb_branch(), 1..5),
        extra in arb_branch(),
    ) {
        let px2 = Px2Model::default();
        let sensors = SensorPowerModel::default();
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            let trace = |branches: &[BranchSpec]| {
                StageTrace::compute_prec(&px2, &sensors, branches, policy, Precision::F32)
            };
            let base = trace(&branches);
            let mut bigger = branches.clone();
            bigger.push(extra.clone());
            let more = trace(&bigger);
            let sense = |t: &StageTrace| t.cost(StageKind::Sense).energy.joules();
            // Executing one more branch never reduces platform energy,
            // sensor energy, or the Eq. 11 total.
            prop_assert!(more.platform_energy() > base.platform_energy(), "{policy:?}");
            prop_assert!(sense(&more) >= sense(&base) - 1e-12);
            prop_assert!(more.total_energy() > base.total_energy());
        }
    }

    #[test]
    fn gating_a_sensor_never_costs_more(active in prop::collection::btree_set(arb_sensor(), 0..4)) {
        let m = SensorPowerModel::default();
        let active: Vec<SensorKind> = active.into_iter().collect();
        let gated = m.total_frame_energy(&active);
        let all = m.total_frame_energy_all_active();
        prop_assert!(gated.joules() <= all.joules() + 1e-12);
    }

    #[test]
    fn per_sensor_gated_energy_below_active(s in arb_sensor()) {
        let m = SensorPowerModel::default();
        let active = m.frame_energy(s, SensorState::Active);
        let gated = m.frame_energy(s, SensorState::Gated);
        prop_assert!(gated.joules() <= active.joules());
        prop_assert!(gated.joules() >= 0.0);
    }
}
