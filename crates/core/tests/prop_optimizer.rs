//! Property-based tests of the Eq. 7–9 joint optimization.

use ecofusion_core::{joint_loss, select_candidates, select_config, CandidateRule, ConfigSpace};
use ecofusion_energy::{Joules, Precision, Px2Model, SensorPowerModel, StageTrace, StemPolicy};
use proptest::prelude::*;

fn arb_losses() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.0f32..10.0, 1..40)
}

proptest! {
    #[test]
    fn candidates_always_include_argmin(losses in arb_losses(), gamma in 0.0f32..3.0) {
        for rule in [CandidateRule::Margin, CandidateRule::PaperEq7] {
            let cands = select_candidates(&losses, gamma, rule);
            let argmin = losses
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            prop_assert!(cands.contains(&argmin), "{rule:?}");
        }
    }

    #[test]
    fn paper_rule_is_superset_of_margin(losses in arb_losses(), gamma in 0.0f32..3.0) {
        // 2·L' + γ ≥ L' + γ whenever L' ≥ 0, so Eq. 7 as printed admits
        // every margin candidate.
        let margin = select_candidates(&losses, gamma, CandidateRule::Margin);
        let paper = select_candidates(&losses, gamma, CandidateRule::PaperEq7);
        for c in &margin {
            prop_assert!(paper.contains(c));
        }
    }

    #[test]
    fn selected_config_is_a_candidate(
        losses in arb_losses(),
        gamma in 0.0f32..3.0,
        lambda in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let mut rng = ecofusion_tensor::rng::Rng::new(seed);
        let energies: Vec<Joules> =
            (0..losses.len()).map(|_| Joules::new(rng.uniform(0.5, 8.0))).collect();
        let idx = select_config(&losses, &energies, lambda, gamma, CandidateRule::Margin);
        let cands = select_candidates(&losses, gamma, CandidateRule::Margin);
        prop_assert!(cands.contains(&idx));
    }

    #[test]
    fn lambda_zero_minimizes_loss_lambda_one_minimizes_energy(
        losses in arb_losses(),
        seed in 0u64..500,
    ) {
        let mut rng = ecofusion_tensor::rng::Rng::new(seed);
        let energies: Vec<Joules> =
            (0..losses.len()).map(|_| Joules::new(rng.uniform(0.5, 8.0))).collect();
        // Huge gamma: all configs are candidates.
        let i0 = select_config(&losses, &energies, 0.0, 1e9, CandidateRule::Margin);
        let min_loss = losses.iter().copied().fold(f32::INFINITY, f32::min);
        prop_assert!((losses[i0] - min_loss).abs() < 1e-6);
        let i1 = select_config(&losses, &energies, 1.0, 1e9, CandidateRule::Margin);
        let min_e = energies.iter().map(|e| e.joules()).fold(f64::INFINITY, f64::min);
        prop_assert!((energies[i1].joules() - min_e).abs() < 1e-9);
    }

    #[test]
    fn joint_loss_interpolates_linearly(
        l in 0.0f32..10.0,
        e in 0.0f64..10.0,
        lambda in 0.0f64..1.0,
    ) {
        let j = joint_loss(l, Joules::new(e), lambda);
        let expect = (1.0 - lambda) * l as f64 + lambda * e;
        prop_assert!((j - expect).abs() < 1e-9);
    }

    #[test]
    fn selected_energy_monotone_in_lambda(
        losses in prop::collection::vec(0.0f32..4.0, 2..30),
        seed in 0u64..500,
    ) {
        // With a fixed loss vector, raising lambda never increases the
        // energy of the selected configuration.
        let mut rng = ecofusion_tensor::rng::Rng::new(seed);
        let energies: Vec<Joules> =
            (0..losses.len()).map(|_| Joules::new(rng.uniform(0.5, 8.0))).collect();
        let mut prev = f64::INFINITY;
        for lambda in [0.0, 0.1, 0.3, 0.6, 1.0] {
            let i = select_config(&losses, &energies, lambda, 1.0, CandidateRule::Margin);
            let e = energies[i].joules();
            prop_assert!(e <= prev + 1e-9, "lambda {lambda}: {e} > {prev}");
            prev = e;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn config_space_roundtrip(mask in 1usize..128) {
        let space = ConfigSpace::canonical();
        let id = ecofusion_core::ConfigId(mask - 1);
        let ids = space.branch_ids(id);
        prop_assert!(!ids.is_empty());
        prop_assert_eq!(space.config_of(&ids), id);
        // Energy of every config is at least the cheapest single branch.
        let (px2, sensors) = (Px2Model::default(), SensorPowerModel::default());
        let specs = space.branch_specs(id);
        let t = StageTrace::compute_prec(&px2, &sensors, &specs, StemPolicy::Static, Precision::F32);
        prop_assert!(t.platform_energy().joules() >= 0.945 - 1e-9);
    }
}

/// Φ* as Eq. 7 defines it and as `select_candidates` listed it before
/// selection stopped listing it: every index within the bound, else the
/// argmin.
fn candidates_by_definition(losses: &[f32], gamma: f32, rule: CandidateRule) -> Vec<usize> {
    let best = losses.iter().copied().fold(f32::INFINITY, f32::min);
    let bound = match rule {
        CandidateRule::Margin => best + gamma,
        CandidateRule::PaperEq7 => 2.0 * best + gamma,
    };
    let mut out: Vec<usize> = (0..losses.len()).filter(|&i| losses[i] <= bound + 1e-9).collect();
    if out.is_empty() {
        let arg = losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out.push(arg);
    }
    out
}

/// The definition `select_config` replaced, kept as its oracle: list Φ*,
/// then scan the list.
fn select_by_listing(
    losses: &[f32],
    energies: &[Joules],
    lambda_e: f64,
    gamma: f32,
    rule: CandidateRule,
) -> usize {
    let candidates = candidates_by_definition(losses, gamma, rule);
    let mut best_idx = candidates[0];
    let mut best_joint = f64::INFINITY;
    for &i in &candidates {
        let j = joint_loss(losses[i], energies[i], lambda_e);
        let better = j < best_joint - 1e-12
            || ((j - best_joint).abs() <= 1e-12
                && energies[i].joules() < energies[best_idx].joules());
        if better {
            best_joint = j;
            best_idx = i;
        }
    }
    best_idx
}

/// `select_config` scans Φ* where it lies instead of listing it, and picks
/// what listing then scanning picks (and `select_candidates` still lists
/// Φ* as defined): over the 127 configurations' losses
/// with NaN, ±∞ and exact ties (a coarse lattice, and runs of one value),
/// under both candidate rules, at γ and λ_E on and between their
/// extremes, with every health mask applied the way the pipeline applies
/// it — and over short random vectors whose energies tie too.
#[test]
fn selection_without_a_candidate_list_picks_what_listing_picks() {
    use ecofusion_core::EcoFusionModel;
    use ecofusion_sensors::SensorMask;
    use ecofusion_tensor::rng::Rng;

    let model = EcoFusionModel::new(32, 8, &mut Rng::new(5));
    let canonical = model.config_energies().to_vec();
    let mut rng = Rng::new(0x5E1EC7);
    let draw = |rng: &mut Rng| match rng.uniform_usize(0, 10) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 | 4 => rng.uniform_usize(0, 6) as f32 * 0.25,
        _ => rng.uniform(0.0, 5.0) as f32,
    };
    let mut checked = 0;
    for case in 0..400 {
        let short = case % 2 == 1;
        let n = if short { rng.uniform_usize(1, 12) } else { canonical.len() };
        let energies: Vec<Joules> = if short {
            (0..n).map(|_| Joules::new(rng.uniform_usize(1, 4) as f64)).collect()
        } else {
            canonical.clone()
        };
        // Mostly finite, sometimes NaN-riddled, sometimes all one value.
        let losses: Vec<f32> = match case % 7 {
            0 => vec![draw(&mut rng); n],
            1 => (0..n).map(|_| if rng.chance(0.8) { f32::NAN } else { draw(&mut rng) }).collect(),
            _ => (0..n).map(|_| draw(&mut rng)).collect(),
        };
        let gamma = [0.0, 0.25, rng.uniform(0.0, 2.0) as f32, 1e9][case % 4];
        let lambda = [0.0, 1.0, rng.uniform(0.0, 1.0)][case % 3];
        let masks: Vec<SensorMask> = if short {
            vec![SensorMask::all_available()]
        } else {
            (0..16u8).map(SensorMask::from_bits).collect()
        };
        for mask in masks {
            let mut adjusted = losses.clone();
            model.penalize_unavailable(&mut adjusted, mask);
            for rule in [CandidateRule::Margin, CandidateRule::PaperEq7] {
                assert_eq!(
                    select_candidates(&adjusted, gamma, rule),
                    candidates_by_definition(&adjusted, gamma, rule),
                    "case {case}, {rule:?}"
                );
                assert_eq!(
                    select_config(&adjusted, &energies, lambda, gamma, rule),
                    select_by_listing(&adjusted, &energies, lambda, gamma, rule),
                    "case {case}, mask {:#06b}, {rule:?}, γ {gamma}, λ {lambda}: {adjusted:?}",
                    mask.bits()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 6_000);
}
