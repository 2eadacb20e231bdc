//! Gate prediction quality analytics.
//!
//! The paper attributes the Attention/Deep vs Loss-Based gap to "modeling
//! limitations" of the gates (§5.1). This module quantifies that gap: how
//! well a gate's predicted per-configuration losses *rank* the true
//! losses, and how much joint-objective regret its selections incur
//! against the oracle.

use ecofusion_core::{joint_loss, select_config, CandidateRule, EcoFusionModel, OracleSample};
use ecofusion_energy::Joules;
use ecofusion_gating::{Gate, GateInput, GateKind};
use serde::Serialize;

/// Spearman rank correlation between two equal-length slices.
///
/// Returns 0 for degenerate inputs (fewer than two elements or constant
/// vectors). Ties receive their average rank.
pub fn spearman(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    // Pearson correlation of the ranks.
    let mean = (n as f64 - 1.0) / 2.0 + 1.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da <= 0.0 || db <= 0.0 {
        0.0
    } else {
        num / (da.sqrt() * db.sqrt())
    }
}

fn ranks(v: &[f32]) -> Vec<f64> {
    let n = v.len();
    let mut idx: Vec<usize> = (0..n).collect();
    // A NaN — a diverged gate predicts them — gets the worst rank.
    idx.sort_by(|&i, &j| crate::nan_last(v[i], v[j]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the tie group [i, j).
        let mut j = i + 1;
        while j < n && v[idx[j]] == v[idx[i]] {
            j += 1;
        }
        let avg_rank = ((i + 1 + j) as f64) / 2.0; // mean of ranks i+1..=j
        for k in i..j {
            out[idx[k]] = avg_rank;
        }
        i = j;
    }
    out
}

/// Quality of one gate over a frame set.
#[derive(Debug, Clone, Serialize)]
pub struct GateQualityReport {
    /// Which gate was assessed.
    pub gate: String,
    /// Mean Spearman rank correlation between predicted and true
    /// per-configuration losses.
    pub mean_spearman: f64,
    /// Fraction of frames where the gate's argmin equals the true argmin.
    pub top1_agreement: f64,
    /// Mean joint-objective regret of the gate's selection vs the oracle
    /// selection, both scored with the *true* losses.
    pub mean_regret: f64,
    /// Frames assessed.
    pub frames: usize,
}

/// Assesses a learned gate against the oracle over `samples` — one
/// [`EcoFusionModel::oracle_pass`] of the frames to judge it on, which
/// every gate and every `(λ_E, γ)` can then share.
///
/// # Panics
/// Panics if `gate` is [`GateKind::LossBased`] (the oracle has no gap to
/// itself) or [`GateKind::Knowledge`] (its outputs are selection masks,
/// not loss estimates).
pub fn assess_gate(
    model: &mut EcoFusionModel,
    samples: &[OracleSample],
    gate: GateKind,
    lambda_e: f64,
    gamma: f32,
) -> GateQualityReport {
    assert!(
        matches!(gate, GateKind::Deep | GateKind::Attention),
        "assess_gate expects a learned gate"
    );
    let energies: Vec<Joules> = model.config_energies().to_vec();
    let mut sum_rho = 0.0;
    let mut top1 = 0usize;
    let mut sum_regret = 0.0;
    for OracleSample { features, losses: true_losses, .. } in samples {
        let input = GateInput::features_only(features);
        let predicted = match gate {
            GateKind::Deep => model.gates_mut().deep.predict(&input),
            GateKind::Attention => model.gates_mut().attention.predict(&input),
            _ => unreachable!(),
        };
        sum_rho += spearman(&predicted, true_losses);
        if argmin(&predicted) == argmin(true_losses) {
            top1 += 1;
        }
        let chosen = select_config(&predicted, &energies, lambda_e, gamma, CandidateRule::Margin);
        let oracle = select_config(true_losses, &energies, lambda_e, gamma, CandidateRule::Margin);
        let regret = joint_loss(true_losses[chosen], energies[chosen], lambda_e)
            - joint_loss(true_losses[oracle], energies[oracle], lambda_e);
        sum_regret += regret;
    }
    let n = samples.len().max(1) as f64;
    GateQualityReport {
        gate: gate.to_string(),
        mean_spearman: sum_rho / n,
        top1_agreement: top1 as f64 / n,
        mean_regret: sum_regret / n,
        frames: samples.len(),
    }
}

fn argmin(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [10.0f32, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0f32, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_and_degenerates() {
        let a = [1.0f32, 1.0, 2.0];
        let b = [5.0f32, 5.0, 9.0];
        assert!(spearman(&a, &b) > 0.9);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    /// `assess_gate` ranks whatever a gate predicts, and a diverged one
    /// predicts NaN: the sort used to have no total order then and could
    /// panic. Now a NaN takes the worst rank, the ranks of the others are
    /// what they are without it, and the correlation is a number.
    #[test]
    fn a_nan_prediction_gets_the_worst_rank_instead_of_panicking() {
        let mut rng = ecofusion_tensor::rng::Rng::new(0x5EA);
        for case in 0..64 {
            let n = rng.uniform_usize(64, 231);
            let truth: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 4.0) as f32).collect();
            let predicted: Vec<f32> = truth
                .iter()
                .map(|&t| match rng.uniform_usize(0, 7) {
                    0 => f32::NAN,
                    _ => t + rng.uniform(-0.5, 0.5) as f32,
                })
                .collect();
            let (finite, nans): (Vec<f32>, Vec<f32>) = predicted.iter().partition(|p| !p.is_nan());
            assert!(!nans.is_empty(), "case {case} holds a NaN");
            let got = ranks(&predicted);
            let mut worst: Vec<f64> =
                predicted.iter().zip(&got).filter(|(p, _)| p.is_nan()).map(|(_, &r)| r).collect();
            worst.sort_by(f64::total_cmp);
            let tail: Vec<f64> = (finite.len() + 1..=n).map(|r| r as f64).collect();
            assert_eq!(worst, tail, "case {case}: the NaNs take the last ranks");
            let kept: Vec<f64> =
                predicted.iter().zip(&got).filter(|(p, _)| !p.is_nan()).map(|(_, &r)| r).collect();
            assert_eq!(kept, ranks(&finite), "case {case}: the others rank as without them");
            assert!(spearman(&predicted, &truth).is_finite(), "case {case}");
        }
    }

    #[test]
    fn spearman_invariant_to_monotone_transform() {
        let a = [0.2f32, 1.5, 0.9, 3.0];
        let b: Vec<f32> = a.iter().map(|v| v.ln_1p()).collect();
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regret_of_oracle_is_zero() {
        // When predictions equal truth, regret must be zero and top-1 match.
        let losses = [0.5f32, 0.9, 2.0];
        let energies: Vec<Joules> = [1.0, 2.0, 3.0].iter().map(|&e| Joules::new(e)).collect();
        let chosen = select_config(&losses, &energies, 0.05, 0.5, CandidateRule::Margin);
        let r = joint_loss(losses[chosen], energies[chosen], 0.05)
            - joint_loss(losses[chosen], energies[chosen], 0.05);
        assert_eq!(r, 0.0);
    }
}
