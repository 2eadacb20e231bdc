//! Joint energy–performance optimization (Eq. 7–9).

use ecofusion_energy::Joules;
use serde::{Deserialize, Serialize};

/// How the candidate set Φ* is derived from the predicted losses (Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CandidateRule {
    /// `L_f(φ) − L_f(φ′) ≤ γ`: the margin rule the paper's prose describes
    /// ("the maximum allowable difference in loss"). Default.
    #[default]
    Margin,
    /// Eq. 7 exactly as printed: `L_f(φ) − L_f(φ′) ≤ L_f(φ′) + γ`, i.e.
    /// `L_f(φ) ≤ 2·L_f(φ′) + γ`. Almost certainly a typo in the paper, but
    /// implemented for the ablation study.
    PaperEq7,
}

/// Selects the candidate set Φ* (Eq. 7): all configurations whose predicted
/// loss is close enough to the best configuration φ′.
///
/// Returns indices into `losses`, always including the argmin.
///
/// # Panics
/// Panics if `losses` is empty or `gamma < 0`.
pub fn select_candidates(losses: &[f32], gamma: f32, rule: CandidateRule) -> Vec<usize> {
    Candidates::new(losses, gamma, rule).iter().collect()
}

/// Φ* of one set of predicted losses, as a test on indices: what
/// [`select_candidates`] lists, without the list.
struct Candidates<'a> {
    losses: &'a [f32],
    bound: f32,
}

impl<'a> Candidates<'a> {
    /// # Panics
    /// As [`select_candidates`].
    fn new(losses: &'a [f32], gamma: f32, rule: CandidateRule) -> Self {
        assert!(!losses.is_empty(), "candidate selection needs at least one configuration");
        assert!(gamma >= 0.0, "gamma must be non-negative");
        let best = losses.iter().copied().fold(f32::INFINITY, f32::min);
        let bound = match rule {
            CandidateRule::Margin => best + gamma,
            CandidateRule::PaperEq7 => 2.0 * best + gamma,
        };
        Candidates { losses, bound }
    }

    /// Whether configuration `i` is in Φ* by the rule.
    fn admits(&self, i: usize) -> bool {
        self.losses[i] <= self.bound + 1e-9
    }

    /// Φ* in index order; never empty.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let fallback = self.argmin_fallback();
        let admitted =
            (0..self.losses.len()).filter(move |&i| fallback.is_none() && self.admits(i));
        fallback.into_iter().chain(admitted)
    }

    /// The argmin, when the rule admits nothing: a guard against
    /// NaN-contaminated predictions. `None` when the rule admits some.
    fn argmin_fallback(&self) -> Option<usize> {
        if (0..self.losses.len()).any(|i| self.admits(i)) {
            return None;
        }
        let arg = self
            .losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Some(arg)
    }
}

/// The joint objective `L_joint(φ, λ_E) = (1 − λ_E)·L_f(φ) + λ_E·E(φ)`
/// (Eq. 8).
///
/// # Panics
/// Panics if `lambda_e` is outside `[0, 1]`.
pub fn joint_loss(fusion_loss: f32, energy: Joules, lambda_e: f64) -> f64 {
    assert!((0.0..=1.0).contains(&lambda_e), "lambda_e must be in [0, 1]");
    (1.0 - lambda_e) * fusion_loss as f64 + lambda_e * energy.joules()
}

/// Full Eq. 7–9 pipeline: selects `φ* = argmin_{φ ∈ Φ*} L_joint(φ, λ_E)`.
///
/// Ties break toward lower energy, then lower index (deterministic).
///
/// # Panics
/// Panics if the slices differ in length, are empty, `gamma < 0`, or
/// `lambda_e ∉ [0, 1]`.
pub fn select_config(
    losses: &[f32],
    energies: &[Joules],
    lambda_e: f64,
    gamma: f32,
    rule: CandidateRule,
) -> usize {
    assert_eq!(losses.len(), energies.len(), "losses/energies length mismatch");
    // Φ* is scanned where it lies, not listed: selection allocates
    // nothing.
    let candidates = Candidates::new(losses, gamma, rule);
    let mut best_idx = candidates.iter().next().expect("Φ* is never empty");
    let mut best_joint = f64::INFINITY;
    for i in candidates.iter() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn joules(vals: &[f64]) -> Vec<Joules> {
        vals.iter().map(|&v| Joules::new(v)).collect()
    }

    #[test]
    fn candidates_contain_argmin() {
        let losses = [1.0, 0.5, 2.0];
        let c = select_candidates(&losses, 0.0, CandidateRule::Margin);
        assert_eq!(c, vec![1]);
    }

    #[test]
    fn margin_rule_widens_with_gamma() {
        let losses = [1.0, 0.5, 2.0, 0.9];
        let c = select_candidates(&losses, 0.5, CandidateRule::Margin);
        assert_eq!(c, vec![0, 1, 3]);
    }

    #[test]
    fn paper_rule_is_looser() {
        let losses = [1.0, 0.5, 1.4];
        let margin = select_candidates(&losses, 0.1, CandidateRule::Margin);
        let paper = select_candidates(&losses, 0.1, CandidateRule::PaperEq7);
        // Paper bound: 2*0.5 + 0.1 = 1.1 -> {0, 1}; margin: 0.6 -> {1}.
        assert_eq!(margin, vec![1]);
        assert_eq!(paper, vec![0, 1]);
        assert!(paper.len() >= margin.len());
    }

    #[test]
    fn lambda_zero_selects_min_loss() {
        let losses = [1.0, 0.5, 0.8];
        let energies = joules(&[0.1, 5.0, 0.2]);
        // γ large: every config is a candidate; λ=0 ignores energy.
        let i = select_config(&losses, &energies, 0.0, 10.0, CandidateRule::Margin);
        assert_eq!(i, 1);
    }

    #[test]
    fn lambda_one_selects_min_energy_among_candidates() {
        let losses = [1.0, 0.5, 0.8];
        let energies = joules(&[0.1, 5.0, 0.2]);
        let i = select_config(&losses, &energies, 1.0, 10.0, CandidateRule::Margin);
        assert_eq!(i, 0);
    }

    #[test]
    fn gamma_zero_forces_best_loss_even_at_high_lambda() {
        let losses = [1.0, 0.5, 0.8];
        let energies = joules(&[0.1, 5.0, 0.2]);
        // Φ* = {argmin} only; λ=1 cannot escape it.
        let i = select_config(&losses, &energies, 1.0, 0.0, CandidateRule::Margin);
        assert_eq!(i, 1);
    }

    #[test]
    fn intermediate_lambda_trades_off() {
        let losses = [0.5, 0.6];
        let energies = joules(&[3.0, 1.0]);
        // λ=0.01: joint(0) = 0.99*0.5+0.01*3 = 0.525; joint(1) = 0.604.
        assert_eq!(select_config(&losses, &energies, 0.01, 1.0, CandidateRule::Margin), 0);
        // λ=0.1: joint(0) = 0.75; joint(1) = 0.64 -> flips.
        assert_eq!(select_config(&losses, &energies, 0.1, 1.0, CandidateRule::Margin), 1);
    }

    #[test]
    fn ties_break_to_lower_energy() {
        let losses = [0.5, 0.5];
        let energies = joules(&[2.0, 1.0]);
        assert_eq!(select_config(&losses, &energies, 0.0, 0.5, CandidateRule::Margin), 1);
    }

    #[test]
    fn nan_losses_fall_back_to_argmin() {
        let losses = [f32::NAN, 0.5, f32::NAN];
        let c = select_candidates(&losses, 0.5, CandidateRule::Margin);
        assert!(c.contains(&1));
    }

    #[test]
    #[should_panic(expected = "lambda_e")]
    fn bad_lambda_panics() {
        let _ = joint_loss(1.0, Joules::new(1.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn negative_gamma_panics() {
        let _ = select_candidates(&[1.0], -0.1, CandidateRule::Margin);
    }
}
