//! Context-aware gating strategies (paper §4.2).
//!
//! A gate inspects the stem features `F` of the current frame and estimates
//! the fusion loss `L_f(φ)` of every detector configuration `φ ∈ Φ`; the
//! joint optimizer (in `ecofusion-core`) then picks the configuration to
//! execute. Four strategies are implemented, exactly as in the paper:
//!
//! * [`KnowledgeGate`] (§4.2.1) — static, externally supplied context →
//!   hand-picked configuration. Not tunable by `λ_E`.
//! * [`DeepGate`] (§4.2.2) — three conv layers + one MLP layer regressing
//!   the loss of every configuration from `F`.
//! * [`AttentionGate`] (§4.2.3) — the deep gate with an added
//!   self-attention layer over the feature map.
//! * [`LossBasedGate`] (§4.2.4) — a-posteriori oracle: consumes the true
//!   loss of every configuration; an upper bound, not deployable.
//!
//! Gates are deliberately decoupled from the configuration semantics: they
//! output one predicted loss per configuration index and `ecofusion-core`
//! owns the mapping from indices to branch ensembles.

pub mod deep;
pub mod input;
pub mod knowledge;
pub mod oracle;

pub use deep::{AttentionGate, DeepGate};
pub use input::GateInput;
pub use knowledge::KnowledgeGate;
pub use oracle::LossBasedGate;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which gating strategy a gate implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GateKind {
    /// Static domain-knowledge rules keyed on external context.
    Knowledge,
    /// Learned CNN+MLP loss predictor.
    Deep,
    /// Learned predictor with self-attention.
    Attention,
    /// Ground-truth-loss oracle (theoretical best case).
    LossBased,
}

impl GateKind {
    /// All gate kinds in paper (Table 2) order.
    pub const ALL: [GateKind; 4] =
        [GateKind::Knowledge, GateKind::Deep, GateKind::Attention, GateKind::LossBased];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Knowledge => "Knowledge",
            GateKind::Deep => "Deep",
            GateKind::Attention => "Attention",
            GateKind::LossBased => "Loss-Based",
        };
        f.write_str(s)
    }
}

/// A gating strategy: estimates per-configuration fusion losses.
pub trait Gate: Send {
    /// The strategy this gate implements.
    fn kind(&self) -> GateKind;

    /// Number of configurations scored.
    fn num_configs(&self) -> usize;

    /// Estimates `L_f(φ)` for every configuration.
    ///
    /// # Panics
    /// Implementations panic if the input lacks what the strategy needs
    /// (context for [`KnowledgeGate`], oracle losses for
    /// [`LossBasedGate`]).
    fn predict(&mut self, input: &GateInput<'_>) -> Vec<f32>;

    /// Estimates losses for a batch of frames in one call.
    ///
    /// `features` stacks the per-frame stem features along the batch axis
    /// (`(N, C, H, W)`); `inputs` carries the per-frame context and oracle
    /// data (and per-frame feature views for the default path). Learned
    /// gates override this with a single batched network pass; the default
    /// simply predicts frame by frame.
    ///
    /// # Panics
    /// Panics if `features`'s batch dimension differs from `inputs.len()`.
    fn predict_batch(
        &mut self,
        features: &ecofusion_tensor::Tensor,
        inputs: &[GateInput<'_>],
    ) -> Vec<Vec<f32>> {
        assert_eq!(features.shape()[0], inputs.len(), "predict_batch length mismatch");
        inputs.iter().map(|input| self.predict(input)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_as_in_table2() {
        assert_eq!(GateKind::LossBased.to_string(), "Loss-Based");
        assert_eq!(GateKind::Attention.to_string(), "Attention");
        assert_eq!(GateKind::ALL.len(), 4);
    }
}
