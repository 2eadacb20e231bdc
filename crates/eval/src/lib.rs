//! Evaluation metrics and paper-experiment runners.
//!
//! * [`map_voc`] — PASCAL-VOC mean average precision at IoU ≥ 0.5, the
//!   paper's detection metric (§5).
//! * [`EvalSummary`] — aggregate mAP / average fusion loss / average
//!   energy / latency for one method over a frame set, folded by the one
//!   [`EvalAccumulator`] that [`evaluate_frames`] and the runtime's
//!   per-stream telemetry both drive.
//! * [`experiments`] — one runner per table and figure of the paper's
//!   evaluation section (Fig. 1, Fig. 4, Fig. 5, Tables 1–3) plus the
//!   ablation studies promised in DESIGN.md. Each runner returns typed
//!   rows and renders the same layout the paper prints; the
//!   `ecofusion-bench` binaries are thin wrappers around them.

pub mod experiments;
pub mod gate_quality;
pub mod map;
pub mod parity;
pub mod summary;
pub mod tables;

pub use gate_quality::{assess_gate, spearman, GateQualityReport};
pub use map::{average_precision, map_voc, per_class_ap, GtFrame};
pub use parity::{ParityReport, ParityRow, DEFAULT_MAX_DRIFT_PP};
pub use summary::{evaluate_frames, EvalAccumulator, EvalSummary, FrameOutcome};
pub use tables::Table;

/// Ascending order of two scores with **NaN last**, a total order — which
/// `partial_cmp(..).unwrap_or(Equal)` is not once a NaN is present, and
/// `sort_by` may panic on a comparator that is none. On everything else
/// it is `partial_cmp` itself: `+ 0.0` folds −0.0 onto 0.0, which
/// `total_cmp` would tell apart. Descending with NaN last is
/// `nan_last(-a, -b)`.
pub(crate) fn nan_last(a: f32, b: f32) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| (a + 0.0).total_cmp(&(b + 0.0)))
}

#[cfg(test)]
mod tests {
    use super::nan_last;
    use std::cmp::Ordering;

    /// Bit-identity of every sort on NaN-free input: over a grid of
    /// finite values, both zeros, subnormals and the infinities the new
    /// comparator answers exactly what the old one did, ascending and
    /// descending.
    #[test]
    fn nan_last_is_partial_cmp_where_that_is_an_order() {
        let values = [
            f32::NEG_INFINITY,
            -f32::MAX,
            -1.5,
            -1.0,
            -f32::MIN_POSITIVE,
            -1.0e-45,
            -0.0,
            0.0,
            1.0e-45,
            f32::MIN_POSITIVE,
            0.3,
            1.0,
            1.0 + f32::EPSILON,
            f32::MAX,
            f32::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(nan_last(a, b), a.partial_cmp(&b).expect("no NaN"), "{a} vs {b}");
                assert_eq!(nan_last(-a, -b), b.partial_cmp(&a).expect("no NaN"), "{b} vs {a}");
            }
            for nan in [f32::NAN, -f32::NAN] {
                assert_eq!(nan_last(a, nan), Ordering::Less, "{a} before NaN");
                assert_eq!(nan_last(nan, a), Ordering::Greater, "NaN behind {a}");
                assert_eq!(nan_last(-a, -nan), Ordering::Less, "descending: {a} before NaN");
            }
        }
    }
}
