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
