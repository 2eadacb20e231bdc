//! Object-detection substrate for the EcoFusion reproduction.
//!
//! The paper's branches are Faster R-CNN detectors (ResNet-18 backbone +
//! RPN + ROI head) split after the first convolution block into a
//! per-modality *stem* and a per-branch *body*. This crate provides every
//! building block at a CPU-trainable scale:
//!
//! * [`BBox`] / [`Detection`] — axis-aligned boxes, IoU/GIoU.
//! * [`nms()`](nms::nms) — greedy and soft non-maximum suppression.
//! * [`wbf`] — Weighted Boxes Fusion (Solovyev et al. 2021), the paper's
//!   late-fusion block (§4.4): one fusion pass behind the one-shot
//!   [`weighted_boxes_fusion`], [`FusionScratch::fuse`] (the same out of
//!   a reusable scratch) and, with [`metrics`]' loss kernel,
//!   [`subset_fusion_losses`] — the fusion loss `L_f(φ)` of every branch
//!   subset of a frame from boxes sorted and indexed once.
//! * [`anchors`] — the cell grid and ground-truth assignment used by the
//!   dense detection head.
//! * [`Stem`] — the first convolution block, one per sensing modality.
//! * [`BranchDetector`] — backbone blocks + RPN-style dense head.
//!
//! The dense head plays the role of Faster R-CNN's RPN + classification
//! head in a single stage — the same loss structure (objectness BCE, class
//! cross-entropy, smooth-L1 box regression from Ren et al.) at a scale
//! trainable in seconds on CPU, per the reproduction's substitution policy
//! (see DESIGN.md).

pub mod anchors;
pub mod bbox;
pub mod branch;
pub mod head;
pub mod metrics;
pub mod nms;
pub mod quant;
pub mod stem;
pub mod wbf;

pub use anchors::{assign_targets, CellGrid, CellTarget};
pub use bbox::{BBox, Detection};
pub use branch::{BranchConfig, BranchDetector};
pub use head::{DecodeScratch, DenseHead, DetectionLoss, HeadOutput};
pub use metrics::{
    fusion_loss, subset_fusion_losses, subset_fusion_losses_into, FusionLoss, LossScratch,
};
pub use nms::{nms, soft_nms, NmsScratch};
pub use quant::QuantBranch;
pub use stem::Stem;
pub use wbf::{weighted_boxes_fusion, FusionScratch, WbfParams};
