//! Ablation studies promised in DESIGN.md: the γ margin, the Eq. 7
//! candidate-rule variant, and the fusion-block algorithm.

use crate::experiments::common::{adaptive_summary, Setup};
use crate::summary::{evaluate_frames, FrameOutcome};
use crate::tables::Table;
use ecofusion_core::{CandidateRule, InferenceOptions};
use ecofusion_detect::{nms, soft_nms, weighted_boxes_fusion, Detection, WbfParams};
use ecofusion_gating::GateKind;
use serde::Serialize;

/// One ablation row: a named variant with the three headline metrics.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// VOC mAP, percent.
    pub map_pct: f64,
    /// Average fusion loss.
    pub avg_loss: f64,
    /// Average platform energy, Joules.
    pub energy_j: f64,
}

/// Result of one ablation study.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// Study name.
    pub name: String,
    /// Variant rows.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Renders the study.
    pub fn print(&self) {
        println!("Ablation — {}", self.name);
        let mut t = Table::new(&["Variant", "mAP (%)", "Avg. Loss", "Energy (J)"]);
        for r in &self.rows {
            t.row(&[
                r.variant.clone(),
                format!("{:.2}%", r.map_pct),
                format!("{:.3}", r.avg_loss),
                format!("{:.3}", r.energy_j),
            ]);
        }
        println!("{t}");
    }
}

/// γ sweep (the paper fixes γ = 0.5 after a sensitivity study): attention
/// gate, λ_E = 0.05.
pub fn gamma_sweep(setup: &mut Setup) -> AblationResult {
    let frames: Vec<&ecofusion_core::Frame> = setup.dataset.test().iter().collect();
    let mut rows = Vec::new();
    for gamma in [0.0f32, 0.25, 0.5, 1.0, 2.0] {
        let s = adaptive_summary(
            &mut setup.model,
            setup.num_classes,
            &frames,
            GateKind::Attention,
            0.05,
            gamma,
        );
        rows.push(AblationRow {
            variant: format!("gamma = {gamma}"),
            map_pct: s.map_pct,
            avg_loss: s.avg_loss,
            energy_j: s.avg_energy_j,
        });
    }
    AblationResult { name: "gamma margin sweep (Attention, lambda_E = 0.05)".into(), rows }
}

/// Candidate rule: the margin rule vs Eq. 7 as literally printed.
pub fn candidate_rule(setup: &mut Setup) -> AblationResult {
    let frames: Vec<&ecofusion_core::Frame> = setup.dataset.test().iter().collect();
    let mut rows = Vec::new();
    for (rule, label) in [
        (CandidateRule::Margin, "Margin (L_f - L_f' <= gamma)"),
        (CandidateRule::PaperEq7, "Paper Eq. 7 (L_f <= 2 L_f' + gamma)"),
    ] {
        for lambda in [0.01, 0.1] {
            let opts = InferenceOptions { rule, ..InferenceOptions::new(lambda, 0.5) };
            let model = &mut setup.model;
            let s = evaluate_frames(&frames, setup.num_classes, |f| {
                let out = model.infer(f, &opts).expect("matching grid");
                FrameOutcome {
                    detections: out.detections,
                    energy: out.energy,
                    config_label: out.selected_label,
                    stage: Some(out.stage_trace),
                }
            });
            rows.push(AblationRow {
                variant: format!("{label}, lambda_E = {lambda}"),
                map_pct: s.map_pct,
                avg_loss: s.avg_loss,
                energy_j: s.avg_energy_j,
            });
        }
    }
    AblationResult { name: "Eq. 7 candidate rule variant (Attention)".into(), rows }
}

/// Fusion block algorithm on the late-fusion ensemble: WBF (the paper's
/// choice, §4.4) vs greedy NMS vs soft-NMS.
pub fn fusion_block(setup: &mut Setup) -> AblationResult {
    let frames: Vec<&ecofusion_core::Frame> = setup.dataset.test().iter().collect();
    let opts = InferenceOptions::new(0.0, 0.5);
    let late = setup.model.baseline_ids().late;
    let late_ids = setup.model.space().branch_ids(late);
    let mut rows = Vec::new();
    type Fuser = Box<dyn Fn(&[Vec<Detection>]) -> Vec<Detection>>;
    let fusers: Vec<(&str, Fuser)> = vec![
        (
            "Weighted Boxes Fusion (paper)",
            Box::new(|outs: &[Vec<Detection>]| {
                weighted_boxes_fusion(outs, &WbfParams::default(), outs.len())
            }),
        ),
        (
            "Greedy NMS",
            Box::new(|outs: &[Vec<Detection>]| nms(outs.iter().flatten().copied().collect(), 0.5)),
        ),
        (
            "Soft-NMS",
            Box::new(|outs: &[Vec<Detection>]| {
                soft_nms(outs.iter().flatten().copied().collect(), 0.5, 0.05)
            }),
        ),
    ];
    // Every fuser reads the same branch outputs: one oracle pass.
    let model = &mut setup.model;
    let samples = model.oracle_pass(setup.dataset.test(), &opts).expect("matching grid");
    let energy = ecofusion_energy::EnergyBreakdown::compute(
        model.px2(),
        model.sensor_power(),
        &model.space().branch_specs(late),
        ecofusion_energy::StemPolicy::Static,
    );
    for (label, fuser) in fusers {
        let mut samples = samples.iter();
        let s = evaluate_frames(&frames, setup.num_classes, |_| {
            let sample = samples.next().expect("one sample per frame");
            let outs: Vec<Vec<Detection>> =
                late_ids.iter().map(|b| sample.branch_dets[b.0].clone()).collect();
            FrameOutcome {
                detections: fuser(&outs),
                energy,
                config_label: label.to_string(),
                stage: None,
            }
        });
        rows.push(AblationRow {
            variant: label.to_string(),
            map_pct: s.map_pct,
            avg_loss: s.avg_loss,
            energy_j: s.avg_energy_j,
        });
    }
    AblationResult { name: "fusion block algorithm (late fusion ensemble)".into(), rows }
}
