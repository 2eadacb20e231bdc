//! Per-method evaluation aggregation.

use crate::map::{map_voc, GtFrame};
use ecofusion_core::Frame;
use ecofusion_detect::{Detection, LossScratch};
use ecofusion_energy::{EnergyBreakdown, StageKind, StageTrace};
use ecofusion_scene::GtBox;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One frame's outcome under some method.
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// Fused detections.
    pub detections: Vec<Detection>,
    /// Energy/latency breakdown of the executed configuration.
    pub energy: EnergyBreakdown,
    /// Label of the executed configuration (for selection histograms).
    pub config_label: String,
    /// Per-stage accounting, when the method ran the staged pipeline
    /// (static baselines report `None`).
    pub stage: Option<StageTrace>,
}

/// Aggregate metrics of one method over a frame set — the columns of the
/// paper's tables.
///
/// `Deserialize` as well as `Serialize`: the bench-report harness embeds
/// summaries in its machine-readable `BenchReport` JSON and reads them
/// back in compare mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalSummary {
    /// VOC mAP at IoU ≥ 0.5, percent.
    pub map_pct: f64,
    /// Mean fusion loss (paper "Avg. Loss").
    pub avg_loss: f64,
    /// Mean PX2 platform energy, Joules (paper "Energy (J)").
    pub avg_energy_j: f64,
    /// Mean pipeline latency, ms (paper "Latency (ms)").
    pub avg_latency_ms: f64,
    /// Mean platform + clock-gated sensor energy, Joules (Table 3).
    pub avg_total_gated_j: f64,
    /// Mean stems executed per frame by the demand-driven pipeline
    /// (0 when no frame reported a stage trace).
    pub avg_stems_executed: f64,
    /// Mean per-stage total (platform + gated sensor) energy, Joules, in
    /// [`StageKind::ALL`] order; empty when no frame reported a trace.
    pub stage_energy_j: Vec<f64>,
    /// Number of frames evaluated.
    pub frames: usize,
    /// How often each configuration was executed.
    pub config_histogram: BTreeMap<String, usize>,
}

/// The one scorekeeper of the paper's metrics: running sums, per-stage
/// sums, the configuration histogram and the retained detections and
/// ground truth that mAP is computed from when a summary is asked for.
/// [`evaluate_frames`] drives one per method; the runtime's
/// `StreamTelemetry` keeps one per stream beside its serving counters.
#[derive(Debug, Default)]
pub struct EvalAccumulator {
    frames: usize,
    loss_sum: f64,
    platform_j: f64,
    latency_ms: f64,
    total_gated_j: f64,
    traced_frames: usize,
    stems_executed: u64,
    stage_energy_j: [f64; StageKind::COUNT],
    stage_latency_ms: [f64; StageKind::COUNT],
    config_histogram: BTreeMap<String, usize>,
    dets_per_frame: Vec<Vec<Detection>>,
    gt_frames: Vec<GtFrame>,
    /// The fusion-loss kernel's buffers, kept so that a frame's loss
    /// allocates nothing once they have grown.
    loss: LossScratch,
}

impl EvalAccumulator {
    /// Records one frame: its fused detections and ground truth (both
    /// retained), the energy of the executed configuration, its label,
    /// and the per-stage accounting when the method reports one.
    pub fn record(
        &mut self,
        detections: Vec<Detection>,
        energy: &EnergyBreakdown,
        config_label: &str,
        stage: Option<&StageTrace>,
        gts: Vec<GtBox>,
    ) {
        self.frames += 1;
        self.loss_sum += self.loss.fusion_loss(&detections, &gts).total() as f64;
        self.platform_j += energy.platform.joules();
        self.latency_ms += energy.latency.millis();
        self.total_gated_j += energy.total_gated().joules();
        if let Some(trace) = stage {
            self.traced_frames += 1;
            self.stems_executed += trace.stems_executed as u64;
            for (i, stage) in StageKind::ALL.into_iter().enumerate() {
                self.stage_energy_j[i] += trace.cost(stage).energy.joules();
                self.stage_latency_ms[i] += trace.cost(stage).latency.millis();
            }
        }
        // The label is cloned the first time a configuration is seen,
        // not once a frame to look it up.
        match self.config_histogram.get_mut(config_label) {
            Some(count) => *count += 1,
            None => {
                self.config_histogram.insert(config_label.to_string(), 1);
            }
        }
        self.dets_per_frame.push(detections);
        self.gt_frames.push(GtFrame { boxes: gts });
    }

    /// Forgets the detections and ground truth of all but the `keep`
    /// most recent frames; every sum stays exact over the whole run.
    pub fn truncate_history(&mut self, keep: usize) {
        let drop = self.dets_per_frame.len().saturating_sub(keep);
        self.dets_per_frame.drain(..drop);
        self.gt_frames.drain(..drop);
    }

    /// Frames recorded.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Fused detections of the retained frames, in recording order.
    pub fn detections(&self) -> &[Vec<Detection>] {
        &self.dets_per_frame
    }

    /// Total platform (PX2) energy, Joules.
    pub fn platform_j(&self) -> f64 {
        self.platform_j
    }

    /// Total platform + clock-gated sensor energy, Joules (Eq. 11).
    pub fn total_gated_j(&self) -> f64 {
        self.total_gated_j
    }

    /// Total stems executed over the frames that reported a trace.
    pub fn stems_executed(&self) -> u64 {
        self.stems_executed
    }

    /// Total modeled per-stage energy, Joules, in [`StageKind::ALL`]
    /// order (sums to the Eq. 11 total of the traced frames).
    pub fn stage_energy_j(&self) -> &[f64; StageKind::COUNT] {
        &self.stage_energy_j
    }

    /// Total modeled per-stage latency, ms, in [`StageKind::ALL`] order.
    pub fn stage_latency_ms(&self) -> &[f64; StageKind::COUNT] {
        &self.stage_latency_ms
    }

    /// The paper's metrics so far: mAP over the retained frames, every
    /// mean over all recorded frames (stage means over the traced ones).
    /// A zeroed summary when nothing was recorded.
    pub fn summary(&self, num_classes: usize) -> EvalSummary {
        let n = self.frames.max(1) as f64;
        let map = if self.frames == 0 {
            0.0
        } else {
            map_voc(&self.dets_per_frame, &self.gt_frames, num_classes, 0.5) as f64
        };
        let traced = self.traced_frames.max(1) as f64;
        EvalSummary {
            map_pct: map * 100.0,
            avg_loss: self.loss_sum / n,
            avg_energy_j: self.platform_j / n,
            avg_latency_ms: self.latency_ms / n,
            avg_total_gated_j: self.total_gated_j / n,
            avg_stems_executed: self.stems_executed as f64 / traced,
            stage_energy_j: if self.traced_frames == 0 {
                Vec::new()
            } else {
                self.stage_energy_j.iter().map(|s| s / traced).collect()
            },
            frames: self.frames,
            config_histogram: self.config_histogram.clone(),
        }
    }
}

/// Evaluates a method (any closure producing a [`FrameOutcome`] per frame)
/// over `frames` and aggregates the paper's metrics.
///
/// Returns a zeroed summary when `frames` is empty.
pub fn evaluate_frames(
    frames: &[&Frame],
    num_classes: usize,
    mut run: impl FnMut(&Frame) -> FrameOutcome,
) -> EvalSummary {
    let mut acc = EvalAccumulator::default();
    for frame in frames {
        let outcome = run(frame);
        acc.record(
            outcome.detections,
            &outcome.energy,
            &outcome.config_label,
            outcome.stage.as_ref(),
            frame.gt_boxes(),
        );
    }
    acc.summary(num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_core::{Dataset, DatasetSpec, EcoFusionModel, InferenceOptions};
    use ecofusion_tensor::rng::Rng;

    #[test]
    fn empty_frames_zero_summary() {
        let s = evaluate_frames(&[], 8, |_| unreachable!());
        assert_eq!(s.frames, 0);
        assert_eq!(s.map_pct, 0.0);
    }

    #[test]
    fn summary_serde_roundtrip_is_lossless() {
        let mut histogram = BTreeMap::new();
        histogram.insert("E(C_L+C_R+L)".to_string(), 3usize);
        histogram.insert("L(R)".to_string(), 1usize);
        let s = EvalSummary {
            map_pct: 41.25,
            avg_loss: 1.5,
            avg_energy_j: 3.798,
            avg_latency_ms: 61.37,
            avg_total_gated_j: 4.1,
            avg_stems_executed: 2.75,
            stage_energy_j: vec![0.25, 0.352, 0.01, 0.0, 3.0, 0.05, 0.0],
            frames: 4,
            config_histogram: histogram,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: EvalSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.map_pct.to_bits(), s.map_pct.to_bits());
        assert_eq!(back.avg_latency_ms.to_bits(), s.avg_latency_ms.to_bits());
        assert_eq!(back.stage_energy_j, s.stage_energy_j);
        assert_eq!(back.frames, s.frames);
        assert_eq!(back.config_histogram, s.config_histogram);
    }

    #[test]
    fn aggregates_static_baseline() {
        let data = Dataset::generate(&DatasetSpec::small(1));
        let mut rng = Rng::new(2);
        let mut model = EcoFusionModel::new(32, 8, &mut rng);
        let opts = InferenceOptions::new(0.0, 0.5);
        let late = model.baseline_ids().late;
        let frames: Vec<&ecofusion_core::Frame> = data.test().iter().collect();
        let label = model.space().label(late);
        let summary = evaluate_frames(&frames, 8, |f| {
            let (detections, energy, _) = model.detect_static(f, late, &opts).unwrap();
            FrameOutcome { detections, energy, config_label: label.clone(), stage: None }
        });
        assert_eq!(summary.frames, data.test().len());
        assert!((summary.avg_energy_j - 3.798).abs() < 1e-6);
        assert!(summary.avg_loss > 0.0, "untrained model should have loss");
        assert_eq!(summary.config_histogram.len(), 1);
    }
}
