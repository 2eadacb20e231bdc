//! Per-stream runtime telemetry, aggregated into the same
//! [`EvalSummary`] the offline experiment harness reports.

use crate::hist::LatencyHistogram;
use ecofusion_core::{ConfigId, InferenceOutput, Precision};
use ecofusion_detect::Detection;
use ecofusion_energy::StageKind;
use ecofusion_eval::{EvalAccumulator, EvalSummary};
use ecofusion_scene::GtBox;

/// Upper bound on retained per-frame history (detections + ground truth
/// for the mAP computation). Beyond it the oldest half is discarded, so a
/// long-lived server stays bounded in memory: scalar counters (frames,
/// energy, latency, loss, histogram) remain exact over the whole run,
/// while the summary's mAP covers the most recent window.
pub const HISTORY_CAP: usize = 65_536;

/// Per-stream serving telemetry: the paper's metrics, kept by the same
/// [`EvalAccumulator`] the offline harness drives, beside the counters
/// only a runtime has (queueing, health, caches, precision, fallbacks).
#[derive(Debug, Default)]
pub struct StreamTelemetry {
    eval: EvalAccumulator,
    latency_hist: LatencyHistogram,
    queue_wait_ticks: u64,
    selected_configs: Vec<ConfigId>,
    degraded_frames: u64,
    masked_frames: u64,
    stems_cached: u64,
    stems_skipped: u64,
    int8_frames: u64,
    gate_fallbacks: u64,
}

impl StreamTelemetry {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        StreamTelemetry::default()
    }

    /// Records one processed frame: the inference output, the frame's
    /// ground truth, and how many scheduler ticks it waited in queue. The
    /// output's detections and the ground truth are kept (the mAP window)
    /// as they come, not copied.
    pub fn record(&mut self, output: InferenceOutput, gts: Vec<GtBox>, wait_ticks: u64) {
        self.latency_hist.record(output.energy.latency.millis());
        self.queue_wait_ticks += wait_ticks;
        self.stems_cached += output.stage_trace.stems_cached as u64;
        self.stems_skipped += output.stage_trace.stems_skipped as u64;
        if output.precision == Precision::Int8 {
            self.int8_frames += 1;
        }
        self.gate_fallbacks += u64::from(output.gate_fallbacks);
        if self.selected_configs.len() >= HISTORY_CAP {
            // Drop the oldest half in one amortized move so unbounded
            // serving cannot grow memory without limit.
            let keep = HISTORY_CAP / 2;
            self.eval.truncate_history(keep);
            self.selected_configs.drain(..self.selected_configs.len() - keep);
        }
        self.eval.record(
            output.detections,
            &output.energy,
            &output.selected_label,
            Some(&output.stage_trace),
            gts,
        );
        self.selected_configs.push(output.selected_config);
    }

    /// Fused detections of the retained frames (the most recent
    /// [`HISTORY_CAP`]-bounded window), in processing order.
    pub fn detections(&self) -> &[Vec<Detection>] {
        self.eval.detections()
    }

    /// Configuration selected for each retained frame, in processing
    /// order (aligned with [`StreamTelemetry::detections`]).
    pub fn selected_configs(&self) -> &[ConfigId] {
        &self.selected_configs
    }

    /// Notes the health verdict the stream's monitor reached for one
    /// frame: `degraded` when any sensor was not healthy, `masked` when
    /// the availability mask actually ruled sensors out. Called once per
    /// processed frame, alongside [`StreamTelemetry::record`].
    pub fn note_health(&mut self, degraded: bool, masked: bool) {
        if degraded {
            self.degraded_frames += 1;
        }
        if masked {
            self.masked_frames += 1;
        }
    }

    /// Frames processed while at least one sensor was degraded or failed.
    pub fn degraded_frames(&self) -> u64 {
        self.degraded_frames
    }

    /// Frames processed while the health mask ruled out at least one
    /// sensor.
    pub fn masked_frames(&self) -> u64 {
        self.masked_frames
    }

    /// Total stems the demand-driven pipeline actually ran.
    pub fn stems_executed(&self) -> u64 {
        self.eval.stems_executed()
    }

    /// Total stems served from the stream's feature cache (or an
    /// identical in-batch grid).
    pub fn stems_cached(&self) -> u64 {
        self.stems_cached
    }

    /// Total stems pruned by the demand-driven plan.
    pub fn stems_skipped(&self) -> u64 {
        self.stems_skipped
    }

    /// Frames whose perception stages ran int8-quantized (the emergency
    /// ladder rung, or an explicit [`Precision::Int8`] option).
    pub fn int8_frames(&self) -> u64 {
        self.int8_frames
    }

    /// Frames on which the knowledge gate had no rule for the scene
    /// context and degraded to its cheapest-configuration fallback.
    pub fn gate_fallbacks(&self) -> u64 {
        self.gate_fallbacks
    }

    /// Total modeled per-stage energy, Joules, in [`StageKind::ALL`]
    /// order (sums to the whole-run Eq. 11 total).
    pub fn stage_energy_j(&self) -> &[f64; StageKind::COUNT] {
        self.eval.stage_energy_j()
    }

    /// Total modeled per-stage latency, ms, in [`StageKind::ALL`] order.
    pub fn stage_latency_ms(&self) -> &[f64; StageKind::COUNT] {
        self.eval.stage_latency_ms()
    }

    /// Fixed-bucket histogram of per-frame modeled latency (every
    /// recorded frame, not just the retained mAP window).
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency_hist
    }

    /// The `p`-th percentile of per-frame modeled latency, ms (upper
    /// bucket edge; see [`LatencyHistogram::percentile`]).
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        self.latency_hist.percentile(p)
    }

    /// Frames recorded.
    pub fn frames(&self) -> u64 {
        self.eval.frames() as u64
    }

    /// Frames currently inside the retained mAP window — what
    /// [`StreamTelemetry::summary`] actually computes accuracy over.
    /// Equal to [`StreamTelemetry::frames`] until [`HISTORY_CAP`] is
    /// first exceeded; bounded by the cap afterwards. Surfaced as
    /// [`StreamReport::map_window_frames`](crate::StreamReport::map_window_frames)
    /// so long-run reports say which frames their mAP covers.
    pub fn retained_frames(&self) -> usize {
        self.selected_configs.len()
    }

    /// Total platform (PX2) energy spent, Joules.
    pub fn platform_j(&self) -> f64 {
        self.eval.platform_j()
    }

    /// Total platform + clock-gated sensor energy spent, Joules (Eq. 11).
    pub fn total_gated_j(&self) -> f64 {
        self.eval.total_gated_j()
    }

    /// Mean queueing delay per frame, in scheduler ticks.
    pub fn avg_queue_wait_ticks(&self) -> f64 {
        match self.frames() {
            0 => 0.0,
            frames => self.queue_wait_ticks as f64 / frames as f64,
        }
    }

    /// Aggregates into the harness's [`EvalSummary`]: mAP over the
    /// retained ([`HISTORY_CAP`]-bounded) frame window, exact
    /// whole-run means for loss/energy/latency, and the full
    /// configuration histogram. Returns a zeroed summary when no frames
    /// were recorded.
    ///
    /// On runs longer than [`HISTORY_CAP`] frames the summary's
    /// `map_pct` is therefore a *windowed* accuracy — it covers the
    /// most recent [`StreamTelemetry::retained_frames`] frames, not the
    /// whole run — while every scalar mean in the summary stays exact
    /// over all [`StreamTelemetry::frames`] frames.
    pub fn summary(&self, num_classes: usize) -> EvalSummary {
        self.eval.summary(num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_core::{Dataset, DatasetSpec, EcoFusionModel, InferenceOptions};
    use ecofusion_tensor::rng::Rng;

    #[test]
    fn empty_telemetry_zeroed() {
        let t = StreamTelemetry::new();
        let s = t.summary(8);
        assert_eq!(s.frames, 0);
        assert_eq!(s.map_pct, 0.0);
        assert_eq!(t.avg_queue_wait_ticks(), 0.0);
    }

    #[test]
    fn record_accumulates_and_matches_summary() -> Result<(), ecofusion_core::model::InferError> {
        let data = Dataset::generate(&DatasetSpec::small(21));
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(2));
        let opts = InferenceOptions::new(0.01, 0.5);
        let mut t = StreamTelemetry::new();
        let mut manual_platform = 0.0;
        for (i, f) in data.test().iter().take(3).enumerate() {
            let out = model.infer(f, &opts)?;
            manual_platform += out.energy.platform.joules();
            t.record(out, f.gt_boxes(), i as u64);
        }
        assert_eq!(t.frames(), 3);
        assert!((t.platform_j() - manual_platform).abs() < 1e-12);
        assert!((t.avg_queue_wait_ticks() - 1.0).abs() < 1e-12);
        let s = t.summary(8);
        assert_eq!(s.frames, 3);
        assert!((s.avg_energy_j - manual_platform / 3.0).abs() < 1e-12);
        assert_eq!(s.config_histogram.values().sum::<usize>(), 3);
        assert!(s.avg_total_gated_j >= s.avg_energy_j);
        // The histogram sees every frame; its exact mean matches the
        // summary's running mean and its percentiles bracket it.
        assert_eq!(t.latency_histogram().count(), 3);
        assert!((t.latency_histogram().mean() - s.avg_latency_ms).abs() < 1e-9);
        let p50 = t.latency_percentile_ms(50.0);
        let p99 = t.latency_percentile_ms(99.0);
        assert!(p50 > 0.0 && p99 >= p50);
        Ok(())
    }

    #[test]
    fn precision_and_fallback_counters_accumulate() -> Result<(), ecofusion_core::model::InferError>
    {
        let data = Dataset::generate(&DatasetSpec::small(22));
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(2));
        let mut t = StreamTelemetry::new();
        let frame = &data.test()[0];
        let f32_out = model.infer(frame, &InferenceOptions::new(0.01, 0.5))?;
        t.record(f32_out, frame.gt_boxes(), 0);
        assert_eq!(t.int8_frames(), 0);
        let int8_opts = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let mut int8_out = model.infer(frame, &int8_opts)?;
        int8_out.gate_fallbacks = 2;
        t.record(int8_out, frame.gt_boxes(), 0);
        assert_eq!(t.frames(), 2);
        assert_eq!(t.int8_frames(), 1);
        assert_eq!(t.gate_fallbacks(), 2);
        Ok(())
    }

    #[test]
    fn health_counters_accumulate_independently() {
        let mut t = StreamTelemetry::new();
        t.note_health(false, false);
        t.note_health(true, false);
        t.note_health(true, true);
        assert_eq!(t.degraded_frames(), 2);
        assert_eq!(t.masked_frames(), 1);
        // Health notes do not count as processed frames.
        assert_eq!(t.frames(), 0);
    }
}
