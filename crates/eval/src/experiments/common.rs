//! Shared experiment infrastructure.

use crate::summary::{evaluate_frames, EvalSummary, FrameOutcome};
use ecofusion_core::{
    ConfigId, Dataset, DatasetMix, DatasetSpec, EcoFusionModel, Frame, InferenceOptions,
    TrainConfig, Trainer,
};
use ecofusion_gating::GateKind;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small grids and short training: minutes on a laptop, used by CI and
    /// the default bench binaries.
    Quick,
    /// The full harness configuration (64-pixel grids, longer training).
    Full,
}

/// A trained model plus the dataset it was trained on: the shared input of
/// every experiment runner.
#[derive(Debug)]
pub struct Setup {
    /// The trained model.
    pub model: EcoFusionModel,
    /// The dataset (70:30 split).
    pub dataset: Dataset,
    /// Number of object classes.
    pub num_classes: usize,
}

impl Setup {
    /// Generates data and trains the model at the given scale. Fully
    /// deterministic in `seed`.
    pub fn prepare(scale: Scale, seed: u64) -> Setup {
        let (spec, config) = match scale {
            Scale::Quick => {
                let mut spec = DatasetSpec::small(seed);
                spec.grid = 48;
                spec.num_scenes = 400;
                spec.mix = DatasetMix::Radiate;
                let mut config = TrainConfig::fast_demo();
                config.grid = 48;
                config.branch_epochs = 15;
                config.gate_epochs = 8;
                config.verbose = true;
                (spec, config)
            }
            Scale::Full => {
                let spec = DatasetSpec::standard(seed);
                let mut config = TrainConfig::standard();
                config.verbose = true;
                (spec, config)
            }
        };
        let dataset = Dataset::generate(&spec);
        let mut trainer = Trainer::new(config, seed.wrapping_add(1));
        let model = trainer.train(&dataset).expect("training on generated dataset");
        Setup { model, dataset, num_classes: config.num_classes }
    }
}

/// Evaluates a fixed (static) configuration over `frames`.
///
/// A free function (not a `Setup` method) so callers can hold frame
/// references into the dataset while the model is borrowed mutably.
pub fn static_summary(
    model: &mut EcoFusionModel,
    num_classes: usize,
    frames: &[&Frame],
    config: ConfigId,
) -> EvalSummary {
    let opts = InferenceOptions::new(0.0, 0.5);
    let label = model.space().label(config);
    evaluate_frames(frames, num_classes, |f| {
        let (detections, stage_trace) =
            model.detect_static(f, config, &opts).expect("matching grid");
        FrameOutcome { detections, config_label: label.clone(), stage_trace }
    })
}

/// Evaluates the adaptive pipeline over `frames`.
pub fn adaptive_summary(
    model: &mut EcoFusionModel,
    num_classes: usize,
    frames: &[&Frame],
    gate: GateKind,
    lambda_e: f64,
    gamma: f32,
) -> EvalSummary {
    let opts = InferenceOptions::new(lambda_e, gamma).with_gate(gate);
    evaluate_frames(frames, num_classes, |f| model.infer(f, &opts).expect("matching grid").into())
}
