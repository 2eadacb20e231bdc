//! Training pipeline (§5): supervised branch training, then gate
//! regression on frozen stems/branches.

use crate::dataset::{Dataset, Frame};
use crate::model::{EcoFusionModel, InferError, InferenceOptions};
use crate::pipeline::OracleSample;
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::optim::{Adam, Optimizer};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Observation grid the model is built for (must match the dataset).
    pub grid: usize,
    /// Number of object classes.
    pub num_classes: usize,
    /// Epochs of supervised stem+branch training.
    pub branch_epochs: usize,
    /// Epochs of gate regression training.
    pub gate_epochs: usize,
    /// SGD learning rate for stems and branches.
    pub branch_lr: f32,
    /// Adam learning rate for the learned gates.
    pub gate_lr: f32,
    /// Objectness threshold used when generating gate targets.
    pub score_thresh: f32,
    /// NMS IoU used when generating gate targets.
    pub nms_iou: f32,
    /// Print one progress line per epoch to stderr.
    pub verbose: bool,
}

impl TrainConfig {
    /// Small configuration for tests and the quickstart (pairs with
    /// [`crate::DatasetSpec::small`]).
    pub fn fast_demo() -> Self {
        TrainConfig {
            grid: 32,
            num_classes: 8,
            branch_epochs: 2,
            gate_epochs: 4,
            branch_lr: 1e-3,
            gate_lr: 1e-3,
            score_thresh: 0.2,
            nms_iou: 0.5,
            verbose: false,
        }
    }

    /// The configuration used by the experiment harness (pairs with
    /// [`crate::DatasetSpec::standard`]).
    pub fn standard() -> Self {
        TrainConfig {
            grid: 48,
            num_classes: 8,
            branch_epochs: 30,
            gate_epochs: 16,
            branch_lr: 1e-3,
            gate_lr: 1e-3,
            score_thresh: 0.2,
            nms_iou: 0.5,
            verbose: false,
        }
    }
}

/// Error from [`Trainer::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The dataset has no training frames.
    EmptyDataset,
    /// Dataset grid differs from the configured model grid.
    GridMismatch {
        /// Grid in the train config.
        expected: usize,
        /// Grid of the dataset.
        found: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "dataset has no training frames"),
            TrainError::GridMismatch { expected, found } => {
                write!(f, "dataset grid {found} does not match configured grid {expected}")
            }
        }
    }
}

impl Error for TrainError {}

/// Trains an [`EcoFusionModel`] end to end: first all stems and branches
/// with supervised detection losses (the paper trains "with all of the
/// stems and branches enabled"), then the learned gates to regress the
/// true per-configuration fusion losses from frozen stem features.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    rng: Rng,
}

impl Trainer {
    /// Creates a trainer with a deterministic seed.
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        Trainer { config, rng: Rng::new(seed) }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs the full pipeline and returns the trained model: the branch
    /// phase, the oracle pass over the training frames, the gate phase.
    /// Each is callable on its own — a gate experiment keeps the model
    /// and the samples of the first two and reruns only
    /// [`Trainer::train_gates`].
    ///
    /// # Errors
    /// Returns [`TrainError`] when the dataset is empty or its grid does
    /// not match the configuration.
    pub fn train(&mut self, dataset: &Dataset) -> Result<EcoFusionModel, TrainError> {
        if dataset.train().is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if dataset.grid() != self.config.grid {
            return Err(TrainError::GridMismatch {
                expected: self.config.grid,
                found: dataset.grid(),
            });
        }
        let mut model =
            EcoFusionModel::new(self.config.grid, self.config.num_classes, &mut self.rng);
        self.train_branches(&mut model, dataset);
        let samples = self.gate_samples(&mut model, dataset.train()).expect("grid checked above");
        self.train_gates(&mut model, &samples);
        Ok(model)
    }

    /// Phase 1: supervised stem + branch training. Every branch trains on
    /// every frame; stem gradients accumulate from all branches that
    /// consume the stem (the paper trains all stems and branches jointly).
    /// The dataset must be rendered at the model's grid
    /// ([`Trainer::train`] checks it).
    pub fn train_branches(&mut self, model: &mut EcoFusionModel, dataset: &Dataset) {
        // Adam: batch-1 detection gradients are too noisy for plain SGD to
        // make progress in the few epochs the harness budgets.
        let mut opt = Adam::new(self.config.branch_lr, 1e-5);
        let n_branches = model.space().num_branches();
        let sensors_per_branch: Vec<Vec<usize>> = model
            .space()
            .branches()
            .iter()
            .map(|spec| spec.sensors().iter().map(|k| k.index()).collect())
            .collect();
        let mut order: Vec<usize> = (0..dataset.train().len()).collect();
        for epoch in 0..self.config.branch_epochs {
            // Step-decay schedule: sharper localization in late epochs.
            let decay = if epoch * 10 >= self.config.branch_epochs * 8 {
                0.25
            } else if epoch * 10 >= self.config.branch_epochs * 6 {
                0.5
            } else {
                1.0
            };
            opt.set_learning_rate(self.config.branch_lr * decay);
            self.rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            for &fi in &order {
                let frame = &dataset.train()[fi];
                let gts = frame.gt_boxes();
                let feats: Vec<Tensor> = SensorKind::ALL
                    .iter()
                    .map(|k| model.stems[k.index()].forward(frame.obs.grid(*k), true))
                    .collect();
                let mut stem_grads: Vec<Tensor> =
                    feats.iter().map(|f| Tensor::zeros(f.shape())).collect();
                for (b, sensors) in sensors_per_branch.iter().enumerate() {
                    let parts: Vec<&Tensor> = sensors.iter().map(|s| &feats[*s]).collect();
                    let input = Tensor::concat_channels(&parts);
                    let (loss, grad_in) = model.branches_mut()[b].train_step(&input, &gts);
                    epoch_loss += loss.total() as f64;
                    let split = grad_in.split_channels(&vec![STEM_CHANNELS; sensors.len()]);
                    for (s, g) in sensors.iter().zip(split) {
                        stem_grads[*s].add_assign(&g);
                    }
                }
                for (i, grad) in stem_grads.iter().enumerate() {
                    let _ = model.stems_mut()[i].backward(grad);
                }
                opt.step_visit(&mut |f| model.visit_perception_params(f));
                model.visit_perception_params(&mut |p| p.zero_grad());
            }
            if self.config.verbose {
                eprintln!(
                    "[trainer] branch epoch {}/{}: mean detection loss {:.4}",
                    epoch + 1,
                    self.config.branch_epochs,
                    epoch_loss / (order.len() * n_branches) as f64
                );
            }
        }
    }

    /// The gate-training samples of `frames`: the oracle pass
    /// ([`EcoFusionModel::oracle_pass`]) under the configuration's decode
    /// thresholds — per frame the gate features and the true fusion loss
    /// of every configuration, computed with the (now frozen) stems and
    /// branches, exactly as §5 describes: "we take the trained stem and
    /// branch outputs and use them to separately train the gate model".
    ///
    /// # Errors
    /// As [`EcoFusionModel::infer`].
    pub fn gate_samples(
        &self,
        model: &mut EcoFusionModel,
        frames: &[Frame],
    ) -> Result<Vec<OracleSample>, InferError> {
        let opts = InferenceOptions {
            score_thresh: self.config.score_thresh,
            nms_iou: self.config.nms_iou,
            ..InferenceOptions::new(0.0, 0.5)
        };
        model.oracle_pass(frames, &opts)
    }

    /// Phase 2: gate training, regressing each sample's losses from its
    /// features. Reads nothing of the model but the two learned gates.
    pub fn train_gates(&mut self, model: &mut EcoFusionModel, samples: &[OracleSample]) {
        let mut opt_deep = Adam::new(self.config.gate_lr, 0.0);
        let mut opt_attn = Adam::new(self.config.gate_lr, 0.0);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for epoch in 0..self.config.gate_epochs {
            self.rng.shuffle(&mut order);
            let mut deep_loss = 0.0f64;
            let mut attn_loss = 0.0f64;
            for &si in &order {
                let OracleSample { features, losses, .. } = &samples[si];
                let gates = model.gates_mut();
                gates.deep.zero_grad();
                deep_loss += gates.deep.train_step(features, losses) as f64;
                opt_deep.step(&mut gates.deep);
                gates.attention.zero_grad();
                attn_loss += gates.attention.train_step(features, losses) as f64;
                opt_attn.step(&mut gates.attention);
            }
            if self.config.verbose {
                eprintln!(
                    "[trainer] gate epoch {}/{}: deep {:.4}, attention {:.4}",
                    epoch + 1,
                    self.config.gate_epochs,
                    deep_loss / order.len() as f64,
                    attn_loss / order.len() as f64
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetMix, DatasetSpec};
    use crate::model::InferenceOptions;
    use ecofusion_gating::GateKind;

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut spec = DatasetSpec::small(seed);
        spec.num_scenes = 24;
        Dataset::generate(&spec)
    }

    fn tiny_config() -> TrainConfig {
        TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() }
    }

    #[test]
    fn train_produces_runnable_model() {
        let data = tiny_dataset(1);
        let mut trainer = Trainer::new(tiny_config(), 2);
        let mut model = trainer.train(&data).unwrap();
        let opts = InferenceOptions::new(0.01, 0.5);
        let out = model.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.predicted_losses.len(), 127);
    }

    #[test]
    fn empty_dataset_errors() {
        let mut spec = DatasetSpec::small(3);
        spec.num_scenes = 2;
        spec.train_fraction = 0.01; // rounds to zero training frames
        let data = Dataset::generate(&spec);
        assert!(data.train().is_empty());
        let mut trainer = Trainer::new(tiny_config(), 4);
        assert_eq!(trainer.train(&data).unwrap_err(), TrainError::EmptyDataset);
    }

    #[test]
    fn grid_mismatch_errors() {
        let mut spec = DatasetSpec::small(5);
        spec.grid = 48;
        let data = Dataset::generate(&spec);
        let mut trainer = Trainer::new(tiny_config(), 6);
        assert!(matches!(
            trainer.train(&data).unwrap_err(),
            TrainError::GridMismatch { expected: 32, found: 48 }
        ));
    }

    #[test]
    fn training_reduces_detection_loss() {
        // Compare average config loss of the late-fusion config before and
        // after branch training on a single-context dataset.
        let mut spec = DatasetSpec::small(7);
        spec.mix = DatasetMix::Single(ecofusion_scene::Context::City);
        spec.num_scenes = 30;
        let data = Dataset::generate(&spec);
        let opts = InferenceOptions::new(0.0, 0.5);
        let late = ConfigSpaceLate::id();
        let mut rng = Rng::new(8);
        let mut untrained = EcoFusionModel::new(32, 8, &mut rng);
        let mut trainer = Trainer::new(
            TrainConfig { branch_epochs: 2, gate_epochs: 1, ..TrainConfig::fast_demo() },
            9,
        );
        let mut trained = trainer.train(&data).unwrap();
        let avg = |m: &mut EcoFusionModel| {
            let samples = m.oracle_pass(data.test(), &opts).unwrap();
            samples.iter().map(|s| s.losses[late.0]).sum::<f32>() / samples.len() as f32
        };
        let before = avg(&mut untrained);
        let after = avg(&mut trained);
        assert!(after < before, "training should reduce late-fusion loss: {before} -> {after}");
    }

    /// Helper for the late-fusion config id without a model instance.
    struct ConfigSpaceLate;
    impl ConfigSpaceLate {
        fn id() -> crate::config::ConfigId {
            crate::config::ConfigSpace::canonical().baseline_ids().late
        }
    }

    #[test]
    fn deterministic_training() {
        let data = tiny_dataset(10);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Deep);
        let run = || {
            let mut trainer = Trainer::new(tiny_config(), 11);
            let mut m = trainer.train(&data).unwrap();
            m.infer(&data.test()[0], &opts).unwrap().predicted_losses
        };
        assert_eq!(run(), run());
    }
}
