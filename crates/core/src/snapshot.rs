//! Whole-model (de)serialization.
//!
//! §5.5.1 of the paper: "the designer would first need to train the model
//! on the appropriate dataset before ... the model can be compiled for
//! hardware". A deployable reproduction therefore needs trained models to
//! round-trip through disk; [`ModelSnapshot`] captures every trainable
//! parameter and batch-norm buffer of the stems, branches, and learned
//! gates, together with the shape metadata needed to validate a restore.

use crate::dataset::{Dataset, DatasetSpec};
use crate::model::EcoFusionModel;
use ecofusion_detect::QuantBranch;
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::quant::QuantPipe;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::serialize::{ParamSnapshot, RestoreSnapshotError};
use ecofusion_tensor::tensor::Tensor;
use ecofusion_tensor::QuantizeError;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// A serializable snapshot of a trained [`EcoFusionModel`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModelSnapshot {
    grid: usize,
    num_classes: usize,
    stems: Vec<ParamSnapshot>,
    branches: Vec<ParamSnapshot>,
    deep_gate: ParamSnapshot,
    attention_gate: ParamSnapshot,
}

impl ModelSnapshot {
    /// Captures a model's weights.
    pub fn capture(model: &mut EcoFusionModel) -> Self {
        let grid = model.grid();
        let num_classes = model.num_classes();
        let stems = model.stems_mut().iter_mut().map(|s| ParamSnapshot::capture(s)).collect();
        let branches = model.branches_mut().iter_mut().map(|b| ParamSnapshot::capture(b)).collect();
        let gates = model.gates_mut();
        let deep_gate = ParamSnapshot::capture(&mut gates.deep);
        let attention_gate = ParamSnapshot::capture(&mut gates.attention);
        ModelSnapshot { grid, num_classes, stems, branches, deep_gate, attention_gate }
    }

    /// Observation grid the snapshot was trained for.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of object classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Rebuilds a runnable model from the snapshot.
    ///
    /// # Errors
    /// Returns [`RestoreModelError`] if the header names dimensions no
    /// model can be built for, or any component's parameter count or
    /// shape does not match (e.g. a snapshot from a different version).
    pub fn restore(&self) -> Result<EcoFusionModel, RestoreModelError> {
        if let Some((field, value, rule)) = EcoFusionModel::dimension_rule(self.grid) {
            return Err(RestoreModelError::Dimension { field, value, rule });
        }
        // Seed is irrelevant: every weight is overwritten.
        let mut rng = Rng::new(0);
        let mut model = EcoFusionModel::new(self.grid, self.num_classes, &mut rng);
        if self.stems.len() != model.stems_mut().len() {
            return Err(RestoreModelError::ComponentCount {
                component: "stems",
                expected: self.stems.len(),
                found: model.stems_mut().len(),
            });
        }
        if self.branches.len() != model.branches_mut().len() {
            return Err(RestoreModelError::ComponentCount {
                component: "branches",
                expected: self.branches.len(),
                found: model.branches_mut().len(),
            });
        }
        for (i, (snap, stem)) in self.stems.iter().zip(model.stems_mut().iter_mut()).enumerate() {
            snap.restore(stem).map_err(|source| RestoreModelError::Component {
                component: "stem",
                index: i,
                source,
            })?;
        }
        for (i, (snap, branch)) in
            self.branches.iter().zip(model.branches_mut().iter_mut()).enumerate()
        {
            snap.restore(branch).map_err(|source| RestoreModelError::Component {
                component: "branch",
                index: i,
                source,
            })?;
        }
        let gates = model.gates_mut();
        self.deep_gate.restore(&mut gates.deep).map_err(|source| RestoreModelError::Component {
            component: "deep gate",
            index: 0,
            source,
        })?;
        self.attention_gate.restore(&mut gates.attention).map_err(|source| {
            RestoreModelError::Component { component: "attention gate", index: 0, source }
        })?;
        Ok(model)
    }

    /// Serializes the snapshot as JSON to `path`.
    ///
    /// # Errors
    /// Returns any I/O or serialization error.
    pub fn save_json(&self, path: &Path) -> Result<(), Box<dyn Error>> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Reads a snapshot back from JSON.
    ///
    /// # Errors
    /// Returns any I/O or deserialization error.
    pub fn load_json(path: &Path) -> Result<ModelSnapshot, Box<dyn Error>> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }
}

/// Seed of the synthetic fixture dataset used to calibrate int8
/// activation scales. Fixed so that quantizing the same weights always
/// produces the same image (shard replicas must agree bit for bit).
pub const QUANT_CALIB_SEED: u64 = 90221;

/// Number of fixture frames propagated during calibration.
pub const QUANT_CALIB_FRAMES: usize = 4;

/// The post-training int8 image of a model's stems and branches, stored
/// beside [`ModelSnapshot`]: per-output-channel symmetric weight scales,
/// per-tensor activation scales calibrated over the seeded fixtures, and
/// folded batch-norm affines. Gates and the optimizer are untouched —
/// `GateScore`/`Select` always run at full precision.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct QuantSnapshot {
    grid: usize,
    num_classes: usize,
    /// One quantized pipe per canonical sensor's stem.
    pub(crate) stems: Vec<QuantPipe>,
    /// One quantized branch per canonical branch.
    pub(crate) branches: Vec<QuantBranch>,
}

impl QuantSnapshot {
    /// Quantizes a model's stems and branches, calibrating activation
    /// scales by propagating [`QUANT_CALIB_FRAMES`] seeded fixture frames
    /// through the f32 network.
    ///
    /// # Errors
    /// Returns the first layer's [`QuantizeError`] (unreachable for the
    /// canonical Conv/BN/ReLU/MaxPool architecture).
    pub fn capture(model: &EcoFusionModel) -> Result<Self, QuantizeError> {
        let mut spec = DatasetSpec::small(QUANT_CALIB_SEED);
        spec.grid = model.grid;
        let data = Dataset::generate(&spec);
        let frames: Vec<_> = data.test().iter().take(QUANT_CALIB_FRAMES).collect();
        // Stems: calibrate each on its own sensor's grids; keep the f32
        // output activations as the branch calibration set.
        let mut stems = Vec::with_capacity(SensorKind::COUNT);
        let mut stem_acts: Vec<Vec<Tensor>> = Vec::with_capacity(SensorKind::COUNT);
        for k in SensorKind::ALL {
            let calib: Vec<Tensor> = frames.iter().map(|f| f.obs.grid(k).clone()).collect();
            let (pipe, acts) = model.stems[k.index()].quantize(&calib)?;
            stems.push(pipe);
            stem_acts.push(acts);
        }
        // Branches: each calibrates on the channel-concatenated stem
        // activations of the sensors it consumes, per fixture frame.
        let mut branches = Vec::with_capacity(model.branches.len());
        for (b, spec_b) in model.space.branches().iter().enumerate() {
            let sensors = spec_b.sensors();
            let calib: Vec<Tensor> = (0..frames.len())
                .map(|i| {
                    let parts: Vec<&Tensor> =
                        sensors.iter().map(|k| &stem_acts[k.index()][i]).collect();
                    Tensor::concat_channels(&parts)
                })
                .collect();
            branches.push(model.branches[b].quantize(&calib)?);
        }
        Ok(QuantSnapshot { grid: model.grid, num_classes: model.num_classes(), stems, branches })
    }

    /// Observation grid the image was built for.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of object classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The quantized stem pipe of the canonical sensor at `index`
    /// ([`SensorKind::index`]).
    pub fn stem(&self, index: usize) -> &QuantPipe {
        &self.stems[index]
    }

    /// The quantized image of the canonical branch at `index` (the same
    /// ordering as the model's branch table).
    pub fn branch(&self, index: usize) -> &QuantBranch {
        &self.branches[index]
    }

    /// Serializes the image as JSON to `path`.
    ///
    /// # Errors
    /// Returns any I/O or serialization error.
    pub fn save_json(&self, path: &Path) -> Result<(), Box<dyn Error>> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Reads an image back from JSON.
    ///
    /// # Errors
    /// Returns any I/O or deserialization error.
    pub fn load_json(path: &Path) -> Result<QuantSnapshot, Box<dyn Error>> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }
}

/// Error restoring a [`ModelSnapshot`].
#[derive(Debug)]
pub enum RestoreModelError {
    /// The snapshot's header asks for a model that cannot be built.
    Dimension {
        /// Which header field ("grid").
        field: &'static str,
        /// Its value in the snapshot.
        value: usize,
        /// The rule it breaks.
        rule: &'static str,
    },
    /// A component group has the wrong cardinality.
    ComponentCount {
        /// Which group ("stems", "branches").
        component: &'static str,
        /// Count in the snapshot.
        expected: usize,
        /// Count in the freshly built model.
        found: usize,
    },
    /// One component failed to restore.
    Component {
        /// Which component kind.
        component: &'static str,
        /// Index within the group.
        index: usize,
        /// Underlying snapshot error.
        source: RestoreSnapshotError,
    },
    /// A [`QuantSnapshot`] does not match the model it is installed into.
    QuantMismatch {
        /// Which quantity disagrees ("grid", "num_classes", …).
        what: &'static str,
        /// The model's value.
        expected: usize,
        /// The image's value.
        found: usize,
    },
}

impl fmt::Display for RestoreModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreModelError::Dimension { field, value, rule } => {
                write!(f, "snapshot {field} {value} {rule}")
            }
            RestoreModelError::ComponentCount { component, expected, found } => {
                write!(f, "snapshot has {expected} {component} but the model wants {found}")
            }
            RestoreModelError::Component { component, index, source } => {
                write!(f, "{component} {index}: {source}")
            }
            RestoreModelError::QuantMismatch { what, expected, found } => {
                write!(f, "int8 image {what} {found} does not match the model's {expected}")
            }
        }
    }
}

impl Error for RestoreModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RestoreModelError::Component { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl EcoFusionModel {
    /// Captures a weight snapshot (see [`ModelSnapshot`]).
    pub fn snapshot(&mut self) -> ModelSnapshot {
        ModelSnapshot::capture(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetSpec};
    use crate::model::InferenceOptions;
    use crate::trainer::{TrainConfig, Trainer};
    use ecofusion_gating::GateKind;

    fn small_trained() -> (EcoFusionModel, Dataset) {
        let mut spec = DatasetSpec::small(51);
        spec.num_scenes = 20;
        let data = Dataset::generate(&spec);
        let config = TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() };
        let model = Trainer::new(config, 52).train(&data).expect("train");
        (model, data)
    }

    /// A knowledge gate serialized while it still kept a fallback counter
    /// of its own (`fallback_events`; the pipeline's `gate_fallbacks`
    /// counts those frames) loads, the field ignored, to the same rules.
    #[test]
    fn a_knowledge_gate_written_with_a_fallback_counter_still_loads() {
        use ecofusion_gating::{Gate, GateInput, KnowledgeGate};
        use ecofusion_scene::Context;
        let rules = r#"{"rules":{"City":0,"Fog":0,"Junction":0,"Motorway":0,"Night":2,"Rain":0,"Rural":0},"num_configs":3,"fallbacks":{"City":[2,1]},"config_sensors":[3,4,12]"#;
        let mut gate: KnowledgeGate =
            serde_json::from_str(&format!("{rules},\"fallback_events\":1}}")).expect("loads");
        assert!(!gate.has_rule(Context::Snow));
        assert_eq!(gate.choice(Context::Snow), 1, "the fewest-sensor configuration");
        assert_eq!(gate.choice(Context::Night), 2);
        let t = ecofusion_tensor::tensor::Tensor::zeros(&[1, 1, 2, 2]);
        assert_eq!(gate.predict(&GateInput::with_context(&t, Context::City))[0], 0.0);
        assert_eq!(serde_json::to_string(&gate).expect("serializes"), format!("{rules}}}"));
    }

    #[test]
    fn snapshot_roundtrip_preserves_inference() {
        let (mut model, data) = small_trained();
        let snap = model.snapshot();
        let mut restored = snap.restore().expect("restore");
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Deep);
        for frame in data.test().iter().take(3) {
            let a = model.infer(frame, &opts).expect("infer a");
            let b = restored.infer(frame, &opts).expect("infer b");
            assert_eq!(a.selected_config, b.selected_config);
            assert_eq!(a.predicted_losses, b.predicted_losses);
            assert_eq!(a.detections, b.detections);
        }
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let (mut model, _) = small_trained();
        let snap = model.snapshot();
        let dir = std::env::temp_dir().join("ecofusion_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        snap.save_json(&path).expect("save");
        let back = ModelSnapshot::load_json(&path).expect("load");
        assert_eq!(snap, back);
        std::fs::remove_file(&path).ok();
    }

    /// A tensor whose `data` disagrees with its `shape` must fail at the
    /// load boundary: `restore` compares shapes only, so it used to get
    /// through and panic in the first convolution of the serving step.
    #[test]
    fn length_skewed_tensors_fail_at_load() {
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(5));
        let json = serde_json::to_string(&model.snapshot()).expect("serializes");
        let back: ModelSnapshot = serde_json::from_str(&json).expect("canonical snapshot loads");
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json, "bit for bit");

        // The first tensor is the first stem's convolution weight.
        let data = json.find("\"data\":[").expect("a tensor") + "\"data\":[".len();
        let first_value = json[data..].find(',').expect("more than one value") + 1;
        let tensor = json.find("{\"shape\":").expect("a tensor");
        let tensor_end = tensor + json[tensor..].find('}').expect("closes") + 1;
        let short = format!("{}{}", &json[..data], &json[data + first_value..]);
        let long = format!("{}0.0,{}", &json[..data], &json[data..]);
        let wrapping = format!(
            "{}{{\"shape\":[9223372036854775808,2],\"data\":[]}}{}",
            &json[..tensor],
            &json[tensor_end..]
        );
        for (what, skewed) in [("short", short), ("long", long), ("wrapping", wrapping)] {
            let err = serde_json::from_str::<ModelSnapshot>(&skewed).expect_err(what);
            assert!(err.to_string().contains("does not hold"), "{what}: {err}");
        }
    }

    /// A hand-edited header must come back as a typed error: `restore`
    /// used to hand the grid to `EcoFusionModel::new`, whose assertion
    /// fired. Dimensions `new` accepts still fail on the tensors.
    #[test]
    fn edited_header_fields_are_typed_errors() {
        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(5));
        let json = serde_json::to_string(&model.snapshot()).expect("serializes");
        let edited = |from: &str, to: &str| {
            assert_eq!(json.matches(from).count(), 1, "{from} names one header field");
            serde_json::from_str::<ModelSnapshot>(&json.replace(from, to)).expect("deserializes")
        };
        for grid in [0, 17, 24] {
            let err = edited("\"grid\":32", &format!("\"grid\":{grid}")).restore().unwrap_err();
            assert!(
                matches!(err, RestoreModelError::Dimension { field: "grid", value, .. } if value == grid),
                "grid {grid}: {err}"
            );
            assert!(err.to_string().contains("multiple of 16"), "{err}");
        }
        let mismatched = [
            edited("\"grid\":32", "\"grid\":48"),
            edited("\"num_classes\":8", "\"num_classes\":0"),
            edited("\"num_classes\":8", "\"num_classes\":9"),
        ];
        for snap in mismatched {
            let err = snap.restore().unwrap_err();
            assert!(matches!(err, RestoreModelError::Component { .. }), "{err}");
        }
        // Untouched, it restores bit for bit.
        let back: ModelSnapshot = serde_json::from_str(&json).expect("loads");
        let restored = back.restore().expect("restores").snapshot();
        assert_eq!(serde_json::to_string(&restored).expect("serializes"), json);
    }

    #[test]
    fn snapshot_metadata() {
        let (mut model, _) = small_trained();
        let snap = model.snapshot();
        assert_eq!(snap.grid(), 32);
        assert_eq!(snap.num_classes(), 8);
    }

    #[test]
    fn quant_snapshot_roundtrips_and_reinstalls() {
        let (mut model, data) = small_trained();
        let qsnap = model.ensure_quant().expect("quantize").clone();
        assert_eq!(qsnap.grid(), 32);
        assert_eq!(qsnap.num_classes(), 8);
        assert_eq!(qsnap.stems.len(), 4);
        assert_eq!(qsnap.branches.len(), 7);
        let dir = std::env::temp_dir().join("ecofusion_quant_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quant.json");
        qsnap.save_json(&path).expect("save");
        let back = QuantSnapshot::load_json(&path).expect("load");
        assert_eq!(qsnap, back);
        std::fs::remove_file(&path).ok();
        // Installing the loaded image skips recalibration and infers
        // identically to the freshly built one.
        let opts = crate::model::InferenceOptions::new(0.01, 0.5)
            .with_precision(ecofusion_energy::Precision::Int8);
        let fresh = model.infer(&data.test()[0], &opts).expect("infer fresh");
        let mut restored = model.snapshot().restore().expect("restore");
        restored.install_quant(back).expect("install");
        let replayed = restored.infer(&data.test()[0], &opts).expect("infer installed");
        assert_eq!(fresh.selected_config, replayed.selected_config);
        assert_eq!(fresh.detections, replayed.detections);
    }

    #[test]
    fn quant_snapshot_capture_is_deterministic() {
        let (mut model, _) = small_trained();
        let a = model.ensure_quant().expect("quantize").clone();
        let _ = model.stems_mut(); // invalidate without mutating weights
        let b = model.ensure_quant().expect("requantize").clone();
        assert_eq!(a, b, "same weights must produce the same int8 image");
    }

    #[test]
    fn install_quant_rejects_mismatched_image() {
        let (mut model, _) = small_trained();
        let qsnap = model.ensure_quant().expect("quantize").clone();
        let mut rng = Rng::new(7);
        let mut other = EcoFusionModel::new(48, 8, &mut rng);
        let err = other.install_quant(qsnap).unwrap_err();
        assert!(matches!(err, RestoreModelError::QuantMismatch { what: "grid", .. }), "{err}");
        assert!(!err.to_string().is_empty());
    }

    /// A version-skewed image whose layer shapes do not chain still passes
    /// `install_quant`'s header checks. The inference that first lowers
    /// the broken unit must say which unit it was — not panic inside an
    /// int8 forward — and leave the model serving f32.
    #[test]
    fn stale_quant_image_fails_inference_with_a_typed_error() {
        use crate::model::{InferError, PlanUnit};
        use ecofusion_energy::Precision;
        use ecofusion_tensor::graph::CompileError;
        use ecofusion_tensor::quant::QuantStage;

        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(5));
        let data = Dataset::generate(&DatasetSpec::small(53));
        let frames = &data.test()[..2];
        let good = model.ensure_quant().expect("quantize").clone();
        let int8 = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);

        // Stem 2's first convolution claims one input channel too many.
        let mut image = good.clone();
        let QuantStage::Conv(conv) = &mut image.stems[2].stages[0] else {
            panic!("a stem pipe starts with its convolution");
        };
        conv.spec.in_channels += 1;
        model.install_quant(image).expect("header checks pass");
        let err = model.infer(&frames[0], &int8).unwrap_err();
        let mismatch = CompileError::ShapeMismatch { layer: "QuantConv2d", expected: 2, found: 1 };
        assert_eq!(err, InferError::Compile { unit: PlanUnit::Stem(2), source: mismatch });
        assert!(err.to_string().contains("stem 2"), "{err}");
        assert_eq!(model.infer_batch(frames, &int8).unwrap_err(), err);
        model.infer(&frames[0], &InferenceOptions::new(0.01, 0.5)).expect("f32 still serves");

        // Branch 5's head convolution, reached by the oracle gate (it
        // runs every branch).
        let mut image = good.clone();
        let expected = image.branches[5].head.spec.in_channels + 1;
        image.branches[5].head.spec.in_channels = expected;
        model.install_quant(image).expect("header checks pass");
        let err = model.infer_batch(frames, &int8.with_gate(GateKind::LossBased)).unwrap_err();
        let InferError::Compile { unit, source } = &err else { panic!("{err}") };
        assert_eq!(*unit, PlanUnit::Branch(5));
        assert!(
            matches!(source, CompileError::ShapeMismatch { expected: e, .. } if *e == expected),
            "{source}"
        );
        assert!(err.to_string().contains("branch 5"), "{err}");

        // A sound image serves again.
        model.install_quant(good).expect("installs");
        model.infer_batch(frames, &int8).expect("int8 serves");
    }

    /// An image whose shapes chain but whose buffers disagree with their
    /// own geometry (truncated weights, a short scale/bias/affine vector,
    /// a non-positive activation scale), or whose geometry is not a
    /// convolution or a pool at all (stride 0, pool kernel 0, a padding
    /// no allocation could hold), passes the header checks too. The plan
    /// compiler packs the weights and sizes its planes by the geometry,
    /// so it must refuse the unit by name — not index out of bounds,
    /// divide by zero inside the step, or abort the process on the first
    /// execute — and leave the model serving f32.
    #[test]
    fn skewed_quant_image_fails_at_compile_with_a_typed_error() {
        use crate::model::{InferError, PlanUnit};
        use ecofusion_energy::Precision;
        use ecofusion_tensor::graph::CompileError;
        use ecofusion_tensor::quant::{QuantConv2d, QuantStage};

        let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(5));
        let data = Dataset::generate(&DatasetSpec::small(53));
        let frame = &data.test()[0];
        let good = model.ensure_quant().expect("quantize").clone();
        let int8 = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let oracle = int8.with_gate(GateKind::LossBased);

        type Skew = fn(&mut QuantSnapshot);
        fn stem_conv(image: &mut QuantSnapshot, stem: usize) -> &mut QuantConv2d {
            let QuantStage::Conv(conv) = &mut image.stems[stem].stages[0] else {
                panic!("a stem pipe starts with its convolution");
            };
            conv
        }
        const CONV: &str = "QuantConv2d";
        let cases: [(Skew, PlanUnit, &str, &str); 10] = [
            (|i| stem_conv(i, 0).weights.q.truncate(1), PlanUnit::Stem(0), CONV, "weight length"),
            (
                |i| stem_conv(i, 1).weights.scales.push(1.0),
                PlanUnit::Stem(1),
                CONV,
                "weight scale length",
            ),
            (|i| stem_conv(i, 3).bias.clear(), PlanUnit::Stem(3), CONV, "bias length"),
            (
                |i| {
                    let QuantStage::Affine(_, shift) = &mut i.stems[2].stages[1] else {
                        panic!("a stem's batch-norm follows its convolution");
                    };
                    shift.pop();
                },
                PlanUnit::Stem(2),
                CONV,
                "affine length",
            ),
            (|i| i.branches[5].head.act_scale = 0.0, PlanUnit::Branch(5), CONV, "activation scale"),
            (
                |i| i.branches[5].head.act_scale = -0.5,
                PlanUnit::Branch(5),
                CONV,
                "activation scale",
            ),
            (
                |i| i.branches[5].head.act_scale = f32::NAN,
                PlanUnit::Branch(5),
                CONV,
                "activation scale",
            ),
            // Each of these three took the step or the process down from
            // inside `infer`: a division by zero in `ConvSpec::out_size`,
            // the same in the pool's output shape, and a 10¹⁵-byte
            // allocation on the first execute.
            (|i| stem_conv(i, 0).spec.stride = 0, PlanUnit::Stem(0), CONV, "geometry"),
            (
                |i| {
                    let pool = i.stems[1].stages.iter_mut().find_map(|s| match s {
                        QuantStage::MaxPool(k) => Some(k),
                        _ => None,
                    });
                    *pool.expect("a stem pipe ends in its pool") = 0;
                },
                PlanUnit::Stem(1),
                "MaxPool2d",
                "geometry",
            ),
            (|i| stem_conv(i, 2).spec.padding = 1 << 40, PlanUnit::Stem(2), CONV, "geometry"),
        ];
        for (skew, unit, layer, what) in cases {
            let mut image = good.clone();
            skew(&mut image);
            model.install_quant(image).expect("header checks pass");
            // The oracle gate runs every branch, so it reaches branch 5.
            let err = model.infer(frame, &oracle).unwrap_err();
            let source = CompileError::Malformed { layer, what };
            assert_eq!(err, InferError::Compile { unit, source }, "{what}");
            model.infer(frame, &InferenceOptions::new(0.01, 0.5)).expect("f32 still serves");
        }
        model.install_quant(good).expect("installs");
        model.infer(frame, &int8).expect("int8 serves");
    }
}
