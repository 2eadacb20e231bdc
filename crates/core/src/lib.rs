//! EcoFusion core: the paper's primary contribution.
//!
//! This crate wires the substrates together into the adaptive pipeline of
//! Fig. 3 / Algorithm 1:
//!
//! 1. sensor observations pass through per-modality [`Stem`]s;
//! 2. a [`Gate`](ecofusion_gating::Gate) estimates the fusion loss of every
//!    configuration `φ ∈ Φ` from the stem features;
//! 3. [`select_candidates`] keeps the configurations within `γ` of the best
//!    (Eq. 7), [`joint_loss`] scores them by
//!    `(1 − λ_E)·L_f(φ) + λ_E·E(φ)` (Eq. 8), and the argmin `φ*` is chosen
//!    (Eq. 9);
//! 4. only the branches of `φ*` execute, and their outputs are fused with
//!    weighted boxes fusion.
//!
//! Main types: [`ConfigSpace`] (Φ: the 7 canonical branches and their 127
//! ensembles), [`EcoFusionModel`] (the runnable pipeline — `infer`,
//! `infer_batch`, `infer_batch_into`, `detect_static` for a fixed
//! configuration and `oracle_pass` for the [`OracleSample`]s gates are
//! trained and judged on, all five over one staged executor),
//! [`Trainer`]/[`TrainConfig`] (supervised branch training, the oracle
//! pass, then gate regression on its samples — each callable on its own),
//! and [`Dataset`]/[`DatasetSpec`] (synthetic RADIATE-like frames).
//!
//! [`Stem`]: ecofusion_detect::Stem

pub mod config;
pub mod dataset;
pub mod knowledge;
pub mod model;
pub mod optimizer;
pub mod pipeline;
pub mod snapshot;
pub mod temporal;
pub mod trainer;

pub use config::{BranchId, ConfigId, ConfigSpace};
pub use dataset::{Dataset, DatasetMix, DatasetSpec, Frame};
pub use ecofusion_energy::Precision;
pub use knowledge::{default_degraded_fallbacks, default_knowledge_rules};
pub use model::{
    EcoFusionModel, GateSet, InferenceOptions, InferenceOutput, UNAVAILABLE_SENSOR_PENALTY,
};
pub use optimizer::{joint_loss, select_candidates, select_config, CandidateRule};
pub use pipeline::{OracleSample, PipelinePlan, StemFeatureCache, ALL_SENSOR_BITS};
pub use snapshot::{ModelSnapshot, QuantSnapshot, RestoreModelError};
pub use temporal::{ClockGatingController, EpisodeEnergyReport, SensorSchedule};
pub use trainer::{TrainConfig, TrainError, Trainer};
