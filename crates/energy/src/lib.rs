//! Energy and latency modelling for the EcoFusion reproduction.
//!
//! The paper measures every detector configuration φ on an Nvidia Drive
//! PX2 (Eq. 6: `E(φ, X) = P(φ, X) · t(φ, X)`, average platform power
//! 45.4 W under load) and the sensor powers from datasheets (§5.5.2). A
//! PX2 is not available to a reproduction, but the paper's published
//! numbers *are* the measurement — so this crate encodes them as a
//! calibrated analytical model:
//!
//! * [`Px2Model`] — the calibration table: per-component (stem / branch /
//!   gate / fusion-block) energy and latency calibrated to Table 1. The
//!   paper's own data validates additive composition for ensembles: its
//!   late-fusion energy 3.798 J is exactly the sum of the four
//!   single-sensor configuration energies.
//! * [`SensorPowerModel`] — Navtech CTS350-X radar (24 W, 2.4 W motor),
//!   Velodyne HDL-32e lidar (12 W, 9.6 W measurement power), ZED camera
//!   (1.9 W), with Eq. 10–11 clock gating: a gated rotating sensor still
//!   pays its motor power.
//! * [`StageTrace`] — the one Eq. 11 record. [`StageTrace::compute_prec`]
//!   composes the two models into a configuration's cost, stage by stage:
//!   Eq. 6's platform energy, the Eq. 10 clock-gated sensor energy of the
//!   `Sense` stage, and their Eq. 11 total. A served frame carries its
//!   configuration's trace; the adaptive rows of every configuration are
//!   composed once into the model's cost table (`ecofusion-core`).
//! * Typed units ([`Joules`], [`Watts`], [`Millis`]) so energies and
//!   latencies cannot be mixed up.
//!
//! Wall-clock latency of the *Rust* pipeline is a different quantity and
//! is measured separately by the criterion benches; experiment tables
//! always report the calibrated PX2 model (what the paper reports).

pub mod precision;
pub mod px2;
pub mod sensors;
pub mod stage;
pub mod units;

pub use precision::Precision;
pub use px2::{BranchSpec, Px2Model, StemPolicy};
pub use sensors::{SensorPowerModel, SensorSpec, SensorState};
pub use stage::{StageCost, StageKind, StageRollup, StageTrace};
pub use units::{Joules, Millis, Watts};
