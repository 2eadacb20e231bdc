//! Sensor fault injection and online health monitoring.
//!
//! EcoFusion's gate picks the cheapest sensor/fusion branch that is
//! accurate *right now* — a claim that only means something when sensors
//! can stop being accurate. This crate supplies the degradation axis:
//!
//! ```text
//!  FaultSchedule (scripted onset/duration/severity per sensor)
//!        │
//!        ▼
//!  FaultInjector ── wraps SensorSuite::observe ──▶ degraded Observation
//!        │                                              │
//!        │ (empty schedule = bit-identical passthrough) ▼
//!        │                                    SensorHealthMonitor
//!        │                                    (energy/variance/delta
//!        │                                     EWMAs → score → state)
//!        ▼                                              │
//!  robustness experiments                               ▼
//!  (ecofusion-eval)                        SensorMask → fault-aware gating
//!                                          (ecofusion-core penalizes
//!                                           configs needing dead sensors)
//! ```
//!
//! * [`FaultKind`] — the model library: dropout, frozen frame, noise
//!   burst, growing calibration drift, and context-tied weather
//!   attenuation ([`Context::weather_attenuation`](ecofusion_scene::Context::weather_attenuation)).
//! * [`FaultSchedule`] / [`FaultEvent`] — scripted, composable timelines;
//!   severity in `[0, 1]`, half-open frame intervals, `u64::MAX` duration
//!   for permanent faults.
//! * [`FaultInjector`] — applies a schedule to an observation stream.
//!   Strictly additive: with no active event the observation passes
//!   through bit-identical and no RNG is drawn, so every seeded fixture
//!   in the workspace is unchanged. Faulty frames draw from
//!   per-`(frame, event)` seeded streams, making degraded runs exactly as
//!   reproducible as clean ones.
//! * [`SensorHealthMonitor`] — estimates per-sensor health online from
//!   grid statistics alone (no ground truth): mean energy, variance, and
//!   frame-to-frame delta, each as fast/slow EWMA pairs. Scores map to
//!   [`HealthState`]s and a [`SensorMask`](ecofusion_sensors::SensorMask)
//!   that the gating layer uses to avoid branches fed by dead sensors.

pub mod health;
pub mod injector;
pub mod model;
pub mod schedule;

pub use health::{HealthState, SensorHealthMonitor};
pub use injector::FaultInjector;
pub use model::{apply_stateless, FaultKind, DRIFT_CELLS_PER_FRAME, FAULT_CLAMP_HI};
pub use schedule::{FaultEvent, FaultSchedule};
