//! Robustness under sensor faults: the fault-matrix sweep.
//!
//! For every `(fault kind, severity, context)` cell the runner renders one
//! deterministic scene sequence, evaluates the model three ways —
//!
//! * **clean** — no faults (the reference row),
//! * **blind** — faults injected, gating unaware (the paper's pipeline as
//!   is),
//! * **aware** — faults injected, a [`SensorHealthMonitor`] feeding the
//!   gate's availability mask online,
//!
//! — and reports the mAP/energy/latency deltas. The gap between *blind*
//! and *aware* is the payoff of fault-aware gating: how much accuracy the
//! health mask recovers once a sensor dies, and what it costs in energy.
//! Every cell is reproducible from `RobustnessSpec::seed` alone.

use crate::summary::{evaluate_frames, EvalSummary, FrameOutcome};
use crate::tables::Table;
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions};
use ecofusion_faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule, SensorHealthMonitor};
use ecofusion_gating::GateKind;
use ecofusion_scene::{Context, ScenarioGenerator, SceneSequence};
use ecofusion_sensors::{SensorKind, SensorSuite};
use ecofusion_tensor::rng::Rng;
use serde::Serialize;

/// Frame interval of the simulated sequences, seconds (matches the
/// runtime's 10 Hz cadence).
const CELL_DT: f64 = 0.1;

/// Parameters of a robustness sweep.
#[derive(Debug, Clone)]
pub struct RobustnessSpec {
    /// Master seed: scenes, rendering, and injection all derive from it.
    pub seed: u64,
    /// Observation grid side length (must match the model).
    pub grid: usize,
    /// Frames per cell sequence.
    pub frames: usize,
    /// Frame index at which every fault switches on (frames before it
    /// double as the health monitor's baseline window).
    pub onset: u64,
    /// Fault kinds swept.
    pub faults: Vec<FaultKind>,
    /// Severities swept.
    pub severities: Vec<f64>,
    /// Contexts swept.
    pub contexts: Vec<Context>,
    /// Gating strategy under test.
    pub gate: GateKind,
    /// `λ_E` for all three evaluation arms.
    pub lambda_e: f64,
}

impl RobustnessSpec {
    /// A small but representative matrix: three fault kinds at two
    /// severities across a clear and an adverse context.
    pub fn quick(seed: u64, grid: usize) -> Self {
        RobustnessSpec {
            seed,
            grid,
            frames: 16,
            onset: 6,
            faults: vec![FaultKind::Dropout, FaultKind::NoiseBurst, FaultKind::FrozenFrame],
            severities: vec![0.5, 1.0],
            contexts: vec![Context::City, Context::Rain],
            gate: GateKind::Knowledge,
            lambda_e: 0.01,
        }
    }

    /// The single acceptance cell: full-severity camera dropout in City.
    pub fn camera_dropout(seed: u64, grid: usize) -> Self {
        RobustnessSpec {
            faults: vec![FaultKind::Dropout],
            severities: vec![1.0],
            contexts: vec![Context::City],
            ..RobustnessSpec::quick(seed, grid)
        }
    }
}

/// The sensors a fault kind strikes in the sweep: dropout models a dead
/// optical subsystem (both cameras), frozen/noise strike the lidar,
/// calibration drift the radar, and weather attenuation hits the whole
/// rig at once.
pub fn default_targets(kind: FaultKind) -> &'static [SensorKind] {
    match kind {
        FaultKind::Dropout => &[SensorKind::CameraLeft, SensorKind::CameraRight],
        FaultKind::FrozenFrame | FaultKind::NoiseBurst => &[SensorKind::Lidar],
        FaultKind::CalibrationDrift => &[SensorKind::Radar],
        FaultKind::WeatherAttenuation => &SensorKind::ALL,
    }
}

/// One cell of the fault matrix.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessCell {
    /// Fault kind injected.
    pub fault: FaultKind,
    /// Severity injected.
    pub severity: f64,
    /// Scene context of the cell sequence.
    pub context: Context,
    /// Reference: no faults.
    pub clean: EvalSummary,
    /// Faults injected, fault-blind gating.
    pub blind: EvalSummary,
    /// Faults injected, fault-aware gating.
    pub aware: EvalSummary,
}

impl RobustnessCell {
    /// mAP recovered by fault awareness (aware − blind, percentage
    /// points).
    pub fn recovery(&self) -> f64 {
        self.aware.map_pct - self.blind.map_pct
    }
}

/// Result of a robustness sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// One cell per `(fault, severity, context)` triple, in sweep order.
    pub cells: Vec<RobustnessCell>,
}

impl RobustnessReport {
    /// Renders the sweep as a table: accuracy and energy per arm plus the
    /// recovery column.
    pub fn print(&self) {
        let mut table = Table::new(&[
            "Fault",
            "Sev.",
            "Scene",
            "Clean mAP",
            "Blind mAP",
            "Aware mAP",
            "Recovery",
            "Blind J",
            "Aware J",
        ]);
        for c in &self.cells {
            table.row(&[
                c.fault.label().to_string(),
                format!("{:.2}", c.severity),
                c.context.label().to_string(),
                format!("{:.1}", c.clean.map_pct),
                format!("{:.1}", c.blind.map_pct),
                format!("{:.1}", c.aware.map_pct),
                format!("{:+.1}", c.recovery()),
                format!("{:.2}", c.blind.avg_energy_j),
                format!("{:.2}", c.aware.avg_energy_j),
            ]);
        }
        println!("Robustness under injected sensor faults (fault-blind vs fault-aware gating)");
        println!("{}", table.render());
    }
}

/// Runs the sweep against an already-trained (or untrained) model.
///
/// # Panics
/// Panics if the spec sweeps nothing, or its grid does not match the
/// model's.
pub fn run_robustness(
    model: &mut EcoFusionModel,
    num_classes: usize,
    spec: &RobustnessSpec,
) -> RobustnessReport {
    assert!(
        !spec.faults.is_empty() && !spec.severities.is_empty() && !spec.contexts.is_empty(),
        "robustness sweep must cover at least one cell"
    );
    assert_eq!(spec.grid, model.grid(), "spec grid does not match model grid");
    let mut cells = Vec::new();
    let mut cell_idx = 0u64;
    // Severity-insensitive kinds (frozen frame) would produce identical
    // cells at every swept severity; run each effective cell once.
    let mut seen: std::collections::BTreeSet<(usize, u64, Context)> =
        std::collections::BTreeSet::new();
    for &fault in &spec.faults {
        for &severity in &spec.severities {
            let effective = if fault == FaultKind::FrozenFrame { 1.0 } else { severity };
            for &context in &spec.contexts {
                let key = (fault as usize, effective.to_bits(), context);
                if !seen.insert(key) {
                    continue;
                }
                cells.push(run_cell(model, num_classes, spec, fault, effective, context, cell_idx));
                cell_idx += 1;
            }
        }
    }
    RobustnessReport { cells }
}

fn cell_seed(spec: &RobustnessSpec, cell_idx: u64) -> u64 {
    spec.seed ^ cell_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x51)
}

/// Renders the cell's deterministic clean sequence.
fn render_sequence(spec: &RobustnessSpec, context: Context, seed: u64) -> Vec<Frame> {
    let mut gen = ScenarioGenerator::new(seed);
    let seq = SceneSequence::simulate(gen.scene(context), spec.frames.saturating_sub(1), CELL_DT);
    let suite = SensorSuite::new(spec.grid);
    seq.frames()
        .iter()
        .enumerate()
        .map(|(i, scene)| {
            let mut rng = Rng::new(seed ^ ((i as u64 + 1) << 17));
            let obs = suite.observe(scene, &mut rng);
            Frame { scene: scene.clone(), obs }
        })
        .collect()
}

fn run_cell(
    model: &mut EcoFusionModel,
    num_classes: usize,
    spec: &RobustnessSpec,
    fault: FaultKind,
    severity: f64,
    context: Context,
    cell_idx: u64,
) -> RobustnessCell {
    let seed = cell_seed(spec, cell_idx);
    let clean_frames = render_sequence(spec, context, seed);

    let mut schedule = FaultSchedule::empty();
    for &sensor in default_targets(fault) {
        schedule.push(FaultEvent::new(sensor, fault, spec.onset, u64::MAX, severity));
    }
    let mut injector = FaultInjector::new(schedule, seed ^ 0xF417);
    let degraded_frames: Vec<Frame> = clean_frames
        .iter()
        .map(|f| Frame { scene: f.scene.clone(), obs: injector.apply(f.obs.clone(), context) })
        .collect();

    let opts = InferenceOptions::new(spec.lambda_e, 0.5).with_gate(spec.gate);
    let clean_refs: Vec<&Frame> = clean_frames.iter().collect();
    let degraded_refs: Vec<&Frame> = degraded_frames.iter().collect();

    let clean = evaluate_frames(&clean_refs, num_classes, |f| {
        let out = model.infer(f, &opts).expect("matching grid");
        FrameOutcome {
            detections: out.detections,
            energy: out.energy,
            config_label: out.selected_label,
            stage: Some(out.stage_trace),
        }
    });
    let blind = evaluate_frames(&degraded_refs, num_classes, |f| {
        let out = model.infer(f, &opts).expect("matching grid");
        FrameOutcome {
            detections: out.detections,
            energy: out.energy,
            config_label: out.selected_label,
            stage: Some(out.stage_trace),
        }
    });
    let mut monitor = SensorHealthMonitor::default();
    let aware = evaluate_frames(&degraded_refs, num_classes, |f| {
        monitor.update(&f.obs);
        let masked = opts.with_health(monitor.mask());
        let out = model.infer(f, &masked).expect("matching grid");
        FrameOutcome {
            detections: out.detections,
            energy: out.energy,
            config_label: out.selected_label,
            stage: Some(out.stage_trace),
        }
    });

    RobustnessCell { fault, severity, context, clean, blind, aware }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_core::{Dataset, DatasetSpec, TrainConfig, Trainer};

    /// A minimally-trained model: one epoch over a small city-heavy set is
    /// enough for branches to localize coarse objects, which is all the
    /// blind-vs-aware comparison needs.
    fn trained_model() -> EcoFusionModel {
        let mut spec = DatasetSpec::small(31);
        spec.num_scenes = 28;
        let dataset = Dataset::generate(&spec);
        let config = TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() };
        Trainer::new(config, 32).train(&dataset).expect("training")
    }

    #[test]
    fn sweep_shape_and_determinism() {
        let mut model = trained_model();
        let spec = RobustnessSpec {
            frames: 8,
            onset: 3,
            faults: vec![FaultKind::Dropout, FaultKind::NoiseBurst],
            severities: vec![1.0],
            contexts: vec![Context::City],
            ..RobustnessSpec::quick(5, 32)
        };
        let a = run_robustness(&mut model, 8, &spec);
        let b = run_robustness(&mut model, 8, &spec);
        assert_eq!(a.cells.len(), 2);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.clean.map_pct, y.clean.map_pct, "cells must be seed-reproducible");
            assert_eq!(x.blind.map_pct, y.blind.map_pct);
            assert_eq!(x.aware.map_pct, y.aware.map_pct);
            assert_eq!(x.blind.config_histogram, y.blind.config_histogram);
            assert_eq!(x.aware.config_histogram, y.aware.config_histogram);
            assert_eq!(x.clean.frames, 8);
        }
    }

    /// The acceptance criterion: under a camera-dropout schedule the
    /// fault-aware gate measurably recovers accuracy vs. the fault-blind
    /// gate.
    #[test]
    fn fault_aware_gate_recovers_camera_dropout() {
        let mut model = trained_model();
        let spec = RobustnessSpec::camera_dropout(7, 32);
        let report = run_robustness(&mut model, 8, &spec);
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        // The fault hurts the blind pipeline...
        assert!(
            cell.blind.avg_loss > cell.clean.avg_loss,
            "camera dropout should raise the blind loss: {} vs {}",
            cell.blind.avg_loss,
            cell.clean.avg_loss
        );
        // ...and awareness claws accuracy back: strictly lower loss, at
        // least as much mAP, and a decision histogram that actually moved
        // off the camera-based configuration.
        assert!(
            cell.aware.avg_loss < cell.blind.avg_loss,
            "aware loss {} should beat blind loss {}",
            cell.aware.avg_loss,
            cell.blind.avg_loss
        );
        assert!(
            cell.aware.map_pct >= cell.blind.map_pct,
            "aware mAP {} should not trail blind mAP {}",
            cell.aware.map_pct,
            cell.blind.map_pct
        );
        assert!(
            cell.aware.config_histogram.keys().any(|k| k.contains("E(L+R)")),
            "aware arm never rerouted to lidar+radar: {:?}",
            cell.aware.config_histogram
        );
        assert!(
            !cell.blind.config_histogram.keys().any(|k| k.contains("E(L+R)")),
            "blind arm unexpectedly rerouted: {:?}",
            cell.blind.config_histogram
        );
    }

    #[test]
    fn default_targets_cover_every_kind() {
        for kind in FaultKind::ALL {
            assert!(!default_targets(kind).is_empty(), "{kind:?}");
        }
        assert_eq!(default_targets(FaultKind::WeatherAttenuation).len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_sweep_panics() {
        let mut model = trained_model();
        let spec = RobustnessSpec { faults: vec![], ..RobustnessSpec::quick(1, 32) };
        let _ = run_robustness(&mut model, 8, &spec);
    }
}
