//! End-to-end integration: data generation → training → adaptive
//! inference, across all four gating strategies.

use ecofusion::core::{Dataset, DatasetSpec, InferenceOptions, TrainConfig, Trainer};
use ecofusion::gating::GateKind;

fn trained() -> (ecofusion::core::EcoFusionModel, Dataset) {
    let mut spec = DatasetSpec::small(11);
    spec.num_scenes = 28;
    let dataset = Dataset::generate(&spec);
    let config = TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() };
    let model = Trainer::new(config, 12).train(&dataset).expect("training");
    (model, dataset)
}

#[test]
fn every_gate_produces_a_valid_decision() {
    let (mut model, dataset) = trained();
    let frame = &dataset.test()[0];
    for gate in GateKind::ALL {
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
        let out = model.infer(frame, &opts).expect("inference");
        assert_eq!(out.predicted_losses.len(), model.space().num_configs(), "{gate}");
        assert!(out.energy_joules() > 0.0, "{gate}");
        assert!(out.stage_trace.total_latency().millis() > 0.0, "{gate}");
        assert!(!out.selected_label.is_empty(), "{gate}");
        // Detections stay within the raster.
        let g = model.grid() as f32;
        for d in &out.detections {
            assert!(d.bbox.x1 >= 0.0 && d.bbox.x2 <= g && d.bbox.y1 >= 0.0 && d.bbox.y2 <= g);
            assert!(d.score.is_finite() && d.score >= 0.0 && d.score <= 1.0);
            assert!(d.class_id < model.num_classes());
        }
    }
}

#[test]
fn inference_is_deterministic() {
    let (mut model, dataset) = trained();
    let frame = &dataset.test()[1];
    let opts = InferenceOptions::new(0.05, 0.5);
    let a = model.infer(frame, &opts).expect("inference");
    let b = model.infer(frame, &opts).expect("inference");
    assert_eq!(a.selected_config, b.selected_config);
    assert_eq!(a.predicted_losses, b.predicted_losses);
    assert_eq!(a.detections, b.detections);
}

#[test]
fn higher_lambda_never_costs_more_energy_on_average() {
    let (mut model, dataset) = trained();
    // Energy should be non-increasing (on average) as λ_E rises.
    let avg_energy = |model: &mut ecofusion::core::EcoFusionModel, lambda: f64| {
        let opts = InferenceOptions::new(lambda, 0.5);
        let mut total = 0.0;
        for f in dataset.test() {
            total += model.infer(f, &opts).expect("inference").energy_joules();
        }
        total / dataset.test().len() as f64
    };
    let low = avg_energy(&mut model, 0.0);
    let high = avg_energy(&mut model, 1.0);
    assert!(
        high <= low + 1e-9,
        "lambda=1 should be at most as expensive as lambda=0: {high} vs {low}"
    );
}

#[test]
fn adaptive_pipeline_charges_all_stems() {
    let (mut model, dataset) = trained();
    let frame = &dataset.test()[0];
    // Even a single-branch selection pays four stems in adaptive mode.
    let opts = InferenceOptions { lambda_e: 1.0, gamma: 1e9, ..InferenceOptions::new(1.0, 0.5) };
    let out = model.infer(frame, &opts).expect("inference");
    assert_eq!(model.space().branch_ids(out.selected_config).len(), 1);
    // 4 stems (0.088 each) + cheapest branch (0.857) = 1.209.
    assert!((out.energy_joules() - 1.209).abs() < 1e-6, "{}", out.energy_joules());
}
