//! Integration test: gate-quality analytics on a trained model.

use ecofusion_core::{Dataset, DatasetSpec, InferenceOptions, TrainConfig, Trainer};
use ecofusion_eval::assess_gate;
use ecofusion_gating::GateKind;

#[test]
fn learned_gates_rank_better_than_chance() {
    let mut spec = DatasetSpec::small(61);
    spec.num_scenes = 48;
    let data = Dataset::generate(&spec);
    let config = TrainConfig { branch_epochs: 2, gate_epochs: 4, ..TrainConfig::fast_demo() };
    let mut model = Trainer::new(config, 62).train(&data).expect("train");
    let samples = model.oracle_pass(data.test(), &InferenceOptions::new(0.05, 0.5)).expect("pass");
    for gate in [GateKind::Deep, GateKind::Attention] {
        let q = assess_gate(&mut model, &samples, gate, 0.05, 0.5);
        assert_eq!(q.frames, data.test().len());
        // A trained gate must correlate positively with the true losses
        // (chance would hover around zero).
        assert!(q.mean_spearman > 0.1, "{gate}: spearman {}", q.mean_spearman);
        // Regret is non-negative by construction.
        assert!(q.mean_regret >= -1e-6, "{gate}: regret {}", q.mean_regret);
    }
}

#[test]
#[should_panic(expected = "learned gate")]
fn assessing_oracle_gate_panics() {
    let mut spec = DatasetSpec::small(63);
    spec.num_scenes = 12;
    let data = Dataset::generate(&spec);
    let config = TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() };
    let mut model = Trainer::new(config, 64).train(&data).expect("train");
    let samples = model.oracle_pass(data.test(), &InferenceOptions::new(0.0, 0.5)).expect("pass");
    let _ = assess_gate(&mut model, &samples, GateKind::LossBased, 0.0, 0.5);
}
