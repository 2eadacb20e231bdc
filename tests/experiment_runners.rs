//! Integration tests of the experiment runners (shape and invariants, at a
//! scale small enough for CI).

use ecofusion::core::{Dataset, DatasetMix, DatasetSpec, InferenceOptions, TrainConfig, Trainer};
use ecofusion::eval::assess_gate;
use ecofusion::eval::experiments::{common::Setup, fig1, table1, table2, table3};
use ecofusion::gating::GateKind;

fn tiny_setup() -> Setup {
    let mut spec = DatasetSpec::small(33);
    spec.num_scenes = 64;
    spec.mix = DatasetMix::Balanced;
    let dataset = Dataset::generate(&spec);
    let config = TrainConfig { branch_epochs: 1, gate_epochs: 1, ..TrainConfig::fast_demo() };
    let model = Trainer::new(config, 34).train(&dataset).expect("training");
    Setup { model, dataset, num_classes: 8 }
}

#[test]
fn table3_runner_matches_paper() {
    let r = table3::run();
    assert_eq!(r.columns.len(), 8);
    // Late fusion column constant at 13.27 J.
    for c in &r.columns {
        assert!((c.late_fusion_j - 13.273).abs() < 0.01);
    }
    // City savings as in the paper.
    assert!((r.columns[0].savings_pct - 58.9).abs() < 0.5);
    // Printing never panics.
    r.print();
}

#[test]
fn table1_runner_produces_paper_rows() {
    let mut setup = tiny_setup();
    let r = table1::run(&mut setup);
    assert_eq!(r.rows.len(), 9, "4 singles + early + late + 3 eco rows");
    // Energy column must match the calibrated model regardless of mAP.
    assert!((r.row("L. Camera").unwrap().energy_j - 0.945).abs() < 1e-6);
    assert!((r.row("C_L + C_R + L + R").unwrap().energy_j - 3.798).abs() < 1e-6);
    // mAP percentages live in [0, 100].
    for row in &r.rows {
        assert!((0.0..=100.0).contains(&row.map_pct), "{row:?}");
    }
    r.print();
}

#[test]
fn table2_runner_covers_all_gates_and_lambdas() {
    let mut setup = tiny_setup();
    let r = table2::run(&mut setup);
    assert_eq!(r.rows.len(), 12, "3 lambdas x 4 gates");
    // Knowledge gating is lambda-independent (paper: "lacks tunability").
    let k0 = r.row("Knowledge", 0.0).unwrap();
    let k1 = r.row("Knowledge", 0.1).unwrap();
    assert!((k0.energy_j - k1.energy_j).abs() < 1e-9);
    assert!((k0.avg_loss - k1.avg_loss).abs() < 1e-9);
    r.print();
}

#[test]
fn fig1_runner_covers_city_and_rain() {
    let mut setup = tiny_setup();
    let r = fig1::run(&mut setup);
    assert_eq!(r.rows.len(), 8, "4 methods x 2 contexts");
    // Late fusion always costs 3.798 J platform energy.
    for row in r.rows.iter().filter(|r| r.method == "Late Fusion") {
        assert!((row.avg_energy_j - 3.798).abs() < 1e-6);
    }
    r.print();
}

/// A trained-model golden: FNV-1a over the bits of every Table 1 and
/// Table 2 cell and of `assess_gate`'s three numbers per learned gate, on
/// `tiny_setup`. Recorded at the parent of the PR that moved gate
/// targets, gate assessment and the static baselines from the layers'
/// eager forwards onto the staged pipeline — it pins that the move
/// changed no trained weight and no table, and holds training, the
/// compiled plans and the scorekeeper to it from then on.
#[test]
fn trained_tables_and_gate_quality_match_the_recorded_digest() {
    let mut setup = tiny_setup();
    let t1 = table1::run(&mut setup);
    let t2 = table2::run(&mut setup);
    let mut cells: Vec<f64> = Vec::new();
    for r in &t1.rows {
        cells.extend([r.map_pct, r.energy_j, r.latency_ms]);
    }
    for r in &t2.rows {
        cells.extend([r.lambda_e, r.map_pct, r.avg_loss, r.energy_j, r.stems_per_frame]);
    }
    let opts = InferenceOptions::new(0.05, 0.5);
    let samples = setup.model.oracle_pass(setup.dataset.test(), &opts).expect("matching grid");
    for gate in [GateKind::Deep, GateKind::Attention] {
        let q = assess_gate(&mut setup.model, &samples, gate, 0.05, 0.5);
        cells.extend([q.mean_spearman, q.top1_agreement, q.mean_regret]);
    }
    assert_eq!(cells.len(), 93);
    let digest = cells
        .iter()
        .flat_map(|c| c.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, 0x241b_203f_f064_b75b, "cells {cells:?}");
}
