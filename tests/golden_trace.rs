//! Golden-trace determinism tests.
//!
//! Every generator and the inference pipeline must be reproducible from a
//! seed — the property every experiment table and every runtime replay
//! rests on. These tests pin traces two ways:
//!
//! 1. *run-to-run*: the same seed twice gives structurally identical
//!    output (exact equality);
//! 2. *cross-session*: hard-coded snapshots catch silent drift of the
//!    seeded streams (a changed RNG consumption order, a reordered
//!    sampling step). Integer-valued snapshots are asserted exactly;
//!    float snapshots use a small epsilon so libm differences across
//!    hosts cannot flake the suite.

use ecofusion::core::Frame;
use ecofusion::prelude::*;
use ecofusion::scene::SceneSequence;
use ecofusion::tensor::rng::Rng;

/// Object counts and class ids of the first scene of every context at
/// seed 42, in `Context::ALL` order (snapshot).
const SCENARIO_OBJECT_COUNTS: [usize; 8] = [4, 2, 3, 3, 2, 4, 1, 7];
const SCENARIO_CLASSES: [&[usize]; 8] = [
    &[5, 6, 2, 6],
    &[6, 5],
    &[0, 2, 0],
    &[0, 4, 2],
    &[5, 3],
    &[2, 6, 0, 6],
    &[0],
    &[4, 7, 4, 5, 0, 5, 4],
];
const SCENARIO_EGO_SPEEDS: [f64; 8] =
    [8.084984, 9.536010, 5.719649, 25.986090, 11.373794, 9.592225, 14.707282, 6.258459];

#[test]
fn scenario_generator_matches_snapshot_and_reruns() {
    let mut g1 = ScenarioGenerator::new(42);
    let mut g2 = ScenarioGenerator::new(42);
    for (i, c) in Context::ALL.into_iter().enumerate() {
        let a = g1.scene(c);
        let b = g2.scene(c);
        assert_eq!(a, b, "run-to-run divergence in {c:?}");
        assert_eq!(a.objects.len(), SCENARIO_OBJECT_COUNTS[i], "{c:?} object count drifted");
        let classes: Vec<usize> = a.objects.iter().map(|o| o.class.id()).collect();
        assert_eq!(classes, SCENARIO_CLASSES[i], "{c:?} class sequence drifted");
        assert!(
            (a.ego_speed - SCENARIO_EGO_SPEEDS[i]).abs() < 1e-6,
            "{c:?} ego speed drifted: {}",
            a.ego_speed
        );
    }
}

#[test]
fn scene_sequence_matches_snapshot_and_reruns() {
    let run = || {
        let mut g = ScenarioGenerator::new(7);
        SceneSequence::simulate(g.scene(Context::City), 10, 0.1)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "sequence simulation must be deterministic");
    assert_eq!(a.len(), 11);
    let per_frame: Vec<usize> = a.frames().iter().map(|f| f.objects.len()).collect();
    // Snapshot: the city scene at seed 7 keeps all five objects in view
    // over the whole 1-second roll-forward.
    assert_eq!(per_frame, vec![5; 11]);
}

/// One short inference trace: 4 test frames of `DatasetSpec::small(24)`
/// through an untrained model seeded 7, for a learned and the rule-based
/// gate. Snapshots pin the selected configuration label and the decoded
/// detection count per frame.
fn infer_trace(gate: GateKind) -> Vec<(String, usize)> {
    let data = Dataset::generate(&DatasetSpec::small(24));
    let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
    let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(7));
    let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
    frames
        .iter()
        .map(|f| {
            let out = model.infer(f, &opts).unwrap();
            (out.selected_label, out.detections.len())
        })
        .collect()
}

const ATTENTION_TRACE: [(&str, usize); 4] =
    [("{C_L}", 64), ("{C_R}", 63), ("{C_L}", 64), ("{C_L}", 64)];
const KNOWLEDGE_TRACE: [(&str, usize); 4] = [
    ("{C_R, E(C_L+C_R)}", 56),
    ("{E(C_L+C_R)}", 64),
    ("{E(C_L+C_R+L)}", 54),
    ("{C_R, E(C_L+C_R)}", 16),
];

fn assert_trace(actual: &[(String, usize)], expected: &[(&str, usize)], what: &str) {
    assert_eq!(actual.len(), expected.len());
    for (i, ((label, count), (exp_label, exp_count))) in actual.iter().zip(expected).enumerate() {
        assert_eq!(label, exp_label, "{what} frame {i}: gate choice drifted");
        assert_eq!(count, exp_count, "{what} frame {i}: detection count drifted");
    }
}

#[test]
fn infer_trace_matches_snapshot_and_reruns() {
    for gate in [GateKind::Attention, GateKind::Knowledge] {
        let a = infer_trace(gate);
        let b = infer_trace(gate);
        assert_eq!(a, b, "{gate:?} trace must be deterministic run-to-run");
        let expected: &[(&str, usize)] = match gate {
            GateKind::Attention => &ATTENTION_TRACE,
            _ => &KNOWLEDGE_TRACE,
        };
        assert_trace(&a, expected, &format!("{gate:?}"));
    }
}

/// The loss-based oracle on the input the benchmark serves it: the
/// untrained serving model (`EcoFusionModel::new(32, 8, 0xEC0F)`) over
/// `mixed_policy`'s oracle stream at seed 7, decoded at
/// `InferenceOptions::new(0.01, 0.5)` — ≈ 420 boxes a frame, 60-odd per
/// branch. FNV-1a over the bits of all 127 losses of ten frames, recorded
/// with the scorer that clustered every configuration's boxes in full
/// (before the bitset pass of PR 25).
#[test]
fn oracle_losses_of_the_served_stream_match_snapshot() {
    let spec = ecofusion::runtime::StreamSpec::new(711, 32).with_context(Context::ALL[6]);
    let mut stream = ecofusion::runtime::VehicleStream::new(spec);
    let frames: Vec<Frame> = (0..10).map(|_| stream.next_frame()).collect();
    let mut model = EcoFusionModel::new(32, 8, &mut Rng::new(0xEC0F));
    let samples = model.oracle_pass(&frames, &InferenceOptions::new(0.01, 0.5)).unwrap();
    let boxes: usize = samples.iter().flat_map(|s| &s.branch_dets).map(Vec::len).sum();
    assert_eq!(boxes, ORACLE_BOXES, "the oracle's input drifted");
    let digest = samples
        .iter()
        .flat_map(|s| &s.losses)
        .flat_map(|l| l.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(samples.iter().map(|s| s.losses.len()).sum::<usize>(), 1270);
    assert_eq!(digest, ORACLE_LOSSES_DIGEST, "losses {:?}", samples[0].losses);
}

const ORACLE_BOXES: usize = 4390;
const ORACLE_LOSSES_DIGEST: u64 = 0xc7a6_1f85_5cf6_4fb8;

#[test]
fn dataset_and_runtime_streams_rerun_identically() {
    // Dataset: scene sampling + parallel rendering + split.
    let a = Dataset::generate(&DatasetSpec::small(31));
    let b = Dataset::generate(&DatasetSpec::small(31));
    assert_eq!(a.train().len(), b.train().len());
    for (fa, fb) in a.train().iter().zip(b.train()) {
        assert_eq!(fa.scene, fb.scene);
    }
    // Runtime vehicle streams: drift walk + segment simulation + render.
    let spec = ecofusion::runtime::StreamSpec::new(9, 32);
    let mut s1 = ecofusion::runtime::VehicleStream::new(spec);
    let mut s2 = ecofusion::runtime::VehicleStream::new(spec);
    for k in 0..20 {
        let fa = s1.next_frame();
        let fb = s2.next_frame();
        assert_eq!(fa.scene, fb.scene, "frame {k}");
        for sk in ecofusion::sensors::SensorKind::ALL {
            assert_eq!(fa.obs.grid(sk), fb.obs.grid(sk), "frame {k} sensor {sk:?}");
        }
    }
}
