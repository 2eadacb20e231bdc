//! Tile-composition invariance of compiled plans.
//!
//! A [`CompiledPlan`] streams a batch through its steps a tile of `T`
//! samples at a time. Which samples share a tile must not be visible in
//! the output: a plan executed on a batch of `N` has to equal the
//! concatenation of `N` batch-1 executions **bit for bit**, for batches
//! below, at and across the tile boundary — in f32 and int8, for the
//! three stack shapes the model compiles (stem, branch, learned gate).
//! The stacks use the model's real per-sample shapes, so the tiles are
//! the ones the serving path runs (`T` = 56 for the f32 and the int8
//! stem, 12 and 23 for the f32 and int8 branch, 4 for the gate).

use ecofusion_tensor::graph::{compile_quant_pipe, compile_sequential, CompiledPlan, PlanBuilder};
use ecofusion_tensor::layer::{
    BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, SelfAttention2d, Sequential,
};
use ecofusion_tensor::quant::{calib_scale, quantize_sequential, QuantConv2d};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::Tensor;
use proptest::prelude::*;

/// `(n, sample…)`.
fn batched(n: usize, sample: &[usize]) -> Vec<usize> {
    [&[n], sample].concat()
}

fn conv_bn_relu(cin: usize, cout: usize, stride: usize, rng: &mut Rng) -> Vec<Box<dyn Layer>> {
    vec![
        Box::new(Conv2d::new(cin, cout, 3, stride, 1, rng)),
        Box::new(BatchNorm2d::new(cout)),
        Box::new(ReLU::new()),
    ]
}

/// Runs `seq` in training mode a few times so the batch-norm running
/// statistics (and with them the eval affine) are nontrivial.
fn settle(seq: &mut Sequential, sample: &[usize], rng: &mut Rng) {
    let warm = Tensor::randn(&batched(4, sample), 1.0, rng);
    for _ in 0..3 {
        let _ = seq.forward(&warm, true);
    }
}

fn calib(sample: &[usize], rng: &mut Rng) -> Vec<Tensor> {
    (0..3).map(|_| Tensor::randn(&batched(1, sample), 1.0, rng)).collect()
}

/// `plan`, whose tile the model's shapes resolve to `tile`, on batches
/// around its tile boundary against per-sample runs.
fn assert_tile_invariant(plan: &mut CompiledPlan, tile: usize, what: &str, rng: &mut Rng) {
    let t = plan.tile();
    assert_eq!(t, tile, "{what}: the tile the batches below are cut around");
    let sample = plan.sample_shape().to_vec();
    for n in [1, t - 1, t, t + 1, 3 * t + 2, 64] {
        let x = Tensor::randn(&batched(n, &sample), 1.0, rng);
        let whole = plan.execute(&x);
        assert_eq!(whole.shape(), &plan.out_shape_for(n)[..], "{what} batch {n}");
        let mut singles: Vec<f32> = Vec::with_capacity(whole.len());
        for i in 0..n {
            singles.extend_from_slice(plan.execute(&x.select_batch(i)).data());
        }
        assert_eq!(whole.len(), singles.len(), "{what} batch {n}");
        for (j, (a, b)) in whole.data().iter().zip(&singles).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} batch {n} element {j}: {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn batch_equals_concatenated_singles(seed in 0u64..1000) {
        let mut rng = Rng::new(seed);

        // Stem: Conv3×3 → BN → ReLU → MaxPool2 over a 1×32×32 raster.
        let stem_shape = [1, 32, 32];
        let mut stem_layers = conv_bn_relu(1, 8, 1, &mut rng);
        stem_layers.push(Box::new(MaxPool2d::new(2)));
        let mut stem = Sequential::new(stem_layers);
        settle(&mut stem, &stem_shape, &mut rng);
        let (stem_q, _) = quantize_sequential(&stem, &calib(&stem_shape, &mut rng)).unwrap();

        // Branch: three conv blocks (the first strided) + a 1×1 head
        // convolution over 8×16×16 stem features.
        let branch_shape = [8, 16, 16];
        let mut blocks = conv_bn_relu(8, 16, 2, &mut rng);
        blocks.extend(conv_bn_relu(16, 32, 1, &mut rng));
        blocks.extend(conv_bn_relu(32, 32, 1, &mut rng));
        let mut backbone = Sequential::new(blocks);
        settle(&mut backbone, &branch_shape, &mut rng);
        let head = Conv2d::new(32, 13, 1, 1, 0, &mut rng);
        let (backbone_q, feats) =
            quantize_sequential(&backbone, &calib(&branch_shape, &mut rng)).unwrap();
        let feat_scale = feats.iter().map(|f| calib_scale(f.data())).fold(0.0, f32::max);
        let head_q = QuantConv2d::from_conv(&head, feat_scale);

        // Learned gate: strided convs, self-attention, flatten, linear
        // over the 32×16×16 gate features.
        let gate_shape = [32, 16, 16];
        let gate = Sequential::new(vec![
            Box::new(Conv2d::new(32, 16, 3, 2, 1, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(SelfAttention2d::new(16, &mut rng)),
            Box::new(Conv2d::new(16, 16, 3, 2, 1, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(16, 8, 3, 2, 1, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8 * 2 * 2, 127, &mut rng)),
        ]);

        let mut branch = PlanBuilder::new(&batched(1, &branch_shape));
        branch.push_sequential(&backbone).unwrap();
        branch.push_conv(&head, None, false).unwrap();
        let mut branch_i8 = PlanBuilder::new(&batched(1, &branch_shape));
        branch_i8.push_quant_pipe(&backbone_q).unwrap();
        branch_i8.push_quant_conv(&head_q, None, false).unwrap();
        // With each plan's tile: a stem holds its one padded 34×34 plane
        // and nothing else (its register tiles pool into the output, so
        // it has no rows; the int8 one's cells are four bytes a channel
        // quad, as many as an f32's), a branch the planes and rows of its
        // widest convolution and no map between two of them.
        let plans = [
            ("stem f32", 56, compile_sequential(&stem, &batched(1, &stem_shape)).unwrap()),
            ("stem int8", 56, compile_quant_pipe(&stem_q, &batched(1, &stem_shape)).unwrap()),
            ("branch f32", 12, branch.finish()),
            ("branch int8", 23, branch_i8.finish()),
            ("gate f32", 4, compile_sequential(&gate, &batched(1, &gate_shape)).unwrap()),
        ];
        for (name, tile, mut plan) in plans {
            assert_tile_invariant(&mut plan, tile, name, &mut rng);
        }
    }
}
