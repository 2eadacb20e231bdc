//! What fusing a step into its consumer can break.
//!
//! A compiled plan writes each activation once, in the layout its reader
//! wants: a convolution's epilogue stores its rows straight into the
//! padded (at stride 2 phase-split) planes of the convolution behind it —
//! requantized into channel pairs when that one is int8 — or pools them on
//! the way, and the first step reads the caller's input where it lies,
//! whole or in channel blocks. Each of those is a place where a wrong
//! address, a stale pad cell, a dropped last channel or a reordered
//! comparison would go unnoticed by the kernel tests, so here every
//! producer → consumer pair the compiler fuses runs against the
//! layer-by-layer oracle — `Layer::forward(_, false)` and
//! `QuantPipe::forward` — **bit for bit**: same-size, stride-2 and `1 × 1`
//! consumers, kernels wider than the plane, odd extents, odd channel counts
//! (an int8 pair that is half padding), pooling epilogues, batches that
//! straddle a tile, and inputs that hold ±0, ±∞, NaN and `f32::MAX`.
//! (Debug builds also poison the plan's arena before every tile, so a cell
//! nobody wrote shows up as NaN in the output.)

use ecofusion_tensor::graph::{compile_quant_pipe, compile_sequential, CompiledPlan, PlanBuilder};
use ecofusion_tensor::layer::{
    BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, SelfAttention2d, Sequential,
};
use ecofusion_tensor::quant::{calib_scale, quantize_sequential, QuantConv2d};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::Tensor;
use proptest::prelude::*;

/// Bit equality, any NaN equal to any NaN: which payload an `∞ · 0` chain
/// carries is the instruction's choice, not the plan's.
fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i}: {g} vs {w}"
        );
    }
}

/// A batch that ends one sample into the plan's second tile (tiles of
/// these small shapes hold tens of samples), with the values a per-element
/// epilogue, a quantizer or a comparison could mishandle planted in it.
fn input(plan: &CompiledPlan, special: bool, rng: &mut Rng) -> Tensor {
    let n = if plan.tile() < 96 { plan.tile() + 1 } else { 3 };
    let mut x = Tensor::randn(&[&[n], plan.sample_shape()].concat(), 1.0, rng);
    if special {
        let planted = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, -f32::MAX];
        for v in planted {
            let at = rng.uniform_usize(0, x.len());
            x.data_mut()[at] = v;
        }
    }
    x
}

/// The geometry of one convolution of a chain, by kind: same-size `3 × 3`,
/// stride 2, `1 × 1`, and a kernel wider than most of the planes here.
fn geometry(kind: usize) -> (usize, usize, usize) {
    [(3, 1, 1), (3, 2, 1), (1, 1, 0), (5, 1, 2)][kind % 4]
}

/// Where a chain pools.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pool {
    Nowhere,
    /// Behind the first convolution: it pools into plain rows, which the
    /// second lowers.
    Between,
    /// Behind the second, into the output.
    Last,
}

/// `Conv → [BN] → [ReLU] → [MaxPool]` ×2 over `(c, h, w)` inputs, batch
/// norm settled so that its eval affine is nontrivial.
fn chain(
    [c, mid, co]: [usize; 3],
    kinds: [usize; 2],
    (bn, relu, pool): (bool, bool, Pool),
    [h, w]: [usize; 2],
    rng: &mut Rng,
) -> Sequential {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for (cin, cout, kind, pooled) in
        [(c, mid, kinds[0], Pool::Between), (mid, co, kinds[1], Pool::Last)]
    {
        let (k, s, p) = geometry(kind);
        layers.push(Box::new(Conv2d::new(cin, cout, k, s, p, rng)));
        if bn {
            layers.push(Box::new(BatchNorm2d::new(cout)));
        }
        if relu {
            layers.push(Box::new(ReLU::new()));
        }
        if pool == pooled {
            layers.push(Box::new(MaxPool2d::new(2)));
        }
    }
    let mut seq = Sequential::new(layers);
    let warm = Tensor::randn(&[4, c, h, w], 1.0, rng);
    for _ in 0..3 {
        let _ = seq.forward(&warm, true);
    }
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// conv → conv (→ pool → output) and conv → pool → conv, f32 and its
    /// int8 twin: the first convolution's epilogue writes the second's
    /// planes — or pools, and the second lowers the pooled rows — and the
    /// second's pools into the output. Planes of 6..13 cells a side are
    /// large enough for the second convolution to keep something to pool
    /// and small enough for `k = 5` to be wider than what a stride-2
    /// first convolution leaves.
    #[test]
    fn fused_chains_match_the_layer_by_layer_forwards(
        c in 1usize..6,
        mid in 1usize..10,
        co in 1usize..10,
        first in 0usize..4,
        second in 0usize..4,
        h in 6usize..14,
        w in 6usize..14,
        flags in 0usize..4,
        pool in 0usize..3,
        special in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let (bn, relu) = (flags & 1 != 0, flags & 2 != 0);
        // Pool where a convolution leaves a window to pool.
        let out = |len: usize, kind: usize| {
            let (k, s, p) = geometry(kind);
            (len + 2 * p - k) / s + 1
        };
        let pool = match pool {
            1 if out(h.min(w), first) >= 2 => Pool::Between,
            2 if out(out(h.min(w), first), second) >= 2 => Pool::Last,
            _ => Pool::Nowhere,
        };
        let mut seq = chain([c, mid, co], [first, second], (bn, relu, pool), [h, w], &mut rng);
        let what = format!(
            "{c}->{mid}->{co} kinds {first},{second} bn {bn} relu {relu} pool {pool:?} on {h}x{w}"
        );
        let mut plan = compile_sequential(&seq, &[1, c, h, w]).expect("compiles");
        prop_assert_eq!(plan.num_steps(), 2, "pooling is no step of its own");
        let x = input(&plan, special == 0, &mut rng);
        assert_same_bits(&plan.execute(&x), &seq.forward(&x, false), &format!("f32 {what}"));

        let calib: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[1, c, h, w], 1.0, &mut rng)).collect();
        let (pipe, _) = quantize_sequential(&seq, &calib).expect("quantizes");
        let mut plan = compile_quant_pipe(&pipe, &[1, c, h, w]).expect("compiles");
        prop_assert_eq!(plan.num_steps(), 2);
        let x = input(&plan, special == 0, &mut rng);
        assert_same_bits(&plan.execute(&x), &pipe.forward(&x), &format!("int8 {what}"));
    }

    /// The two crossings of precision a builder can compose: an f32
    /// convolution whose epilogue requantizes into an int8 one's channel
    /// pairs, and an int8 one whose dequantizing epilogue writes an f32
    /// one's planes.
    #[test]
    fn epilogues_cross_precisions(
        c in 1usize..6,
        mid in 1usize..8,
        co in 1usize..8,
        first in 0usize..4,
        second in 0usize..4,
        side in 5usize..12,
        relu in 0usize..2,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let conv = |cin, cout, kind, rng: &mut Rng| {
            let (k, s, p) = geometry(kind);
            Conv2d::new(cin, cout, k, s, p, rng)
        };
        let (mut a, mut b) = (conv(c, mid, first, &mut rng), conv(mid, co, second, &mut rng));
        let x = Tensor::randn(&[3, c, side, side], 1.0, &mut rng);
        let relu = relu == 1;
        let clamp = |t: Tensor| if relu { t.map(|v| v.max(0.0)) } else { t };

        // f32 → int8.
        let mid_map = clamp(a.forward(&x, false));
        let qb = QuantConv2d::from_conv(&b, calib_scale(mid_map.data()));
        let mut builder = PlanBuilder::new(x.shape());
        builder.push_conv(&a, None, relu).expect("first convolution");
        builder.push_quant_conv(&qb, None, false).expect("second convolution");
        assert_same_bits(&builder.finish().execute(&x), &qb.forward(&mid_map), "f32 -> int8");

        // int8 → f32.
        let qa = QuantConv2d::from_conv(&a, calib_scale(x.data()));
        let mid_map = clamp(qa.forward(&x));
        let mut builder = PlanBuilder::new(x.shape());
        builder.push_quant_conv(&qa, None, relu).expect("first convolution");
        builder.push_conv(&b, None, false).expect("second convolution");
        assert_same_bits(&builder.finish().execute(&x), &b.forward(&mid_map, false), "int8 -> f32");
    }

    /// `execute_blocks_into` over any split of a sample's channels into
    /// blocks ≡ `execute_into` over their concatenation: a plan that
    /// starts with an f32 convolution (same-size and strided), its int8
    /// twin (a channel pair may straddle two blocks), the learned gates'
    /// stack with an attention layer in the middle, and one whose first
    /// step is no convolution and has its input staged.
    #[test]
    fn blocks_in_equal_the_concatenation(
        c in 1usize..7,
        kind in 0usize..4,
        side in 4usize..10,
        n in 1usize..5,
        cuts in 0u32..64,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let conv_first = chain([c, 5, 3], [kind, 0], (true, true, Pool::Nowhere), [side, side], &mut rng);
        let calib: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[1, c, side, side], 1.0, &mut rng)).collect();
        let (pipe, _) = quantize_sequential(&conv_first, &calib).expect("quantizes");
        let (k, s, p) = geometry(kind);
        let after = (side + 2 * p - k) / s + 1;
        let gate = Sequential::new(vec![
            Box::new(Conv2d::new(c, 4, k, s, p, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(SelfAttention2d::new(4, &mut rng)),
            Box::new(Conv2d::new(4, 2, 3, 2, 1, &mut rng)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * after.div_ceil(2) * after.div_ceil(2), 3, &mut rng)),
        ]);
        let staged = Sequential::new(vec![
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(c * (side / 2) * (side / 2), 3, &mut rng)),
        ]);
        let shape = [n, c, side, side];
        let plans = [
            ("f32", compile_sequential(&conv_first, &shape).expect("compiles")),
            ("int8", compile_quant_pipe(&pipe, &shape).expect("compiles")),
            ("gate", compile_sequential(&gate, &shape).expect("compiles")),
            ("staged", compile_sequential(&staged, &shape).expect("compiles")),
        ];
        // Bit `i` of `cuts` set: a block ends behind channel `i`.
        let x = Tensor::randn(&shape, 1.0, &mut rng);
        let plane = side * side;
        let mut blocks: Vec<&[f32]> = Vec::new();
        for sample in x.data().chunks_exact(c * plane) {
            let mut from = 0;
            for ci in 0..c {
                if ci + 1 == c || cuts >> ci & 1 != 0 {
                    blocks.push(&sample[from * plane..(ci + 1) * plane]);
                    from = ci + 1;
                }
            }
        }
        let per_sample = blocks.len() / n;
        for (name, mut plan) in plans {
            let whole = plan.execute(&x);
            let mut scattered = Tensor::full(whole.shape(), f32::NAN);
            plan.execute_blocks_into(&blocks, per_sample, &mut scattered);
            assert_same_bits(&scattered, &whole, &format!("{name}: {per_sample} blocks a sample"));
        }
    }
}

/// The pooling epilogue compares a window's values in `MaxPool2d`'s order:
/// left to right, top row first, `v > best` from −∞. Only a window whose
/// maximum is a zero of either sign can tell — the first one met wins — so
/// an identity-like convolution (`1 × 1`, a weight small enough for a
/// negative input to underflow to −0.0, bias −0.0 so the sign survives)
/// feeds every arrangement of {+0.0, −0.0, a negative} into the windows,
/// across a row long enough for whole runs of windows and a remainder.
#[test]
fn pooling_epilogue_compares_in_maxpool_order() {
    let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut Rng::new(3));
    let mut values = [1.0e-30f32, -0.0].into_iter();
    conv.visit_params(&mut |p| p.value.data_mut()[0] = values.next().expect("weight, bias"));
    let mut seq = Sequential::new(vec![Box::new(conv), Box::new(MaxPool2d::new(2))]);
    // Per window `(a, b / c, d)`: the 81 arrangements of three inputs.
    let inputs = [1.0e-30f32, -1.0e-30, -1.0e20];
    let (h, w) = (2 * 3, 2 * 27);
    let mut x = Tensor::zeros(&[1, 1, h, w]);
    for window in 0..81 {
        let (oy, ox) = (window / 27, window % 27);
        for (cell, digit) in [1, 3, 9, 27].into_iter().enumerate() {
            let at = (2 * oy + cell / 2) * w + 2 * ox + cell % 2;
            x.data_mut()[at] = inputs[window / digit % 3];
        }
    }
    let eager = seq.forward(&x, false);
    let signs = |t: &Tensor| t.data().iter().filter(|v| v.to_bits() == (-0.0f32).to_bits()).count();
    assert!(signs(&eager) > 0 && signs(&eager) < 81, "both zeros must win somewhere");
    let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
    assert_same_bits(&plan.execute(&x), &eager, "pooled windows");
}

/// Blocks that are not whole samples of the compiled shape are a caller's
/// bug and stop the plan before it reads them.
mod malformed_blocks {
    use super::*;

    fn plan() -> CompiledPlan {
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut Rng::new(1));
        compile_sequential(&Sequential::new(vec![Box::new(conv)]), &[1, 2, 4, 4]).expect("compiles")
    }

    #[test]
    #[should_panic(expected = "different input shape")]
    fn a_short_sample_is_rejected() {
        let (a, b) = ([0.0f32; 16], [0.0f32; 15]);
        plan().execute_blocks_into(&[&a, &b], 2, &mut Tensor::zeros(&[1, 3, 4, 4]));
    }

    #[test]
    #[should_panic(expected = "not whole")]
    fn a_block_of_part_of_a_channel_is_rejected() {
        let (a, b) = ([0.0f32; 8], [0.0f32; 24]);
        plan().execute_blocks_into(&[&a, &b], 2, &mut Tensor::zeros(&[1, 3, 4, 4]));
    }

    #[test]
    #[should_panic(expected = "not whole samples")]
    fn a_ragged_batch_is_rejected() {
        let a = [0.0f32; 16];
        plan().execute_blocks_into(&[&a, &a, &a], 2, &mut Tensor::zeros(&[1, 3, 4, 4]));
    }
}
