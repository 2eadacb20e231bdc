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
//!
//! A stem's block goes one step further: where whole `2 × 2` windows fit
//! register tiles, the tiles apply the epilogue and pool, and nothing but
//! the pooled row is written. Both tile bodies of both precisions run here
//! against the two-pass write-back they replace — rows, then values, then
//! comparisons, kept below as the oracle — and against the layers, on
//! both sides of the rule that selects them; and a plan's last step stores
//! each sample to a destination of its own, in whatever order those lie.

use ecofusion_tensor::backend::{
    conv2d_pooled_t, conv2d_pooled_t_portable, conv2d_rows_t, BnRelu, DirectConv, RUN,
};
use ecofusion_tensor::graph::{compile_quant_pipe, compile_sequential, CompiledPlan, PlanBuilder};
use ecofusion_tensor::layer::{
    BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, SelfAttention2d, Sequential,
};
use ecofusion_tensor::quant::{
    calib_scale, conv_pooled_t_i8, conv_pooled_t_i8_portable, conv_rows_t_i8, quantize_planes,
    quantize_sequential, DequantAffineRelu, PackedConvWeights, QuantConv2d, QuantStage,
};
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

/// `Conv → BN → ReLU → MaxPool(pool)` with every batch-norm constant of
/// either sign: a negative `γ` reverses the order of a window's values, so
/// pooling before the affine — or comparing in any order but the pool's —
/// would show.
fn stem_like(
    [c, co]: [usize; 2],
    (k, s, p): (usize, usize, usize),
    pool: usize,
    rng: &mut Rng,
) -> Sequential {
    let mut signed = |scale: f64| -> Vec<f32> {
        (0..co)
            .map(|_| rng.uniform(0.2, scale) as f32 * [-1.0, 1.0][rng.uniform_usize(0, 2)])
            .collect()
    };
    let (gamma, beta, mean) = (signed(2.0), signed(1.0), signed(1.5));
    let var: Vec<f32> = (0..co).map(|_| rng.uniform(0.05, 4.0) as f32).collect();
    let mut bn = BatchNorm2d::new(co);
    bn.set_running_stats(mean, var);
    let mut values = [gamma, beta].into_iter();
    bn.visit_params(&mut |param| {
        param.value.data_mut().copy_from_slice(&values.next().expect("γ, then β"));
    });
    Sequential::new(vec![
        Box::new(Conv2d::new(c, co, k, s, p, rng)),
        Box::new(bn),
        Box::new(ReLU::new()),
        Box::new(MaxPool2d::new(pool)),
    ])
}

/// The two-pass write-back the pooled tiles replace, on one sample's
/// `(C_out, Ho·Wo)` accumulators: every value first, then each `2 × 2`
/// window's comparisons in `MaxPool2d`'s order.
fn two_pass<A: Copy>(
    acc: &[A],
    [co, ho, wo]: [usize; 3],
    value: impl Fn(usize, A) -> f32,
) -> Vec<f32> {
    let values: Vec<f32> = acc.iter().enumerate().map(|(i, &a)| value(i / (ho * wo), a)).collect();
    let mut pooled = Vec::with_capacity(co * ho * wo / 4);
    for plane in values.chunks_exact(ho * wo) {
        for (oy, ox) in (0..ho / 2).flat_map(|oy| (0..wo / 2).map(move |ox| (oy, ox))) {
            let mut best = f32::NEG_INFINITY;
            for at in [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(y, x)| (2 * oy + y) * wo + 2 * ox + x)
            {
                if plane[at] > best {
                    best = plane[at];
                }
            }
            pooled.push(best);
        }
    }
    pooled
}

/// `(h, w, (k, s, p), pool, selected)`.
type PooledGeometry = (usize, usize, (usize, usize, usize), usize, bool);

/// `(h, w, (k, s, p), pool)` and whether the compiler gives the step
/// pooled tiles: stride 1, even `Ho`, `Wo` a multiple of 16, a `2 × 2`
/// pool. `Wo` = 16 / 32 / 48 through three kernels on the one side; odd
/// `Ho`, `Wo` = 8 / 24 / 40, stride 2 and a pool of 3 on the other.
const POOLED_GEOMETRIES: [PooledGeometry; 12] = [
    (4, 16, (3, 1, 1), 2, true),
    (32, 32, (3, 1, 1), 2, true),
    (2, 48, (3, 1, 1), 2, true),
    (6, 16, (1, 1, 0), 2, true),
    (4, 32, (5, 1, 2), 2, true),
    (6, 18, (3, 1, 0), 2, true),
    (5, 16, (3, 1, 1), 2, false),
    (4, 8, (3, 1, 1), 2, false),
    (4, 24, (3, 1, 1), 2, false),
    (2, 40, (1, 1, 0), 2, false),
    (8, 32, (3, 2, 1), 2, false),
    (6, 48, (3, 1, 1), 3, false),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A stem's block, f32 and int8, on both sides of the selection rule:
    /// plan ≡ layers, and where the tiles pool, AVX2 body ≡ portable body
    /// ≡ the two-pass write-back over the rows the unfused kernel makes.
    /// A selected step holds no rows (its tile is the planes' alone); the
    /// others keep the write-back's generic loop exercised.
    #[test]
    fn pooled_tiles_match_the_two_pass_write_back_and_the_layers(
        c in 1usize..4,
        co in 1usize..11,
        geometry in 0usize..POOLED_GEOMETRIES.len(),
        special in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let (h, w, (k, s, p), pool, selected) = POOLED_GEOMETRIES[geometry];
        let mut seq = stem_like([c, co], (k, s, p), pool, &mut rng);
        let what = format!("{c}->{co} k{k} s{s} p{p} pool {pool} on {h}x{w}");
        let spec = seq.layers()[0].as_conv2d().expect("a convolution").spec();
        let direct = DirectConv::new(&spec, h, w);
        prop_assert_eq!(direct.pools_in_tile() && pool == 2, selected, "{}", what);
        let [ho, wo] = direct.out_hw();

        let mut plan = compile_sequential(&seq, &[1, c, h, w]).expect("compiles");
        prop_assert_eq!(plan.num_steps(), 1);
        let rows = if selected { 0 } else { co * ho * wo };
        prop_assert_eq!(plan.tile(), (256 * 1024 / (4 * (direct.sample_len() + rows))).max(1), "{}", what);
        let x = input(&plan, special == 0, &mut rng);
        let n = x.shape()[0];
        let eager = seq.forward(&x, false);
        assert_same_bits(&plan.execute(&x), &eager, &format!("f32 plan, {what}"));

        let calib: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[1, c, h, w], 1.0, &mut rng)).collect();
        let (pipe, _) = quantize_sequential(&seq, &calib).expect("quantizes");
        let mut plan_i8 = compile_quant_pipe(&pipe, &[1, c, h, w]).expect("compiles");
        let eager_i8 = pipe.forward(&x);
        assert_same_bits(&plan_i8.execute(&x), &eager_i8, &format!("int8 plan, {what}"));
        if !selected {
            return;
        }

        // f32 tiles, both bodies, against rows → values → comparisons.
        let (conv, bn) = (
            seq.layers()[0].as_conv2d().expect("a convolution"),
            seq.layers()[1].as_batchnorm().expect("a batch norm"),
        );
        let inv_std: Vec<f32> = bn.running_var().iter().map(|v| 1.0 / (v + bn.eps()).sqrt()).collect();
        let epilogue = BnRelu {
            bias: conv.bias().data(),
            mean: bn.running_mean(),
            inv_std: &inv_std,
            gamma: bn.gamma(),
            beta: bn.beta(),
        };
        let mut planes = vec![f32::NAN; direct.scratch_len(n)];
        direct.lower(x.data(), n, 0.0, &mut planes);
        let mut rows = vec![0.0f32; co * n * ho * wo];
        conv2d_rows_t(&planes, n, conv.weight().data(), &direct, &mut rows);
        let pooled = co * ho * wo / 4;
        for b in 0..n {
            let sample: Vec<f32> = (0..co)
                .flat_map(|ch| &rows[(ch * n + b) * ho * wo..][..ho * wo])
                .copied()
                .collect();
            let want = two_pass(&sample, [co, ho, wo], |ch, r| {
                let normed = ((r + epilogue.bias[ch]) - epilogue.mean[ch]) * inv_std[ch];
                (epilogue.gamma[ch] * normed + epilogue.beta[ch]).max(0.0)
            });
            let want = Tensor::from_vec(&[pooled], want);
            assert_same_bits(&want, &Tensor::from_vec(&[pooled], eager.data()[b * pooled..][..pooled].to_vec()), "oracle vs layers");
            for (body, tiles) in [
                ("dispatched", conv2d_pooled_t as fn(&[f32], usize, &[f32], &DirectConv, &BnRelu<'_>, &mut [f32])),
                ("portable", conv2d_pooled_t_portable),
            ] {
                let mut got = Tensor::full(&[pooled], f32::NAN);
                tiles(&planes, b, conv.weight().data(), &direct, &epilogue, got.data_mut());
                assert_same_bits(&got, &want, &format!("f32 {body} body, sample {b}, {what}"));
            }
        }

        // int8 tiles, both bodies, against accumulators → values →
        // comparisons.
        let [QuantStage::Conv(qc), QuantStage::Affine(scale, shift), ..] = &pipe.stages[..] else {
            panic!("Conv, Affine, ReLU, MaxPool");
        };
        let weights = PackedConvWeights::pack(&qc.weights.q, &qc.spec);
        let direct = DirectConv::new(&weights.pair_spec(), h, w);
        let deq: Vec<f32> = qc.weights.scales.iter().map(|s| qc.act_scale * s).collect();
        let epilogue = DequantAffineRelu { deq: &deq, bias: &qc.bias, scale, shift };
        let mut cells = vec![[i8::MIN; 2]; direct.scratch_len(n)];
        direct.clear(&mut cells, n, [0; 2]);
        for (b, sample) in x.data().chunks_exact(c * h * w).enumerate() {
            let channels = sample.chunks_exact(h * w);
            quantize_planes(&direct, &mut cells, b * c.div_ceil(2), channels, qc.act_scale);
        }
        let mut acc = vec![0i32; co * n * ho * wo];
        conv_rows_t_i8(&cells, n, &weights, &direct, &mut acc);
        for b in 0..n {
            let sample: Vec<i32> = (0..co)
                .flat_map(|ch| &acc[(ch * n + b) * ho * wo..][..ho * wo])
                .copied()
                .collect();
            let want = two_pass(&sample, [co, ho, wo], |ch, a| {
                ((a as f32 * deq[ch] + qc.bias[ch]) * scale[ch] + shift[ch]).max(0.0)
            });
            let want = Tensor::from_vec(&[pooled], want);
            assert_same_bits(&want, &Tensor::from_vec(&[pooled], eager_i8.data()[b * pooled..][..pooled].to_vec()), "oracle vs pipe");
            for (body, tiles) in [
                ("dispatched", conv_pooled_t_i8 as fn(&[[i8; 2]], usize, &PackedConvWeights, &DirectConv, &DequantAffineRelu<'_>, &mut [f32])),
                ("portable", conv_pooled_t_i8_portable),
            ] {
                let mut got = Tensor::full(&[pooled], f32::NAN);
                tiles(&cells, b, &weights, &direct, &epilogue, got.data_mut());
                assert_same_bits(&got, &want, &format!("int8 {body} body, sample {b}, {what}"));
            }
        }
    }

    /// `execute_blocks_to` over destinations in any order ≡
    /// `execute_blocks_into`'s one tensor of rows: a plan whose last step
    /// is a pooled tile (f32 and int8), one that ends in the generic
    /// write-back, pooled and not, and one that ends in no convolution at
    /// all and has its tile handed out.
    #[test]
    fn destinations_in_any_order_equal_the_contiguous_output(
        n in 1usize..70,
        shuffle in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let stem = stem_like([1, 8], (3, 1, 1), 2, &mut rng);
        let calib: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[1, 1, 4, 16], 1.0, &mut rng)).collect();
        let (stem_i8, _) = quantize_sequential(&stem, &calib).expect("quantizes");
        let linear = Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 2, 1, &mut rng)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 2 * 8, 5, &mut rng)),
        ]);
        let shape = [1, 1, 4, 16];
        let plans = [
            ("pooled tile", compile_sequential(&stem, &shape).expect("compiles")),
            ("int8 pooled tile", compile_quant_pipe(&stem_i8, &shape).expect("compiles")),
            ("two-pass pool", compile_sequential(&stem_like([1, 3], (3, 1, 1), 3, &mut rng), &shape).expect("compiles")),
            ("unpooled", compile_sequential(&chain([1, 4, 3], [0, 1], (true, true, Pool::Nowhere), [4, 16], &mut rng), &shape).expect("compiles")),
            ("linear", compile_sequential(&linear, &shape).expect("compiles")),
            ("flatten", compile_sequential(&Sequential::new(vec![Box::new(Flatten::new())]), &shape).expect("compiles")),
        ];
        let x = Tensor::randn(&[n, 1, 4, 16], 1.0, &mut rng);
        let blocks: Vec<&[f32]> = x.data().chunks_exact(4 * 16).collect();
        // Sample `b` goes to row `order[b]` of a buffer twice as long.
        let mut order: Vec<usize> = (0..2 * n).collect();
        let mut pick = Rng::new(shuffle);
        for i in (1..order.len()).rev() {
            order.swap(i, pick.uniform_usize(0, i + 1));
        }
        for (name, mut plan) in plans {
            let whole = plan.execute(&x);
            let per = whole.len() / n;
            let mut scattered = vec![f32::NAN; 2 * n * per];
            let mut rows: Vec<Option<&mut [f32]>> = scattered.chunks_exact_mut(per).map(Some).collect();
            let dsts: Vec<&mut [f32]> = order[..n].iter().map(|&at| rows[at].take().expect("a permutation")).collect();
            plan.execute_blocks_to(&blocks, 1, dsts);
            for (b, want) in whole.data().chunks_exact(per).enumerate() {
                let got = &scattered[order[b] * per..][..per];
                prop_assert!(got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits()), "{}: sample {}", name, b);
            }
            let unused = order[n..].iter().all(|&at| scattered[at * per..][..per].iter().all(|v| v.is_nan()));
            prop_assert!(unused, "{}: wrote a row nobody handed it", name);
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

/// The pooled tiles' per-call checks are `assert!`s: a geometry whose
/// windows do not fit the tiles, short planes, a short destination or
/// short constants must stop a release build too — they are what keeps the
/// raw-pointer loads and stores of the AVX2 bodies in bounds — and a
/// caller that hands a plan too few, too many or wrong-sized destinations
/// is stopped before anything is stored past them.
mod pooled_release_checks {
    use super::*;
    use ecofusion_tensor::backend::ConvSpec;

    /// One sample of a `1 → 3` convolution over `h × 16` through the f32
    /// tiles, `short` elements missing from the named operand.
    fn call_f32(h: usize, short: [usize; 3]) {
        let spec = ConvSpec { in_channels: 1, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let direct = DirectConv::new(&spec, h, 16);
        let planes = vec![0.0f32; direct.scratch_len(1) - short[0]];
        let mut out = vec![0.0f32; 3 * (h / 2) * 8 - short[1]];
        let (k, weight) = (vec![1.0f32; 3 - short[2]], vec![0.0f32; 3 * 9]);
        let epilogue = BnRelu { bias: &k, mean: &k, inv_std: &k, gamma: &k, beta: &k };
        conv2d_pooled_t(&planes, 0, &weight, &direct, &epilogue, &mut out);
    }

    fn call_i8(h: usize, short: [usize; 3]) {
        let spec = ConvSpec { in_channels: 1, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let weights = PackedConvWeights::pack(&[0; 3 * 9], &spec);
        let direct = DirectConv::new(&weights.pair_spec(), h, 16);
        let planes = vec![[0i8; 2]; direct.scratch_len(1) - short[0]];
        let mut out = vec![0.0f32; 3 * (h / 2) * 8 - short[1]];
        let k = vec![1.0f32; 3 - short[2]];
        let epilogue = DequantAffineRelu { deq: &k, bias: &k, scale: &k, shift: &k };
        conv_pooled_t_i8(&planes, 0, &weights, &direct, &epilogue, &mut out);
    }

    #[test]
    fn exact_operands_pass() {
        call_f32(4, [0; 3]);
        call_i8(4, [0; 3]);
    }

    #[test]
    #[should_panic(expected = "conv2d_pooled_t: operands disagree")]
    fn an_odd_height_is_rejected_in_release_too() {
        call_f32(5, [0; 3]);
    }

    #[test]
    #[should_panic(expected = "conv2d_pooled_t: operands disagree")]
    fn short_planes_are_rejected_in_release_too() {
        // (A row of whole runs ends with the planes: the slack behind
        // them goes unread, so cut into the last plane row itself.)
        call_f32(4, [RUN + 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "conv2d_pooled_t: operands disagree")]
    fn a_short_destination_is_rejected_in_release_too() {
        call_f32(4, [0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "conv2d_pooled_t: operands disagree")]
    fn short_constants_are_rejected_in_release_too() {
        call_f32(4, [0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "conv_pooled_t_i8: operands disagree")]
    fn an_odd_height_is_rejected_by_the_int8_tiles_too() {
        call_i8(5, [0; 3]);
    }

    #[test]
    #[should_panic(expected = "conv_pooled_t_i8: operands disagree")]
    fn short_pair_planes_are_rejected_in_release_too() {
        call_i8(4, [RUN + 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "conv_pooled_t_i8: operands disagree")]
    fn a_short_int8_destination_is_rejected_in_release_too() {
        call_i8(4, [0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "conv_pooled_t_i8: operands disagree")]
    fn short_int8_constants_are_rejected_in_release_too() {
        call_i8(4, [0, 0, 1]);
    }

    fn stem_plan() -> CompiledPlan {
        compile_sequential(&stem_like([1, 2], (3, 1, 1), 2, &mut Rng::new(5)), &[1, 1, 4, 16])
            .expect("compiles")
    }

    #[test]
    #[should_panic(expected = "plan output shape mismatch")]
    fn a_short_destination_stops_the_plan() {
        let (x, mut row) = ([0.0f32; 64], [0.0f32; 2 * 2 * 8 - 1]);
        stem_plan().execute_blocks_to(&[&x], 1, [&mut row[..]]);
    }

    #[test]
    #[should_panic(expected = "plan output batch mismatch")]
    fn a_missing_destination_stops_the_plan() {
        let (x, mut row) = ([0.0f32; 64], [0.0f32; 2 * 2 * 8]);
        stem_plan().execute_blocks_to(&[&x, &x], 1, [&mut row[..]]);
    }

    #[test]
    #[should_panic(expected = "plan output batch mismatch")]
    fn a_destination_too_many_stops_the_plan() {
        let (x, mut rows) = ([0.0f32; 64], [[0.0f32; 2 * 2 * 8]; 2]);
        stem_plan().execute_blocks_to(&[&x], 1, rows.iter_mut().map(|row| &mut row[..]));
    }
}
