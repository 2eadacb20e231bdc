//! Property-based tests for the int8 quantization path: the symmetric
//! per-channel scheme must round-trip every weight within half a
//! quantization step, the plans' int8 convolution kernel must agree
//! exactly with the oracle's direct i32 reduction, and the activation
//! quantizer must saturate instead of wrapping.

use ecofusion_tensor::backend::{ConvSpec, DirectConv};
use ecofusion_tensor::quant::{
    conv_direct_i8, conv_rows_t_i8, conv_rows_t_i8_portable, quantize_activations,
    quantize_per_channel, quantize_planes, PackedConvWeights, QMAX,
};
use ecofusion_tensor::rng::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantize→dequantize error is bounded by scale/2 per channel (the
    /// round-to-nearest guarantee), for every element.
    #[test]
    fn quantize_roundtrip_within_scale_bound(
        rows in 1usize..12,
        cols in 1usize..48,
        amp in 0.01f32..50.0,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let w: Vec<f32> =
            (0..rows * cols).map(|_| rng.uniform(-amp as f64, amp as f64) as f32).collect();
        let qw = quantize_per_channel(&w, rows, cols);
        prop_assert_eq!(qw.scales.len(), rows);
        for r in 0..rows {
            let scale = qw.scales[r];
            prop_assert!(scale > 0.0);
            for i in 0..cols {
                let orig = w[r * cols + i];
                let deq = qw.q[r * cols + i] as f32 * scale;
                prop_assert!(
                    (deq - orig).abs() <= scale * 0.5 + scale * 1e-4,
                    "row {} elem {}: {} vs {} (scale {})", r, i, deq, orig, scale
                );
            }
        }
    }

    /// The per-row max-abs element quantizes to exactly ±127, so the full
    /// int8 range is used for every channel.
    #[test]
    fn quantization_saturates_range(
        rows in 1usize..8,
        cols in 2usize..32,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let w: Vec<f32> =
            (0..rows * cols).map(|_| rng.uniform(-3.0, 3.0) as f32).collect();
        let qw = quantize_per_channel(&w, rows, cols);
        for r in 0..rows {
            let row = &qw.q[r * cols..(r + 1) * cols];
            let max_q = row.iter().map(|&v| (v as i32).abs()).max().unwrap();
            // All-zero rows keep scale 1.0 and stay zero; anything else
            // must hit the endpoint.
            let all_zero = w[r * cols..(r + 1) * cols].iter().all(|&v| v == 0.0);
            if !all_zero {
                prop_assert_eq!(max_q, QMAX as i32, "row {} under-uses the range", r);
            }
        }
    }

    /// Activation quantization clamps out-of-range values instead of
    /// wrapping, and round-trips in-range values within scale/2.
    #[test]
    fn activation_quantization_saturates_and_roundtrips(
        len in 1usize..128,
        scale in 0.001f32..2.0,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let x: Vec<f32> =
            (0..len).map(|_| rng.uniform(-400.0, 400.0) as f32).collect();
        let mut q = Vec::new();
        quantize_activations(&x, scale, &mut q);
        prop_assert_eq!(q.len(), len);
        for (&orig, &qv) in x.iter().zip(&q) {
            let limit = scale * QMAX;
            if orig.abs() <= limit {
                prop_assert!(((qv as f32 * scale) - orig).abs() <= scale * 0.5 + 1e-5);
            } else {
                prop_assert_eq!(qv as f32, QMAX.copysign(orig));
            }
        }
    }

    /// The quantizer is `round_ties_even` + clamp + saturating cast for
    /// every input — exact half steps (a power-of-two scale makes them
    /// representable), values far out of range, infinities and NaNs of
    /// any payload included — however it is spelled inside.
    #[test]
    fn quantizer_rounds_ties_to_even_and_saturates(
        len in 1usize..64,
        exp in 0i32..9,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let scale = 0.5f32.powi(exp);
        let mut x: Vec<f32> = (0..len)
            .flat_map(|_| {
                let half_step = (rng.uniform(-140.0, 140.0).floor() as f32 + 0.5) * scale;
                [half_step, rng.uniform(-200.0, 200.0) as f32 * scale, rng.normal(0.0, 1e6) as f32]
            })
            .collect();
        x.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, -0.0]);
        x.extend([0x7fc0_0055u32, 0xffc0_1234, 0x7f80_0001].map(f32::from_bits));
        let mut q = Vec::new();
        quantize_activations(&x, scale, &mut q);
        let inv = 1.0 / scale;
        for (&v, &got) in x.iter().zip(&q) {
            let want = (v * inv).round_ties_even().clamp(-QMAX, QMAX) as i8;
            prop_assert_eq!(got, want, "{} (bits {:#x}) at scale {}", v, v.to_bits(), scale);
        }
    }

    /// The pair quantizer is the flat quantizer re-laid: unit `(b, c, i)`
    /// holds channels `2c` and `2c + 1` of position `i`, and an odd last
    /// channel pairs with 0. Through the planes of a `1 × 1` convolution,
    /// which are the plain `(N, ⌈C/2⌉, plane)` layout, and of a padded
    /// strided one against its own lowering of the flat quantizer's pairs.
    #[test]
    fn pair_quantizer_is_the_flat_quantizer_paired(
        n in 1usize..4,
        c in 1usize..7,
        h in 1usize..5,
        w in 1usize..40,
        stride in 1usize..3,
        scale in 0.001f32..2.0,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::new(seed);
        let plane = h * w;
        let x: Vec<f32> =
            (0..n * c * plane).map(|_| rng.uniform(-400.0, 400.0) as f32).collect();
        let mut flat = Vec::new();
        quantize_activations(&x, scale, &mut flat);
        let want = pair_channels(&flat, n, c, plane);
        let c2 = c.div_ceil(2);
        let geometries = [(1, 1, 0), (3.min(h.min(w) + 2), stride, 1)];
        for (kernel, stride, padding) in geometries {
            let spec = ConvSpec { in_channels: c2, out_channels: 1, kernel, stride, padding };
            let direct = DirectConv::new(&spec, h, w);
            let mut lowered = vec![[55i8; 2]; direct.scratch_len(n)];
            direct.lower(&want, n, [0; 2], &mut lowered);
            let mut pairs = vec![[55i8; 2]; direct.scratch_len(n)];
            direct.clear(&mut pairs, n, [0; 2]);
            for (b, sample) in x.chunks_exact(c * plane).enumerate() {
                quantize_planes(&direct, &mut pairs, b * c2, sample.chunks_exact(plane), scale);
            }
            prop_assert_eq!(&pairs, &lowered, "{:?}", spec);
            if kernel == 1 {
                prop_assert_eq!(&pairs[..n * c2 * plane], &want[..]);
            }
        }
    }

    /// The plans' register-tiled int8 convolution agrees EXACTLY with
    /// the oracle's direct reduction — integer accumulation leaves no
    /// rounding slack — through BOTH tile bodies (the portable one is
    /// called directly, so a build that compiles the AVX2 body tests the
    /// two). Geometries leave short channel groups (`C_out % IR_T ≠ 0`;
    /// the tile is 8 channels × two runs of 8 positions), output rows
    /// shorter than, equal to and longer than a run, an odd number of
    /// runs, odd and even `C_in` (an odd last channel pairs with zero),
    /// stride 1 to 3, padding 0–2, kernels wider than the image and
    /// one-row / one-column images. Values span the whole `i8` range;
    /// one case in four is all −128, where a pair sum held in `i16`
    /// would overflow. The scratch is handed over dirty and oversized:
    /// the kernel must overwrite the prefix it uses, drop what its short
    /// runs read past a row end, and write nothing else.
    #[test]
    fn conv_rows_t_i8_exact_vs_direct_reduction(
        n in 1usize..4,
        c in 1usize..7,
        h in 1usize..12,
        w in 1usize..20,
        co in 1usize..20,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        extreme in 0usize..4,
        seed in 0u64..1000,
    ) {
        let k = k.min(h.min(w) + 2 * padding);
        let spec = ConvSpec { in_channels: c, out_channels: co, kernel: k, stride, padding };
        let mut rng = Rng::new(seed);
        let mut rand_i8 = |len: usize| -> Vec<i8> {
            (0..len)
                .map(|_| if extreme == 0 { -128 } else { rng.uniform(-128.0, 128.0).floor() as i8 })
                .collect()
        };
        let qx = rand_i8(n * c * h * w);
        let q = rand_i8(co * spec.patch_len());
        let direct = conv_direct_i8(&qx, [n, c, h, w], &spec, &q);
        let pairs = pair_channels(&qx, n, c, h * w);
        let weights = PackedConvWeights::pack(&q, &spec);
        let lowering = DirectConv::new(&weights.pair_spec(), h, w);
        let (ho, wo) = spec.out_size(h, w);
        let m = n * ho * wo;
        for (body, conv) in [("dispatched", conv_rows_t_i8 as ConvRows), ("portable", conv_rows_t_i8_portable)] {
            let mut planes = vec![[77i8; 2]; lowering.scratch_len(n) + 5];
            lowering.lower(&pairs, n, [0; 2], &mut planes);
            let mut acc = vec![-1i32; co * m + 3];
            conv(&planes, n, &weights, &lowering, &mut acc);
            prop_assert_eq!(
                &acc[..co * m], &direct[..], "{} body, {:?} on {}x{}x{}x{}", body, spec, n, c, h, w
            );
            prop_assert!(acc[co * m..].iter().all(|&v| v == -1), "wrote past the used prefix");
        }
    }
}

type ConvRows = fn(&[[i8; 2]], usize, &PackedConvWeights, &DirectConv, &mut [i32]);

/// Row-major `(outer, c, plane)` int8 values in the kernel's channel-pair
/// layout `(outer, ⌈c/2⌉, plane)`, by the index formula.
fn pair_channels(q: &[i8], outer: usize, c: usize, plane: usize) -> Vec<[i8; 2]> {
    let c2 = c.div_ceil(2);
    let mut out = vec![[0i8; 2]; outer * c2 * plane];
    for o in 0..outer {
        for ci in 0..c {
            for i in 0..plane {
                out[(o * c2 + ci / 2) * plane + i][ci % 2] = q[(o * c + ci) * plane + i];
            }
        }
    }
    out
}

/// `conv_rows_t_i8`'s per-call checks are `assert!`s: planes too short
/// for the last run's full-width load, or a lowering built for another
/// geometry than the weights were packed for, must stop a release build
/// too — there they are what keeps the AVX2 body's raw-pointer loads
/// inside the planes.
mod release_checks {
    use super::*;

    const SPEC: ConvSpec =
        ConvSpec { in_channels: 3, out_channels: 2, kernel: 3, stride: 1, padding: 1 };

    fn weights() -> PackedConvWeights {
        PackedConvWeights::pack(&[1; 2 * 27], &SPEC)
    }

    fn call(lowering: &DirectConv, planes_len: usize) {
        let weights = weights();
        let (planes, mut acc) = (vec![[1i8; 2]; planes_len], vec![0i32; 2 * 16]);
        conv_rows_t_i8(&planes, 1, &weights, lowering, &mut acc);
    }

    fn pair_lowering() -> DirectConv {
        DirectConv::new(&weights().pair_spec(), 4, 4)
    }

    #[test]
    fn exact_operands_pass() {
        call(&pair_lowering(), pair_lowering().scratch_len(1));
    }

    #[test]
    #[should_panic(expected = "conv_rows_t_i8: operands disagree")]
    fn short_planes_are_rejected_in_release_too() {
        // The planes fit; the slack the last run's full-width load falls
        // in does not.
        call(&pair_lowering(), pair_lowering().sample_len());
    }

    #[test]
    #[should_panic(expected = "conv_rows_t_i8: operands disagree")]
    fn a_lowering_for_other_weights_is_rejected_in_release_too() {
        // Built for the unpaired channel count.
        let unpaired = DirectConv::new(&SPEC, 4, 4);
        call(&unpaired, unpaired.scratch_len(1));
    }
}
