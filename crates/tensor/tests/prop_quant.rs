//! Property-based tests for the int8 quantization path: the symmetric
//! per-channel scheme must round-trip every weight within half a
//! quantization step, the plans' int8 convolution kernel must agree
//! exactly with the oracle's direct i32 reduction, and the activation
//! quantizer must saturate instead of wrapping.

use ecofusion_tensor::backend::ConvSpec;
use ecofusion_tensor::quant::{
    conv_direct_i8, conv_rows_t_i8, quantize_activations, quantize_per_channel, QMAX,
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

    /// The plans' register-tiled int8 convolution agrees EXACTLY with
    /// the oracle's direct reduction — integer accumulation leaves no
    /// rounding slack — on geometries that leave tile tails in both
    /// dimensions (`m % JR_T ≠ 0`, `C_out % IR_T ≠ 0`; the tile is 8
    /// channels × 16 positions) as well as whole tiles, at stride 1 and 2,
    /// with and without padding. The scratch is handed over dirty and oversized: the
    /// kernel must overwrite the prefix it uses and read nothing else.
    #[test]
    fn conv_rows_t_i8_exact_vs_direct_reduction(
        n in 1usize..4,
        c in 1usize..5,
        h in 3usize..12,
        w in 3usize..12,
        co in 1usize..20,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let spec = ConvSpec { in_channels: c, out_channels: co, kernel: k, stride, padding };
        let mut rng = Rng::new(seed);
        let mut rand_i8 =
            |len: usize| -> Vec<i8> { (0..len).map(|_| rng.uniform(-127.0, 128.0).floor() as i8).collect() };
        let qx = rand_i8(n * c * h * w);
        let q = rand_i8(co * spec.patch_len());
        let (ho, wo) = spec.out_size(h, w);
        let m = n * ho * wo;
        let mut cols = vec![77i8; spec.patch_len() * m + 5];
        let mut acc = vec![-1i32; co * m + 3];
        conv_rows_t_i8(&qx, [n, c, h, w], &spec, &q, &mut cols, &mut acc);
        let direct = conv_direct_i8(&qx, [n, c, h, w], &spec, &q);
        prop_assert_eq!(&acc[..co * m], &direct[..], "{:?} on {}x{}x{}x{}", spec, n, c, h, w);
        prop_assert!(acc[co * m..].iter().all(|&v| v == -1), "wrote past the used prefix");
    }
}
