//! The direct convolution of the compiled plans against its definition.
//!
//! [`conv2d_rows_t`] lowers the input into padded, phase-split planes and
//! reads every kernel tap at a fixed offset from a run's base
//! ([`DirectConv`]). The oracle here is the definition the
//! column-matrix lowering it replaced was built from: the patch of an
//! output position by the **index formula** (`x[b, ci, oy·s + ky − p,
//! ox·s + kx − p]`, `+0.0` outside the image), reduced by one scalar
//! `mul_add` per patch element in ascending `(ci, ky, kx)` order from
//! zero. Both tile bodies must reproduce it bit for bit — the portable
//! one is called directly, so a build that compiles the AVX2 + FMA body
//! tests the two — and the offset table must address exactly the cells
//! the formula names.

use ecofusion_tensor::backend::{conv2d_rows_t, conv2d_rows_t_portable, ConvSpec, DirectConv, RUN};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::Tensor;
use proptest::prelude::*;

/// `x[b, ci, oy·s + ky − p, ox·s + kx − p]`, `None` in the padding.
fn patch_index(
    spec: &ConvSpec,
    [c, h, w]: [usize; 3],
    [b, oy, ox]: [usize; 3],
    [ci, ky, kx]: [usize; 3],
) -> Option<usize> {
    let iy = (oy * spec.stride + ky).checked_sub(spec.padding).filter(|&iy| iy < h)?;
    let ix = (ox * spec.stride + kx).checked_sub(spec.padding).filter(|&ix| ix < w)?;
    Some(((b * c + ci) * h + iy) * w + ix)
}

/// The definition: channel-major `(C_out, N·Ho·Wo)` pre-bias rows.
fn conv_by_definition(
    x: &[f32],
    n: usize,
    [h, w]: [usize; 2],
    wt: &[f32],
    spec: &ConvSpec,
) -> Vec<f32> {
    let (c, k) = (spec.in_channels, spec.kernel);
    let (ho, wo) = spec.out_size(h, w);
    let m = n * ho * wo;
    let mut rows = vec![0.0f32; spec.out_channels * m];
    for (co, row) in rows.chunks_exact_mut(m).enumerate() {
        for (pos, out) in row.iter_mut().enumerate() {
            let at = [pos / (ho * wo), pos / wo % ho, pos % wo];
            let mut acc = 0.0f32;
            for p in 0..c * k * k {
                let tap = [p / (k * k), p / k % k, p % k];
                let xv = patch_index(spec, [c, h, w], at, tap).map_or(0.0, |i| x[i]);
                acc = wt[co * c * k * k + p].mul_add(xv, acc);
            }
            *out = acc;
        }
    }
    rows
}

/// Bit equality, any NaN equal to any NaN: which payload an `inf · 0`
/// chain carries is the instruction's choice, not the kernel's.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i}: {g} vs {w}"
        );
    }
}

/// Output widths on both sides of a run.
const WIDTHS: [usize; 8] = [1, 2, 4, 7, 8, 9, 12, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Both tile bodies ≡ the definition, bit for bit: every channel
    /// group height (`C_out` 1..19 leaves tails of 1..7 and whole groups
    /// of 8), kernels 1..5 including wider than the image, stride 1..3,
    /// padding 0..2 (a `1×1` kernel padded by 2 has taps that read
    /// nothing but zeros), odd, one-row and one-column images, output
    /// rows shorter than, equal to and longer than a run, batches 1..4.
    /// The scratch comes dirty (NaN) and oversized, `rows` oversized with
    /// a sentinel behind the used prefix. One case in four plants ±∞ and
    /// NaN weights: pad zeros are *multiplied*, as the zero columns
    /// were, so `∞ · 0` must surface as NaN exactly where the definition
    /// has it.
    #[test]
    fn both_tile_bodies_match_the_definition(
        n in 1usize..5,
        c in 1usize..7,
        co in 1usize..20,
        h in 1usize..13,
        w_any in 1usize..13,
        wide in 0usize..16,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        special in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Half the cases take their *output* width from the list around
        // a run and derive the input width that yields it.
        let w = match WIDTHS.get(wide) {
            Some(wo) => {
                let kernel = k.min(h + 2 * padding);
                ((wo - 1) * stride + kernel).saturating_sub(2 * padding).max(1)
            }
            None => w_any,
        };
        let kernel = k.min(h.min(w) + 2 * padding);
        let spec = ConvSpec { in_channels: c, out_channels: co, kernel, stride, padding };
        prop_assert!(spec.fits(h, w));
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
        let mut wt = Tensor::randn(&[co, spec.patch_len()], 1.0, &mut rng);
        if special == 0 {
            for (i, v) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
                let at = rng.uniform_usize(0, wt.len());
                wt.data_mut()[(at + i) % (co * spec.patch_len())] = v;
            }
        }
        let want = conv_by_definition(x.data(), n, [h, w], wt.data(), &spec);
        let direct = DirectConv::new(&spec, h, w);
        let (ho, wo) = spec.out_size(h, w);
        prop_assert_eq!(direct.out_hw(), [ho, wo]);
        let m = n * ho * wo;
        for body in ["dispatched", "portable"] {
            let mut scratch = vec![f32::NAN; direct.scratch_len(n) + 11];
            direct.lower(x.data(), n, 0.0, &mut scratch);
            let mut rows = vec![-7.5f32; co * m + 3];
            if body == "portable" {
                conv2d_rows_t_portable(&scratch, n, wt.data(), &direct, &mut rows);
            } else {
                conv2d_rows_t(&scratch, n, wt.data(), &direct, &mut rows);
            }
            let what = format!("{body} body, {spec:?} on {n}x{c}x{h}x{w}");
            assert_same_bits(&rows[..co * m], &want, &what);
            let untouched = rows[co * m..].iter().all(|&v| v == -7.5);
            prop_assert!(untouched, "{}: wrote past the rows", what);
        }
    }

    /// The offset table: after the lowering, for every output position
    /// and every patch element `p`, the cell `base + off[p]` holds the
    /// input element the index formula names, or a pad zero — for `f32`
    /// cells and for the `[i8; 2]` channel pairs of the int8 plans alike.
    /// Every cell a full-width load of any run can touch lies inside
    /// `scratch_len`, and the lowering writes every cell of the planes
    /// (the scratch comes dirty; what is neither image nor named by the
    /// formula must still be zero, since a short run reads across it).
    #[test]
    fn offsets_address_what_the_index_formula_names(
        n in 1usize..4,
        c in 1usize..4,
        h in 1usize..13,
        w in 1usize..37,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
    ) {
        let kernel = k.min(h.min(w) + 2 * padding);
        let spec = ConvSpec { in_channels: c, out_channels: 1, kernel, stride, padding };
        let direct = DirectConv::new(&spec, h, w);
        let [ho, wo] = direct.out_hw();
        prop_assert_eq!(direct.offsets().len(), spec.patch_len());
        // Distinct non-zero cells, so a wrong address cannot pass by luck.
        let x: Vec<f32> = (1..=n * c * h * w).map(|i| i as f32).collect();
        let pair = |v: f32| [v as i8, -(v as i8)];
        let mut cells = vec![f32::NAN; direct.scratch_len(n)];
        direct.lower(&x, n, 0.0f32, &mut cells);
        let xp: Vec<[i8; 2]> = x.iter().map(|&v| pair(v)).collect();
        let mut pairs = vec![[77i8; 2]; direct.scratch_len(n)];
        direct.lower(&xp, n, [0i8; 2], &mut pairs);
        let planes = n * direct.sample_len();
        prop_assert!(cells[..planes].iter().all(|v| !v.is_nan()), "a cell was left unwritten");
        prop_assert!(pairs[..planes].iter().all(|&v| v != [77, 77]), "a pair was left unwritten");
        for b in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let base = direct.base(b, oy, ox);
                    for (p, &off) in direct.offsets().iter().enumerate() {
                        let tap = [p / (kernel * kernel), p / kernel % kernel, p % kernel];
                        let want = patch_index(&spec, [c, h, w], [b, oy, ox], tap)
                            .map_or(0.0, |i| x[i]);
                        let at = (b, oy, ox, p);
                        prop_assert_eq!(cells[base + off], want, "{:?} at {:?}", spec, at);
                        prop_assert_eq!(pairs[base + off], pair(want));
                        // A run starting here loads `RUN` cells.
                        prop_assert!(base + off + RUN <= direct.scratch_len(n));
                    }
                }
            }
        }
    }
}

/// The per-call checks are `assert!`s: a short input, a short scratch or
/// short rows must stop a release build too — there they are what keeps
/// the raw-pointer loads of the AVX2 body inside the scratch.
mod release_checks {
    use super::*;

    fn call(x_len: usize, scratch_len: usize, rows_len: usize) {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let direct = DirectConv::new(&spec, 4, 4);
        let wt = Tensor::zeros(&[3, spec.patch_len()]);
        let (mut scratch, mut rows) = (vec![0.0f32; scratch_len], vec![0.0f32; rows_len]);
        direct.lower(&vec![0.0; x_len], 1, 0.0, &mut scratch);
        conv2d_rows_t(&scratch, 1, wt.data(), &direct, &mut rows);
    }

    #[test]
    fn exact_operands_pass() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        call(2 * 16, DirectConv::new(&spec, 4, 4).scratch_len(1), 3 * 16);
    }

    #[test]
    #[should_panic(expected = "DirectConv::lower: operands disagree")]
    fn a_short_input_is_rejected_in_release_too() {
        call(2 * 16 - 1, 2 * 36 + RUN, 3 * 16);
    }

    #[test]
    #[should_panic(expected = "conv2d_rows_t: operands disagree")]
    fn a_short_scratch_is_rejected_in_release_too() {
        // The planes fit; the slack the last run's full-width load falls
        // in does not.
        call(2 * 16, 2 * 36, 3 * 16);
    }

    #[test]
    #[should_panic(expected = "conv2d_rows_t: operands disagree")]
    fn short_rows_are_rejected_in_release_too() {
        call(2 * 16, 2 * 36 + RUN, 3 * 16 - 1);
    }

    #[test]
    #[should_panic(expected = "conv2d_rows_t: operands disagree")]
    fn short_weights_are_rejected_in_release_too() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let direct = DirectConv::new(&spec, 4, 4);
        let wt = Tensor::zeros(&[3, spec.patch_len() - 1]);
        let mut scratch = vec![0.0f32; direct.scratch_len(1)];
        direct.lower(&[0.0; 32], 1, 0.0, &mut scratch);
        conv2d_rows_t(&scratch, 1, wt.data(), &direct, &mut [0.0; 48]);
    }
}
