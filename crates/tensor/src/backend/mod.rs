//! The hot linear-algebra kernels: GEMM and convolution.
//!
//! Everything above the tensor layer — [`Tensor::matmul`] and its
//! transposed forms, [`Conv2d`](crate::layer::Conv2d) forward and
//! backward, the int8 calibration pass and the compiled plans' GEMM steps
//! — runs on [`Blocked`]: register-tiled, cache-aware kernels with
//! scoped-thread data parallelism over output rows and the batch
//! dimension. The call is static; there is no process-wide selection.
//! The compiled plans' convolution steps run [`conv2d_rows_t`], the direct
//! convolution below over planes the step before it wrote, which
//! reproduces [`Blocked`]'s forward reduction bit for bit — and, where a
//! step pools `2×2` over a geometry that puts whole windows in a register
//! tile (the stems), [`conv2d_pooled_t`], the same reduction in tiles that
//! apply the epilogue and pool before they store.
//!
//! [`Reference`] keeps the original straightforward loops behind the same
//! [`Backend`] trait as the **kernel oracle**: tests and the `tensor_ops`
//! bench call it directly or hand it to
//! [`Tensor::matmul_with`] and friends. Nothing serves or trains on it.
//!
//! # Numerical contract
//!
//! Both implementations accumulate every output element over the shared
//! dimension in the same (increasing) order and never split a single
//! reduction across threads, so each is individually deterministic on
//! every machine and thread count. They differ only in rounding: the
//! blocked kernels use fused multiply-adds (one rounding per multiply-add
//! instead of two). The parity suite in
//! `crates/tensor/tests/prop_backend.rs` bounds the divergence at `1e-4`
//! across randomized shapes for matmul and convolution forward + backward.

mod blocked;
mod reference;

pub use blocked::Blocked;
pub use reference::Reference;

use crate::tensor::Tensor;

/// Shape parameters of a 2-D convolution (NCHW, square kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl ConvSpec {
    /// Output spatial size for an `h × w` input.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let ho = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let wo = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (ho, wo)
    }

    /// Whether this is a convolution over an `h × w` image at all, as the
    /// plan compiler requires before it sizes anything by these numbers
    /// (an int8 image's geometry is outside input): at least one input
    /// channel, a stride of at least 1, and a kernel of at least 1 that
    /// is no larger than the padded image, so that the output is at
    /// least `1 × 1`.
    pub fn fits(&self, h: usize, w: usize) -> bool {
        let padded = self.padding.checked_mul(2).and_then(|p| p.checked_add(h.min(w)));
        self.in_channels >= 1
            && self.stride >= 1
            && padded.is_some_and(|padded| (1..=padded).contains(&self.kernel))
    }

    /// Width of one im2col row: `C_in · k · k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Gradients of one convolution backward pass.
#[derive(Debug)]
pub struct ConvGrads {
    /// Weight gradient, shape `(C_out, C_in·k·k)`.
    pub dw: Tensor,
    /// Bias gradient, shape `(C_out)`.
    pub db: Tensor,
    /// Input gradient, shape of the forward input.
    pub dx: Tensor,
}

/// The GEMM and convolution kernels, implemented by [`Blocked`] (what
/// everything runs on) and by [`Reference`] (the oracle the tests hold it
/// to).
///
/// GEMM methods write into a caller-zeroed `c` buffer. Slices are
/// row-major; dimension names follow `C (m×n) = A · B` with shared
/// dimension `k`.
pub trait Backend: Send + Sync {
    /// `C (m×n) = A (m×k) · B (k×n)`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// `C (m×n) = Aᵀ · B` where `A` is stored `(k×m)`.
    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// `C (m×n) = A · Bᵀ` where `B` is stored `(n×k)`.
    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]);

    /// Convolution forward over NCHW input `x` with weight `(C_out,
    /// C_in·k·k)` and bias `(C_out)`. `scratch` is a caller-owned buffer
    /// an implementation may use to avoid per-call allocation (im2col
    /// columns).
    fn conv2d_forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
    ) -> Tensor;

    /// Convolution backward: gradients of weight, bias, and input given
    /// the forward input `x` and `grad_out` in NCHW layout.
    ///
    /// `cols_valid` promises that `scratch` still holds exactly what this
    /// implementation's `conv2d_forward` left there for the same `x` — one
    /// that lowers to columns may then skip recomputing the lowering.
    fn conv2d_backward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        scratch: &mut Vec<f32>,
        cols_valid: bool,
    ) -> ConvGrads;
}

// ---------------------------------------------------------------------------
// Column lowering of the eager convolution (`Blocked`'s forward and backward:
// training, and the plans' oracle; `Reference` convolves directly and never
// materializes columns)
// ---------------------------------------------------------------------------

/// Lowers NCHW input to a `(N·Ho·Wo, C_in·k·k)` column matrix in `cols`
/// for the eager convolution forward and backward. Pure data movement —
/// the emitted matrix is element-for-element the naive lowering, so the
/// downstream GEMM sees identical values (bit-identity is untouched).
/// Every position of the matrix is written (copies or explicit padding
/// zeros), so the buffer is reused across calls without a full memset.
///
/// Two layouts of the same loop nest, picked by patch width:
/// * narrow patches (≲ one cache line): column sweep — contiguous source
///   reads, short-stride writes;
/// * wide patches: patch-major — each patch's destination row is
///   contiguous, with a branch-free interior fast path (const-k copies)
///   and per-element clipping only on boundary patches.
pub(crate) fn im2col(x: &Tensor, spec: &ConvSpec, cols: &mut Vec<f32>) {
    let (n, c, h, w) = dims4(x);
    if spec.patch_len() * std::mem::size_of::<f32>() > 64 && spec.kernel > 1 {
        im2col_patches(x.data(), [n, c, h, w], spec, cols);
    } else {
        im2col_columns(x.data(), [n, c, h, w], spec, cols);
    }
}

// ---------------------------------------------------------------------------
// Direct convolution of the compiled plans: padded, phase-split planes under
// one register tile
// ---------------------------------------------------------------------------

/// Channel-group height of the plans' register tiles (f32 and int8): with
/// two runs of [`RUN`] positions an `8×16` accumulator block, the same
/// register budget as the packed microkernel's `MR×NR` tile.
pub(crate) const IR_T: usize = 8;

/// Output positions of one run: consecutive positions of **one output
/// row**, as many as a 256-bit vector holds `f32`s. A run never crosses
/// a row, so every kernel tap of a run is one contiguous vector load;
/// a row end shorter than a run is computed full width — the lanes past
/// it read whatever follows inside the scratch — and stored partially.
pub const RUN: usize = 8;

/// Working-set budget of one compiled-plan tile: a plan streams as many
/// samples at a time as keep its lowering buffers (the padded input
/// planes of a convolution, its pre-bias rows / i32 accumulators,
/// ping/pong intermediates) within this many bytes, so a tile's planes
/// are still cache-resident when the register tiles read them and its
/// rows when the epilogue does. 256 KiB is an eighth of the reference
/// host's per-core L2 — the tile's input, output and the weights need
/// room beside it — and resolves to fifty-six samples for a stem (one
/// padded 34×34 plane each and no rows: its tiles pool; int8 alike),
/// twelve for a one-sensor f32 branch and four for the attention gate of
/// the canonical model (seven, twelve and four while the stem's tiles
/// wrote rows for an epilogue to pool; three, seven and four while every
/// convolution wrote an NCHW map for the next to copy; two each while the
/// f32 plans lowered to a column matrix nine times the size of their
/// input). Measured at
/// 128 / 256 / 512 KiB (`BENCH_14.json`, `tile_constant`): 128 and 256
/// are within run-to-run spread of each other (256 a little ahead on the
/// 64-frame f32 fleet batches, 128 on the int8 rung), 512 is behind on
/// the int8 rung and costs resident memory everywhere; at the larger
/// tiles of today 128 and 256 still read alike (`BENCH_22.json`).
pub(crate) const TILE_BYTES: usize = 256 * 1024;

/// The addressing of one direct convolution, fixed when a plan is
/// compiled: where [`DirectConv::store_plane`] — the one function that
/// writes planes; [`DirectConv::lower`] and every epilogue that feeds a
/// convolution are loops over it — puts every input element, and at which
/// fixed offset from a run's base every kernel tap finds it.
///
/// The input of a stride-1 convolution is held in zero-padded planes.
/// For stride `s > 1` each plane is de-interleaved into its `s²`
/// row/column-parity **sub-planes**: per axis, kernel index `κ` is the tap
/// `t = κ − p`, which reads sub-plane `r = t mod s` (Euclidean) at shift
/// `d = (t − r)/s`, because input index `o·s + t = (o + d)·s + r`. All
/// sub-planes are padded to one common extent `Hp × Wp`
/// (`Ho + d_max − d_min` by `Wo + d_max − d_min`, `d_min ≤ 0` cells of
/// lead on both axes), stored row `j` of sub-plane `r` holding input row
/// `(j + d_min)·s + r` or zeros where that leaves the image. One sample
/// is `C·s²` such sub-planes, channel-major. Then for every geometry —
/// same-size, strided, `1×1`, kernels wider than the image —
///
/// ```text
/// off[(ci, ky, kx)] = (ci·s² + ry·s + rx)·Hp·Wp + (dy − d_min)·Wp + (dx − d_min)
/// base(b, oy, ox)   = b·C·s²·Hp·Wp + oy·Wp + ox
/// ```
///
/// and `base + off[p]` holds what the index formula names for patch
/// element `p` of output position `(b, oy, ox)`, pad zeros included.
/// The unit a cell holds is the caller's: an `f32`, or the `[u8; 4]`
/// channel quad of the int8 plans (`spec.in_channels` then counts quads).
#[derive(Debug, Clone)]
pub struct DirectConv {
    spec: ConvSpec,
    /// The stride the planes are split by: `spec.stride`, cut to the
    /// padded image. A longer stride leaves one output position whose
    /// taps are where any such stride puts them, and cutting it bounds
    /// the `s²` sub-planes by the image instead of by an outside number.
    stride: usize,
    in_hw: [usize; 2],
    out_hw: [usize; 2],
    /// `[Hp, Wp]`, the common extent of every sub-plane.
    plane: [usize; 2],
    /// `−d_min`: zero rows above and zero columns left of the image in
    /// every sub-plane.
    lead: usize,
    off: Vec<usize>,
    /// The largest of `off` (0 for an empty patch).
    off_max: usize,
}

impl DirectConv {
    /// The addressing of `spec` over `h × w` input planes.
    ///
    /// # Panics
    /// Panics unless [`ConvSpec::fits`] — the plan compiler checks that
    /// before it gets here.
    pub fn new(spec: &ConvSpec, h: usize, w: usize) -> DirectConv {
        assert!(spec.fits(h, w), "DirectConv: {spec:?} does not fit a {h}x{w} image");
        let (k, p) = (spec.kernel, spec.padding);
        let s = spec.stride.min((2 * p).saturating_add(h.max(w)));
        let (ho, wo) = spec.out_size(h, w);
        // Kernel index κ on either axis → (sub-plane, shift).
        let tap = |kappa: usize| {
            let t = kappa as isize - p as isize;
            (t.rem_euclid(s as isize) as usize, t.div_euclid(s as isize))
        };
        let (d_min, d_max) = (tap(0).1, tap(k - 1).1);
        let lead = d_min.unsigned_abs();
        let (hp, wp) = (ho + (d_max - d_min) as usize, wo + (d_max - d_min) as usize);
        let mut off = Vec::with_capacity(spec.patch_len());
        for ci in 0..spec.in_channels {
            for (ry, dy) in (0..k).map(tap) {
                for (rx, dx) in (0..k).map(tap) {
                    let sub = ci * s * s + ry * s + rx;
                    let (row, col) = ((dy - d_min) as usize, (dx - d_min) as usize);
                    off.push(sub * hp * wp + row * wp + col);
                }
            }
        }
        let off_max = off.iter().copied().max().unwrap_or(0);
        DirectConv {
            spec: *spec,
            stride: s,
            in_hw: [h, w],
            out_hw: [ho, wo],
            plane: [hp, wp],
            lead,
            off,
            off_max,
        }
    }

    /// The convolution this addresses.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Input plane size `[h, w]`.
    pub fn in_hw(&self) -> [usize; 2] {
        self.in_hw
    }

    /// Output plane size `[Ho, Wo]`.
    pub fn out_hw(&self) -> [usize; 2] {
        self.out_hw
    }

    /// Offset of every patch element `(ci, ky, kx)` from a run's base.
    pub fn offsets(&self) -> &[usize] {
        &self.off
    }

    /// Cells of one `(sample, channel)` block: `s²` sub-planes.
    fn block_len(&self) -> usize {
        self.stride * self.stride * self.plane[0] * self.plane[1]
    }

    /// Cells one sample's padded planes take: `C·s²·Hp·Wp`.
    pub fn sample_len(&self) -> usize {
        self.spec.in_channels * self.block_len()
    }

    /// Cells the scratch of `n` samples must hold: their planes plus one
    /// run of slack, which the last row end's full-width loads fall in.
    pub fn scratch_len(&self, n: usize) -> usize {
        n * self.sample_len() + RUN
    }

    /// The base of the run that starts at output position `(b, oy, ox)`.
    pub fn base(&self, b: usize, oy: usize, ox: usize) -> usize {
        b * self.sample_len() + oy * self.plane[1] + ox
    }

    /// One past the last cell a full-width load of any run of `n ≥ 1`
    /// samples touches: largest base + largest offset + run width.
    pub(crate) fn reach(&self, n: usize) -> usize {
        let [ho, wo] = self.out_hw;
        self.base(n - 1, ho - 1, (wo - 1) / RUN * RUN) + self.off_max + RUN
    }

    /// Zeroes the planes of `n` samples. Whoever is about to write them —
    /// [`DirectConv::lower`], or the epilogue of the step before — does
    /// this once per tile: one large fill, then the image rows over it
    /// (the pad cells are single columns and rows between them, and a
    /// fill per gap costs more in calls than writing the image cells
    /// twice).
    pub fn clear<U: Copy>(&self, cells: &mut [U], n: usize, zero: U) {
        cells[..n * self.sample_len()].fill(zero);
    }

    /// **The plane store**, the one addressing function of the planes:
    /// puts every row of input plane `p` — the flat `(sample, channel)`
    /// index `b·C + ci` — where the type docs say it lives, cell `(y, x)`
    /// being `f` folded over the `K` source planes' elements `(y, x)` from
    /// `U::default()`: `f(cell, k, v)` takes in source `k`'s. Everything
    /// that writes planes is a loop over this: [`DirectConv::lower`] with
    /// the identity over one plane, the epilogue of a convolution that
    /// feeds another with its per-element arithmetic over a plane of its
    /// accumulators, the int8 quantizers with up to four channels' planes
    /// into one plane of quads. A trailing row or column no tap reads is
    /// not stored. The pad cells are not touched: [`DirectConv::clear`]
    /// comes first.
    ///
    /// Rows go [`RUN`] columns at a time through arrays of a fixed size —
    /// at stride 2 into half a run of each column parity — so that the
    /// map is straight-line vector code and the de-interleave two
    /// shuffles, where a loop over a run-time length need be neither (and
    /// source by source: a map of `K > 1` values at a time stays scalar).
    ///
    /// # Panics
    /// Panics if a source is smaller than an input plane, or `cells`
    /// shorter than the planes up to `p`.
    #[inline(always)]
    pub fn store_plane<V: Copy, U: Copy + Default, const K: usize>(
        &self,
        cells: &mut [U],
        p: usize,
        src: [&[V]; K],
        f: impl Fn(U, usize, V) -> U,
    ) {
        let (s, [h, w], [hp, wp], lead) = (self.stride, self.in_hw, self.plane, self.lead);
        // Input rows (columns) of one parity, cut to what a sub-plane has
        // room for behind its lead.
        let sub = hp * wp;
        let held = |len: usize, r: usize, room: usize| len.saturating_sub(r).div_ceil(s).min(room);
        let (rows, cols) = (|ry| held(h, ry, hp - lead), |rx| held(w, rx, wp - lead));
        let src = src.map(|plane| &plane[..h * w]);
        let row = |y: usize| {
            let mut row = [<&[V]>::default(); K];
            for (row, plane) in row.iter_mut().zip(src) {
                *row = &plane[y * w..][..w];
            }
            row
        };
        // The cell of column `x` of a row alone.
        let one = |row, x| fold_cells::<V, U, K, 1>(row, x, &f)[0];
        let block = &mut cells[p * self.block_len()..][..self.block_len()];
        // Input row `j·s + ry` lands in stored row `lead + j` of the `s`
        // sub-planes of row parity `ry`, one per column parity: from cell
        // `lead` of it on. One loop nest per stride, so that each is
        // compiled for itself.
        let first = lead * wp + lead;
        // (A sub-plane of a convolution that pads by a kernel or more may
        // have no room behind its lead at all.)
        fn behind_lead<U>(sub: &mut [U], first: usize) -> &mut [U] {
            sub.get_mut(first..).unwrap_or_default()
        }
        match s {
            1 => {
                for (y, dst) in block[first..].chunks_mut(wp).take(h).enumerate() {
                    let (row, mut dst) = (row(y), dst[..w].chunks_exact_mut(RUN));
                    for (c, d) in (&mut dst).enumerate() {
                        d.copy_from_slice(&fold_cells::<V, U, K, RUN>(row, RUN * c, &f));
                    }
                    for (d, x) in dst.into_remainder().iter_mut().zip(w / RUN * RUN..) {
                        *d = one(row, x);
                    }
                }
            }
            2 => {
                let (ne, no) = (cols(0), cols(1));
                for (ry, parity) in block.chunks_exact_mut(2 * sub).enumerate() {
                    let (even, odd) = parity.split_at_mut(sub);
                    let (even, odd) = (behind_lead(even, first), behind_lead(odd, first));
                    let stored = even.chunks_mut(wp).zip(odd.chunks_mut(wp));
                    for (j, (even, odd)) in stored.take(rows(ry)).enumerate() {
                        let row = row(2 * j + ry);
                        // A run of columns into half a run of each parity.
                        const HALF: usize = RUN / 2;
                        let runs =
                            even[..ne].chunks_exact_mut(HALF).zip(odd[..no].chunks_exact_mut(HALF));
                        for (c, (e, o)) in runs.enumerate() {
                            let cols = fold_cells::<V, U, K, RUN>(row, RUN * c, &f);
                            e.copy_from_slice(&std::array::from_fn::<U, HALF, _>(|i| cols[2 * i]));
                            o.copy_from_slice(&std::array::from_fn::<U, HALF, _>(|i| {
                                cols[2 * i + 1]
                            }));
                        }
                        let done = no / HALF * HALF;
                        for (e, i) in even[done..ne].iter_mut().zip(done..) {
                            *e = one(row, 2 * i);
                        }
                        for (o, i) in odd[done..no].iter_mut().zip(done..) {
                            *o = one(row, 2 * i + 1);
                        }
                    }
                }
            }
            _ => {
                for (r, dst) in block.chunks_exact_mut(sub).enumerate() {
                    let (ry, rx) = (r / s, r % s);
                    for (j, dst) in
                        behind_lead(dst, first).chunks_mut(wp).take(rows(ry)).enumerate()
                    {
                        let row = row(j * s + ry);
                        for (i, d) in dst[..cols(rx)].iter_mut().enumerate() {
                            *d = one(row, rx + i * s);
                        }
                    }
                }
            }
        }
    }

    /// The plane store over whole planes, copied: `x` holds consecutive
    /// `h × w` planes, the first of them plane `p0`.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of planes.
    pub fn store_planes<U: Copy + Default>(&self, cells: &mut [U], p0: usize, x: &[U]) {
        let [h, w] = self.in_hw;
        assert!(
            x.len().is_multiple_of(h * w),
            "DirectConv::store_planes: not whole {h}x{w} planes"
        );
        for (p, plane) in x.chunks_exact(h * w).enumerate() {
            self.store_plane(cells, p0 + p, [plane], |_, _, v| v);
        }
    }

    /// Writes the padded, phase-split planes of the `n` samples in `x`
    /// (`(n, C, h, w)` units) into the prefix of `scratch` they take —
    /// every cell of it, `zero` wherever the type docs say padding:
    /// [`DirectConv::clear`], then the row store over every source row.
    /// Pure data movement. A plan runs it for its first convolution, and
    /// for one whose input no convolution wrote; every other convolution
    /// finds its planes written by the epilogue before it.
    ///
    /// # Panics
    /// Panics if `x` is not `n` samples or `scratch` is shorter than
    /// their planes.
    pub fn lower<U: Copy + Default>(&self, x: &[U], n: usize, zero: U, scratch: &mut [U]) {
        let (c, [h, w]) = (self.spec.in_channels, self.in_hw);
        assert!(
            x.len() == n * c * h * w && scratch.len() >= n * self.sample_len(),
            "DirectConv::lower: operands disagree with {n} samples of {:?} over {h}x{w}",
            self.spec
        );
        self.clear(scratch, n, zero);
        self.store_planes(scratch, 0, x);
    }

    /// The register tiles of `n` samples: their runs in output order —
    /// sample, output row, then [`RUN`] positions at a time along the
    /// row — taken two at a time.
    pub(crate) fn tiles(&self, n: usize) -> Tiles<'_> {
        Tiles { direct: self, n, at: [0; 3] }
    }
}

/// Cells `x..x + N` of a row of [`DirectConv::store_plane`]'s sources,
/// folded source by source in plain loops: no closure or `array::map`,
/// which inside a large caller may stay a call per element.
#[inline(always)]
fn fold_cells<V: Copy, U: Copy + Default, const K: usize, const N: usize>(
    row: [&[V]; K],
    x: usize,
    f: &impl Fn(U, usize, V) -> U,
) -> [U; N] {
    let mut cells = [U::default(); N];
    for (k, row) in row.iter().enumerate() {
        for (c, &v) in cells.iter_mut().zip(&row[x..x + N]) {
            *c = f(*c, k, v);
        }
    }
    cells
}

/// One run of a register tile: where its loads start in the scratch,
/// where its outputs go in a channel's row, and how many of its [`RUN`]
/// lanes are real positions (0: a tile's unpaired second run, computed
/// and dropped).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileRun {
    pub(crate) base: usize,
    pub(crate) pos: usize,
    pub(crate) width: usize,
}

/// [`DirectConv::tiles`]: the next run starts at `at = [b, oy, ox]`.
pub(crate) struct Tiles<'a> {
    direct: &'a DirectConv,
    n: usize,
    at: [usize; 3],
}

impl Tiles<'_> {
    fn next_run(&mut self) -> Option<TileRun> {
        let ([ho, wo], [b, oy, ox]) = (self.direct.out_hw, self.at);
        if b == self.n {
            return None;
        }
        self.at = match (oy + 1 == ho, ox + RUN >= wo) {
            (_, false) => [b, oy, ox + RUN],
            (false, true) => [b, oy + 1, 0],
            (true, true) => [b + 1, 0, 0],
        };
        Some(TileRun {
            base: self.direct.base(b, oy, ox),
            pos: (b * ho + oy) * wo + ox,
            width: RUN.min(wo - ox),
        })
    }
}

impl Iterator for Tiles<'_> {
    type Item = [TileRun; 2];

    fn next(&mut self) -> Option<[TileRun; 2]> {
        let first = self.next_run()?;
        Some([first, self.next_run().unwrap_or(TileRun { width: 0, ..first })])
    }
}

/// [`conv2d_rows_t`]: the register tiles over `direct`'s planes, `IR_T`
/// output channels × two runs at a time, a short last channel group
/// through the tile of its own const height. `PORTABLE` forces the safe
/// tile body whatever the build enables.
fn conv_rows_direct<const PORTABLE: bool>(
    planes: &[f32],
    n: usize,
    a: &[f32],
    direct: &DirectConv,
    rows: &mut [f32],
) {
    if n == 0 {
        return;
    }
    let (co, [ho, wo]) = (direct.spec.out_channels, direct.out_hw);
    let (ck, m) = (direct.off.len(), n * ho * wo);
    // The one release-mode check the tiles below rest on, per call and
    // never per tile: operand lengths, and that the farthest full-width
    // load of any run stays inside the planes.
    assert!(
        a.len() == co * ck && rows.len() >= co * m && direct.reach(n) <= planes.len(),
        "conv2d_rows_t: operands disagree with {n} samples of {:?} over {:?}",
        direct.spec,
        direct.in_hw
    );
    for (a_grp, c_grp) in a.chunks(IR_T * ck).zip(rows[..co * m].chunks_mut(IR_T * m)) {
        let group = (a_grp, planes, direct, n, m, c_grp);
        // SAFETY: `a_grp` is `ir·ck` weights for the `ir` of its arm, and
        // the `assert!` above checked `reach(n)` — the end of the
        // farthest full-width load of any run of `tiles(n)` — against the
        // planes.
        unsafe {
            match a_grp.len() / ck {
                1 => group_tiles::<1, PORTABLE>(group),
                2 => group_tiles::<2, PORTABLE>(group),
                3 => group_tiles::<3, PORTABLE>(group),
                4 => group_tiles::<4, PORTABLE>(group),
                5 => group_tiles::<5, PORTABLE>(group),
                6 => group_tiles::<6, PORTABLE>(group),
                7 => group_tiles::<7, PORTABLE>(group),
                IR_T => group_tiles::<IR_T, PORTABLE>(group),
                ir => unreachable!("a channel group of {ir}"),
            }
        }
    }
}

/// All register tiles of one group of `IR` output channels: `(weights
/// (IR, ck), planes, addressing, samples, m, rows (IR, m))`. One tile is
/// `IR` channels × two runs, every lane one chain `acc = a[p]·x[base +
/// off[p]] + acc` over ascending `p` from zero, fused; each run's real
/// positions are stored to the rows. The tile has two bodies that
/// produce the same bits, AVX2 + FMA where the build enables both and
/// `PORTABLE` does not force the other.
///
/// Inlined into its eight call sites: the portable body's loops are
/// vectorised by the compiler, and out of line they ran at 17.7 GMAC/s
/// where inlined they run at 25.5 (the explicit body does not care).
///
/// # Safety
/// `a.len() ≥ IR·ck`, and `run.base + o + RUN ≤ x.len()` for every run
/// of `direct.tiles(n)` and every offset `o` of `direct`.
#[inline(always)]
unsafe fn group_tiles<const IR: usize, const PORTABLE: bool>(
    (a, x, direct, n, m, c): (&[f32], &[f32], &DirectConv, usize, usize, &mut [f32]),
) {
    for tile in direct.tiles(n) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
        if !PORTABLE {
            // SAFETY: compiled under `cfg(target_feature = "avx2",
            // "fma")`, so every CPU the build may run on has the features
            // `tile_f32_avx2` enables; its operand ranges are this
            // function's own contract.
            unsafe { tile_f32_avx2::<IR>(a, x, &direct.off, &tile, m, c) };
            continue;
        }
        tile_f32_portable::<IR>(a, x, &direct.off, &tile, m, c);
    }
}

/// Pre-bias convolution output of a compiled plan's f32 step,
/// channel-major `(C_out, N·Ho·Wo)`: exactly [`Blocked`]'s
/// [`Backend::conv2d_forward`] reduction minus the bias add and the NCHW
/// rearrangement, so a caller-supplied write-back epilogue (bias, folded
/// batch-norm, ReLU) reproduces the eager layer chain bit for bit,
/// reading one contiguous run of positions per output channel. `planes`
/// holds `direct`'s padded, phase-split planes of `n` samples (at least
/// [`DirectConv::scratch_len`]`(n)` cells) — written by
/// [`DirectConv::lower`] or, row by row, by [`DirectConv::store_plane`] —
/// and `weight` the `(C_out, C_in·k·k)` matrix; the used prefix of `rows`
/// (at least `C_out × N·Ho·Wo`) is fully overwritten.
///
/// This is a **direct convolution**: with the input in those planes
/// (a ninth of what a `k = 3` column matrix held), every kernel tap of
/// every output position is a fixed offset from the position's base, and
/// an `IR_T`-channel × two-run register tile ([`RUN`] consecutive
/// positions of one output row per run) reads its operands straight from
/// them. Each output element is the same chain the packed GEMM
/// microkernels behind `conv2d_forward` run — ascending `(ci, ky, kx)`,
/// one fused multiply-add per step, from zero, padding multiplied as
/// explicit zeros (f32 multiplication commutes exactly, so swapping the
/// operand roles changes no bits) — and reads only its own sample, so the
/// result does not depend on which other samples share the call.
///
/// # Panics
/// Panics if `weight`, `planes` or `rows` are shorter than `direct` and
/// `n` require — in release builds too.
pub fn conv2d_rows_t(
    planes: &[f32],
    n: usize,
    weight: &[f32],
    direct: &DirectConv,
    rows: &mut [f32],
) {
    conv_rows_direct::<false>(planes, n, weight, direct, rows);
}

/// [`conv2d_rows_t`] through the portable tile body whatever the build
/// enables, so that a host which compiles the AVX2 body tests both.
#[doc(hidden)]
pub fn conv2d_rows_t_portable(
    planes: &[f32],
    n: usize,
    weight: &[f32],
    direct: &DirectConv,
    rows: &mut [f32],
) {
    conv_rows_direct::<true>(planes, n, weight, direct, rows);
}

/// The portable body of a [`group_tiles`] tile: lane arrays and `mul_add`,
/// every index checked.
#[inline]
fn tile_f32_portable<const IR: usize>(
    a: &[f32],
    x: &[f32],
    off: &[usize],
    tile: &[TileRun; 2],
    m: usize,
    c: &mut [f32],
) {
    let ck = off.len();
    let mut acc = [[0.0f32; 2 * RUN]; IR];
    let a = &a[..IR * ck];
    for (p, &o) in off.iter().enumerate() {
        let mut b = [0.0f32; 2 * RUN];
        b[..RUN].copy_from_slice(&x[tile[0].base + o..][..RUN]);
        b[RUN..].copy_from_slice(&x[tile[1].base + o..][..RUN]);
        for (ii, acc) in acc.iter_mut().enumerate() {
            let av = a[ii * ck + p];
            for (lane, &bv) in acc.iter_mut().zip(&b) {
                *lane = av.mul_add(bv, *lane);
            }
        }
    }
    for (row, acc) in c.chunks_exact_mut(m).zip(&acc) {
        for (run, lanes) in tile.iter().zip(acc.chunks_exact(RUN)) {
            if run.width == RUN {
                row[run.pos..][..RUN].copy_from_slice(lanes);
            } else {
                row[run.pos..][..run.width].copy_from_slice(&lanes[..run.width]);
            }
        }
    }
}

/// The AVX2 + FMA body of a [`group_tiles`] tile: per patch element two
/// unaligned 8-lane loads and, per channel, one broadcast weight fused
/// into both runs' accumulators (`vfmadd231ps`).
///
/// # Safety
/// `a.len() ≥ IR·off.len()`, and `run.base + o + RUN ≤ x.len()` for both
/// runs of `tile` and every `o` in `off`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f32_avx2<const IR: usize>(
    a: &[f32],
    x: &[f32],
    off: &[usize],
    tile: &[TileRun; 2],
    m: usize,
    c: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let ck = off.len();
    let mut acc = [[_mm256_setzero_ps(); 2]; IR];
    for (p, &o) in off.iter().enumerate() {
        // SAFETY: the caller guarantees `base + o + RUN ≤ x.len()` for
        // both runs, so each unaligned load reads 8 floats of `x`.
        let b = unsafe {
            [
                _mm256_loadu_ps(x.as_ptr().add(tile[0].base + o)),
                _mm256_loadu_ps(x.as_ptr().add(tile[1].base + o)),
            ]
        };
        for (ii, acc) in acc.iter_mut().enumerate() {
            // SAFETY: `ii < IR` and `p < ck`, and the caller guarantees
            // `a.len() ≥ IR·ck`.
            let av = unsafe { _mm256_broadcast_ss(a.get_unchecked(ii * ck + p)) };
            acc[0] = _mm256_fmadd_ps(av, b[0], acc[0]);
            acc[1] = _mm256_fmadd_ps(av, b[1], acc[1]);
        }
    }
    // Whole runs — every tile but a row end's — store straight from the
    // registers, their bounds checked once for the tile.
    if c.len() >= IR * m && tile.iter().all(|run| run.width == RUN && run.pos + RUN <= m) {
        for (ii, acc) in acc.into_iter().enumerate() {
            for (run, v) in tile.iter().zip(acc) {
                // SAFETY: `ii < IR` and `run.pos + RUN ≤ m`, so the 8
                // floats from `ii·m + run.pos` end inside the first
                // `IR·m` of `c`, which the branch condition checked it has.
                unsafe { _mm256_storeu_ps(c.as_mut_ptr().add(ii * m + run.pos), v) };
            }
        }
        return;
    }
    for (ii, acc) in acc.into_iter().enumerate() {
        for (run, v) in tile.iter().zip(acc) {
            let mut lanes = [0.0f32; RUN];
            // SAFETY: `lanes` is 8 floats, the width of the store.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
            c[ii * m + run.pos..][..run.width].copy_from_slice(&lanes[..run.width]);
        }
    }
}

// ---------------------------------------------------------------------------
// The pooled tile: a convolution whose epilogue pools 2×2 finishes its
// windows in registers
// ---------------------------------------------------------------------------

/// Channel-group height of the pooled register tiles (f32 and int8): with
/// **two output rows** × two runs a `4×(2×16)` accumulator block — the
/// register budget of the `IR_T×16` tile, turned so that it covers whole
/// `2×2` windows.
pub(crate) const IR_P: usize = 4;

/// The per-channel constants of a pooled f32 tile's epilogue: bias, then
/// the batch-norm eval affine, then ReLU — per element
/// `(γ·(((r + bias) − mean)·inv_std) + β).max(0)`, unfused and in that
/// order, which is the eager `Conv2d → BatchNorm2d → ReLU` arithmetic.
/// One value per output channel in every slice.
#[derive(Debug, Clone, Copy)]
pub struct BnRelu<'a> {
    /// Convolution bias.
    pub bias: &'a [f32],
    /// Running mean.
    pub mean: &'a [f32],
    /// `1/√(var + ε)`.
    pub inv_std: &'a [f32],
    /// Batch-norm weight γ.
    pub gamma: &'a [f32],
    /// Batch-norm bias β.
    pub beta: &'a [f32],
}

impl BnRelu<'_> {
    /// `[bias, mean, inv_std, γ, β]` of output channel `c`.
    #[inline]
    fn at(&self, c: usize) -> [f32; 5] {
        [self.bias[c], self.mean[c], self.inv_std[c], self.gamma[c], self.beta[c]]
    }
}

/// The `2×2` max pool of two output rows × two runs of values, `rows[y]`
/// holding columns `0..2·RUN` of row `y`: each window compared in
/// `MaxPool2d`'s order — top row first, left to right, `v > best` from
/// −∞, so a NaN or an equal `v` keeps `best`.
#[inline]
pub(crate) fn pool_windows(rows: [&[f32; 2 * RUN]; 2]) -> [f32; RUN] {
    std::array::from_fn(|x| {
        let mut best = f32::NEG_INFINITY;
        for v in [rows[0][2 * x], rows[0][2 * x + 1], rows[1][2 * x], rows[1][2 * x + 1]] {
            if v > best {
                best = v;
            }
        }
        best
    })
}

/// [`pool_windows`] on registers, `v = [row 0 run 0, row 0 run 1, row 1
/// run 0, row 1 run 1]`: per row two `vshufps` split the sixteen columns
/// into their even and their odd ones (both in the lane order `0 1 4 5 2
/// 3 6 7` of windows), `vmaxps(v, best)` — which returns `best` unless
/// `v > best` — takes them in `MaxPool2d`'s order, and one `vpermpd` puts
/// the eight windows back in column order.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[target_feature(enable = "avx2")]
pub(crate) fn pool_windows_avx2(v: [std::arch::x86_64::__m256; 4]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::{
        _mm256_castpd_ps, _mm256_castps_pd, _mm256_max_ps, _mm256_permute4x64_pd, _mm256_set1_ps,
        _mm256_shuffle_ps,
    };
    let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
    for [a, b] in [[v[0], v[1]], [v[2], v[3]]] {
        best = _mm256_max_ps(_mm256_shuffle_ps::<0b10_00_10_00>(a, b), best);
        best = _mm256_max_ps(_mm256_shuffle_ps::<0b11_01_11_01>(a, b), best);
    }
    _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(best)))
}

impl DirectConv {
    /// Whether [`conv2d_pooled_t`] (and its int8 twin) covers this
    /// geometry: register tiles of two output rows × two runs hold whole
    /// `2×2` windows when the stride is 1 (the second row's taps are one
    /// plane row on), `Ho` is even and `Wo` a multiple of `2·RUN`. The
    /// plan compiler asks once, when it fuses the pooling; any other
    /// pooling convolution keeps the two-pass write-back.
    pub fn pools_in_tile(&self) -> bool {
        let [ho, wo] = self.out_hw;
        self.stride == 1 && ho.is_multiple_of(2) && wo.is_multiple_of(2 * RUN)
    }

    /// The bases of sample `b`'s pooled tiles — the upper-left run of two
    /// output rows × two runs — each with where its [`RUN`] pooled outputs
    /// go in a channel's `(Ho/2, Wo/2)` plane.
    pub(crate) fn pooled_tiles(&self, b: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let [ho, wo] = self.out_hw;
        (0..ho / 2).flat_map(move |y| {
            (0..wo / (2 * RUN))
                .map(move |x| (self.base(b, 2 * y, 2 * RUN * x), y * (wo / 2) + RUN * x))
        })
    }
}

/// [`conv2d_pooled_t`], `PORTABLE` forcing the safe tile body.
fn conv_pooled_direct<const PORTABLE: bool>(
    planes: &[f32],
    b: usize,
    a: &[f32],
    direct: &DirectConv,
    epilogue: &BnRelu<'_>,
    out: &mut [f32],
) {
    let (co, [ho, wo], ck) = (direct.spec.out_channels, direct.out_hw, direct.off.len());
    let pooled = ho / 2 * (wo / 2);
    let BnRelu { bias, mean, inv_std, gamma, beta } = epilogue;
    // The one release-mode check per call (a call is one sample): the
    // geometry the tiles assume, operand lengths, and that the farthest
    // full-width load of the sample's last tile stays inside the planes.
    assert!(
        direct.pools_in_tile()
            && a.len() == co * ck
            && [bias, mean, inv_std, gamma, beta].iter().all(|k| k.len() == co)
            && out.len() == co * pooled
            && direct.reach(b + 1) <= planes.len(),
        "conv2d_pooled_t: operands disagree with sample {b} of {:?} over {:?}",
        direct.spec,
        direct.in_hw
    );
    let groups = a.chunks(IR_P * ck).zip(out.chunks_mut(IR_P * pooled));
    for (g, (a_grp, out_grp)) in groups.enumerate() {
        let group = (a_grp, planes, direct, b, epilogue, IR_P * g, out_grp);
        // SAFETY: `a_grp` is `ir·ck` weights and `out_grp` `ir` pooled
        // planes for the `ir` of its arm, and the `assert!` above checked
        // `pools_in_tile()` and `reach(b + 1)` — the end of the farthest
        // full-width load of any tile of `pooled_tiles(b)` — against the
        // planes.
        unsafe {
            match a_grp.len() / ck {
                1 => group_pooled_tiles::<1, PORTABLE>(group),
                2 => group_pooled_tiles::<2, PORTABLE>(group),
                3 => group_pooled_tiles::<3, PORTABLE>(group),
                IR_P => group_pooled_tiles::<IR_P, PORTABLE>(group),
                ir => unreachable!("a channel group of {ir}"),
            }
        }
    }
}

/// All pooled tiles of one sample and one group of `IR` output channels:
/// `(weights (IR, ck), planes, addressing, sample, epilogue, first
/// channel, pooled planes (IR, Ho/2·Wo/2))`. One tile is `IR` channels ×
/// two output rows × two runs: every lane the chain of [`group_tiles`],
/// then [`BnRelu`]'s arithmetic on the accumulators where they are, each
/// `2×2` window's comparisons ([`pool_windows`]) and one store of [`RUN`]
/// pooled outputs per channel — the unpooled values are written nowhere.
/// Two bodies that produce the same bits, as for [`group_tiles`].
///
/// # Safety
/// `direct.pools_in_tile()`, `a.len() ≥ IR·ck`, `out.len() ≥
/// IR·(Ho/2)·(Wo/2)`, and `direct.reach(b + 1) ≤ x.len()`.
#[inline(always)]
unsafe fn group_pooled_tiles<const IR: usize, const PORTABLE: bool>(
    (a, x, direct, b, epilogue, c0, out): (
        &[f32],
        &[f32],
        &DirectConv,
        usize,
        &BnRelu<'_>,
        usize,
        &mut [f32],
    ),
) {
    let consts: [[f32; 5]; IR] = std::array::from_fn(|ii| epilogue.at(c0 + ii));
    let (pooled, below) = (out.len() / IR, direct.plane[1]);
    for (base, pos) in direct.pooled_tiles(b) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
        if !PORTABLE {
            // SAFETY: compiled under `cfg(target_feature = "avx2",
            // "fma")`, so every CPU the build may run on has the features
            // the body enables; its operand ranges follow from this
            // function's contract — `base` is that of two output rows ×
            // two runs inside sample `b`, whose farthest load
            // `reach(b + 1)` bounds, and `pos + RUN ≤ pooled`.
            unsafe {
                pooled_tile_f32_avx2::<IR>(
                    a,
                    x,
                    &direct.off,
                    [base, below],
                    &consts,
                    pos,
                    pooled,
                    out,
                )
            };
            continue;
        }
        pooled_tile_f32_portable::<IR>(a, x, &direct.off, [base, below], &consts, pos, pooled, out);
    }
}

/// `(γ·(((r + bias) − mean)·inv_std) + β).max(0)`: [`BnRelu`] per element.
#[inline]
fn bn_relu([bias, mean, inv_std, gamma, beta]: [f32; 5], r: f32) -> f32 {
    (gamma * (((r + bias) - mean) * inv_std) + beta).max(0.0)
}

/// The portable body of a [`group_pooled_tiles`] tile: lane arrays and
/// `mul_add`, every index checked. `[base, below]` is the tile's base and
/// the distance to the same column one output row down.
#[inline]
#[allow(clippy::too_many_arguments)] // one tile's operands, not state
fn pooled_tile_f32_portable<const IR: usize>(
    a: &[f32],
    x: &[f32],
    off: &[usize],
    [base, below]: [usize; 2],
    consts: &[[f32; 5]; IR],
    pos: usize,
    pooled: usize,
    out: &mut [f32],
) {
    let ck = off.len();
    let mut acc = [[[0.0f32; 2 * RUN]; 2]; IR];
    let a = &a[..IR * ck];
    for (p, &o) in off.iter().enumerate() {
        let b: [&[f32]; 2] = [&x[base + o..][..2 * RUN], &x[base + below + o..][..2 * RUN]];
        for (ii, acc) in acc.iter_mut().enumerate() {
            let av = a[ii * ck + p];
            for (row, b) in acc.iter_mut().zip(b) {
                for (lane, &bv) in row.iter_mut().zip(b) {
                    *lane = av.mul_add(bv, *lane);
                }
            }
        }
    }
    for (ii, (acc, &k)) in acc.iter().zip(consts).enumerate() {
        let v = acc.map(|row| row.map(|r| bn_relu(k, r)));
        out[ii * pooled + pos..][..RUN].copy_from_slice(&pool_windows([&v[0], &v[1]]));
    }
}

/// The AVX2 + FMA body of a [`group_pooled_tiles`] tile: per patch element
/// four unaligned 8-lane loads (two runs of two output rows) and, per
/// channel, one broadcast weight fused into the four accumulators; then
/// the epilogue on the sixteen registers — five broadcast constants a
/// channel, six vector operations a register — and
/// [`pool_windows_avx2`], one 8-lane store per channel.
///
/// # Safety
/// `a.len() ≥ IR·off.len()`; `base + d + o + RUN ≤ x.len()` for every `o`
/// in `off` and `d` in `{0, RUN, below, below + RUN}`; and
/// `(IR − 1)·pooled + pos + RUN ≤ out.len()`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // one tile's operands, not state
unsafe fn pooled_tile_f32_avx2<const IR: usize>(
    a: &[f32],
    x: &[f32],
    off: &[usize],
    [base, below]: [usize; 2],
    consts: &[[f32; 5]; IR],
    pos: usize,
    pooled: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_max_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps,
    };
    let ck = off.len();
    let mut acc = [[_mm256_setzero_ps(); 4]; IR];
    for (p, &o) in off.iter().enumerate() {
        // SAFETY: the caller guarantees `base + d + o + RUN ≤ x.len()`
        // for these four `d`, so each unaligned load reads 8 floats of
        // `x`.
        let b = unsafe {
            let at = x.as_ptr().add(base + o);
            [
                _mm256_loadu_ps(at),
                _mm256_loadu_ps(at.add(RUN)),
                _mm256_loadu_ps(at.add(below)),
                _mm256_loadu_ps(at.add(below + RUN)),
            ]
        };
        for (ii, acc) in acc.iter_mut().enumerate() {
            // SAFETY: `ii < IR` and `p < ck`, and the caller guarantees
            // `a.len() ≥ IR·ck`.
            let av = unsafe { _mm256_broadcast_ss(a.get_unchecked(ii * ck + p)) };
            for (acc, b) in acc.iter_mut().zip(b) {
                *acc = _mm256_fmadd_ps(av, b, *acc);
            }
        }
    }
    let zero = _mm256_setzero_ps();
    for (ii, (acc, k)) in acc.into_iter().zip(consts).enumerate() {
        let [bias, mean, inv_std, gamma, beta] = k.map(|k| _mm256_set1_ps(k));
        // `bn_relu` per lane; `vmaxps(v, 0)` is what `v.max(0.0)` compiles
        // to: 0 for a NaN and for either zero.
        let v = acc.map(|r| {
            let t = _mm256_mul_ps(_mm256_sub_ps(_mm256_add_ps(r, bias), mean), inv_std);
            _mm256_max_ps(_mm256_add_ps(_mm256_mul_ps(gamma, t), beta), zero)
        });
        // SAFETY: the caller guarantees `(IR − 1)·pooled + pos + RUN ≤
        // out.len()` and `ii < IR`, so the 8 floats from `ii·pooled + pos`
        // lie inside `out`.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(ii * pooled + pos), pool_windows_avx2(v)) };
    }
}

/// A convolution, its batch-norm eval affine, ReLU and `2×2` max pooling
/// in one pass over the planes: sample `b` of `planes` (as
/// [`conv2d_rows_t`] reads them) into `out`, its pooled `(C_out, Ho/2,
/// Wo/2)` map. Register tiles cover whole pooling windows — `IR_P` output
/// channels × two output rows × two runs — so a tile finishes what it
/// computes: the reduction of [`conv2d_rows_t`] (the same chain per
/// element), [`BnRelu`]'s per-element arithmetic on the accumulators in
/// their registers, each window's comparisons in `MaxPool2d`'s order, and
/// one store of [`RUN`] pooled outputs per channel. Neither pre-bias rows
/// nor the unpooled map are written anywhere. Bit for bit
/// [`conv2d_rows_t`] followed by the two-pass write-back; for the
/// geometries of [`DirectConv::pools_in_tile`] only.
///
/// # Panics
/// Panics — in release builds too — if `direct` does not pool in tiles,
/// `weight`, `epilogue` or `out` disagree with it, or `planes` is shorter
/// than `b + 1` samples require.
pub fn conv2d_pooled_t(
    planes: &[f32],
    b: usize,
    weight: &[f32],
    direct: &DirectConv,
    epilogue: &BnRelu<'_>,
    out: &mut [f32],
) {
    conv_pooled_direct::<false>(planes, b, weight, direct, epilogue, out);
}

/// [`conv2d_pooled_t`] through the portable tile body whatever the build
/// enables, so that a host which compiles the AVX2 body tests both.
#[doc(hidden)]
pub fn conv2d_pooled_t_portable(
    planes: &[f32],
    b: usize,
    weight: &[f32],
    direct: &DirectConv,
    epilogue: &BnRelu<'_>,
    out: &mut [f32],
) {
    conv_pooled_direct::<true>(planes, b, weight, direct, epilogue, out);
}

/// Column-sweep layout: for each patch-column index `(ci, ky, kx)` the
/// valid output positions along a row form one contiguous source span,
/// so the inner loop is a branch-free contiguous read / strided write.
fn im2col_columns(xdata: &[f32], dims: [usize; 4], spec: &ConvSpec, cols: &mut Vec<f32>) {
    let [n, c, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let cols_w = spec.patch_len();
    cols.resize(n * ho * wo * cols_w, 0.0);
    // Zero a strided patch-column range [ox_a, ox_b).
    let zero_range = |cols: &mut [f32], base: usize, ox_a: usize, ox_b: usize| {
        if ox_a < ox_b {
            for o in cols[base + ox_a * cols_w..].iter_mut().step_by(cols_w).take(ox_b - ox_a) {
                *o = 0.0;
            }
        }
    };
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * s) as isize - p as isize;
            let row0 = (b * ho + oy) * wo * cols_w;
            for ci in 0..c {
                let ch_base = (b * c + ci) * h * w;
                let cc_base = ci * k * k;
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        // Whole kernel row is padding for this oy.
                        for kx in 0..k {
                            zero_range(cols, row0 + cc_base + ky * k + kx, 0, wo);
                        }
                        continue;
                    }
                    let src = &xdata[ch_base + iy as usize * w..ch_base + (iy as usize + 1) * w];
                    for kx in 0..k {
                        // Source column ix = ox·s + off; valid while 0 ≤ ix < w.
                        let off = kx as isize - p as isize;
                        let base = row0 + cc_base + ky * k + kx;
                        let ox_lo = if off >= 0 { 0 } else { ((-off) as usize).div_ceil(s) };
                        let max_ix = w as isize - 1 - off;
                        if ox_lo >= wo || max_ix < (ox_lo * s) as isize {
                            zero_range(cols, base, 0, wo);
                            continue;
                        }
                        let ox_hi = (max_ix as usize / s + 1).min(wo);
                        zero_range(cols, base, 0, ox_lo);
                        zero_range(cols, base, ox_hi, wo);
                        let ix_lo = (ox_lo * s + kx) - p;
                        let dst = cols[base + ox_lo * cols_w..].iter_mut().step_by(cols_w);
                        if s == 1 {
                            for (o, &v) in dst.zip(&src[ix_lo..ix_lo + (ox_hi - ox_lo)]) {
                                *o = v;
                            }
                        } else {
                            let srcs = src[ix_lo..].iter().step_by(s);
                            for (o, &v) in dst.take(ox_hi - ox_lo).zip(srcs) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Interior patch copy with a compile-time kernel size so the `K`-wide
/// row copies lower to straight-line moves instead of `memcpy` calls.
#[inline]
#[allow(clippy::too_many_arguments)] // hot-loop geometry scalars, not state
fn patch_interior<const K: usize>(
    x: &[f32],
    dst: &mut [f32],
    c: usize,
    hw: usize,
    bc: usize,
    iy0: usize,
    ix0: usize,
    w: usize,
) {
    for ci in 0..c {
        let sbase = (bc + ci) * hw + iy0 * w + ix0;
        let drow = &mut dst[ci * K * K..(ci + 1) * K * K];
        let srows = x[sbase..sbase + (K - 1) * w + K].chunks(w);
        for (d, s) in drow.chunks_exact_mut(K).zip(srows) {
            d.copy_from_slice(&s[..K]);
        }
    }
}

/// Patch-major layout for wide patches: each patch's destination row is
/// contiguous; interior patches take the branch-free const-k fast path,
/// boundary patches clip per kernel row and zero the clipped positions.
fn im2col_patches(xdata: &[f32], dims: [usize; 4], spec: &ConvSpec, cols: &mut Vec<f32>) {
    let [n, c, h, w] = dims;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let cols_w = spec.patch_len();
    cols.resize(n * ho * wo * cols_w, 0.0);
    let hw = h * w;
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * s) as isize - p as isize;
            let interior_y = iy0 >= 0 && iy0 + k as isize <= h as isize;
            for ox in 0..wo {
                let ix0 = (ox * s) as isize - p as isize;
                let row = ((b * ho + oy) * wo + ox) * cols_w;
                let dst = &mut cols[row..row + cols_w];
                if interior_y && ix0 >= 0 && ix0 + k as isize <= w as isize {
                    let (iy0, ix0) = (iy0 as usize, ix0 as usize);
                    match k {
                        3 => patch_interior::<3>(xdata, dst, c, hw, b * c, iy0, ix0, w),
                        5 => patch_interior::<5>(xdata, dst, c, hw, b * c, iy0, ix0, w),
                        _ => {
                            for ci in 0..c {
                                let ch = (b * c + ci) * hw;
                                let cb = ci * k * k;
                                for ky in 0..k {
                                    let s0 = ch + (iy0 + ky) * w + ix0;
                                    dst[cb + ky * k..cb + ky * k + k]
                                        .copy_from_slice(&xdata[s0..s0 + k]);
                                }
                            }
                        }
                    }
                    continue;
                }
                // Boundary patch: clip per kernel row, zero what's clipped.
                let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                for ci in 0..c {
                    let ch = (b * c + ci) * hw;
                    let cb = ci * k * k;
                    for ky in 0..k {
                        let d0 = cb + ky * k;
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            dst[d0..d0 + k].fill(0.0);
                            continue;
                        }
                        let srow = ch + iy as usize * w;
                        for v in &mut dst[d0..d0 + kx_lo] {
                            *v = 0.0;
                        }
                        for v in &mut dst[d0 + kx_hi..d0 + k] {
                            *v = 0.0;
                        }
                        if kx_lo < kx_hi {
                            let s0 = (srow as isize + ix0 + kx_lo as isize) as usize;
                            dst[d0 + kx_lo..d0 + kx_hi]
                                .copy_from_slice(&xdata[s0..s0 + (kx_hi - kx_lo)]);
                        }
                    }
                }
            }
        }
    }
}

/// Scatters column-matrix gradients back to NCHW input layout (inverse of
/// [`im2col`], accumulating where patches overlap).
pub(crate) fn col2im(cols_grad: &[f32], spec: &ConvSpec, in_shape: [usize; 4]) -> Tensor {
    let [n, c, h, w] = in_shape;
    let (ho, wo) = spec.out_size(h, w);
    let k = spec.kernel;
    let cols_w = spec.patch_len();
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dxd = dx.data_mut();
    for b in 0..n {
        for oy in 0..ho {
            let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
            for ox in 0..wo {
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                let row = ((b * ho + oy) * wo + ox) * cols_w;
                for ci in 0..c {
                    let ch_base = (b * c + ci) * h * w;
                    let col_base = row + ci * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = ch_base + iy as usize * w;
                        let src_row = col_base + ky * k;
                        let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                        let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                        for kx in kx_lo..kx_hi {
                            dxd[dst_row + (ix0 + kx as isize) as usize] += cols_grad[src_row + kx];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Rearranges GEMM row layout `(N·Ho·Wo, C_out)` into NCHW, adding bias.
pub(crate) fn rows_to_nchw(
    rows: &[f32],
    bias: &[f32],
    n: usize,
    co: usize,
    ho: usize,
    wo: usize,
) -> Tensor {
    let mut y = Tensor::zeros(&[n, co, ho, wo]);
    let yd = y.data_mut();
    for b in 0..n {
        for oy in 0..ho {
            for ox in 0..wo {
                let r = ((b * ho + oy) * wo + ox) * co;
                for c in 0..co {
                    yd[((b * co + c) * ho + oy) * wo + ox] = rows[r + c] + bias[c];
                }
            }
        }
    }
    y
}

/// Rearranges an NCHW gradient into GEMM row layout `(N·Ho·Wo, C_out)`.
pub(crate) fn nchw_to_rows(
    grad_out: &Tensor,
    n: usize,
    co: usize,
    ho: usize,
    wo: usize,
) -> Vec<f32> {
    let mut rows = vec![0.0f32; n * ho * wo * co];
    let od = grad_out.data();
    for b in 0..n {
        for c in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    rows[((b * ho + oy) * wo + ox) * co + c] =
                        od[((b * co + c) * ho + oy) * wo + ox];
                }
            }
        }
    }
    rows
}

/// The `[N, C, H, W]` dimensions of a 4-D tensor.
pub(crate) fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    debug_assert_eq!(s.len(), 4, "expected NCHW tensor");
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn conv_spec_geometry() {
        let spec = ConvSpec { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, padding: 1 };
        assert_eq!(spec.out_size(8, 8), (4, 4));
        assert_eq!(spec.patch_len(), 27);
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), g> == <x, col2im(g)>: the two lowerings must be
        // adjoint linear maps for conv backward to be the true gradient.
        let mut rng = Rng::new(5);
        let spec = ConvSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 2, padding: 1 };
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let mut cols = Vec::new();
        im2col(&x, &spec, &mut cols);
        let g: Vec<f32> = (0..cols.len()).map(|i| ((i * 37) % 11) as f32 - 5.0).collect();
        let gx = col2im(&g, &spec, [2, 2, 5, 5]);
        let lhs: f64 = cols.iter().zip(&g).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = x.data().iter().zip(gx.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
