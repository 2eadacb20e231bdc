//! Fused-operator graph compiler for the inference path.
//!
//! A one-time lowering pass walks a [`Sequential`] stack (or a
//! [`QuantPipe`]) and emits a [`CompiledPlan`] of fused steps:
//!
//! * `Conv2d → BatchNorm2d → ReLU → MaxPool2d` collapses to **one**
//!   direct convolution whose write-back epilogue applies the bias, the
//!   batch-norm eval affine and the ReLU clamp per element, and pools the
//!   values on their way out — no intermediate tensors, pooled or not.
//!   Where whole `2×2` windows fit a register tile (every stem), the
//!   tile does all of it on its accumulators and stores the pooled row
//!   only.
//! * `Linear → ReLU` fuses the same way (bias + clamp in the GEMM
//!   write-back); the weight is transposed for the GEMM once, here.
//! * `MaxPool2d` is a step of its own only where no convolution comes
//!   before it; `Flatten` is pure shape bookkeeping (no copy).
//! * `SelfAttention2d` becomes one per-sample step: the layer's own six
//!   GEMMs, scale, row softmax and residual, on arena slices instead of
//!   nine tensors per sample.
//! * Quantized convolutions get a fused dequant + folded-BN + ReLU
//!   (+ pooling) epilogue applied directly to the i32 accumulators, with
//!   none of the stage-boundary tensors [`QuantPipe::forward`]
//!   materializes.
//!
//! # Lowering
//!
//! Every convolution step is a **direct convolution**: no column matrix
//! is built. Its input lies in zero-padded planes — for stride `s > 1`
//! de-interleaved into the `s²` row/column-parity sub-planes of each
//! plane, all padded to one common extent — in which every kernel tap of
//! every output position is a *fixed offset* from the position's base
//! ([`DirectConv`]; the offset table is built here, when the plan is
//! compiled, and held in the step). A register tile of `IR_T` output
//! channels × two **runs** — a run is up to [`RUN`] consecutive positions
//! of one output row — reads its operands straight from those planes with
//! one vector load per tap and run, and lands its results channel-major,
//! so the epilogue streams one contiguous run per (sample, channel). One
//! rule covers every geometry (same-size, strided, `1×1`, kernels wider
//! than the image); a row end shorter than a run is computed full width
//! and stored partially, so the learned gates' 4- and 2-wide planes run
//! in vector lanes too.
//!
//! **Who writes the planes.** The compiler knows every step's reader when
//! the plan is finished, so each activation is written once, in the
//! layout its reader wants (`Loc`):
//!
//! * A convolution that feeds a convolution never writes an NCHW map: its
//!   epilogue stores each (sample, channel) plane of values through the
//!   *reader's* addressing ([`DirectConv::store_plane`], the one function
//!   that knows where a cell of the planes lives), after one fill that
//!   zeroes the reader's pads for the tile. An int8 reader gets them
//!   requantized in the same pass — `quantize_value` of the very f32 the
//!   epilogue computes, at the reader's activation scale, four output
//!   channels into one channel quad — so nothing is carried in f32
//!   between two int8 convolutions, and nothing copied.
//! * A convolution followed by max pooling pools before it stores, and
//!   the pooled rows are plain; no unpooled map is written anywhere.
//!   **A stem's block finishes in its register tiles**
//!   (`Step::pooled_tile`): behind a batch-norm affine and ReLU, with a
//!   `2×2` pool over a stride-1 geometry whose `Ho` is even and `Wo` a
//!   multiple of `2·RUN`, a tile is `IR_P` channels × **two output rows**
//!   × two runs — whole windows — and applies the per-element arithmetic
//!   to its accumulators where they are, compares each window in
//!   `MaxPool2d`'s order, de-interleaves and stores [`RUN`] pooled outputs
//!   per channel ([`conv2d_pooled_t`], [`conv_pooled_t_i8`]). Such a step
//!   writes neither rows nor `acc`: a stem's 8 192 values a sample are
//!   never in memory, only its 2 048 pooled ones, once. The choice is
//!   made here, from the step's geometry, when the plan is finished. Any
//!   other pooling convolution takes the write-back's generic two passes
//!   over one (sample, channel) run at a time while it is in L1: the
//!   per-element arithmetic in place of the accumulators it is made from
//!   (an i32 one holds the f32's bits), then each window's comparisons.
//! * **The last step stores each sample where the caller wants it**
//!   ([`CompiledPlan::execute_indexed_to`]: a destination per sample, in
//!   any order; one tensor of rows — [`CompiledPlan::execute_into`],
//!   [`CompiledPlan::execute_indexed_into`] — is the case of one
//!   destination behind the other). A convolution's tiles or epilogue
//!   store there directly; a last step that is no convolution writes its
//!   tile in one piece (a GEMM does), and the executor hands the rows
//!   out.
//! * [`DirectConv::lower`] — a fill, then `store_plane` with the identity
//!   over every source plane — runs only where no convolution wrote the
//!   input: for a plan's **first** step, which reads the caller's input
//!   where it lies ([`CompiledPlan::execute_indexed_into`]: one sample may
//!   be several channel blocks in different places, and
//!   [`CompiledPlan::execute_into`] is the case of one), and behind a
//!   pooling convolution or the attention step, whose plain output lies
//!   in `ping` / `pong`. An int8 convolution quantizes such an input
//!   straight into its channel quads ([`quantize_planes`]).
//! * A first step that is no convolution gets the caller's blocks copied
//!   into one piece first (`stage_input`).
//!
//! So along `conv → conv` chains — a branch's three blocks and its `1×1`
//! head, the last two convolutions of a learned gate — `ping` and `pong`
//! carry nothing. The planes hold `C·s²·Hp·Wp` cells per sample where the
//! column matrix of old held `C·k²·Ho·Wo`: for a 3×3 same-size
//! convolution over an 8×8 plane, 100 cells per channel instead of 576.
//!
//! An f32 step's cells are `f32`s and its tile is one fused multiply-add
//! per tap, channel and lane (`vfmadd231ps` where the build has AVX2 and
//! FMA, lane arrays and `mul_add` elsewhere — the same bits). Measured
//! on the reference host at `target-cpu=native` (`BENCH_17.json`,
//! `kernel`): the tiles of the branch's same-size 3×3 convolutions run
//! at 48 GMAC/s and those of the strided ones at 41 (this host's 256-bit
//! FMA peak is 52). Whole plans — first-step lowering, tiles, epilogues,
//! pooling, attention — run at batch 64 at ≈ 34 GMAC/s for a one-sensor
//! branch, 16 for a stem and 13 for the attention gate (`BENCH_22.json`,
//! `criterion`; a plan handed one contiguous tensor gains little from
//! any of the above — what it saves is what stood around the plans: the
//! gathers into such tensors).
//!
//! An int8 step's cells are **channel quads** — `[u8; 4]`, channels `4c …
//! 4c + 3` of one position as `q + 128`, byte `0x80` being q = 0 (a pad
//! cell, a last quad's missing channels) — in the same planes, multiplied
//! by weight quads packed with each output channel's correction `−128·Σw`
//! when the plan is compiled ([`PackedConvWeights`]), so that one step of
//! the reduction is a 4-way `u8×i8→i32` dot (`vpdpbusd` with VNNI, two
//! `vpmaddwd` with AVX2 alone); see [`crate::quant`]'s "Kernel structure".
//! The serialized int8 image keeps its row-major `i8` weights; quads are a
//! property of the plan.
//!
//! # Tiles
//!
//! A plan is compiled for a **per-sample** shape and runs any batch: the
//! leading extent of the shape handed to the compiler is ignored, and
//! [`CompiledPlan::execute_into`] accepts every input whose trailing
//! dimensions match. Execution is cache-blocked over the batch: the plan
//! takes `T` samples at a time through *all* of its steps before it
//! touches the next `T`, so the padded planes an epilogue writes are
//! still cache-resident when the next convolution's register tiles read
//! them, and their rows when its epilogue does. `T` is fixed at compile
//! time from the plan's own step shapes as the largest count whose padded
//! planes + rows / i32 accumulators + ping/pong intermediates (plus the
//! attention scratch, which does not scale with `T`) fit `TILE_BYTES`
//! (256 KiB, beside the register-tile constants in [`crate::backend`]) —
//! at least one sample. For the canonical model that is fifty-six samples
//! for a stem, f32 or int8 (one padded plane each — its tiles pool, so it
//! holds neither rows nor accumulators), twelve for a one-sensor f32
//! branch (five with all four sensors), twenty-three for its int8 twin
//! and four for the learned gates. The arena holds exactly those buffers, for at most one tile —
//! it grows to the largest tile a plan has actually run, so its size is
//! O(tile), not O(batch), and a plan that only serves batch 1 keeps one
//! sample's worth. Nothing in it survives from one tile to the next, and
//! every cell a step reads was written by the step before it or zeroed
//! by whoever wrote the planes around it, so no buffer is cleared between
//! tiles — debug builds, and so every test, fill the whole arena with NaN
//! before each tile to hold that to account.
//!
//! Results cannot depend on how a batch is cut into tiles: every output
//! element is one accumulation chain over its own sample's patch
//! (ascending-k `mul_add` from zero in f32, exact i32 sums in int8), the
//! epilogues, pooling and attention are per element or per sample, and
//! writing planes is data movement (and per-element rounding) — no step
//! reads across samples (what a short run's spare lanes read is dropped, never
//! stored). A batch of `N` therefore equals the concatenation of `N`
//! batch-1 runs bit for bit (property-tested in
//! `crates/tensor/tests/prop_tiles.rs`).
//!
//! # Bit-identity contract
//!
//! A plan is the only inference executor; the layer-by-layer ("eager")
//! eval forwards — `Layer::forward(_, false)` on the f32 stacks,
//! [`QuantPipe::forward`] on the int8 ones — run training and serve the
//! tests as oracles. Compiled execution is **bit-identical** to them, on
//! both f32 and int8:
//!
//! * f32: the plan obtains pre-bias rows from
//!   [`conv2d_rows_t`] — the reduction of the eager `Conv2d` forward's
//!   im2col + GEMM chain (ascending `(ci, ky, kx)`, one fused
//!   multiply-add per step, from zero, pad zeros multiplied), laid out
//!   channel-major so the epilogue streams contiguously —
//!   and the epilogue applies, per element and in order, exactly the
//!   eager arithmetic: `v = rows + bias`, then the [`BatchNorm2d`] eval
//!   fast path `γ·((v − mean)·inv_std) + β` with
//!   `inv_std = 1/√(var + ε)` (never refolded into a scale/shift — f32
//!   is not associative), then `v.max(0.0)`.
//! * int8: integer accumulation is exact, and the epilogue mirrors the
//!   eager per-element order `v = acc·(s_x·s_w[c]) + bias[c]`, then
//!   `v·scale[c] + shift[c]`, then `v.max(0.0)`; where it requantizes,
//!   it rounds that `v` with the quantizer the next stage of the eager
//!   pipe applies to it.
//! * pooling: `v > best` from −∞ over the window's values, row by row
//!   and left to right, as `MaxPool2d` — which zero of two signs and
//!   which of several NaN-free maxima wins depends on that order. The
//!   pooled tiles keep it (`vmaxps(v, best)` is that comparison) and the
//!   unfolded per-element arithmetic, on both of their bodies.
//! * attention: the same GEMM entry points on the same operands in the
//!   same order as [`SelfAttention2d`]'s forward, and the shared
//!   row-softmax routine.
//!
//! The golden traces and the committed bench baselines were recorded
//! through the eager forwards and hold unchanged under plans.
//!
//! # Memory
//!
//! The arena stops growing once a plan has run a full tile (or its
//! largest batch, if smaller), so steady-state
//! [`CompiledPlan::execute_into`] performs **zero heap allocations** at
//! any batch size — tested with a counting allocator in
//! `crates/core/tests/prop_compiled.rs`. Plans are memoized in a
//! [`PlanCache`] keyed by (stack fingerprint, per-sample input shape,
//! precision) and invalidated on weight mutation, mirroring the
//! quantization image's invalidation discipline.

use crate::backend::{
    conv2d_pooled_t, conv2d_rows_t, Backend, Blocked, BnRelu, DirectConv, RUN, TILE_BYTES,
};
use crate::layer::{BatchNorm2d, Conv2d, Linear, SelfAttention2d, Sequential};
use crate::quant::{
    conv_pooled_t_i8, conv_rows_t_i8, quantize_planes, quantize_value, store_quad,
    DequantAffineRelu, PackedConvWeights, QuantConv2d, QuantPipe, QuantStage, QUAD_ZERO,
};
use crate::tensor::{softmax_rows_in_place, Tensor};
use serde::Serialize;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// Batch-norm eval parameters captured at compile time. `inv_std` is the
/// eager fast path's `1/√(var + ε)` hoisted out of the frame loop — the
/// same f32 value the eager layer recomputes every forward, so the fused
/// epilogue stays bit-identical.
#[derive(Debug, Clone)]
struct BnFold {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl BnFold {
    fn capture(bn: &BatchNorm2d) -> BnFold {
        let var = bn.running_var();
        let eps = bn.eps();
        BnFold {
            mean: bn.running_mean().to_vec(),
            inv_std: var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect(),
            gamma: bn.gamma().to_vec(),
            beta: bn.beta().to_vec(),
        }
    }
}

/// One fused operation. Weights are snapshotted at compile time (like the
/// quantization image), so a plan never touches layer state — shard
/// replicas cannot share or regrow per-layer scratch through a plan.
#[derive(Debug, Clone)]
enum Op {
    /// `Conv2d` with optional folded `BatchNorm2d`, ReLU and max pooling
    /// (stride = kernel) in the write-back epilogue. `direct` is the
    /// step's geometry and the offset table of its direct convolution,
    /// built here once.
    ConvF32 {
        weight: Tensor,
        bias: Vec<f32>,
        direct: DirectConv,
        bn: Option<BnFold>,
        relu: bool,
        pool: Option<usize>,
    },
    /// Int8 convolution with dequant + folded-BN affine + ReLU (+ max
    /// pooling) fused into the i32-accumulator write-back. The weights
    /// are quad-packed for the kernel, with their corrections, and
    /// `deq[c] = act_scale · w_scale[c]` precomputed, all at compile time.
    ConvI8 {
        weights: PackedConvWeights,
        /// The addressing of the same convolution over channel quads.
        direct: DirectConv,
        deq: Vec<f32>,
        bias: Vec<f32>,
        act_scale: f32,
        affine: Option<(Vec<f32>, Vec<f32>)>,
        relu: bool,
        pool: Option<usize>,
    },
    /// `Linear` with bias (+ optional ReLU) in the GEMM write-back.
    /// `weight_t` is the layer's `(out, in)` weight transposed to
    /// `(in, out)` once, here — the operand `gemm_nt` would re-pack for
    /// every tile.
    LinearF32 { weight_t: Tensor, bias: Vec<f32>, relu: bool },
    /// Max pooling, stride = kernel (the eval fast path of `MaxPool2d`),
    /// where no convolution comes before it to pool in its epilogue.
    MaxPool { kernel: usize },
    /// Residual single-head self-attention over the spatial positions,
    /// one sample at a time. `proj` is `[Wq, Wk, Wv, Wo]`, each `(C, C)`.
    SelfAttention { proj: [Tensor; 4] },
    /// Shape bookkeeping only — executes as a no-op on the flat arena.
    Flatten,
}

impl Op {
    fn is_conv(&self) -> bool {
        matches!(self, Op::ConvF32 { .. } | Op::ConvI8 { .. })
    }

    /// Whether the epilogue can store rows through a consuming
    /// convolution's addressing: a convolution that does not pool.
    fn feeds_planes(&self) -> bool {
        matches!(self, Op::ConvF32 { pool: None, .. } | Op::ConvI8 { pool: None, .. })
    }

    /// Whether the step's register tiles cover whole pooling windows and
    /// finish them ([`conv2d_pooled_t`], [`conv_pooled_t_i8`]): a
    /// convolution with the batch-norm affine, ReLU and a `2×2` pool in
    /// its epilogue — a stem's block — over a geometry that puts the
    /// windows in tiles ([`DirectConv::pools_in_tile`]). All of it is
    /// fixed once the layers are pushed, so `finish` asks once.
    fn pools_in_tile(&self) -> bool {
        match self {
            Op::ConvF32 { direct, bn: Some(_), relu: true, pool: Some(2), .. }
            | Op::ConvI8 { direct, affine: Some(_), relu: true, pool: Some(2), .. } => {
                direct.pools_in_tile()
            }
            _ => false,
        }
    }
}

/// Where a step finds or leaves one tile of activations. Resolved for
/// every step when the plan is finished, from the step on either side of
/// it, so each activation is written once, in the layout its reader
/// wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The caller's input blocks, or the caller's per-sample
    /// destinations.
    Caller,
    /// Plain `(T, …)` rows in one of the two intermediate buffers.
    Ping,
    /// See [`Loc::Ping`].
    Pong,
    /// The padded planes of convolution step `.0`: written by the
    /// epilogue of the convolution before it, read by its register tiles.
    Planes(usize),
}

/// One plan step: a fused op plus its compile-time-resolved per-sample
/// shapes (no batch axis), their element counts, where it reads and
/// writes, and whether it pools in its register tiles
/// ([`Op::pools_in_tile`]).
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
    in_numel: usize,
    out_numel: usize,
    src: Loc,
    dst: Loc,
    pooled_tile: bool,
}

/// The lowering buffers of one plan, never cleared: each step overwrites
/// the prefix it uses.
#[derive(Debug, Clone, Default)]
struct Lowering {
    /// Padded, phase-split f32 input planes of one convolution
    /// ([`DirectConv`]), plus one run of slack.
    planes: Vec<f32>,
    /// Pre-bias convolution rows `(C_out, T·Ho·Wo)`.
    rows: Vec<f32>,
    /// The same planes of an int8 convolution, channel quads.
    planes_i8: Vec<[u8; 4]>,
    /// i32 accumulators of an int8 convolution, laid out like `rows`.
    acc: Vec<i32>,
    /// Self-attention scratch of one sample: tokens, Q, K, V, context
    /// and projection `(T, C)` each, plus the `(T, T)` score matrix.
    attn: Vec<f32>,
}

/// Per-sample element counts of a plan's tiled buffers (`planes_i8` holds
/// 4-byte channel quads, the rest 4-byte elements) and the per-plan
/// attention scratch — what the tile rule divides the budget by.
#[derive(Debug, Clone, Copy, Default)]
struct ArenaSpec {
    ping: usize,
    pong: usize,
    planes: usize,
    rows: usize,
    planes_i8: usize,
    acc: usize,
    attn: usize,
}

/// The scratch arena of one plan: ping-pong intermediate activations of
/// one tile plus the lowering buffers.
#[derive(Debug, Clone, Default)]
struct PlanArena {
    ping: Vec<f32>,
    pong: Vec<f32>,
    low: Lowering,
    /// Samples the buffers currently hold (at most the plan's tile).
    samples: usize,
}

impl PlanArena {
    /// Grows the buffers to hold a tile of `samples`; a no-op once they
    /// do, so a plan that only ever serves batch 1 keeps a one-sample
    /// arena and any plan stops allocating after its largest tile.
    fn reserve(&mut self, spec: &ArenaSpec, samples: usize) {
        if samples <= self.samples {
            return;
        }
        // One run of slack behind the planes (`DirectConv::scratch_len`)
        // of a plan that has any.
        let planes = |cells: usize| if cells == 0 { 0 } else { samples * cells + RUN };
        self.ping.resize(samples * spec.ping, 0.0);
        self.pong.resize(samples * spec.pong, 0.0);
        self.low.planes.resize(planes(spec.planes), 0.0);
        self.low.rows.resize(samples * spec.rows, 0.0);
        self.low.planes_i8.resize(planes(spec.planes_i8), QUAD_ZERO);
        self.low.acc.resize(samples * spec.acc, 0);
        self.low.attn.resize(spec.attn, 0.0);
        self.samples = samples;
    }

    /// The buffer rule made executable (debug builds, so every test):
    /// nothing in the arena survives from one tile to the next, so
    /// before each tile every buffer is filled with what no step writes —
    /// NaN, and for the integer buffers values outside the quantizer's
    /// range (a quad of `0x00` bytes is q = −128). A step that read a pad
    /// cell its writer did not zero, or a row the step before did not
    /// write, would carry it into the output.
    #[cfg(debug_assertions)]
    fn poison(&mut self) {
        for buf in [&mut self.ping, &mut self.pong, &mut self.low.planes, &mut self.low.rows] {
            buf.fill(f32::NAN);
        }
        self.low.attn.fill(f32::NAN);
        self.low.planes_i8.fill([0; 4]);
        self.low.acc.fill(i32::MIN);
    }
}

/// A compiled, fused execution plan for one stack × per-sample input
/// shape × precision. Owns weight snapshots and a tile-sized arena; see
/// the module docs for the fusion rules, the tile rule and the
/// bit-identity contract.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    steps: Vec<Step>,
    arena: PlanArena,
    spec: ArenaSpec,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
    /// Samples taken through all steps at a time.
    tile: usize,
    /// Whether the first step that moves data is no convolution: it needs
    /// its tile in one piece, so the caller's blocks are copied into
    /// `pong` first. (A convolution lowers them into its planes itself.)
    stage_input: bool,
}

impl CompiledPlan {
    /// The per-sample input shape the plan was compiled for (no batch
    /// axis).
    pub fn sample_shape(&self) -> &[usize] {
        &self.in_shape
    }

    /// The output shape for a batch of `n` samples.
    pub fn out_shape_for(&self, n: usize) -> Vec<usize> {
        let mut shape = Vec::with_capacity(1 + self.out_shape.len());
        shape.push(n);
        shape.extend_from_slice(&self.out_shape);
        shape
    }

    /// Sizes `out` as the plan's output for `n` samples, in place: what
    /// [`CompiledPlan::out_shape_for`] names, without building the shape.
    pub fn resize_output(&self, n: usize, out: &mut Tensor) {
        out.resize_batch(n, &self.out_shape);
    }

    /// Fused steps in the plan (diagnostics).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Multiply-accumulates one sample costs across the plan's GEMMs
    /// (convolutions, linears, attention) — the operation count a
    /// throughput figure divides by.
    pub fn macs_per_sample(&self) -> usize {
        let conv = |direct: &DirectConv, patch: usize| {
            let [ho, wo] = direct.out_hw();
            direct.spec().out_channels * ho * wo * patch
        };
        self.steps
            .iter()
            .map(|step| match &step.op {
                Op::ConvF32 { direct, .. } => conv(direct, direct.spec().patch_len()),
                Op::ConvI8 { weights, direct, .. } => conv(direct, weights.spec().patch_len()),
                Op::LinearF32 { .. } => step.in_numel * step.out_numel,
                Op::SelfAttention { .. } => {
                    let c = step.in_shape[0];
                    let t = step.in_numel / c;
                    4 * t * c * c + 2 * t * t * c
                }
                Op::MaxPool { .. } | Op::Flatten => 0,
            })
            .sum()
    }

    /// Samples the plan takes through all of its steps at a time (the
    /// module docs give the rule).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Runs the plan over a batch of any size, allocating only the
    /// output tensor. An empty batch yields an empty output.
    ///
    /// # Panics
    /// Panics if the trailing dimensions of `x` do not match the
    /// compiled per-sample shape.
    pub fn execute(&mut self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&self.out_shape_for(x.shape()[0]));
        self.execute_into(x, &mut out);
        out
    }

    /// Runs the plan into a caller-owned output tensor: the steady-state
    /// zero-allocation path at any batch size (no heap allocation once
    /// per-thread GEMM pack buffers are warm). The one-block-per-sample
    /// case of [`CompiledPlan::execute_indexed_into`].
    ///
    /// # Panics
    /// Panics if the trailing dimensions of `x` or `out` do not match
    /// the compiled per-sample shapes, or their batch extents differ.
    pub fn execute_into(&mut self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(
            &x.shape()[1..],
            &self.in_shape[..],
            "plan compiled for a different input shape"
        );
        let (n, data) = (x.shape()[0], x.data());
        let per = data.len() / n.max(1);
        self.run(n, 1, &|b| &data[b * per..(b + 1) * per], &mut self.rows_of(out, n));
    }

    /// Runs the plan over `n` samples that lie scattered: sample `b` is
    /// the channel-wise concatenation of `block(b·per_sample + j)` for `j`
    /// in `0..per_sample`, each a whole number of its channels. The first
    /// step reads the blocks where they are — a convolution lowers (or
    /// quantizes) them straight into its planes — so a caller that holds
    /// the parts of its input in different places concatenates nothing,
    /// and one that can say where each block lies needs no list of them.
    /// The one-tensor-of-rows case of [`CompiledPlan::execute_indexed_to`].
    ///
    /// # Panics
    /// Panics if a sample's blocks do not add up to the compiled
    /// per-sample shape, or `out` is not the plan's output for `n`
    /// samples.
    pub fn execute_indexed_into<'a>(
        &mut self,
        n: usize,
        per_sample: usize,
        block: &dyn Fn(usize) -> &'a [f32],
        out: &mut Tensor,
    ) {
        self.execute_indexed_to(n, per_sample, block, self.rows_of(out, n));
    }

    /// [`CompiledPlan::execute_indexed_into`] with a destination per
    /// sample: `rows` yields, in sample order, where each sample's output
    /// — the elements of the plan's per-sample output shape — is to be
    /// stored. The last step stores every sample straight there, so a
    /// caller that keeps its rows in different places copies nothing
    /// either.
    ///
    /// # Panics
    /// As [`CompiledPlan::execute_indexed_into`], or if `rows` is not one
    /// destination of the plan's per-sample output size for each sample.
    pub fn execute_indexed_to<'a, 'o>(
        &mut self,
        n: usize,
        per_sample: usize,
        block: &dyn Fn(usize) -> &'a [f32],
        rows: impl IntoIterator<Item = &'o mut [f32]>,
    ) {
        assert!(per_sample > 0, "a sample is at least one block");
        self.run(n, per_sample, block, &mut rows.into_iter());
    }

    /// The rows of `out`, the plan's output for `n` samples, as
    /// per-sample destinations.
    fn rows_of<'o>(&self, out: &'o mut Tensor, n: usize) -> std::slice::ChunksExactMut<'o, f32> {
        assert_eq!(&out.shape()[1..], &self.out_shape[..], "plan output shape mismatch");
        assert_eq!(out.shape()[0], n, "plan output batch mismatch");
        out.data_mut().chunks_exact_mut(self.out_shape.iter().product::<usize>().max(1))
    }

    /// The executor: `n` samples, sample `b` made of blocks `b·per_sample
    /// ..` of `block` and stored to the `b`-th destination `out` yields,
    /// one tile through every step before the next tile starts.
    fn run<'a, 'o>(
        &mut self,
        n: usize,
        per_sample: usize,
        block: &dyn Fn(usize) -> &'a [f32],
        out: &mut dyn Iterator<Item = &'o mut [f32]>,
    ) {
        let in_numel: usize = self.in_shape.iter().product();
        for b in 0..n {
            let len: usize = (0..per_sample).map(|j| block(b * per_sample + j).len()).sum();
            assert_eq!(len, in_numel, "plan compiled for a different input shape");
        }
        let out_numel: usize = self.out_shape.iter().product();
        let out = &mut out.inspect(|row| {
            assert_eq!(row.len(), out_numel, "plan output shape mismatch");
        });
        // `steps` and `arena` are disjoint fields, so the plan can read
        // its program while mutating its scratch.
        let steps = &self.steps;
        let last = steps.iter().rfind(|step| !matches!(step.op, Op::Flatten));
        let Some(last) = last else {
            // Shape-only plan (empty or all-Flatten): copy through.
            for b in 0..n {
                let mut row = next_row(out);
                for i in b * per_sample..(b + 1) * per_sample {
                    let (head, rest) = row.split_at_mut(block(i).len());
                    head.copy_from_slice(block(i));
                    row = rest;
                }
            }
            assert!(out.next().is_none(), "plan output batch mismatch");
            return;
        };
        self.arena.reserve(&self.spec, self.tile.min(n));
        let mut t0 = 0;
        while t0 < n {
            let tn = self.tile.min(n - t0);
            #[cfg(debug_assertions)]
            self.arena.poison();
            let PlanArena { ping, pong, low, .. } = &mut self.arena;
            let caller = |b: usize, j: usize| block((t0 + b) * per_sample + j);
            if self.stage_input {
                let mut staged = &mut pong[..tn * in_numel];
                for i in t0 * per_sample..(t0 + tn) * per_sample {
                    let (head, rest) = staged.split_at_mut(block(i).len());
                    head.copy_from_slice(block(i));
                    staged = rest;
                }
            }
            for step in steps.iter().filter(|step| !matches!(step.op, Op::Flatten)) {
                let (src, dst) = match (step.src, step.dst) {
                    (Loc::Ping, Loc::Pong) => (Some(&ping[..]), Some(&mut pong[..])),
                    (Loc::Pong, Loc::Ping) => (Some(&pong[..]), Some(&mut ping[..])),
                    (Loc::Ping, _) => (Some(&ping[..]), None),
                    (Loc::Pong, _) => (Some(&pong[..]), None),
                    (_, Loc::Ping) => (None, Some(&mut ping[..])),
                    (_, Loc::Pong) => (None, Some(&mut pong[..])),
                    _ => (None, None),
                };
                let input = match (step.src, src) {
                    (Loc::Planes(_), _) => Input::Planes,
                    (_, Some(src)) => Input::Plain(&src[..tn * step.in_numel]),
                    (_, None) => Input::Caller(&caller, per_sample),
                };
                let output = match (step.dst, dst) {
                    (Loc::Planes(reader), _) => Output::Planes(&steps[reader].op),
                    (_, Some(dst)) => {
                        Output::Rows(Rows::Whole(&mut dst[..tn * step.out_numel], step.out_numel))
                    }
                    (_, None) => Output::Rows(Rows::Caller(&mut *out)),
                };
                run_step(step, tn, input, output, low);
            }
            // A last step that is no convolution left its tile in one
            // piece: hand it out.
            let tail = match last.dst {
                Loc::Ping => &ping[..tn * out_numel],
                Loc::Pong => &pong[..tn * out_numel],
                Loc::Caller | Loc::Planes(_) => &[],
            };
            for row in tail.chunks_exact(out_numel.max(1)) {
                next_row(out).copy_from_slice(row);
            }
            t0 += tn;
        }
        assert!(out.next().is_none(), "plan output batch mismatch");
    }
}

/// What one step reads.
enum Input<'s, 'a> {
    /// The caller's blocks: `(sample of the tile, block of the sample)`
    /// and the blocks per sample. Convolutions only — any other first
    /// step has them staged (`CompiledPlan::stage_input`).
    Caller(&'s dyn Fn(usize, usize) -> &'a [f32], usize),
    /// `(T, …)` rows in ping or pong.
    Plain(&'s [f32]),
    /// The step's own planes, written by the epilogue before it.
    Planes,
}

/// Where plain rows go: one destination per sample, taken in sample
/// order. The rows of one buffer are the case of one destination behind
/// the other.
enum Rows<'s, 'o> {
    /// `(T, …)` in ping or pong: what is left of it, and a sample's share.
    Whole(&'s mut [f32], usize),
    /// The caller's destinations.
    Caller(&'s mut dyn Iterator<Item = &'o mut [f32]>),
}

impl Rows<'_, '_> {
    /// The next sample's destination.
    fn next(&mut self) -> &mut [f32] {
        match self {
            Rows::Whole(rest, per) => {
                let (row, tail) = std::mem::take(rest).split_at_mut(*per);
                *rest = tail;
                row
            }
            Rows::Caller(rows) => next_row(rows),
        }
    }
}

/// The next of the caller's destinations.
fn next_row<'o>(rows: &mut dyn Iterator<Item = &'o mut [f32]>) -> &'o mut [f32] {
    rows.next().expect("plan output batch mismatch: a destination per sample")
}

/// What one step writes.
enum Output<'s, 'o> {
    /// Plain rows: ping, pong, or — a convolution that is the plan's last
    /// step — the caller's destinations.
    Rows(Rows<'s, 'o>),
    /// The planes of the convolution that reads next.
    Planes(&'s Op),
}

/// Where a convolution's epilogue stores its rows.
enum Sink<'a, 'o> {
    /// NCHW `(C_out, Ho, Wo)` a sample.
    Plain(Rows<'a, 'o>),
    /// The planes of the f32 convolution that reads next.
    F32(&'a DirectConv, &'a mut [f32]),
    /// The planes of the int8 convolution that reads next and `1 /` its
    /// activation scale: the epilogue requantizes.
    I8(&'a DirectConv, f32, &'a mut [[u8; 4]]),
}

impl<'a, 'o> Sink<'a, 'o> {
    fn new(
        output: Output<'a, 'o>,
        planes: &'a mut [f32],
        planes_i8: &'a mut [[u8; 4]],
    ) -> Sink<'a, 'o> {
        match output {
            Output::Rows(rows) => Sink::Plain(rows),
            Output::Planes(Op::ConvF32 { direct, .. }) => Sink::F32(direct, planes),
            Output::Planes(Op::ConvI8 { direct, act_scale, .. }) => {
                Sink::I8(direct, 1.0 / act_scale, planes_i8)
            }
            Output::Planes(_) => unreachable!("`finish` hands planes to a convolution"),
        }
    }
}

/// An accumulator that can hold, in its own place, the f32 value the
/// epilogue makes of it (an `i32` by its bit pattern).
trait Held: Copy {
    fn hold(v: f32) -> Self;
    fn held(self) -> f32;
}

impl Held for f32 {
    fn hold(v: f32) -> f32 {
        v
    }
    fn held(self) -> f32 {
        self
    }
}

impl Held for i32 {
    fn hold(v: f32) -> i32 {
        v.to_bits() as i32
    }
    fn held(self) -> f32 {
        f32::from_bits(self as u32)
    }
}

/// The write-back of a convolution: `value(c)` of every accumulator of
/// output channel `c` — the epilogue's per-element arithmetic, its
/// channel constants captured — streamed from the channel-major `acc`
/// (`(C_out, n·Ho·Wo)`, one contiguous run per (sample, channel)) to
/// wherever the next step reads it, once:
///
/// * plain NCHW rows, each (sample, channel) run into its plane of the
///   sample's destination;
/// * the same, max-pooled `pool × pool` on the way: a run's values are
///   held in place of its accumulators, then each window's are compared
///   in `MaxPool2d`'s order (`v > best`, row by row, from −∞) — the
///   unpooled map is written nowhere else. (Any pool and any geometry;
///   the stems' `2×2` over whole tiles never gets here — their register
///   tiles pool, `Step::pooled_tile`);
/// * the planes of the convolution that reads next, each (sample,
///   channel) run through its [`DirectConv::store_plane`] — an int8
///   reader's four output channels at a time, `quantize_value` of each
///   f32 value at the reader's scale into its channel quad.
fn write_back<A: Held, F: Fn(A) -> f32>(
    acc: &mut [A],
    [n, co, ho, wo]: [usize; 4],
    pool: Option<usize>,
    value: impl Fn(usize) -> F,
    sink: Sink<'_, '_>,
) {
    let plane = ho * wo;
    // Where the run of (sample, channel) starts.
    let at = |b: usize, c: usize| c * n * plane + b * plane;
    let run = |b: usize, c: usize| &acc[at(b, c)..][..plane];
    match (sink, pool) {
        (Sink::Plain(mut rows), None) => {
            for b in 0..n {
                for (c, out) in rows.next().chunks_exact_mut(plane).enumerate() {
                    let f = value(c);
                    for (o, &a) in out.iter_mut().zip(run(b, c)) {
                        *o = f(a);
                    }
                }
            }
        }
        (Sink::Plain(mut rows), Some(k)) => {
            let (hp, wp) = (ho / k, wo / k);
            for b in 0..n {
                for (c, out) in rows.next().chunks_exact_mut(hp * wp).enumerate() {
                    // Two passes over one (sample, channel) run, which
                    // stays in L1: its values, held in place of the
                    // accumulators they are made of — one flat loop, as
                    // the unpooled write-back is — then each window's
                    // comparisons.
                    let (f, run) = (value(c), &mut acc[at(b, c)..][..plane]);
                    for a in run.iter_mut() {
                        *a = A::hold(f(*a));
                    }
                    for (out_row, rows) in out.chunks_exact_mut(wp).zip(run.chunks_exact(k * wo)) {
                        for (ox, o) in out_row.iter_mut().enumerate() {
                            let mut best = f32::NEG_INFINITY;
                            for row in rows.chunks_exact(wo) {
                                for v in &row[ox * k..][..k] {
                                    if v.held() > best {
                                        best = v.held();
                                    }
                                }
                            }
                            *o = best;
                        }
                    }
                }
            }
        }
        (Sink::F32(reader, cells), None) => {
            reader.clear(cells, n, 0.0);
            for p in 0..n * co {
                let f = value(p % co);
                reader.store_plane(cells, p, [run(p / co, p % co)], |_, _, a| f(a));
            }
        }
        (Sink::I8(reader, inv, cells), None) => {
            reader.clear(cells, n, QUAD_ZERO);
            let quads = co.div_ceil(4);
            for p in 0..n * quads {
                let (b, c) = (p / quads, 4 * (p % quads));
                let channel = |k: usize| (c + k).min(co - 1);
                let f: [F; 4] = std::array::from_fn(|k| value(channel(k)));
                let src: [&[A]; 4] = std::array::from_fn(|k| run(b, channel(k)));
                let q = |k: usize, a: A| quantize_value(f[k](a), inv);
                store_quad(reader, cells, p, &src[..(co - c).min(4)], q);
            }
        }
        (Sink::F32(..) | Sink::I8(..), Some(_)) => {
            unreachable!("a pooling convolution writes plain rows")
        }
    }
}

/// Executes one fused step over `n` samples using the plan's lowering
/// buffers: from `input` to `output`.
fn run_step<'s>(
    step: &Step,
    n: usize,
    input: Input<'s, '_>,
    output: Output<'s, '_>,
    low: &'s mut Lowering,
) {
    let Lowering { planes, rows, planes_i8, acc, attn } = low;
    /// What every step but a convolution reads and writes.
    fn plain<'s>(input: Input<'s, '_>, output: Output<'s, '_>) -> (&'s [f32], &'s mut [f32]) {
        match (input, output) {
            (Input::Plain(src), Output::Rows(Rows::Whole(dst, _))) => (src, dst),
            _ => unreachable!(
                "`finish` stages what a first step that is no convolution reads, and has a last \
                 one write ping or pong"
            ),
        }
    }
    /// Where a pooling convolution's rows go.
    fn pooled<'s, 'o>(output: Output<'s, 'o>) -> Rows<'s, 'o> {
        match output {
            Output::Rows(rows) => rows,
            Output::Planes(_) => unreachable!("a pooling convolution writes plain rows"),
        }
    }
    match &step.op {
        Op::ConvF32 { weight, bias, direct, bn, relu, pool } => {
            let ([ho, wo], channels) = (direct.out_hw(), direct.spec().in_channels);
            let co = direct.spec().out_channels;
            match input {
                Input::Planes => {}
                Input::Plain(src) => direct.lower(src, n, 0.0, planes),
                Input::Caller(block, per_sample) => {
                    direct.clear(planes, n, 0.0);
                    let [h, w] = direct.in_hw();
                    for b in 0..n {
                        let mut p = b * channels;
                        for block in (0..per_sample).map(|j| block(b, j)) {
                            direct.store_planes(planes, p, block);
                            p += block.len() / (h * w);
                        }
                    }
                }
            }
            if let (true, Some(f)) = (step.pooled_tile, bn) {
                // The register tiles finish the windows they cover: no
                // rows, and each sample straight to its destination.
                let (BnFold { mean, inv_std, gamma, beta }, mut dsts) = (f, pooled(output));
                let epilogue = BnRelu { bias, mean, inv_std, gamma, beta };
                for b in 0..n {
                    conv2d_pooled_t(planes, b, weight.data(), direct, &epilogue, dsts.next());
                }
                return;
            }
            let rows = &mut rows[..co * n * ho * wo];
            conv2d_rows_t(planes, n, weight.data(), direct, rows);
            // Fused write-back: bias, batch-norm eval affine, ReLU — the
            // exact eager per-element arithmetic, in the eager order.
            let (dims, sink) = ([n, co, ho, wo], Sink::new(output, planes, planes_i8));
            match (bn, relu) {
                (Some(f), true) => {
                    let value = |c: usize| {
                        let (g, mu, is, bt) = (f.gamma[c], f.mean[c], f.inv_std[c], f.beta[c]);
                        let bias_c = bias[c];
                        move |r: f32| (g * (((r + bias_c) - mu) * is) + bt).max(0.0)
                    };
                    write_back(rows, dims, *pool, value, sink);
                }
                (Some(f), false) => {
                    let value = |c: usize| {
                        let (g, mu, is, bt) = (f.gamma[c], f.mean[c], f.inv_std[c], f.beta[c]);
                        let bias_c = bias[c];
                        move |r: f32| g * (((r + bias_c) - mu) * is) + bt
                    };
                    write_back(rows, dims, *pool, value, sink);
                }
                (None, true) => {
                    let value = |c: usize| {
                        let bias_c = bias[c];
                        move |r: f32| (r + bias_c).max(0.0)
                    };
                    write_back(rows, dims, *pool, value, sink);
                }
                (None, false) => {
                    let value = |c: usize| {
                        let bias_c = bias[c];
                        move |r: f32| r + bias_c
                    };
                    write_back(rows, dims, *pool, value, sink);
                }
            }
        }
        Op::ConvI8 { weights, direct, deq, bias, act_scale, affine, relu, pool } => {
            let ([h, w], [ho, wo]) = (direct.in_hw(), direct.out_hw());
            let (co, quads) = (weights.spec().out_channels, direct.spec().in_channels);
            match input {
                Input::Planes => {}
                Input::Plain(src) => {
                    direct.clear(planes_i8, n, QUAD_ZERO);
                    for (b, sample) in src.chunks_exact(step.in_numel).enumerate() {
                        let channels = sample.chunks_exact(h * w);
                        quantize_planes(direct, planes_i8, b * quads, channels, *act_scale);
                    }
                }
                Input::Caller(block, per_sample) => {
                    direct.clear(planes_i8, n, QUAD_ZERO);
                    for b in 0..n {
                        let channels = (0..per_sample).flat_map(|j| {
                            let block = block(b, j);
                            assert!(block.len().is_multiple_of(h * w), "not whole {h}x{w} planes");
                            block.chunks_exact(h * w)
                        });
                        quantize_planes(direct, planes_i8, b * quads, channels, *act_scale);
                    }
                }
            }
            if let (true, Some((scale, shift))) = (step.pooled_tile, affine) {
                let (epilogue, mut dsts) =
                    (DequantAffineRelu { deq, bias, scale, shift }, pooled(output));
                for b in 0..n {
                    conv_pooled_t_i8(planes_i8, b, weights, direct, &epilogue, dsts.next());
                }
                return;
            }
            // i32 accumulation is exact, so the summation order is
            // immaterial and the accumulators land channel-major — one
            // contiguous run per (sample, channel) for the write-back.
            let acc = &mut acc[..co * n * ho * wo];
            conv_rows_t_i8(planes_i8, n, weights, direct, acc);
            // Fused dequant + folded-BN affine + ReLU straight off the
            // i32 accumulators — the eager pipe's per-element op order
            // (Conv dequant+bias, Affine, ReLU) without the two
            // intermediate tensors.
            let (dims, sink) = ([n, co, ho, wo], Sink::new(output, planes, planes_i8));
            match (affine, relu) {
                (Some((s, t)), true) => {
                    let value = |c: usize| {
                        let (dq, bias_c, sc, sh) = (deq[c], bias[c], s[c], t[c]);
                        move |a: i32| ((a as f32 * dq + bias_c) * sc + sh).max(0.0)
                    };
                    write_back(acc, dims, *pool, value, sink);
                }
                (Some((s, t)), false) => {
                    let value = |c: usize| {
                        let (dq, bias_c, sc, sh) = (deq[c], bias[c], s[c], t[c]);
                        move |a: i32| (a as f32 * dq + bias_c) * sc + sh
                    };
                    write_back(acc, dims, *pool, value, sink);
                }
                (None, true) => {
                    let value = |c: usize| {
                        let (dq, bias_c) = (deq[c], bias[c]);
                        move |a: i32| (a as f32 * dq + bias_c).max(0.0)
                    };
                    write_back(acc, dims, *pool, value, sink);
                }
                (None, false) => {
                    let value = |c: usize| {
                        let (dq, bias_c) = (deq[c], bias[c]);
                        move |a: i32| a as f32 * dq + bias_c
                    };
                    write_back(acc, dims, *pool, value, sink);
                }
            }
        }
        Op::LinearF32 { weight_t, bias, relu } => {
            let (src, dst) = plain(input, output);
            let (in_f, out_f) = (step.in_numel, step.out_numel);
            // GEMM methods write into a caller-zeroed buffer.
            dst.fill(0.0);
            Blocked.gemm(n, in_f, out_f, src, weight_t.data(), dst);
            for row in dst.chunks_exact_mut(out_f) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            if *relu {
                for v in dst.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        Op::MaxPool { kernel } => {
            let (src, dst) = plain(input, output);
            let [c, h, w] = [step.in_shape[0], step.in_shape[1], step.in_shape[2]];
            let k = *kernel;
            let (ho, wo) = (h / k, w / k);
            // The eval fast path of `MaxPool2d::forward`, on arena slices.
            for plane in 0..n * c {
                let base = plane * h * w;
                for oy in 0..ho {
                    let out_row = &mut dst[(plane * ho + oy) * wo..(plane * ho + oy + 1) * wo];
                    for (ox, out) in out_row.iter_mut().enumerate() {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..k {
                            let row = base + (oy * k + ky) * w + ox * k;
                            for &v in &src[row..row + k] {
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        *out = best;
                    }
                }
            }
        }
        Op::SelfAttention { proj } => {
            let (src, dst) = plain(input, output);
            let c = step.in_shape[0];
            let t = step.in_shape[1] * step.in_shape[2];
            let [wq, wk, wv, wo] = proj;
            let scale = 1.0 / (c as f32).sqrt();
            // `SelfAttention2d::forward` per sample, tensor for tensor:
            // the same GEMM entry points on the same operands, every
            // GEMM into a zeroed buffer as `Tensor::matmul*` allocates
            // one.
            let (xt, rest) = attn.split_at_mut(t * c);
            let (q, rest) = rest.split_at_mut(t * c);
            let (k, rest) = rest.split_at_mut(t * c);
            let (v, rest) = rest.split_at_mut(t * c);
            let (z, rest) = rest.split_at_mut(t * c);
            let (o, rest) = rest.split_at_mut(t * c);
            let s = &mut rest[..t * t];
            for b in 0..n {
                let x = &src[b * c * t..(b + 1) * c * t];
                for (ci, plane) in x.chunks_exact(t).enumerate() {
                    for (i, &val) in plane.iter().enumerate() {
                        xt[i * c + ci] = val;
                    }
                }
                for (w, y) in [(wq, &mut *q), (wk, &mut *k), (wv, &mut *v)] {
                    y.fill(0.0);
                    Blocked.gemm(t, c, c, xt, w.data(), y);
                }
                s.fill(0.0);
                Blocked.gemm_nt(t, c, t, q, k, s);
                for val in s.iter_mut() {
                    *val *= scale;
                }
                softmax_rows_in_place(s, t);
                z.fill(0.0);
                Blocked.gemm(t, t, c, s, v, z);
                o.fill(0.0);
                Blocked.gemm(t, c, c, z, wo.data(), o);
                let y = &mut dst[b * c * t..(b + 1) * c * t];
                for (ci, plane) in y.chunks_exact_mut(t).enumerate() {
                    for (i, out) in plane.iter_mut().enumerate() {
                        *out = xt[i * c + ci] + o[i * c + ci];
                    }
                }
            }
        }
        Op::Flatten => unreachable!("Flatten steps are skipped by the executor"),
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Why a stack could not be lowered to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The stack contains a layer/stage kind the compiler cannot fuse.
    Unsupported(&'static str),
    /// A layer's expected input does not match the tracked shape.
    ShapeMismatch {
        /// The layer that rejected its input.
        layer: &'static str,
        /// What the layer expects (channels or features).
        expected: usize,
        /// What the tracked shape provides.
        found: usize,
    },
    /// A quantized stage whose own fields disagree with its geometry (a
    /// skewed or hand-edited int8 image).
    Malformed {
        /// The stage kind.
        layer: &'static str,
        /// The field that does not fit.
        what: &'static str,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unsupported(name) => write!(f, "cannot compile layer `{name}`"),
            CompileError::ShapeMismatch { layer, expected, found } => {
                write!(f, "{layer} expects {expected} input channels/features, got {found}")
            }
            CompileError::Malformed { layer, what } => write!(f, "{layer} has a malformed {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Incrementally lowers layer stacks into a [`CompiledPlan`]. Callers
/// compose heterogeneous stacks (e.g. a branch backbone followed by its
/// detection-head convolution) before [`PlanBuilder::finish`] derives
/// the tile and sizes the arena.
#[derive(Debug)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    in_shape: Vec<usize>,
    /// Per-sample shape the next pushed layer will receive.
    cur_shape: Vec<usize>,
}

impl PlanBuilder {
    /// Starts a plan for inputs shaped like `in_shape` — a full batched
    /// shape such as `(N, C, H, W)`, of which only the trailing
    /// per-sample dimensions are kept: plans are batch-agnostic.
    pub fn new(in_shape: &[usize]) -> PlanBuilder {
        let sample = in_shape.get(1..).unwrap_or_default().to_vec();
        PlanBuilder { steps: Vec::new(), in_shape: sample.clone(), cur_shape: sample }
    }

    fn push_step(&mut self, op: Op, out_shape: Vec<usize>) {
        let in_shape = std::mem::replace(&mut self.cur_shape, out_shape.clone());
        // `finish` says where the step reads and writes.
        self.steps.push(Step {
            op,
            in_numel: in_shape.iter().product(),
            out_numel: out_shape.iter().product(),
            in_shape,
            out_shape,
            src: Loc::Caller,
            dst: Loc::Caller,
            pooled_tile: false,
        });
    }

    /// The tracked shape as `(C, H, W)` if it feeds `channels` input
    /// channels.
    fn chw_for(&self, layer: &'static str, channels: usize) -> Result<[usize; 3], CompileError> {
        match self.cur_shape[..] {
            [c, h, w] if c == channels => Ok([c, h, w]),
            [c, _, _] => Err(CompileError::ShapeMismatch { layer, expected: channels, found: c }),
            _ => Err(CompileError::ShapeMismatch { layer, expected: channels, found: 0 }),
        }
    }

    /// Lowers a whole [`Sequential`] with peephole fusion: `Conv2d [→
    /// BatchNorm2d] [→ ReLU]` and `Linear [→ ReLU]` runs collapse into
    /// single fused steps; `MaxPool2d`, `SelfAttention2d` and `Flatten`
    /// become plan steps.
    ///
    /// # Errors
    /// [`CompileError::Unsupported`] on any other layer kind (including
    /// a ReLU that does not follow a conv/linear).
    pub fn push_sequential(&mut self, seq: &Sequential) -> Result<(), CompileError> {
        let layers = seq.layers();
        let mut i = 0;
        while i < layers.len() {
            let layer = &layers[i];
            if let Some(conv) = layer.as_conv2d() {
                let bn = layers.get(i + 1).and_then(|l| l.as_batchnorm());
                let next = i + 1 + usize::from(bn.is_some());
                let relu = layers.get(next).is_some_and(|l| l.name() == "ReLU");
                self.push_conv(conv, bn, relu)?;
                i = next + usize::from(relu);
            } else if let Some(linear) = layer.as_linear() {
                let relu = layers.get(i + 1).is_some_and(|l| l.name() == "ReLU");
                self.push_linear(linear, relu)?;
                i += 1 + usize::from(relu);
            } else if let Some(pool) = layer.as_maxpool() {
                self.push_maxpool(pool.kernel())?;
                i += 1;
            } else if let Some(attn) = layer.as_self_attention() {
                self.push_self_attention(attn)?;
                i += 1;
            } else if layer.name() == "Flatten" {
                self.push_flatten();
                i += 1;
            } else {
                return Err(CompileError::Unsupported(layer.name()));
            }
        }
        Ok(())
    }

    /// Pushes one fused `Conv2d [+ BatchNorm2d] [+ ReLU]` step,
    /// snapshotting the weights.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape does not
    /// feed the convolution; [`CompileError::Malformed`] if its geometry
    /// is not a convolution over that shape
    /// ([`ConvSpec::fits`](crate::backend::ConvSpec::fits)).
    pub fn push_conv(
        &mut self,
        conv: &Conv2d,
        bn: Option<&BatchNorm2d>,
        relu: bool,
    ) -> Result<(), CompileError> {
        let spec = conv.spec();
        let [_, h, w] = self.chw_for("Conv2d", spec.in_channels)?;
        if !spec.fits(h, w) {
            return Err(CompileError::Malformed { layer: "Conv2d", what: "geometry" });
        }
        let direct = DirectConv::new(&spec, h, w);
        let [ho, wo] = direct.out_hw();
        let op = Op::ConvF32 {
            weight: conv.weight().clone(),
            bias: conv.bias().data().to_vec(),
            direct,
            bn: bn.map(BnFold::capture),
            relu,
            pool: None,
        };
        self.push_step(op, vec![spec.out_channels, ho, wo]);
        Ok(())
    }

    /// Pushes one fused int8 convolution step with an optional folded-BN
    /// affine and ReLU in the dequant epilogue.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape does not
    /// feed the convolution; [`CompileError::Malformed`] if the stage's
    /// geometry is not a convolution over that shape
    /// ([`ConvSpec::fits`](crate::backend::ConvSpec::fits)) or pads by a
    /// whole kernel or more (taps that read nothing but zeros; the
    /// canonical quantizer never emits it),
    /// if its weight, scale, bias or affine lengths disagree with the
    /// geometry, or if its activation scale is not finite and positive —
    /// an image is outside input, and the kernel indexes by the geometry.
    pub fn push_quant_conv(
        &mut self,
        qc: &QuantConv2d,
        affine: Option<(Vec<f32>, Vec<f32>)>,
        relu: bool,
    ) -> Result<(), CompileError> {
        let spec = qc.spec;
        let [_, h, w] = self.chw_for("QuantConv2d", spec.in_channels)?;
        let co = spec.out_channels;
        // Geometry first, and the weight count in checked arithmetic:
        // everything after is sized by numbers these two have bounded.
        let weight_count = [co, spec.in_channels, spec.kernel, spec.kernel]
            .iter()
            .try_fold(1usize, |len, &d| len.checked_mul(d));
        let checks = [
            (spec.fits(h, w) && spec.padding < spec.kernel, "geometry"),
            (weight_count == Some(qc.weights.q.len()), "weight length"),
            (qc.weights.scales.len() == co, "weight scale length"),
            (qc.bias.len() == co, "bias length"),
            (affine.as_ref().is_none_or(|(s, t)| s.len() == co && t.len() == co), "affine length"),
            (qc.act_scale.is_finite() && qc.act_scale > 0.0, "activation scale"),
        ];
        if let Some(&(_, what)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(CompileError::Malformed { layer: "QuantConv2d", what });
        }
        let weights = PackedConvWeights::pack(&qc.weights.q, &spec);
        let direct = DirectConv::new(&weights.quad_spec(), h, w);
        let [ho, wo] = direct.out_hw();
        let deq: Vec<f32> = qc.weights.scales.iter().map(|s| qc.act_scale * s).collect();
        let op = Op::ConvI8 {
            weights,
            direct,
            deq,
            bias: qc.bias.clone(),
            act_scale: qc.act_scale,
            affine,
            relu,
            pool: None,
        };
        self.push_step(op, vec![spec.out_channels, ho, wo]);
        Ok(())
    }

    /// Lowers a whole [`QuantPipe`] with the same peephole fusion:
    /// `Conv [→ Affine] [→ ReLU]` runs collapse into single fused int8
    /// steps.
    ///
    /// # Errors
    /// [`CompileError::Unsupported`] on an `Affine`/`ReLU` stage that
    /// does not follow a convolution (the canonical quantizer never
    /// emits one).
    pub fn push_quant_pipe(&mut self, pipe: &QuantPipe) -> Result<(), CompileError> {
        let stages = &pipe.stages;
        let mut i = 0;
        while i < stages.len() {
            match &stages[i] {
                QuantStage::Conv(qc) => {
                    let affine = match stages.get(i + 1) {
                        Some(QuantStage::Affine(s, t)) => Some((s.clone(), t.clone())),
                        _ => None,
                    };
                    let next = i + 1 + usize::from(affine.is_some());
                    let relu = matches!(stages.get(next), Some(QuantStage::ReLU));
                    self.push_quant_conv(qc, affine, relu)?;
                    i = next + usize::from(relu);
                }
                QuantStage::MaxPool(k) => {
                    self.push_maxpool(*k)?;
                    i += 1;
                }
                QuantStage::Affine(..) => return Err(CompileError::Unsupported("Affine")),
                QuantStage::ReLU => return Err(CompileError::Unsupported("ReLU")),
            }
        }
        Ok(())
    }

    /// Pushes one fused `Linear [+ ReLU]` step.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked per-sample shape is
    /// not `(in_features)`.
    pub fn push_linear(&mut self, linear: &Linear, relu: bool) -> Result<(), CompileError> {
        if self.cur_shape[..] != [linear.in_features()] {
            return Err(CompileError::ShapeMismatch {
                layer: "Linear",
                expected: linear.in_features(),
                found: if self.cur_shape.len() == 1 { self.cur_shape[0] } else { 0 },
            });
        }
        let op = Op::LinearF32 {
            weight_t: linear.weight().transpose(),
            bias: linear.bias().data().to_vec(),
            relu,
        };
        self.push_step(op, vec![linear.out_features()]);
        Ok(())
    }

    /// Pushes max pooling (stride = kernel). Behind a convolution that
    /// does not pool yet it is no step of its own: the convolution's
    /// epilogue pools, and the unpooled map is never written.
    ///
    /// # Errors
    /// [`CompileError::Malformed`] on a kernel of 0;
    /// [`CompileError::ShapeMismatch`] if the tracked per-sample shape is
    /// not `(C, H, W)` at least as large as the kernel.
    pub fn push_maxpool(&mut self, kernel: usize) -> Result<(), CompileError> {
        if kernel == 0 {
            return Err(CompileError::Malformed { layer: "MaxPool2d", what: "geometry" });
        }
        let [c, h, w] = match self.cur_shape[..] {
            [c, h, w] if h >= kernel && w >= kernel => [c, h, w],
            _ => {
                return Err(CompileError::ShapeMismatch {
                    layer: "MaxPool2d",
                    expected: kernel,
                    found: if self.cur_shape.len() == 3 { self.cur_shape[1] } else { 0 },
                })
            }
        };
        let pooled = vec![c, h / kernel, w / kernel];
        match self.steps.last_mut() {
            Some(Step {
                op: Op::ConvF32 { pool: pool @ None, .. } | Op::ConvI8 { pool: pool @ None, .. },
                out_shape,
                out_numel,
                ..
            }) => {
                *pool = Some(kernel);
                *out_numel = pooled.iter().product();
                out_shape.clone_from(&pooled);
                self.cur_shape = pooled;
            }
            _ => self.push_step(Op::MaxPool { kernel }, pooled),
        }
        Ok(())
    }

    /// Pushes one residual self-attention step, snapshotting the four
    /// projection matrices.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape does not
    /// carry the layer's token width.
    pub fn push_self_attention(&mut self, attn: &SelfAttention2d) -> Result<(), CompileError> {
        let shape = self.chw_for("SelfAttention2d", attn.channels())?;
        self.push_step(
            Op::SelfAttention { proj: attn.projections().map(Tensor::clone) },
            shape.to_vec(),
        );
        Ok(())
    }

    /// Pushes a copy-free flatten step (per-sample `(…) → (F)` shape
    /// bookkeeping only).
    pub fn push_flatten(&mut self) {
        let f: usize = self.cur_shape.iter().product();
        self.push_step(Op::Flatten, vec![f]);
    }

    /// Finalizes the plan: decides where every step reads and writes,
    /// and derives the tile from the per-sample scratch the steps need
    /// (module docs). The arena itself grows on first use, to the tile or
    /// to the batch if that is smaller.
    pub fn finish(mut self) -> CompiledPlan {
        let compute: Vec<usize> =
            (0..self.steps.len()).filter(|&i| !matches!(self.steps[i].op, Op::Flatten)).collect();
        let mut spec = ArenaSpec::default();
        let stage_input = compute.first().is_some_and(|&first| !self.steps[first].op.is_conv());
        // A staged input lies in pong; the executor alternates, starting
        // with ping.
        let (mut src, mut in_ping) = (Loc::Caller, false);
        if stage_input {
            src = Loc::Pong;
            spec.pong = self.in_shape.iter().product();
        }
        for (k, &i) in compute.iter().enumerate() {
            let dst = match compute.get(k + 1) {
                // A last convolution stores each sample where the caller
                // wants it.
                None if self.steps[i].op.is_conv() => Loc::Caller,
                // A convolution's epilogue writes what a convolution
                // behind it reads: that one's planes.
                Some(&reader)
                    if self.steps[i].op.feeds_planes() && self.steps[reader].op.is_conv() =>
                {
                    Loc::Planes(reader)
                }
                // Plain rows in ping or pong: for the step behind, or —
                // a last step that is no convolution writes its tile in
                // one piece — for the executor to hand out.
                _ => {
                    in_ping = !in_ping;
                    let (loc, buf) = match in_ping {
                        true => (Loc::Ping, &mut spec.ping),
                        false => (Loc::Pong, &mut spec.pong),
                    };
                    *buf = (*buf).max(self.steps[i].out_numel);
                    loc
                }
            };
            let step = &mut self.steps[i];
            (step.src, step.dst, step.pooled_tile) = (src, dst, step.op.pools_in_tile());
            src = dst;
            // A pooled tile keeps its accumulators in registers: such a
            // step needs its planes and neither rows nor `acc`.
            let held = usize::from(!step.pooled_tile);
            match &step.op {
                Op::ConvF32 { direct, .. } => {
                    let [ho, wo] = direct.out_hw();
                    spec.planes = spec.planes.max(direct.sample_len());
                    spec.rows = spec.rows.max(held * direct.spec().out_channels * ho * wo);
                }
                Op::ConvI8 { weights, direct, .. } => {
                    let [ho, wo] = direct.out_hw();
                    spec.planes_i8 = spec.planes_i8.max(direct.sample_len());
                    spec.acc = spec.acc.max(held * weights.spec().out_channels * ho * wo);
                }
                Op::SelfAttention { .. } => {
                    let t = step.in_shape[1] * step.in_shape[2];
                    spec.attn = spec.attn.max(6 * step.in_numel + t * t);
                }
                Op::LinearF32 { .. } | Op::MaxPool { .. } | Op::Flatten => {}
            }
        }
        let f32s = std::mem::size_of::<f32>();
        let per_sample = f32s * (spec.ping + spec.pong + spec.planes + spec.rows + spec.acc)
            + std::mem::size_of::<[u8; 4]>() * spec.planes_i8;
        // A scratch-free plan (`per_sample` 0) gets the budget itself as
        // its tile: its buffers stay empty and any real batch is one pass.
        let tile = (TILE_BYTES.saturating_sub(f32s * spec.attn) / per_sample.max(1)).max(1);
        let out_shape =
            self.steps.last().map_or_else(|| self.in_shape.clone(), |s| s.out_shape.clone());
        CompiledPlan {
            steps: self.steps,
            arena: PlanArena::default(),
            spec,
            in_shape: self.in_shape,
            out_shape,
            tile,
            stage_input,
        }
    }
}

/// Compiles a whole [`Sequential`] for inputs shaped like `in_shape`
/// (batch extent ignored). Convenience for
/// [`PlanBuilder::push_sequential`] + [`PlanBuilder::finish`].
///
/// # Errors
/// Propagates the builder's [`CompileError`].
pub fn compile_sequential(
    seq: &Sequential,
    in_shape: &[usize],
) -> Result<CompiledPlan, CompileError> {
    let mut b = PlanBuilder::new(in_shape);
    b.push_sequential(seq)?;
    Ok(b.finish())
}

/// Compiles a whole [`QuantPipe`] for inputs shaped like `in_shape`
/// (batch extent ignored).
///
/// # Errors
/// Propagates the builder's [`CompileError`].
pub fn compile_quant_pipe(
    pipe: &QuantPipe,
    in_shape: &[usize],
) -> Result<CompiledPlan, CompileError> {
    let mut b = PlanBuilder::new(in_shape);
    b.push_quant_pipe(pipe)?;
    Ok(b.finish())
}

// ---------------------------------------------------------------------------
// Fingerprints and the plan cache
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tiny FNV-1a-64 accumulator for structural fingerprints.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Structural FNV-1a fingerprint of a [`Sequential`]: layer kinds and
/// geometry (not weights — invalidation on weight mutation is
/// event-driven, mirroring `ensure_quant`). `salt` distinguishes
/// same-architecture units (e.g. the four stems) in a shared cache.
pub fn fingerprint_sequential(seq: &Sequential, salt: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(salt);
    for layer in seq.layers() {
        if let Some(conv) = layer.as_conv2d() {
            let s = conv.spec();
            h.write_u64(1);
            for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
                h.write_usize(d);
            }
        } else if let Some(bn) = layer.as_batchnorm() {
            h.write_u64(2);
            h.write_usize(bn.gamma().len());
        } else if let Some(linear) = layer.as_linear() {
            h.write_u64(3);
            h.write_usize(linear.in_features());
            h.write_usize(linear.out_features());
        } else if let Some(pool) = layer.as_maxpool() {
            h.write_u64(4);
            h.write_usize(pool.kernel());
        } else {
            h.write_u64(5);
            h.write_usize(layer.name().len());
            for b in layer.name().bytes() {
                h.write_u64(b as u64);
            }
        }
    }
    h.0
}

/// Structural fingerprint of a [`QuantPipe`] (stage kinds + geometry).
pub fn fingerprint_quant_pipe(pipe: &QuantPipe, salt: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(salt);
    for stage in &pipe.stages {
        match stage {
            QuantStage::Conv(qc) => {
                let s = qc.spec;
                h.write_u64(11);
                for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
                    h.write_usize(d);
                }
            }
            QuantStage::Affine(scale, _) => {
                h.write_u64(12);
                h.write_usize(scale.len());
            }
            QuantStage::ReLU => h.write_u64(13),
            QuantStage::MaxPool(k) => {
                h.write_u64(14);
                h.write_usize(*k);
            }
        }
    }
    h.0
}

/// Numeric precision a plan was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanPrecision {
    /// Full f32 stack.
    F32,
    /// Int8 quantized convolutions.
    Int8,
}

/// Cache key: (structural fingerprint incl. caller salt, per-sample
/// input shape, precision). Plans run any batch, so the batch extent is
/// not part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint (salted per unit).
    pub fingerprint: u64,
    /// Per-sample input shape (no batch axis).
    pub shape: Vec<usize>,
    /// Precision axis.
    pub precision: PlanPrecision,
}

/// Cumulative [`PlanCache`] counters (reported per shard replica by the
/// runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PlanCacheStats {
    /// Lookups served by an existing plan.
    pub hits: u64,
    /// Lookups that found no plan.
    pub misses: u64,
    /// Plans built (== misses unless a build panicked).
    pub compiles: u64,
}

/// A cached plan and the per-sample input shape it was compiled for.
type ShapedPlan = (Vec<usize>, CompiledPlan);

/// Memoized compiled plans for one model replica.
///
/// Invalidation is event-driven and mirrors the int8 image
/// (`ensure_quant`): every mutable-weight access clears the cache, so a
/// stale plan can never serve after a weight mutation. Cloning a model
/// replica yields an **empty** cache (plans re-warm per replica) — shard
/// replicas never share or regrow each other's arenas.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Plans by `(fingerprint, precision)`, then by per-sample shape, so
    /// a lookup that hits builds no key.
    map: HashMap<(u64, PlanPrecision), Vec<ShapedPlan>>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cached plans currently resident.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative hit/miss/compile counters (survive [`PlanCache::clear`]).
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Drops every resident plan (weight mutation), keeping counters.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The plan for `key`, compiling (and memoizing) it on first use.
    pub fn get_or_compile(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> CompiledPlan,
    ) -> &mut CompiledPlan {
        self.try_get_or_compile(key, || Ok(build())).expect("infallible build")
    }

    /// Fallible variant of [`PlanCache::get_or_compile`]: a failed build
    /// counts as a miss (not a compile) and inserts nothing, so the next
    /// lookup re-attempts (and re-fails fast).
    ///
    /// # Errors
    /// Propagates the builder's [`CompileError`].
    pub fn try_get_or_compile(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> Result<CompiledPlan, CompileError>,
    ) -> Result<&mut CompiledPlan, CompileError> {
        let PlanKey { fingerprint, shape, precision } = &key;
        self.try_get_or_compile_by(*fingerprint, shape, *precision, build)
    }

    /// [`PlanCache::try_get_or_compile`] for the key `(fingerprint, shape,
    /// precision)`, borrowed: a hit builds no key (the key's shape is a
    /// `Vec`); a miss builds the one it stores.
    ///
    /// # Errors
    /// Propagates the builder's [`CompileError`].
    pub fn try_get_or_compile_by(
        &mut self,
        fingerprint: u64,
        shape: &[usize],
        precision: PlanPrecision,
        build: impl FnOnce() -> Result<CompiledPlan, CompileError>,
    ) -> Result<&mut CompiledPlan, CompileError> {
        let unit = (fingerprint, precision);
        let at = self.map.get(&unit).and_then(|plans| plans.iter().position(|(s, _)| s == shape));
        let plans = match at {
            Some(_) => {
                self.stats.hits += 1;
                self.map.get_mut(&unit).expect("plan just found")
            }
            None => {
                self.stats.misses += 1;
                let plan = build()?;
                self.stats.compiles += 1;
                let plans = self.map.entry(unit).or_default();
                plans.push((shape.to_vec(), plan));
                plans
            }
        };
        let at = at.unwrap_or(plans.len() - 1);
        Ok(&mut plans[at].1)
    }
}

impl Clone for PlanCache {
    /// Replica clones start cold: plans hold per-replica arenas, so
    /// sharing them across shard replicas is exactly the per-layer
    /// scratch aliasing the plan design removes.
    fn clone(&self) -> PlanCache {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Flatten, Layer, MaxPool2d, ReLU};
    use crate::quant::quantize_sequential;
    use crate::rng::Rng;

    fn conv_bn_relu_pool(rng: &mut Rng) -> Sequential {
        let mut seq = Sequential::new(vec![
            Box::new(Conv2d::new(2, 8, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
        ]);
        // Settle running stats so the BN eval affine is nontrivial.
        let warm = Tensor::randn(&[4, 2, 8, 8], 1.0, rng);
        for _ in 0..5 {
            let _ = seq.forward(&warm, true);
        }
        seq
    }

    /// The learned gates' trunk: strided convs, attention, flatten, linear.
    fn gate_like(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 2, 1, rng)),
            Box::new(ReLU::new()),
            Box::new(SelfAttention2d::new(4, rng)),
            Box::new(Conv2d::new(4, 2, 3, 2, 1, rng)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 2 * 2, 5, rng)),
        ])
    }

    fn assert_bits_eq(compiled: &Tensor, eager: &Tensor, what: &str) {
        assert_eq!(compiled.shape(), eager.shape(), "{what}");
        for (a, b) in compiled.data().iter().zip(eager.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
        }
    }

    #[test]
    fn compiled_conv_bn_relu_pool_is_bit_identical() {
        let mut rng = Rng::new(41);
        let mut seq = conv_bn_relu_pool(&mut rng);
        // One plan serves every batch size.
        let mut plan = compile_sequential(&seq, &[1, 2, 8, 8]).expect("compiles");
        assert_eq!(plan.num_steps(), 1, "Conv+BN+ReLU+MaxPool fuse into one step");
        for batch in [1usize, 3, 8] {
            let x = Tensor::randn(&[batch, 2, 8, 8], 1.0, &mut rng);
            let eager = seq.forward(&x, false);
            assert_bits_eq(&plan.execute(&x), &eager, &format!("batch {batch}"));
        }
    }

    #[test]
    fn compiled_stem_and_gate_stacks_are_bit_identical() {
        let mut rng = Rng::new(43);
        let mut stem = conv_bn_relu_pool(&mut rng);
        let mut gate = gate_like(&mut rng);
        let xs = Tensor::randn(&[2, 2, 9, 9], 1.0, &mut rng);
        let xg = Tensor::randn(&[3, 3, 8, 8], 1.0, &mut rng);
        for (seq, x, what) in [(&mut stem, &xs, "stem"), (&mut gate, &xg, "gate")] {
            let eager = seq.forward(x, false);
            let mut plan = compile_sequential(seq, x.shape()).expect("compiles");
            assert_bits_eq(&plan.execute(x), &eager, what);
        }
    }

    #[test]
    fn compiled_linear_relu_and_flatten_are_bit_identical() {
        let mut rng = Rng::new(44);
        let mut seq = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 4, 16, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(16, 3, &mut rng)),
        ]);
        let x = Tensor::randn(&[5, 2, 4, 4], 1.0, &mut rng);
        let eager = seq.forward(&x, false);
        let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
        assert_eq!(plan.num_steps(), 3, "Flatten + fused Linear/ReLU + Linear");
        assert_bits_eq(&plan.execute(&x), &eager, "linear stack");
    }

    #[test]
    fn compiled_quant_pipe_is_bit_identical() {
        let mut rng = Rng::new(45);
        let seq = conv_bn_relu_pool(&mut rng);
        let calib: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng)).collect();
        let (pipe, _) = quantize_sequential(&seq, &calib).expect("quantizes");
        let mut plan = compile_quant_pipe(&pipe, &[1, 2, 8, 8]).expect("compiles");
        assert_eq!(plan.num_steps(), 1, "Conv+Affine+ReLU+MaxPool fuse into one step");
        for batch in [1usize, 4] {
            let x = Tensor::randn(&[batch, 2, 8, 8], 1.0, &mut rng);
            assert_bits_eq(&plan.execute(&x), &pipe.forward(&x), &format!("batch {batch}"));
        }
    }

    #[test]
    fn tile_follows_the_scratch_the_steps_need() {
        let mut rng = Rng::new(46);
        let seq = conv_bn_relu_pool(&mut rng);
        let plan = compile_sequential(&seq, &[64, 2, 8, 8]).expect("compiles");
        // Per sample: two zero-padded 10×10 input planes and rows 8×64,
        // all f32 (the epilogue pools into the caller's output; the
        // unpooled map lies nowhere).
        let per_sample = 4 * (2 * 100 + 8 * 64);
        assert_eq!(plan.tile(), TILE_BYTES / per_sample);
        assert_eq!(plan.sample_shape(), &[2, 8, 8]);
        assert_eq!(plan.macs_per_sample(), 8 * 64 * 18);
        assert_eq!(plan.out_shape_for(5), vec![5, 8, 4, 4]);
        assert_eq!(plan.arena.samples, 0, "nothing is allocated before the first run");
    }

    #[test]
    fn arena_grows_to_one_tile_and_no_further() {
        let mut rng = Rng::new(46);
        let seq = conv_bn_relu_pool(&mut rng);
        let mut plan = compile_sequential(&seq, &[1, 2, 8, 8]).expect("compiles");
        let tile = plan.tile();
        let sizes = |p: &CompiledPlan| {
            let a = &p.arena;
            (a.low.planes.len(), a.low.rows.len(), a.ping.len(), a.pong.len())
        };
        // A batch-1 caller holds one sample's scratch, not a tile's.
        let one = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let first = plan.execute(&one);
        // (The padded planes carry one run of slack, whatever the tile.)
        assert_eq!(sizes(&plan), (2 * 100 + RUN, 8 * 64, 0, 0));
        // A batch beyond the tile grows the arena to the tile, once.
        let n = 2 * tile + 3;
        let x = Tensor::randn(&[n, 2, 8, 8], 1.0, &mut rng);
        let mut out = Tensor::zeros(&plan.out_shape_for(n));
        plan.execute_into(&x, &mut out);
        let (full, whole) = (sizes(&plan), out.clone());
        assert_eq!(full, (tile * 2 * 100 + RUN, tile * 8 * 64, 0, 0));
        for _ in 0..3 {
            plan.execute_into(&x, &mut out);
        }
        assert_eq!(out, whole, "steady-state executions must be identical");
        assert_eq!(plan.execute(&one), first);
        assert_eq!(sizes(&plan), full, "arena regrew mid-flight");
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let mut rng = Rng::new(52);
        for seq in [conv_bn_relu_pool(&mut rng), Sequential::new(vec![Box::new(Flatten::new())])] {
            let mut plan = compile_sequential(&seq, &[4, 2, 8, 8]).expect("compiles");
            let y = plan.execute(&Tensor::zeros(&[0, 2, 8, 8]));
            assert_eq!(y.shape(), &plan.out_shape_for(0)[..]);
            assert!(y.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "different input shape")]
    fn mismatched_sample_shape_panics() {
        let mut rng = Rng::new(53);
        let seq = conv_bn_relu_pool(&mut rng);
        let mut plan = compile_sequential(&seq, &[1, 2, 8, 8]).expect("compiles");
        let _ = plan.execute(&Tensor::zeros(&[1, 2, 8, 9]));
    }

    #[test]
    fn unsupported_layer_reports_its_name() {
        let seq = Sequential::new(vec![Box::new(crate::layer::Sigmoid::new())]);
        match compile_sequential(&seq, &[1, 4, 4, 4]) {
            Err(CompileError::Unsupported(name)) => assert_eq!(name, "Sigmoid"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = Rng::new(48);
        let seq = Sequential::new(vec![Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng))]);
        match compile_sequential(&seq, &[1, 2, 8, 8]) {
            Err(CompileError::ShapeMismatch { layer, expected, found }) => {
                assert_eq!((layer, expected, found), ("Conv2d", 3, 2));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        let attn = Sequential::new(vec![Box::new(SelfAttention2d::new(4, &mut rng))]);
        assert!(matches!(
            compile_sequential(&attn, &[1, 3, 4, 4]),
            Err(CompileError::ShapeMismatch { layer: "SelfAttention2d", expected: 4, found: 3 })
        ));
    }

    /// Geometry is checked before anything is sized by it: what is not
    /// a convolution (or a pool) over the tracked shape is a typed error
    /// at compile — these used to divide by zero or underflow in
    /// `ConvSpec::out_size`, or abort on an allocation, inside the first
    /// execute. A stride past the image *is* a convolution (one output
    /// position) and must compile and run on planes no larger than the
    /// image makes them.
    #[test]
    fn geometry_that_is_no_convolution_is_rejected() {
        use crate::quant::QuantConv2d;
        let mut rng = Rng::new(54);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let good = QuantConv2d::from_conv(&conv, 0.05);
        let shape = [1, 2, 8, 8];
        let skews: [fn(&mut crate::backend::ConvSpec); 7] = [
            |s| s.stride = 0,
            |s| s.kernel = 0,
            |s| s.kernel = 11,
            |s| s.kernel = 1 << 40,
            |s| s.padding = 3,
            |s| s.padding = 1 << 40,
            |s| s.padding = usize::MAX / 2 + 1,
        ];
        for (i, skew) in skews.into_iter().enumerate() {
            let mut qc = good.clone();
            skew(&mut qc.spec);
            let err = PlanBuilder::new(&shape).push_quant_conv(&qc, None, false).unwrap_err();
            let geometry = CompileError::Malformed { layer: "QuantConv2d", what: "geometry" };
            assert_eq!(err, geometry, "skew {i}: {:?}", qc.spec);
        }
        assert_eq!(
            PlanBuilder::new(&shape).push_maxpool(0),
            Err(CompileError::Malformed { layer: "MaxPool2d", what: "geometry" })
        );
        // An f32 kernel wider than the padded image.
        let wide = Sequential::new(vec![Box::new(Conv2d::new(2, 4, 5, 1, 0, &mut rng))]);
        assert_eq!(
            compile_sequential(&wide, &[1, 2, 4, 4]).unwrap_err(),
            CompileError::Malformed { layer: "Conv2d", what: "geometry" }
        );

        let mut far = good.clone();
        far.spec.stride = 1 << 40;
        let mut b = PlanBuilder::new(&shape);
        b.push_quant_conv(&far, None, false).expect("one output position");
        let mut plan = b.finish();
        assert!(plan.spec.planes_i8 <= 10 * 10 * 10 * 10, "planes sized by the stride");
        let x = Tensor::randn(&[3, 2, 8, 8], 1.0, &mut rng);
        assert_bits_eq(&plan.execute(&x), &far.forward(&x), "stride past the image");
    }

    #[test]
    fn plan_cache_counts_hits_misses_and_clears() {
        let mut rng = Rng::new(49);
        let seq = conv_bn_relu_pool(&mut rng);
        let mut cache = PlanCache::new();
        let key = PlanKey {
            fingerprint: fingerprint_sequential(&seq, 7),
            shape: vec![2, 8, 8],
            precision: PlanPrecision::F32,
        };
        let build = || compile_sequential(&seq, &[1, 2, 8, 8]).expect("compiles");
        let _ = cache.get_or_compile(key.clone(), build);
        let _ = cache.get_or_compile(key.clone(), build);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1, compiles: 1 });
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let _ = cache.get_or_compile(key, build);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2, compiles: 2 });
        // Replica clones start cold but keep nothing stale.
        assert!(cache.clone().is_empty());
    }

    #[test]
    fn fingerprints_separate_structure_and_salt() {
        let mut rng = Rng::new(50);
        let a = conv_bn_relu_pool(&mut rng);
        let b = Sequential::new(vec![Box::new(Conv2d::new(2, 8, 3, 1, 1, &mut rng))]);
        assert_ne!(fingerprint_sequential(&a, 0), fingerprint_sequential(&b, 0));
        assert_ne!(fingerprint_sequential(&a, 0), fingerprint_sequential(&a, 1));
        assert_eq!(fingerprint_sequential(&a, 3), fingerprint_sequential(&a, 3));
    }

    #[test]
    fn flatten_only_plan_copies_through() {
        let seq = Sequential::new(vec![Box::new(Flatten::new())]);
        let mut rng = Rng::new(51);
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, &mut rng);
        let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
        let y = plan.execute(&x);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(y.data(), x.data());
    }
}
