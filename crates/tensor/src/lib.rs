//! Minimal CPU tensor and neural-network substrate.
//!
//! The EcoFusion paper builds its stems, branches, and gates out of PyTorch
//! `Conv2d`/`Linear`/attention layers trained with SGD. The Rust DNN
//! ecosystem is thin (reproduction band 2/5), so this crate provides the
//! smallest substrate that supports the paper end-to-end, implemented from
//! scratch:
//!
//! * [`Tensor`] — dense `f32` tensor in NCHW layout with the linear-algebra
//!   kernels the layers need (matmul, im2col, reductions).
//! * [`layer`] — neural-network layers with hand-written backpropagation:
//!   [`Conv2d`], [`Linear`], [`ReLU`], [`MaxPool2d`], [`BatchNorm2d`],
//!   [`SelfAttention2d`], and the [`Sequential`] container.
//! * [`loss`] — smooth L1 (from Faster R-CNN), the loss the learned gates
//!   regress the fusion losses with.
//! * [`optim`] — [`optim::Sgd`] (momentum + weight decay) and
//!   [`optim::Adam`].
//! * [`rng`] — seeded RNG with Box–Muller normal sampling so every
//!   experiment is reproducible.
//! * [`graph`] — the fused-operator graph compiler: lowers a trained
//!   [`Sequential`] (or int8 [`QuantPipe`]) into a [`CompiledPlan`] of
//!   fused steps that execute bit-identically to the eager eval path with
//!   zero steady-state allocations.
//!
//! Gradients of every layer are validated against finite differences in the
//! test suite (see `tests` in each module and `proptest` suites).
//!
//! # Example
//!
//! ```
//! use ecofusion_tensor::{layer::{Layer, Linear, ReLU, Sequential}, loss,
//!                        optim::{Optimizer, Sgd}, rng::Rng, Tensor};
//!
//! let mut rng = Rng::new(7);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 16, &mut rng)),
//!     Box::new(ReLU::new()),
//!     Box::new(Linear::new(16, 3, &mut rng)),
//! ]);
//! let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
//! let target = Tensor::randn(&[8, 3], 1.0, &mut rng);
//! let mut opt = Sgd::new(0.1, 0.9, 0.0);
//! for _ in 0..50 {
//!     let y = net.forward(&x, true);
//!     let (l, grad) = loss::smooth_l1(&y, &target, 1.0);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net);
//!     let _ = l;
//! }
//! ```

pub mod backend;
pub mod graph;
pub mod init;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod param;
pub mod quant;
pub mod rng;
pub mod serialize;
pub mod tensor;

pub use backend::Backend;
pub use graph::{
    CompileError, CompiledPlan, PlanBuilder, PlanCache, PlanCacheStats, PlanKey, PlanPrecision,
};
pub use layer::{
    BatchNorm2d, Conv2d, Layer, Linear, MaxPool2d, ReLU, SelfAttention2d, Sequential, Sigmoid,
};
pub use param::Param;
pub use quant::{QuantConv2d, QuantPipe, QuantStage, QuantizeError};
pub use rng::Rng;
pub use tensor::Tensor;
