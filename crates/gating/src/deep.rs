//! Learned gates: Deep (§4.2.2) and Attention (§4.2.3).

use crate::input::GateInput;
use crate::{Gate, GateKind};
use ecofusion_tensor::graph::{self, CompiledPlan};
use ecofusion_tensor::layer::{Conv2d, Flatten, Layer, Linear, ReLU, SelfAttention2d, Sequential};
use ecofusion_tensor::loss;
use ecofusion_tensor::param::Param;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

/// Builds the 3-conv trunk shared by both learned gates.
///
/// `spatial` must be divisible by 8 (three stride-2 convolutions).
fn build_net(
    in_channels: usize,
    spatial: usize,
    num_configs: usize,
    with_attention: bool,
    rng: &mut Rng,
) -> Sequential {
    assert!(
        spatial.is_multiple_of(8) && spatial >= 8,
        "gate input spatial size must be a multiple of 8"
    );
    // No normalization layers: the gate must see absolute signal levels
    // (a fog frame is globally dimmer than a clear one), and batch-size-1
    // batch norm would erase exactly that context cue.
    let mut layers: Vec<Box<dyn Layer>> =
        vec![Box::new(Conv2d::new(in_channels, 16, 3, 2, 1, rng)), Box::new(ReLU::new())];
    if with_attention {
        // The attention gate adds one self-attention layer so the gate can
        // focus on informative regions of the feature map (§4.2.3).
        layers.push(Box::new(SelfAttention2d::new(16, rng)));
    }
    layers.extend([
        Box::new(Conv2d::new(16, 16, 3, 2, 1, rng)) as Box<dyn Layer>,
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(16, 8, 3, 2, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(8 * (spatial / 8) * (spatial / 8), num_configs, rng)),
    ]);
    Sequential::new(layers)
}

macro_rules! learned_gate {
    ($(#[$doc:meta])* $name:ident, $kind:expr, $attention:expr) => {
        $(#[$doc])*
        pub struct $name {
            net: Sequential,
            num_configs: usize,
            /// Per-sample shape `(C, h, w)` of the stem features scored.
            in_shape: [usize; 3],
            /// The trunk lowered to a fused plan on first scoring; dropped
            /// by every mutable weight access so a stale snapshot of the
            /// weights can never score a frame.
            plan: Option<CompiledPlan>,
            /// The trunk's raw `(N, configs)` output of the last scoring,
            /// rewritten whole by the next: kept so that scoring allocates
            /// only the loss vectors it hands out.
            scores: Tensor,
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "(configs={})"), self.num_configs)
            }
        }

        impl $name {
            /// Creates a gate over stem features of shape
            /// `(1, in_channels, spatial, spatial)` scoring `num_configs`
            /// configurations.
            pub fn new(
                in_channels: usize,
                spatial: usize,
                num_configs: usize,
                rng: &mut Rng,
            ) -> Self {
                $name {
                    net: build_net(in_channels, spatial, num_configs, $attention, rng),
                    num_configs,
                    in_shape: [in_channels, spatial, spatial],
                    plan: None,
                    scores: Tensor::default(),
                }
            }

            /// Lowers the trunk into a fused [`CompiledPlan`] for stem
            /// features shaped like `in_shape` (batch extent ignored),
            /// bit-identical to the eager eval forward.
            ///
            /// # Errors
            /// Propagates the graph compiler's error (the shape does not
            /// feed the trunk).
            pub fn compile(&self, in_shape: &[usize]) -> Result<CompiledPlan, graph::CompileError> {
                graph::compile_sequential(&self.net, in_shape)
            }

            /// Scores `n` frames whose stem features lie scattered: frame
            /// `i` is the channel-wise concatenation of blocks
            /// `block(i·per_sample + j)`, `j` in `0..per_sample` (the
            /// pipeline names each sensor's row of its stem bank, and one
            /// shared block of zeros
            /// for a sensor the health mask rules out), and appends each
            /// frame's predicted losses to `losses`. One pass of the
            /// compiled trunk (built on first use, any batch size), whose
            /// first convolution reads the blocks where they are —
            /// bit-identical to the eval `Layer::forward` over the
            /// concatenation by the graph compiler's contract. The trunk's
            /// output lives in the gate, so once it has scored a batch this
            /// large the loss vectors are all a call allocates.
            ///
            /// # Panics
            /// Panics if the blocks of a frame do not add up to the
            /// channel count and spatial size the gate was built for, as
            /// `Layer::forward` does: the pipeline builds them from its
            /// own stems, so a mismatch is a bug in the caller.
            pub fn predict_blocks<'a>(
                &mut self,
                n: usize,
                per_sample: usize,
                block: &dyn Fn(usize) -> &'a [f32],
                losses: &mut Vec<Vec<f32>>,
            ) {
                let (net, [c, h, w]) = (&self.net, self.in_shape);
                let plan = self.plan.get_or_insert_with(|| {
                    graph::compile_sequential(net, &[1, c, h, w])
                        .expect("the trunk lowers for the shape the gate was built for")
                });
                plan.resize_output(n, &mut self.scores);
                plan.execute_indexed_into(n, per_sample, block, &mut self.scores); // (N, configs)
                // Inverse of the log1p squash used in training, clamped so
                // a slightly-negative regression output stays a valid loss.
                losses.extend(
                    self.scores
                        .data()
                        .chunks(self.num_configs)
                        .map(|row| row.iter().map(|v| v.exp_m1().max(0.0)).collect()),
                );
            }

            /// [`Self::predict_blocks`] over a stacked `(N, C, h, w)`
            /// tensor: one block a frame.
            fn predict_stacked(&mut self, features: &Tensor) -> Vec<Vec<f32>> {
                assert_eq!(
                    features.shape().get(1..),
                    Some(&self.in_shape[..]),
                    "gate features must match the shape the gate was built for"
                );
                let per: usize = self.in_shape.iter().product();
                let n = features.shape()[0];
                let mut losses = Vec::with_capacity(n);
                let block = |i: usize| &features.data()[i * per..(i + 1) * per];
                self.predict_blocks(n, 1, &block, &mut losses);
                losses
            }

            /// One regression training step against the true per-config
            /// losses; returns the smooth-L1 loss. Parameter gradients
            /// accumulate for the caller's optimizer.
            ///
            /// # Panics
            /// Panics if `target_losses.len() != num_configs`.
            pub fn train_step(&mut self, features: &Tensor, target_losses: &[f32]) -> f32 {
                assert_eq!(target_losses.len(), self.num_configs, "target length mismatch");
                let pred = self.net.forward(features, true);
                // Regress log1p(loss): fusion losses are heavy-tailed (a
                // missed-everything config costs 4+ while the configs that
                // matter differ by tenths), and raw-scale smooth-L1 lets
                // the tail dominate. The log squash makes the gate rank
                // the *good* configurations accurately; `predict`
                // transforms back to loss scale.
                let squashed: Vec<f32> =
                    target_losses.iter().map(|t| t.max(0.0).ln_1p()).collect();
                let target = Tensor::from_vec(&[1, self.num_configs], squashed);
                let (l, grad) = loss::smooth_l1(&pred, &target, 1.0);
                let _ = self.net.backward(&grad);
                l
            }
        }

        impl Gate for $name {
            fn kind(&self) -> GateKind {
                $kind
            }

            fn num_configs(&self) -> usize {
                self.num_configs
            }

            fn predict(&mut self, input: &GateInput<'_>) -> Vec<f32> {
                self.predict_stacked(input.features).into_iter().flatten().collect()
            }

            fn predict_batch(
                &mut self,
                features: &Tensor,
                inputs: &[GateInput<'_>],
            ) -> Vec<Vec<f32>> {
                assert_eq!(
                    features.shape()[0],
                    inputs.len(),
                    "predict_batch length mismatch"
                );
                // One pass through the gate network for the whole batch.
                self.predict_stacked(features)
            }
        }

        impl Layer for $name {
            fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
                self.net.forward(x, train)
            }

            fn backward(&mut self, grad_out: &Tensor) -> Tensor {
                self.net.backward(grad_out)
            }

            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                self.plan = None;
                self.net.visit_params(f);
            }

            fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
                self.plan = None;
                self.net.visit_buffers(f);
            }

            fn name(&self) -> &'static str {
                stringify!($name)
            }
        }
    };
}

learned_gate!(
    /// Deep gate (§4.2.2): three convolution layers and one MLP layer
    /// regressing the fusion loss of every configuration from the stem
    /// features.
    DeepGate,
    GateKind::Deep,
    false
);

learned_gate!(
    /// Attention gate (§4.2.3): identical to [`DeepGate`] plus a
    /// self-attention layer that lets the gate weigh informative areas of
    /// the input feature map.
    AttentionGate,
    GateKind::Attention,
    true
);

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_tensor::optim::{Optimizer, Sgd};

    fn features(rng: &mut Rng) -> Tensor {
        Tensor::randn(&[1, 4, 16, 16], 1.0, rng)
    }

    #[test]
    fn output_length_matches_configs() {
        let mut rng = Rng::new(1);
        let mut g = DeepGate::new(4, 16, 7, &mut rng);
        let f = features(&mut rng);
        let pred = g.predict(&GateInput::features_only(&f));
        assert_eq!(pred.len(), 7);
        assert_eq!(g.num_configs(), 7);
    }

    #[test]
    fn attention_gate_has_more_params_than_deep() {
        let mut rng = Rng::new(2);
        let mut d = DeepGate::new(4, 16, 5, &mut rng);
        let mut a = AttentionGate::new(4, 16, 5, &mut rng);
        assert!(a.param_count() > d.param_count());
    }

    #[test]
    fn deep_gate_learns_constant_targets() {
        let mut rng = Rng::new(3);
        let mut g = DeepGate::new(4, 16, 3, &mut rng);
        let f = features(&mut rng);
        let targets = [0.5f32, 2.0, 1.0];
        let mut opt = Sgd::new(0.01, 0.9, 0.0);
        for _ in 0..300 {
            g.zero_grad();
            let _ = g.train_step(&f, &targets);
            opt.step(&mut g);
        }
        let pred = g.predict(&GateInput::features_only(&f));
        for (p, t) in pred.iter().zip(&targets) {
            assert!((p - t).abs() < 0.2, "pred {pred:?} vs targets {targets:?}");
        }
    }

    #[test]
    fn attention_gate_learns_constant_targets() {
        let mut rng = Rng::new(4);
        let mut g = AttentionGate::new(4, 16, 2, &mut rng);
        let f = features(&mut rng);
        let targets = [1.5f32, 0.25];
        let mut opt = Sgd::new(0.01, 0.9, 0.0);
        for _ in 0..300 {
            g.zero_grad();
            let _ = g.train_step(&f, &targets);
            opt.step(&mut g);
        }
        let pred = g.predict(&GateInput::features_only(&f));
        for (p, t) in pred.iter().zip(&targets) {
            assert!((p - t).abs() < 0.25, "pred {pred:?} vs targets {targets:?}");
        }
    }

    #[test]
    fn gates_discriminate_inputs_after_training() {
        // Two distinct inputs with opposite targets: the gate must learn
        // input-dependent predictions, not just the mean.
        let mut rng = Rng::new(5);
        let mut g = DeepGate::new(4, 16, 2, &mut rng);
        let fa = Tensor::full(&[1, 4, 16, 16], 1.0);
        let fb = Tensor::full(&[1, 4, 16, 16], -1.0);
        let ta = [0.2f32, 1.8];
        let tb = [1.8f32, 0.2];
        let mut opt = Sgd::new(0.01, 0.9, 0.0);
        for _ in 0..300 {
            g.zero_grad();
            let _ = g.train_step(&fa, &ta);
            let _ = g.train_step(&fb, &tb);
            opt.step(&mut g);
        }
        let pa = g.predict(&GateInput::features_only(&fa));
        let pb = g.predict(&GateInput::features_only(&fb));
        assert!(pa[0] < pa[1], "pa {pa:?}");
        assert!(pb[0] > pb[1], "pb {pb:?}");
    }

    #[test]
    #[should_panic(expected = "target length")]
    fn wrong_target_len_panics() {
        let mut rng = Rng::new(6);
        let mut g = DeepGate::new(4, 16, 3, &mut rng);
        let f = features(&mut rng);
        let _ = g.train_step(&f, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_spatial_panics() {
        let mut rng = Rng::new(7);
        let _ = DeepGate::new(4, 12, 3, &mut rng);
    }

    #[test]
    fn compiled_scoring_is_bit_identical_and_tracks_weight_updates() {
        let mut rng = Rng::new(9);
        let mut deep = DeepGate::new(4, 16, 5, &mut rng);
        let mut attn = AttentionGate::new(4, 16, 5, &mut rng);
        let batch = Tensor::randn(&[5, 4, 16, 16], 1.0, &mut rng);
        let inputs: Vec<GateInput<'_>> = (0..5).map(|_| GateInput::features_only(&batch)).collect();
        // The oracle: the eval `Layer::forward` of the trunk plus the
        // inverse squash, against what `predict_batch` scores by plan.
        fn both<G: Gate + Layer>(
            gate: &mut G,
            batch: &Tensor,
            inputs: &[GateInput<'_>],
        ) -> Vec<Vec<f32>> {
            let eager = gate.forward(batch, false);
            let compiled = gate.predict_batch(batch, inputs);
            for (e, c) in eager.data().iter().zip(compiled.iter().flatten()) {
                assert_eq!(e.exp_m1().max(0.0).to_bits(), c.to_bits(), "{e} vs {c}");
            }
            compiled
        }
        let (d0, a0) = (both(&mut deep, &batch, &inputs), both(&mut attn, &batch, &inputs));
        assert!(deep.plan.is_some() && attn.plan.is_some(), "first scoring compiles the trunk");
        // A weight update drops the plan; the next scoring sees it.
        deep.visit_params(&mut |p| p.value.scale(1.25));
        attn.visit_params(&mut |p| p.value.scale(1.25));
        assert!(deep.plan.is_none() && attn.plan.is_none(), "stale plan must be dropped");
        assert_ne!(both(&mut deep, &batch, &inputs), d0);
        assert_ne!(both(&mut attn, &batch, &inputs), a0);
    }

    #[test]
    #[should_panic(expected = "shape the gate was built for")]
    fn mis_shaped_features_panic_like_the_eval_forward() {
        let mut rng = Rng::new(10);
        let mut g = DeepGate::new(4, 16, 3, &mut rng);
        let wrong = Tensor::zeros(&[1, 3, 16, 16]);
        let _ = g.predict(&GateInput::features_only(&wrong));
    }

    #[test]
    fn predict_batch_matches_per_frame() {
        let mut rng = Rng::new(8);
        let mut deep = DeepGate::new(4, 16, 5, &mut rng);
        let mut attn = AttentionGate::new(4, 16, 5, &mut rng);
        let batch = Tensor::randn(&[3, 4, 16, 16], 1.0, &mut rng);
        let frames: Vec<Tensor> = (0..3).map(|i| batch.select_batch(i)).collect();
        let inputs: Vec<GateInput<'_>> = frames.iter().map(GateInput::features_only).collect();
        for gate in [&mut deep as &mut dyn Gate, &mut attn as &mut dyn Gate] {
            let batched = gate.predict_batch(&batch, &inputs);
            assert_eq!(batched.len(), 3);
            for (i, input) in inputs.iter().enumerate() {
                let single = gate.predict(input);
                for (a, b) in batched[i].iter().zip(&single) {
                    assert!((a - b).abs() <= 1e-5 * (1.0 + a.abs()), "frame {i}: {a} vs {b}");
                }
            }
        }
    }
}
