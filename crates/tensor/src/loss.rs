//! The loss function of the paper's gate training.
//!
//! It returns `(mean_loss, gradient)` where the gradient is with respect
//! to the first argument and already includes the `1/N` averaging factor,
//! so it can be fed straight into [`crate::layer::Layer::backward`].

use crate::tensor::Tensor;

/// Smooth L1 (Huber) loss, element-wise mean, as used for bounding-box
/// regression in Faster R-CNN:
///
/// ```text
/// l(d) = 0.5·d²/β   if |d| < β
///        |d| − 0.5β otherwise
/// ```
///
/// # Panics
/// Panics if shapes differ or `beta <= 0`.
pub fn smooth_l1(pred: &Tensor, target: &Tensor, beta: f32) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "smooth_l1 shape mismatch");
    assert!(beta > 0.0, "smooth_l1 beta must be positive");
    let n = pred.len().max(1) as f32;
    let mut grad = Tensor::zeros(pred.shape());
    let mut loss = 0.0f64;
    for i in 0..pred.len() {
        let d = pred.data()[i] - target.data()[i];
        if d.abs() < beta {
            loss += (0.5 * d * d / beta) as f64;
            grad.data_mut()[i] = d / beta / n;
        } else {
            loss += (d.abs() - 0.5 * beta) as f64;
            grad.data_mut()[i] = d.signum() / n;
        }
    }
    ((loss / n as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn finite_diff_scalar(f: impl Fn(&Tensor) -> f32, x: &Tensor, grad: &Tensor, tol: f32) {
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = f(&xp);
            xp.data_mut()[i] = orig - eps;
            let fm = f(&xp);
            xp.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs()),
                "grad mismatch at {i}: numeric {num}, analytic {ana}"
            );
        }
    }

    #[test]
    fn smooth_l1_zero_at_equality() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let (l, g) = smooth_l1(&a, &a, 1.0);
        assert_eq!(l, 0.0);
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn smooth_l1_quadratic_then_linear() {
        let pred = Tensor::from_vec(&[2], vec![0.5, 3.0]);
        let target = Tensor::zeros(&[2]);
        let (l, _) = smooth_l1(&pred, &target, 1.0);
        // 0.5*0.25 + (3-0.5) = 0.125 + 2.5, mean over 2 elements.
        assert!((l - (0.125 + 2.5) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn smooth_l1_grad_matches_finite_differences() {
        let mut rng = Rng::new(2);
        let pred = Tensor::randn(&[6], 2.0, &mut rng);
        let target = Tensor::randn(&[6], 2.0, &mut rng);
        let (_, grad) = smooth_l1(&pred, &target, 1.0);
        finite_diff_scalar(|x| smooth_l1(x, &target, 1.0).0, &pred, &grad, 1e-2);
    }
}
