//! Element-wise activation layers.

use super::Layer;
use crate::param::Param;
use crate::tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward before forward(train)");
        assert_eq!(mask.len(), grad_out.len(), "ReLU grad shape mismatch");
        let data =
            grad_out.data().iter().zip(mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Logistic sigmoid.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_out: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Numerically-stable scalar sigmoid.
fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = x.map(sigmoid);
        if train {
            self.cached_out = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.cached_out.as_ref().expect("Sigmoid::backward before forward(train)");
        let data = grad_out.data().iter().zip(y.data()).map(|(&g, &o)| g * o * (1.0 - o)).collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::gradcheck;
    use crate::rng::Rng;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = Rng::new(1);
        let mut r = ReLU::new();
        // Keep values away from the kink for finite differences.
        let x = Tensor::from_vec(&[5], vec![-2.0, -1.0, 1.0, 2.0, 3.0]);
        gradcheck(&mut r, &x, 1e-3, 1e-2);
        let _ = &mut rng;
    }

    #[test]
    fn sigmoid_known_values() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[3], vec![0.0, 100.0, -100.0]);
        let y = s.forward(&x, false);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!(y.data()[2].abs() < 1e-6);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut rng = Rng::new(2);
        let mut s = Sigmoid::new();
        let x = Tensor::randn(&[6], 1.0, &mut rng);
        gradcheck(&mut s, &x, 1e-3, 1e-2);
    }
}
