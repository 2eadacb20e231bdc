//! Seeded random number generation.
//!
//! Every stochastic component in the workspace (weight init, scene
//! generation, sensor noise, data shuffling) draws from [`Rng`], a thin
//! wrapper over `rand::rngs::StdRng` that adds the distributions we need
//! (normal via Box–Muller, Poisson via inversion) without pulling in
//! `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Deterministic random source.
///
/// # Example
///
/// ```
/// use ecofusion_tensor::rng::Rng;
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
    /// Cached second sample from the last Box–Muller draw.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Rng { inner: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Derives an independent child generator; used to give each worker or
    /// subsystem its own stream while staying reproducible.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let s = self.inner.gen::<u64>() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(s)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform bounds inverted");
        lo + (hi - lo) * self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "uniform_usize bounds inverted");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli sample with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Normal sample via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                // Box–Muller: two uniforms -> two independent normals.
                let u1: f64 = self.inner.gen::<f64>().max(1e-300);
                let u2: f64 = self.inner.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std * z
    }

    /// Poisson sample (Knuth's inversion; adequate for the small rates used
    /// by scene generation).
    pub fn poisson(&mut self, lambda: f64) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.inner.gen::<f64>();
            if p <= l || k > 10_000 {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.inner.gen_range(0..items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let mut root = Rng::new(1);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.uniform(0.0, 1.0).to_bits(), c2.uniform(0.0, 1.0).to_bits());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let v = rng.uniform(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let mut rng = Rng::new(7);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.poisson(3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = Rng::new(8);
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::new(11);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }
}
