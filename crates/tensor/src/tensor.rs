//! Dense `f32` tensor in row-major (NCHW for 4-D) layout.

use crate::backend::{Backend, Blocked};
use crate::rng::Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// A dense, heap-allocated `f32` tensor.
///
/// Shapes are dynamic; the layers in this crate use 2-D `(N, F)` and 4-D
/// `(N, C, H, W)` tensors. Storage is contiguous row-major.
///
/// # Example
///
/// ```
/// use ecofusion_tensor::Tensor;
/// let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.get2(1, 2), 6.0);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Hand-written so that no loader can build a tensor whose `data` is not
/// what its `shape` holds: every kernel sizes its reads by the shape, and
/// a snapshot restore compares shapes only.
impl Deserialize for Tensor {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Unchecked {
            shape: Vec<usize>,
            data: Vec<f32>,
        }
        let Unchecked { shape, data } = Unchecked::from_value(v)?;
        // Checked: a shape like `[1 << 63, 2]` must not wrap to 0 and
        // match an empty `data`.
        let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if shape.is_empty() || numel != Some(data.len()) {
            return Err(DeError::custom(format!(
                "Tensor shape {shape:?} does not hold {} values",
                data.len()
            )));
        }
        Ok(Tensor { shape, data })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, ..; n={}]", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor { shape: vec![0], data: Vec::new() }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let n: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn full(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let n: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; n] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {:?} wants {} elements, got {}", shape, n, data.len());
        Tensor { shape: shape.to_vec(), data }
    }

    /// Samples i.i.d. N(0, std²) entries.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.normal(0.0, std as f64) as f32).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Samples i.i.d. U(lo, hi) entries.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.uniform(lo as f64, hi as f64) as f32).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped copy sharing no storage.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?} mismatch", self.shape, shape);
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// In-place reshape (no data movement).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?} mismatch", self.shape, shape);
        self.shape = shape.to_vec();
    }

    /// Gives the tensor a new shape in place, keeping its allocation: the
    /// buffer is truncated, or extended (zeros behind the old contents)
    /// within its capacity, and reallocated only to grow past it. For
    /// buffers that live across calls and are rewritten whole by each one
    /// — what the old contents mean under the new shape is unspecified.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn resize(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// [`Tensor::resize`] to `(n, sample…)`: a batch of `n` samples of
    /// shape `sample`, with no shape built to say so.
    pub fn resize_batch(&mut self, n: usize, sample: &[usize]) {
        self.shape.clear();
        self.shape.push(n);
        self.shape.extend_from_slice(sample);
        self.data.resize(n * sample.iter().product::<usize>(), 0.0);
    }

    #[inline]
    fn idx2(&self, r: usize, c: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        r * self.shape[1] + c
    }

    #[inline]
    fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Element access for 2-D tensors.
    #[inline]
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        self.data[self.idx2(r, c)]
    }

    /// Element assignment for 2-D tensors.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        let i = self.idx2(r, c);
        self.data[i] = v;
    }

    /// Element access for 4-D tensors.
    #[inline]
    pub fn get4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Element assignment for 4-D tensors.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx4(n, c, h, w);
        self.data[i] = v;
    }

    /// Adds another tensor element-wise in place.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Element-wise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Element-wise difference, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Element-wise product, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f32) -> Tensor {
        let mut t = self.clone();
        t.scale(s);
        t
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Matrix multiplication `self (M,K) × other (K,N) → (M,N)` on the
    /// [`Blocked`] kernels.
    ///
    /// # Panics
    /// Panics if either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with(other, &Blocked)
    }

    /// [`Tensor::matmul`] on explicit kernels: how the parity tests reach
    /// the oracle kept in [`crate::backend`].
    pub fn matmul_with<B: Backend + ?Sized>(&self, other: &Tensor, backend: &B) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {}x{} vs {}x{}", m, k, k2, n);
        let mut out = Tensor::zeros(&[m, n]);
        backend.gemm(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `selfᵀ (K,M)ᵀ × other (K,N) → (M,N)` without materializing the
    /// transpose, on the [`Blocked`] kernels.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_tn_with(other, &Blocked)
    }

    /// [`Tensor::matmul_tn`] on explicit kernels.
    pub fn matmul_tn_with<B: Backend + ?Sized>(&self, other: &Tensor, backend: &B) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        backend.gemm_tn(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// `self (M,K) × otherᵀ (N,K)ᵀ → (M,N)` without materializing the
    /// transpose, on the [`Blocked`] kernels.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.matmul_nt_with(other, &Blocked)
    }

    /// [`Tensor::matmul_nt`] on explicit kernels.
    pub fn matmul_nt_with<B: Backend + ?Sized>(&self, other: &Tensor, backend: &B) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_nt rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        backend.gemm_nt(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Concatenates 4-D tensors along the channel axis.
    ///
    /// All inputs must share `N`, `H`, `W`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or shapes are incompatible.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_channels needs at least one tensor");
        let n = parts[0].shape[0];
        let h = parts[0].shape[2];
        let w = parts[0].shape[3];
        let c_total: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.ndim(), 4, "concat_channels needs 4-D tensors");
                assert_eq!(p.shape[0], n, "batch mismatch");
                assert_eq!(p.shape[2], h, "height mismatch");
                assert_eq!(p.shape[3], w, "width mismatch");
                p.shape[1]
            })
            .sum();
        let mut out = Tensor::zeros(&[n, c_total, h, w]);
        let plane = h * w;
        for b in 0..n {
            let mut c_off = 0;
            for p in parts {
                let c = p.shape[1];
                let src = &p.data[b * c * plane..(b + 1) * c * plane];
                let dst =
                    &mut out.data[(b * c_total + c_off) * plane..(b * c_total + c_off + c) * plane];
                dst.copy_from_slice(src);
                c_off += c;
            }
        }
        out
    }

    /// Splits a 4-D tensor along channels into chunks of the given sizes
    /// (inverse of [`Tensor::concat_channels`]).
    ///
    /// # Panics
    /// Panics if the sizes do not sum to the channel count.
    pub fn split_channels(&self, sizes: &[usize]) -> Vec<Tensor> {
        assert_eq!(self.ndim(), 4, "split_channels needs a 4-D tensor");
        let (n, c_total, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        assert_eq!(sizes.iter().sum::<usize>(), c_total, "split sizes must sum to channels");
        let plane = h * w;
        let mut outs: Vec<Tensor> = sizes.iter().map(|&c| Tensor::zeros(&[n, c, h, w])).collect();
        for b in 0..n {
            let mut c_off = 0;
            for (out, &c) in outs.iter_mut().zip(sizes) {
                let src =
                    &self.data[(b * c_total + c_off) * plane..(b * c_total + c_off + c) * plane];
                let dst = &mut out.data[b * c * plane..(b + 1) * c * plane];
                dst.copy_from_slice(src);
                c_off += c;
            }
        }
        outs
    }

    /// Extracts sample `n` of a batched tensor as a batch of one.
    pub fn select_batch(&self, n: usize) -> Tensor {
        assert!(self.ndim() >= 2, "select_batch needs a batched tensor");
        assert!(n < self.shape[0], "batch index out of range");
        let per = self.data.len() / self.shape[0];
        let mut shape = self.shape.clone();
        shape[0] = 1;
        Tensor::from_vec(&shape, self.data[n * per..(n + 1) * per].to_vec())
    }

    /// Stacks batch-of-one tensors along the batch axis.
    ///
    /// # Panics
    /// Panics if `parts` is empty or trailing shapes differ.
    pub fn stack_batch(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_batch needs at least one tensor");
        let tail = &parts[0].shape[1..];
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        let mut n = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "stack_batch trailing shape mismatch");
            n += p.shape[0];
            data.extend_from_slice(&p.data);
        }
        let mut shape = parts[0].shape.clone();
        shape[0] = n;
        Tensor::from_vec(&shape, data)
    }

    /// Row-wise softmax for a 2-D tensor.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows needs a 2-D tensor");
        let mut out = self.clone();
        softmax_rows_in_place(&mut out.data, self.shape[1]);
        out
    }
}

/// Max-shifted softmax over each `n`-wide row of `data`, in place — the
/// arithmetic of [`Tensor::softmax_rows`], shared with the compiled
/// self-attention step so the two cannot drift apart.
pub(crate) fn softmax_rows_in_place(data: &mut [f32], n: usize) {
    if n == 0 {
        return;
    }
    for row in data.chunks_exact_mut(n) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut s = 0.0;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            s += *v;
        }
        if s > 0.0 {
            for v in row.iter_mut() {
                *v /= s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.sum(), 0.0);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zeros_empty_shape_panics() {
        let _ = Tensor::zeros(&[]);
    }

    #[test]
    fn resize_keeps_the_allocation_and_the_shape_invariant() {
        let mut t = Tensor::full(&[4, 2, 3], 7.0);
        let buffer = t.data().as_ptr();
        t.resize(&[2, 3]);
        assert_eq!((t.shape(), t.len()), (&[2usize, 3][..], 6));
        t.resize(&[3, 2, 3]);
        assert_eq!((t.shape(), t.len()), (&[3usize, 2, 3][..], 18));
        assert_eq!(t.data().as_ptr(), buffer, "within capacity nothing is reallocated");
        // What a shrink cut off comes back as zeros, not as stale values.
        assert_eq!(t.data()[..6], [7.0; 6]);
        assert_eq!(t.data()[6..], [0.0; 12]);
        t.resize(&[8, 2, 3]);
        assert_eq!(t.len(), 48);
        let mut empty = Tensor::default();
        empty.resize(&[0, 5]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn from_vec_len_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn indexing_2d_4d_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set2(1, 2, 7.5);
        assert_eq!(t.get2(1, 2), 7.5);
        let mut q = Tensor::zeros(&[2, 3, 4, 5]);
        q.set4(1, 2, 3, 4, -1.25);
        assert_eq!(q.get4(1, 2, 3, 4), -1.25);
        assert_eq!(q.get4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let want = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let want = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scaled(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.map(|v| v * v).data(), &[1., 4., 9.]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[4], vec![1., -2., 3., 0.]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.norm_sq(), 14.0);
    }

    #[test]
    fn concat_and_split_channels_roundtrip() {
        let mut rng = Rng::new(9);
        let a = Tensor::randn(&[2, 1, 3, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[2, 2, 3, 3], 1.0, &mut rng);
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 3, 3, 3]);
        // Sample 1, channel 1 of cat must equal sample 1, channel 0 of b.
        assert_eq!(cat.get4(1, 1, 2, 2), b.get4(1, 0, 2, 2));
        let parts = cat.split_channels(&[1, 2]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn select_and_stack_batch_roundtrip() {
        let mut rng = Rng::new(11);
        let t = Tensor::randn(&[3, 2, 2, 2], 1.0, &mut rng);
        let rows: Vec<Tensor> = (0..3).map(|i| t.select_batch(i)).collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let back = Tensor::stack_batch(&refs);
        assert_eq!(back, t);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.get2(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Softmax is monotone in its input.
        assert!(s.get2(0, 2) > s.get2(0, 1));
    }

    #[test]
    fn softmax_rows_is_stable_for_large_logits() {
        let t = Tensor::from_vec(&[1, 2], vec![1000.0, 1001.0]);
        let s = t.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.get2(0, 0) + s.get2(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn randn_distribution_sane() {
        let mut rng = Rng::new(123);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
