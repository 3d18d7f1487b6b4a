//! The dense `f32` tensor type used throughout goldeneye-rs.
//!
//! Tensors are always contiguous and row-major; operations allocate new
//! tensors. This keeps the semantics simple and matches the "compute fabric"
//! role the tensor plays in the paper: a plain FP32 substrate on top of
//! which number formats are emulated.
//!
//! The buffer is copy-on-write: [`Tensor::clone`] and [`Tensor::reshape`]
//! share it, and the first write through [`Tensor::as_mut_slice`],
//! [`Tensor::set`] or [`Tensor::map_inplace`] copies it only if another
//! tensor still holds it. Value semantics are unchanged; a forward pass
//! just stops paying for copies nobody writes to. The sharing is an
//! [`Arc`], so tensors stay `Send + Sync` for the campaign workers.
//!
//! The ops take their output buffers from the thread-local pool in
//! [`crate::workspace`], and such a buffer goes back to the pool of the
//! thread that drops the last tensor sharing it. A buffer handed to
//! [`Tensor::from_vec`] is freed instead.

use crate::shape::Shape;
use crate::workspace::{self, Buffer};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum_all(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Buffer>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer. The buffer is freed
    /// when the last tensor sharing it drops.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        Tensor::from_buffer(Buffer::from(data), shape)
    }

    /// Creates a tensor from a buffer of the [`workspace`] pool, which it
    /// goes back to when the last tensor sharing it drops.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_buffer(data: Buffer, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of {} elements does not fit shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data: Arc::new(data) }
    }

    /// Creates a scalar (0-dimensional) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor::from_buffer(workspace::zeroed(shape.numel()), shape)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = workspace::with_capacity(shape.numel());
        data.resize(shape.numel(), value);
        Tensor::from_buffer(data, shape)
    }

    /// Creates a tensor of iid standard-normal samples (Box–Muller).
    pub fn randn(shape: impl Into<Shape>, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor::from_vec(data, shape)
    }

    /// Creates a tensor of iid uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Creates a 1-d tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents as a slice, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer, copying it
    /// first if another tensor shares it.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer (copied only if another
    /// tensor shares it).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| shared.as_ref().clone()).into_vec()
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has wrong arity.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has wrong arity.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.as_mut_slice()[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with shape {:?}", self.shape);
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape. The buffer is
    /// shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(self.numel(), shape.numel(), "cannot reshape {:?} to {:?}", self.shape, shape);
        Tensor { shape, data: self.data.clone() }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = workspace::with_capacity(self.numel());
        out.extend(self.data.iter().map(|&x| f(x)));
        Tensor::from_buffer(out, self.shape.clone())
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True if `self` and `other` agree elementwise within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol + tol * b.abs())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ... {:.4}] n={})",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_and_at() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros([2, 2]).sum_all(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum_all(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum_all(), 7.5);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn([4, 4], &mut r1);
        let b = Tensor::randn([4, 4], &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_has_roughly_unit_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn([10_000], &mut rng);
        let mean = t.mean_all();
        let var = t.map(|x| (x - mean) * (x - mean)).mean_all();
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape([2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn map_and_reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0], [3]);
        assert_eq!(t.map(f32::abs).sum_all(), 6.0);
        assert_eq!(t.max_all(), 2.0);
        assert_eq!(t.min_all(), -3.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.mean_all(), (-2.0) / 3.0);
    }

    #[test]
    fn allclose_tolerates_small_error() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0 - 1e-7], [2]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&Tensor::from_vec(vec![1.1, 2.0], [2]), 1e-5));
    }

    #[test]
    fn item_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    fn buf(t: &Tensor) -> *const f32 {
        t.as_slice().as_ptr()
    }

    #[test]
    fn clone_and_reshape_share_the_buffer() {
        let t = Tensor::arange(6);
        assert_eq!(buf(&t.clone()), buf(&t));
        assert_eq!(buf(&t.reshape([2, 3])), buf(&t));
    }

    #[test]
    fn writes_to_a_clone_copy_first_and_leave_the_original() {
        let t = Tensor::arange(4);
        let mut a = t.clone();
        a.as_mut_slice()[0] = 9.0;
        let mut b = t.clone();
        b.set(&[1], 9.0);
        let mut c = t.reshape([2, 2]);
        c.map_inplace(|x| x + 10.0);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[9.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[0.0, 9.0, 2.0, 3.0]);
        assert_eq!(c.as_slice(), &[10.0, 11.0, 12.0, 13.0]);
        for written in [&a, &b, &c] {
            assert_ne!(buf(written), buf(&t));
        }
    }

    #[test]
    fn a_unique_buffer_is_written_in_place() {
        let mut t = Tensor::arange(4);
        let before = buf(&t);
        t.as_mut_slice()[0] = 5.0;
        t.set(&[1], 6.0);
        t.map_inplace(|x| x * 2.0);
        assert_eq!(buf(&t), before);
        assert_eq!(t.as_slice(), &[10.0, 12.0, 4.0, 6.0]);
    }

    #[test]
    fn into_vec_reuses_a_unique_buffer_and_copies_a_shared_one() {
        let t = Tensor::arange(4);
        let p = buf(&t);
        let v = t.into_vec();
        assert_eq!(v.as_ptr(), p);
        let t = Tensor::arange(4);
        let keep = t.clone();
        let v = t.into_vec();
        assert_ne!(v.as_ptr(), buf(&keep));
        assert_eq!(v, keep.as_slice());
    }
}
