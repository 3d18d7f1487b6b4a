//! Tape-based reverse-mode automatic differentiation.
//!
//! The paper's tool supports number-format emulation during training because
//! PyTorch provides backpropagation; this module is the equivalent substrate
//! here. A [`Tape`] records operations on [`Var`] handles; [`Var::backward`]
//! replays the tape in reverse, accumulating gradients.
//!
//! Quantisation hooks participate in training through
//! [`Var::apply_ste`], which applies an arbitrary tensor→tensor function in
//! the forward pass and passes gradients straight through (the standard
//! straight-through estimator for non-differentiable quantisers).
//!
//! # Examples
//!
//! ```
//! use tensor::{Tape, Tensor};
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], [1]));
//! let y = x.mul(&x).scale(3.0); // y = 3x²
//! let grads = y.backward();
//! assert_eq!(grads.get(&x).unwrap().as_slice(), &[12.0]); // dy/dx = 6x
//! ```

use crate::conv::{
    conv2d, conv2d_backward, global_avg_pool, global_avg_pool_backward, maxpool2d,
    maxpool2d_backward, Conv2dSpec,
};
use crate::linalg::{bmm, matmul};
use crate::ops;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

type BackwardFn = Box<dyn Fn(&Tensor, &mut GradStore)>;

/// A tape records *how* values were computed, never the values: each
/// [`Var`] owns its value, so an intermediate is freed as soon as its last
/// `Var` drops. Only a recording tape's backward closures keep what their
/// gradients need.
struct TapeInner {
    nodes: usize,
    entries: Vec<Entry>,
    recording: bool,
}

struct Entry {
    output: usize,
    backward: BackwardFn,
}

/// A recording tape for reverse-mode autodiff.
///
/// Cloning a `Tape` is cheap: clones share the same recording.
#[derive(Clone)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Tape(nodes={}, entries={}, recording={})",
            inner.nodes,
            inner.entries.len(),
            inner.recording
        )
    }
}

impl Tape {
    /// Creates an empty, recording tape.
    pub fn new() -> Self {
        Tape {
            inner: Rc::new(RefCell::new(TapeInner {
                nodes: 0,
                entries: Vec::new(),
                recording: true,
            })),
        }
    }

    /// Creates a tape with recording disabled (inference mode): values flow
    /// forward but no backward entries are stored.
    pub fn inference() -> Self {
        let t = Tape::new();
        t.inner.borrow_mut().recording = false;
        t
    }

    /// Whether operations are being recorded.
    pub fn is_recording(&self) -> bool {
        self.inner.borrow().recording
    }

    /// Enables or disables recording.
    pub fn set_recording(&self, on: bool) {
        self.inner.borrow_mut().recording = on;
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes
    }

    /// True if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a leaf node (an input or parameter) and returns its handle.
    pub fn leaf(&self, value: Tensor) -> Var {
        let id = self.next_id();
        Var { tape: self.clone(), id, value }
    }

    fn next_id(&self) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.nodes += 1;
        inner.nodes - 1
    }
}

/// Accumulated gradients keyed by tape node.
#[derive(Debug)]
pub struct GradStore {
    grads: Vec<Option<Tensor>>,
}

impl GradStore {
    fn new(n: usize) -> Self {
        GradStore { grads: (0..n).map(|_| None).collect() }
    }

    /// Accumulates `g` into the gradient for node `id`.
    pub fn accumulate(&mut self, id: usize, g: Tensor) {
        match &mut self.grads[id] {
            Some(existing) => *existing = ops::add(existing, &g),
            slot @ None => *slot = Some(g),
        }
    }

    /// The gradient of the differentiated output with respect to `var`,
    /// or `None` if `var` did not influence it.
    pub fn get(&self, var: &Var) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(Option::as_ref)
    }
}

/// A handle to a node on a [`Tape`], owning the node's value.
///
/// Cloning a `Var` is cheap: clones share the value's buffer.
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    id: usize,
    value: Tensor,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var(id={}, value={:?})", self.id, self.value)
    }
}

impl Var {
    /// The value of this node. O(1): the returned tensor shares the
    /// node's buffer and copies it only if written to.
    pub fn value(&self) -> Tensor {
        self.value.clone()
    }

    /// The tape this variable lives on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// The shape of this node's value.
    pub fn shape(&self) -> Shape {
        self.value.shape().clone()
    }

    /// Puts `value` on the tape as a new node; a recording tape also keeps
    /// `backward`, an inference tape drops it here.
    fn unary(&self, value: Tensor, backward: impl Fn(&Tensor, &mut GradStore) + 'static) -> Var {
        let id = self.tape.next_id();
        let mut inner = self.tape.inner.borrow_mut();
        if inner.recording {
            inner.entries.push(Entry { output: id, backward: Box::new(backward) });
        }
        Var { tape: self.tape.clone(), id, value }
    }

    /// Elementwise sum with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let (sa, sb) = (a.shape().clone(), b.shape().clone());
        let (ia, ib) = (self.id, other.id);
        self.unary(ops::add(a, b), move |g, store| {
            store.accumulate(ia, ops::reduce_to_shape(g, &sa));
            store.accumulate(ib, ops::reduce_to_shape(g, &sb));
        })
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let (sa, sb) = (a.shape().clone(), b.shape().clone());
        let (ia, ib) = (self.id, other.id);
        self.unary(ops::sub(a, b), move |g, store| {
            store.accumulate(ia, ops::reduce_to_shape(g, &sa));
            store.accumulate(ib, ops::reduce_to_shape(&ops::scale(g, -1.0), &sb));
        })
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let (sa, sb) = (a.shape().clone(), b.shape().clone());
        let (ia, ib) = (self.id, other.id);
        let (ac, bc) = (a.clone(), b.clone());
        self.unary(ops::mul(a, b), move |g, store| {
            store.accumulate(ia, ops::reduce_to_shape(&ops::mul(g, &bc), &sa));
            store.accumulate(ib, ops::reduce_to_shape(&ops::mul(g, &ac), &sb));
        })
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        let a = &self.value;
        let ia = self.id;
        self.unary(ops::scale(a, s), move |g, store| {
            store.accumulate(ia, ops::scale(g, s));
        })
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let a = &self.value;
        let ia = self.id;
        self.unary(ops::add_scalar(a, s), move |g, store| {
            store.accumulate(ia, g.clone());
        })
    }

    /// Elementwise reciprocal.
    pub fn recip(&self) -> Var {
        let a = &self.value;
        let ia = self.id;
        let ac = a.clone();
        self.unary(a.map(|x| 1.0 / x), move |g, store| {
            let ga = ops::zip_broadcast(g, &ac, |gv, x| -gv / (x * x));
            store.accumulate(ia, ga);
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let a = &self.value;
        let out = a.map(f32::sqrt);
        let ia = self.id;
        let oc = out.clone();
        self.unary(out, move |g, store| {
            let ga = ops::zip_broadcast(g, &oc, |gv, s| gv / (2.0 * s));
            store.accumulate(ia, ga);
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let a = &self.value;
        let ia = self.id;
        let ac = a.clone();
        self.unary(ops::relu(a), move |g, store| {
            let ga = ops::zip_broadcast(g, &ac, |gv, x| if x > 0.0 { gv } else { 0.0 });
            store.accumulate(ia, ga);
        })
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&self) -> Var {
        let a = &self.value;
        let ia = self.id;
        let ac = a.clone();
        self.unary(ops::gelu(a), move |g, store| {
            store.accumulate(ia, ops::mul(g, &ops::gelu_grad(&ac)));
        })
    }

    /// Matrix multiply `[m,k] × [k,n]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let (ia, ib) = (self.id, other.id);
        let (ac, bc) = (a.clone(), b.clone());
        self.unary(matmul(a, b), move |g, store| {
            store.accumulate(ia, matmul(g, &ops::transpose2(&bc)));
            store.accumulate(ib, matmul(&ops::transpose2(&ac), g));
        })
    }

    /// Batched matrix multiply `[b,m,k] × [b,k,n]`.
    pub fn bmm(&self, other: &Var) -> Var {
        let (a, b) = (&self.value, &other.value);
        let (ia, ib) = (self.id, other.id);
        let (ac, bc) = (a.clone(), b.clone());
        self.unary(bmm(a, b), move |g, store| {
            store.accumulate(ia, bmm(g, &ops::permute(&bc, &[0, 2, 1])));
            store.accumulate(ib, bmm(&ops::permute(&ac, &[0, 2, 1]), g));
        })
    }

    /// 2-D convolution (see [`conv2d`]).
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: Conv2dSpec) -> Var {
        let x = &self.value;
        let w = &weight.value;
        let b = bias.map(|b| &b.value);
        let out = conv2d(x, w, b, spec);
        let (ix, iw, ib) = (self.id, weight.id, bias.map(|b| b.id));
        let (xc, wc) = (x.clone(), w.clone());
        self.unary(out, move |g, store| {
            let (gx, gw, gb) = conv2d_backward(&xc, &wc, g, spec, ib.is_some());
            store.accumulate(ix, gx);
            store.accumulate(iw, gw);
            if let (Some(ib), Some(gb)) = (ib, gb) {
                store.accumulate(ib, gb);
            }
        })
    }

    /// 2-D max pooling.
    pub fn maxpool2d(&self, kernel: usize, stride: usize) -> Var {
        let x = &self.value;
        let (out, arg) = maxpool2d(x, kernel, stride);
        let ix = self.id;
        let dims = x.dims().to_vec();
        let n = x.numel();
        self.unary(out, move |g, store| {
            store.accumulate(ix, maxpool2d_backward(g, &arg, n, &dims));
        })
    }

    /// 2-D average pooling.
    pub fn avgpool2d(&self, kernel: usize, stride: usize) -> Var {
        let x = &self.value;
        let dims = x.dims().to_vec();
        let ix = self.id;
        self.unary(crate::conv::avgpool2d(x, kernel, stride), move |g, store| {
            store.accumulate(ix, crate::conv::avgpool2d_backward(g, kernel, stride, &dims));
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let x = &self.value;
        let out = ops::exp(x);
        let ix = self.id;
        let oc = out.clone();
        self.unary(out, move |g, store| {
            store.accumulate(ix, ops::mul(g, &oc));
        })
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        let x = &self.value;
        let ix = self.id;
        let xc = x.clone();
        self.unary(x.map(f32::ln), move |g, store| {
            store.accumulate(ix, ops::div(g, &xc));
        })
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let x = &self.value;
        let out = ops::tanh(x);
        let ix = self.id;
        let oc = out.clone();
        self.unary(out, move |g, store| {
            let ga = ops::zip_broadcast(g, &oc, |gv, t| gv * (1.0 - t * t));
            store.accumulate(ix, ga);
        })
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let x = &self.value;
        let out = ops::sigmoid(x);
        let ix = self.id;
        let oc = out.clone();
        self.unary(out, move |g, store| {
            let ga = ops::zip_broadcast(g, &oc, |gv, s| gv * s * (1.0 - s));
            store.accumulate(ix, ga);
        })
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        self.mul(&other.recip())
    }

    /// SiLU / swish activation: `x · sigmoid(x)`.
    pub fn silu(&self) -> Var {
        self.mul(&self.sigmoid())
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool(&self) -> Var {
        let x = &self.value;
        let (h, w) = (x.dims()[2], x.dims()[3]);
        let ix = self.id;
        self.unary(global_avg_pool(x), move |g, store| {
            store.accumulate(ix, global_avg_pool_backward(g, h, w));
        })
    }

    /// Reshape (free: gradients reshape back).
    pub fn reshape(&self, shape: impl Into<Shape>) -> Var {
        let x = &self.value;
        let old = x.shape().clone();
        let ix = self.id;
        self.unary(x.reshape(shape.into()), move |g, store| {
            store.accumulate(ix, g.reshape(old.clone()));
        })
    }

    /// Dimension permutation (gradient applies the inverse permutation).
    pub fn permute(&self, perm: &[usize]) -> Var {
        let x = &self.value;
        let ix = self.id;
        let perm_v = perm.to_vec();
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        self.unary(ops::permute(x, &perm_v), move |g, store| {
            store.accumulate(ix, ops::permute(g, &inv));
        })
    }

    /// Softmax over the last dimension.
    pub fn softmax_lastdim(&self) -> Var {
        let x = &self.value;
        let s = ops::softmax_lastdim(x);
        let ix = self.id;
        let sc = s.clone();
        self.unary(s, move |g, store| {
            // ds = (g - sum(g*s, last)) * s, rowwise.
            let cols = sc.dims()[sc.ndim() - 1];
            let mut out = Vec::with_capacity(sc.numel());
            for (grow, srow) in g.as_slice().chunks(cols).zip(sc.as_slice().chunks(cols)) {
                let dot: f32 = grow.iter().zip(srow).map(|(a, b)| a * b).sum();
                out.extend(grow.iter().zip(srow).map(|(gv, sv)| (gv - dot) * sv));
            }
            store.accumulate(ix, Tensor::from_vec(out, sc.shape().clone()));
        })
    }

    /// Mean over the listed axes, keeping them as extent-1 dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any axis is out of range.
    pub fn mean_axes_keepdim(&self, axes: &[usize]) -> Var {
        let x = &self.value;
        let mut cur = x.clone();
        let mut count = 1usize;
        for &ax in axes {
            count *= x.dims()[ax];
            cur = ops::sum_axis_keepdim(&cur, ax);
        }
        let out = ops::scale(&cur, 1.0 / count as f32);
        let ix = self.id;
        let in_shape = x.shape().clone();
        self.unary(out, move |g, store| {
            // Broadcast g back to the input shape and divide by count.
            let expanded =
                ops::add(&ops::scale(g, 1.0 / count as f32), &Tensor::zeros(in_shape.clone()));
            store.accumulate(ix, expanded);
        })
    }

    /// Sum of all elements, yielding a scalar.
    pub fn sum_all(&self) -> Var {
        let x = &self.value;
        let ix = self.id;
        let shape = x.shape().clone();
        self.unary(Tensor::scalar(x.sum_all()), move |g, store| {
            store.accumulate(ix, Tensor::full(shape.clone(), g.item()));
        })
    }

    /// Mean of all elements, yielding a scalar.
    pub fn mean_all(&self) -> Var {
        let n = self.value.numel() as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Applies an arbitrary tensor function in the forward pass with a
    /// straight-through (identity) backward pass.
    ///
    /// This is the hook point for number-format emulation during training:
    /// the quantiser runs in the forward pass, gradients flow through
    /// unchanged.
    pub fn apply_ste(&self, f: impl Fn(&Tensor) -> Tensor) -> Var {
        let x = &self.value;
        let out = f(x);
        assert_eq!(out.shape(), x.shape(), "apply_ste function must preserve shape");
        let ix = self.id;
        self.unary(out, move |g, store| {
            store.accumulate(ix, g.clone());
        })
    }

    /// Fused softmax-cross-entropy against integer class targets.
    ///
    /// `self` must be `[N, C]` logits; returns the scalar mean loss.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a target is out of range.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        let x = &self.value;
        assert_eq!(x.ndim(), 2, "cross_entropy expects [N, C] logits");
        let (n, c) = (x.dims()[0], x.dims()[1]);
        assert_eq!(targets.len(), n, "target count mismatch");
        for &t in targets {
            assert!(t < c, "target {} out of range for {} classes", t, c);
        }
        let logp = ops::log_softmax_lastdim(x);
        let loss =
            -targets.iter().enumerate().map(|(i, &t)| logp.as_slice()[i * c + t]).sum::<f32>()
                / n as f32;
        let ix = self.id;
        let probs = ops::softmax_lastdim(x);
        let tv = targets.to_vec();
        self.unary(Tensor::scalar(loss), move |g, store| {
            let gscale = g.item() / n as f32;
            let mut gx = probs.clone();
            for (i, &t) in tv.iter().enumerate() {
                let v = gx.as_slice()[i * c + t];
                gx.as_mut_slice()[i * c + t] = v - 1.0;
            }
            gx.map_inplace(|v| v * gscale);
            store.accumulate(ix, gx);
        })
    }

    /// Runs the backward pass from this (scalar) node and returns all
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called on a tape that was not recording.
    pub fn backward(&self) -> GradStore {
        let inner = self.tape.inner.borrow();
        assert!(inner.recording || !inner.entries.is_empty(), "backward() on a non-recording tape");
        let mut store = GradStore::new(inner.nodes);
        store.accumulate(self.id, Tensor::ones(self.value.shape().clone()));
        for entry in inner.entries.iter().rev() {
            let gout = store.grads[entry.output].take();
            if let Some(g) = gout {
                (entry.backward)(&g, &mut store);
                store.grads[entry.output] = Some(g);
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fd_check(
        f: impl Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic: &Tensor,
        eps: f32,
        tol: f32,
        points: &[usize],
    ) {
        for &i in points {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            assert!((got - fd).abs() < tol, "grad[{i}] analytic={got} fd={fd}");
        }
    }

    #[test]
    fn add_mul_grads() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let y = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], [2]));
        // z = sum(x*y + x)
        let z = x.mul(&y).add(&x).sum_all();
        let g = z.backward();
        assert_eq!(g.get(&x).unwrap().as_slice(), &[4.0, 5.0]); // y + 1
        assert_eq!(g.get(&y).unwrap().as_slice(), &[1.0, 2.0]); // x
    }

    #[test]
    fn broadcast_add_grad_reduces() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3]));
        let b = tape.leaf(Tensor::zeros([3]));
        let z = x.add(&b).sum_all();
        let g = z.backward();
        assert_eq!(g.get(&b).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_grad_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let a0 = Tensor::randn([3, 4], &mut rng);
        let b0 = Tensor::randn([4, 2], &mut rng);
        let tape = Tape::new();
        let a = tape.leaf(a0.clone());
        let b = tape.leaf(b0.clone());
        let loss = a.matmul(&b).sum_all();
        let g = tape_backward_loss(&loss);
        let ga = g.get(&a).unwrap().clone();
        fd_check(|t| matmul(t, &b0).sum_all(), &a0, &ga, 1e-2, 1e-2, &[0, 5, 11]);
        let gb = g.get(&b).unwrap().clone();
        fd_check(|t| matmul(&a0, t).sum_all(), &b0, &gb, 1e-2, 1e-2, &[0, 3, 7]);
    }

    fn tape_backward_loss(loss: &Var) -> GradStore {
        loss.backward()
    }

    #[test]
    fn relu_grad_masks() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], [4]));
        let g = x.relu().sum_all().backward();
        assert_eq!(g.get(&x).unwrap().as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_grad_finite_difference() {
        let mut rng = StdRng::seed_from_u64(9);
        let x0 = Tensor::randn([2, 5], &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        // Weighted sum to get a non-trivial gradient.
        let wts = Tensor::arange(10).reshape([2, 5]);
        let w = tape.leaf(wts.clone());
        let loss = x.softmax_lastdim().mul(&w).sum_all();
        let g = loss.backward();
        let gx = g.get(&x).unwrap().clone();
        fd_check(
            |t| ops::mul(&ops::softmax_lastdim(t), &wts).sum_all(),
            &x0,
            &gx,
            1e-2,
            1e-2,
            &[0, 3, 7, 9],
        );
    }

    #[test]
    fn cross_entropy_grad_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let x0 = Tensor::randn([3, 4], &mut rng);
        let targets = vec![0usize, 2, 3];
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = x.cross_entropy(&targets);
        let g = loss.backward();
        let gx = g.get(&x).unwrap().clone();
        let f = |t: &Tensor| {
            let lp = ops::log_softmax_lastdim(t);
            -targets.iter().enumerate().map(|(i, &c)| lp.as_slice()[i * 4 + c]).sum::<f32>() / 3.0
        };
        fd_check(f, &x0, &gx, 1e-2, 1e-2, &[0, 5, 11]);
    }

    #[test]
    fn conv_via_tape_matches_direct_backward() {
        let mut rng = StdRng::seed_from_u64(21);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x0 = Tensor::randn([1, 2, 4, 4], &mut rng);
        let w0 = Tensor::randn([3, 2, 3, 3], &mut rng);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let loss = x.conv2d(&w, None, spec).sum_all();
        let g = loss.backward();
        let go = Tensor::ones([1, 3, 4, 4]);
        let (gx, gw, _) = conv2d_backward(&x0, &w0, &go, spec, false);
        assert!(g.get(&x).unwrap().allclose(&gx, 1e-5));
        assert!(g.get(&w).unwrap().allclose(&gw, 1e-5));
    }

    #[test]
    fn apply_ste_passes_grad_through() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, 1.7], [2]));
        // Quantise to integers in forward; STE in backward.
        let y = x.apply_ste(|t| t.map(f32::round));
        assert_eq!(y.value().as_slice(), &[0.0, 2.0]);
        let g = y.sum_all().backward();
        assert_eq!(g.get(&x).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn inference_tape_records_nothing() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::ones([4]));
        let _y = x.relu().scale(2.0);
        assert_eq!(tape.inner.borrow().entries.len(), 0);
    }

    #[test]
    fn var_value_shares_the_node_buffer() {
        let tape = Tape::inference();
        let t = Tensor::arange(4);
        let x = tape.leaf(t.clone());
        assert_eq!(x.value().as_slice().as_ptr(), t.as_slice().as_ptr());
        let y = x.reshape([2, 2]);
        assert_eq!(y.value().as_slice().as_ptr(), t.as_slice().as_ptr());
    }

    #[test]
    fn inference_tape_retains_no_values() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::arange(8));
        let y = x.relu();
        let held = y.value();
        let p = held.as_slice().as_ptr();
        drop(y);
        assert_eq!(tape.len(), 2);
        // `into_vec` copies a shared buffer, so an unmoved pointer proves
        // `held` was the last owner: neither the tape nor a closure kept it.
        let v = held.into_vec();
        assert_eq!(v.as_ptr(), p);
    }

    #[test]
    fn mean_axes_keepdim_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(12).reshape([2, 2, 3]));
        let m = x.mean_axes_keepdim(&[0, 2]);
        assert_eq!(m.shape().dims(), &[1, 2, 1]);
        let g = m.sum_all().backward();
        // Each input element contributes 1/6 to its group mean.
        let gx = g.get(&x).unwrap();
        assert!(gx.allclose(&Tensor::full([2, 2, 3], 1.0 / 6.0), 1e-6));
    }

    #[test]
    fn permute_reshape_grads_are_inverse() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(6).reshape([2, 3]));
        let y = x.permute(&[1, 0]).reshape([6]);
        let g = y.sum_all().backward();
        assert_eq!(g.get(&x).unwrap().dims(), &[2, 3]);
        assert!(g.get(&x).unwrap().allclose(&Tensor::ones([2, 3]), 1e-6));
    }

    #[test]
    fn elementwise_op_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(33);
        let x0 = {
            // Strictly positive inputs so ln() is well-defined.
            let mut t = Tensor::randn([8], &mut rng);
            t.map_inplace(|v| v.abs() + 0.2);
            t
        };
        type OpPair = (&'static str, fn(&Var) -> Var, fn(f32) -> f32);
        let cases: Vec<OpPair> = vec![
            ("exp", |v| v.exp(), f32::exp),
            ("ln", |v| v.ln(), f32::ln),
            ("tanh", |v| v.tanh(), f32::tanh),
            ("sigmoid", |v| v.sigmoid(), |x| 1.0 / (1.0 + (-x).exp())),
            ("silu", |v| v.silu(), |x| x / (1.0 + (-x).exp())),
            ("sqrt", |v| v.sqrt(), f32::sqrt),
        ];
        for (name, op, scalar) in cases {
            let tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let g = op(&x).sum_all().backward();
            let gx = g.get(&x).unwrap();
            let eps = 1e-3;
            for i in 0..x0.numel() {
                let xv = x0.as_slice()[i];
                let fd = (scalar(xv + eps) - scalar(xv - eps)) / (2.0 * eps);
                assert!(
                    (gx.as_slice()[i] - fd).abs() < 2e-2,
                    "{name}'({xv}) = {} vs fd {}",
                    gx.as_slice()[i],
                    fd
                );
            }
        }
    }

    #[test]
    fn div_grad_matches_finite_difference() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![3.0, -1.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![2.0, 4.0], [2]));
        let g = a.div(&b).sum_all().backward();
        assert!(g.get(&a).unwrap().allclose(&Tensor::from_vec(vec![0.5, 0.25], [2]), 1e-5));
        // d(a/b)/db = -a/b²
        assert!(g.get(&b).unwrap().allclose(&Tensor::from_vec(vec![-0.75, 1.0 / 16.0], [2]), 1e-5));
    }

    #[test]
    fn avgpool_grad_spreads_uniformly() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(16).reshape([1, 1, 4, 4]));
        let y = x.avgpool2d(2, 2);
        assert_eq!(y.value().as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let g = y.sum_all().backward();
        assert!(g.get(&x).unwrap().allclose(&Tensor::full([1, 1, 4, 4], 0.25), 1e-6));
    }

    #[test]
    fn grad_accumulates_across_reuse() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3.0], [1]));
        // y = x + x → dy/dx = 2
        let y = x.add(&x).sum_all();
        let g = y.backward();
        assert_eq!(g.get(&x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn second_branch_not_differentiated_has_no_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2]));
        let y = tape.leaf(Tensor::ones([2]));
        let loss = x.scale(2.0).sum_all();
        let g = loss.backward();
        assert!(g.get(&y).is_none());
    }
}
