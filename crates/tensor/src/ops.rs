//! Elementwise, broadcasting, reduction, and shape-manipulation operations.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Applies a binary operation elementwise with NumPy-style broadcasting.
///
/// The broadcast is walked as strided loops: each operand gets its strides
/// in output space (0 along broadcast dimensions), extent-1 dimensions are
/// dropped, and adjacent dimensions merge wherever both operands stay
/// linear across them. The innermost loop then runs over one contiguous
/// run with each operand either advancing by 1 or held fixed. `f` sees the
/// same pairs in the same row-major order as a per-element walk would.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn zip_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    if a.shape() == b.shape() {
        // Fast path: identical shapes.
        let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
        return Tensor::from_vec(data, a.shape().clone());
    }
    let out_shape = Shape::broadcast(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!("shapes {:?} and {:?} are not broadcast-compatible", a.shape(), b.shape())
    });
    let n = out_shape.numel();
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Tensor::from_vec(out, out_shape);
    }
    let loops = broadcast_loops(out_shape.dims(), a, b);
    let (x, y) = (a.as_slice(), b.as_slice());
    let (inner, inner_a, inner_b) = *loops.last().expect("broadcast_loops yields a loop");
    let outer = &loops[..loops.len() - 1];
    let mut idx = vec![0usize; outer.len()];
    let (mut ao, mut bo) = (0usize, 0usize);
    for _ in 0..n / inner {
        match (inner_a, inner_b) {
            (1, 1) => out.extend(
                x[ao..ao + inner].iter().zip(&y[bo..bo + inner]).map(|(&xv, &yv)| f(xv, yv)),
            ),
            (1, 0) => {
                let yv = y[bo];
                out.extend(x[ao..ao + inner].iter().map(|&xv| f(xv, yv)));
            }
            (0, 1) => {
                let xv = x[ao];
                out.extend(y[bo..bo + inner].iter().map(|&yv| f(xv, yv)));
            }
            (sa, sb) => out.extend((0..inner).map(|i| f(x[ao + i * sa], y[bo + i * sb]))),
        }
        // Advance the outer multi-index, carrying the operand offsets.
        for (d, &(extent, sa, sb)) in outer.iter().enumerate().rev() {
            idx[d] += 1;
            ao += sa;
            bo += sb;
            if idx[d] < extent {
                break;
            }
            idx[d] = 0;
            ao -= sa * extent;
            bo -= sb * extent;
        }
    }
    Tensor::from_vec(out, out_shape)
}

/// The loop nest of a broadcast over `out_dims`, outermost first, as
/// `(extent, a_stride, b_stride)`: strides in elements, 0 where the operand
/// is broadcast. Extent-1 dimensions are dropped and adjacent dimensions
/// that both operands traverse linearly are merged. Never empty: a
/// one-element output yields the single loop `(1, 0, 0)`.
fn broadcast_loops(out_dims: &[usize], a: &Tensor, b: &Tensor) -> Vec<(usize, usize, usize)> {
    let nd = out_dims.len();
    let (a_strides, b_strides) = (a.shape().strides(), b.shape().strides());
    let stride_in_out = |t: &Tensor, strides: &[usize], d: usize| {
        let lead = nd - t.ndim();
        if d < lead || t.dims()[d - lead] == 1 {
            0
        } else {
            strides[d - lead]
        }
    };
    let mut loops: Vec<(usize, usize, usize)> = Vec::with_capacity(nd);
    for (d, &extent) in out_dims.iter().enumerate() {
        if extent == 1 {
            continue;
        }
        let (sa, sb) = (stride_in_out(a, &a_strides, d), stride_in_out(b, &b_strides, d));
        match loops.last_mut() {
            Some(prev) if prev.1 == sa * extent && prev.2 == sb * extent => {
                *prev = (prev.0 * extent, sa, sb);
            }
            _ => loops.push((extent, sa, sb)),
        }
    }
    if loops.is_empty() {
        loops.push((1, 0, 0));
    }
    loops
}

/// The per-element reference walk of a broadcast: rebuilds both operand
/// offsets from the full multi-index of every output element.
/// [`zip_broadcast`] must match it bit for bit.
#[cfg(test)]
fn zip_broadcast_oracle(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out_shape = Shape::broadcast(a.shape(), b.shape()).expect("broadcast-compatible");
    let n = out_shape.numel();
    let mut out = Vec::with_capacity(n);
    let a_dims = a.dims();
    let b_dims = b.dims();
    let a_strides = a.shape().strides();
    let b_strides = b.shape().strides();
    let nd = out_shape.ndim();
    let mut idx = vec![0usize; nd];
    for _ in 0..n {
        let mut ao = 0;
        let mut bo = 0;
        for (d, &id) in idx.iter().enumerate() {
            if nd - d <= a_dims.len() {
                let ad = d - (nd - a_dims.len());
                if a_dims[ad] != 1 {
                    ao += id * a_strides[ad];
                }
            }
            if nd - d <= b_dims.len() {
                let bd = d - (nd - b_dims.len());
                if b_dims[bd] != 1 {
                    bo += id * b_strides[bd];
                }
            }
        }
        out.push(f(a.as_slice()[ao], b.as_slice()[bo]));
        // Increment the multi-index.
        for (dim, id) in idx.iter_mut().enumerate().rev() {
            *id += 1;
            if *id < out_shape.dim(dim) {
                break;
            }
            *id = 0;
        }
    }
    Tensor::from_vec(out, out_shape)
}

/// Elementwise sum with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x + y)
}

/// Elementwise difference with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x - y)
}

/// Elementwise product with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x * y)
}

/// Elementwise quotient with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    zip_broadcast(a, b, |x, y| x / y)
}

/// Multiplies every element by a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// Adds a scalar to every element.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x + s)
}

/// Rectified linear unit: `max(x, 0)`.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(|x| x.max(0.0))
}

/// Gaussian error linear unit (tanh approximation, as used by DeiT/BERT).
pub fn gelu(a: &Tensor) -> Tensor {
    a.map(gelu_scalar)
}

pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximated GELU.
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Sums over the last `k` dimensions, collapsing them.
///
/// `sum_trailing(x, 1)` on a `[N, C]` tensor gives `[N]`.
///
/// # Panics
///
/// Panics if `k > x.ndim()`.
pub fn sum_trailing(x: &Tensor, k: usize) -> Tensor {
    let nd = x.ndim();
    assert!(k <= nd, "cannot sum {} trailing dims of {:?}", k, x.shape());
    let keep: usize = x.dims()[..nd - k].iter().product::<usize>().max(1);
    let red: usize = x.dims()[nd - k..].iter().product::<usize>().max(1);
    let mut out = vec![0.0f32; keep];
    for (i, chunk) in x.as_slice().chunks(red).enumerate() {
        out[i] = chunk.iter().sum();
    }
    Tensor::from_vec(out, x.dims()[..nd - k].to_vec())
}

/// Means over the last `k` dimensions, collapsing them.
pub fn mean_trailing(x: &Tensor, k: usize) -> Tensor {
    let nd = x.ndim();
    let red: usize = x.dims()[nd - k..].iter().product::<usize>().max(1);
    scale(&sum_trailing(x, k), 1.0 / red as f32)
}

/// Row-wise softmax over the last dimension, numerically stabilised.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let nd = x.ndim();
    assert!(nd >= 1, "softmax requires at least one dimension");
    let cols = x.dims()[nd - 1];
    let mut out = Vec::with_capacity(x.numel());
    for row in x.as_slice().chunks(cols) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let s: f32 = exps.iter().sum();
        out.extend(exps.iter().map(|e| e / s));
    }
    Tensor::from_vec(out, x.shape().clone())
}

/// Row-wise log-softmax over the last dimension, numerically stabilised.
pub fn log_softmax_lastdim(x: &Tensor) -> Tensor {
    let nd = x.ndim();
    let cols = x.dims()[nd - 1];
    let mut out = Vec::with_capacity(x.numel());
    for row in x.as_slice().chunks(cols) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        out.extend(row.iter().map(|&v| v - lse));
    }
    Tensor::from_vec(out, x.shape().clone())
}

/// Index of the maximum element in each row of a `[N, C]` tensor.
///
/// # Panics
///
/// Panics if `x` is not 2-dimensional.
pub fn argmax_rows(x: &Tensor) -> Vec<usize> {
    assert_eq!(x.ndim(), 2, "argmax_rows expects [N, C], got {:?}", x.shape());
    let cols = x.dims()[1];
    x.as_slice()
        .chunks(cols)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Permutes dimensions: `out[idx] = x[idx[perm]]` in the transposed layout.
///
/// `permute(x, &[1, 0])` is the classic matrix transpose.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..ndim`.
pub fn permute(x: &Tensor, perm: &[usize]) -> Tensor {
    let nd = x.ndim();
    assert_eq!(perm.len(), nd, "permutation arity mismatch for {:?}", x.shape());
    let mut seen = vec![false; nd];
    for &p in perm {
        assert!(p < nd && !seen[p], "invalid permutation {:?}", perm);
        seen[p] = true;
    }
    let old_dims = x.dims();
    let old_strides = x.shape().strides();
    let new_dims: Vec<usize> = perm.iter().map(|&p| old_dims[p]).collect();
    let new_shape = Shape::new(new_dims.clone());
    let n = x.numel();
    let mut out = vec![0.0f32; n];
    let mut idx = vec![0usize; nd];
    for item in out.iter_mut().take(n) {
        let mut src = 0;
        for d in 0..nd {
            src += idx[d] * old_strides[perm[d]];
        }
        *item = x.as_slice()[src];
        for (dim, id) in idx.iter_mut().enumerate().rev() {
            *id += 1;
            if *id < new_dims[dim] {
                break;
            }
            *id = 0;
        }
    }
    Tensor::from_vec(out, new_shape)
}

/// 2-D matrix transpose. Shorthand for `permute(x, &[1, 0])`.
///
/// # Panics
///
/// Panics if `x` is not 2-dimensional.
pub fn transpose2(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "transpose2 expects a matrix, got {:?}", x.shape());
    permute(x, &[1, 0])
}

/// Concatenates tensors along dimension `dim`.
///
/// # Panics
///
/// Panics if shapes disagree outside `dim`, or `parts` is empty.
pub fn concat(parts: &[&Tensor], dim: usize) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let nd = parts[0].ndim();
    assert!(dim < nd, "concat dim {} out of range", dim);
    let outer: usize = parts[0].dims()[..dim].iter().product::<usize>().max(1);
    let inner: usize = parts[0].dims()[dim + 1..].iter().product::<usize>().max(1);
    let mut cat_dim = 0;
    for p in parts {
        assert_eq!(p.ndim(), nd, "concat rank mismatch");
        for d in 0..nd {
            if d != dim {
                assert_eq!(p.dims()[d], parts[0].dims()[d], "concat shape mismatch at dim {d}");
            }
        }
        cat_dim += p.dims()[dim];
    }
    let mut out_dims = parts[0].dims().to_vec();
    out_dims[dim] = cat_dim;
    let mut out = Vec::with_capacity(outer * cat_dim * inner);
    for o in 0..outer {
        for p in parts {
            let rows = p.dims()[dim];
            let start = o * rows * inner;
            out.extend_from_slice(&p.as_slice()[start..start + rows * inner]);
        }
    }
    Tensor::from_vec(out, out_dims)
}

/// Repeats `x` `n` times along dimension 0: `[B, ...] → [n·B, ...]`, with
/// copy `r` occupying rows `r·B..(r+1)·B` — the contiguous replica layout
/// batched fault trials pack into one forward pass.
///
/// # Panics
///
/// Panics if `n == 0` or `x` has no dimensions.
pub fn tile_batch(x: &Tensor, n: usize) -> Tensor {
    assert!(n >= 1, "tile_batch needs at least one copy");
    assert!(x.ndim() >= 1, "tile_batch needs a batch dimension");
    let src = x.as_slice();
    let mut out = Vec::with_capacity(src.len() * n);
    for _ in 0..n {
        out.extend_from_slice(src);
    }
    let mut dims = x.dims().to_vec();
    dims[0] *= n;
    Tensor::from_vec(out, dims)
}

/// Extracts `x[.., start..start+len, ..]` along dimension `dim`.
///
/// # Panics
///
/// Panics if the slice is out of range.
pub fn narrow(x: &Tensor, dim: usize, start: usize, len: usize) -> Tensor {
    let nd = x.ndim();
    assert!(dim < nd, "narrow dim {} out of range", dim);
    assert!(start + len <= x.dims()[dim], "narrow out of range for {:?}", x.shape());
    let outer: usize = x.dims()[..dim].iter().product::<usize>().max(1);
    let inner: usize = x.dims()[dim + 1..].iter().product::<usize>().max(1);
    let full = x.dims()[dim];
    let mut out = Vec::with_capacity(outer * len * inner);
    for o in 0..outer {
        let base = o * full * inner + start * inner;
        out.extend_from_slice(&x.as_slice()[base..base + len * inner]);
    }
    let mut dims = x.dims().to_vec();
    dims[dim] = len;
    Tensor::from_vec(out, dims)
}

/// Reduces `grad` (shaped like the broadcast output) back to `shape` by
/// summing over broadcast dimensions. This is the adjoint of broadcasting.
pub fn reduce_to_shape(grad: &Tensor, shape: &Shape) -> Tensor {
    if grad.shape() == shape {
        return grad.clone();
    }
    let gnd = grad.ndim();
    let snd = shape.ndim();
    // Sum leading extra dims.
    let mut cur = grad.clone();
    if gnd > snd {
        let lead: usize = grad.dims()[..gnd - snd].iter().product();
        let rest: usize = grad.dims()[gnd - snd..].iter().product::<usize>().max(1);
        let mut out = vec![0.0f32; rest];
        for l in 0..lead {
            for (r, item) in out.iter_mut().enumerate() {
                *item += cur.as_slice()[l * rest + r];
            }
        }
        cur = Tensor::from_vec(out, grad.dims()[gnd - snd..].to_vec());
    }
    // Sum dims where target extent is 1.
    for d in 0..snd {
        if shape.dim(d) == 1 && cur.dim_or(d, 1) != 1 {
            cur = sum_axis_keepdim(&cur, d);
        }
    }
    assert_eq!(cur.shape(), shape, "reduce_to_shape failed to match {:?}", shape);
    cur
}

impl Tensor {
    fn dim_or(&self, d: usize, default: usize) -> usize {
        if d < self.ndim() {
            self.dims()[d]
        } else {
            default
        }
    }
}

/// Sums along axis `d`, keeping the dimension with extent 1.
pub fn sum_axis_keepdim(x: &Tensor, d: usize) -> Tensor {
    let nd = x.ndim();
    assert!(d < nd);
    let outer: usize = x.dims()[..d].iter().product::<usize>().max(1);
    let axis = x.dims()[d];
    let inner: usize = x.dims()[d + 1..].iter().product::<usize>().max(1);
    let mut out = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for a in 0..axis {
            let base = (o * axis + a) * inner;
            for i in 0..inner {
                out[o * inner + i] += x.as_slice()[base + i];
            }
        }
    }
    let mut dims = x.dims().to_vec();
    dims[d] = 1;
    Tensor::from_vec(out, dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data, [r, c])
    }

    #[test]
    fn add_same_shape() {
        let a = t2(vec![1., 2., 3., 4.], 2, 2);
        let b = t2(vec![10., 20., 30., 40.], 2, 2);
        assert_eq!(add(&a, &b).as_slice(), &[11., 22., 33., 44.]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = t2(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        let b = Tensor::from_vec(vec![10., 20., 30.], [3]);
        assert_eq!(add(&a, &b).as_slice(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn add_broadcast_col() {
        let a = t2(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        let b = Tensor::from_vec(vec![100., 200.], [2, 1]);
        assert_eq!(add(&a, &b).as_slice(), &[101., 102., 103., 204., 205., 206.]);
    }

    #[test]
    #[should_panic(expected = "broadcast-compatible")]
    fn add_incompatible_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4]);
        add(&a, &b);
    }

    #[test]
    fn mul_scalar_tensor() {
        let a = t2(vec![1., 2., 3., 4.], 2, 2);
        let s = Tensor::scalar(2.0);
        assert_eq!(mul(&a, &s).as_slice(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t2(vec![1., 2., 3., 1000., 1000., 1000.], 2, 3);
        let s = softmax_lastdim(&x);
        let rows: Vec<f32> = s.as_slice().chunks(3).map(|r| r.iter().sum()).collect();
        assert!((rows[0] - 1.0).abs() < 1e-6);
        assert!((rows[1] - 1.0).abs() < 1e-6);
        assert!(s.all_finite(), "softmax must be stable for large inputs");
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = t2(vec![0.5, -1.0, 2.0, 0.0, 0.0, 0.0], 2, 3);
        let a = log_softmax_lastdim(&x);
        let b = softmax_lastdim(&x).map(f32::ln);
        assert!(a.allclose(&b, 1e-5));
    }

    #[test]
    fn argmax_rows_basic() {
        let x = t2(vec![1., 5., 3., 9., 2., 0.], 2, 3);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn permute_transpose() {
        let x = t2(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        let t = transpose2(&x);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn permute_3d() {
        let x = Tensor::arange(24).reshape([2, 3, 4]);
        let p = permute(&x, &[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), x.at(&[0, 2, 1]));
    }

    #[test]
    fn concat_and_narrow_roundtrip() {
        let x = Tensor::arange(12).reshape([2, 6]);
        let a = narrow(&x, 1, 0, 2);
        let b = narrow(&x, 1, 2, 4);
        let back = concat(&[&a, &b], 1);
        assert_eq!(back, x);
    }

    #[test]
    fn concat_dim0() {
        let a = Tensor::arange(4).reshape([2, 2]);
        let b = Tensor::arange(2).reshape([1, 2]);
        let c = concat(&[&a, &b], 0);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[0., 1., 2., 3., 0., 1.]);
    }

    #[test]
    fn sum_mean_trailing() {
        let x = Tensor::arange(6).reshape([2, 3]);
        assert_eq!(sum_trailing(&x, 1).as_slice(), &[3.0, 12.0]);
        assert_eq!(mean_trailing(&x, 1).as_slice(), &[1.0, 4.0]);
        assert_eq!(sum_trailing(&x, 2).item(), 15.0);
    }

    #[test]
    fn sum_axis_keepdim_middle() {
        let x = Tensor::arange(8).reshape([2, 2, 2]);
        let s = sum_axis_keepdim(&x, 1);
        assert_eq!(s.dims(), &[2, 1, 2]);
        assert_eq!(s.as_slice(), &[2., 4., 10., 12.]);
    }

    #[test]
    fn reduce_to_shape_broadcast_adjoint() {
        let g = Tensor::ones([2, 3]);
        let r = reduce_to_shape(&g, &Shape::new(vec![3]));
        assert_eq!(r.as_slice(), &[2., 2., 2.]);
        let r2 = reduce_to_shape(&g, &Shape::new(vec![2, 1]));
        assert_eq!(r2.as_slice(), &[3., 3.]);
        let r3 = reduce_to_shape(&g, &Shape::scalar());
        assert_eq!(r3.item(), 6.0);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad_scalar(x) - fd).abs() < 1e-2,
                "gelu'({x}) = {} vs fd {}",
                gelu_grad_scalar(x),
                fd
            );
        }
    }

    /// A tensor of `dims` holding distinct values, with -0.0, NaN and ±∞
    /// mixed in so bitwise comparison covers the special encodings.
    fn probe(dims: &[usize], salt: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|i| match i % 11 {
                3 => -0.0,
                5 => f32::NAN,
                7 => f32::INFINITY,
                9 => f32::NEG_INFINITY,
                _ => i as f32 * 0.37 - salt,
            })
            .collect();
        Tensor::from_vec(data, dims.to_vec())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Binary ops the oracle check runs: operand order matters for all
    /// but the first two, so a swapped pair cannot pass.
    const BINARY_OPS: [fn(f32, f32) -> f32; 5] =
        [|x, y| x + y, |x, y| x * y, |x, y| x - y, |x, y| x / y, |x, y| x - 2.0 * y];

    fn check_against_oracle(a: &Tensor, b: &Tensor) -> Result<(), String> {
        for (k, f) in BINARY_OPS.iter().enumerate() {
            let got = zip_broadcast(a, b, f);
            let want = zip_broadcast_oracle(a, b, f);
            if got.shape() != want.shape() || bits(&got) != bits(&want) {
                return Err(format!(
                    "op {k}: {:?} x {:?} gave {got:?}, oracle {want:?}",
                    a.shape(),
                    b.shape()
                ));
            }
        }
        Ok(())
    }

    /// An operand of rank `rank` aligned to the trailing dims of `full`,
    /// with dim `d` set to extent 1 where bit `d` of `ones` is set.
    fn operand_dims(full: &[usize], rank: usize, ones: u32) -> Vec<usize> {
        let rank = rank.min(full.len());
        full[full.len() - rank..]
            .iter()
            .enumerate()
            .map(|(d, &e)| if ones >> d & 1 == 1 { 1 } else { e })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn zip_broadcast_matches_the_per_element_oracle(
            full in proptest::collection::vec(0usize..=5, 0..=5),
            a_rank in 0usize..=5,
            b_rank in 0usize..=5,
            a_ones in 0u32..32,
            b_ones in 0u32..32,
        ) {
            let a = probe(&operand_dims(&full, a_rank, a_ones), 1.5);
            let b = probe(&operand_dims(&full, b_rank, b_ones), -2.25);
            if let Err(msg) = check_against_oracle(&a, &b) {
                proptest::prop_assert!(false, "{}", msg);
            }
        }
    }

    #[test]
    fn zip_broadcast_matches_the_oracle_on_model_shapes() {
        let rows: [(&[usize], &[usize]); 4] = [
            (&[4, 8, 6, 6], &[1, 8, 1, 1]), // batch-norm scale/shift
            (&[2, 5, 16], &[2, 5, 1]),      // layer-norm row statistics
            (&[2, 5, 16], &[16]),           // layer-norm affine, bias
            (&[3, 1, 4], &[2, 1]),          // both sides broadcast
        ];
        for (x, y) in rows {
            let (a, b) = (probe(x, 0.5), probe(y, -1.0));
            check_against_oracle(&a, &b).unwrap();
            check_against_oracle(&b, &a).unwrap();
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }
}
