//! Elementwise, broadcasting, reduction, and shape-manipulation operations.

use std::sync::OnceLock;
use std::time::Instant;

use crate::linalg::kernels;
use crate::math::{self, LaneMap, Lanes, LANES};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace;

/// Wall-time histograms of the non-GEMM ops a transformer forward spends
/// its time in, recorded only while [`trace::recording`].
struct OpMetrics {
    gelu_ns: &'static trace::Metric,
    softmax_ns: &'static trace::Metric,
    permute_ns: &'static trace::Metric,
}

fn op_metrics() -> &'static OpMetrics {
    static METRICS: OnceLock<OpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| OpMetrics {
        gelu_ns: trace::histogram(trace::names::TENSOR_GELU_NS),
        softmax_ns: trace::histogram(trace::names::TENSOR_SOFTMAX_NS),
        permute_ns: trace::histogram(trace::names::TENSOR_PERMUTE_NS),
    })
}

/// Runs `f`, recording its wall time under `metric` when tracing records.
fn timed<T>(metric: fn(&OpMetrics) -> &'static trace::Metric, f: impl FnOnce() -> T) -> T {
    if !trace::recording() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    metric(op_metrics()).record(t.elapsed().as_nanos() as u64);
    out
}

/// `x` with the lane map `M` applied to every element.
fn map_lanes<M: LaneMap>(x: &Tensor) -> Tensor {
    let mut out = workspace::with_capacity(x.numel());
    out.extend_from_slice(x.as_slice());
    math::map_in_place::<M>(&mut out);
    Tensor::from_buffer(out, x.shape().clone())
}

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
        let mut out = workspace::with_capacity(a.numel());
        out.extend(a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)));
        return Tensor::from_buffer(out, a.shape().clone());
    }
    let out_shape = Shape::broadcast(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!("shapes {:?} and {:?} are not broadcast-compatible", a.shape(), b.shape())
    });
    let n = out_shape.numel();
    let mut out = workspace::with_capacity(n);
    if n == 0 {
        return Tensor::from_buffer(out, out_shape);
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
    Tensor::from_buffer(out, out_shape)
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

/// Gaussian error linear unit (tanh approximation, as used by DeiT/BERT):
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, with [`math::tanhf`].
pub fn gelu(a: &Tensor) -> Tensor {
    timed(|m| m.gelu_ns, || map_lanes::<Gelu>(a))
}

/// Derivative of the tanh-approximated GELU at every element of `x`.
pub(crate) fn gelu_grad(x: &Tensor) -> Tensor {
    map_lanes::<GeluGrad>(x)
}

/// `√(2/π)` in the GELU approximation.
const GELU_C: f32 = 0.797_884_6;

struct Gelu;

impl LaneMap for Gelu {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        let mut u = [0.0f32; LANES];
        for i in 0..LANES {
            u[i] = GELU_C * (x[i] + 0.044715 * x[i] * x[i] * x[i]);
        }
        let t = math::tanh_lanes(&u);
        let mut out = [0.0f32; LANES];
        for i in 0..LANES {
            out[i] = 0.5 * x[i] * (1.0 + t[i]);
        }
        out
    }
}

struct GeluGrad;

impl LaneMap for GeluGrad {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        let mut u = [0.0f32; LANES];
        for i in 0..LANES {
            let x3 = x[i] * x[i] * x[i];
            u[i] = GELU_C * (x[i] + 0.044715 * x3);
        }
        let t = math::tanh_lanes(&u);
        let mut out = [0.0f32; LANES];
        for i in 0..LANES {
            let (x, t) = (x[i], t[i]);
            let sech2 = 1.0 - t * t;
            out[i] = 0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
        }
        out
    }
}

/// Elementwise `exp(x)`, with [`math::expf`].
pub(crate) fn exp(a: &Tensor) -> Tensor {
    map_lanes::<math::Exp>(a)
}

/// Elementwise `tanh(x)`, with [`math::tanhf`].
pub(crate) fn tanh(a: &Tensor) -> Tensor {
    map_lanes::<math::Tanh>(a)
}

/// Elementwise logistic sigmoid `1 / (1 + exp(-x))`, with [`math::expf`].
pub(crate) fn sigmoid(a: &Tensor) -> Tensor {
    map_lanes::<Sigmoid>(a)
}

struct Sigmoid;

impl LaneMap for Sigmoid {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        let e = math::exp_lanes(&x.map(|v| -v));
        e.map(|e| 1.0 / (1.0 + e))
    }
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

/// Row-wise softmax over the last dimension, numerically stabilised:
/// `exp(x - max) / Σ exp(x - max)` per row, with [`math::expf`].
///
/// A zero-width last dimension gives an empty tensor of the input's shape.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    timed(
        |m| m.softmax_ns,
        || {
            let Some((cols, mut out, _)) = shifted_exps(x) else {
                return Tensor::zeros(x.shape().clone());
            };
            let mut sums = vec![0.0f32; x.numel() / cols];
            row_sums(&out, cols, &mut sums);
            for (row, &s) in out.chunks_mut(cols).zip(&sums) {
                for e in row {
                    *e /= s;
                }
            }
            Tensor::from_buffer(out, x.shape().clone())
        },
    )
}

/// Row-wise log-softmax over the last dimension, numerically stabilised:
/// `x - (max + ln Σ exp(x - max))` per row.
///
/// A zero-width last dimension gives an empty tensor of the input's shape.
pub fn log_softmax_lastdim(x: &Tensor) -> Tensor {
    timed(
        |m| m.softmax_ns,
        || {
            let Some((cols, mut out, maxes)) = shifted_exps(x) else {
                return Tensor::zeros(x.shape().clone());
            };
            let mut sums = vec![0.0f32; maxes.len()];
            row_sums(&out, cols, &mut sums);
            for ((dst, row), (&m, &s)) in
                out.chunks_mut(cols).zip(x.as_slice().chunks(cols)).zip(maxes.iter().zip(&sums))
            {
                let lse = m + s.ln();
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = v - lse;
                }
            }
            Tensor::from_buffer(out, x.shape().clone())
        },
    )
}

/// The shared first half of the softmax row kernels: the last-dimension
/// width, `exp(x - max)` per element and each row's max. `None` for a
/// zero-width last dimension.
fn shifted_exps(x: &Tensor) -> Option<(usize, workspace::Buffer, Vec<f32>)> {
    assert!(x.ndim() >= 1, "softmax requires at least one dimension");
    let cols = x.dims()[x.ndim() - 1];
    if cols == 0 {
        return None;
    }
    let mut out = workspace::zeroed(x.numel());
    let mut maxes = Vec::with_capacity(x.numel() / cols);
    for (dst, row) in out.chunks_mut(cols).zip(x.as_slice().chunks(cols)) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = v - m;
        }
        maxes.push(m);
    }
    math::map_in_place::<math::Exp>(&mut out);
    Some((cols, out, maxes))
}

/// `out[r] = Σ x[r·cols .. (r+1)·cols]`, each row summed left to right
/// from `0.0`, as a sequential loop would. Rows are summed [`ROW_BLOCK`]
/// at a time so their independent addition chains overlap.
#[allow(clippy::needless_range_loop)] // the block's rows advance column by column in lock step
fn row_sums(x: &[f32], cols: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), cols * out.len());
    let mut blocks = out.chunks_exact_mut(ROW_BLOCK);
    let mut r0 = 0;
    for block in &mut blocks {
        let rows: [&[f32]; ROW_BLOCK] =
            std::array::from_fn(|i| &x[(r0 + i) * cols..(r0 + i + 1) * cols]);
        let mut acc = [0.0f32; ROW_BLOCK];
        for c in 0..cols {
            for i in 0..ROW_BLOCK {
                acc[i] += rows[i][c];
            }
        }
        block.copy_from_slice(&acc);
        r0 += ROW_BLOCK;
    }
    for (i, o) in blocks.into_remainder().iter_mut().enumerate() {
        let row = &x[(r0 + i) * cols..(r0 + i + 1) * cols];
        *o = row.iter().fold(0.0, |acc, &v| acc + v);
    }
}

/// Rows [`row_sums`] and [`layer_norm_lastdim`] interleave.
const ROW_BLOCK: usize = 8;

/// Layer normalisation over the last dimension in one row kernel, for
/// inference: per row of width `n`, `((xc·inv_std)·γ) + β` with
/// `xc = x − mean`, `mean = Σx · (1/n)`, `var = Σxc² · (1/n)` and
/// `inv_std = 1/√(var + eps)`.
///
/// Every element goes through the same f32 operations, in the same
/// order, as the composed chain `nn::LayerNorm` runs on a training tape
/// (`mean_axes_keepdim`, `sub`, `mul`, `mean_axes_keepdim`, `add_scalar`,
/// `sqrt`, `recip`, `mul`, `mul`, `add`): both row sums run left to right
/// from `0.0`, as [`row_sums`] does them, so the output is the chain's bit
/// for bit (NaN for NaN, §15). [`ROW_BLOCK`] rows advance together so
/// their sum chains overlap. Runs under the dispatched instruction set.
///
/// # Panics
///
/// Panics if `x` has no dimension, or if `gamma` or `beta` does not hold
/// one element per column.
pub fn layer_norm_lastdim(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    assert!(x.ndim() >= 1, "layer norm requires at least one dimension");
    let cols = x.dims()[x.ndim() - 1];
    assert_eq!(gamma.numel(), cols, "layer norm: gamma has {} of {cols} columns", gamma.numel());
    assert_eq!(beta.numel(), cols, "layer norm: beta has {} of {cols} columns", beta.numel());
    let mut out = workspace::zeroed(x.numel());
    if cols > 0 {
        let (g, b) = (gamma.as_slice(), beta.as_slice());
        kernels::with_isa(
            kernels::active(),
            #[inline(always)]
            || layer_norm_rows(x.as_slice(), g, b, eps, &mut out),
        );
    }
    Tensor::from_buffer(out, x.shape().clone())
}

/// [`layer_norm_lastdim`]'s loop over rows of `g.len()` columns: the
/// centred values go to `out` with the second sum, then are scaled in
/// place.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the block's rows advance column by column in lock step
fn layer_norm_rows(x: &[f32], g: &[f32], b: &[f32], eps: f32, out: &mut [f32]) {
    let cols = g.len();
    let inv_n = 1.0 / cols as f32;
    let finish = |row: &mut [f32], inv_std: f32| {
        for ((v, &gv), &bv) in row.iter_mut().zip(g).zip(b) {
            *v = *v * inv_std * gv + bv;
        }
    };
    let mut out_blocks = out.chunks_exact_mut(ROW_BLOCK * cols);
    let mut x_blocks = x.chunks_exact(ROW_BLOCK * cols);
    for (ob, xb) in (&mut out_blocks).zip(&mut x_blocks) {
        let mut sum = [0.0f32; ROW_BLOCK];
        for c in 0..cols {
            for i in 0..ROW_BLOCK {
                sum[i] += xb[i * cols + c];
            }
        }
        let mean = sum.map(|s| s * inv_n);
        let mut sq = [0.0f32; ROW_BLOCK];
        for c in 0..cols {
            for i in 0..ROW_BLOCK {
                let xc = xb[i * cols + c] - mean[i];
                ob[i * cols + c] = xc;
                sq[i] += xc * xc;
            }
        }
        for (i, row) in ob.chunks_exact_mut(cols).enumerate() {
            finish(row, 1.0 / (sq[i] * inv_n + eps).sqrt());
        }
    }
    let rows = out_blocks.into_remainder().chunks_exact_mut(cols);
    for (row, xr) in rows.zip(x_blocks.remainder().chunks_exact(cols)) {
        let mean = xr.iter().fold(0.0, |acc, &v| acc + v) * inv_n;
        let mut sq = 0.0f32;
        for (v, &xv) in row.iter_mut().zip(xr) {
            *v = xv - mean;
            sq += *v * *v;
        }
        finish(row, 1.0 / (sq * inv_n + eps).sqrt());
    }
}

/// Inference batch norm's per-channel affine step in one pass: every
/// element of channel `ci` of an `[N, C, ...]` tensor becomes
/// `(x·scale[ci]) + shift[ci]`, written once into a pooled buffer.
///
/// Each element goes through the same two f32 operations, in the same
/// order and with the same rounding, as the broadcast chain
/// `mul(x, scale[1,C,1,1])` then `add(·, shift[1,C,1,1])` (no fused
/// multiply-add), so the output is the chain's bit for bit, NaN for NaN
/// (§15). Runs under the dispatched instruction set.
///
/// # Panics
///
/// Panics if `x` has fewer than two dimensions, or if `scale` or `shift`
/// does not hold one element per channel.
pub fn channel_affine(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    assert!(x.ndim() >= 2, "channel affine needs [N, C, ...], got {:?}", x.shape());
    let c = x.dims()[1];
    assert_eq!(scale.len(), c, "channel affine: {} scales for {c} channels", scale.len());
    assert_eq!(shift.len(), c, "channel affine: {} shifts for {c} channels", shift.len());
    let plane: usize = x.dims()[2..].iter().product();
    let mut out = workspace::with_capacity(x.numel());
    if plane > 0 {
        kernels::with_isa(
            kernels::active(),
            #[inline(always)]
            || {
                for (i, xs) in x.as_slice().chunks_exact(plane).enumerate() {
                    let (s, t) = (scale[i % c], shift[i % c]);
                    out.extend(xs.iter().map(|&v| v * s + t));
                }
            },
        );
    }
    Tensor::from_buffer(out, x.shape().clone())
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
/// The copy is walked as strided loops, as [`zip_broadcast`] walks a
/// broadcast: extent-1 output dimensions are dropped and adjacent ones
/// that stay adjacent in the source merge. When the innermost loop is
/// contiguous in the source, whole runs are copied; otherwise the copy is
/// a true transpose between the innermost loop and the loop that is
/// contiguous in the source, done in [`TILE`]×[`TILE`] blocks.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..ndim`.
pub fn permute(x: &Tensor, perm: &[usize]) -> Tensor {
    timed(
        |m| m.permute_ns,
        || {
            let new_dims = permuted_dims(x, perm);
            let mut out = workspace::zeroed(x.numel());
            if !out.is_empty() {
                permute_into(x.as_slice(), &permute_loops(x, perm), &mut out);
            }
            Tensor::from_buffer(out, new_dims)
        },
    )
}

/// The output extents of `permute(x, perm)`, after checking `perm`.
fn permuted_dims(x: &Tensor, perm: &[usize]) -> Vec<usize> {
    let nd = x.ndim();
    assert_eq!(perm.len(), nd, "permutation arity mismatch for {:?}", x.shape());
    let mut seen = vec![false; nd];
    for &p in perm {
        assert!(p < nd && !seen[p], "invalid permutation {:?}", perm);
        seen[p] = true;
    }
    perm.iter().map(|&p| x.dims()[p]).collect()
}

/// The loop nest of a permuted copy, outermost first, as
/// `(extent, source_stride)`: extent-1 dimensions dropped, adjacent ones
/// merged where the source walks them as one. Never empty: a one-element
/// tensor yields the single loop `(1, 1)`.
fn permute_loops(x: &Tensor, perm: &[usize]) -> Vec<(usize, usize)> {
    let strides = x.shape().strides();
    let mut loops: Vec<(usize, usize)> = Vec::with_capacity(perm.len());
    for &p in perm {
        let (extent, stride) = (x.dims()[p], strides[p]);
        if extent == 1 {
            continue;
        }
        match loops.last_mut() {
            Some(prev) if prev.1 == stride * extent => *prev = (prev.0 * extent, stride),
            _ => loops.push((extent, stride)),
        }
    }
    if loops.is_empty() {
        loops.push((1, 1));
    }
    loops
}

/// Side of the square blocks a true transpose is copied in.
const TILE: usize = 16;

/// Copies `src` into the contiguous `out` along `loops` (see
/// [`permute_loops`]).
fn permute_into(src: &[f32], loops: &[(usize, usize)], out: &mut [f32]) {
    let (inner, inner_stride) = *loops.last().expect("permute_loops yields a loop");
    if inner_stride == 1 {
        // Contiguous inner runs.
        let mut idx = vec![0usize; loops.len() - 1];
        let mut so = 0usize;
        for run in out.chunks_exact_mut(inner) {
            run.copy_from_slice(&src[so..so + inner]);
            advance(&loops[..loops.len() - 1], &mut idx, &mut so);
        }
        return;
    }
    // The source's contiguous dimension is some outer loop `j`: transpose
    // the (j, inner) plane in tiles, every other loop outside it.
    let j = loops.iter().position(|&(_, s)| s == 1).expect("a source-contiguous loop");
    let rows = loops[j].0;
    let out_row_stride: usize = loops[j + 1..].iter().map(|l| l.0).product();
    // Output strides of the loops outside the plane, with their sources.
    let mut outer = Vec::with_capacity(loops.len() - 2);
    let mut out_stride = 1usize;
    let mut out_strides = vec![0usize; loops.len()];
    for d in (0..loops.len()).rev() {
        out_strides[d] = out_stride;
        out_stride *= loops[d].0;
    }
    for (d, &(extent, stride)) in loops[..loops.len() - 1].iter().enumerate() {
        if d != j {
            outer.push((extent, stride, out_strides[d]));
        }
    }
    let count: usize = outer.iter().map(|o| o.0).product();
    let mut idx = vec![0usize; outer.len()];
    let (mut so, mut oo) = (0usize, 0usize);
    for _ in 0..count {
        for r0 in (0..rows).step_by(TILE) {
            let r1 = rows.min(r0 + TILE);
            for c0 in (0..inner).step_by(TILE) {
                let c1 = inner.min(c0 + TILE);
                for r in r0..r1 {
                    let dst = &mut out[oo + r * out_row_stride + c0..oo + r * out_row_stride + c1];
                    for (c, d) in (c0..c1).zip(dst) {
                        *d = src[so + r + c * inner_stride];
                    }
                }
            }
        }
        for (d, &(extent, stride, ostride)) in outer.iter().enumerate().rev() {
            idx[d] += 1;
            so += stride;
            oo += ostride;
            if idx[d] < extent {
                break;
            }
            idx[d] = 0;
            so -= stride * extent;
            oo -= ostride * extent;
        }
    }
}

/// Advances the row-major multi-index `idx` over `loops`, carrying the
/// source offset `so`.
fn advance(loops: &[(usize, usize)], idx: &mut [usize], so: &mut usize) {
    for (d, &(extent, stride)) in loops.iter().enumerate().rev() {
        idx[d] += 1;
        *so += stride;
        if idx[d] < extent {
            return;
        }
        idx[d] = 0;
        *so -= stride * extent;
    }
}

/// The per-element reference walk of a permutation: rebuilds the source
/// offset from the full multi-index of every output element. [`permute`]
/// must match it bit for bit.
#[cfg(test)]
fn permute_oracle(x: &Tensor, perm: &[usize]) -> Tensor {
    let nd = x.ndim();
    let old_strides = x.shape().strides();
    let new_dims = permuted_dims(x, perm);
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
    Tensor::from_vec(out, new_dims)
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

/// Sums along axis `d`, keeping the dimension with extent 1. Each output
/// is summed in axis order from `0.0`; the last axis takes the
/// row-interleaved [`row_sums`] kernel.
pub fn sum_axis_keepdim(x: &Tensor, d: usize) -> Tensor {
    let nd = x.ndim();
    assert!(d < nd);
    let mut dims = x.dims().to_vec();
    dims[d] = 1;
    if d == nd - 1 && x.dims()[d] > 0 {
        let cols = x.dims()[d];
        let mut out = vec![0.0f32; x.numel() / cols];
        row_sums(x.as_slice(), cols, &mut out);
        return Tensor::from_vec(out, dims);
    }
    Tensor::from_vec(sum_axis_loops(x, d), dims)
}

/// The general per-axis sum: `out[o, i] += x[o, a, i]` in `a` order.
fn sum_axis_loops(x: &Tensor, d: usize) -> Vec<f32> {
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
    out
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

    fn gelu1(x: f32) -> f32 {
        gelu(&Tensor::from_vec(vec![x], [1])).item()
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu1(0.0)).abs() < 1e-7);
        assert!((gelu1(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu1(-1.0) + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu1(x + eps) - gelu1(x - eps)) / (2.0 * eps);
            let d = gelu_grad(&Tensor::from_vec(vec![x], [1])).item();
            assert!((d - fd).abs() < 1e-2, "gelu'({x}) = {d} vs fd {fd}");
        }
    }

    /// The per-element GELU and its derivative as written before the
    /// lane bodies, with `tanh` from [`math::tanhf`].
    fn gelu_scalar(x: f32) -> f32 {
        0.5 * x * (1.0 + math::tanhf(GELU_C * (x + 0.044715 * x * x * x)))
    }

    fn gelu_grad_scalar(x: f32) -> f32 {
        let x3 = x * x * x;
        let t = math::tanhf(GELU_C * (x + 0.044715 * x3));
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
    }

    #[test]
    fn lane_maps_match_their_per_element_forms() {
        let x = probe(&[3, 37], 9.0);
        let want_gelu = x.map(gelu_scalar);
        let want_grad = x.map(gelu_grad_scalar);
        let want_sigmoid = x.map(|v| 1.0 / (1.0 + math::expf(-v)));
        assert_eq!(bits(&gelu(&x)), bits(&want_gelu));
        assert_eq!(bits(&gelu_grad(&x)), bits(&want_grad));
        assert_eq!(bits(&sigmoid(&x)), bits(&want_sigmoid));
        assert_eq!(bits(&exp(&x)), bits(&x.map(math::expf)));
        assert_eq!(bits(&tanh(&x)), bits(&x.map(math::tanhf)));
    }

    /// The softmax and log-softmax rows as computed before the row
    /// kernels: one allocation per row, a sequential sum. `exp` is
    /// [`math::expf`] (bit-identical to the libm the old loops called),
    /// so the check does not depend on the host's libm.
    fn softmax_oracle(x: &Tensor) -> Tensor {
        let cols = x.dims()[x.ndim() - 1];
        let mut out = Vec::with_capacity(x.numel());
        for row in x.as_slice().chunks(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| math::expf(v - m)).collect();
            let s: f32 = exps.iter().sum();
            out.extend(exps.iter().map(|e| e / s));
        }
        Tensor::from_vec(out, x.shape().clone())
    }

    fn log_softmax_oracle(x: &Tensor) -> Tensor {
        let cols = x.dims()[x.ndim() - 1];
        let mut out = Vec::with_capacity(x.numel());
        for row in x.as_slice().chunks(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| math::expf(v - m)).sum::<f32>().ln();
            out.extend(row.iter().map(|&v| v - lse));
        }
        Tensor::from_vec(out, x.shape().clone())
    }

    /// Rows covering -∞, NaN, all-equal values, a single column and
    /// enough rows to fill several interleaved blocks plus a tail.
    fn softmax_rows() -> Vec<Tensor> {
        let ninf = f32::NEG_INFINITY;
        vec![
            t2(vec![1.0, ninf, 3.0, ninf, ninf, ninf], 2, 3),
            t2(vec![0.5, f32::NAN, -1.0, f32::NAN, f32::NAN, f32::NAN], 2, 3),
            t2(vec![2.0; 12], 3, 4),
            t2(vec![-0.0, 0.0, -0.0, 0.0], 2, 2),
            Tensor::from_vec(vec![1.0, ninf, f32::NAN, 7.5, -3.0], [5, 1]),
            probe(&[19, 13], 4.0),
            probe(&[2, 3, 17], -1.0),
            Tensor::from_vec((0..64 * 65).map(|i| (i % 97) as f32 * 0.1 - 3.0).collect(), [64, 65]),
        ]
    }

    #[test]
    fn softmax_row_kernels_match_the_per_row_loops_bitwise() {
        for x in softmax_rows() {
            assert!(same_or_nan(&softmax_lastdim(&x), &softmax_oracle(&x)), "softmax {x:?}");
            assert!(
                same_or_nan(&log_softmax_lastdim(&x), &log_softmax_oracle(&x)),
                "log_softmax {x:?}"
            );
        }
    }

    /// Bitwise equality with the NaN-payload carve-out of the GEMM
    /// kernels: when both addends of a sum are NaN, which payload survives
    /// depends on the operand order the compiler picks, so NaN matches any
    /// NaN and everything else matches bit for bit.
    fn same_or_nan(got: &Tensor, want: &Tensor) -> bool {
        got.shape() == want.shape()
            && got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    #[test]
    fn last_axis_sums_match_the_axis_loop_bitwise() {
        for x in softmax_rows() {
            let d = x.ndim() - 1;
            let got = sum_axis_keepdim(&x, d);
            let mut dims = x.dims().to_vec();
            dims[d] = 1;
            let want = Tensor::from_vec(sum_axis_loops(&x, d), dims);
            assert!(same_or_nan(&got, &want), "{x:?}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn softmax_of_zero_width_or_zero_rows_is_empty() {
        for dims in [[2usize, 0], [0, 3]] {
            let x = Tensor::zeros(dims);
            for y in [softmax_lastdim(&x), log_softmax_lastdim(&x)] {
                assert_eq!(y.dims(), &dims);
                assert_eq!(y.numel(), 0);
            }
        }
    }

    #[test]
    fn permute_matches_the_oracle_on_attention_shapes() {
        let cases: [(&[usize], &[usize]); 5] = [
            (&[2, 65, 3, 64], &[0, 2, 1, 3]), // split heads
            (&[6, 65, 64], &[0, 2, 1]),       // kᵀ
            (&[2, 3, 65, 64], &[0, 2, 1, 3]), // merge heads
            (&[2, 192, 64], &[0, 2, 1]),      // patch tokens
            (&[33, 40], &[1, 0]),             // ragged tiles
        ];
        for (dims, perm) in cases {
            let x = probe(dims, 0.25);
            let (got, want) = (permute(&x, perm), permute_oracle(&x, perm));
            assert_eq!(got.dims(), want.dims());
            assert_eq!(bits(&got), bits(&want), "{dims:?} by {perm:?}");
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

    /// A permutation of `0..n` from a seed (Fisher–Yates over a tiny
    /// xorshift).
    fn perm_from_seed(n: usize, mut seed: u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            p.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        p
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn permute_matches_the_per_element_oracle(
            dims in proptest::collection::vec(0usize..=5, 0..=5),
            seed in 1u64..u64::MAX,
        ) {
            let x = probe(&dims, 0.75);
            let perm = perm_from_seed(dims.len(), seed);
            let (got, want) = (permute(&x, &perm), permute_oracle(&x, &perm));
            proptest::prop_assert_eq!(got.dims(), want.dims());
            proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?} by {:?}", dims, perm);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }
}
