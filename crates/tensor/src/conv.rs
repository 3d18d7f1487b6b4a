//! Convolution and pooling kernels (NCHW layout) with explicit backward
//! passes, built on im2col + GEMM.

use crate::linalg::kernels::{self, MR, NR};
use crate::linalg::{self, sgemm};
use crate::parallel::{self, SendPtr};
use crate::tensor::Tensor;
use crate::workspace;

/// Convolution geometry: square kernel, stride, and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on all four sides.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dSpec { kernel, stride, padding }
    }

    /// Output spatial extent for an input of extent `h`.
    pub fn out_dim(&self, h: usize) -> usize {
        (h + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// Unfolds one `[C, H, W]` image into a `[C*K*K, OH*OW]` column matrix.
fn im2col(x: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, cols: &mut [f32]) {
    let k = spec.kernel;
    let (oh, ow) = (spec.out_dim(h), spec.out_dim(w));
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    let mut row = 0;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                for oi in 0..oh {
                    let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                    let base = row * oh * ow + oi * ow;
                    if ii < 0 || ii >= h as isize {
                        cols[base..base + ow].fill(0.0);
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                        cols[base + oj] = if jj < 0 || jj >= w as isize {
                            0.0
                        } else {
                            x[ci * h * w + ii as usize * w + jj as usize]
                        };
                    }
                }
                row += 1;
            }
        }
    }
}

/// Folds a `[C*K*K, OH*OW]` column-gradient matrix back into a `[C, H, W]`
/// image gradient (the adjoint of [`im2col`]).
fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, x_grad: &mut [f32]) {
    let k = spec.kernel;
    let (oh, ow) = (spec.out_dim(h), spec.out_dim(w));
    let mut row = 0;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                for oi in 0..oh {
                    let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                    if ii < 0 || ii >= h as isize {
                        row_skip();
                    } else {
                        for oj in 0..ow {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            if jj >= 0 && jj < w as isize {
                                x_grad[ci * h * w + ii as usize * w + jj as usize] +=
                                    cols[row * oh * ow + oi * ow + oj];
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }

    fn row_skip() {}
}

/// Pooled-transient budget for the batched conv pack buffer (f32 elems,
/// 64 MiB): the batch is blocked so `block · panel_elems` stays under it.
const CONV_PACK_BUDGET: usize = 16 << 20;

/// 2-D convolution forward: `x: [N,C,H,W]`, `w: [O,C,K,K]`, optional
/// `bias: [O]` → `[N,O,OH,OW]`.
///
/// Batch-parallel: the weight matrix is packed into `MR`-row panels once,
/// each image's im2col matrix is packed in parallel, and every
/// `(image, weight-panel)` pair becomes one row-panel task on the shared
/// worker pool — the same tasks the SGEMM path uses, so a batch of images
/// scales like one large GEMM. Per-element accumulation order is
/// identical to per-image [`sgemm`] calls, so results are bit-exact for
/// every thread count and dispatched micro-kernel.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    assert_eq!(x.ndim(), 4, "conv2d input must be NCHW, got {:?}", x.shape());
    assert_eq!(w.ndim(), 4, "conv2d weight must be OCKK, got {:?}", w.shape());
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, cw, k, k2) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    assert_eq!(c, cw, "conv2d channels: input {:?} vs weight {:?}", x.shape(), w.shape());
    assert_eq!(k, k2, "conv2d kernel must be square");
    assert_eq!(k, spec.kernel, "spec kernel {} != weight kernel {}", spec.kernel, k);
    if let Some(b) = bias {
        assert_eq!(b.dims(), &[o], "conv2d bias must be [{o}]");
    }
    let (oh, ow) = (spec.out_dim(h), spec.out_dim(wd));
    let (ohow, ckk, chw) = (oh * ow, c * k * k, c * h * wd);
    let mut out = vec![0.0f32; n * o * ohow];
    if n == 0 || o == 0 || ohow == 0 || ckk == 0 {
        return Tensor::from_vec(out, [n, o, oh, ow]);
    }

    let kern = kernels::active();
    let npanels = ohow.div_ceil(NR);
    let mpanels = o.div_ceil(MR);
    let panel_elems = npanels * ckk * NR;
    let block = n.min((CONV_PACK_BUDGET / panel_elems).max(1));

    // Pack the weight matrix's row panels once — shared by every image.
    let mut wpack = workspace::take(mpanels * ckk * MR);
    for pi in 0..mpanels {
        let i0 = pi * MR;
        linalg::pack_a(ckk, w.as_slice(), i0, MR.min(o - i0), &mut wpack[pi * ckk * MR..]);
    }

    let mut bpack = workspace::take(block * panel_elems);
    for n0 in (0..n).step_by(block) {
        let bn = block.min(n - n0);
        let flops = 2usize.saturating_mul(bn * o).saturating_mul(ckk * ohow);
        let _serial = (flops < linalg::PAR_FLOP_THRESHOLD).then(|| parallel::with_threads(1));
        {
            // Parallel im2col + pack per image: each task owns one
            // image's disjoint `panel_elems` region of the pack buffer.
            let bp = SendPtr(bpack.as_mut_ptr());
            let x_all = x.as_slice();
            parallel::parallel_for(bn, |bi| {
                let ni = n0 + bi;
                let mut cols = workspace::take(ckk * ohow);
                im2col(&x_all[ni * chw..(ni + 1) * chw], c, h, wd, spec, &mut cols);
                // SAFETY: region `bi*panel_elems..(bi+1)*panel_elems` is
                // owned by task bi alone, and `bpack` outlives the scope.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(bp.get().add(bi * panel_elems), panel_elems)
                };
                // Padding lanes of the ragged last panel are never written,
                // so they stay zero from the pool's zeroed buffer.
                linalg::pack_b(ckk, ohow, &cols, dst);
            });
        }
        let ob = SendPtr(out.as_mut_ptr());
        let (bpack_ref, wpack_ref, bias_ref) = (&bpack[..], &wpack[..], bias);
        parallel::parallel_for(bn * mpanels, |t| {
            let (bi, pi) = (t / mpanels, t % mpanels);
            let ni = n0 + bi;
            let i0 = pi * MR;
            let rows = MR.min(o - i0);
            // SAFETY: task t owns exactly output-channel rows
            // `i0..i0+rows` of image `ni`; the (bi, pi) → task mapping is
            // a bijection, so regions are disjoint, and `out` outlives
            // the thread scope.
            let orow = unsafe {
                std::slice::from_raw_parts_mut(ob.get().add(ni * o * ohow + i0 * ohow), rows * ohow)
            };
            linalg::row_panel(
                kern,
                ckk,
                ohow,
                rows,
                &wpack_ref[pi * ckk * MR..(pi + 1) * ckk * MR],
                &bpack_ref[bi * panel_elems..(bi + 1) * panel_elems],
                orow,
            );
            add_bias(orow, bias_ref, i0, rows, ohow);
        });
    }
    Tensor::from_vec(out, [n, o, oh, ow])
}

/// Adds `bias[o0 + r]` to each of `rows` output rows of length `ohow`
/// (no-op without a bias), after the GEMM accumulation — the same order
/// as a per-image `sgemm` followed by the bias, so results stay
/// bit-identical.
fn add_bias(orow: &mut [f32], bias: Option<&Tensor>, o0: usize, rows: usize, ohow: usize) {
    if let Some(b) = bias {
        for r in 0..rows {
            let bv = b.as_slice()[o0 + r];
            for v in &mut orow[r * ohow..(r + 1) * ohow] {
                *v += bv;
            }
        }
    }
}

/// Gradients of [`conv2d`] with respect to input, weight, and bias.
///
/// Returns `(grad_x, grad_w, grad_bias)`; `grad_bias` is `None` iff
/// `has_bias` is false.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    has_bias: bool,
) -> (Tensor, Tensor, Option<Tensor>) {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, k, _) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let (oh, ow) = (spec.out_dim(h), spec.out_dim(wd));
    assert_eq!(grad_out.dims(), &[n, o, oh, ow], "grad_out shape mismatch");
    let ckk = c * k * k;

    let mut gx = vec![0.0f32; n * c * h * wd];
    let mut gw = vec![0.0f32; o * ckk];
    let mut gb = vec![0.0f32; o];
    let mut cols = workspace::take(ckk * oh * ow);
    let mut col_grad = workspace::take(ckk * oh * ow);
    let mut colst = workspace::take(oh * ow * ckk);

    // Transposed weight [ckk, o] for the input-gradient GEMM.
    let mut wt = workspace::take(ckk * o);
    for oi in 0..o {
        for r in 0..ckk {
            wt[r * o + oi] = w.as_slice()[oi * ckk + r];
        }
    }

    for ni in 0..n {
        let go_n = &grad_out.as_slice()[ni * o * oh * ow..(ni + 1) * o * oh * ow];
        // grad_w += grad_out_n [o, ohow] × cols^T  → accumulate via sgemm on
        // transposed cols: [o, ohow] × [ohow, ckk].
        im2col(&x.as_slice()[ni * c * h * wd..(ni + 1) * c * h * wd], c, h, wd, spec, &mut cols);
        for r in 0..ckk {
            for q in 0..oh * ow {
                colst[q * ckk + r] = cols[r * oh * ow + q];
            }
        }
        sgemm(o, oh * ow, ckk, go_n, &colst, &mut gw);
        // grad_bias
        for oi in 0..o {
            gb[oi] += go_n[oi * oh * ow..(oi + 1) * oh * ow].iter().sum::<f32>();
        }
        // grad_x: col_grad = w^T [ckk, o] × grad_out_n [o, ohow]
        col_grad.fill(0.0);
        sgemm(ckk, o, oh * ow, &wt, go_n, &mut col_grad);
        col2im(&col_grad, c, h, wd, spec, &mut gx[ni * c * h * wd..(ni + 1) * c * h * wd]);
    }
    (
        Tensor::from_vec(gx, [n, c, h, wd]),
        Tensor::from_vec(gw, [o, c, k, k]),
        if has_bias { Some(Tensor::from_vec(gb, [o])) } else { None },
    )
}

/// 2-D max pooling forward. Returns the pooled tensor and the flat argmax
/// index (into the input) of each output element, for the backward pass.
pub fn maxpool2d(x: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    let mut arg = Vec::with_capacity(n * c * oh * ow);
    for ni in 0..n {
        for ci in 0..c {
            let plane = &x.as_slice()[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ki in 0..kernel {
                        for kj in 0..kernel {
                            let ii = oi * stride + ki;
                            let jj = oj * stride + kj;
                            let v = plane[ii * w + jj];
                            if v > best {
                                best = v;
                                best_idx = (ni * c + ci) * h * w + ii * w + jj;
                            }
                        }
                    }
                    out.push(best);
                    arg.push(best_idx);
                }
            }
        }
    }
    (Tensor::from_vec(out, [n, c, oh, ow]), arg)
}

/// Backward of [`maxpool2d`]: routes each output gradient to its argmax.
pub fn maxpool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_numel: usize,
    input_dims: &[usize],
) -> Tensor {
    let mut gx = vec![0.0f32; input_numel];
    for (g, &i) in grad_out.as_slice().iter().zip(argmax) {
        gx[i] += g;
    }
    Tensor::from_vec(gx, input_dims.to_vec())
}

/// 2-D average pooling forward (`[N,C,H,W]`, non-overlapping windows when
/// `stride == kernel`).
pub fn avgpool2d(x: &Tensor, kernel: usize, stride: usize) -> Tensor {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let norm = (kernel * kernel) as f32;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for ni in 0..n {
        for ci in 0..c {
            let plane = &x.as_slice()[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0;
                    for ki in 0..kernel {
                        for kj in 0..kernel {
                            acc += plane[(oi * stride + ki) * w + (oj * stride + kj)];
                        }
                    }
                    out.push(acc / norm);
                }
            }
        }
    }
    Tensor::from_vec(out, [n, c, oh, ow])
}

/// Backward of [`avgpool2d`]: spreads each output gradient uniformly over
/// its window.
pub fn avgpool2d_backward(
    grad_out: &Tensor,
    kernel: usize,
    stride: usize,
    input_dims: &[usize],
) -> Tensor {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = (grad_out.dims()[2], grad_out.dims()[3]);
    let norm = (kernel * kernel) as f32;
    let mut gx = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = grad_out.at(&[ni, ci, oi, oj]) / norm;
                    for ki in 0..kernel {
                        for kj in 0..kernel {
                            gx[base + (oi * stride + ki) * w + (oj * stride + kj)] += g;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(gx, input_dims.to_vec())
}

/// Global average pooling: `[N,C,H,W] → [N,C]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let hw = (h * w) as f32;
    let mut out = Vec::with_capacity(n * c);
    for chunk in x.as_slice().chunks(h * w) {
        out.push(chunk.iter().sum::<f32>() / hw);
    }
    Tensor::from_vec(out, [n, c])
}

/// Backward of [`global_avg_pool`].
pub fn global_avg_pool_backward(grad_out: &Tensor, h: usize, w: usize) -> Tensor {
    let (n, c) = (grad_out.dims()[0], grad_out.dims()[1]);
    let hw = (h * w) as f32;
    let mut gx = Vec::with_capacity(n * c * h * w);
    for &g in grad_out.as_slice() {
        let v = g / hw;
        gx.extend(std::iter::repeat_n(v, h * w));
    }
    Tensor::from_vec(gx, [n, c, h, w])
}

/// Naive direct convolution used by tests to validate the im2col path.
pub fn conv2d_naive(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, k, _) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let (oh, ow) = (spec.out_dim(h), spec.out_dim(wd));
    let mut out = vec![0.0f32; n * o * oh * ow];
    for ni in 0..n {
        for oi in 0..o {
            for y in 0..oh {
                for xo in 0..ow {
                    let mut acc = bias.map(|b| b.as_slice()[oi]).unwrap_or(0.0);
                    for ci in 0..c {
                        for ki in 0..k {
                            for kj in 0..k {
                                let ii = (y * spec.stride + ki) as isize - spec.padding as isize;
                                let jj = (xo * spec.stride + kj) as isize - spec.padding as isize;
                                if ii >= 0 && ii < h as isize && jj >= 0 && jj < wd as isize {
                                    acc += x.at(&[ni, ci, ii as usize, jj as usize])
                                        * w.at(&[oi, ci, ki, kj]);
                                }
                            }
                        }
                    }
                    out[((ni * o + oi) * oh + y) * ow + xo] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, [n, o, oh, ow])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_out_dim() {
        let s = Conv2dSpec::new(3, 1, 1);
        assert_eq!(s.out_dim(32), 32);
        let s2 = Conv2dSpec::new(3, 2, 1);
        assert_eq!(s2.out_dim(32), 16);
        let s3 = Conv2dSpec::new(1, 1, 0);
        assert_eq!(s3.out_dim(7), 7);
    }

    #[test]
    fn conv2d_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(c, o, h, k, s, p) in
            &[(1, 1, 5, 3, 1, 1), (3, 4, 8, 3, 2, 1), (2, 2, 6, 1, 1, 0), (3, 5, 7, 5, 2, 2)]
        {
            let spec = Conv2dSpec::new(k, s, p);
            let x = Tensor::randn([2, c, h, h], &mut rng);
            let w = Tensor::randn([o, c, k, k], &mut rng);
            let b = Tensor::randn([o], &mut rng);
            let fast = conv2d(&x, &w, Some(&b), spec);
            let slow = conv2d_naive(&x, &w, Some(&b), spec);
            assert!(
                fast.allclose(&slow, 1e-4),
                "conv mismatch at c={c},o={o},h={h},k={k},s={s},p={p}"
            );
        }
    }

    /// The batched (image × weight-panel) task grid must be bit-identical
    /// to itself across thread counts and dispatched micro-kernels — same
    /// contract as the SGEMM it reuses.
    #[test]
    fn conv2d_bit_identical_across_threads_and_kernels() {
        use crate::parallel::with_threads;
        let _lock = kernels::force_lock();
        let mut rng = StdRng::seed_from_u64(17);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn([5, 3, 9, 9], &mut rng);
        let w = Tensor::randn([6, 3, 3, 3], &mut rng);
        let b = Tensor::randn([6], &mut rng);
        let reference = {
            let _g = with_threads(1);
            conv2d(&x, &w, Some(&b), spec)
        };
        for kern in kernels::supported_kernels() {
            kernels::force(Some(kern));
            for threads in [1usize, 2, 8] {
                let _g = with_threads(threads);
                let got = conv2d(&x, &w, Some(&b), spec);
                for (i, (a, r)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "conv {kern} t={threads} diverges at {i}");
                }
            }
        }
        kernels::force(None);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel of value 1 with a single channel is the identity.
        let x = Tensor::arange(16).reshape([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(1, 1, 0));
        assert_eq!(y.as_slice(), x.as_slice());
    }

    /// Finite-difference check of all three conv gradients.
    #[test]
    fn conv2d_backward_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn([1, 2, 4, 4], &mut rng);
        let w = Tensor::randn([2, 2, 3, 3], &mut rng);
        let b = Tensor::randn([2], &mut rng);
        // Loss = sum(conv(x, w, b)); grad_out = ones.
        let y = conv2d(&x, &w, Some(&b), spec);
        let go = Tensor::ones(y.shape().clone());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &go, spec, true);
        let eps = 1e-2;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, Some(b), spec).sum_all();
        for i in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!((gx.as_slice()[i] - fd).abs() < 1e-2, "gx[{i}]={} fd={}", gx.as_slice()[i], fd);
        }
        for i in [0usize, 9, 17, 35] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((gw.as_slice()[i] - fd).abs() < 2e-2, "gw[{i}]={} fd={}", gw.as_slice()[i], fd);
        }
        let gb = gb.unwrap();
        for i in 0..2 {
            let mut bp = b.clone();
            bp.as_mut_slice()[i] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((gb.as_slice()[i] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
            [1, 1, 4, 4],
        );
        let (y, arg) = maxpool2d(&x, 2, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6., 8., 14., 16.]);
        let go = Tensor::ones([1, 1, 2, 2]);
        let gx = maxpool2d_backward(&go, &arg, 16, &[1, 1, 4, 4]);
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(gx.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(gx.sum_all(), 4.0);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let x = Tensor::arange(8).reshape([1, 2, 2, 2]);
        let y = global_avg_pool(&x);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let go = Tensor::from_vec(vec![4.0, 8.0], [1, 2]);
        let gx = global_avg_pool_backward(&go, 2, 2);
        assert_eq!(gx.as_slice(), &[1., 1., 1., 1., 2., 2., 2., 2.]);
    }

    #[test]
    fn conv2d_stride2_downsamples() {
        let x = Tensor::ones([1, 1, 8, 8]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(3, 2, 1));
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        // Interior output (away from padding) sums the full 3x3 window.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        // Top-left touches padding: only 2x2 of the window is inside.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }
}
