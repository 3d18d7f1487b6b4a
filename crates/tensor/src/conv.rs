//! Convolution and pooling kernels (NCHW layout) with explicit backward
//! passes.
//!
//! The forward convolution is a GEMM of the packed weight matrix
//! `[O, C·K·K]` against each image's im2col matrix `[C·K·K, OH·OW]`, but
//! the im2col matrix never exists. A task owns one image and a range of
//! its `NR`-column output panels, and runs every packed weight row panel
//! over each panel's `C·K·K` B rows while they are in cache, writing the
//! panel's output strip once. Where the rows come from depends on the
//! shape:
//!
//! - **In place.** A conv whose input is exactly `s` times its output in
//!   each direction (`H = s·OH`, `W = s·OW`: every zoo conv — ResNet's
//!   stem, its 3×3 layers at stride 1 and 2, its 1×1 convs and stride-2
//!   downsamples, DeiT's 4×4/4 patch embed) reads its rows from the
//!   image's *phase planes*: plane `(a, b)` holds the input pixels
//!   `(oi·s + a, oj·s + b)` as an `OH×OW` image. Output pixel
//!   `(oi, oj)` reads input pixel `(oi·s + ki − P, oj·s + kj − P)`, which
//!   is pixel `(oi + ⌊(ki−P)/s⌋, oj + ⌊(kj−P)/s⌋)` of phase plane
//!   `((ki−P) mod s, (kj−P) mod s)`. So B row `(ci, ki, kj)` of the
//!   panel at `q0` is the `NR` consecutive phase-plane elements from
//!   `q0 + ⌊(ki−P)/s⌋·OW + ⌊(kj−P)/s⌋`, under a lane mask that switches
//!   off the lanes whose pixel lies in the padding, wraps into a
//!   neighbouring row, or lies past the last output column (`conv_taps`,
//!   one table per call, shared by every image, channel and weight row
//!   panel). At stride 1 the image is its own single phase plane. At
//!   stride `s > 1` a task owns a whole image and first splits it once
//!   into the phase planes its taps read, laid out `[C][u²][OH][OW]` in
//!   pooled scratch (`split_phases`): `u = s` phases per direction when
//!   `K ≥ s`, one for a 1×1 stride-2 downsample, which reads only the
//!   even pixels. The micro-kernel reads the rows in place
//!   (`BRows::tapped`).
//! - **Packed.** A conv that fails the condition (a "valid" conv, an odd
//!   input at stride 2) has lanes that are not consecutive in any plane,
//!   so each panel is gathered into a pooled scratch panel first
//!   (`pack_panel`).
//!
//! A switched-off lane reads +0.0, exactly the zero `pack_b(im2col(x))`
//! holds there, so both ways give every output element the same
//! full-`k` chain in `k` order, bit-identical to a per-image [`sgemm`]
//! on the unfolded image. The backward pass (training only) still
//! unfolds through `im2col`.

use std::mem::MaybeUninit;
use std::time::Instant;

use crate::linalg::kernels::{self, BRows, Tap, MR, NR};
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
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is 0.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel >= 1, "conv kernel must be at least 1, got {kernel}");
        assert!(stride >= 1, "conv stride must be at least 1, got {stride}");
        Conv2dSpec { kernel, stride, padding }
    }

    /// Output spatial extent for an input of extent `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel or stride is 0 or the kernel exceeds the
    /// padded extent `h + 2·padding`.
    pub fn out_dim(&self, h: usize) -> usize {
        window_out_dims("conv", &[h, h], self.kernel, self.stride, self.padding).0
    }
}

/// `(OH, OW)` of a `kernel×kernel` window sliding at `stride` over the
/// last two axes of `dims`, padded by `padding` on every side.
///
/// # Panics
///
/// Panics, naming `op` and `dims`, if the kernel or stride is 0 or the
/// window exceeds the padded input.
fn window_out_dims(
    op: &str,
    dims: &[usize],
    kernel: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    assert!(
        kernel >= 1 && stride >= 1,
        "{op}: kernel and stride must be at least 1, got kernel {kernel}, stride {stride}"
    );
    let out = |len: usize| {
        let padded = len + 2 * padding;
        assert!(
            kernel <= padded,
            "{op}: {kernel}×{kernel} window with padding {padding} does not fit input {dims:?}"
        );
        (padded - kernel) / stride + 1
    };
    let [.., h, w] = dims else { panic!("{op} input needs two spatial axes, got {dims:?}") };
    (out(*h), out(*w))
}

/// Unfolds one `[C, H, W]` image into a `[C*K*K, OH*OW]` column matrix.
/// The backward pass's unfold, and the oracle of [`pack_panel`].
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
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                        if jj >= 0 && jj < w as isize {
                            x_grad[ci * h * w + ii as usize * w + jj as usize] +=
                                cols[row * oh * ow + oi * ow + oj];
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Column panels per conv task. A packing task packs its panels one after
/// another into one scratch panel. Fixed, so the task grid depends on the
/// shape alone and never on the thread count. A phase-plane conv's task
/// instead owns every panel of its image, so the image is split once.
const PANELS_PER_TASK: usize = 8;

/// Packs column panel `j0 / NR` of the im2col matrix of one `[C, H, W]`
/// image (`OH×OW` output) straight into `dst`, for the convs whose lanes
/// are not consecutive in any phase plane (`H ≠ s·OH` or `W ≠ s·OW`;
/// [`conv2d`] reads the others in place), `C·K·K` k-major rows of `NR`
/// lanes: `dst[r·NR + l] = im2col(x)[r, j0 + l]`, zero past the last
/// output column — exactly the panel `pack_b` makes of the im2col matrix.
///
/// For each kernel offset `(ki, kj)` the lanes whose input pixel lies
/// inside the image are planned once, as runs of consecutive output
/// columns, and the plan is replayed for every channel: a row is zeroed,
/// then stride 1 (a "valid" conv) copies each run contiguously from the
/// input row and other strides gather it with step `s`. Rows outside the
/// image, padding columns and the lanes past the last output column keep
/// their zeros. Every lane is written, so `dst` may start uninitialised;
/// the packed panel is returned.
fn pack_panel<'a>(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: Conv2dSpec,
    (oh, ow): (usize, usize),
    j0: usize,
    dst: &'a mut [MaybeUninit<f32>],
) -> &'a [f32] {
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    debug_assert_eq!(x.len(), c * h * w);
    let dst = &mut dst[..c * k * k * NR];
    let end = (j0 + NR).min(oh * ow);
    for ki in 0..k {
        for kj in 0..k {
            // Output columns `lo..hi` read input columns `oj·s + kj − p`
            // inside `0..w`.
            let lo = p.saturating_sub(kj).div_ceil(s);
            let hi = (w + p).saturating_sub(kj).div_ceil(s);
            // In-image runs: (first lane, lanes, offset in the plane).
            let mut runs = [(0, 0, 0); NR];
            let mut nruns = 0;
            let mut q = j0;
            while q < end {
                let (oi, oj) = (q / ow, q % ow);
                let row_end = (q - oj + ow).min(end);
                let ii = oi * s + ki;
                let (a, b) = (oj.max(lo), (row_end - q + oj).min(hi));
                if ii >= p && ii - p < h && a < b {
                    runs[nruns] = (q - j0 + a - oj, b - a, (ii - p) * w + a * s + kj - p);
                    nruns += 1;
                }
                q = row_end;
            }
            for ci in 0..c {
                let plane = &x[ci * h * w..(ci + 1) * h * w];
                let r = (ci * k + ki) * k + kj;
                let row = &mut dst[r * NR..(r + 1) * NR];
                row.fill(MaybeUninit::new(0.0));
                for &(l, len, off) in &runs[..nruns] {
                    for (d, &v) in row[l..l + len].iter_mut().zip(plane[off..].iter().step_by(s)) {
                        d.write(v);
                    }
                }
            }
        }
    }
    // SAFETY: every lane of `dst` was written above (the fill).
    unsafe { &*(dst as *const [MaybeUninit<f32>] as *const [f32]) }
}

/// The phases `(d − p) mod s` that kernel rows `d < k` (and, the kernel
/// being square, its columns) read, ascending. At `k ≥ s` that is every
/// phase; a 1×1 stride-2 downsample reads phase 0 alone.
fn phases_read(k: usize, s: usize, p: usize) -> Vec<usize> {
    let mut phases: Vec<usize> =
        (0..k).map(|d| (d as isize - p as isize).rem_euclid(s as isize) as usize).collect();
    phases.sort_unstable();
    phases.dedup();
    phases
}

/// Splits one `[C, H, W]` image into the phase planes its conv reads
/// (`H = s·OH`, `W = s·OW`; `phases` from [`phases_read`], `u` of them),
/// laid out `[C][u²][OH][OW]` in `dst`: plane `i·u + j` of channel `ci`
/// holds pixel `(oi·s + phases[i], oj·s + phases[j])` at `oi·OW + oj`.
/// Every element of `dst[..C·u²·OH·OW]` is written; the planes are
/// returned.
fn split_phases<'a>(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    s: usize,
    phases: &[usize],
    dst: &'a mut [MaybeUninit<f32>],
) -> &'a [f32] {
    let (oh, ow, u) = (h / s, w / s, phases.len());
    debug_assert_eq!((x.len(), oh * s, ow * s), (c * h * w, h, w));
    let plane = oh * ow;
    let dst = &mut dst[..c * u * u * plane];
    for (src, planes) in x.chunks_exact(h * w).zip(dst.chunks_exact_mut(u * u * plane)) {
        for (i, &a) in phases.iter().enumerate() {
            for oi in 0..oh {
                let row = &src[(oi * s + a) * w..][..w];
                // Row `oi` of the planes `(i, 0..u)`, `plane` apart.
                let out = &mut planes[i * u * plane + oi * ow..];
                match (s, u) {
                    (2, 2) => deinterleave::<2>(row, out, plane),
                    (4, 4) => deinterleave::<4>(row, out, plane),
                    _ => {
                        for (j, &b) in phases.iter().enumerate() {
                            let out = &mut out[j * plane..][..ow];
                            for (d, &v) in out.iter_mut().zip(row[b..].iter().step_by(s)) {
                                d.write(v);
                            }
                        }
                    }
                }
            }
        }
    }
    // SAFETY: the loops above write row `oi` of every plane `(i, j)` of
    // every channel, `OW` elements each: all of `dst`.
    unsafe { &*(dst as *const [MaybeUninit<f32>] as *const [f32]) }
}

/// Splits one input row of `S·OW` pixels into its `S` column phases:
/// `dst[b·plane + oj] = row[oj·S + b]`, one pass over the row.
#[inline(always)]
fn deinterleave<const S: usize>(row: &[f32], dst: &mut [MaybeUninit<f32>], plane: usize) {
    let ow = row.len() / S;
    let mut rows = dst.chunks_mut(plane);
    let mut outs: [&mut [MaybeUninit<f32>]; S] =
        std::array::from_fn(|_| &mut rows.next().expect("one plane per phase")[..ow]);
    for (oj, px) in row.chunks_exact(S).enumerate() {
        for (out, &v) in outs.iter_mut().zip(px) {
            out[oj].write(v);
        }
    }
}

/// The B-row taps of every `NR`-column panel of a `k×k` convolution at
/// stride `s` and padding `p` whose input is `s` times its `oh×ow`
/// output in each direction, read from the image's phase planes
/// ([`split_phases`] of [`phases_read`]`(k, s, p)`; at `s = 1` the image
/// itself), `k²` per panel in `(ki, kj)` order: panel `j0 / NR` owns
/// `taps[j0/NR·k²..][..k²]`.
///
/// Kernel row `ki` reads phase row `(ki−p) mod s` at plane row offset
/// `⌊(ki−p)/s⌋` (columns alike), so tap `(ki, kj)` of the panel starting
/// at column `j0` has offset `plane·oh·ow + ⌊(ki−p)/s⌋·ow + ⌊(kj−p)/s⌋`
/// from `j0`, `plane` being the phase pair's index in the split. Its mask
/// keeps the lanes whose plane pixel lies inside its `oh×ow` plane, i.e.
/// whose input pixel lies inside the image: not in the padding, not
/// wrapped into a neighbouring row, and not past the last output column.
/// Masks depend on the panel alone, so one table serves every image and
/// channel of a call.
fn conv_taps((oh, ow): (usize, usize), k: usize, s: usize, p: usize) -> Vec<Tap> {
    let ohow = oh * ow;
    let phases = phases_read(k, s, p);
    // Per kernel index `d`: (index of phase `(d−p) mod s` among the
    // phases read, plane offset `⌊(d−p)/s⌋`).
    let shift: Vec<(usize, isize)> = (0..k)
        .map(|d| {
            let rel = d as isize - p as isize;
            let phase = rel.rem_euclid(s as isize) as usize;
            (phases.binary_search(&phase).expect("a phase read"), rel.div_euclid(s as isize))
        })
        .collect();
    let u = phases.len();
    let mut taps = Vec::with_capacity(ohow.div_ceil(NR) * k * k);
    // Per panel, the lanes whose plane row `oi + ⌊(ki−p)/s⌋` (resp.
    // column `oj + ⌊(kj−p)/s⌋`) lies inside the plane, for each `ki`
    // (resp. `kj`).
    let (mut rows, mut cols) = (vec![0u16; k], vec![0u16; k]);
    for j0 in (0..ohow).step_by(NR) {
        rows.fill(0);
        cols.fill(0);
        // Lanes past the last output column stay off in both.
        for l in 0..NR.min(ohow - j0) {
            let (oi, oj) = (((j0 + l) / ow) as isize, ((j0 + l) % ow) as isize);
            for ((row, col), &(_, off)) in rows.iter_mut().zip(&mut cols).zip(&shift) {
                if (0..oh as isize).contains(&(oi + off)) {
                    *row |= 1 << l;
                }
                if (0..ow as isize).contains(&(oj + off)) {
                    *col |= 1 << l;
                }
            }
        }
        for (&row, &(i, di)) in rows.iter().zip(&shift) {
            for (&col, &(j, dj)) in cols.iter().zip(&shift) {
                let offset = ((i * u + j) * ohow) as isize + di * ow as isize + dj;
                taps.push(Tap { offset, mask: row & col });
            }
        }
    }
    taps
}

/// 2-D convolution forward: `x: [N,C,H,W]`, `w: [O,C,K,K]`, optional
/// `bias: [O]` → `[N,O,OH,OW]`.
///
/// The weight matrix is packed into `MR`-row panels once. Each task then
/// owns one image and a fixed range of its `NR`-column output panels. A
/// conv with `H = s·OH` and `W = s·OW` reads each panel's B rows in place
/// from the image's phase planes (the image itself at stride 1, else
/// split once per image into pooled scratch) under `conv_taps`' lane
/// masks; any other conv packs each panel into one pooled scratch panel
/// (`pack_panel`). Every weight row panel then runs over the panel's
/// rows, so neither an im2col matrix nor a batch-wide pack buffer is ever
/// allocated, and each output element is written once into an
/// uninitialised pooled buffer. Every output element is one full-`k`
/// accumulation chain in `k` order seeded from 0, with the bias added
/// afterwards: bit-identical to a per-image [`sgemm`] on the unfolded
/// image plus bias, for every thread count and dispatched micro-kernel.
/// When tracing records, each call adds one `tensor.conv.ns` sample, its
/// flops to `tensor.conv.flops` and its kernel ordinal to `gemm.kernel`.
///
/// # Panics
///
/// Panics on rank or channel mismatches, a zero kernel or stride, or a
/// window larger than the padded input.
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
    let (oh, ow) = window_out_dims("conv2d", x.dims(), k, spec.stride, spec.padding);
    let (ohow, ckk, chw) = (oh * ow, c * k * k, c * h * wd);
    if n == 0 || o == 0 || ohow == 0 || ckk == 0 {
        return Tensor::from_buffer(workspace::zeroed(n * o * ohow), [n, o, oh, ow]);
    }

    let kern = kernels::active();
    let t0 = trace::recording().then(Instant::now);
    let mpanels = o.div_ceil(MR);
    let mut wpack = workspace::take(mpanels * ckk * MR);
    for pi in 0..mpanels {
        let i0 = pi * MR;
        linalg::pack_a(ckk, w.as_slice(), i0, MR.min(o - i0), &mut wpack[pi * ckk * MR..]);
    }

    // A conv whose input is `s` times its output in each direction reads
    // its im2col rows in place from the image's phase planes; every other
    // conv packs its panels. A strided in-place task owns a whole image,
    // so the image is split once.
    let s = spec.stride;
    let taps = (h == s * oh && wd == s * ow).then(|| conv_taps((oh, ow), k, s, spec.padding));
    let phases = phases_read(k, s, spec.padding);
    let split = taps.is_some() && s > 1;
    // The channel stride of the rows read in place: the image's own at
    // stride 1, else the phase planes the taps read.
    let plane = phases.len() * phases.len() * ohow;
    let panels = ohow.div_ceil(NR);
    let per_task = if split { panels } else { PANELS_PER_TASK };
    let ranges = panels.div_ceil(per_task);
    let flops = 2usize.saturating_mul(n * o).saturating_mul(ckk * ohow);
    let _serial = (flops < linalg::PAR_FLOP_THRESHOLD).then(|| parallel::with_threads(1));
    let mut out = workspace::with_capacity(n * o * ohow);
    let ob = SendPtr(out.as_mut_ptr());
    let (x_all, wpack, bias) = (x.as_slice(), &wpack[..], bias.map(Tensor::as_slice));
    parallel::parallel_for(n * ranges, |t| {
        let (ni, ri) = (t / ranges, t % ranges);
        let image = &x_all[ni * chw..(ni + 1) * chw];
        let mut planes = split.then(|| workspace::scratch(c * plane));
        let src = match &mut planes {
            Some(buf) => split_phases(image, (c, h, wd), s, &phases, buf.spare_capacity_mut()),
            None => image,
        };
        let mut panel = taps.is_none().then(|| workspace::scratch(ckk * NR));
        let first = ri * per_task * NR;
        for j0 in (first..ohow.min(first + per_task * NR)).step_by(NR) {
            let cols = NR.min(ohow - j0);
            let rows = match &taps {
                Some(taps) => {
                    let panel_taps = &taps[j0 / NR * k * k..][..k * k];
                    BRows::tapped(src, j0, plane, c, panel_taps)
                }
                None => {
                    let dst = panel.as_mut().expect("packing convs take a panel");
                    let dst = dst.spare_capacity_mut();
                    BRows::packed(pack_panel(image, (c, h, wd), spec, (oh, ow), j0, dst), ckk)
                }
            };
            linalg::col_panel(kern, o, wpack, &rows, |r, lanes| {
                // SAFETY: output columns `j0..j0+cols` of image `ni` lie in
                // `out`'s capacity and belong to task t alone (the (image,
                // panel range) → task map is a bijection), each row's run is
                // written once, and `out` outlives the thread scope.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(
                        ob.get().add((ni * o + r) * ohow + j0).cast::<MaybeUninit<f32>>(),
                        cols,
                    )
                };
                match bias {
                    Some(b) => {
                        let bv = b[r];
                        for (d, &v) in dst.iter_mut().zip(lanes) {
                            d.write(v + bv);
                        }
                    }
                    None => {
                        for (d, &v) in dst.iter_mut().zip(lanes) {
                            d.write(v);
                        }
                    }
                }
            });
        }
    });
    // SAFETY: the tasks' panels cover every output column of every image,
    // and `col_panel` stores every output row of each, so all
    // `n·o·ohow` elements were written.
    unsafe { out.set_len(n * o * ohow) };
    if let Some(t0) = t0 {
        linalg::record_conv(t0, kern, flops);
    }
    Tensor::from_buffer(out, [n, o, oh, ow])
}

/// Gradients of [`conv2d`] with respect to input, weight, and bias,
/// through an `im2col` unfold of each image.
///
/// Returns `(grad_x, grad_w, grad_bias)`; `grad_bias` is `None` iff
/// `has_bias` is false.
///
/// # Panics
///
/// Panics on the shapes [`conv2d`] rejects, or if `grad_out` is not
/// `[N, O, OH, OW]`.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    has_bias: bool,
) -> (Tensor, Tensor, Option<Tensor>) {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, k, _) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let (oh, ow) = window_out_dims("conv2d_backward", x.dims(), k, spec.stride, spec.padding);
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
///
/// # Panics
///
/// Panics if `x` is not 4-D, `kernel` or `stride` is 0, or the window
/// exceeds the input.
pub fn maxpool2d(x: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let (oh, ow) = window_out_dims("maxpool2d", x.dims(), kernel, stride, 0);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let mut out = workspace::with_capacity(n * c * oh * ow);
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
    (Tensor::from_buffer(out, [n, c, oh, ow]), arg)
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
///
/// # Panics
///
/// Panics if `x` is not 4-D, `kernel` or `stride` is 0, or the window
/// exceeds the input.
pub fn avgpool2d(x: &Tensor, kernel: usize, stride: usize) -> Tensor {
    let (oh, ow) = window_out_dims("avgpool2d", x.dims(), kernel, stride, 0);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let norm = (kernel * kernel) as f32;
    let mut out = workspace::with_capacity(n * c * oh * ow);
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
    Tensor::from_buffer(out, [n, c, oh, ow])
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
    let mut out = workspace::with_capacity(n * c);
    for chunk in x.as_slice().chunks(h * w) {
        out.push(chunk.iter().sum::<f32>() / hw);
    }
    Tensor::from_buffer(out, [n, c])
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

/// Naive direct convolution used by tests to validate [`conv2d`].
pub fn conv2d_naive(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, k, _) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let (oh, ow) = window_out_dims("conv2d_naive", x.dims(), k, spec.stride, spec.padding);
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

    /// `pack_b(im2col(x))` for one `[C, H, W]` image: every column panel
    /// of its im2col matrix, k-major, padding lanes zero.
    fn packed_oracle(x: &[f32], (c, h, w): (usize, usize, usize), spec: Conv2dSpec) -> Vec<f32> {
        let (ckk, ohow) = (c * spec.kernel * spec.kernel, spec.out_dim(h) * spec.out_dim(w));
        let mut cols = vec![0.0; ckk * ohow];
        im2col(x, c, h, w, spec, &mut cols);
        let mut packed = vec![0.0; ohow.div_ceil(NR) * ckk * NR];
        linalg::pack_b(ckk, ohow, &cols, &mut packed);
        packed
    }

    /// Packs every panel of a `[C, H, W]` image of distinct non-zero
    /// values into a NaN-poisoned buffer and compares it bitwise with
    /// [`packed_oracle`], so a lane left unwritten or misplaced shows.
    fn check_packer((c, h, w): (usize, usize, usize), spec: Conv2dSpec) -> Result<(), String> {
        let x: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 1.0).collect();
        let (oh, ow) = (spec.out_dim(h), spec.out_dim(w));
        let ckk = c * spec.kernel * spec.kernel;
        let oracle = packed_oracle(&x, (c, h, w), spec);
        let mut panel = vec![MaybeUninit::new(f32::NAN); ckk * NR];
        for (pj, want) in oracle.chunks_exact(ckk * NR).enumerate() {
            panel.fill(MaybeUninit::new(f32::NAN));
            let got = pack_panel(&x, (c, h, w), spec, (oh, ow), pj * NR, &mut panel);
            if let Some(i) = (0..ckk * NR).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                return Err(format!(
                    "c={c} h={h} w={w} {spec:?} panel {pj}: row {} lane {}: {} vs oracle {}",
                    i / NR,
                    i % NR,
                    got[i],
                    want[i]
                ));
            }
        }
        Ok(())
    }

    /// Reads every panel of a `[C, H, W]` image of distinct non-zero values
    /// in place, from its phase planes (split into a NaN-poisoned buffer)
    /// through [`conv_taps`], and compares the rows bitwise with
    /// [`packed_oracle`], so a lane that reads a wrong pixel, reads where
    /// the oracle holds a zero, or reads a plane slot the split left
    /// unwritten shows. `spec` must satisfy `H = s·OH` and `W = s·OW`.
    fn check_taps((c, h, w): (usize, usize, usize), spec: Conv2dSpec) -> Result<(), String> {
        let (k, s) = (spec.kernel, spec.stride);
        let (oh, ow) = (spec.out_dim(h), spec.out_dim(w));
        assert_eq!((h, w), (s * oh, s * ow), "{spec:?} on {h}×{w} is not a phase-plane conv");
        let x: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 1.0).collect();
        let oracle = packed_oracle(&x, (c, h, w), spec);
        let phases = phases_read(k, s, spec.padding);
        let plane = phases.len() * phases.len() * oh * ow;
        let mut poisoned = vec![MaybeUninit::new(f32::NAN); c * plane];
        let planes = split_phases(&x, (c, h, w), s, &phases, &mut poisoned);
        let taps = conv_taps((oh, ow), k, s, spec.padding);
        let ckk = c * k * k;
        for (pj, want) in oracle.chunks_exact(ckk * NR).enumerate() {
            let got =
                BRows::tapped(planes, pj * NR, plane, c, &taps[pj * k * k..][..k * k]).to_packed();
            if let Some(i) = (0..ckk * NR).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                return Err(format!(
                    "c={c} h={h} w={w} {spec:?} panel {pj}: row {} lane {}: {} vs oracle {}",
                    i / NR,
                    i % NR,
                    got[i],
                    want[i]
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn in_place_rows_match_pack_b_of_im2col(
            half in 0usize..=2,
            c in 1usize..=4,
            h in 1usize..=12,
            w in 1usize..=12,
        ) {
            let k = 2 * half + 1;
            if let Err(msg) = check_taps((c, h, w), Conv2dSpec::new(k, 1, k / 2)) {
                proptest::prop_assert!(false, "{}", msg);
            }
        }

        /// Strided phase-plane rows: every `(k, s, p)` with
        /// `k − s ≤ 2p ≤ k − 1`, the condition under which
        /// `H = s·OH` holds for every multiple `H` of `s`.
        #[test]
        fn phase_plane_rows_match_pack_b_of_im2col(
            k in 1usize..=5,
            s in 2usize..=4,
            p in 0usize..=2,
            c in 1usize..=3,
            oh in 1usize..=6,
            ow in 1usize..=6,
        ) {
            proptest::prop_assume!(k <= s + 2 * p && 2 * p < k);
            let (h, w) = (s * oh, s * ow);
            proptest::prop_assume!(k <= h.min(w) + 2 * p);
            if let Err(msg) = check_taps((c, h, w), Conv2dSpec::new(k, s, p)) {
                proptest::prop_assert!(false, "{}", msg);
            }
        }

        #[test]
        fn pack_panel_matches_pack_b_of_im2col(
            k in 1usize..=5,
            s in 1usize..=3,
            p in 0usize..=2,
            c in 1usize..=4,
            h in 1usize..=12,
            w in 1usize..=12,
        ) {
            proptest::prop_assume!(k <= h.min(w) + 2 * p);
            if let Err(msg) = check_packer((c, h, w), Conv2dSpec::new(k, s, p)) {
                proptest::prop_assert!(false, "{}", msg);
            }
        }
    }

    /// The zoo's strided shapes and the phase-plane edge cases the
    /// proptest may miss: ResNet's 3×3/2 entries and 1×1/2 downsamples,
    /// DeiT's 4×4/4 patch embed, a kernel reaching two planes back
    /// (5×5/2, padding 2) and a stride-3 plane set.
    #[test]
    fn phase_plane_rows_match_pack_b_of_im2col_on_zoo_shapes() {
        for (chw, (k, s, p)) in [
            ((8, 32, 32), (3, 2, 1)),
            ((16, 16, 16), (3, 2, 1)),
            ((32, 8, 8), (3, 2, 1)),
            ((8, 32, 32), (1, 2, 0)),
            ((32, 8, 8), (1, 2, 0)),
            ((3, 32, 32), (4, 4, 0)),
            ((2, 10, 6), (5, 2, 2)),
            ((2, 9, 12), (3, 3, 1)),
            ((1, 2, 2), (3, 2, 1)), // one output pixel
        ] {
            check_taps(chw, Conv2dSpec::new(k, s, p)).unwrap();
        }
    }

    /// The panel edge cases the proptest may miss: one panel narrower than
    /// `NR`, a ragged last panel, panels crossing several output rows,
    /// stride-2/3 gathers with padding, and exact multiples of `NR`.
    #[test]
    fn pack_panel_matches_pack_b_of_im2col_at_panel_edges() {
        for (chw, (k, s, p)) in [
            ((1, 1, 1), (1, 1, 0)),  // OH·OW = 1
            ((2, 3, 5), (3, 1, 1)),  // 15 < NR
            ((3, 7, 5), (3, 1, 1)),  // 35 = 2·NR + 3
            ((2, 12, 9), (3, 2, 1)), // stride 2, 6×5
            ((4, 11, 12), (5, 3, 2)),
            ((2, 8, 8), (1, 2, 0)), // 1×1 stride-2 downsample
            ((3, 4, 4), (3, 1, 1)), // exactly one panel
            ((1, 8, 8), (3, 1, 1)), // exactly four panels
            ((2, 2, 6), (5, 1, 2)), // kernel wider than the input
            ((2, 0, 3), (1, 1, 1)), // empty input, padding only
        ] {
            check_packer(chw, Conv2dSpec::new(k, s, p)).unwrap();
        }
    }

    /// `conv2d` equals a per-image `sgemm(w, im2col(x))` plus bias bit for
    /// bit under every supported micro-kernel and thread budget, on
    /// ResNet-18's conv shapes (CIFAR input, base width 8), DeiT's patch
    /// embed, a 1×1 stride-1 conv, a "valid" stride-1 conv and an odd-size
    /// stride-2 conv at batch 1 and 32, plus one base-width-16 layer large
    /// enough to run in parallel. The shapes with `H = s·OH` read their
    /// rows in place (from phase planes at stride 2 and 4), the others
    /// pack.
    #[test]
    fn conv2d_equals_per_image_sgemm_of_im2col() {
        use crate::parallel::with_threads;
        let _lock = kernels::force_lock();
        let mut rng = StdRng::seed_from_u64(17);
        let shapes = [
            // (C, O, H, K, stride, padding)
            (3, 8, 32, 3, 1, 1),   // stem, in place
            (8, 8, 32, 3, 1, 1),   // stage-0 3×3, in place
            (16, 16, 16, 3, 1, 1), // stage-1 3×3, in place
            (32, 32, 8, 3, 1, 1),  // stage-2 3×3, in place: a panel spans 2 rows
            (64, 64, 4, 3, 1, 1),  // stage-3 3×3, in place: a panel spans 4 rows
            (8, 16, 16, 1, 1, 0),  // 1×1 stride 1, in place
            (8, 8, 12, 3, 1, 0),   // "valid" stride 1 (OW ≠ W), packed
            (8, 16, 32, 3, 2, 1),  // stage-1 entry 3×3 stride 2, phase planes
            (16, 32, 16, 3, 2, 1), // stage-2 entry, phase planes
            (32, 64, 8, 3, 2, 1),  // stage-3 entry, phase planes
            (8, 16, 32, 1, 2, 0),  // stage-1 1×1 stride-2 downsample, phase planes
            (32, 64, 8, 1, 2, 0),  // stage-3 downsample, phase planes
            (3, 48, 32, 4, 4, 0),  // DeiT patch embed 4×4 stride 4, phase planes
            (4, 8, 15, 3, 2, 1),   // odd size at stride 2 (W ≠ 2·OW), packed
        ];
        let mut cases: Vec<_> =
            shapes.iter().flat_map(|&shape| [(1, shape), (32, shape)]).collect();
        cases.push((32, (32, 32, 16, 3, 1, 1)));
        cases.push((32, (32, 64, 16, 3, 2, 1)));
        for (n, (c, o, hw, k, s, p)) in cases {
            let spec = Conv2dSpec::new(k, s, p);
            let x = Tensor::randn([n, c, hw, hw], &mut rng);
            let w = Tensor::randn([o, c, k, k], &mut rng);
            let b = Tensor::randn([o], &mut rng);
            let bias = (n == 1).then_some(&b);
            let (ckk, oh) = (c * k * k, spec.out_dim(hw));
            let ohow = oh * oh;
            let mut want = vec![0.0f32; n * o * ohow];
            let mut cols = vec![0.0; ckk * ohow];
            for (img, y) in
                x.as_slice().chunks_exact(c * hw * hw).zip(want.chunks_exact_mut(o * ohow))
            {
                im2col(img, c, hw, hw, spec, &mut cols);
                sgemm(o, ckk, ohow, w.as_slice(), &cols, y);
                if let Some(b) = bias {
                    for (row, &bv) in y.chunks_exact_mut(ohow).zip(b.as_slice()) {
                        row.iter_mut().for_each(|v| *v += bv);
                    }
                }
            }
            for kern in kernels::supported_kernels() {
                kernels::force(Some(kern));
                for threads in [1usize, 2, 8] {
                    let _g = with_threads(threads);
                    let got = conv2d(&x, &w, bias, spec);
                    assert_eq!(got.dims(), &[n, o, oh, oh]);
                    for (i, (a, r)) in got.as_slice().iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            r.to_bits(),
                            "n={n} c={c} o={o} {hw}² {spec:?} {kern} t={threads} diverges at {i}"
                        );
                    }
                }
            }
            kernels::force(None);
        }
    }

    /// Images 0 and 2 of a batch of 3 are NaN, so a lane that reads past
    /// its own image, or wraps into a neighbouring row, channel or phase
    /// plane where the oracle holds a padding zero, changes image 1's
    /// output. For every in-place shape (stride 1, and the phase-plane
    /// strides 2 and 4) and kernel, image 1 must equal its batch-of-1
    /// output bit for bit.
    #[test]
    fn in_place_conv_reads_nothing_outside_its_window() {
        let _lock = kernels::force_lock();
        let mut rng = StdRng::seed_from_u64(23);
        for (c, o, hw, k, s, p) in [
            (3, 8, 32, 3, 1, 1),
            (8, 8, 32, 3, 1, 1),
            (16, 16, 16, 3, 1, 1),
            (32, 32, 8, 3, 1, 1),
            (64, 64, 4, 3, 1, 1),
            (8, 16, 16, 1, 1, 0),
            (2, 4, 5, 5, 1, 2),
            (8, 16, 32, 3, 2, 1),
            (16, 32, 16, 3, 2, 1),
            (32, 64, 8, 3, 2, 1),
            (8, 16, 32, 1, 2, 0),
            (3, 48, 32, 4, 4, 0),
            (2, 4, 10, 5, 2, 2),
        ] {
            let spec = Conv2dSpec::new(k, s, p);
            let chw = c * hw * hw;
            let one = Tensor::randn([1, c, hw, hw], &mut rng);
            let mut three = vec![f32::NAN; 3 * chw];
            three[chw..2 * chw].copy_from_slice(one.as_slice());
            let three = Tensor::from_vec(three, [3, c, hw, hw]);
            let w = Tensor::randn([o, c, k, k], &mut rng);
            for kern in kernels::supported_kernels() {
                kernels::force(Some(kern));
                let want = conv2d(&one, &w, None, spec);
                let got = conv2d(&three, &w, None, spec);
                let ohw = o * spec.out_dim(hw) * spec.out_dim(hw);
                let mid = &got.as_slice()[ohw..2 * ohw];
                for (i, (a, r)) in mid.iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        r.to_bits(),
                        "c={c} o={o} {hw}² {spec:?} {kern}: image 1 diverges at {i}: {a} vs {r}"
                    );
                }
            }
            kernels::force(None);
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel must be at least 1, got 0")]
    fn spec_rejects_zero_kernel() {
        Conv2dSpec::new(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "conv stride must be at least 1, got 0")]
    fn spec_rejects_zero_stride() {
        Conv2dSpec::new(3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "conv2d: kernel and stride must be at least 1")]
    fn conv2d_rejects_zero_stride_spec_literal() {
        let spec = Conv2dSpec { kernel: 1, stride: 0, padding: 0 };
        conv2d(&Tensor::ones([1, 1, 2, 2]), &Tensor::ones([1, 1, 1, 1]), None, spec);
    }

    #[test]
    #[should_panic(expected = "conv2d: 5×5 window with padding 1 does not fit input [1, 1, 2, 2]")]
    fn conv2d_rejects_window_wider_than_padded_input() {
        let spec = Conv2dSpec::new(5, 1, 1);
        conv2d(&Tensor::ones([1, 1, 2, 2]), &Tensor::ones([1, 1, 5, 5]), None, spec);
    }

    #[test]
    #[should_panic(expected = "conv2d: 5×5 window with padding 1 does not fit input [1, 1, 2, 2]")]
    fn conv2d_rejects_window_wider_than_padded_input_at_stride_2() {
        let spec = Conv2dSpec::new(5, 2, 1);
        conv2d(&Tensor::ones([1, 1, 2, 2]), &Tensor::ones([1, 1, 5, 5]), None, spec);
    }

    #[test]
    #[should_panic(expected = "conv: 5×5 window with padding 1 does not fit input [2, 2]")]
    fn out_dim_rejects_window_wider_than_padded_input() {
        Conv2dSpec::new(5, 3, 1).out_dim(2);
    }

    #[test]
    #[should_panic(
        expected = "maxpool2d: 3×3 window with padding 0 does not fit input [1, 1, 2, 2]"
    )]
    fn maxpool_rejects_window_wider_than_input() {
        maxpool2d(&Tensor::ones([1, 1, 2, 2]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "maxpool2d: kernel and stride must be at least 1")]
    fn maxpool_rejects_zero_stride() {
        maxpool2d(&Tensor::ones([1, 1, 2, 2]), 2, 0);
    }

    #[test]
    #[should_panic(
        expected = "avgpool2d: 3×3 window with padding 0 does not fit input [1, 1, 2, 2]"
    )]
    fn avgpool_rejects_window_wider_than_input() {
        avgpool2d(&Tensor::ones([1, 1, 2, 2]), 3, 3);
    }

    #[test]
    #[should_panic(expected = "avgpool2d: kernel and stride must be at least 1")]
    fn avgpool_rejects_zero_kernel() {
        avgpool2d(&Tensor::ones([1, 1, 2, 2]), 0, 1);
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
