//! Dense linear algebra kernels: 2-D and batched matrix multiplication.
//!
//! The inner kernel is a **packed-panel, register-tiled SGEMM**: `b` is
//! packed once into zero-padded [`kernels::NR`]-column panels, each
//! [`kernels::MR`]-row panel of `a` is packed k-major, and an `MR×NR`
//! register-accumulator micro-kernel walks the full `k` extent in one
//! pass. The micro-kernel is selected per call by runtime CPU-feature
//! dispatch ([`kernels::active`]): hand-written AVX-512 or AVX2
//! intrinsics on x86_64 hosts that support them, the portable scalar loop
//! everywhere else — all bit-identical by construction (see [`kernels`]).
//!
//! Row panels are independent, so they are dispatched to the intra-op
//! worker pool ([`crate::parallel`]); every output element is produced by
//! exactly one task with a fixed accumulation order, which makes results
//! **bit-exact** against [`matmul_naive`] and identical for every thread
//! count and micro-kernel. See DESIGN.md §10 and §15.

pub mod kernels;

use std::sync::OnceLock;
use std::time::Instant;

use crate::parallel::{self, SendPtr};
use crate::tensor::Tensor;
use crate::workspace;
use kernels::{BRows, Kernel, MR, NR};

/// Below this many flops (`2·m·k·n`) the panel loop stays on one thread.
/// `parallel_for` spawns scoped OS threads per dispatch (no persistent
/// pool), which costs on the order of a millisecond on containerised
/// hosts — comparable to the *entire* GEMM for the small layers of the
/// evaluation models. Threading only pays once the per-dispatch work is
/// tens of milliseconds, i.e. hundreds of megaflops: 512³ and up stay
/// parallel, everything a serial campaign trial touches stays on the
/// worker's own thread (campaign-level `--jobs` parallelism composes on
/// top without oversubscription).
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1 << 27;

struct GemmMetrics {
    pack_ns: &'static trace::Metric,
    kernel_ns: &'static trace::Metric,
    kernel_kind: &'static trace::Metric,
    flops: &'static trace::Metric,
    conv_ns: &'static trace::Metric,
    conv_flops: &'static trace::Metric,
}

fn gemm_metrics() -> &'static GemmMetrics {
    static METRICS: OnceLock<GemmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| GemmMetrics {
        pack_ns: trace::histogram(trace::names::TENSOR_GEMM_PACK_NS),
        kernel_ns: trace::histogram(trace::names::TENSOR_GEMM_KERNEL_NS),
        kernel_kind: trace::histogram(trace::names::GEMM_KERNEL),
        flops: trace::counter(trace::names::TENSOR_GEMM_FLOPS),
        conv_ns: trace::histogram(trace::names::TENSOR_CONV_NS),
        conv_flops: trace::counter(trace::names::TENSOR_CONV_FLOPS),
    })
}

/// Records one forward convolution started at `t`: its wall time under
/// `tensor.conv.ns`, its flops under `tensor.conv.flops` and the
/// dispatched micro-kernel's ordinal under `gemm.kernel`. Convolutions
/// stay out of `tensor.gemm.*`.
pub(crate) fn record_conv(t: Instant, kern: Kernel, flops: usize) {
    let m = gemm_metrics();
    m.conv_ns.record(t.elapsed().as_nanos() as u64);
    m.conv_flops.add(flops as u64);
    m.kernel_kind.record(kern.ordinal());
}

impl GemmMetrics {
    /// Records one GEMM dispatch: kernel-phase wall time, the dispatched
    /// micro-kernel's ordinal, and the flop count.
    fn record_dispatch(&self, t: Instant, kern: Kernel, flops: usize) {
        self.kernel_ns.record(t.elapsed().as_nanos() as u64);
        self.kernel_kind.record(kern.ordinal());
        self.flops.add(flops as u64);
    }
}

/// Multiplies two matrices: `[m, k] × [k, n] → [m, n]`.
///
/// # Panics
///
/// Panics if operands are not 2-D or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use tensor::{Tensor, linalg::matmul};
/// let a = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
/// let b = Tensor::from_vec(vec![5., 6., 7., 8.], [2, 2]);
/// assert_eq!(matmul(&a, &b).as_slice(), &[19., 22., 43., 50.]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims: {:?} × {:?}", a.shape(), b.shape());
    let mut out = workspace::zeroed(m * n);
    sgemm(m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_buffer(out, [m, n])
}

/// Batched matrix multiply: `[b, m, k] × [b, k, n] → [b, m, n]`.
///
/// Every `(batch, row-panel)` pair is an independent task on the shared
/// worker pool, so large batches of small matrices parallelise as well as
/// one large matrix; per-batch results are bit-identical to per-batch
/// [`matmul`] calls.
///
/// # Panics
///
/// Panics if operands are not 3-D or batch/inner dimensions disagree.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 3, "bmm lhs must be 3-D, got {:?}", a.shape());
    assert_eq!(b.ndim(), 3, "bmm rhs must be 3-D, got {:?}", b.shape());
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "bmm batch dims: {:?} × {:?}", a.shape(), b.shape());
    assert_eq!(k, k2, "bmm inner dims: {:?} × {:?}", a.shape(), b.shape());
    let mut out = workspace::zeroed(ba * m * n);
    gemm_batched(ba, m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_buffer(out, [ba, m, n])
}

/// `out += a × b` for row-major `a: m×k`, `b: k×n`, `out: m×n`.
///
/// Packed-panel register-tiled kernel, parallel over `MR`-row output
/// panels. Per output element the accumulation chain is
/// `out[i,j] + a[i,0]·b[0,j] + a[i,1]·b[1,j] + …` in `k` order — exactly
/// the naive order — so the result is bit-identical to [`matmul_naive`]
/// (on a zeroed `out`) and to itself under any thread count or dispatched
/// micro-kernel.
///
/// # Panics
///
/// Panics if the slice lengths are not `m·k`, `k·n` and `m·n`.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_batched(1, m, k, n, a, b, out);
}

/// The one GEMM loop nest: `out[bi] += a[bi] × b[bi]` for `ba` row-major
/// matrices laid out back to back (`a: ba×m×k`, `b: ba×k×n`,
/// `out: ba×m×n`). Packs every `b` into column panels, then runs each
/// `(batch, MR-row panel)` pair as one task — on the caller's thread below
/// [`PAR_FLOP_THRESHOLD`] — and records the dispatch.
fn gemm_batched(ba: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    // The row-panel tasks below write `out` through a raw pointer.
    assert!(
        a.len() == ba * m * k && b.len() == ba * k * n && out.len() == ba * m * n,
        "gemm operand lengths {}/{}/{} do not match ba={ba}, m={m}, k={k}, n={n}",
        a.len(),
        b.len(),
        out.len()
    );
    if ba == 0 || m == 0 || n == 0 {
        return;
    }

    let kern = kernels::active();
    let timing = trace::recording();
    let t0 = timing.then(Instant::now);
    let bpanels_len = n.div_ceil(NR) * k * NR;
    let mut bpack = workspace::take(ba * bpanels_len);
    for bi in 0..ba {
        let dst = &mut bpack[bi * bpanels_len..(bi + 1) * bpanels_len];
        pack_b(k, n, &b[bi * k * n..(bi + 1) * k * n], dst);
    }
    if let Some(t0) = t0 {
        gemm_metrics().pack_ns.record(t0.elapsed().as_nanos() as u64);
    }

    let t1 = timing.then(Instant::now);
    let mpanels = m.div_ceil(MR);
    let flops = 2usize.saturating_mul(ba).saturating_mul(m * k * n);
    let _serial = (flops < PAR_FLOP_THRESHOLD).then(|| parallel::with_threads(1));
    let base = SendPtr(out.as_mut_ptr());
    let bpack_all = &bpack[..];
    parallel::parallel_for(ba * mpanels, |t| {
        let (bi, pi) = (t / mpanels, t % mpanels);
        let i0 = pi * MR;
        let rows = MR.min(m - i0);
        let mut apack = workspace::take(k * MR);
        pack_a(k, &a[bi * m * k..(bi + 1) * m * k], i0, rows, &mut apack);
        // SAFETY: task t owns exactly rows `i0..i0+rows` of batch `bi`;
        // the (bi, pi) → task mapping is a bijection, so regions are
        // disjoint, and `out` outlives the thread scope.
        let orow = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(bi * m * n + i0 * n), rows * n)
        };
        row_panel(kern, k, n, rows, &apack, &bpack_all[bi * bpanels_len..], orow);
    });
    if let Some(t1) = t1 {
        gemm_metrics().record_dispatch(t1, kern, flops);
    }
}

/// Packs `b: k×n` into `⌈n/NR⌉` contiguous k-major panels:
/// `dst[(panel·k + kk)·NR + c] = b[kk, panel·NR + c]`, zero-padding the
/// ragged last panel so the micro-kernel never branches on width.
pub(crate) fn pack_b(k: usize, n: usize, b: &[f32], dst: &mut [f32]) {
    let npanels = n.div_ceil(NR);
    for pj in 0..npanels {
        let j0 = pj * NR;
        let cols = NR.min(n - j0);
        let panel = &mut dst[pj * k * NR..(pj + 1) * k * NR];
        for kk in 0..k {
            panel[kk * NR..kk * NR + cols].copy_from_slice(&b[kk * n + j0..kk * n + j0 + cols]);
            // Padding lanes stay zero: `workspace::take` hands out zeroed
            // buffers, and padded products are never stored back.
        }
    }
}

/// Packs rows `i0..i0+rows` of `a: ?×k` k-major:
/// `dst[kk·MR + r] = a[i0 + r, kk]`, zero-padding rows past `rows`
/// (padding exists only for lane uniformity and is never stored back).
pub(crate) fn pack_a(k: usize, a: &[f32], i0: usize, rows: usize, dst: &mut [f32]) {
    for r in 0..rows {
        for (kk, &v) in a[(i0 + r) * k..(i0 + r + 1) * k].iter().enumerate() {
            dst[kk * MR + r] = v;
        }
    }
    if rows < MR {
        for kk in 0..k {
            for r in rows..MR {
                dst[kk * MR + r] = 0.0;
            }
        }
    }
}

/// `orow += apack × bpack` for one packed `rows×k` row panel against every
/// packed column panel of one matrix (`orow` has row stride `n`), running
/// the dispatched micro-kernel `kern` on each register tile.
pub(crate) fn row_panel(
    kern: Kernel,
    k: usize,
    n: usize,
    rows: usize,
    apack: &[f32],
    bpack: &[f32],
    orow: &mut [f32],
) {
    let npanels = n.div_ceil(NR);
    for pj in 0..npanels {
        let j0 = pj * NR;
        let cols = NR.min(n - j0);
        let bpanel = &bpack[pj * k * NR..(pj + 1) * k * NR];
        // Seed the register tile with the existing output (`+=`
        // semantics; 0.0 on matmul's freshly zeroed buffer, matching the
        // naive accumulator's starting value bit-for-bit). Padded lanes
        // seed 0.0 and may accumulate garbage (0·Inf = NaN) but are never
        // stored back.
        let mut acc = [[0.0f32; NR]; MR];
        for r in 0..rows {
            acc[r][..cols].copy_from_slice(&orow[r * n + j0..r * n + j0 + cols]);
        }
        kernels::run(kern, apack, &BRows::packed(bpanel, k), &mut acc);
        for r in 0..rows {
            orow[r * n + j0..r * n + j0 + cols].copy_from_slice(&acc[r][..cols]);
        }
    }
}

/// One column panel's `k` B rows `b` against every packed `MR`-row panel
/// of an `m×k` matrix (`apack`, its row panels packed by [`pack_a`] one
/// after another): the column-panel counterpart of [`row_panel`]. Each
/// register tile is seeded from 0.0 and runs the dispatched micro-kernel
/// `kern` over the full `k`, then hands every real output row `i` to
/// `store(i, lanes)`. Lanes past the panel's real columns carry products
/// of padding and must be ignored.
pub(crate) fn col_panel(
    kern: Kernel,
    m: usize,
    apack: &[f32],
    b: &BRows,
    mut store: impl FnMut(usize, &[f32; NR]),
) {
    let k = b.k();
    assert!(
        apack.len() >= m.div_ceil(MR) * k * MR,
        "col_panel: packed A shorter than m={m}, k={k}"
    );
    for (pi, apanel) in apack.chunks_exact(k * MR).take(m.div_ceil(MR)).enumerate() {
        let i0 = pi * MR;
        let mut acc = [[0.0f32; NR]; MR];
        kernels::run(kern, apanel, b, &mut acc);
        for (r, lanes) in acc[..MR.min(m - i0)].iter().enumerate() {
            store(i0 + r, lanes);
        }
    }
}

/// Naive triple-loop reference GEMM used by tests to validate [`sgemm`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, [m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bitwise equality with the NaN-payload carve-out (see
    /// `kernels` module doc): non-NaN values must match exactly; NaN must
    /// appear at identical positions but may differ in payload.
    fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.dims(), b.dims(), "{ctx}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{ctx}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
        let eye = Tensor::from_vec(vec![1., 0., 0., 1.], [2, 2]);
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], [3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn packed_bit_exact_vs_naive_for_every_kernel() {
        let _lock = kernels::force_lock();
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (17, 33, 9),
            (64, 70, 65),
            (128, 100, 3),
            (1, 64, 1),
        ] {
            let a = Tensor::randn([m, k], &mut rng);
            let b = Tensor::randn([k, n], &mut rng);
            let slow = matmul_naive(&a, &b);
            for kern in kernels::supported_kernels() {
                kernels::force(Some(kern));
                assert_bits_eq(&matmul(&a, &b), &slow, &format!("({m},{k},{n}) {kern}"));
            }
            kernels::force(None);
        }
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::randn([65, 40, 33], &mut rng).reshape([65 * 40, 33]);
        let b = Tensor::randn([33, 29], &mut rng);
        let serial = {
            let _g = with_threads(1);
            matmul(&a, &b)
        };
        for threads in [2, 4, 8] {
            let _g = with_threads(threads);
            assert_bits_eq(&matmul(&a, &b), &serial, &format!("{threads} threads"));
        }
    }

    /// The old kernel's `aik == 0.0` skip dropped `0 × Inf = NaN`; the
    /// packed kernel must propagate it exactly like the naive reference —
    /// under every dispatched micro-kernel.
    #[test]
    fn nan_inf_propagation_matches_naive() {
        let _lock = kernels::force_lock();
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], [2, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 5.0, 6.0, f32::NEG_INFINITY], [2, 2]);
        let slow = matmul_naive(&a, &b);
        // NaN in a also survives a zero in the other operand.
        let a2 = Tensor::from_vec(vec![f32::NAN, 0.0, 0.0, 1.0], [2, 2]);
        let b2 = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], [2, 2]);
        let slow2 = matmul_naive(&a2, &b2);
        for kern in kernels::supported_kernels() {
            kernels::force(Some(kern));
            let fast = matmul(&a, &b);
            assert!(fast.as_slice()[0].is_nan(), "{kern}: 0·Inf must produce NaN");
            assert_bits_eq(&fast, &slow, &format!("nan-inf {kern}"));
            assert_bits_eq(&matmul(&a2, &b2), &slow2, &format!("nan-zero {kern}"));
        }
        kernels::force(None);
    }

    #[test]
    fn degenerate_dims() {
        for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 0, 1)] {
            let a = Tensor::zeros([m, k]);
            let b = Tensor::zeros([k, n]);
            let c = matmul(&a, &b);
            assert_eq!(c.dims(), &[m, n]);
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn sgemm_accumulates_into_existing_output() {
        // conv2d_backward relies on `out +=` across batches.
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
        let b = Tensor::from_vec(vec![1., 0., 0., 1.], [2, 2]);
        let mut out = vec![10.0f32; 4];
        sgemm(2, 2, 2, a.as_slice(), b.as_slice(), &mut out);
        assert_eq!(out, [11., 12., 13., 14.]);
    }

    #[test]
    fn bmm_matches_per_batch_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let (ba, m, k, n) = (6, 13, 21, 10);
        let a = Tensor::randn([ba, m, k], &mut rng);
        let b = Tensor::randn([ba, k, n], &mut rng);
        let serial = {
            let _g = with_threads(1);
            bmm(&a, &b)
        };
        assert_eq!(serial.dims(), &[ba, m, n]);
        for i in 0..ba {
            let ai = Tensor::from_vec(a.as_slice()[i * m * k..(i + 1) * m * k].to_vec(), [m, k]);
            let bi = Tensor::from_vec(b.as_slice()[i * k * n..(i + 1) * k * n].to_vec(), [k, n]);
            let ci = matmul(&ai, &bi);
            let got =
                Tensor::from_vec(serial.as_slice()[i * m * n..(i + 1) * m * n].to_vec(), [m, n]);
            assert_bits_eq(&got, &ci, &format!("batch {i}"));
        }
        for threads in [2, 8] {
            let _g = with_threads(threads);
            assert_bits_eq(&bmm(&a, &b), &serial, &format!("bmm {threads} threads"));
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
