//! Chunk-parallel tensor quantisation.
//!
//! The paper's Method 1 (`real_to_format_tensor`) is the hottest format
//! operation — every hooked layer output runs through it once per trial.
//! Elementwise formats (FP, FxP, posit) and the code-mapping pass of INT
//! are embarrassingly parallel, so they dispatch fixed-size chunks to the
//! intra-op worker pool ([`tensor::parallel`]).
//!
//! Chunk boundaries are a pure function of the tensor length (never the
//! thread count), every element is written by exactly one task, and
//! reductions fold per-chunk partials in chunk order — so quantised
//! outputs are **byte-identical** for every `--jobs` / thread-budget
//! setting. `tests/kernels.rs` pins this across 1/2/8 threads.
//!
//! Both drivers run their loops under [`kernels::with_isa`], the same
//! baseline / `avx2,fma` / `avx512f,fma` wrappers `tensor::math` uses,
//! chosen by [`kernels::active`]. The element arithmetic is inlined into
//! the wrapper, and vector lanes round like scalar instructions, so the
//! output is the same bits under every kernel; the formats' oracle tests
//! run under each one the host supports ([`for_each_kernel`]).

use std::mem::MaybeUninit;
use std::sync::OnceLock;
use std::time::Instant;

use tensor::linalg::kernels;
use tensor::{parallel, workspace, Tensor};

/// Elements per parallel work unit. Fixed — never derived from the thread
/// count — which is what makes chunked output thread-count invariant.
pub(crate) const QUANT_CHUNK: usize = 4096;

struct QuantMetrics {
    ns: &'static trace::Metric,
    elems: &'static trace::Metric,
}

fn quant_metrics() -> &'static QuantMetrics {
    static METRICS: OnceLock<QuantMetrics> = OnceLock::new();
    METRICS.get_or_init(|| QuantMetrics {
        ns: trace::histogram(trace::names::FORMATS_QUANTIZE_CHUNKED_NS),
        elems: trace::counter(trace::names::FORMATS_QUANTIZE_CHUNKED_ELEMS),
    })
}

/// Applies `f` elementwise over fixed [`QUANT_CHUNK`]-sized chunks on the
/// worker pool, under the dispatched instruction set; the drop-in
/// replacement for `t.map(f)` in `real_to_format_tensor` implementations.
///
/// `f` is `Copy` so each chunk loop runs on its own copy: a closure that
/// captures values (not `&self`) then keeps its constants in registers,
/// where a captured reference makes the loop reload them after every
/// store, since the compiler cannot rule out that `out` aliases them.
pub(crate) fn map_chunked(t: &Tensor, f: impl Fn(f32) -> f32 + Sync + Copy) -> Tensor {
    let timing = trace::recording();
    let t0 = timing.then(Instant::now);
    let src = t.as_slice();
    let mut out = workspace::zeroed(src.len());
    let kern = kernels::active();
    let _serial = (src.len() < parallel::PAR_MIN_ELEMS).then(|| parallel::with_threads(1));
    parallel::par_chunks_mut(&mut out, QUANT_CHUNK, |i, chunk| {
        let src = &src[i * QUANT_CHUNK..];
        kernels::with_isa(
            kern,
            #[inline(always)]
            || map_slice(f, src, chunk),
        )
    });
    if let Some(t0) = t0 {
        let metrics = quant_metrics();
        metrics.ns.record(t0.elapsed().as_nanos() as u64);
        metrics.elems.add(src.len() as u64);
    }
    Tensor::from_buffer(out, t.shape().clone())
}

/// `out[j] = f(src[j])`. Zipped slices, not `src[base + j]`: no bounds
/// check per element, so a branch-free `f` vectorises.
#[inline(always)]
fn map_slice(f: impl Fn(f32) -> f32, src: &[f32], out: &mut [f32]) {
    for (v, &x) in out.iter_mut().zip(src) {
        *v = f(x);
    }
}

/// Elements per group in [`map_lanes`]: one 512-bit register of f32.
const LANES: usize = 16;

/// `out[j] = f(src[j])` over fixed groups of [`LANES`], the last one
/// padded with zeros (`f` must be pure). Writes every element of `out`,
/// which may be uninitialised. For short runs such as one BFP block: a
/// loop of unknown length would run them in its scalar remainder, where
/// a fixed-size group compiles to straight vector code.
#[inline(always)]
pub(crate) fn map_lanes(f: impl Fn(f32) -> f32, src: &[f32], out: &mut [MaybeUninit<f32>]) {
    debug_assert_eq!(src.len(), out.len());
    #[inline(always)]
    fn group(f: &impl Fn(f32) -> f32, src: &[f32; LANES], out: &mut [MaybeUninit<f32>; LANES]) {
        for (v, &x) in out.iter_mut().zip(src) {
            v.write(f(x));
        }
    }
    let mut outs = out.chunks_exact_mut(LANES);
    let mut srcs = src.chunks_exact(LANES);
    for (o, s) in (&mut outs).zip(&mut srcs) {
        group(&f, s.try_into().expect("exact chunk"), o.try_into().expect("exact chunk"));
    }
    let (o, s) = (outs.into_remainder(), srcs.remainder());
    if !o.is_empty() {
        let (mut pad, mut y) = ([0.0f32; LANES], [MaybeUninit::uninit(); LANES]);
        pad[..s.len()].copy_from_slice(s);
        group(&f, &pad, &mut y);
        o.copy_from_slice(&y[..o.len()]);
    }
}

/// Chunk-parallel `max |x|` reduction, bit-identical to
/// `Tensor::max_abs`: each chunk's [`max_abs`] equals the serial fold of
/// `m.max(x.abs())` from 0.0, and the per-chunk partials are folded in
/// chunk order. `f32::max` is exact, so regrouping cannot change the result
/// (NaN elements are ignored by both paths, as `m.max(NaN) == m`).
pub(crate) fn max_abs_chunked(t: &Tensor) -> f32 {
    let src = t.as_slice();
    let tasks = src.len().div_ceil(QUANT_CHUNK).max(1);
    let mut partials = vec![0.0f32; tasks];
    let kern = kernels::active();
    let _serial = (src.len() < parallel::PAR_MIN_ELEMS).then(|| parallel::with_threads(1));
    parallel::par_chunks_mut(&mut partials, 1, |i, slot| {
        let start = i * QUANT_CHUNK;
        let end = (start + QUANT_CHUNK).min(src.len());
        slot[0] = kernels::with_isa(
            kern,
            #[inline(always)]
            || max_abs(&src[start..end]),
        );
    });
    partials.iter().fold(0.0f32, |m, &p| m.max(p))
}

/// `max |x|` over a slice, folded from 0.0; NaN elements are ignored
/// (`m.max(NaN) == m`). The fold runs on bit patterns: for non-negative
/// non-NaN floats the pattern orders like the value, so the integer max
/// of `|x|`'s patterns, with NaN counted as +0.0, is the pattern of the
/// float fold's result. Integer max is exact and associative, so the
/// [`LANES`] independent lanes (and the final tree reduction the
/// compiler picks) cannot change it, and `(max_abs(xs) as f64)` equals a
/// fold over `(x as f64).abs()`. `#[inline]` so it compiles inside the
/// dispatched wrapper of its caller.
#[inline]
fn max_abs(xs: &[f32]) -> f32 {
    let key = |x: f32| {
        let b = x.to_bits() & 0x7fff_ffff;
        if b > f32::INFINITY.to_bits() {
            0
        } else {
            b
        }
    };
    let mut acc = [0u32; LANES];
    let mut groups = xs.chunks_exact(LANES);
    for g in &mut groups {
        for (a, &x) in acc.iter_mut().zip(g) {
            *a = (*a).max(key(x));
        }
    }
    let tail = groups.remainder().iter().fold(0, |m, &x| m.max(key(x)));
    f32::from_bits(acc.iter().fold(tail, |m, &a| m.max(a)))
}

/// Block-scaled Method 1, shared by BFP and MX: each block's register
/// code from its `max |x|` (`code_for_max`), then the block quantised
/// under its code (`quantize_block(code, src, out)`, which must write every
/// element of `out`). Pass both as `#[inline(always)]` closures: only
/// inlined code is compiled for the dispatched instruction set. They are
/// `Copy` so that each task takes them by value: a closure that owns a
/// copy of the format keeps its fields in registers, where one behind a
/// reference measured ~1.6× slower on `bfp:e5m5:b16` (AVX-512 Xeon).
///
/// The tensor is worked [`GROUP`] blocks at a time: the group's maxima
/// are collected in one array and their codes computed one block per
/// lane, so a branch-free `code_for_max` runs as vector code across the
/// blocks, and the group is quantised while its elements are still in
/// L1. Each element goes through exactly the arithmetic `quantize_block`
/// gives it, so grouping changes no bit. The values are written into an
/// uninitialised pool buffer: every element is written exactly once.
///
/// A task covers a fixed run of *whole* blocks (about [`QUANT_CHUNK`]
/// elements), so chunk boundaries align with the blocks and the result is
/// identical for every thread count; tasks take the
/// [`parallel::PAR_MIN_ELEMS`] serial guard and run under the dispatched
/// instruction set. `block_size == usize::MAX` (one block for the whole
/// tensor) is clamped to the tensor length.
pub(crate) fn quantize_blocks(
    t: &Tensor,
    block_size: usize,
    code_for_max: impl Fn(f32) -> u32 + Sync + Copy,
    quantize_block: impl Fn(u32, &[f32], &mut [MaybeUninit<f32>]) + Sync + Copy,
) -> (workspace::Buffer, Vec<u32>) {
    let src = t.as_slice();
    let n = src.len();
    let bs = block_size.min(n.max(1));
    let blocks_per_task = (QUANT_CHUNK / bs).max(1);
    let kern = kernels::active();
    let _serial = (n < parallel::PAR_MIN_ELEMS).then(|| parallel::with_threads(1));
    let mut codes = vec![0u32; n.div_ceil(bs)];
    let mut values = workspace::with_capacity(n);
    let mut tasks: Vec<(&mut [u32], &mut [MaybeUninit<f32>])> = codes
        .chunks_mut(blocks_per_task)
        .zip(values.spare_capacity_mut()[..n].chunks_mut(blocks_per_task * bs))
        .collect();
    parallel::par_chunks_mut(&mut tasks, 1, |ci, task| {
        let (codes, out) = &mut task[0];
        let src = &src[ci * blocks_per_task * bs..][..out.len()];
        kernels::with_isa(
            kern,
            #[inline(always)]
            || match bs {
                // A literal block size specialises the loops of
                // `quantize_task` to whole vectors per block.
                16 => quantize_task(16, src, codes, out, code_for_max, quantize_block),
                32 => quantize_task(32, src, codes, out, code_for_max, quantize_block),
                _ => quantize_task(bs, src, codes, out, code_for_max, quantize_block),
            },
        )
    });
    drop(tasks);
    // SAFETY: the tasks' output chunks partition `values[..n]`, and each
    // `quantize_block` call wrote every element of its block.
    unsafe { values.set_len(n) };
    (values, codes)
}

/// One task of [`quantize_blocks`]: its blocks of `bs` elements from
/// `src`, worked [`GROUP`] at a time.
#[inline(always)]
fn quantize_task(
    bs: usize,
    src: &[f32],
    codes: &mut [u32],
    out: &mut [MaybeUninit<f32>],
    code_for_max: impl Fn(f32) -> u32,
    quantize_block: impl Fn(u32, &[f32], &mut [MaybeUninit<f32>]),
) {
    let groups = codes.chunks_mut(GROUP).zip(out.chunks_mut(GROUP * bs));
    for ((codes, out), src) in groups.zip(src.chunks(GROUP * bs)) {
        let mut maxes = [0.0f32; GROUP];
        for (m, block) in maxes.iter_mut().zip(src.chunks(bs)) {
            *m = max_abs(block);
        }
        let mut group_codes = [0u32; GROUP];
        for (c, &m) in group_codes.iter_mut().zip(&maxes) {
            *c = code_for_max(m);
        }
        codes.copy_from_slice(&group_codes[..codes.len()]);
        let blocks = src.chunks(bs).zip(out.chunks_mut(bs));
        for ((block, out), &code) in blocks.zip(&group_codes) {
            quantize_block(code, block, out);
        }
    }
}

/// Blocks per group in [`quantize_blocks`]: one block per f32 lane of a
/// 512-bit register.
const GROUP: usize = LANES;

/// Inputs for the block formats' oracle tests: random f32 bit patterns
/// (NaN, ±Inf, subnormals, every binade), a smooth ramp, and blocks of
/// zeros and of ±Inf.
#[cfg(test)]
pub(crate) fn oracle_inputs() -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let mut x: Vec<f32> = (0..4000).map(|_| f32::from_bits(rng.gen::<u32>())).collect();
    x.extend((0..4000).map(|i| ((i as f32) * 0.731).sin() * 40.0));
    x.extend([0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0]);
    x.extend([f32::INFINITY, 1.0, -0.0, f32::NAN, f32::NEG_INFINITY, 3.0, 1e-45, -2.0]);
    x
}

/// `x` repeated to just past [`parallel::PAR_MIN_ELEMS`] elements, so a
/// conversion of it takes the worker pool, with a tail that leaves a
/// partial last block for every block size above 1 the oracle tests use.
#[cfg(test)]
pub(crate) fn past_serial_guard(x: &[f32]) -> Vec<f32> {
    x.iter().copied().cycle().take(parallel::PAR_MIN_ELEMS + 4099).collect()
}

/// Runs `check` once under each kernel the host supports, with the
/// process-wide [`kernels::force`] override installed, and resets the
/// override afterwards (also when `check` panics). Serialised: two tests
/// forcing kernels at once would switch each other's.
#[cfg(test)]
pub(crate) fn for_each_kernel(mut check: impl FnMut(kernels::Kernel)) {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            kernels::force(None);
        }
    }
    let _reset = Reset;
    for kern in kernels::supported_kernels() {
        kernels::force(Some(kern));
        check(kern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::parallel::with_threads;

    fn ramp(n: usize) -> Tensor {
        Tensor::from_vec((0..n).map(|i| (i as f32) * 0.37 - 900.0).collect(), [n])
    }

    #[test]
    fn map_chunked_matches_map_across_thread_counts() {
        // Above PAR_MIN_ELEMS so the parallel dispatch path really runs.
        let t = ramp(parallel::PAR_MIN_ELEMS + 4097);
        let f = |x: f32| (x * 0.5).floor();
        let serial = t.map(f);
        for threads in [1, 2, 8] {
            let _g = with_threads(threads);
            let par = map_chunked(&t, f);
            assert_eq!(par.dims(), serial.dims());
            for (a, b) in par.as_slice().iter().zip(serial.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn max_abs_chunked_matches_serial() {
        for n in [0, 1, 5, 4096, 4097, 20_000] {
            let t = ramp(n);
            let _g = with_threads(4);
            assert_eq!(max_abs_chunked(&t).to_bits(), t.max_abs().to_bits(), "n={n}");
        }
        let t = Tensor::from_vec(vec![1.0, f32::NAN, -3.0], [3]);
        assert_eq!(max_abs_chunked(&t), 3.0);
    }
}
