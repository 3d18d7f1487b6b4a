//! Explicit-SIMD micro-kernels and runtime CPU-feature dispatch.
//!
//! Three implementations of the same `MR×NR` register-tile contract:
//! a portable scalar loop, an AVX2 kernel (two 256-bit lanes per
//! accumulator row), and an AVX-512 kernel (one 512-bit lane per row —
//! `NR = 16` is exactly one zmm register). The best kernel the host
//! supports is detected once (`is_x86_feature_detected!`, cached in a
//! [`OnceLock`]) and can be pinned down — never up — with
//! `GOLDENEYE_KERNEL=scalar|avx2|avx512` or [`force`] for differential
//! testing and benchmarking.
//!
//! # The kernel contract: tapped B rows
//!
//! A kernel multiplies one packed `A` panel (`k` rows of `MR` weights)
//! by `k` B rows of `NR` lanes described by `BRows`: row
//! `ci·taps.len() + t` starts at `base + ci·plane + taps[t].offset`, and
//! lane `l` of it is read iff bit `l` of `taps[t].mask` is set, +0.0
//! otherwise. A packed panel (`sgemm`'s column panels, the gathered
//! panels of the convolutions that cannot read in place) is the one-tap,
//! all-lanes case with `plane = NR`. A convolution whose input is
//! `stride` times its output reads its im2col rows in place, from the
//! image or, when strided, from the image's phase planes: one tap per
//! kernel offset, the channel's planes as `plane`. There is one kernel
//! per ISA and one GEMM entry point; the rows are data, not a second
//! code path.
//!
//! **Soundness of masked reads.** A tap's window may start before the
//! image (the top-left padding) or end past it, so row addresses are
//! formed with `wrapping_*` pointer arithmetic, never `add`/`offset`,
//! and a switched-off lane's address is never dereferenced: the scalar
//! kernel reads only enabled lanes, AVX2 reads a partial row with
//! `vmaskmovps` and AVX-512 every row with a zero-masking load, both of
//! which leave masked-off lanes untouched and fault-suppressed.
//! `BRows::tapped` checks once per operand, in `O(taps)`, that every
//! enabled lane of every row lies inside the source slice, so the
//! kernels' unchecked reads stay in bounds.
//!
//! # Bit-exactness across ISAs
//!
//! Every kernel executes, per output element, the identical chain
//! `acc = acc + a·b` in `k` order. IEEE-754 vector lanes are elementwise:
//! `vaddps`/`vmulps` round each lane exactly like scalar `addss`/`mulss`,
//! so widening the vector changes *which elements share an instruction*,
//! never any element's value. The one instruction that would break this is
//! FMA — `vfmadd` keeps the product unrounded before the add, producing
//! different (better, but different) results than the scalar chain — so
//! the SIMD kernels deliberately use separate multiply and add even on
//! FMA-capable hosts. The differential suite in `tests/kernels.rs` pins
//! every kernel bit-for-bit against `matmul_naive`. A switched-off lane
//! contributes `a·(+0.0)`, the product a packed zero lane gives, so
//! reading in place changes no element's chain.
//!
//! One deliberate carve-out: **NaN payloads**. IEEE-754 leaves the sign
//! and payload of a NaN produced by an invalid operation unspecified, and
//! Rust documents NaN bit patterns as non-deterministic (LLVM freely
//! commutes `fadd` operands, and x86 resolves two-NaN adds to the first
//! source operand — so `QNaN + QNaN'` can surface either payload
//! depending on register allocation). The contract is therefore:
//! bit-identical for every non-NaN output, NaN-for-NaN at identical
//! positions otherwise. Campaign records never observe a payload: the
//! first format quantise canonicalises NaN per the format's encoding.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows per packed `a` panel (register-tile height).
pub(crate) const MR: usize = 4;
/// Columns per packed `b` panel (register-tile width; 16 lanes → one
/// 512-bit register per accumulator row on AVX-512, two 256-bit on AVX2).
pub(crate) const NR: usize = 16;

/// One micro-kernel implementation, selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// The portable packed loop (autovectorised baseline).
    Scalar,
    /// 256-bit `core::arch` intrinsics (mul + add, no FMA).
    Avx2,
    /// 512-bit `core::arch` intrinsics (mul + add, no FMA).
    Avx512,
}

impl Kernel {
    /// Every kernel this build knows about, weakest first.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512];

    /// The kernel's name as accepted by `GOLDENEYE_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }

    /// Stable ordinal recorded under the `gemm.kernel` trace metric.
    pub fn ordinal(self) -> u64 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Avx2 => 1,
            Kernel::Avx512 => 2,
        }
    }

    /// Parses a `GOLDENEYE_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "avx512" | "avx512f" => Some(Kernel::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best kernel the host CPU supports.
pub fn best_supported() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Kernel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::Scalar
}

/// Whether the host CPU can execute `k`.
pub fn is_supported(k: Kernel) -> bool {
    k <= best_supported()
}

/// Every kernel the host CPU can execute, weakest first — the iteration
/// set for differential tests and per-kernel benchmarks.
pub fn supported_kernels() -> Vec<Kernel> {
    Kernel::ALL.into_iter().filter(|&k| is_supported(k)).collect()
}

/// Clamps a requested kernel to the hardware, warning once on fallback
/// (a mis-set `GOLDENEYE_KERNEL` must not abort a campaign — results are
/// bit-identical either way; only throughput differs).
fn clamp_supported(req: Kernel, origin: &str) -> Kernel {
    if is_supported(req) {
        return req;
    }
    let best = best_supported();
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!(
            "warning: {origin} requests the {} kernel but this CPU supports at most {}; \
             falling back (results are bit-identical)",
            req.name(),
            best.name()
        );
    });
    best
}

/// Startup selection: `GOLDENEYE_KERNEL` if set and valid, else the best
/// supported kernel. Resolved once per process.
fn startup_kernel() -> Kernel {
    match std::env::var("GOLDENEYE_KERNEL") {
        Ok(v) => match Kernel::parse(&v) {
            Some(k) => clamp_supported(k, "GOLDENEYE_KERNEL"),
            None => {
                eprintln!(
                    "warning: unknown GOLDENEYE_KERNEL value {v:?} \
                     (expected scalar|avx2|avx512); using runtime detection"
                );
                best_supported()
            }
        },
        Err(_) => best_supported(),
    }
}

/// [`force`] encoding: `Kernel::ordinal() as usize`, or this sentinel for
/// "no override installed".
const FORCE_NONE: usize = usize::MAX;

/// Process-global test/bench override. Deliberately **not** thread-local:
/// [`super::sgemm`] resolves the kernel once per call and hands it to the
/// freshly spawned `parallel_for` workers, but independent GEMM calls on
/// other threads (e.g. campaign workers) must also observe a bench's
/// override, and scoped worker threads would never inherit a thread-local.
static FORCED: AtomicUsize = AtomicUsize::new(FORCE_NONE);

/// Overrides kernel dispatch process-wide until reset with `force(None)`.
/// An unsupported request clamps to the best supported kernel (with a
/// one-time warning). Intended for differential tests and benches; results
/// are bit-identical across kernels, so this is never a correctness knob.
pub fn force(k: Option<Kernel>) {
    let v = match k {
        Some(k) => clamp_supported(k, "kernels::force").ordinal() as usize,
        None => FORCE_NONE,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Serialises the unit tests that install a [`force`] override. The
/// override is process-global, so two forcing tests running on parallel
/// test threads would otherwise observe (and reset) each other's kernel.
/// A panicking holder does not poison the lock for the others.
#[cfg(test)]
pub(crate) fn force_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The kernel the next GEMM dispatch will use: the [`force`] override if
/// installed, else the cached startup selection.
pub fn active() -> Kernel {
    match FORCED.load(Ordering::Relaxed) {
        0 => Kernel::Scalar,
        1 => Kernel::Avx2,
        2 => Kernel::Avx512,
        _ => {
            static STARTUP: OnceLock<Kernel> = OnceLock::new();
            *STARTUP.get_or_init(startup_kernel)
        }
    }
}

/// Runs `body` compiled for `kern`'s instruction set: inside an
/// `avx2,fma` or `avx512f,fma` `#[target_feature]` wrapper when the host
/// runs that kernel and has FMA, else as baseline code. This is the one
/// ISA selection for elementwise loops (`math`'s lane bodies, the format
/// crate's conversion drivers); pass [`active`] to honour
/// `GOLDENEYE_KERNEL` and [`force`].
///
/// Only code inlined into the wrapper is compiled for its instruction
/// set, so pass `body` as an `#[inline(always)]` closure (a large one is
/// otherwise left as a call to baseline code) and inline what it calls
/// per element. Rust never
/// contracts `a·b + c` into an FMA, and IEEE-754 vector lanes round like
/// scalar instructions, so the body gives the same bits in every wrapper;
/// only an explicit `mul_add` becomes one instruction instead of a libm
/// call, and both are exactly rounded.
#[inline(always)]
pub fn with_isa<R>(kern: Kernel, body: impl FnOnce() -> R) -> R {
    match isa_kernel(kern) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa_kernel` yields Avx2 only when AVX2 and FMA are
        // detected on this CPU.
        Kernel::Avx2 => unsafe { with_avx2(body) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa_kernel` yields Avx512 only when AVX-512F and FMA
        // are detected on this CPU.
        Kernel::Avx512 => unsafe { with_avx512(body) },
        _ => body(),
    }
}

/// The wrapper `kern` selects: the kernel itself when the host runs it
/// and has FMA, else the baseline build.
fn isa_kernel(kern: Kernel) -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if kern > Kernel::Scalar && is_supported(kern) && std::arch::is_x86_feature_detected!("fma")
        {
            return kern;
        }
    }
    let _ = kern;
    Kernel::Scalar
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// # Safety
///
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn with_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The lane mask of a tap that reads all `NR` lanes.
const ALL_LANES: u16 = u16::MAX;
const _: () = assert!(NR == u16::BITS as usize, "one mask bit per lane");

/// One tap of a [`BRows`] operand: where its row starts relative to a
/// channel's base, and which of its `NR` lanes read memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tap {
    /// Element offset of lane 0 from the channel base. Negative for a
    /// convolution window that starts above or left of the image.
    pub(crate) offset: isize,
    /// Bit `l` set: lane `l` reads `base + offset + l`. Clear: the lane
    /// reads +0.0 and its address is never dereferenced.
    pub(crate) mask: u16,
}

/// The one tap of a packed panel: every row is `NR` consecutive lanes.
const PACKED: &[Tap] = &[Tap { offset: 0, mask: ALL_LANES }];

/// The `k = channels · taps.len()` B rows of one micro-kernel call, in
/// `k` order: row `ci · taps.len() + t` is the `NR` lanes at
/// `base + ci · plane + taps[t].offset` under `taps[t].mask`.
///
/// A packed `k × NR` panel is the one-tap, all-lanes case
/// ([`BRows::packed`]). A convolution whose input is `stride` times its
/// output reads its im2col rows in place, from the image or its phase
/// planes: one tap per kernel offset, the channel's planes as `plane`,
/// and masks that switch off the lanes whose pixel lies in the padding
/// ([`BRows::tapped`]).
#[derive(Clone, Copy)]
pub(crate) struct BRows<'a> {
    /// Channel 0's base. It may point outside the source slice (a
    /// window starting in the padding), so it is only ever moved with
    /// `wrapping_*` arithmetic and read through enabled lanes.
    base: *const f32,
    plane: usize,
    channels: usize,
    taps: &'a [Tap],
    _src: std::marker::PhantomData<&'a [f32]>,
}

impl<'a> BRows<'a> {
    /// The rows of a packed `k × NR` panel, `panel[kk·NR..(kk+1)·NR]`.
    ///
    /// # Panics
    ///
    /// Panics if `panel` is shorter than `k·NR`.
    pub(crate) fn packed(panel: &'a [f32], k: usize) -> Self {
        Self::tapped(panel, 0, NR, k, PACKED)
    }

    /// The rows `src[origin + ci·plane + tap.offset + l]` for every
    /// channel `ci < channels`, tap and enabled lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if an enabled lane of any row lies outside `src`. The check
    /// is per tap (its first channel's lowest and its last channel's
    /// highest enabled lane), so it costs `O(taps)`, not `O(k·NR)`.
    pub(crate) fn tapped(
        src: &'a [f32],
        origin: usize,
        plane: usize,
        channels: usize,
        taps: &'a [Tap],
    ) -> Self {
        if channels > 0 {
            // In i128, no sum of these offsets can overflow.
            let last_base = (channels - 1)
                .checked_mul(plane)
                .and_then(|span| span.checked_add(origin))
                .expect("B rows: the last channel's base overflows usize")
                as i128;
            for tap in taps.iter().filter(|t| t.mask != 0) {
                let lo = origin as i128 + tap.offset as i128 + tap.mask.trailing_zeros() as i128;
                let hi = last_base + tap.offset as i128 + (NR - 1) as i128
                    - tap.mask.leading_zeros() as i128;
                assert!(
                    lo >= 0 && hi < src.len() as i128,
                    "B rows read {lo}..={hi} of a {}-element source ({tap:?})",
                    src.len()
                );
            }
        }
        BRows {
            base: src.as_ptr().wrapping_add(origin),
            plane,
            channels,
            taps,
            _src: std::marker::PhantomData,
        }
    }

    /// The number of rows, the micro-kernel's `k`.
    pub(crate) fn k(&self) -> usize {
        self.channels * self.taps.len()
    }

    /// The rows as a packed `k × NR` panel, switched-off lanes +0.0: the
    /// panel a packing conv would have built.
    #[cfg(test)]
    pub(crate) fn to_packed(self) -> Vec<f32> {
        let mut panel = Vec::with_capacity(self.k() * NR);
        self.for_each_row(|row, mask| {
            // SAFETY: only enabled lanes are read (`BRows::tapped`).
            panel.extend((0..NR).map(|l| {
                if mask >> l & 1 != 0 {
                    unsafe { row.wrapping_add(l).read() }
                } else {
                    0.0
                }
            }))
        });
        panel
    }

    /// Calls `row(lane 0's address, mask)` for each row in `k` order.
    /// Every enabled lane of every row lies inside the source slice:
    /// [`BRows::tapped`] checked it.
    #[inline(always)]
    fn for_each_row(&self, mut row: impl FnMut(*const f32, u16)) {
        if let [t] = self.taps {
            // One tap (a packed panel): a single strided walk.
            let mut p = self.base.wrapping_offset(t.offset);
            for _ in 0..self.channels {
                row(p, t.mask);
                p = p.wrapping_add(self.plane);
            }
            return;
        }
        for ci in 0..self.channels {
            let cbase = self.base.wrapping_add(ci * self.plane);
            for t in self.taps {
                row(cbase.wrapping_offset(t.offset), t.mask);
            }
        }
    }
}

/// Runs the selected micro-kernel over one packed `A` panel and one set
/// of `B` rows: `acc[r][c] += Σ_kk apack[kk,r]·b[kk,c]`, accumulating in
/// `kk` order (the bit-exactness anchor shared by all implementations).
/// A switched-off lane contributes `a·(+0.0)`, exactly as the zero a
/// packed panel holds there.
#[inline]
pub(super) fn run(kern: Kernel, apack: &[f32], b: &BRows, acc: &mut [[f32; NR]; MR]) {
    assert!(apack.len() >= b.k() * MR, "A panel shorter than k = {}", b.k());
    match kern {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2/Avx512 after
        // `is_x86_feature_detected!` confirmed the feature (clamped in
        // `clamp_supported`); the A panel's length is checked above and
        // every enabled B lane by `BRows::tapped`.
        Kernel::Avx2 => unsafe { avx2(apack, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe { avx512(apack, b, acc) },
        _ => scalar(apack, b, acc),
    }
}

/// The portable micro-kernel: the fixed-size tile lets the autovectoriser
/// keep `acc` in SIMD registers; there is no k-blocking, so each element's
/// accumulation chain is a single in-order sum.
#[inline]
fn scalar(apack: &[f32], b: &BRows, acc: &mut [[f32; NR]; MR]) {
    let mut avs = apack.chunks_exact(MR);
    b.for_each_row(|row, mask| {
        let av = avs.next().expect("A panel checked by `run`");
        let mut bv = [0.0f32; NR];
        if mask == ALL_LANES {
            // SAFETY: all `NR` lanes are enabled, so all lie in the source
            // (`BRows::tapped`).
            bv = unsafe { row.cast::<[f32; NR]>().read_unaligned() };
        } else {
            for (l, v) in bv.iter_mut().enumerate() {
                if mask >> l & 1 != 0 {
                    // SAFETY: lane `l` is enabled, so it lies in the source.
                    *v = unsafe { row.wrapping_add(l).read() };
                }
            }
        }
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] += ar * bv[c];
            }
        }
    });
}

/// AVX2 micro-kernel: the 4×16 tile lives in eight ymm accumulators (two
/// per row). Separate `vmulps`+`vaddps`, **not** `vfmadd`: FMA would skip
/// the intermediate rounding and diverge bitwise from [`scalar`]. A row
/// with switched-off lanes is read with `vmaskmovps`, which returns +0.0
/// in those lanes and does not touch their memory.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and that
/// `apack.len() >= b.k()*MR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn avx2(apack: &[f32], b: &BRows, acc: &mut [[f32; NR]; MR]) {
    use core::arch::x86_64::*;
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for r in 0..MR {
        c[r][0] = _mm256_loadu_ps(acc[r].as_ptr());
        c[r][1] = _mm256_loadu_ps(acc[r].as_ptr().add(8));
    }
    // Shifting the broadcast mask left by these moves bit `l` into lane
    // `l`'s sign bit, the bit `vmaskmovps` reads.
    let lo_shift = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    let hi_shift = _mm256_setr_epi32(23, 22, 21, 20, 19, 18, 17, 16);
    let mut ap = apack.as_ptr();
    b.for_each_row(|row, mask| {
        let (b0, b1) = if mask == ALL_LANES {
            (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)))
        } else {
            let m = _mm256_set1_epi32(i32::from(mask));
            (
                _mm256_maskload_ps(row, _mm256_sllv_epi32(m, lo_shift)),
                _mm256_maskload_ps(row.wrapping_add(8), _mm256_sllv_epi32(m, hi_shift)),
            )
        };
        for r in 0..MR {
            let ar = _mm256_set1_ps(*ap.add(r));
            c[r][0] = _mm256_add_ps(c[r][0], _mm256_mul_ps(ar, b0));
            c[r][1] = _mm256_add_ps(c[r][1], _mm256_mul_ps(ar, b1));
        }
        ap = ap.add(MR);
    });
    for r in 0..MR {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), c[r][0]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), c[r][1]);
    }
}

/// AVX-512 micro-kernel: `NR = 16` is exactly one zmm register, so the
/// whole 4×16 tile is four accumulators. Separate `vmulps`+`vaddps` for
/// the same bit-exactness reason as [`avx2`]. Every row is one
/// zero-masked load: a switched-off lane reads +0.0, and masked lanes
/// are fault-suppressed, never accessed.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F and that
/// `apack.len() >= b.k()*MR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn avx512(apack: &[f32], b: &BRows, acc: &mut [[f32; NR]; MR]) {
    use core::arch::x86_64::*;
    let mut c: [__m512; MR] = [_mm512_setzero_ps(); MR];
    for r in 0..MR {
        c[r] = _mm512_loadu_ps(acc[r].as_ptr());
    }
    let mut ap = apack.as_ptr();
    b.for_each_row(|row, mask| {
        let b0 = _mm512_maskz_loadu_ps(mask, row);
        for r in 0..MR {
            let ar = _mm512_set1_ps(*ap.add(r));
            c[r] = _mm512_add_ps(c[r], _mm512_mul_ps(ar, b0));
        }
        ap = ap.add(MR);
    });
    for r in 0..MR {
        _mm512_storeu_ps(acc[r].as_mut_ptr(), c[r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_of(seed: u64, k: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic pseudo-random packs without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
        };
        let apack: Vec<f32> = (0..k * MR).map(|_| next() * 4.0).collect();
        let bpack: Vec<f32> = (0..k * NR).map(|_| next() * 4.0).collect();
        (apack, bpack)
    }

    #[test]
    fn every_supported_kernel_matches_scalar_bitwise() {
        for k in [0usize, 1, 3, 17, 64, 129] {
            let (apack, bpack) = tile_of(k as u64 + 7, k);
            let b = BRows::packed(&bpack, k);
            let mut want = [[0.25f32; NR]; MR];
            scalar(&apack, &b, &mut want);
            for kern in supported_kernels() {
                let mut got = [[0.25f32; NR]; MR];
                run(kern, &apack, &b, &mut got);
                for r in 0..MR {
                    for c in 0..NR {
                        assert_eq!(
                            got[r][c].to_bits(),
                            want[r][c].to_bits(),
                            "{kern} k={k} tile[{r}][{c}]: {} vs {}",
                            got[r][c],
                            want[r][c]
                        );
                    }
                }
            }
            // (Inputs are finite, so strict bit equality applies — the
            // NaN-payload carve-out in the module doc is exercised below.)
        }
    }

    /// Tapped rows with negative offsets and ragged masks (a hole, a
    /// single lane, none, all) equal the packed panel built lane by lane,
    /// under every kernel. Every source element that no tap enables is
    /// NaN, so a kernel that reads a switched-off lane poisons its tile.
    #[test]
    fn every_supported_kernel_reads_tapped_rows_like_their_packed_panel() {
        let (origin, plane, channels) = (13, 40, 3);
        let taps = [
            Tap { offset: -13, mask: ALL_LANES },
            Tap { offset: -18, mask: 0xFFE0 },
            Tap { offset: 3, mask: 0x7F7F },
            Tap { offset: 90, mask: 0 },
            Tap { offset: 10, mask: 0x0001 },
        ];
        // Row `ci·taps + t`, lane `l`: its source index, if enabled.
        let mut lanes: Vec<Option<usize>> = Vec::new();
        for ci in 0..channels {
            for tap in &taps {
                for l in 0..NR {
                    let at = origin as isize + (ci * plane) as isize + tap.offset + l as isize;
                    lanes.push((tap.mask >> l & 1 != 0).then_some(at as usize));
                }
            }
        }
        let mut src = vec![f32::NAN; origin + (channels - 1) * plane + 20];
        for &at in lanes.iter().flatten() {
            src[at] = at as f32 * 0.25 - 7.0;
        }
        let want: Vec<f32> = lanes.iter().map(|at| at.map_or(0.0, |at| src[at])).collect();
        let k = channels * taps.len();
        let (apack, _) = tile_of(5, k);
        let mut expected = [[0.5f32; NR]; MR];
        scalar(&apack, &BRows::packed(&want, k), &mut expected);
        let rows = BRows::tapped(&src, origin, plane, channels, &taps);
        assert_eq!(rows.to_packed().len(), want.len());
        for kern in supported_kernels() {
            let mut got = [[0.5f32; NR]; MR];
            run(kern, &apack, &rows, &mut got);
            for r in 0..MR {
                for c in 0..NR {
                    assert_eq!(
                        got[r][c].to_bits(),
                        expected[r][c].to_bits(),
                        "{kern} tile[{r}][{c}]: {} vs {}",
                        got[r][c],
                        expected[r][c]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "B rows read -1..=3 of a 10-element source")]
    fn tapped_rows_refuse_an_enabled_lane_before_the_source() {
        BRows::tapped(&[0.0; 10], 0, 4, 2, &[Tap { offset: -1, mask: 1 }]);
    }

    #[test]
    #[should_panic(expected = "B rows read 0..=10 of a 10-element source")]
    fn tapped_rows_refuse_an_enabled_lane_past_the_source() {
        // Channel 1's lane 6 is element 4 + 6 = 10.
        BRows::tapped(&[0.0; 10], 0, 4, 2, &[Tap { offset: 0, mask: 0x0041 }]);
    }

    #[test]
    fn kernels_propagate_nan_and_inf_like_scalar() {
        let k = 5;
        let (mut apack, mut bpack) = tile_of(99, k);
        apack[0] = 0.0;
        bpack[0] = f32::INFINITY; // 0·Inf = NaN in lane 0
        apack[MR] = f32::NAN;
        let b = BRows::packed(&bpack, k);
        let mut want = [[0.0f32; NR]; MR];
        scalar(&apack, &b, &mut want);
        // apack[0] = a[kk=0][r=0] → 0·Inf hits lane [0][0]; apack[MR] =
        // a[kk=1][r=0] → the NaN operand sweeps every column of row 0.
        assert!(want[0][0].is_nan(), "scalar reference must see 0·Inf = NaN");
        assert!(want[0][NR - 1].is_nan(), "scalar reference must propagate the NaN operand");
        for kern in supported_kernels() {
            let mut got = [[0.0f32; NR]; MR];
            run(kern, &apack, &b, &mut got);
            for r in 0..MR {
                for c in 0..NR {
                    let (g, w) = (got[r][c], want[r][c]);
                    // NaN payloads are not pinned across ISAs (see module
                    // doc); everything else must match bitwise.
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{kern} [{r}][{c}]: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn parse_and_names_round_trip() {
        for kern in Kernel::ALL {
            assert_eq!(Kernel::parse(kern.name()), Some(kern));
            assert_eq!(Kernel::parse(&kern.name().to_uppercase()), Some(kern));
        }
        assert_eq!(Kernel::parse("neon"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn force_overrides_and_restores_dispatch() {
        let _lock = force_lock();
        let detected = active();
        force(Some(Kernel::Scalar));
        assert_eq!(active(), Kernel::Scalar);
        force(None);
        assert_eq!(active(), detected);
    }

    #[test]
    fn supported_set_is_prefix_ordered() {
        let sup = supported_kernels();
        assert!(sup.contains(&Kernel::Scalar), "scalar is always supported");
        // Support is monotone: anything weaker than a supported kernel is
        // also supported (the list is a prefix of ALL).
        assert_eq!(sup, Kernel::ALL[..sup.len()].to_vec());
    }
}
