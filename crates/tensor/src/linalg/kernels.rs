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
//! every kernel bit-for-bit against `matmul_naive`.
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

/// Runs the selected micro-kernel over one packed panel pair:
/// `acc[r][c] += Σ_kk apack[kk,r]·bpack[kk,c]`, accumulating in `kk`
/// order (the bit-exactness anchor shared by all implementations).
#[inline]
pub(super) fn run(kern: Kernel, k: usize, apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(apack.len() >= k * MR);
    debug_assert!(bpack.len() >= k * NR);
    match kern {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2/Avx512 after
        // `is_x86_feature_detected!` confirmed the feature (clamped in
        // `clamp_supported`), and the slice bounds are checked above.
        Kernel::Avx2 => unsafe { avx2(k, apack, bpack, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe { avx512(k, apack, bpack, acc) },
        _ => scalar(k, apack, bpack, acc),
    }
}

/// The portable micro-kernel: the fixed-size tile lets the autovectoriser
/// keep `acc` in SIMD registers; there is no k-blocking, so each element's
/// accumulation chain is a single in-order sum.
#[inline]
fn scalar(k: usize, apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    for kk in 0..k {
        let av: &[f32; MR] = apack[kk * MR..kk * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = bpack[kk * NR..kk * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] += ar * bv[c];
            }
        }
    }
}

/// AVX2 micro-kernel: the 4×16 tile lives in eight ymm accumulators (two
/// per row). Separate `vmulps`+`vaddps`, **not** `vfmadd`: FMA would skip
/// the intermediate rounding and diverge bitwise from [`scalar`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and that
/// `apack.len() >= k*MR`, `bpack.len() >= k*NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn avx2(k: usize, apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    use core::arch::x86_64::*;
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for r in 0..MR {
        c[r][0] = _mm256_loadu_ps(acc[r].as_ptr());
        c[r][1] = _mm256_loadu_ps(acc[r].as_ptr().add(8));
    }
    let mut ap = apack.as_ptr();
    let mut bp = bpack.as_ptr();
    for _ in 0..k {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for r in 0..MR {
            let ar = _mm256_set1_ps(*ap.add(r));
            c[r][0] = _mm256_add_ps(c[r][0], _mm256_mul_ps(ar, b0));
            c[r][1] = _mm256_add_ps(c[r][1], _mm256_mul_ps(ar, b1));
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for r in 0..MR {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), c[r][0]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), c[r][1]);
    }
}

/// AVX-512 micro-kernel: `NR = 16` is exactly one zmm register, so the
/// whole 4×16 tile is four accumulators. Separate `vmulps`+`vaddps` for
/// the same bit-exactness reason as [`avx2`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F and that
/// `apack.len() >= k*MR`, `bpack.len() >= k*NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn avx512(k: usize, apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    use core::arch::x86_64::*;
    let mut c: [__m512; MR] = [_mm512_setzero_ps(); MR];
    for r in 0..MR {
        c[r] = _mm512_loadu_ps(acc[r].as_ptr());
    }
    let mut ap = apack.as_ptr();
    let mut bp = bpack.as_ptr();
    for _ in 0..k {
        let b0 = _mm512_loadu_ps(bp);
        for r in 0..MR {
            let ar = _mm512_set1_ps(*ap.add(r));
            c[r] = _mm512_add_ps(c[r], _mm512_mul_ps(ar, b0));
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
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
            let mut want = [[0.25f32; NR]; MR];
            scalar(k, &apack, &bpack, &mut want);
            for kern in supported_kernels() {
                let mut got = [[0.25f32; NR]; MR];
                run(kern, k, &apack, &bpack, &mut got);
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

    #[test]
    fn kernels_propagate_nan_and_inf_like_scalar() {
        let k = 5;
        let (mut apack, mut bpack) = tile_of(99, k);
        apack[0] = 0.0;
        bpack[0] = f32::INFINITY; // 0·Inf = NaN in lane 0
        apack[MR] = f32::NAN;
        let mut want = [[0.0f32; NR]; MR];
        scalar(k, &apack, &bpack, &mut want);
        // apack[0] = a[kk=0][r=0] → 0·Inf hits lane [0][0]; apack[MR] =
        // a[kk=1][r=0] → the NaN operand sweeps every column of row 0.
        assert!(want[0][0].is_nan(), "scalar reference must see 0·Inf = NaN");
        assert!(want[0][NR - 1].is_nan(), "scalar reference must propagate the NaN operand");
        for kern in supported_kernels() {
            let mut got = [[0.0f32; NR]; MR];
            run(kern, k, &apack, &bpack, &mut got);
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
