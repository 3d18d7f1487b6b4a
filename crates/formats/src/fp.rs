//! Generic floating point: any `eXmY` split over the `[s | e | m]` layout
//! (biased exponent, implicit leading one, optional denormals).
//!
//! Covers the paper's named formats as parameterisations: FP32 = `e8m23`,
//! FP16 = `e5m10`, bfloat16 = `e8m7`, TensorFloat = `e8m10`, DLFloat =
//! `e6m9`, FP8 = `e4m3`. The same kernel ([`FpParams`]) serves the
//! post-paper narrow floats — P3109 profiles and the OCP MX elements —
//! which differ from IEEE-754 only in what the top of the code space
//! means ([`SpecialRule`]).

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::metadata::Metadata;
use tensor::Tensor;

/// How a format treats the top of its code space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecialRule {
    /// IEEE-754: the all-ones exponent field is reserved for ±Inf / NaN.
    Ieee,
    /// OCP "fn" convention (FP8 e4m3): only all-ones exponent + all-ones
    /// mantissa is NaN; the rest of the top binade is finite. No Inf.
    NanOnly,
    /// Every code is a finite number (OCP FP4/FP6). No Inf, no NaN.
    Finite,
    /// P3109-style: one NaN at the would-be −0 code (`1 << (e+m)`); every
    /// other code is finite. No Inf and no −0.
    SingleNan,
}

/// The one `[s | e | m]` float kernel: quantise, encode and decode for
/// FloatingPoint, GoldenFloat, AdaptivFloat, P3109 and the MX elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FpParams {
    pub e: u32,
    pub m: u32,
    pub denormals: bool,
    pub rule: SpecialRule,
}

impl FpParams {
    pub(crate) fn new(e: u32, m: u32, denormals: bool, rule: SpecialRule) -> Self {
        assert!((2..=11).contains(&e), "exponent width {e} out of range 2..=11");
        assert!((1..=52).contains(&m), "mantissa width {m} out of range 1..=52");
        // An 11-bit exponent with its top binade reclaimed reaches 2^1024,
        // past the f64 the reference arithmetic runs in.
        assert!(e <= 10 || rule == SpecialRule::Ieee, "{rule:?} needs an exponent width ≤ 10");
        FpParams { e, m, denormals, rule }
    }

    /// Exponent bias: `2^(e-1) - 1`.
    pub(crate) fn bias(&self) -> i64 {
        (1i64 << (self.e - 1)) - 1
    }

    /// Largest exponent that holds finite values. Under [`SpecialRule::Ieee`]
    /// the all-ones field is reserved; the other rules reclaim it.
    pub(crate) fn emax(&self) -> i64 {
        let reserved = (self.rule == SpecialRule::Ieee) as i64;
        (1i64 << self.e) - 1 - reserved - self.bias()
    }

    /// Smallest normal (unbiased) exponent.
    pub(crate) fn emin(&self) -> i64 {
        1 - self.bias()
    }

    /// Largest finite magnitude: `2^emax · (1 + top·2^−m)`, where the top
    /// binade's largest finite mantissa `top` is all-ones except under
    /// [`SpecialRule::NanOnly`] (whose all-ones code is NaN). 240 for IEEE
    /// e4m3, 448 for OCP e4m3fn, 480 for P3109 e4m3, 6 for OCP e2m1.
    pub(crate) fn max_value(&self) -> f64 {
        let top = (1u64 << self.m) - 1 - (self.rule == SpecialRule::NanOnly) as u64;
        exp2(self.emax()) * (1.0 + top as f64 * exp2(-(self.m as i64)))
    }

    /// Smallest normal magnitude: `2^emin`.
    pub(crate) fn min_normal(&self) -> f64 {
        exp2(self.emin())
    }

    /// Smallest denormal magnitude: `2^(emin − m)`.
    pub(crate) fn min_denormal(&self) -> f64 {
        exp2(self.emin() - self.m as i64)
    }

    /// Total bit width: sign + exponent + mantissa.
    pub(crate) fn width(&self) -> usize {
        1 + self.e as usize + self.m as usize
    }

    /// The canonical NaN code: `0x80…` under [`SpecialRule::SingleNan`],
    /// otherwise sign 0 with all-ones exponent and mantissa.
    fn nan_code(&self) -> u64 {
        match self.rule {
            SpecialRule::SingleNan => 1u64 << (self.e + self.m),
            _ => (1u64 << (self.e + self.m)) - 1,
        }
    }

    /// Rounds `x` to the nearest representable value (ties to even),
    /// saturating at `±max_value` — including for ±Inf inputs (the
    /// emulation clamps everything beyond the format's range; only bit
    /// flips can *produce* Inf codes). NaN returns `x` itself, or 0 under
    /// [`SpecialRule::Finite`] (no NaN code). A zero result is `+0.0`
    /// under [`SpecialRule::SingleNan`] (no −0 code) and keeps the sign of
    /// `x` otherwise.
    pub(crate) fn quantize(&self, x: f64) -> f64 {
        if x.is_nan() {
            return if self.rule == SpecialRule::Finite { 0.0 } else { x };
        }
        let a = x.abs();
        let v = if a == 0.0 {
            0.0
        } else if a.is_infinite() {
            self.max_value()
        } else if exponent_of(a) >= self.emin() {
            // Normal range (or above): quantise the mantissa at 2^(e−m).
            let e = exponent_of(a);
            let scale = exp2(e - self.m as i64);
            let r = round_ties_even(a / scale) * scale;
            // Below the top binade r ≤ 2^emax ≤ max_value. From it up,
            // min() saturates both beyond-range inputs and in-range values
            // whose mantissa rounds up past the top code (e.g. 460 → 480
            // would be e4m3fn's NaN code; it must be 448).
            if e < self.emax() {
                r
            } else {
                r.min(self.max_value())
            }
        } else if self.denormals {
            let step = self.min_denormal();
            round_ties_even(a / step) * step
        } else if a >= self.min_normal() * 0.5 {
            // Flush-to-zero hardware: round to nearest of {0, min_normal}.
            self.min_normal()
        } else {
            0.0
        };
        if v == 0.0 && self.rule == SpecialRule::SingleNan {
            return 0.0;
        }
        v.copysign(x)
    }

    /// The tensor-path quantiser: bit manipulation on the f32
    /// representation (the analogue of QPyTorch's C++/CUDA kernels, which
    /// give the paper's FP/FxP/INT emulation its near-native speed),
    /// bitwise equal to [`FpParams::quantize`] for every f32 input. The
    /// per-format constants are computed once here, outside the loop the
    /// returned closure runs in.
    ///
    /// One straight-line body for every input, zeros, f32 denormals,
    /// values below the format's normal range and non-finite values
    /// included: each case is computed on the magnitude and picked by a
    /// select, so the loop it runs in vectorises. Zero-inflated and tiny
    /// inputs are the common case (post-ReLU activations, and narrow
    /// exponents such as e3m9 or e2m8 whose normal range starts at 2^−2 or
    /// 2^0), so they must not leave the vector path. Every select is exact:
    ///
    /// - *Normal grid* (`|x| ≥ 2^emin`). Round-to-nearest-even adds
    ///   `half − 1 + lsb` to the mantissa field; a carry moves into the
    ///   exponent, which IEEE's layout makes exactly the right thing.
    /// - *Saturation.* `min(rounded bits, max bits)`: one test for every
    ///   [`SpecialRule`], since each rule only moves `max_value`, and ±Inf
    ///   (whose rounding leaves it Inf) saturates through it too. For
    ///   e ≥ 9, `max_value` is beyond f32, its f32 is +Inf, and so is the
    ///   f64 result's.
    /// - *Denormal grid* (`|x| < 2^emin`, denormals on). The grid step is
    ///   `2^(emin−m)`; `M = 2^(emin−m+23)` is the f32 whose ulp is that
    ///   step. For `|x| < M`, `|x| + M` lies in `[M, 2M]` and rounds to the
    ///   grid ties-to-even (M's own significand is even), and subtracting
    ///   `M` back is exact (Sterbenz). An `|x| ≥ M` (only when m > 23) has
    ///   an ulp of at least the step, so it is already on the grid. When
    ///   `M` is below f32's normals, so is the step below 2^−149: every f32
    ///   is on the grid, and the add and subtract are exact (or `M` is 0).
    /// - *Flush to zero* (`|x| < 2^emin`, denormals off). `|x| ≥ 2^(emin−1)`
    ///   gives `2^emin`, else 0; both thresholds are f32 numbers when
    ///   `emin ≥ −126`, and magnitude bits order like the values.
    /// - *e ≥ 9* (`emin < −126`). Every non-zero f32 is a normal of the
    ///   format, but f32 denormals are not normalised, so the fixed-shift
    ///   rounding is on the wrong grid for them. Scaled by 2^64 (exact)
    ///   they are f32 normals; the rounded value keeps the input's lowest
    ///   bit position or a coarser one, so scaling back by 2^−64 is exact.
    /// - *Specials.* NaN returns `x` itself (its f64 round trip would quiet
    ///   a signalling NaN), or +0 under [`SpecialRule::Finite`]. A zero
    ///   result is `+0` under [`SpecialRule::SingleNan`] and keeps the
    ///   sign of `x` otherwise.
    pub(crate) fn f32_quantizer(&self) -> impl Fn(f32) -> f32 + Send + Sync + Copy {
        const SIGN: u32 = 0x8000_0000;
        const INF: u32 = f32::INFINITY.to_bits();
        const TINY: u32 = f32::MIN_POSITIVE.to_bits();
        let p = *self;
        let max_bits = (p.max_value() as f32).to_bits();
        let shift = 23u32.saturating_sub(p.m);
        // Ties-to-even: add `half − 1 + lsb` under the `shift` dropped bits.
        let (bias, lsb_mask, keep) = match shift {
            0 => (0, 0, !0),
            s => ((1u32 << (s - 1)) - 1, 1, !((1u32 << s) - 1)),
        };
        // 2^k as an f32, or 0 below f32's range. Below `min_normal` is the
        // denormal/FTZ range; for e ≥ 9 it is empty.
        let pow2 = |k: i64| if k >= -149 { exp2(k) as f32 } else { 0.0 };
        let min_normal = pow2(p.emin()).to_bits();
        let ftz_half = pow2(p.emin() - 1).to_bits();
        let magic = pow2(p.emin() - p.m as i64 + 23);
        let (up, down) = (exp2(64) as f32, exp2(-64) as f32);
        let (denormals, finite, single_nan) =
            (p.denormals, p.rule == SpecialRule::Finite, p.rule == SpecialRule::SingleNan);
        #[inline(always)]
        move |x: f32| {
            let bits = x.to_bits();
            let (sign, abs) = (bits & SIGN, bits & !SIGN);
            let a = f32::from_bits(abs);

            // f32 zeros and denormals, prescaled for e ≥ 9; for e ≤ 8 they
            // are below 2^emin and the `mag` select drops this result.
            let tiny = abs < TINY;
            let scaled = (a * if tiny { up } else { 1.0 }).to_bits();
            let lsb = (scaled >> shift) & lsb_mask;
            let rounded = scaled.wrapping_add(bias + lsb) & keep;
            let normal = (f32::from_bits(rounded) * if tiny { down } else { 1.0 }).to_bits();
            let normal = normal.min(max_bits);

            let on_grid = if a < magic { (a + magic) - magic } else { a };
            let flushed = if abs >= ftz_half { min_normal } else { 0 };
            let sub = if denormals { on_grid.to_bits() } else { flushed };

            let mag = if abs < min_normal { sub } else { normal };
            let sign = if single_nan && mag == 0 { 0 } else { sign };
            let nan = if finite { 0 } else { bits };
            f32::from_bits(if abs > INF { nan } else { mag | sign })
        }
    }

    /// Encodes a value into the integer image of its `[s | e | m]` word.
    /// The value is quantised first, so any f64 is accepted.
    pub(crate) fn encode(&self, x: f64) -> u64 {
        let (e, m) = (self.e, self.m);
        if x.is_infinite() && self.rule == SpecialRule::Ieee {
            // ±Inf codes exist only under IEEE rules, and they must
            // round-trip through Methods 3/4 even though Method 1
            // saturates them.
            let exp_ones = (1u64 << e) - 1;
            return ((x.is_sign_negative() as u64) << (e + m)) | (exp_ones << m);
        }
        let v = self.quantize(x);
        if v.is_nan() {
            return self.nan_code();
        }
        let sign = v.is_sign_negative() as u64;
        let a = v.abs();
        if a == 0.0 {
            return sign << (e + m);
        }
        let ev = exponent_of(a);
        let (exp_field, mant_field) = if ev >= self.emin() {
            let mant = round_ties_even((a / exp2(ev) - 1.0) * exp2(m as i64)) as u64;
            ((ev + self.bias()) as u64, mant)
        } else {
            // Denormal: exponent field 0.
            (0u64, round_ties_even(a / self.min_denormal()) as u64)
        };
        (sign << (e + m)) | (exp_field << m) | (mant_field & ((1u64 << m) - 1))
    }

    /// Decodes the integer image of an `[s | e | m]` word. The rule's
    /// special codes decode to ±Inf/NaN; codes a rule reclaims decode as
    /// ordinary finite numbers. Denormal patterns decode to 0 when
    /// denormal support is off (flush-to-zero hardware).
    pub(crate) fn decode(&self, code: u64) -> f64 {
        let (e, m) = (self.e, self.m);
        let sign = if (code >> (e + m)) & 1 == 1 { -1.0 } else { 1.0 };
        let exp_field = (code >> m) & ((1u64 << e) - 1);
        let mant = code & ((1u64 << m) - 1);
        let exp_ones = (1u64 << e) - 1;
        match self.rule {
            SpecialRule::Ieee if exp_field == exp_ones => {
                return if mant == 0 { sign * f64::INFINITY } else { f64::NAN };
            }
            SpecialRule::NanOnly if exp_field == exp_ones && mant == (1u64 << m) - 1 => {
                return f64::NAN;
            }
            SpecialRule::SingleNan if code == self.nan_code() => return f64::NAN,
            _ => {}
        }
        if exp_field == 0 {
            if !self.denormals {
                // Flush-to-zero hardware; SingleNan has no −0 to flush to.
                return if self.rule == SpecialRule::SingleNan { 0.0 } else { sign * 0.0 };
            }
            return sign * mant as f64 * self.min_denormal();
        }
        sign * exp2(exp_field as i64 - self.bias()) * (1.0 + mant as f64 * exp2(-(m as i64)))
    }
}

/// `2^k` in f64, exact for every `k`: built directly from the IEEE bit
/// pattern, so it costs no libm call on the per-element paths. Covers the
/// subnormal range `−1074 ≤ k < −1022` (an e11 format's smallest denormal
/// is 2^−1042), and saturates to `+Inf` above 2^1023 and to `+0` below
/// 2^−1074, as the exact real result rounds there.
#[inline]
pub(crate) fn exp2(k: i64) -> f64 {
    if k > 1023 {
        f64::INFINITY
    } else if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else if k >= -1074 {
        f64::from_bits(1u64 << (k + 1074))
    } else {
        0.0
    }
}

/// `x · 2^k` computed without intermediate overflow: the scaling is applied
/// in chunks small enough that `exp2` stays finite, so a huge `k` (e.g. a
/// corrupted 16-bit AdaptivFloat bias register, `|k|` up to 2^15) degrades
/// gracefully to ±Inf / ±0 instead of poisoning the product with NaN.
///
/// Signed zeros and non-finite inputs pass through unchanged.
pub fn mul_pow2(x: f64, k: i64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let mut v = x;
    let mut k = k;
    while k != 0 {
        let s = k.clamp(-900, 900);
        v *= exp2(s);
        k -= s;
        if v == 0.0 || v.is_infinite() {
            break;
        }
    }
    v
}

/// Casts an f64 onto the f32 compute fabric, saturating at `±f32::MAX`
/// instead of overflowing to ±Inf — the paper's emulation "writes the
/// number back at the nearest value" the fabric can hold, and only explicit
/// Inf/NaN *codes* may decode to non-finite values. NaN passes through;
/// signed zeros and underflow-to-zero keep their sign.
pub fn f32_saturate(x: f64) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    x.clamp(-(f32::MAX as f64), f32::MAX as f64) as f32
}

/// Unbiased binary exponent of a positive, finite, normal-in-f64 value.
pub(crate) fn exponent_of(a: f64) -> i64 {
    debug_assert!(a > 0.0 && a.is_finite());
    ((a.to_bits() >> 52) & 0x7ff) as i64 - 1023
}

/// Round half to even, matching IEEE default rounding.
///
/// Below 2^52 in magnitude, adding and then subtracting 2^52 makes the FPU
/// round `|x|` to an integer under its default round-to-nearest-even mode,
/// and both steps are exact otherwise; at or above 2^52 every f64 is
/// already an integer. This compiles to a handful of branch-free SSE2
/// instructions that the quantise loops can inline and vectorise;
/// `f64::round_ties_even` is a libm call on baseline x86-64 and cannot be.
///
/// Sign of zero: every result that rounds to zero keeps the sign of `x`,
/// so `round_ties_even(-0.5)` is `-0.0` (the libm-based oracle in the tests
/// gives `+0.0` for exactly −0.5). No caller can observe this: each one
/// either passes a non-negative magnitude (FP/minifloat mantissas, BFP
/// magnitudes) or treats the result as an integer — FxP raw words cast it
/// (`-0.0 as i64 == 0`) and INT codes add `+0.0`. NaN and ±Inf are
/// returned unchanged (a signalling NaN is not quieted, unlike libm's).
/// No output depends on a NaN's bits: INT maps a NaN result to code 0,
/// BFP's `.min(mag_max)` discards it, and the other callers filter NaN
/// out before rounding.
#[inline]
pub(crate) fn round_ties_even(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let a = x.abs();
    if a < TWO_52 {
        ((a + TWO_52) - TWO_52).copysign(x)
    } else {
        x
    }
}

/// A configurable IEEE-754-style floating-point format (`eXmY`).
///
/// # Examples
///
/// ```
/// use formats::{FloatingPoint, NumberFormat};
/// let bf16 = FloatingPoint::bfloat16();
/// assert_eq!(bf16.name(), "fp_e8m7");
/// assert_eq!(bf16.bit_width(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloatingPoint {
    params: FpParams,
}

impl FloatingPoint {
    /// Creates an `eXmY` float with denormal support enabled.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits ∉ 2..=11` or `man_bits ∉ 1..=52`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Self {
        FloatingPoint { params: FpParams::new(exp_bits, man_bits, true, SpecialRule::Ieee) }
    }

    /// Enables or disables denormal (subnormal) support.
    pub fn with_denormals(mut self, on: bool) -> Self {
        self.params.denormals = on;
        self
    }

    /// IEEE-754 single precision (e8m23).
    pub fn fp32() -> Self {
        Self::new(8, 23)
    }

    /// IEEE-754 half precision (e5m10).
    pub fn fp16() -> Self {
        Self::new(5, 10)
    }

    /// Google bfloat16 (e8m7).
    pub fn bfloat16() -> Self {
        Self::new(8, 7)
    }

    /// NVIDIA TensorFloat-32 (e8m10).
    pub fn tensorfloat32() -> Self {
        Self::new(8, 10)
    }

    /// IBM DLFloat (e6m9).
    pub fn dlfloat16() -> Self {
        Self::new(6, 9)
    }

    /// FP8 e4m3 (as in the paper's Table I, without Inf codes reclaimed).
    pub fn fp8_e4m3() -> Self {
        Self::new(4, 3)
    }

    /// FP8 e5m2.
    pub fn fp8_e5m2() -> Self {
        Self::new(5, 2)
    }

    /// Exponent width in bits.
    pub fn exp_bits(&self) -> u32 {
        self.params.e
    }

    /// Mantissa width in bits.
    pub fn man_bits(&self) -> u32 {
        self.params.m
    }

    /// Whether denormals are representable.
    pub fn denormals(&self) -> bool {
        self.params.denormals
    }

    /// Quantises a single value (exposed for tests and the DSE heuristic).
    pub fn quantize_scalar(&self, x: f32) -> f32 {
        self.params.f32_quantizer()(x)
    }

    /// The exact f64 reference quantiser — the slow path the bit-twiddling
    /// fast path ([`FloatingPoint::quantize_scalar`]) must agree with
    /// bit-for-bit. Exposed so the conformance oracle can run differential
    /// sweeps (law `fast-slow-agreement`) from outside this crate.
    pub fn quantize_reference(&self, x: f32) -> f32 {
        self.params.quantize(x as f64) as f32
    }
}

impl NumberFormat for FloatingPoint {
    fn name(&self) -> String {
        if self.params.denormals {
            format!("fp_e{}m{}", self.params.e, self.params.m)
        } else {
            format!("fp_e{}m{}_nodn", self.params.e, self.params.m)
        }
    }

    fn canonical_spec(&self) -> String {
        if self.params.denormals {
            format!("fp:e{}m{}", self.params.e, self.params.m)
        } else {
            format!("fp:e{}m{}:nodn", self.params.e, self.params.m)
        }
    }

    fn bit_width(&self) -> u32 {
        self.params.width() as u32
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let values = crate::chunk::map_chunked(t, self.params.f32_quantizer());
        Quantized { values, meta: Metadata::None }
    }

    fn real_to_format(&self, value: f32, _meta: &Metadata, _index: usize) -> Bitstring {
        Bitstring::from_u64(self.params.encode(value as f64), self.params.width())
    }

    fn format_to_real(&self, bits: &Bitstring, _meta: &Metadata, _index: usize) -> f32 {
        assert_eq!(bits.len(), self.params.width(), "bit width mismatch for {}", self.name());
        self.params.decode(bits.to_u64()) as f32
    }

    fn dynamic_range(&self) -> DynamicRange {
        DynamicRange {
            max_abs: self.params.max_value(),
            min_abs: if self.params.denormals {
                self.params.min_denormal()
            } else {
                self.params.min_normal()
            },
        }
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        Some(1..1 + self.params.e as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_reaches_the_f64_subnormal_range() {
        // Regression: powi(−1042) underflowed to 0, zeroing an e11 format's
        // min_abs (GF32 = e11m20 has min denormal 2^−1042).
        assert_eq!(exp2(-1022), f64::MIN_POSITIVE);
        assert_eq!(exp2(-1042), f64::MIN_POSITIVE / (2.0f64).powi(20));
        assert!(exp2(-1074) > 0.0, "smallest f64 subnormal");
        assert_eq!(exp2(-1075), 0.0);
        assert_eq!(exp2(-2000), 0.0);
        let gf32 = FpParams::new(11, 20, true, SpecialRule::Ieee);
        assert!(gf32.min_denormal() > 0.0);
    }

    #[test]
    fn fp32_quantize_is_identity_on_f32() {
        let fp = FloatingPoint::fp32();
        for &x in &[0.0f32, 1.0, -2.5, 3.375, 1e-30, -1e30, f32::MIN_POSITIVE] {
            assert_eq!(fp.quantize_scalar(x), x, "fp32 must be lossless for {x}");
        }
    }

    #[test]
    fn fp32_encode_matches_ieee_bits() {
        let fp = FloatingPoint::fp32();
        for &x in &[0.0f32, 1.0, -1.5, 0.1, 65504.0, 1.4e-45, -3.0e38] {
            let bits = fp.real_to_format(x, &Metadata::None, 0);
            assert_eq!(bits.to_u64() as u32, x.to_bits(), "encode({x}) != f32 bits");
            assert_eq!(fp.format_to_real(&bits, &Metadata::None, 0), x);
        }
    }

    #[test]
    fn fp16_max_and_min() {
        let fp = FloatingPoint::fp16();
        let r = fp.dynamic_range();
        assert_eq!(r.max_abs, 65504.0);
        assert!((r.min_abs - 5.960_464_5e-8).abs() < 1e-12);
        let nodn = fp.with_denormals(false).dynamic_range();
        assert!((nodn.min_abs - 6.103_515_6e-5).abs() < 1e-9);
    }

    #[test]
    fn fp8_e4m3_saturates_at_240() {
        let fp = FloatingPoint::fp8_e4m3();
        assert_eq!(fp.quantize_scalar(1000.0), 240.0);
        assert_eq!(fp.quantize_scalar(-1000.0), -240.0);
        assert_eq!(fp.dynamic_range().max_abs, 240.0);
    }

    #[test]
    fn fp8_rounds_to_nearest_even() {
        let fp = FloatingPoint::fp8_e4m3();
        // Between 1.0 (mant 0) and 1.125 (mant 1): 1.0625 ties to even → 1.0.
        assert_eq!(fp.quantize_scalar(1.0625), 1.0);
        // 1.1 is closer to 1.125.
        assert_eq!(fp.quantize_scalar(1.1), 1.125);
    }

    #[test]
    fn denormals_off_flushes_small_values() {
        let fp = FloatingPoint::fp8_e4m3().with_denormals(false);
        let min_normal = 2.0f32.powi(-6);
        assert_eq!(fp.quantize_scalar(min_normal / 4.0), 0.0);
        assert_eq!(fp.quantize_scalar(min_normal * 0.75), min_normal);
        let on = FloatingPoint::fp8_e4m3();
        // With denormals, min_normal/4 is representable (mantissa step 2^-9).
        assert_eq!(on.quantize_scalar(min_normal / 4.0), min_normal / 4.0);
    }

    #[test]
    fn quantize_idempotent() {
        let fp = FloatingPoint::new(3, 4);
        for &x in &[0.3f32, -7.9, 100.0, 0.001, 5.5e-4] {
            let q = fp.quantize_scalar(x);
            assert_eq!(fp.quantize_scalar(q), q, "quantize not idempotent at {x}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        // Exhaustively decode every 8-bit FP(e4m3) pattern and re-encode:
        // every representable value must round-trip.
        let fp = FloatingPoint::fp8_e4m3();
        for code in 0u64..256 {
            let bits = Bitstring::from_u64(code, 8);
            let v = fp.format_to_real(&bits, &Metadata::None, 0);
            if v.is_nan() {
                continue;
            }
            let re = fp.real_to_format(v, &Metadata::None, 0);
            let v2 = fp.format_to_real(&re, &Metadata::None, 0);
            assert_eq!(v, v2, "code {code:#010b} decoded to {v}, re-decoded to {v2}");
        }
    }

    #[test]
    fn exponent_flip_is_large_error() {
        // Flipping the MSB of the exponent of 1.0 in e8m23 gives 2^128 ≈ inf
        // territory; in our representation it decodes to a huge value.
        let fp = FloatingPoint::fp32();
        let bits = fp.real_to_format(1.0, &Metadata::None, 0);
        let flipped = bits.with_flip(1); // MSB of exponent
        let v = fp.format_to_real(&flipped, &Metadata::None, 0);
        assert!(v > 1e38 || v.is_infinite(), "exponent flip gave {v}");
    }

    #[test]
    fn sign_flip_negates() {
        let fp = FloatingPoint::fp16();
        let bits = fp.real_to_format(3.5, &Metadata::None, 0);
        let v = fp.format_to_real(&bits.with_flip(0), &Metadata::None, 0);
        assert_eq!(v, -3.5);
    }

    #[test]
    fn all_ones_exponent_decodes_to_inf_or_nan() {
        let fp = FloatingPoint::fp8_e4m3();
        // s=0, e=1111, m=000 → +inf
        let inf = Bitstring::from_u64(0b01111000, 8);
        assert!(fp.format_to_real(&inf, &Metadata::None, 0).is_infinite());
        let nan = Bitstring::from_u64(0b01111001, 8);
        assert!(fp.format_to_real(&nan, &Metadata::None, 0).is_nan());
    }

    #[test]
    fn tensor_quantize_matches_scalar() {
        let fp = FloatingPoint::new(5, 2);
        let x = Tensor::from_vec(vec![0.1, -0.7, 3.3, 900.0, 1e-9], [5]);
        let q = fp.real_to_format_tensor(&x);
        for (i, &xv) in x.as_slice().iter().enumerate() {
            assert_eq!(q.values.as_slice()[i], fp.quantize_scalar(xv));
        }
        assert_eq!(q.meta, Metadata::None);
    }

    #[test]
    fn round_ties_even_cases() {
        assert_eq!(round_ties_even(0.5), 0.0);
        assert_eq!(round_ties_even(1.5), 2.0);
        assert_eq!(round_ties_even(2.5), 2.0);
        assert_eq!(round_ties_even(-0.5), 0.0);
        assert_eq!(round_ties_even(-1.5), -2.0);
        assert_eq!(round_ties_even(1.3), 1.0);
    }

    /// The previous `round_ties_even` (libm `round`, `trunc` and `fmod`),
    /// kept as the oracle the fast version is pinned against.
    fn round_ties_even_oracle(x: f64) -> f64 {
        let r = x.round();
        if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
            r - r.signum()
        } else {
            r
        }
    }

    /// Bit-equal to the oracle for every non-negative input; equal in
    /// value (`==`, so `-0.0 == +0.0`) for every negative input; NaN for
    /// NaN (the quiet bit is not observable, see `round_ties_even`).
    fn assert_matches_oracle(x: f64) {
        let (got, want) = (round_ties_even(x), round_ties_even_oracle(x));
        if x.is_nan() {
            assert!(got.is_nan() && want.is_nan(), "x = {x:e} ({:#018x})", x.to_bits());
        } else if x.is_sign_positive() {
            assert_eq!(got.to_bits(), want.to_bits(), "x = {x:e} ({:#018x})", x.to_bits());
        } else {
            assert!(got == want, "x = {x:e} ({:#018x}): {got:e} vs {want:e}", x.to_bits());
        }
    }

    #[test]
    fn round_ties_even_matches_libm_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let two52 = exp2(52);
        let mut cases = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            exp2(53),
            exp2(51) + 0.5,
        ];
        // Every k + 0.5 tie for |k| < 2^12, and its neighbours.
        for k in -(1i64 << 12) + 1..(1i64 << 12) {
            let t = k as f64 + 0.5;
            cases.extend([t, f64::from_bits(t.to_bits() + 1), f64::from_bits(t.to_bits() - 1)]);
        }
        // f64 subnormals: the extremes and a spread in between.
        for k in 0..52 {
            let s = f64::from_bits(1u64 << k);
            cases.extend([s, -s, f64::from_bits((1u64 << k) | 1)]);
        }
        cases.push(f64::from_bits(0x000f_ffff_ffff_ffff));
        let signed: Vec<f64> = cases.iter().map(|&x| -x).collect();
        for x in cases.into_iter().chain(signed) {
            assert_matches_oracle(x);
        }
        let mut rng = StdRng::seed_from_u64(0x5eed_2a3e);
        for _ in 0..1_000_000 {
            assert_matches_oracle(f64::from_bits(rng.gen::<u64>()));
        }
    }

    /// The previous `exp2` (`powi`, split below 2^−1022), as an oracle.
    fn exp2_oracle(k: i64) -> f64 {
        if k >= -1022 {
            (2.0f64).powi(k as i32)
        } else {
            (2.0f64).powi(-1022) * (2.0f64).powi((k + 1022).max(-100) as i32)
        }
    }

    #[test]
    fn exp2_matches_powi_oracle() {
        for k in -1200..1200 {
            assert_eq!(exp2(k).to_bits(), exp2_oracle(k).to_bits(), "k = {k}");
        }
        for k in [-40_000, -2000, 2000, 40_000] {
            assert_eq!(exp2(k).to_bits(), exp2_oracle(k).to_bits(), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "exponent width")]
    fn invalid_exp_bits_panics() {
        FloatingPoint::new(1, 3);
    }

    const RULES: [SpecialRule; 4] =
        [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite, SpecialRule::SingleNan];

    /// The DSE's FP ladder (`fp:e8m23` down to `fp:e3m8`).
    const LADDER: [(u32, u32); 6] = [(8, 23), (4, 13), (2, 8), (3, 11), (3, 9), (3, 8)];

    /// What `f32_quantizer` must return for `x`: the f64 reference's bits,
    /// except that a NaN result keeps the input's own bits (the f64 round
    /// trip would quiet a signalling NaN).
    fn reference_bits(p: &FpParams, x: f32) -> u32 {
        let want = p.quantize(x as f64) as f32;
        if want.is_nan() {
            x.to_bits()
        } else {
            want.to_bits()
        }
    }

    /// Post-ReLU-shaped input: randn with its negatives set to zero (`+0.0`,
    /// and `−0.0` below −1), as the hooked layer outputs mostly are.
    fn relu_probes(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
        let x = Tensor::randn([n], rng);
        let relu = |v: f32| match v {
            v if v > 0.0 => v,
            v if v < -1.0 => -0.0,
            _ => 0.0,
        };
        x.as_slice().iter().map(|&v| relu(v)).collect()
    }

    /// Probes at `p`'s small end, both signs: ties and their neighbours on
    /// the denormal grid, the magic constant `2^(emin−m+23)`, 2^emin and
    /// the flush-to-zero threshold 2^(emin−1) with their neighbours,
    /// random magnitudes below 2^emin, and post-ReLU input scaled under it.
    fn small_end_probes(p: &FpParams, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        use rand::Rng;
        let (emin, step) = (p.emin(), p.min_denormal());
        let mut x: Vec<f32> = (0..48)
            .flat_map(|k| [k as f64 * step, (k as f64 + 0.5) * step])
            .chain([exp2(emin - p.m as i64 + 23), exp2(emin), exp2(emin - 1)])
            .chain([exp2(emin) - step * 0.5, exp2(emin) - step * 0.25])
            .map(|v| v as f32)
            .flat_map(|v| [v, v.next_up(), v.next_down()])
            .collect();
        let below = exp2(emin) as f32;
        x.extend((0..512).map(|_| below * rng.gen::<f32>()));
        x.extend(
            (0..512)
                .map(|_| (exp2(emin - rng.gen_range(1i64..40)) * rng.gen_range(1.0..2.0)) as f32),
        );
        x.extend(relu_probes(rng, 512).iter().map(|v| v * below * 0.25));
        x.extend(x.clone().iter().map(|v| -v));
        x
    }

    /// The f32 quantiser must agree bitwise with the f64 reference for
    /// every f32 input, as scalar code and vectorised inside Method 1
    /// (`real_to_format_tensor`) under every kernel the host supports.
    /// Probes: a strided sweep over all 2^32 bit patterns (stride 4099,
    /// ~1M probes: every exponent, both signs, f32 denormals, ±Inf, NaN),
    /// post-ReLU input (zero-inflated), binade edges, ties, each format's
    /// max and its f32 neighbours, and its small end (`small_end_probes`).
    /// Splits: every rule with both denormal settings, e ≥ 9 included;
    /// the DSE ladder with both denormal settings; e11 and m > 23 under
    /// IEEE only (reclaiming e11's top binade overflows f64).
    #[test]
    fn f32_quantizer_matches_reference_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf32_7a11);
        let mut cases: Vec<f32> = vec![
            // An f32 denormal whose fixed-shift rounding would carry into
            // the normal range; for e ≥ 9 it is a normal on a finer grid.
            f32::from_bits(0x007f_fffc),
            0.0,
            -0.0,
            1.0,
            0.5,
            240.0,
            241.0,
            448.0,
            460.0,
            480.0,
            57344.0,
            1e30,
            1e-30,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            65504.0,
            1.0625,
            1.1875,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
        ];
        cases.extend(cases.clone().iter().map(|x| -x));
        cases.extend(relu_probes(&mut rng, 4096));
        let sweep = (0..=u32::MAX / 4099).map(|i| f32::from_bits(i * 4099));
        let probes: Vec<f32> = cases.into_iter().chain(sweep).collect();
        let mut formats = vec![
            FpParams::new(11, 20, true, SpecialRule::Ieee),
            FpParams::new(3, 23, false, SpecialRule::Ieee),
            FpParams::new(4, 30, true, SpecialRule::Ieee),
            // The denormal-grid constant 2^(emin−m+23) is an f32 denormal.
            FpParams::new(8, 30, true, SpecialRule::Ieee),
        ];
        for (e, m) in LADDER {
            formats.extend([true, false].map(|dn| FpParams::new(e, m, dn, SpecialRule::Ieee)));
        }
        for rule in RULES {
            for (e, m) in [(2, 1), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1), (8, 7), (10, 5)] {
                formats.extend([true, false].map(|dn| FpParams::new(e, m, dn, rule)));
            }
        }
        for p in formats {
            let max = p.max_value() as f32;
            let edges = [max, max.next_up(), max.next_down()];
            let mut xs = probes.clone();
            xs.extend(edges.iter().chain(&edges.map(|x| -x)));
            xs.extend(small_end_probes(&p, &mut rng));
            let want: Vec<u32> = xs.iter().map(|&x| reference_bits(&p, x)).collect();
            let fast = p.f32_quantizer();
            for (&x, &w) in xs.iter().zip(&want) {
                assert_eq!(fast(x).to_bits(), w, "scalar {p:?} at {x:e} ({:#010x})", x.to_bits());
            }
            let t = Tensor::from_vec(xs.clone(), [xs.len()]);
            crate::chunk::for_each_kernel(|kern| {
                let q = FloatingPoint { params: p }.real_to_format_tensor(&t);
                for ((&x, &w), v) in xs.iter().zip(&want).zip(q.values.as_slice()) {
                    assert_eq!(v.to_bits(), w, "{kern} {p:?} at {x:e} ({:#010x})", x.to_bits());
                }
            });
        }
    }

    /// Every one of the 2^32 f32 inputs against the f64 reference, through
    /// Method 1's vectorised loop under the dispatched kernel: the DSE
    /// ladder, one format per [`SpecialRule`], flush-to-zero, e ≥ 9 and
    /// m > 23. About 75 s of one core per format in release, so it is
    /// ignored by default: `cargo test --release -p formats -- --ignored`
    /// (the formats are shared out over up to 4 threads).
    #[test]
    #[ignore]
    fn f32_quantizer_matches_reference_exhaustively() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut formats: Vec<FpParams> =
            LADDER.iter().map(|&(e, m)| FpParams::new(e, m, true, SpecialRule::Ieee)).collect();
        formats.extend([
            FpParams::new(4, 3, false, SpecialRule::NanOnly),
            FpParams::new(4, 3, true, SpecialRule::SingleNan),
            FpParams::new(2, 1, true, SpecialRule::Finite),
            FpParams::new(11, 20, true, SpecialRule::Ieee),
            FpParams::new(9, 5, false, SpecialRule::Ieee),
            FpParams::new(4, 30, true, SpecialRule::Ieee),
        ]);
        const CHUNK: u64 = 1 << 16;
        let next = AtomicUsize::new(0);
        let sweep = || {
            let mut mismatches = Vec::new();
            while let Some(&p) = formats.get(next.fetch_add(1, Ordering::Relaxed)) {
                let format = FloatingPoint { params: p };
                let mut count = 0u64;
                let mut first = None;
                for lo in (0..1u64 << 32).step_by(CHUNK as usize) {
                    let xs: Vec<f32> = (lo..lo + CHUNK).map(|b| f32::from_bits(b as u32)).collect();
                    let q = format.real_to_format_tensor(&Tensor::from_vec(xs.clone(), [xs.len()]));
                    for (&x, v) in xs.iter().zip(q.values.as_slice()) {
                        if v.to_bits() != reference_bits(&p, x) {
                            count += 1;
                            first.get_or_insert(x.to_bits());
                        }
                    }
                }
                mismatches.push((p, count, first));
            }
            mismatches
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(sweep)).collect();
            handles.into_iter().flat_map(|h| h.join().expect("sweep thread")).collect()
        });
        assert_eq!(results.len(), formats.len());
        let bad: Vec<_> = results.iter().filter(|r| r.1 > 0).collect();
        assert!(bad.is_empty(), "mismatches (format, count, first input bits): {bad:x?}");
    }

    /// Every split of at most 8 bits, e ≥ 2 and m ≥ 1.
    fn narrow_splits() -> impl Iterator<Item = (u32, u32)> {
        (2..=6u32).flat_map(|e| (1..=7 - e).map(move |m| (e, m)))
    }

    #[test]
    fn decode_encode_is_a_fixpoint_for_every_code_and_rule() {
        for rule in RULES {
            for (e, m) in narrow_splits() {
                for dn in [true, false] {
                    let f = FpParams::new(e, m, dn, rule);
                    for code in 0..(1u64 << f.width()) {
                        let v = f.decode(code);
                        let v2 = f.decode(f.encode(v));
                        let ok = v.to_bits() == v2.to_bits() || (v.is_nan() && v2.is_nan());
                        assert!(ok, "{f:?} code {code:#x}: {v} re-decodes as {v2}");
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_agrees_with_decode_encode() {
        for rule in RULES {
            let f = FpParams::new(4, 3, true, rule);
            for i in -2000..2000 {
                let x = i as f64 * 0.37;
                let via_codes = f.decode(f.encode(x));
                assert_eq!(f.quantize(x).to_bits(), via_codes.to_bits(), "{rule:?} at {x}");
            }
        }
    }

    #[test]
    fn ocp_maxima() {
        let max = |e, m, rule| FpParams::new(e, m, true, rule).max_value();
        assert_eq!(max(2, 1, SpecialRule::Finite), 6.0);
        assert_eq!(max(2, 3, SpecialRule::Finite), 7.5);
        assert_eq!(max(3, 2, SpecialRule::Finite), 28.0);
        assert_eq!(max(4, 3, SpecialRule::NanOnly), 448.0);
        assert_eq!(max(5, 2, SpecialRule::Ieee), 57344.0);
    }

    #[test]
    fn saturation_never_produces_special_codes() {
        // 460 rounds up to 480 — the bit pattern that would be e4m3fn's
        // NaN — so the quantiser must saturate to 448 instead.
        let f = FpParams::new(4, 3, true, SpecialRule::NanOnly);
        assert_eq!(f.quantize(460.0), 448.0);
        assert_eq!(f.f32_quantizer()(460.0), 448.0);
        assert_eq!(f.quantize(1e30), 448.0);
        assert_eq!(f.quantize(f64::INFINITY), 448.0);
        assert_eq!(f.quantize(f64::NEG_INFINITY), -448.0);
        assert!(f.decode(f.encode(1e30)).is_finite());
    }

    #[test]
    fn finite_rule_has_no_specials() {
        let f = FpParams::new(2, 1, true, SpecialRule::Finite);
        for code in 0..(1u64 << f.width()) {
            assert!(f.decode(code).is_finite(), "code {code:#x}");
        }
        assert_eq!(f.quantize(f64::NAN).to_bits(), 0);
        assert_eq!(f.f32_quantizer()(f32::NAN).to_bits(), 0);
        assert_eq!(f.quantize(f64::INFINITY), 6.0);
    }

    #[test]
    fn single_nan_lives_at_sign_zero() {
        let f = FpParams::new(4, 3, true, SpecialRule::SingleNan);
        assert!(f.decode(0x80).is_nan());
        assert_eq!(f.encode(f64::NAN), 0x80);
        for code in 0..256u64 {
            if code != 0x80 {
                assert!(f.decode(code).is_finite(), "code {code:#x}");
            }
        }
        // No −0: the sign of zero cannot survive.
        assert!(!f.quantize(-0.0).is_sign_negative());
        assert!(!f.f32_quantizer()(-0.0).is_sign_negative());
        assert_eq!(f.encode(-0.0), 0);
        // Negative underflow rounds to +0, never −0.
        assert!(!f.quantize(-f.min_denormal() / 8.0).is_sign_negative());
    }

    #[test]
    fn signed_zero_survives_outside_single_nan() {
        for rule in [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite] {
            let f = FpParams::new(4, 3, true, rule);
            assert!(f.quantize(-0.0).is_sign_negative(), "{rule:?}");
            let code = f.encode(-0.0);
            assert_eq!(code, 1 << 7, "{rule:?}");
            assert!(f.decode(code).is_sign_negative(), "{rule:?}");
        }
    }

    #[test]
    fn ieee_nan_is_returned_unchanged() {
        // FP output stays bit-identical for NaN inputs, payload and sign
        // included, on both the reference and the fast path.
        let f = FpParams::new(4, 3, true, SpecialRule::Ieee);
        for bits in [0x7fc0_0000u32, 0xffc0_0001, 0x7f80_0001] {
            let x = f32::from_bits(bits);
            assert_eq!(f.f32_quantizer()(x).to_bits(), bits);
            let y = f64::from_bits(0xfff8_0000_0000_0123);
            assert_eq!(f.quantize(y).to_bits(), y.to_bits());
        }
    }
}
