//! Generic floating point: any `eXmY` split, IEEE-754 conventions
//! (biased exponent, implicit leading one, reserved all-ones exponent for
//! Inf/NaN, optional denormals).
//!
//! Covers the paper's named formats as parameterisations: FP32 = `e8m23`,
//! FP16 = `e5m10`, bfloat16 = `e8m7`, TensorFloat = `e8m10`, DLFloat =
//! `e6m9`, FP8 = `e4m3`.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::metadata::Metadata;
use tensor::Tensor;

/// Internal e/m arithmetic shared by [`FloatingPoint`] and AdaptivFloat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FpParams {
    pub e: u32,
    pub m: u32,
    pub denormals: bool,
}

impl FpParams {
    pub(crate) fn new(e: u32, m: u32, denormals: bool) -> Self {
        assert!((2..=11).contains(&e), "exponent width {e} out of range 2..=11");
        assert!((1..=52).contains(&m), "mantissa width {m} out of range 1..=52");
        FpParams { e, m, denormals }
    }

    /// IEEE exponent bias: `2^(e-1) - 1`.
    pub(crate) fn bias(&self) -> i64 {
        (1i64 << (self.e - 1)) - 1
    }

    /// Largest normal (unbiased) exponent; the all-ones field is reserved.
    pub(crate) fn emax(&self) -> i64 {
        (1i64 << self.e) - 2 - self.bias()
    }

    /// Smallest normal (unbiased) exponent.
    pub(crate) fn emin(&self) -> i64 {
        1 - self.bias()
    }

    /// Largest representable magnitude: `2^emax · (2 − 2^−m)`.
    pub(crate) fn max_value(&self) -> f64 {
        exp2(self.emax()) * (2.0 - exp2(-(self.m as i64)))
    }

    /// Smallest normal magnitude: `2^emin`.
    pub(crate) fn min_normal(&self) -> f64 {
        exp2(self.emin())
    }

    /// Smallest denormal magnitude: `2^(emin − m)`.
    pub(crate) fn min_denormal(&self) -> f64 {
        exp2(self.emin() - self.m as i64)
    }

    /// Rounds `x` to the nearest representable value (ties to even),
    /// saturating at `±max_value` — including for ±Inf inputs (the
    /// emulation clamps everything beyond the format's range; only bit
    /// flips can *produce* the reserved Inf/NaN codes). NaN propagates.
    pub(crate) fn quantize(&self, x: f64) -> f64 {
        if x.is_nan() || x == 0.0 {
            return x;
        }
        if x.is_infinite() {
            return x.signum() * self.max_value();
        }
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let a = x.abs();
        let e = exponent_of(a);
        if e >= self.emin() {
            // Normal range (or above): quantise the mantissa at 2^(e−m).
            let scale = exp2(e - self.m as i64);
            let q = round_ties_even(a / scale);
            let val = q * scale;
            if exponent_of(val) > self.emax() {
                return sign * self.max_value();
            }
            sign * val
        } else if self.denormals {
            let step = self.min_denormal();
            let q = round_ties_even(a / step);
            sign * q * step
        } else {
            // Flush-to-zero hardware: round to nearest of {0, min_normal}.
            if a >= self.min_normal() * 0.5 {
                sign * self.min_normal()
            } else {
                sign * 0.0
            }
        }
    }

    /// Total bit width: sign + exponent + mantissa.
    pub(crate) fn width(&self) -> usize {
        1 + self.e as usize + self.m as usize
    }

    /// Fast tensor-path quantiser: pure bit manipulation on the f32
    /// representation (the analogue of QPyTorch's C++/CUDA kernels, which
    /// give the paper's FP/FxP/INT emulation its near-native speed).
    ///
    /// Round-to-nearest-even is performed by adding `half − 1 + lsb` to
    /// the mantissa field; the carry propagates into the exponent, which
    /// IEEE's layout makes exactly the right thing. Values below the
    /// format's normal range fall back to the exact f64 slow path (they
    /// are rare in practice and need denormal/FTZ handling).
    pub(crate) fn quantize_f32(&self, x: f32) -> f32 {
        let bits = x.to_bits();
        let exp_field = (bits >> 23) & 0xff;
        if exp_field == 0xff {
            if x.is_nan() {
                return x;
            }
            // ±Inf saturates like any other beyond-max value.
            return x.signum() * self.max_value() as f32;
        }
        let rounded = if self.m < 23 {
            let shift = 23 - self.m;
            let lsb = (bits >> shift) & 1;
            let add = (1u32 << (shift - 1)) - 1 + lsb;
            (bits.wrapping_add(add)) & !((1u32 << shift) - 1)
        } else {
            bits
        };
        let e_unb = (((rounded >> 23) & 0xff) as i64) - 127;
        if ((rounded >> 23) & 0xff) == 0 {
            // Zero or f32-subnormal: below every format's normal range.
            return self.quantize(x as f64) as f32;
        }
        if e_unb > self.emax() {
            return if x < 0.0 { -(self.max_value() as f32) } else { self.max_value() as f32 };
        }
        if e_unb >= self.emin() {
            f32::from_bits(rounded)
        } else {
            // Denormal range of the target format: exact slow path.
            self.quantize(x as f64) as f32
        }
    }

    /// Encodes a value into `[s | e | m]` bits. The value is quantised
    /// first, so any f32 is accepted.
    pub(crate) fn encode(&self, x: f64) -> Bitstring {
        let (e, m) = (self.e as usize, self.m as usize);
        let exp_ones = (1u64 << e) - 1;
        if x.is_nan() {
            // Canonical NaN: sign 0, exponent all-ones, mantissa all-ones.
            let word = (exp_ones << m) | ((1u64 << m) - 1);
            return Bitstring::from_u64(word, 1 + e + m);
        }
        if x.is_infinite() {
            // ±Inf is representable (reserved exponent) and must round-trip
            // through Methods 3/4 even though Method 1 saturates it.
            let word = ((x.is_sign_negative() as u64) << (e + m)) | (exp_ones << m);
            return Bitstring::from_u64(word, 1 + e + m);
        }
        let v = self.quantize(x);
        let sign = v.is_sign_negative() as u64;
        let a = v.abs();
        if a == 0.0 {
            return Bitstring::from_u64(sign << (e + m), 1 + e + m);
        }
        let ev = exponent_of(a);
        let (exp_field, mant_field) = if ev >= self.emin() {
            let mant = round_ties_even((a / exp2(ev) - 1.0) * exp2(self.m as i64)) as u64;
            ((ev + self.bias()) as u64, mant)
        } else {
            // Denormal: exponent field 0.
            (0u64, round_ties_even(a / self.min_denormal()) as u64)
        };
        let word = (sign << (e + m)) | (exp_field << m) | (mant_field & ((1 << m) - 1));
        Bitstring::from_u64(word, 1 + e + m)
    }

    /// Decodes `[s | e | m]` bits into a value. All-ones exponents decode
    /// to ±Inf/NaN; denormal patterns decode to 0 when denormal support is
    /// off (flush-to-zero hardware).
    pub(crate) fn decode(&self, bits: &Bitstring) -> f64 {
        let (e, m) = (self.e as usize, self.m as usize);
        assert_eq!(bits.len(), 1 + e + m, "bit width mismatch for {:?}", self);
        let sign = if bits.bit(0) { -1.0 } else { 1.0 };
        let exp_field = bits.field(1, e).to_u64();
        let mant_field = bits.field(1 + e, m).to_u64();
        let exp_ones = (1u64 << e) - 1;
        if exp_field == exp_ones {
            return if mant_field == 0 { sign * f64::INFINITY } else { f64::NAN };
        }
        if exp_field == 0 {
            if !self.denormals {
                return sign * 0.0;
            }
            return sign * mant_field as f64 * self.min_denormal();
        }
        let ev = exp_field as i64 - self.bias();
        sign * exp2(ev) * (1.0 + mant_field as f64 / exp2(self.m as i64))
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
        FloatingPoint { params: FpParams::new(exp_bits, man_bits, true) }
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
        self.params.quantize_f32(x)
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
        let values = crate::chunk::map_chunked(t, |x| self.params.quantize_f32(x));
        Quantized { values, meta: Metadata::None }
    }

    fn elementwise_quantizer(&self) -> Option<Box<dyn Fn(f32) -> f32 + Send + Sync + '_>> {
        // Same closure as `real_to_format_tensor`; dequantise is the
        // identity cast, so the round-trip is this single map.
        Some(Box::new(|x| self.params.quantize_f32(x)))
    }

    fn real_to_format(&self, value: f32, _meta: &Metadata, _index: usize) -> Bitstring {
        self.params.encode(value as f64)
    }

    fn format_to_real(&self, bits: &Bitstring, _meta: &Metadata, _index: usize) -> f32 {
        self.params.decode(bits) as f32
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
        let gf32 = FpParams::new(11, 20, true);
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

    /// The bit-twiddling fast path must agree exactly with the f64
    /// reference on a dense sweep of values, including binade boundaries,
    /// ties, saturation, and the denormal region.
    #[test]
    fn fast_path_matches_slow_path_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let formats = [
            FpParams::new(4, 3, true),
            FpParams::new(4, 3, false),
            FpParams::new(5, 10, true),
            FpParams::new(8, 7, true),
            FpParams::new(2, 5, true),
            FpParams::new(8, 23, true),
            FpParams::new(3, 23, true),
        ];
        let mut cases: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            240.0,
            241.0,
            1e30,
            -1e30,
            1e-30,
            -1e-30,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 8.0,
            65504.0,
            1.0625,
            1.1875,
        ];
        for _ in 0..4000 {
            let exp: i32 = rng.gen_range(-40..40);
            let mant: f32 = rng.gen_range(1.0..2.0);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            cases.push(sign * mant * (2.0f32).powi(exp));
        }
        for p in formats {
            for &x in &cases {
                let fast = p.quantize_f32(x);
                let slow = p.quantize(x as f64) as f32;
                assert!(
                    fast == slow || (fast == 0.0 && slow == 0.0),
                    "e{}m{} dn={}: fast({x:?}) = {fast:?}, slow = {slow:?}",
                    p.e,
                    p.m,
                    p.denormals
                );
            }
        }
    }
}
