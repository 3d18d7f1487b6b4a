//! AdaptivFloat: floating point with a per-tensor exponent bias that slides
//! the representable window onto the tensor's value range (Tambe et al.).
//!
//! The bias lives in a small two's-complement hardware register and is an
//! injection target — error site #8 in the paper. With bias 0, AdaptivFloat
//! degenerates to plain FP without denormals; Table I lists AFP8 (e4m3) as
//! FP8-without-denormals with a "movable range".

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::fp::{exp2, exponent_of, f32_saturate, mul_pow2, FpParams, SpecialRule};
use crate::metadata::Metadata;
use tensor::Tensor;

/// AdaptivFloat: `eXmY` floating point with a tensor-adaptive exponent
/// bias held in a `bias_bits`-wide signed register.
///
/// # Examples
///
/// ```
/// use formats::{AdaptivFloat, NumberFormat, Metadata};
/// use tensor::Tensor;
/// let afp = AdaptivFloat::new(4, 3);
/// // A tensor of small values: plain FP8 without denormals would flush
/// // them (its min normal is 1.56e-2); AFP shifts its window down and
/// // keeps relative precision.
/// let x = Tensor::from_vec(vec![1e-2, 5e-3, -8e-3], [3]);
/// let q = afp.real_to_format_tensor(&x);
/// let err = (q.values.as_slice()[0] - 1e-2).abs() / 1e-2;
/// assert!(err < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivFloat {
    params: FpParams,
    bias_bits: u32,
}

impl AdaptivFloat {
    /// Creates an AdaptivFloat with a 4-bit bias register.
    ///
    /// AdaptivFloat hardware (Tambe et al.) keeps the bias in a compact
    /// per-tensor register; 4 bits (bias ∈ −8..=7) covers typical DNN
    /// tensor ranges. Tensors whose ideal bias exceeds the register range
    /// get a clamped bias — the window stops tracking, exactly as the real
    /// register would. Use [`AdaptivFloat::with_bias_bits`] to widen it.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits ∉ 2..=11` or `man_bits ∉ 1..=52`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Self {
        AdaptivFloat {
            params: FpParams::new(exp_bits, man_bits, false, SpecialRule::Ieee),
            bias_bits: 4,
        }
    }

    /// Sets the width of the bias register.
    ///
    /// # Panics
    ///
    /// Panics if `bias_bits ∉ 2..=16`.
    pub fn with_bias_bits(mut self, bias_bits: u32) -> Self {
        assert!((2..=16).contains(&bias_bits), "bias width {bias_bits} out of range");
        self.bias_bits = bias_bits;
        self
    }

    /// Exponent width in bits.
    pub fn exp_bits(&self) -> u32 {
        self.params.e
    }

    /// Mantissa width in bits.
    pub fn man_bits(&self) -> u32 {
        self.params.m
    }

    /// Bias register width in bits.
    pub fn bias_bits(&self) -> u32 {
        self.bias_bits
    }

    fn bias_min(&self) -> i32 {
        -(1i32 << (self.bias_bits - 1))
    }

    fn bias_max(&self) -> i32 {
        (1i32 << (self.bias_bits - 1)) - 1
    }

    /// Selects the exponent bias for a tensor: shifts the format's top
    /// normal exponent onto the tensor's maximum magnitude.
    pub fn bias_for(&self, t: &Tensor) -> i32 {
        let m = t.max_abs() as f64;
        if m == 0.0 || !m.is_finite() {
            return 0;
        }
        let b = exponent_of(m) - self.params.emax();
        (b as i32).clamp(self.bias_min(), self.bias_max())
    }

    fn expect_bias(meta: &Metadata) -> i32 {
        match meta {
            Metadata::ExpBias { bias, .. } => *bias,
            other => panic!("AdaptivFloat expects ExpBias metadata, got {other:?}"),
        }
    }

    fn quantize_with_bias(&self, x: f32, bias: i32) -> f32 {
        let s = exp2(bias as i64);
        (self.params.quantize(x as f64 / s) * s) as f32
    }
}

impl NumberFormat for AdaptivFloat {
    fn name(&self) -> String {
        format!("afp_e{}m{}", self.params.e, self.params.m)
    }

    fn canonical_spec(&self) -> String {
        // The spec grammar has no bias-register knob; a widened register
        // changes quantisation, so it must fork the identity even though
        // the resulting string no longer parses.
        if self.bias_bits == 4 {
            format!("afp:e{}m{}", self.params.e, self.params.m)
        } else {
            format!("afp:e{}m{}:bias{}", self.params.e, self.params.m, self.bias_bits)
        }
    }

    fn bit_width(&self) -> u32 {
        self.params.width() as u32
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let bias = self.bias_for(t);
        let this = *self;
        let values = crate::chunk::map_chunked(t, move |x| this.quantize_with_bias(x, bias));
        Quantized { values, meta: Metadata::ExpBias { bias, bias_bits: self.bias_bits } }
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, _index: usize) -> Bitstring {
        let bias = Self::expect_bias(meta);
        // `mul_pow2` keeps the rescale finite even when a register flip has
        // driven |bias| far beyond f64's exponent range (law `meta-flip-finite`).
        let code = self.params.encode(mul_pow2(value as f64, -(bias as i64)));
        Bitstring::from_u64(code, self.params.width())
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, _index: usize) -> f32 {
        let bias = Self::expect_bias(meta);
        assert_eq!(bits.len(), self.params.width(), "bit width mismatch for {}", self.name());
        let decoded = self.params.decode(bits.to_u64());
        if !decoded.is_finite() {
            // Explicit Inf/NaN codes stay Inf/NaN regardless of the bias.
            return decoded as f32;
        }
        f32_saturate(mul_pow2(decoded, bias as i64))
    }

    fn dynamic_range(&self) -> DynamicRange {
        // The window is movable; its *width* is that of FP(e,m) without
        // denormals (Table I's "movable range" note).
        DynamicRange { max_abs: self.params.max_value(), min_abs: self.params.min_normal() }
    }

    fn supports_metadata_injection(&self) -> bool {
        true
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        Some(1..1 + self.params.e as usize)
    }

    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        let ob = Self::expect_bias(old);
        let nb = Self::expect_bias(new);
        if ob == nb {
            return values.clone();
        }
        let delta = nb as i64 - ob as i64;
        // Representable max under the flipped bias; `mul_pow2` never turns a
        // finite window edge into NaN, and a too-large bias simply yields an
        // infinite (i.e. non-binding) limit before f32 fabric saturation.
        let limit = mul_pow2(self.params.max_value(), nb as i64);
        values.map(|x| f32_saturate(mul_pow2(x as f64, delta).clamp(-limit, limit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bias_matches_plain_fp_without_denormals() {
        use crate::fp::FloatingPoint;
        let afp = AdaptivFloat::new(4, 3);
        let fp = FloatingPoint::fp8_e4m3().with_denormals(false);
        // Tensor whose max lands exactly on FP8's top binade → bias 0.
        let x = Tensor::from_vec(vec![200.0, 1.0, -0.3, 0.004], [4]);
        let qa = afp.real_to_format_tensor(&x);
        let qf = fp.real_to_format_tensor(&x);
        assert_eq!(Metadata::ExpBias { bias: 0, bias_bits: 4 }, qa.meta);
        assert_eq!(qa.values, qf.values);
    }

    #[test]
    fn bias_tracks_small_tensors() {
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![1e-2, -4e-3], [2]);
        let q = afp.real_to_format_tensor(&x);
        let Metadata::ExpBias { bias, .. } = q.meta else { panic!() };
        assert!(bias < 0, "bias {bias} should be negative");
        // Relative error stays small despite only 3 mantissa bits.
        let rel = (q.values.as_slice()[0] - 1e-2).abs() / 1e-2;
        assert!(rel < 0.07, "rel err {rel}");
        // Plain FP8 without denormals flushes 4e-3 below its min normal
        // (1.56e-2): the movable window is what preserves it.
        use crate::fp::FloatingPoint;
        let fp = FloatingPoint::fp8_e4m3().with_denormals(false);
        assert_eq!(fp.quantize_scalar(-4e-3), 0.0);
        assert_ne!(q.values.as_slice()[1], 0.0);
    }

    #[test]
    fn bias_tracks_large_tensors() {
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![3e4, -5e3], [2]);
        let q = afp.real_to_format_tensor(&x);
        let Metadata::ExpBias { bias, .. } = q.meta else { panic!() };
        assert!(bias > 5);
        let rel = (q.values.as_slice()[0] - 3e4).abs() / 3e4;
        assert!(rel < 0.07);
    }

    #[test]
    fn bias_clamps_to_register_range() {
        // A tensor far below the representable window: the 4-bit register
        // clamps at −8 and the window stops tracking, as in hardware.
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![1e-9, -1e-10], [2]);
        let q = afp.real_to_format_tensor(&x);
        assert_eq!(q.meta, Metadata::ExpBias { bias: -8, bias_bits: 4 });
        // Values below the clamped window flush to zero.
        assert_eq!(q.values.as_slice(), &[0.0, 0.0]);
        // A wider register recovers them.
        let wide = AdaptivFloat::new(4, 3).with_bias_bits(8);
        let qw = wide.real_to_format_tensor(&x);
        assert_ne!(qw.values.as_slice()[0], 0.0);
    }

    #[test]
    fn quantize_idempotent() {
        let afp = AdaptivFloat::new(4, 4);
        let x = Tensor::from_vec(vec![0.37, -8.2, 0.0, 0.004], [4]);
        let q1 = afp.real_to_format_tensor(&x);
        let q2 = afp.real_to_format_tensor(&q1.values);
        assert_eq!(q1.values, q2.values);
        assert_eq!(q1.meta, q2.meta);
    }

    #[test]
    fn bitstring_roundtrip_respects_bias() {
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![1e-2, -4e-3, 2e-3, 0.0], [4]);
        let q = afp.real_to_format_tensor(&x);
        for i in 0..4 {
            let v = q.values.as_slice()[i];
            let bits = afp.real_to_format(v, &q.meta, i);
            assert_eq!(bits.len(), 8);
            let back = afp.format_to_real(&bits, &q.meta, i);
            let tol = v.abs() * 1e-6 + 1e-12;
            assert!((back - v).abs() <= tol, "element {i}: {v} → {back}");
        }
    }

    #[test]
    fn bias_register_flip_rescales_tensor() {
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![0.5, -0.25], [2]);
        let q = afp.real_to_format_tensor(&x);
        let bits = q.meta.word_bits(0).unwrap();
        // Flip the LSB of the bias register: the whole tensor scales by 2^±1.
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(3));
        let y = afp.apply_metadata(&q.values, &q.meta, &corrupted);
        let r = y.as_slice()[0] / q.values.as_slice()[0];
        assert!(r == 2.0 || r == 0.5, "ratio {r}");
    }

    #[test]
    fn bias_msb_flip_is_catastrophic() {
        // Flipping the sign bit of the 4-bit bias register shifts the
        // scale by 2^±8 — a whole-tensor corruption, though milder than a
        // same-position flip in a wider register would be.
        let afp = AdaptivFloat::new(4, 3);
        let x = Tensor::from_vec(vec![0.5, -0.25], [2]);
        let q = afp.real_to_format_tensor(&x);
        let bits = q.meta.word_bits(0).unwrap();
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(0));
        let y = afp.apply_metadata(&q.values, &q.meta, &corrupted);
        let r = (y.as_slice()[0] / q.values.as_slice()[0]).abs();
        assert!(r == 256.0 || r == 1.0 / 256.0, "ratio {r}");
    }

    #[test]
    fn table1_afp8_range_matches_fp8_nodn() {
        let afp = AdaptivFloat::new(4, 3);
        let r = afp.dynamic_range();
        assert_eq!(r.max_abs, 240.0);
        assert!((r.min_abs - 0.015625).abs() < 1e-12);
        assert!((r.db() - 83.73).abs() < 0.01, "dB {}", r.db());
    }

    #[test]
    fn zero_tensor_bias_zero() {
        let afp = AdaptivFloat::new(4, 3);
        let q = afp.real_to_format_tensor(&Tensor::zeros([3]));
        assert_eq!(q.meta, Metadata::ExpBias { bias: 0, bias_bits: 4 });
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        // Law `round-trip`: decode→encode→decode is a bitwise fixpoint for
        // every code under several bias contexts (the AFP analogue of
        // fp.rs::encode_decode_roundtrip_all_codes). NaN codes re-encode to
        // the canonical NaN, whose decode is NaN again.
        let afp = AdaptivFloat::new(4, 3);
        for bias in [-8, -1, 0, 7] {
            let meta = Metadata::ExpBias { bias, bias_bits: 4 };
            for code in 0..256u64 {
                let bits = Bitstring::from_u64(code, 8);
                let v1 = afp.format_to_real(&bits, &meta, 0);
                let bits2 = afp.real_to_format(v1, &meta, 0);
                let v2 = afp.format_to_real(&bits2, &meta, 0);
                assert!(
                    v1.to_bits() == v2.to_bits() || (v1.is_nan() && v2.is_nan()),
                    "bias {bias} code {code:#04x}: {v1} → {v2}"
                );
            }
        }
    }

    #[test]
    fn law_meta_flip_finite_all_single_bit_flips() {
        // Law `meta-flip-finite`: no single-bit flip of the bias register
        // may drive a stored (finite) value to Inf/NaN. Before the fix,
        // `exp2(nb)/exp2(ob)` overflowed f64 for wide registers (a 16-bit
        // register swings the bias by 2^15 on an MSB flip), poisoning the
        // whole tensor with Inf/NaN.
        for bias_bits in [4u32, 8, 16] {
            let afp = AdaptivFloat::new(4, 3).with_bias_bits(bias_bits);
            // 100.0 has exponent 6 = emax − 1 → bias −1, whose register
            // pattern is all-ones: flips exercise the downward deltas; a
            // zero bias exercises the upward ones.
            for seed in [vec![100.0, -0.25, 0.0, -0.0], vec![0.5, -0.25, 0.0, -0.0]] {
                let x = Tensor::from_vec(seed, [4]);
                let q = afp.real_to_format_tensor(&x);
                let bits = q.meta.word_bits(0).unwrap();
                for bit in 0..bits.len() {
                    let corrupted = q.meta.with_word_bits(0, &bits.with_flip(bit));
                    let y = afp.apply_metadata(&q.values, &q.meta, &corrupted);
                    for (i, v) in y.as_slice().iter().enumerate() {
                        assert!(
                            v.is_finite(),
                            "bias_bits {bias_bits}, flip bit {bit}, element {i}: {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn law_meta_flip_range_saturates_at_window_max() {
        // Law `meta-flip-range`: rescaled values stay inside the flipped
        // window's representable range, saturating at the f32 fabric max
        // when the shifted window exceeds it.
        let afp = AdaptivFloat::new(4, 3).with_bias_bits(8);
        let x = Tensor::from_vec(vec![100.0, -50.0], [2]);
        let q = afp.real_to_format_tensor(&x);
        let ob = match q.meta {
            Metadata::ExpBias { bias, .. } => bias,
            _ => unreachable!(),
        };
        // Drive the bias to the register's positive limit: the window tops
        // out far beyond f32, so values saturate at ±f32::MAX, never ±Inf.
        let corrupted = Metadata::ExpBias { bias: 127, bias_bits: 8 };
        let y = afp.apply_metadata(&q.values, &q.meta, &corrupted);
        assert!(ob < 127);
        for (i, v) in y.as_slice().iter().enumerate() {
            assert!(v.is_finite(), "element {i}: {v}");
            assert_eq!(v.abs(), f32::MAX, "element {i}: {v}");
        }
    }
}
