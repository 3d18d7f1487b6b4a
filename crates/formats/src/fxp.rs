//! Fixed point: sign + integer + fraction bits, two's complement, no
//! exponent hardware. The paper's notation `FxP(1, i, f)` maps to
//! [`FixedPoint::new(i, f)`]; the "radix" is the fraction width `f`.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::metadata::Metadata;
use tensor::Tensor;

/// A signed fixed-point format with `int_bits` integer and `frac_bits`
/// fractional bits (plus one sign bit).
///
/// Values are stored as `(1 + int_bits + frac_bits)`-bit two's-complement
/// integers in units of `2^-frac_bits`; out-of-range reals saturate.
///
/// # Examples
///
/// ```
/// use formats::{FixedPoint, NumberFormat};
/// let fxp = FixedPoint::new(3, 4); // FxP(1,3,4)
/// assert_eq!(fxp.bit_width(), 8);
/// assert_eq!(fxp.quantize_scalar(1.06), 1.0625);    // nearest 1/16 step
/// assert_eq!(fxp.quantize_scalar(100.0), 7.9375);   // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    int_bits: u32,
    frac_bits: u32,
}

impl FixedPoint {
    /// Creates an `FxP(1, int_bits, frac_bits)` format.
    ///
    /// # Panics
    ///
    /// Panics if the total width exceeds 63 bits or is zero.
    pub fn new(int_bits: u32, frac_bits: u32) -> Self {
        let total = 1 + int_bits + frac_bits;
        assert!((2..=63).contains(&total), "fixed-point width {total} out of range 2..=63");
        FixedPoint { int_bits, frac_bits }
    }

    /// Integer field width.
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Fraction field width (the format's radix).
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    fn step(&self) -> f64 {
        crate::fp::exp2(-(self.frac_bits as i64))
    }

    fn raw_max(&self) -> i64 {
        (1i64 << (self.int_bits + self.frac_bits)) - 1
    }

    fn raw_min(&self) -> i64 {
        -(1i64 << (self.int_bits + self.frac_bits))
    }

    fn to_raw(self, x: f64) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let q = crate::fp::round_ties_even(x / self.step());
        if q >= self.raw_max() as f64 {
            self.raw_max()
        } else if q <= self.raw_min() as f64 {
            self.raw_min()
        } else {
            q as i64
        }
    }

    /// Quantises a single value.
    pub fn quantize_scalar(&self, x: f32) -> f32 {
        (self.to_raw(x as f64) as f64 * self.step()) as f32
    }
}

impl NumberFormat for FixedPoint {
    fn name(&self) -> String {
        format!("fxp_1_{}_{}", self.int_bits, self.frac_bits)
    }

    fn canonical_spec(&self) -> String {
        format!("fxp:1:{}:{}", self.int_bits, self.frac_bits)
    }

    fn bit_width(&self) -> u32 {
        1 + self.int_bits + self.frac_bits
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let this = *self;
        let values = crate::chunk::map_chunked(t, move |x| this.quantize_scalar(x));
        Quantized { values, meta: Metadata::None }
    }

    fn real_to_format(&self, value: f32, _meta: &Metadata, _index: usize) -> Bitstring {
        let raw = self.to_raw(value as f64);
        let w = self.bit_width() as usize;
        Bitstring::from_u64((raw as u64) & ((1u64 << w) - 1), w)
    }

    fn format_to_real(&self, bits: &Bitstring, _meta: &Metadata, _index: usize) -> f32 {
        (bits.to_i64() as f64 * self.step()) as f32
    }

    fn dynamic_range(&self) -> DynamicRange {
        DynamicRange { max_abs: (1i64 << self.int_bits) as f64, min_abs: self.step() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_steps() {
        let f = FixedPoint::new(3, 2); // step 0.25
        assert_eq!(f.quantize_scalar(1.1), 1.0);
        assert_eq!(f.quantize_scalar(1.2), 1.25);
        assert_eq!(f.quantize_scalar(-0.3), -0.25);
        assert_eq!(f.quantize_scalar(0.0), 0.0);
    }

    #[test]
    fn saturation() {
        let f = FixedPoint::new(3, 2);
        assert_eq!(f.quantize_scalar(100.0), 7.75); // (2^5 - 1) * 0.25
        assert_eq!(f.quantize_scalar(-100.0), -8.0); // -2^5 * 0.25
    }

    #[test]
    fn bitstring_roundtrip() {
        let f = FixedPoint::new(3, 4);
        for &x in &[0.0f32, 1.0, -1.0, 3.9375, -4.0, 0.0625, -0.0625, 7.9375] {
            let bits = f.real_to_format(x, &Metadata::None, 0);
            assert_eq!(bits.len(), 8);
            let v = f.format_to_real(&bits, &Metadata::None, 0);
            assert_eq!(v, f.quantize_scalar(x), "roundtrip failed for {x}");
        }
    }

    #[test]
    fn sign_bit_flip_on_bitstring() {
        let f = FixedPoint::new(3, 4);
        let bits = f.real_to_format(1.0, &Metadata::None, 0);
        // Flipping the MSB of two's complement subtracts 2^(w-1) steps.
        let v = f.format_to_real(&bits.with_flip(0), &Metadata::None, 0);
        assert_eq!(v, 1.0 - 8.0);
    }

    #[test]
    fn paper_fxp_1_15_16_range() {
        let f = FixedPoint::new(15, 16);
        let r = f.dynamic_range();
        assert_eq!(r.max_abs, 32768.0);
        assert!((r.min_abs - 1.525_878_9e-5).abs() < 1e-12);
        assert!((r.db() - 186.64).abs() < 0.01, "dB {}", r.db());
    }

    #[test]
    fn quantize_idempotent() {
        let f = FixedPoint::new(4, 4);
        for &x in &[0.3f32, -7.9, 100.0, 0.001] {
            let q = f.quantize_scalar(x);
            assert_eq!(f.quantize_scalar(q), q);
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        // Law `round-trip`: decode→encode→decode is a bitwise fixpoint for
        // every code (the FxP analogue of
        // fp.rs::encode_decode_roundtrip_all_codes). Two's complement is
        // asymmetric: the most-negative pattern −2^(i+f) is a real code and
        // must round-trip unchanged, unlike INT's symmetric grid.
        for (i, fr) in [(3u32, 4u32), (7, 8)] {
            let f = FixedPoint::new(i, fr);
            let w = f.bit_width() as usize;
            for code in 0..(1u64 << w) {
                let b1 = Bitstring::from_u64(code, w);
                let v1 = f.format_to_real(&b1, &Metadata::None, 0);
                let b2 = f.real_to_format(v1, &Metadata::None, 0);
                assert_eq!(b1.to_u64(), b2.to_u64(), "fxp(1,{i},{fr}) code {code:#x}: {v1}");
                let v2 = f.format_to_real(&b2, &Metadata::None, 0);
                assert_eq!(v1.to_bits(), v2.to_bits(), "fxp(1,{i},{fr}) code {code:#x}");
            }
        }
    }

    #[test]
    fn tensor_path_matches_scalar() {
        let f = FixedPoint::new(2, 5);
        let x = Tensor::from_vec(vec![0.11, -3.99, 2.0, 8.0], [4]);
        let q = f.real_to_format_tensor(&x);
        for (i, &xv) in x.as_slice().iter().enumerate() {
            assert_eq!(q.values.as_slice()[i], f.quantize_scalar(xv));
        }
    }
}
