//! IEEE P3109-style 8-bit floating-point profiles.
//!
//! A P3109 profile is an `[s | e | m]` byte (`1 + e + m == 8`) that
//! reclaims IEEE's reserved codes: the all-ones exponent is an ordinary
//! binade, there are **no Inf codes** (conversions saturate to the format
//! max), and the single NaN lives at the would-be `−0` encoding
//! (`0x80`) — so there is no negative zero either. Denormals are
//! supported. This follows the working-group drafts' saturating,
//! Inf-free profile shape; DESIGN.md §14 records where we pin down
//! details the draft leaves open.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::fp::{FpParams, SpecialRule};
use crate::metadata::Metadata;
use tensor::Tensor;

/// An 8-bit saturating P3109-style float (`p3109:eXmY`).
///
/// # Examples
///
/// ```
/// use formats::{NumberFormat, P3109};
/// let f = P3109::new(4, 3);
/// assert_eq!(f.name(), "p3109_e4m3");
/// // All-ones exponent is a normal binade: max is 2^8·1.875 = 480,
/// // not IEEE e4m3's 240 or OCP's 448.
/// assert_eq!(f.dynamic_range().max_abs, 480.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P3109 {
    params: FpParams,
}

impl P3109 {
    /// Creates an 8-bit P3109 profile.
    ///
    /// # Panics
    ///
    /// Panics unless `1 + exp_bits + man_bits == 8` with `exp_bits ∈ 2..=6`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Self {
        assert!(
            1 + exp_bits + man_bits == 8 && (2..=6).contains(&exp_bits),
            "P3109 profiles are 8-bit: need 1+e+m == 8 with e in 2..=6, got e{exp_bits}m{man_bits}"
        );
        P3109 { params: FpParams::new(exp_bits, man_bits, true, SpecialRule::SingleNan) }
    }

    /// Exponent width in bits.
    pub fn exp_bits(&self) -> u32 {
        self.params.e
    }

    /// Mantissa width in bits.
    pub fn man_bits(&self) -> u32 {
        self.params.m
    }
}

impl NumberFormat for P3109 {
    fn name(&self) -> String {
        format!("p3109_e{}m{}", self.params.e, self.params.m)
    }

    fn canonical_spec(&self) -> String {
        format!("p3109:e{}m{}", self.params.e, self.params.m)
    }

    fn bit_width(&self) -> u32 {
        8
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let values = crate::chunk::map_chunked(t, self.params.f32_quantizer());
        Quantized { values, meta: Metadata::None }
    }

    fn elementwise_quantizer(&self) -> Option<Box<dyn Fn(f32) -> f32 + Send + Sync + '_>> {
        Some(Box::new(self.params.f32_quantizer()))
    }

    fn real_to_format(&self, value: f32, _meta: &Metadata, _index: usize) -> Bitstring {
        Bitstring::from_u64(self.params.encode(value as f64), 8)
    }

    fn format_to_real(&self, bits: &Bitstring, _meta: &Metadata, _index: usize) -> f32 {
        assert_eq!(bits.len(), 8, "P3109 codes are 8-bit");
        self.params.decode(bits.to_u64()) as f32
    }

    fn dynamic_range(&self) -> DynamicRange {
        DynamicRange { max_abs: self.params.max_value(), min_abs: self.params.min_denormal() }
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        Some(1..1 + self.params.e as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaimed_top_binade_extends_the_range() {
        // e4m3: IEEE max 240, OCP-fn max 448, P3109 max 480 (= 2^8 · 1.875).
        assert_eq!(P3109::new(4, 3).dynamic_range().max_abs, 480.0);
        // e5m2: 2^16 · 1.75.
        assert_eq!(P3109::new(5, 2).dynamic_range().max_abs, 114688.0);
    }

    #[test]
    fn saturates_instead_of_round_tripping_through_infinity() {
        let f = P3109::new(4, 3);
        let q = f.real_to_format_tensor(&Tensor::from_vec(vec![1e30, -1e30, f32::INFINITY], [3]));
        assert_eq!(q.values.as_slice(), &[480.0, -480.0, 480.0]);
        let bits = f.real_to_format(f32::INFINITY, &Metadata::None, 0);
        assert_eq!(f.format_to_real(&bits, &Metadata::None, 0), 480.0);
    }

    #[test]
    fn single_nan_and_no_negative_zero() {
        let f = P3109::new(4, 3);
        assert!(f.format_to_real(&Bitstring::from_u64(0x80, 8), &Metadata::None, 0).is_nan());
        assert_eq!(f.real_to_format(f32::NAN, &Metadata::None, 0).to_u64(), 0x80);
        let qz = f.quantize_value(-0.0);
        assert!(qz == 0.0 && !qz.is_sign_negative(), "P3109 has no −0 code");
        for code in 0..256u64 {
            if code == 0x80 {
                continue;
            }
            let v = f.format_to_real(&Bitstring::from_u64(code, 8), &Metadata::None, 0);
            assert!(v.is_finite(), "code {code:#x} decodes to {v}");
        }
    }

    #[test]
    fn all_profiles_roundtrip_all_codes() {
        for (e, m) in [(2, 5), (3, 4), (4, 3), (5, 2), (6, 1)] {
            let f = P3109::new(e, m);
            for code in 0..256u64 {
                let v = f.format_to_real(&Bitstring::from_u64(code, 8), &Metadata::None, 0);
                let v2 =
                    f.format_to_real(&f.real_to_format(v, &Metadata::None, 0), &Metadata::None, 0);
                let ok = v.to_bits() == v2.to_bits() || (v.is_nan() && v2.is_nan());
                assert!(ok, "e{e}m{m} code {code:#x}: {v} re-decodes as {v2}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "8-bit")]
    fn non_byte_profiles_panic() {
        P3109::new(4, 4);
    }
}
