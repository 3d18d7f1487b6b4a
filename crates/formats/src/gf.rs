//! GoldenFloat: golden-ratio static exponent/mantissa splits.
//!
//! The GoldenFloat GF-N family fixes the exponent width of an N-bit float
//! at `round(N / φ²)` (φ the golden ratio, φ² ≈ 2.618) and gives the rest
//! to the mantissa — a single rule that reproduces several hand-tuned
//! splits (GF16 = e6m9 is exactly DLFloat16). Arithmetic-wise a
//! GoldenFloat *is* the corresponding [`FloatingPoint`]; the wrapper
//! exists so the `gf:N` spec is addressable from the CLI/DSE, and its
//! [`NumberFormat::canonical_spec`] deliberately aliases to the `fp:eXmY`
//! identity: it names the format by what it computes, and that is the
//! equivalent FP format.
//!
//! Intentional deviation: GF32's φ-split is e12m19, but our f32-fabric
//! `FpParams` caps exponents at 11 bits (2^2047 overflows the f64 used
//! for exact reference arithmetic), so GF32 is built as e11m20 — recorded
//! in DESIGN.md §14.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::fp::FloatingPoint;
use crate::metadata::Metadata;
use tensor::Tensor;

/// An N-bit GoldenFloat (`gf:N`): a [`FloatingPoint`] whose e/m split is
/// derived from the golden ratio.
///
/// # Examples
///
/// ```
/// use formats::{GoldenFloat, NumberFormat};
/// let gf16 = GoldenFloat::new(16);
/// assert_eq!(gf16.name(), "gf16_e6m9");
/// // Same arithmetic identity as DLFloat16 — one canonical spec.
/// assert_eq!(gf16.canonical_spec(), "fp:e6m9");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenFloat {
    n: u32,
    inner: FloatingPoint,
}

impl GoldenFloat {
    /// The φ-derived `(exp_bits, man_bits)` split for an N-bit float:
    /// `e = round(N / φ²)` clamped into the fabric's 2..=11 exponent
    /// range, `m = N − 1 − e`.
    pub fn phi_split(n: u32) -> (u32, u32) {
        let phi = (1.0 + 5f64.sqrt()) / 2.0;
        let e = ((n as f64) / (phi * phi)).round() as u32;
        let e = e.clamp(2, 11);
        (e, n - 1 - e)
    }

    /// Creates an N-bit GoldenFloat.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 4..=64`.
    pub fn new(n: u32) -> Self {
        assert!((4..=64).contains(&n), "GoldenFloat width {n} out of range 4..=64");
        let (e, m) = Self::phi_split(n);
        GoldenFloat { n, inner: FloatingPoint::new(e, m) }
    }

    /// Total width in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Exponent width of the split.
    pub fn exp_bits(&self) -> u32 {
        self.inner.exp_bits()
    }

    /// Mantissa width of the split.
    pub fn man_bits(&self) -> u32 {
        self.inner.man_bits()
    }
}

impl NumberFormat for GoldenFloat {
    fn name(&self) -> String {
        format!("gf{}_e{}m{}", self.n, self.inner.exp_bits(), self.inner.man_bits())
    }

    /// Aliases to the equivalent `fp:eXmY` — GoldenFloat quantises
    /// identically to that FloatingPoint, so they share one identity.
    fn canonical_spec(&self) -> String {
        self.inner.canonical_spec()
    }

    fn bit_width(&self) -> u32 {
        self.inner.bit_width()
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        self.inner.real_to_format_tensor(t)
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, index: usize) -> Bitstring {
        self.inner.real_to_format(value, meta, index)
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, index: usize) -> f32 {
        self.inner.format_to_real(bits, meta, index)
    }

    fn dynamic_range(&self) -> DynamicRange {
        self.inner.dynamic_range()
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        self.inner.exponent_field()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_splits() {
        assert_eq!(GoldenFloat::phi_split(8), (3, 4));
        assert_eq!(GoldenFloat::phi_split(16), (6, 9));
        // φ-split would be e12m19; clamped to the fabric's 11-bit cap.
        assert_eq!(GoldenFloat::phi_split(32), (11, 20));
        assert_eq!(GoldenFloat::phi_split(4), (2, 1));
    }

    #[test]
    fn names_and_aliases() {
        assert_eq!(GoldenFloat::new(8).name(), "gf8_e3m4");
        assert_eq!(GoldenFloat::new(8).canonical_spec(), "fp:e3m4");
        assert_eq!(GoldenFloat::new(16).canonical_spec(), "fp:e6m9");
        assert_eq!(GoldenFloat::new(32).canonical_spec(), "fp:e11m20");
        assert_eq!(GoldenFloat::new(32).bit_width(), 32);
    }

    #[test]
    fn lucas_numbers_quantise_exactly() {
        // The GoldenFloat paper's party trick: Lucas numbers (the φ-powers'
        // integer shadows) up to 2^(m+1) are exactly representable.
        let mut lucas = vec![2u64, 1];
        while *lucas.last().unwrap() < 1 << 20 {
            let k = lucas.len();
            lucas.push(lucas[k - 1] + lucas[k - 2]);
        }
        for gf in [GoldenFloat::new(8), GoldenFloat::new(16), GoldenFloat::new(32)] {
            // Exact while the integer fits the significand AND the range
            // (GF8's e3m4 tops out at 15.5, below the 2^(m+1) = 32 bound).
            let limit = (1u64 << (gf.man_bits() + 1)).min(gf.dynamic_range().max_abs as u64);
            for &l in lucas.iter().filter(|&&l| l <= limit) {
                assert_eq!(gf.quantize_value(l as f32), l as f32, "L={l} in {}", gf.name());
            }
        }
    }

    #[test]
    fn matches_equivalent_floating_point_bitwise() {
        let gf = GoldenFloat::new(16);
        let fp = FloatingPoint::dlfloat16();
        let x = Tensor::from_vec((0..512).map(|i| ((i as f32) - 256.0) * 37.77).collect(), [512]);
        let qg = gf.real_to_format_tensor(&x);
        let qf = fp.real_to_format_tensor(&x);
        assert_eq!(qg.values, qf.values);
        assert_eq!(qg.meta, qf.meta);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn silly_widths_panic() {
        GoldenFloat::new(3);
    }
}
