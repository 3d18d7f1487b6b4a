//! The GoldenEye number-format API.
//!
//! The paper defines four pure-virtual methods every number system must
//! implement (§III-B):
//!
//! 1. `real_to_format_tensor(tensor)` — fast, tensor-wide quantisation;
//! 2. `format_to_real_tensor(tensor)` — the reverse (default: a cast);
//! 3. `real_to_format(value)` — scalar → bitstring, for error injection;
//! 4. `format_to_real(bitstring)` — bitstring → scalar.
//!
//! [`NumberFormat`] is the Rust rendering of that contract, extended with
//! the paper's hardware-metadata support: formats that keep tensor-level
//! state in registers (INT scale, BFP shared exponents, AFP bias) expose it
//! through [`Metadata`] so campaigns can flip its bits too.

use crate::bitstring::Bitstring;
use crate::metadata::Metadata;
use tensor::Tensor;

/// A tensor quantised into a number format.
///
/// `values` holds each element's numeric value cast back to the compute
/// fabric's f32 (the paper's "write the number back at the nearest value in
/// the HW-supported number system"); `meta` holds the hardware state that a
/// real accelerator would keep in dedicated registers.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Element values, already rounded to the format, in f32.
    pub values: Tensor,
    /// Hardware metadata extracted during conversion.
    pub meta: Metadata,
}

/// Dynamic range of a format (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicRange {
    /// Largest representable magnitude.
    pub max_abs: f64,
    /// Smallest representable non-zero magnitude.
    pub min_abs: f64,
}

impl DynamicRange {
    /// Range in decibels: `20·log10(max/min)` (the paper's Table I metric).
    ///
    /// Returns `f64::INFINITY` if `min_abs` is zero.
    pub fn db(&self) -> f64 {
        if self.min_abs == 0.0 {
            f64::INFINITY
        } else {
            20.0 * (self.max_abs / self.min_abs).log10()
        }
    }
}

/// A configurable number system, per the paper's §III-B API.
///
/// Implementations must be deterministic: quantising the same tensor twice
/// yields the same values and metadata.
///
/// `Send + Sync` is a supertrait so one format instance (behind an `Arc`)
/// can serve every worker thread of a parallel fault-injection campaign;
/// formats are pure configuration and hold no mutable state.
///
/// # Examples
///
/// ```
/// use formats::{FloatingPoint, NumberFormat};
/// use tensor::Tensor;
/// let fp8 = FloatingPoint::new(4, 3).with_denormals(false);
/// let x = Tensor::from_vec(vec![0.1, 1.0, 300.0], [3]);
/// let q = fp8.real_to_format_tensor(&x);
/// assert_eq!(q.values.as_slice()[2], 240.0); // saturates at FP8 max
/// ```
pub trait NumberFormat: std::fmt::Debug + Send + Sync {
    /// Short human-readable name, e.g. `"fp_e4m3"` or `"bfp_e5m5_b16"`.
    fn name(&self) -> String;

    /// The canonical [`FormatSpec`](crate::FormatSpec) string for this
    /// format — its stable identity.
    ///
    /// Two instances that quantise identically must return the same
    /// string, and two that differ anywhere must not. For every built-in
    /// family the returned string parses back (`spec.parse::<FormatSpec>()`)
    /// to a spec that rebuilds an equivalent format, so shorthand
    /// constructions (`"fp8"`, `"bfloat16"`) and explicit ones
    /// (`"fp:e4m3"`, `"fp:e8m7"`) share one identity.
    ///
    /// The default falls back to [`NumberFormat::name`], which also
    /// encodes every parameter — custom formats outside the spec grammar
    /// stay unique, just not spec-parseable.
    fn canonical_spec(&self) -> String {
        self.name()
    }

    /// Bits per data value (excluding amortised metadata).
    fn bit_width(&self) -> u32;

    /// **Method 1**: quantises an f32 tensor into this format, returning
    /// the rounded values (back in f32) and extracted hardware metadata.
    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized;

    /// **Method 2**: converts a quantised tensor back to the real (f32)
    /// domain. The default implementation is the cast the paper describes.
    fn format_to_real_tensor(&self, q: &Quantized) -> Tensor {
        q.values.clone()
    }

    /// **Method 3**: converts one value into its bit image under this
    /// format. `meta` is the tensor's metadata and `index` the element's
    /// flat position (needed by block-based formats to find their block).
    fn real_to_format(&self, value: f32, meta: &Metadata, index: usize) -> Bitstring;

    /// **Method 4**: decodes a bit image back into a value.
    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, index: usize) -> f32;

    /// The format's representable range (Table I).
    fn dynamic_range(&self) -> DynamicRange;

    /// Quantises one standalone value, deriving any tensor-level metadata
    /// from the value alone.
    ///
    /// For formats without tensor-level metadata (FP, FxP, posit) this is
    /// the plain rounding function and is meaningful for scalar uses such
    /// as accumulator simulation. For metadata-bearing formats the implied
    /// single-element metadata makes this mostly useful for spot checks.
    fn quantize_value(&self, x: f32) -> f32 {
        let q = self.real_to_format_tensor(&Tensor::from_vec(vec![x], [1]));
        q.values.as_slice()[0]
    }

    /// Unused: no format overrides it and the library never calls it.
    /// Every conversion goes through [`Self::real_to_format_tensor`] then
    /// [`Self::format_to_real_tensor`]. Kept only because the benchmark
    /// package still forwards it in its timing wrapper; it goes at the
    /// benchmark's next change.
    fn elementwise_quantizer(&self) -> Option<Box<dyn Fn(f32) -> f32 + Send + Sync + '_>> {
        None
    }

    /// Whether this format carries injectable hardware metadata.
    fn supports_metadata_injection(&self) -> bool {
        false
    }

    /// Bit positions (0 = MSB) of the exponent field within one encoded
    /// data value, when the format has one — `1..1+e` for the
    /// `[sign | exponent | mantissa]` floats. `None` for formats whose
    /// value words carry no per-element exponent (INT, FxP, and BFP, whose
    /// exponent lives in shared metadata). Drives exponent-weighted
    /// importance sampling of bit flips (MPGemmFI's observation that
    /// exponent-bit faults dominate outcome severity).
    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        None
    }

    /// Re-interprets already-quantised `values` under corrupted metadata
    /// `new` (hardware keeps the stored codes; only the register changed).
    ///
    /// The default is the identity, correct for formats without metadata.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `old`/`new` are of the wrong kind.
    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        let _ = (old, new);
        values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_range_db() {
        let r = DynamicRange { max_abs: 100.0, min_abs: 1.0 };
        assert!((r.db() - 40.0).abs() < 1e-9);
        let z = DynamicRange { max_abs: 1.0, min_abs: 0.0 };
        assert!(z.db().is_infinite());
    }
}
