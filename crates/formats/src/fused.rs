//! Fused single-pass quantise→dequantise round-trips.
//!
//! The emulation hook's steady state is `real_to_format_tensor` (allocate
//! a `Quantized`, map every element) followed by `format_to_real_tensor`
//! (for metadata-free formats: clone the values back out) — two full
//! tensor traversals and two allocations per hooked layer output, per
//! trial. For formats exposing
//! [`NumberFormat::elementwise_quantizer`] the whole round-trip is one
//! pure elementwise function, so [`fused_roundtrip`] runs it in a single
//! chunk-parallel pass: one allocation, one traversal, bit-identical
//! output by construction (the quantizer contract *is* the two-pass
//! round-trip).

use std::sync::OnceLock;
use std::time::Instant;

use crate::format::NumberFormat;
use tensor::Tensor;

fn fused_ns() -> &'static trace::Metric {
    static METRIC: OnceLock<&'static trace::Metric> = OnceLock::new();
    METRIC.get_or_init(|| trace::histogram(trace::names::PACK_FUSED_QUANTIZE_NS))
}

/// Runs `format`'s quantise→dequantise round-trip over `t` in one fused
/// chunk-parallel pass, or returns `None` when the format has no
/// elementwise quantizer (metadata-bearing formats) and the caller must
/// take the two-pass `real_to_format_tensor` → `format_to_real_tensor`
/// route.
///
/// Bit-identical to the two-pass route by the
/// [`NumberFormat::elementwise_quantizer`] contract, and thread-count
/// invariant like every chunked map. Records `pack.fused_quantize_ns`
/// per pass.
pub fn fused_roundtrip(format: &dyn NumberFormat, t: &Tensor) -> Option<Tensor> {
    let f = format.elementwise_quantizer()?;
    let timing = trace::recording();
    let t0 = timing.then(Instant::now);
    let out = crate::chunk::map_chunked(t, f);
    if let Some(t0) = t0 {
        fused_ns().record(t0.elapsed().as_nanos() as u64);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedPoint, FloatingPoint, GoldenFloat, IntQuant, MxElem, MxFloat, Posit, P3109};
    use tensor::parallel::with_threads;

    fn ramp() -> Tensor {
        let mut v: Vec<f32> =
            (0..5000).map(|i| (i as f32 - 2500.0) * 0.013 + 1.0 / (i as f32 + 1.0)).collect();
        v.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e30]);
        let n = v.len();
        Tensor::from_vec(v, [n])
    }

    fn assert_matches_two_pass(format: &dyn NumberFormat) {
        let t = ramp();
        let two_pass = format.format_to_real_tensor(&format.real_to_format_tensor(&t));
        for threads in [1usize, 4] {
            let _g = with_threads(threads);
            let fused = fused_roundtrip(format, &t).unwrap_or_else(|| {
                panic!("{} should expose an elementwise quantizer", format.name())
            });
            for (i, (a, b)) in fused.as_slice().iter().zip(two_pass.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{} t={threads} elem {i}: fused {a} vs two-pass {b}",
                    format.name()
                );
            }
        }
    }

    #[test]
    fn fused_matches_two_pass_for_every_elementwise_family() {
        assert_matches_two_pass(&FloatingPoint::fp8_e4m3());
        assert_matches_two_pass(&FloatingPoint::bfloat16());
        assert_matches_two_pass(&FixedPoint::new(3, 4));
        assert_matches_two_pass(&Posit::new(8, 0));
        assert_matches_two_pass(&P3109::new(4, 3));
        assert_matches_two_pass(&GoldenFloat::new(16));
    }

    #[test]
    fn metadata_formats_fall_back_to_two_pass() {
        let t = ramp();
        assert!(fused_roundtrip(&IntQuant::new(8), &t).is_none(), "INT derives a scale");
        let mx = MxFloat::new(MxElem::parse("fp8e4m3").expect("known elem"), 32);
        assert!(fused_roundtrip(&mx, &t).is_none(), "MX derives block scales");
    }
}
