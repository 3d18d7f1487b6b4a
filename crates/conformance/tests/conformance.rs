//! Integration conformance suite: the exhaustive oracle over the whole
//! standard zoo, golden-vector diffs, and the proptest differential sweeps
//! (fast vs reference quantiser, tensor vs scalar path) that extend
//! coverage to the >16-bit formats the oracle cannot enumerate.

use conformance::oracle::check_format;
use conformance::{standard_zoo, vectors};
use formats::{FloatingPoint, FormatSpec, GoldenFloat};
use proptest::prelude::*;
use tensor::Tensor;

/// The tentpole acceptance check: every format in the standard zoo passes
/// every applicable law with zero violations, exhaustively for data widths
/// ≤ 16 bits.
#[test]
fn standard_zoo_has_zero_violations() {
    let mut exhaustive = 0;
    for spec in standard_zoo() {
        let report = check_format(&spec);
        assert!(
            report.violations.is_empty(),
            "{spec}: {} violation(s), first: {}",
            report.violations.len(),
            report.violations[0]
        );
        if report.exhaustive {
            exhaustive += 1;
            assert!(report.codes_checked >= 1 << report.bit_width, "{spec}");
        }
    }
    assert!(exhaustive >= 25, "most zoo formats must be enumerable");
    assert!(standard_zoo().len() >= 30, "the zoo must span the microscaling-era families");
}

/// Golden vectors stay bit-identical to the checked-in files.
#[test]
fn golden_vectors_are_stable() {
    for spec in vectors::golden_specs() {
        if let Err(e) = vectors::diff(&spec) {
            panic!("{e}");
        }
    }
}

fn zoo_fp_instances() -> Vec<(FormatSpec, FloatingPoint)> {
    standard_zoo()
        .into_iter()
        .filter_map(|spec| match spec {
            FormatSpec::Fp { exp, man, denormals } => {
                Some((spec, FloatingPoint::new(exp, man).with_denormals(denormals)))
            }
            // GoldenFloat is arithmetically the φ-split FloatingPoint, so it
            // joins the fast-vs-reference differential (incl. 32-bit GF32,
            // which the exhaustive oracle skips).
            FormatSpec::Gf { n } => {
                let (e, m) = GoldenFloat::phi_split(n);
                Some((spec, FloatingPoint::new(e, m)))
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Law `fast-slow-agreement`, differentially over arbitrary f32 bit
    /// patterns (every exponent, denormals, ±Inf, NaNs): the bit-twiddle
    /// `f32_quantizer` path must match the f64 reference bitwise for every
    /// FP parameterisation in the zoo — including FP32/TF32, which the
    /// exhaustive oracle skips.
    #[test]
    fn prop_fast_slow_agreement(pattern in 0u64..(1u64 << 32)) {
        let x = f32::from_bits(pattern as u32);
        for (spec, fp) in zoo_fp_instances() {
            let fast = fp.quantize_scalar(x);
            let slow = fp.quantize_reference(x);
            prop_assert!(
                fast.to_bits() == slow.to_bits() || (fast.is_nan() && slow.is_nan()),
                "{spec}: x = {x:e} ({pattern:#010x}): fast {fast:e} vs reference {slow:e}"
            );
        }
    }

    /// Law `tensor-scalar-agreement`, differentially over random finite
    /// tensors: Method 1 must agree element-wise (bitwise) with the
    /// Method 3 ∘ Method 4 composition under the metadata Method 1
    /// derived — for every format in the zoo.
    #[test]
    fn prop_tensor_scalar_agreement(values in prop::collection::vec(-3e4f32..3e4, 1..24)) {
        let t = Tensor::from_vec(values.clone(), [values.len()]);
        for spec in standard_zoo() {
            let f = spec.build();
            let q = f.real_to_format_tensor(&t);
            for (i, &x) in values.iter().enumerate() {
                let scalar =
                    f.format_to_real(&f.real_to_format(x, &q.meta, i), &q.meta, i);
                let tensor = q.values.as_slice()[i];
                prop_assert!(
                    scalar.to_bits() == tensor.to_bits()
                        || (scalar.is_nan() && tensor.is_nan()),
                    "{spec}: element {i} ({x}): tensor {tensor} vs scalar {scalar}"
                );
            }
        }
    }

    /// Wide-format spot enumeration: for >16-bit formats the quantiser must
    /// still be a projection (idempotent per element) on random inputs.
    #[test]
    fn prop_wide_formats_project(values in prop::collection::vec(-1e30f32..1e30, 1..16)) {
        let t = Tensor::from_vec(values.clone(), [values.len()]);
        for spec in standard_zoo() {
            if spec.build().bit_width() <= 16 {
                continue;
            }
            let f = spec.build();
            let q1 = f.real_to_format_tensor(&t);
            let q2 = f.real_to_format_tensor(&q1.values);
            for (a, b) in q1.values.as_slice().iter().zip(q2.values.as_slice()) {
                prop_assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{spec}: {a} requantises to {b}"
                );
            }
        }
    }
}
