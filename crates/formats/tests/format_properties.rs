//! Property-based tests sweeping *random format configurations*, not just
//! random inputs: every (e, m) split, fixed-point geometry, INT width,
//! BFP block size, and posit size must uphold the API contract.

use formats::{
    AdaptivFloat, BlockFloatingPoint, FixedPoint, FloatingPoint, FormatSpec, GoldenFloat, IntQuant,
    Metadata, MxElem, MxFloat, NumberFormat, Posit, P3109,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tensor::Tensor;

/// Strategy over the five OCP MX element types.
fn mx_elem() -> impl Strategy<Value = MxElem> {
    proptest::sample::select(MxElem::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any FP(e,m) saturates exactly at its advertised dynamic-range max.
    #[test]
    fn fp_saturates_at_advertised_max(e in 2u32..=8, m in 1u32..=23) {
        let fp = FloatingPoint::new(e, m);
        let max = fp.dynamic_range().max_abs as f32;
        prop_assert_eq!(fp.quantize_scalar(max * 4.0), max);
        prop_assert_eq!(fp.quantize_scalar(f32::MAX), max);
        prop_assert_eq!(fp.quantize_scalar(-f32::MAX), -max);
        // The max itself is representable (a fixed point of quantisation).
        prop_assert_eq!(fp.quantize_scalar(max), max);
    }

    /// FP quantisation error of an in-range value is bounded by half an
    /// ulp of its binade: |q(x) − x| ≤ 2^(e(x) − m − 1).
    #[test]
    fn fp_error_bounded_by_half_ulp(e in 2u32..=8, m in 1u32..=23, v in 0.01f32..100.0) {
        let fp = FloatingPoint::new(e, m);
        let max = fp.dynamic_range().max_abs as f32;
        prop_assume!(v < max);
        let min_normal = (2.0f64).powi(2 - (1i32 << (e - 1))) as f32;
        prop_assume!(v >= min_normal);
        let q = fp.quantize_scalar(v);
        let ulp = (2.0f32).powi(v.log2().floor() as i32 - m as i32);
        prop_assert!((q - v).abs() <= ulp * 0.5 + f32::EPSILON, "e{e}m{m}: q({v}) = {q}");
    }

    /// Fixed-point error is bounded by half a step for in-range values.
    #[test]
    fn fxp_error_bounded_by_half_step(i in 1u32..=15, f in 1u32..=16, v in -100.0f32..100.0) {
        let fxp = FixedPoint::new(i, f);
        prop_assume!(v.abs() < fxp.dynamic_range().max_abs as f32 - 1.0);
        let q = fxp.quantize_scalar(v);
        let step = (2.0f32).powi(-(f as i32));
        prop_assert!((q - v).abs() <= step * 0.5 + f32::EPSILON);
    }

    /// INT round-trip error is bounded by half a scale step; codes stay
    /// within ±qmax.
    #[test]
    fn int_error_bounded(bits in 2u32..=16, values in prop::collection::vec(-50.0f32..50.0, 2..12)) {
        let int = IntQuant::new(bits);
        let x = Tensor::from_vec(values.clone(), [values.len()]);
        let q = int.real_to_format_tensor(&x);
        let Metadata::Scale(scale) = q.meta else { panic!("INT must emit scale") };
        for (&orig, &quant) in values.iter().zip(q.values.as_slice()) {
            prop_assert!((quant - orig).abs() <= scale * 0.5 + 1e-6,
                "int{bits}: {orig} -> {quant} (scale {scale})");
        }
    }

    /// BFP never increases a block's max magnitude, and never produces a
    /// value outside ±(block max rounded up to the format grid).
    #[test]
    fn bfp_respects_block_bounds(
        e in 2u32..=8,
        m in 1u32..=10,
        block in 1usize..=16,
        values in prop::collection::vec(-1000.0f32..1000.0, 4..32),
    ) {
        let bfp = BlockFloatingPoint::new(e, m, block);
        let x = Tensor::from_vec(values.clone(), [values.len()]);
        let q = bfp.real_to_format_tensor(&x);
        for (chunk_in, chunk_out) in values.chunks(block).zip(q.values.as_slice().chunks(block)) {
            let in_max = chunk_in.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let out_max = chunk_out.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            // Rounding can push the max up by at most one step ≈ in_max/2^(m-1).
            prop_assert!(out_max <= in_max * (1.0 + (2.0f32).powi(1 - (m as i32))) + 1e-6,
                "e{e}m{m}b{block}: block max grew {in_max} -> {out_max}");
        }
    }

    /// AFP with a wide-enough bias register always captures the tensor's
    /// largest magnitude with bounded relative error.
    #[test]
    fn afp_top_value_relative_error(e in 2u32..=8, m in 2u32..=10, top in 0.001f32..1000.0) {
        let afp = AdaptivFloat::new(e, m).with_bias_bits(12);
        let x = Tensor::from_vec(vec![top, -top / 2.0], [2]);
        let q = afp.real_to_format_tensor(&x);
        let rel = (q.values.as_slice()[0] - top).abs() / top;
        prop_assert!(rel <= (2.0f32).powi(-(m as i32)),
            "afp e{e}m{m}: top {top} err {rel}");
    }

    /// Posit quantisation is monotone and saturating for every (n, es).
    #[test]
    fn posit_monotone_and_saturating(n in 3u32..=12, es in 0u32..=2, a in -100.0f32..100.0, b in -100.0f32..100.0) {
        let p = Posit::new(n, es);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(p.quantize_scalar(lo) <= p.quantize_scalar(hi));
        let maxpos = p.maxpos() as f32;
        prop_assert_eq!(p.quantize_scalar(1e30), maxpos);
    }

    /// MX quantisation never escapes the block's scaled element range: for
    /// every element type and block size, |q(x)| ≤ elem_max × 2^scale, and
    /// requantising is the identity (idempotence under random geometry).
    #[test]
    fn mx_respects_block_bounds_and_projects(
        elem in mx_elem(),
        block in 1usize..=48,
        values in prop::collection::vec(-1e6f32..1e6, 4..40),
    ) {
        let mx = MxFloat::new(elem, block);
        let x = Tensor::from_vec(values.clone(), [values.len()]);
        let q = mx.real_to_format_tensor(&x);
        for (chunk_in, chunk_out) in values.chunks(block).zip(q.values.as_slice().chunks(block)) {
            let in_max = chunk_in.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let out_max = chunk_out.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            // The shared scale targets the block max; rounding within the
            // element grid can overshoot by at most one element ulp.
            prop_assert!(out_max <= in_max * 1.25 + 1e-6,
                "{}: block max grew {in_max} -> {out_max}", mx.name());
        }
        let q2 = mx.real_to_format_tensor(&q.values);
        prop_assert_eq!(q.meta.clone(), q2.meta, "{}: scale codes drift", mx.name());
        for (a, b) in q.values.as_slice().iter().zip(q2.values.as_slice()) {
            prop_assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{}: {a} requantises to {b}", mx.name());
        }
    }

    /// P3109 saturates at its advertised max — never through ±Inf — and
    /// every quantised value round-trips bitwise through its 8-bit code.
    #[test]
    fn p3109_saturates_and_roundtrips(e in 2u32..=6, v in -2e5f32..2e5) {
        let p = P3109::new(e, 7 - e);
        let max = p.dynamic_range().max_abs as f32;
        prop_assert_eq!(p.quantize_value(f32::MAX), max);
        prop_assert_eq!(p.quantize_value(f32::INFINITY), max);
        prop_assert_eq!(p.quantize_value(f32::NEG_INFINITY), -max);
        let q = p.quantize_value(v);
        prop_assert!(q.is_finite() && q.abs() <= max);
        let rt = p.format_to_real(&p.real_to_format(q, &Metadata::None, 0), &Metadata::None, 0);
        prop_assert_eq!(rt.to_bits(), q.to_bits(), "{}: {q} re-decodes as {rt}", p.name());
    }

    /// Differential: the metadata-free narrow formats agree across all
    /// three paths — direct quantise, encode → Method 4 decode, and the
    /// chunk-parallel tensor path — for random tensors.
    #[test]
    fn narrow_formats_agree_quantise_vs_decode_vs_chunked(
        values in prop::collection::vec(-500.0f32..500.0, 1..24),
    ) {
        let formats: Vec<Box<dyn NumberFormat>> = vec![
            Box::new(P3109::new(4, 3)),
            Box::new(P3109::new(5, 2)),
            Box::new(GoldenFloat::new(8)),
            Box::new(GoldenFloat::new(16)),
        ];
        let x = Tensor::from_vec(values.clone(), [values.len()]);
        for f in formats {
            let q = f.real_to_format_tensor(&x);
            for (i, &v) in values.iter().enumerate() {
                let direct = f.quantize_value(v);
                let bits = f.real_to_format(v, &Metadata::None, i);
                let decoded = f.format_to_real(&bits, &Metadata::None, i);
                let chunked = q.values.as_slice()[i];
                prop_assert!(direct.to_bits() == decoded.to_bits()
                        || (direct.is_nan() && decoded.is_nan()),
                    "{}: {v}: direct {direct} vs decode {decoded}", f.name());
                prop_assert!(direct.to_bits() == chunked.to_bits()
                        || (direct.is_nan() && chunked.is_nan()),
                    "{}: {v}: direct {direct} vs tensor {chunked}", f.name());
            }
        }
    }

    /// GoldenFloat is bitwise the φ-split FloatingPoint on every input.
    #[test]
    fn goldenfloat_matches_its_phi_split_fp(n in proptest::sample::select(vec![8u32, 16, 32]), v in -1e30f32..1e30) {
        let gf = GoldenFloat::new(n);
        let (e, m) = GoldenFloat::phi_split(n);
        let fp = FloatingPoint::new(e, m);
        let a = gf.quantize_value(v);
        let b = fp.quantize_value(v);
        prop_assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "gf{n}: {v}: {a} vs {b}");
    }

    /// Bitstring width always matches `bit_width`, for every family and
    /// every value.
    #[test]
    fn bit_images_have_declared_width(v in -1000.0f32..1000.0) {
        let formats: Vec<Box<dyn NumberFormat>> = vec![
            Box::new(FloatingPoint::new(3, 6)),
            Box::new(FixedPoint::new(5, 7)),
            Box::new(IntQuant::new(11)),
            Box::new(BlockFloatingPoint::new(4, 6, 3)),
            Box::new(AdaptivFloat::new(5, 4)),
            Box::new(Posit::new(9, 1)),
            Box::new(MxFloat::new(MxElem::Fp6E3m2, 4)),
            Box::new(P3109::new(4, 3)),
            Box::new(GoldenFloat::new(8)),
        ];
        for f in formats {
            let x = Tensor::from_vec(vec![v, 1.0], [2]);
            let q = f.real_to_format_tensor(&x);
            let bits = f.real_to_format(q.values.as_slice()[0], &q.meta, 0);
            prop_assert_eq!(bits.len() as u32, f.bit_width(), "{}", f.name());
        }
    }

    /// The tensor path (Method 1) and the scalar path (Method 3 → Method 4)
    /// agree for every family: decoding an element's bit image returns the
    /// quantised value.
    #[test]
    fn tensor_and_scalar_paths_agree(values in prop::collection::vec(-100.0f32..100.0, 3..10)) {
        let formats: Vec<Box<dyn NumberFormat>> = vec![
            Box::new(FloatingPoint::new(4, 5)),
            Box::new(FixedPoint::new(4, 6)),
            Box::new(IntQuant::new(9)),
            Box::new(BlockFloatingPoint::new(5, 4, 4)),
            Box::new(AdaptivFloat::new(4, 4)),
            Box::new(Posit::new(10, 1)),
            Box::new(MxFloat::new(MxElem::Fp8E5m2, 4)),
            Box::new(P3109::new(3, 4)),
            Box::new(GoldenFloat::new(16)),
        ];
        let x = Tensor::from_vec(values.clone(), [values.len()]);
        for f in formats {
            let q = f.real_to_format_tensor(&x);
            for i in 0..values.len() {
                let v = q.values.as_slice()[i];
                let roundtrip = f.format_to_real(&f.real_to_format(v, &q.meta, i), &q.meta, i);
                let tol = v.abs() * 1e-5 + 1e-7;
                prop_assert!((roundtrip - v).abs() <= tol,
                    "{}: element {i} {v} -> {roundtrip}", f.name());
            }
        }
    }
}

/// Spec templates for every family; `{a}`, `{b}`, `{c}` take the numeric
/// fields and `{elem}` an MX element token.
const SPEC_TEMPLATES: [&str; 11] = [
    "fp:e{a}m{b}",
    "fp:e{a}m{b}:nodn",
    "afp:e{a}m{b}",
    "int:{a}",
    "bfp:e{a}m{b}:b{c}",
    "bfp:e{a}m{b}:tensor",
    "posit:{a}:{b}",
    "fxp:1:{a}:{b}",
    "mx:{elem}:b{c}",
    "p3109:e{a}m{b}",
    "gf:{a}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The spec grammar is total: every string either fails to parse
    /// with a `ParseFormatError` or builds without panicking, and the
    /// built format's `canonical_spec` parses back to the same format.
    #[test]
    fn parsed_specs_always_build(
        template in proptest::sample::select(SPEC_TEMPLATES.to_vec()),
        a in 0u32..=70,
        b in 0u32..=70,
        c in 0u32..=70,
        elem in mx_elem(),
    ) {
        let s = template
            .replace("{a}", &a.to_string())
            .replace("{b}", &b.to_string())
            .replace("{c}", &c.to_string())
            .replace("{elem}", elem.token());
        let Ok(spec) = s.parse::<FormatSpec>() else { return Ok(()) };
        let built = catch_unwind(AssertUnwindSafe(|| spec.build()));
        prop_assert!(built.is_ok(), "`{s}` parsed but build() panicked");
        let canon = built.unwrap().canonical_spec();
        let reparsed = canon.parse::<FormatSpec>();
        prop_assert!(reparsed.is_ok(), "`{s}`: canonical spec `{canon}` does not parse");
        prop_assert_eq!(reparsed.unwrap().build().canonical_spec(), canon);
    }
}
