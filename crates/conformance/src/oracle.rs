//! The exhaustive code-space oracle.
//!
//! For every format instance whose data width is ≤ 16 bits the oracle
//! enumerates *all* bit patterns under each metadata context and checks the
//! laws of [`crate::laws`]. Because a single value-bit flip maps one
//! enumerated code to another enumerated code, exhaustive enumeration
//! subsumes the "every value reachable by a single value-bit flip" clause
//! of `range-containment` — no separate flip loop is needed. Metadata-bit
//! flips do need their own loop (`meta-flip-range` / `meta-flip-finite`)
//! because flipped registers leave the enumerated value space.
//!
//! Formats wider than 16 bits (FP32, TF32, FxP(1,15,16)) get the same laws
//! on a logarithmic grid instead of the full code space; the proptest
//! sweeps in `tests/` add randomised coverage.

use crate::laws::{Law, Violation};
use formats::{
    f32_saturate, mul_pow2, FloatingPoint, FormatSpec, GoldenFloat, Metadata, MxElem, NumberFormat,
};
use tensor::Tensor;

/// Per-family law bindings and semantics.
#[derive(Debug, Clone, Copy)]
struct FamilyFlags {
    /// `−0.0` is a distinct code: sign symmetry and round-trips are bitwise.
    signed_zero: bool,
    /// The code space contains explicit ±Inf codes.
    allows_inf: bool,
    /// The code space contains explicit NaN codes.
    allows_nan: bool,
    /// `meta-flip-finite` binds (BFP/AFP; INT's FP32 scale register is
    /// exempt — scale flips to Inf/NaN are faithful hardware behaviour).
    meta_flip_finite: bool,
}

fn flags_for(spec: &FormatSpec) -> FamilyFlags {
    match spec {
        FormatSpec::Fp { .. } => FamilyFlags {
            signed_zero: true,
            allows_inf: true,
            allows_nan: true,
            meta_flip_finite: false,
        },
        FormatSpec::Afp { .. } => FamilyFlags {
            signed_zero: true,
            allows_inf: true,
            allows_nan: true,
            meta_flip_finite: true,
        },
        FormatSpec::Bfp { .. } => FamilyFlags {
            signed_zero: true,
            allows_inf: false,
            allows_nan: false,
            meta_flip_finite: true,
        },
        FormatSpec::Fxp { .. } | FormatSpec::Int { .. } => FamilyFlags {
            signed_zero: false,
            allows_inf: false,
            allows_nan: false,
            meta_flip_finite: false,
        },
        FormatSpec::Posit { .. } => FamilyFlags {
            signed_zero: false,
            allows_inf: false,
            allows_nan: true, // NaR
            meta_flip_finite: false,
        },
        // MX element families differ: FP4/FP6 are all-finite, FP8 e4m3
        // reclaims all specials but one NaN, FP8 e5m2 keeps IEEE specials.
        FormatSpec::Mx { elem, .. } => FamilyFlags {
            signed_zero: true,
            allows_inf: matches!(elem, MxElem::Fp8E5m2),
            allows_nan: matches!(elem, MxElem::Fp8E4m3 | MxElem::Fp8E5m2),
            meta_flip_finite: true,
        },
        // P3109 profiles: one NaN at the sign|zeros code, no Inf, no −0.
        FormatSpec::P3109 { .. } => FamilyFlags {
            signed_zero: false,
            allows_inf: false,
            allows_nan: true,
            meta_flip_finite: false,
        },
        // GoldenFloat is an aliased FloatingPoint; same IEEE-style flags.
        FormatSpec::Gf { .. } => FamilyFlags {
            signed_zero: true,
            allows_inf: true,
            allows_nan: true,
            meta_flip_finite: false,
        },
    }
}

/// A metadata context the oracle checks under: the register state derived
/// from quantising one probe tensor.
pub struct Context {
    /// Human-readable label for reports (e.g. `"scale=0.059"`, `"bias=-5"`).
    pub label: String,
    /// The probe tensor that produced the context.
    pub probe: Tensor,
    /// Its quantisation (values + metadata).
    pub quantized: formats::Quantized,
}

/// The deterministic probe tensors: mixed magnitudes, both signs, both
/// zeros. All values are exact in every binary format's value grid scale,
/// and the second probe shifts everything down 9 binades to exercise
/// negative AFP biases and low BFP exponent codes.
pub fn probe_tensors() -> Vec<Tensor> {
    let base: Vec<f32> = vec![
        7.5, -0.5, 0.25, -0.0, 0.0, 3.75, -2.5, 0.125, 1.0, -0.875, 0.0625, -6.0, 1.5, -0.03125,
        5.25, -4.0, 2.0, -1.25, 0.75, -7.0, 0.375, -0.1875, 6.5, -3.0, 0.09375, -5.5, 4.5, -0.25,
        1.75, -2.25, 3.25, -0.625,
    ];
    let small: Vec<f32> = base.iter().map(|x| x / 512.0).collect();
    vec![Tensor::from_vec(base, [32]), Tensor::from_vec(small, [32])]
}

fn context_label(meta: &Metadata) -> String {
    match meta {
        Metadata::None => "none".to_string(),
        Metadata::Scale(s) => format!("scale={s}"),
        Metadata::SharedExponents { codes, .. } => format!("codes={codes:?}"),
        Metadata::ExpBias { bias, .. } => format!("bias={bias}"),
    }
}

/// Builds the oracle's metadata contexts for a format: one per probe
/// tensor for metadata-bearing families, a single `Metadata::None` context
/// otherwise (the probes still drive idempotence / tensor-scalar checks).
pub fn contexts_for(format: &dyn NumberFormat) -> Vec<Context> {
    probe_tensors()
        .into_iter()
        .map(|probe| {
            let quantized = format.real_to_format_tensor(&probe);
            Context { label: context_label(&quantized.meta), probe, quantized }
        })
        .collect()
}

/// The containment bounds `(max_abs, min_abs)` of `dynamic_range()` scaled
/// into the value domain of a given metadata context. Returns `None` when
/// the context itself is out of the checkable domain (non-finite INT
/// scale — a documented intentional deviation).
fn scaled_bounds(
    spec: &FormatSpec,
    format: &dyn NumberFormat,
    meta: &Metadata,
) -> Option<(f64, f64)> {
    let dr = format.dynamic_range();
    match (spec, meta) {
        (FormatSpec::Int { .. }, Metadata::Scale(s)) => {
            if !s.is_finite() {
                return None;
            }
            let s = (*s as f64).abs();
            Some((dr.max_abs * s, dr.min_abs * s))
        }
        (FormatSpec::Afp { .. }, Metadata::ExpBias { bias, .. }) => {
            Some((mul_pow2(dr.max_abs, *bias as i64), mul_pow2(dr.min_abs, *bias as i64)))
        }
        // BFP's dynamic_range() is the max over all shared-exponent codes,
        // so it bounds every context (and every flipped register).
        _ => Some((dr.max_abs, dr.min_abs)),
    }
}

/// Conformance result for one format instance.
pub struct FormatReport {
    /// The checked spec.
    pub spec: FormatSpec,
    /// `NumberFormat::name()` of the instance.
    pub name: String,
    /// Data bits per value.
    pub bit_width: u32,
    /// Whether the full code space was enumerated (width ≤ 16).
    pub exhaustive: bool,
    /// Codes enumerated across all contexts.
    pub codes_checked: u64,
    /// Individual law checks executed.
    pub checks: u64,
    /// Violations found (empty = conformant).
    pub violations: Vec<Violation>,
}

/// Width above which exhaustive code enumeration is skipped.
pub const EXHAUSTIVE_WIDTH_LIMIT: u32 = 16;

/// Runs every applicable law against one format instance.
pub fn check_format(spec: &FormatSpec) -> FormatReport {
    let format = spec.build();
    let flags = flags_for(spec);
    let bit_width = format.bit_width();
    let exhaustive = bit_width <= EXHAUSTIVE_WIDTH_LIMIT;
    let mut report = FormatReport {
        spec: spec.clone(),
        name: format.name(),
        bit_width,
        exhaustive,
        codes_checked: 0,
        checks: 0,
        violations: Vec::new(),
    };

    for ctx in contexts_for(format.as_ref()) {
        let meta = ctx.quantized.meta.clone();
        // The context-fixed quantiser: Method 3 ∘ Method 4.
        let quantize = |x: f32| -> f32 {
            format.format_to_real(&format.real_to_format(x, &meta, 0), &meta, 0)
        };

        let decoded = if exhaustive {
            check_code_space(spec, format.as_ref(), &flags, &ctx, &mut report)
        } else {
            grid_for_wide_format(format.as_ref())
        };

        check_monotonicity(&quantize, &decoded, spec, &ctx, &mut report);
        check_sign_symmetry(&quantize, &decoded, spec, &flags, &ctx, &mut report);
        check_idempotence(spec, format.as_ref(), &ctx, &mut report);
        check_tensor_scalar(format.as_ref(), spec, &ctx, &mut report);
        check_meta_flips(spec, format.as_ref(), &flags, &ctx, &mut report);
        if let FormatSpec::Fp { exp, man, denormals } = *spec {
            let fp = FloatingPoint::new(exp, man).with_denormals(denormals);
            check_fast_slow(&fp, &decoded, spec, &ctx, &mut report);
        }
        // GoldenFloat delegates to the equivalent FloatingPoint, so it gets
        // the same bit-twiddle-vs-reference cross-check.
        if let FormatSpec::Gf { n } = *spec {
            let (e, m) = GoldenFloat::phi_split(n);
            let fp = FloatingPoint::new(e, m);
            check_fast_slow(&fp, &decoded, spec, &ctx, &mut report);
        }
    }
    report
}

/// Enumerates the full code space under one context: `round-trip` and
/// `range-containment` per code. Returns the sorted distinct finite decoded
/// values (the grid for the monotonicity / symmetry / fast-slow checks).
fn check_code_space(
    spec: &FormatSpec,
    format: &dyn NumberFormat,
    flags: &FamilyFlags,
    ctx: &Context,
    report: &mut FormatReport,
) -> Vec<f32> {
    let w = format.bit_width() as usize;
    let meta = &ctx.quantized.meta;
    let bounds = scaled_bounds(spec, format, meta);
    let mut values: Vec<f32> = Vec::with_capacity(1 << w);
    for code in 0..(1u64 << w) {
        report.codes_checked += 1;
        let bits = formats::Bitstring::from_u64(code, w);
        let v1 = format.format_to_real(&bits, meta, 0);

        // Law `round-trip`.
        report.checks += 1;
        let bits2 = format.real_to_format(v1, meta, 0);
        let v2 = format.format_to_real(&bits2, meta, 0);
        let fixpoint = v1.to_bits() == v2.to_bits() || (v1.is_nan() && v2.is_nan());
        if !fixpoint {
            report.violations.push(Violation {
                law: Law::RoundTrip,
                spec: spec.to_string(),
                context: ctx.label.clone(),
                detail: format!("code {code:#x}: decode {v1} re-decodes as {v2}"),
            });
        }

        // Law `range-containment`. A single value-bit flip maps this code
        // to another enumerated code, so flips are covered by this loop.
        report.checks += 1;
        if v1.is_nan() {
            if !flags.allows_nan {
                report.violations.push(Violation {
                    law: Law::RangeContainment,
                    spec: spec.to_string(),
                    context: ctx.label.clone(),
                    detail: format!("code {code:#x} decodes to NaN but the format has no NaN code"),
                });
            }
        } else if v1.is_infinite() {
            if !flags.allows_inf {
                report.violations.push(Violation {
                    law: Law::RangeContainment,
                    spec: spec.to_string(),
                    context: ctx.label.clone(),
                    detail: format!(
                        "code {code:#x} decodes to {v1} but the format has no Inf code"
                    ),
                });
            }
        } else if let Some((max_abs, min_abs)) = bounds {
            let a = (v1 as f64).abs();
            // 1-ulp slack: decoded values live on the f32 fabric, the
            // declared bounds in f64.
            if a > max_abs * (1.0 + 1e-6) {
                report.violations.push(Violation {
                    law: Law::RangeContainment,
                    spec: spec.to_string(),
                    context: ctx.label.clone(),
                    detail: format!("code {code:#x} decodes to {v1}, beyond max_abs {max_abs}"),
                });
            }
            if a != 0.0 && a < min_abs * (1.0 - 1e-6) {
                report.violations.push(Violation {
                    law: Law::RangeContainment,
                    spec: spec.to_string(),
                    context: ctx.label.clone(),
                    detail: format!("code {code:#x} decodes to {v1}, below min_abs {min_abs}"),
                });
            }
        }

        if v1.is_finite() {
            values.push(v1);
        }
    }
    values.sort_by(f32::total_cmp);
    values.dedup_by(|a, b| a.to_bits() == b.to_bits());
    values
}

/// Check grid for >16-bit formats: every power of two in the format's
/// range × {1, 1.25, 1.5, 1.75}, both signs, plus zeros.
fn grid_for_wide_format(format: &dyn NumberFormat) -> Vec<f32> {
    let dr = format.dynamic_range();
    let mut values = vec![-0.0f32, 0.0];
    // Clamp to the f32 fabric's binade range: decoded values are f32, so
    // grid points beyond it only saturate/flush (and an extreme format's
    // f64 bounds — e.g. GF32's 2^−1042 min denormal — would explode the
    // exponent loop).
    let lo = (dr.min_abs.max(f64::MIN_POSITIVE).log2().floor() as i64 - 1).max(-150);
    let hi = (dr.max_abs.min(f64::MAX).log2().ceil() as i64 + 1).min(129);
    for e in lo..=hi {
        for frac in [1.0, 1.25, 1.5, 1.75] {
            let v = f32_saturate(mul_pow2(frac, e));
            if v.is_finite() && v != 0.0 {
                values.push(v);
                values.push(-v);
            }
        }
    }
    values.sort_by(f32::total_cmp);
    values.dedup_by(|a, b| a.to_bits() == b.to_bits());
    values
}

/// Law `monotonicity`: the context-fixed quantiser is non-decreasing over
/// the representable values and their midpoints.
fn check_monotonicity(
    quantize: &dyn Fn(f32) -> f32,
    decoded: &[f32],
    spec: &FormatSpec,
    ctx: &Context,
    report: &mut FormatReport,
) {
    let mut prev: Option<(f32, f32)> = None;
    for xs in decoded.windows(2) {
        let mid = (xs[0] as f64 + xs[1] as f64) * 0.5;
        for x in [xs[0], mid as f32] {
            let q = quantize(x);
            if q.is_nan() {
                continue;
            }
            report.checks += 1;
            if let Some((px, pq)) = prev {
                if q < pq {
                    report.violations.push(Violation {
                        law: Law::Monotonicity,
                        spec: spec.to_string(),
                        context: ctx.label.clone(),
                        detail: format!("q({px}) = {pq} but q({x}) = {q} decreases"),
                    });
                }
            }
            prev = Some((x, q));
        }
    }
}

/// Law `sign-symmetry`: `q(−x) == −q(x)` inside the symmetric part of the
/// range (two's-complement formats saturate asymmetrically at the very
/// bottom code, so the bound is the smaller of the two saturation points).
fn check_sign_symmetry(
    quantize: &dyn Fn(f32) -> f32,
    decoded: &[f32],
    spec: &FormatSpec,
    flags: &FamilyFlags,
    ctx: &Context,
    report: &mut FormatReport,
) {
    let sat_pos = quantize(f32::MAX);
    let sat_neg = quantize(-f32::MAX);
    if sat_pos.is_nan() || sat_neg.is_nan() {
        return;
    }
    let sym_max = sat_pos.abs().min(sat_neg.abs());
    for &x in decoded {
        if x <= 0.0 || x > sym_max {
            continue;
        }
        report.checks += 1;
        let qp = quantize(x);
        let qn = quantize(-x);
        let ok = if flags.signed_zero { qn.to_bits() == (-qp).to_bits() } else { qn == -qp };
        if !ok {
            report.violations.push(Violation {
                law: Law::SignSymmetry,
                spec: spec.to_string(),
                context: ctx.label.clone(),
                detail: format!("q({x}) = {qp} but q({}) = {qn}", -x),
            });
        }
    }
    // Signed zero itself: q(−0.0) must keep the sign for signed-zero
    // formats and must quantise to a zero either way.
    report.checks += 1;
    let qz = quantize(-0.0);
    let zero_ok = if flags.signed_zero { qz == 0.0 && qz.is_sign_negative() } else { qz == 0.0 };
    if !zero_ok {
        report.violations.push(Violation {
            law: Law::SignSymmetry,
            spec: spec.to_string(),
            context: ctx.label.clone(),
            detail: format!("q(−0.0) = {qz} (sign bit {})", qz.is_sign_negative()),
        });
    }
}

/// Law `idempotence`: requantising `rtf(t).values` is the identity. INT
/// deviates at the value level (the re-derived scale can differ by 1 ulp),
/// but its codes must be stable and values within 1e-5 relative.
fn check_idempotence(
    spec: &FormatSpec,
    format: &dyn NumberFormat,
    ctx: &Context,
    report: &mut FormatReport,
) {
    let q1 = &ctx.quantized;
    let q2 = format.real_to_format_tensor(&q1.values);
    report.checks += 1;
    if let FormatSpec::Int { .. } = spec {
        for (i, (&a, &b)) in q1.values.as_slice().iter().zip(q2.values.as_slice()).enumerate() {
            let code_a = format.real_to_format(a, &q1.meta, i);
            let code_b = format.real_to_format(b, &q2.meta, i);
            let drift_ok = (a - b).abs() as f64 <= (a.abs() as f64) * 1e-5 + f64::MIN_POSITIVE;
            if code_a.to_u64() != code_b.to_u64() || !drift_ok {
                report.violations.push(Violation {
                    law: Law::Idempotence,
                    spec: spec.to_string(),
                    context: ctx.label.clone(),
                    detail: format!("element {i}: {a} requantises to {b} off the code grid"),
                });
            }
        }
        return;
    }
    let same_values = q1
        .values
        .as_slice()
        .iter()
        .zip(q2.values.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
    if !same_values || q1.meta != q2.meta {
        report.violations.push(Violation {
            law: Law::Idempotence,
            spec: spec.to_string(),
            context: ctx.label.clone(),
            detail: if same_values {
                format!("metadata drifts: {:?} → {:?}", q1.meta, q2.meta)
            } else {
                "requantised values differ bitwise".to_string()
            },
        });
    }
}

/// Law `tensor-scalar-agreement`: Method 1 equals Method 3 ∘ Method 4 per
/// element under the same metadata, for finite inputs.
fn check_tensor_scalar(
    format: &dyn NumberFormat,
    spec: &FormatSpec,
    ctx: &Context,
    report: &mut FormatReport,
) {
    let q = &ctx.quantized;
    for (i, &x) in ctx.probe.as_slice().iter().enumerate() {
        if !x.is_finite() {
            continue;
        }
        report.checks += 1;
        let scalar = format.format_to_real(&format.real_to_format(x, &q.meta, i), &q.meta, i);
        let tensor = q.values.as_slice()[i];
        if scalar.to_bits() != tensor.to_bits() && !(scalar.is_nan() && tensor.is_nan()) {
            report.violations.push(Violation {
                law: Law::TensorScalarAgreement,
                spec: spec.to_string(),
                context: ctx.label.clone(),
                detail: format!("element {i} ({x}): tensor {tensor} vs scalar {scalar}"),
            });
        }
    }
}

/// Laws `meta-flip-range` / `meta-flip-finite`: every single-bit flip of
/// every metadata word, re-applied to the stored values.
fn check_meta_flips(
    spec: &FormatSpec,
    format: &dyn NumberFormat,
    flags: &FamilyFlags,
    ctx: &Context,
    report: &mut FormatReport,
) {
    if !format.supports_metadata_injection() {
        return;
    }
    let q = &ctx.quantized;
    for word in 0..q.meta.word_count() {
        let bits = q.meta.word_bits(word).expect("word in range");
        for bit in 0..bits.len() {
            let corrupted = q.meta.with_word_bits(word, &bits.with_flip(bit));
            let reapplied = format.apply_metadata(&q.values, &q.meta, &corrupted);
            let bounds = scaled_bounds(spec, format, &corrupted);
            for (i, &v) in reapplied.as_slice().iter().enumerate() {
                report.checks += 1;
                if flags.meta_flip_finite && !v.is_finite() {
                    report.violations.push(Violation {
                        law: Law::MetaFlipFinite,
                        spec: spec.to_string(),
                        context: ctx.label.clone(),
                        detail: format!("word {word} bit {bit}: element {i} became {v}"),
                    });
                    continue;
                }
                if let Some((max_abs, _)) = bounds {
                    if v.is_finite() && (v as f64).abs() > max_abs * (1.0 + 1e-6) {
                        report.violations.push(Violation {
                            law: Law::MetaFlipRange,
                            spec: spec.to_string(),
                            context: ctx.label.clone(),
                            detail: format!(
                                "word {word} bit {bit}: element {i} = {v} beyond flipped max {max_abs}"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Law `fast-slow-agreement` (FP only): the bit-twiddle f32 path matches
/// the exact f64 reference on representable values, midpoints, and special
/// values.
fn check_fast_slow(
    fp: &FloatingPoint,
    decoded: &[f32],
    spec: &FormatSpec,
    ctx: &Context,
    report: &mut FormatReport,
) {
    let probe_one = |x: f32, report: &mut FormatReport| {
        report.checks += 1;
        let fast = fp.quantize_scalar(x);
        let slow = fp.quantize_reference(x);
        if fast.to_bits() != slow.to_bits() && !(fast.is_nan() && slow.is_nan()) {
            report.violations.push(Violation {
                law: Law::FastSlowAgreement,
                spec: spec.to_string(),
                context: ctx.label.clone(),
                detail: format!("x = {x} ({:#x}): fast {fast} vs reference {slow}", x.to_bits()),
            });
        }
    };
    for xs in decoded.windows(2) {
        probe_one(xs[0], report);
        probe_one(((xs[0] as f64 + xs[1] as f64) * 0.5) as f32, report);
    }
    for x in [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        -f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-45,
        -1e-45,
    ] {
        probe_one(x, report);
    }
}

/// Convenience: are BFP/AFP special-cased correctly? Used by the CLI to
/// label the per-format summary.
pub fn family_name(spec: &FormatSpec) -> &'static str {
    match spec {
        FormatSpec::Fp { .. } => "fp",
        FormatSpec::Fxp { .. } => "fxp",
        FormatSpec::Int { .. } => "int",
        FormatSpec::Bfp { .. } => "bfp",
        FormatSpec::Afp { .. } => "afp",
        FormatSpec::Posit { .. } => "posit",
        FormatSpec::Mx { .. } => "mx",
        FormatSpec::P3109 { .. } => "p3109",
        FormatSpec::Gf { .. } => "gf",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_conformant(s: &str) {
        let spec: FormatSpec = s.parse().unwrap();
        let report = check_format(&spec);
        assert!(
            report.violations.is_empty(),
            "{s}: {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        );
        assert!(report.checks > 0);
    }

    #[test]
    fn oracle_passes_one_format_per_family() {
        for s in [
            "fp:e4m3",
            "fxp:1:3:4",
            "int:8",
            "bfp:e5m5:b16",
            "afp:e4m3",
            "posit:8:0",
            "mx:fp8e4m3:b32",
            "p3109:e4m3",
            "gf:8",
        ] {
            assert_conformant(s);
        }
    }

    #[test]
    fn oracle_passes_every_mx_element_type() {
        for s in [
            "mx:fp4e2m1:b32",
            "mx:fp6e2m3:b32",
            "mx:fp6e3m2:b32",
            "mx:fp8e4m3:b32",
            "mx:fp8e5m2:b32",
        ] {
            assert_conformant(s);
        }
    }

    #[test]
    fn oracle_is_exhaustive_for_narrow_formats() {
        let spec: FormatSpec = "fp:e4m3".parse().unwrap();
        let report = check_format(&spec);
        assert!(report.exhaustive);
        // 256 codes × 2 contexts.
        assert_eq!(report.codes_checked, 512);
    }

    #[test]
    fn oracle_skips_enumeration_beyond_16_bits() {
        let spec: FormatSpec = "fp32".parse().unwrap();
        let report = check_format(&spec);
        assert!(!report.exhaustive);
        assert_eq!(report.codes_checked, 0);
        assert!(report.checks > 0, "grid-based laws must still run");
        assert!(report.violations.is_empty(), "first: {}", report.violations[0]);
    }
}
