//! The algebraic laws every GoldenEye number format must satisfy.
//!
//! Each law is a machine-checkable statement about the paper's four-method
//! API (§III-B). The oracle ([`crate::oracle`]) checks them exhaustively
//! over the code space of every ≤16-bit format; the sweeps
//! ([`crate::sweep`]) check them statistically for wider formats. DESIGN.md
//! §"Conformance laws" records which formats each law binds and the known
//! intentional deviations.

use std::fmt;

/// A conformance law. `name()` is the stable identifier used in reports,
/// golden vectors, CI output, and test names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Law {
    /// decode→encode→decode is a bitwise fixpoint for every code.
    RoundTrip,
    /// Quantising an already-quantised tensor changes nothing (values
    /// bitwise, metadata equal). INT deviates at the value level (scale
    /// re-derivation drifts ≤1 ulp) but its codes must be stable.
    Idempotence,
    /// The context-fixed quantiser (Method 3 ∘ Method 4) is monotone
    /// non-decreasing. Binds within one metadata context; BFP is only
    /// block-locally monotone by design.
    Monotonicity,
    /// `q(−x) == −q(x)` inside the symmetric part of the range; bitwise
    /// for signed-zero formats, value-level for two's-complement ones.
    SignSymmetry,
    /// Every decoded value — hence every value after any single value-bit
    /// flip, since the flipped pattern is itself an enumerated code — lies
    /// inside the (metadata-scaled) `dynamic_range()`, or is an explicitly
    /// representable Inf/NaN code.
    RangeContainment,
    /// After any single metadata-bit flip, re-interpreted values stay
    /// inside the *flipped* context's representable range.
    MetaFlipRange,
    /// BFP/AFP only: no metadata flip may produce Inf/NaN — those formats
    /// have no such codes (§IV: BFP injections are Inf/NaN-free). INT's
    /// FP32 scale register is exempt: scale flips to Inf/NaN are faithful
    /// hardware behaviour.
    MetaFlipFinite,
    /// FP only: the fast bit-twiddle `f32_quantizer` path agrees bitwise
    /// with the exact f64 reference for every input.
    FastSlowAgreement,
    /// Method 1 agrees element-wise (bitwise) with the Method 3 ∘ Method 4
    /// composition under the same metadata, for finite inputs. (±Inf
    /// deviates intentionally: Method 1 saturates, Methods 3/4 keep the
    /// reserved Inf codes.)
    TensorScalarAgreement,
}

impl Law {
    /// All laws, in report order.
    pub fn all() -> &'static [Law] {
        &[
            Law::RoundTrip,
            Law::Idempotence,
            Law::Monotonicity,
            Law::SignSymmetry,
            Law::RangeContainment,
            Law::MetaFlipRange,
            Law::MetaFlipFinite,
            Law::FastSlowAgreement,
            Law::TensorScalarAgreement,
        ]
    }

    /// Stable kebab-case identifier.
    pub fn name(&self) -> &'static str {
        match self {
            Law::RoundTrip => "round-trip",
            Law::Idempotence => "idempotence",
            Law::Monotonicity => "monotonicity",
            Law::SignSymmetry => "sign-symmetry",
            Law::RangeContainment => "range-containment",
            Law::MetaFlipRange => "meta-flip-range",
            Law::MetaFlipFinite => "meta-flip-finite",
            Law::FastSlowAgreement => "fast-slow-agreement",
            Law::TensorScalarAgreement => "tensor-scalar-agreement",
        }
    }

    /// One-line statement of the law.
    pub fn describe(&self) -> &'static str {
        match self {
            Law::RoundTrip => "decode→encode→decode is a bitwise fixpoint for every code",
            Law::Idempotence => "quantising an already-quantised tensor is the identity",
            Law::Monotonicity => "the context-fixed quantiser is monotone non-decreasing",
            Law::SignSymmetry => "q(−x) == −q(x) inside the symmetric range",
            Law::RangeContainment => {
                "every reachable value stays inside dynamic_range() or is an Inf/NaN code"
            }
            Law::MetaFlipRange => {
                "values re-interpreted under a flipped metadata word stay in the flipped range"
            }
            Law::MetaFlipFinite => "no metadata flip produces Inf/NaN (BFP/AFP)",
            Law::FastSlowAgreement => "fast f32 quantise path matches the f64 reference bitwise",
            Law::TensorScalarAgreement => {
                "Method 1 matches Method 3∘4 element-wise under the same metadata"
            }
        }
    }
}

impl fmt::Display for Law {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single law violation found by the oracle or a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated law.
    pub law: Law,
    /// `FormatSpec` string of the offending format instance.
    pub spec: String,
    /// Which metadata context the check ran under (e.g. `"scale=0.02"`,
    /// `"bias=-3"`, `"none"`).
    pub context: String,
    /// Human-readable description of the counterexample.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({}): {}", self.law, self.spec, self.context, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn law_names_are_stable_and_unique() {
        let names: Vec<&str> = Law::all().iter().map(|l| l.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate law names");
        assert!(names.contains(&"round-trip"));
        assert!(names.contains(&"meta-flip-finite"));
    }

    #[test]
    fn violation_display_mentions_law_and_spec() {
        let v = Violation {
            law: Law::RoundTrip,
            spec: "int:8".into(),
            context: "scale=1".into(),
            detail: "code 0x80 decodes outside the grid".into(),
        };
        let s = v.to_string();
        assert!(s.contains("round-trip") && s.contains("int:8"), "{s}");
    }
}
