//! The standard format zoo: every parameterisation the paper's Table I and
//! §IV experiments use, as [`FormatSpec`]s. `goldeneye conformance --all`
//! and the CI conformance job run the oracle over exactly this list.

use formats::FormatSpec;

/// Spec strings of the standard zoo, in report order.
///
/// Formats with data width ≤ 16 bits get the exhaustive code-space oracle;
/// the three wider ones (FP32, TF32, FxP(1,15,16)) get grid + sweep
/// coverage only.
pub const ZOO_SPECS: &[&str] = &[
    // Floating point (Table I rows + §IV-B hyperparameter sweeps).
    "fp:e4m3",
    "fp:e4m3:nodn",
    "fp:e5m2",
    "fp:e5m10",
    "fp:e5m10:nodn",
    "fp:e8m7",
    "fp:e8m7:nodn",
    "fp:e6m9",
    "fp:e8m10",
    "fp:e8m23",
    // Fixed point.
    "fxp:1:3:4",
    "fxp:1:7:8",
    "fxp:1:15:16",
    // Integer quantisation.
    "int:8",
    "int:16",
    // Block floating point.
    "bfp:e5m5:b16",
    "bfp:e8m7:b16",
    "bfp:e5m5:tensor",
    // AdaptivFloat.
    "afp:e4m3",
    "afp:e3m4",
    // Posits.
    "posit:8:0",
    "posit:16:1",
    // OCP Microscaling (MX): E8M0 block scale over narrow FP elements.
    "mx:fp4e2m1:b32",
    "mx:fp6e2m3:b32",
    "mx:fp6e3m2:b32",
    "mx:fp8e4m3:b32",
    "mx:fp8e5m2:b32",
    // P3109-style saturating FP8 profiles (no Inf, single NaN, no −0).
    "p3109:e3m4",
    "p3109:e4m3",
    "p3109:e5m2",
    // GoldenFloat static φ-splits.
    "gf:8",
    "gf:16",
    "gf:32",
];

/// Parses the zoo. Panics only if a `ZOO_SPECS` literal is invalid, which
/// the tests pin.
pub fn standard_zoo() -> Vec<FormatSpec> {
    ZOO_SPECS.iter().map(|s| s.parse().expect("zoo spec parses")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_parses_and_covers_all_families() {
        let zoo = standard_zoo();
        assert_eq!(zoo.len(), ZOO_SPECS.len());
        let mut families: Vec<&str> = zoo.iter().map(crate::oracle::family_name).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families, ["afp", "bfp", "fp", "fxp", "gf", "int", "mx", "p3109", "posit"]);
    }

    /// Method 2 of every zoo format is an `Arc` share of Method 1's
    /// dequantised values: converting back copies nothing, so the hook's
    /// round-trip is a single pass over the tensor.
    #[test]
    fn method2_shares_method1_values() {
        let v: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) * 0.37).collect();
        let t = tensor::Tensor::from_vec(v, [3, 100]);
        for spec in standard_zoo() {
            let format = spec.build();
            let q = format.real_to_format_tensor(&t);
            let back = format.format_to_real_tensor(&q);
            assert_eq!(
                back.as_slice().as_ptr(),
                q.values.as_slice().as_ptr(),
                "{spec}: format_to_real_tensor copied the values"
            );
        }
    }

    #[test]
    fn zoo_has_both_exhaustive_and_wide_formats() {
        let zoo = standard_zoo();
        let widths: Vec<u32> = zoo.iter().map(|s| s.build().bit_width()).collect();
        assert!(widths.iter().any(|&w| w <= 16));
        assert!(widths.iter().any(|&w| w > 16));
    }
}
