//! Textual format specifications — the CLI-facing "hyperparameter knobs"
//! of the paper's §IV-B, e.g. `fp:e4m3`, `bfp:e5m5:b16`, `int:8`.

use crate::afp::AdaptivFloat;
use crate::bfp::BlockFloatingPoint;
use crate::format::NumberFormat;
use crate::fp::FloatingPoint;
use crate::fxp::FixedPoint;
use crate::gf::GoldenFloat;
use crate::int::IntQuant;
use crate::mx::{MxElem, MxFloat};
use crate::p3109::P3109;
use std::fmt;
use std::str::FromStr;

/// Error returned when a format specification fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    spec: String,
    reason: String,
}

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid format spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for ParseFormatError {}

/// A parsed number-format specification, convertible into a boxed
/// [`NumberFormat`]. Parsing checks every bound the format constructors
/// assert, so [`FormatSpec::build`] never panics on a parsed spec.
///
/// Grammar (case-insensitive):
///
/// - `fp:eXmY[:nodn]` — floating point, optional denormal disable
///   (X ∈ 2..=11, Y ∈ 1..=52)
/// - `fxp:1:I:F` — fixed point with I integer / F fraction bits
///   (1 + I + F ∈ 2..=63)
/// - `int:B` — B-bit symmetric integer quantisation (B ∈ 2..=32)
/// - `bfp:eXmY:bN` — block floating point with block size N > 0
///   (X ∈ 2..=11, Y ∈ 1..=23); `bfp:eXmY:tensor` shares one exponent
///   across the whole tensor
/// - `afp:eXmY` — AdaptivFloat (X ∈ 2..=11, Y ∈ 1..=52)
/// - `posit:N:ES` — posit⟨N, ES⟩ (N ∈ 3..=16, ES ∈ 0..=3)
/// - `mx:<elem>:bN` — OCP microscaling with an E8M0 block scale; `<elem>`
///   is one of `fp4e2m1`, `fp6e2m3`, `fp6e3m2`, `fp8e4m3`, `fp8e5m2`
/// - `p3109:eXmY` — saturating 8-bit P3109-style profile (`1+X+Y == 8`)
/// - `gf:N` — GoldenFloat static golden-ratio split, N ∈ {8, 16, 32}
/// - named shorthands: `fp32`, `fp16`, `bfloat16`, `tf32`, `dlfloat16`,
///   `fp8` (= `fp:e4m3`), `int8`, `int16`, `posit8`, `posit16`,
///   `mxfp4`/`mxfp6`/`mxfp8` (= `mx:fp4e2m1:b32` / `mx:fp6e2m3:b32` /
///   `mx:fp8e4m3:b32`)
///
/// # Examples
///
/// ```
/// use formats::FormatSpec;
/// let spec: FormatSpec = "bfp:e5m5:b16".parse()?;
/// assert_eq!(spec.build().name(), "bfp_e5m5_b16");
/// # Ok::<(), formats::ParseFormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatSpec {
    /// `fp:eXmY[:nodn]`
    Fp {
        /// Exponent bits.
        exp: u32,
        /// Mantissa bits.
        man: u32,
        /// Whether denormals are representable.
        denormals: bool,
    },
    /// `fxp:1:I:F`
    Fxp {
        /// Integer bits.
        int: u32,
        /// Fraction bits (the radix).
        frac: u32,
    },
    /// `int:B`
    Int {
        /// Total bits, sign included.
        bits: u32,
    },
    /// `bfp:eXmY:bN` or `bfp:eXmY:tensor` (`block = usize::MAX`)
    Bfp {
        /// Shared-exponent bits.
        exp: u32,
        /// Per-element mantissa bits.
        man: u32,
        /// Elements per shared exponent (`usize::MAX` = whole tensor).
        block: usize,
    },
    /// `afp:eXmY`
    Afp {
        /// Exponent bits.
        exp: u32,
        /// Mantissa bits.
        man: u32,
    },
    /// `posit:N:ES`
    Posit {
        /// Total bits.
        n: u32,
        /// Exponent-field bits.
        es: u32,
    },
    /// `mx:<elem>:bN`
    Mx {
        /// Element format.
        elem: MxElem,
        /// Elements per shared E8M0 scale.
        block: usize,
    },
    /// `p3109:eXmY` (`1 + exp + man == 8`)
    P3109 {
        /// Exponent bits.
        exp: u32,
        /// Mantissa bits.
        man: u32,
    },
    /// `gf:N` (N ∈ {8, 16, 32})
    Gf {
        /// Total bits.
        n: u32,
    },
}

impl FormatSpec {
    /// Instantiates the parsed specification.
    pub fn build(&self) -> Box<dyn NumberFormat> {
        match *self {
            FormatSpec::Fp { exp, man, denormals } => {
                Box::new(FloatingPoint::new(exp, man).with_denormals(denormals))
            }
            FormatSpec::Fxp { int, frac } => Box::new(FixedPoint::new(int, frac)),
            FormatSpec::Int { bits } => Box::new(IntQuant::new(bits)),
            FormatSpec::Bfp { exp, man, block } => {
                Box::new(BlockFloatingPoint::new(exp, man, block))
            }
            FormatSpec::Afp { exp, man } => Box::new(AdaptivFloat::new(exp, man)),
            FormatSpec::Posit { n, es } => Box::new(crate::posit::Posit::new(n, es)),
            FormatSpec::Mx { elem, block } => Box::new(MxFloat::new(elem, block)),
            FormatSpec::P3109 { exp, man } => Box::new(P3109::new(exp, man)),
            FormatSpec::Gf { n } => Box::new(GoldenFloat::new(n)),
        }
    }
}

fn parse_em(tok: &str) -> Option<(u32, u32)> {
    // "e4m3" → (4, 3)
    let rest = tok.strip_prefix('e')?;
    let mpos = rest.find('m')?;
    let e = rest[..mpos].parse().ok()?;
    let m = rest[mpos + 1..].parse().ok()?;
    Some((e, m))
}

impl FromStr for FormatSpec {
    type Err = ParseFormatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Every bound a constructor asserts is checked here too, so a spec
        // that parses always builds.
        let err =
            |reason: &str| ParseFormatError { spec: s.to_string(), reason: reason.to_string() };
        let float_em = |em: &str| {
            parse_em(em)
                .filter(|(e, m)| (2..=11).contains(e) && (1..=52).contains(m))
                .ok_or_else(|| err("expected eXmY with X in 2..=11, Y in 1..=52"))
        };
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "fp32" => return Ok(FormatSpec::Fp { exp: 8, man: 23, denormals: true }),
            "fp16" | "half" => return Ok(FormatSpec::Fp { exp: 5, man: 10, denormals: true }),
            "bfloat16" | "bf16" => return Ok(FormatSpec::Fp { exp: 8, man: 7, denormals: true }),
            "tf32" | "tensorfloat32" => {
                return Ok(FormatSpec::Fp { exp: 8, man: 10, denormals: true })
            }
            "dlfloat16" => return Ok(FormatSpec::Fp { exp: 6, man: 9, denormals: true }),
            "fp8" => return Ok(FormatSpec::Fp { exp: 4, man: 3, denormals: true }),
            "int8" => return Ok(FormatSpec::Int { bits: 8 }),
            "int16" => return Ok(FormatSpec::Int { bits: 16 }),
            "posit8" => return Ok(FormatSpec::Posit { n: 8, es: 0 }),
            "posit16" => return Ok(FormatSpec::Posit { n: 16, es: 1 }),
            "mxfp4" => return Ok(FormatSpec::Mx { elem: MxElem::Fp4E2m1, block: 32 }),
            "mxfp6" => return Ok(FormatSpec::Mx { elem: MxElem::Fp6E2m3, block: 32 }),
            "mxfp8" => return Ok(FormatSpec::Mx { elem: MxElem::Fp8E4m3, block: 32 }),
            _ => {}
        }
        let parts: Vec<&str> = lower.split(':').collect();
        match parts.as_slice() {
            ["fp", em] => {
                let (exp, man) = float_em(em)?;
                Ok(FormatSpec::Fp { exp, man, denormals: true })
            }
            ["fp", em, "nodn"] => {
                let (exp, man) = float_em(em)?;
                Ok(FormatSpec::Fp { exp, man, denormals: false })
            }
            ["fxp", "1", i, f] => {
                let int: u32 = i.parse().map_err(|_| err("bad integer-bit count"))?;
                let frac: u32 = f.parse().map_err(|_| err("bad fraction-bit count"))?;
                if !(1..=62).contains(&int.saturating_add(frac)) {
                    return Err(err("fixed-point width 1+I+F must be in 2..=63"));
                }
                Ok(FormatSpec::Fxp { int, frac })
            }
            ["int", b] => {
                let bits = b.parse().map_err(|_| err("bad bit count"))?;
                if !(2..=32).contains(&bits) {
                    return Err(err("INT width must be in 2..=32"));
                }
                Ok(FormatSpec::Int { bits })
            }
            ["bfp", em, blk] => {
                let (exp, man) = parse_em(em)
                    .filter(|(e, m)| (2..=11).contains(e) && (1..=23).contains(m))
                    .ok_or_else(|| err("expected eXmY with X in 2..=11, Y in 1..=23"))?;
                let block = if *blk == "tensor" {
                    usize::MAX
                } else {
                    blk.strip_prefix('b')
                        .and_then(|n| n.parse().ok())
                        .filter(|&b: &usize| b > 0)
                        .ok_or_else(|| err("expected bN (N > 0) or `tensor` block size"))?
                };
                Ok(FormatSpec::Bfp { exp, man, block })
            }
            ["afp", em] => {
                let (exp, man) = float_em(em)?;
                Ok(FormatSpec::Afp { exp, man })
            }
            ["posit", n, es] => {
                let n = n.parse().map_err(|_| err("bad posit width"))?;
                let es = es.parse().map_err(|_| err("bad posit es"))?;
                if !(3..=16).contains(&n) || es > 3 {
                    return Err(err("posit needs N in 3..=16 and ES in 0..=3"));
                }
                Ok(FormatSpec::Posit { n, es })
            }
            ["mx", elem, blk] => {
                let elem = MxElem::parse(elem).ok_or_else(|| {
                    err("unknown MX element (fp4e2m1/fp6e2m3/fp6e3m2/fp8e4m3/fp8e5m2)")
                })?;
                let block = blk
                    .strip_prefix('b')
                    .and_then(|x| x.parse().ok())
                    .filter(|&b: &usize| b > 0 && b != usize::MAX)
                    .ok_or_else(|| err("expected bN block size"))?;
                Ok(FormatSpec::Mx { elem, block })
            }
            ["p3109", em] => {
                let (exp, man) = parse_em(em).ok_or_else(|| err("expected eXmY"))?;
                if 1 + exp + man != 8 || !(2..=6).contains(&exp) {
                    return Err(err("P3109 profiles are 8-bit: 1+e+m == 8 with e in 2..=6"));
                }
                Ok(FormatSpec::P3109 { exp, man })
            }
            ["gf", n] => {
                let n = n.parse().map_err(|_| err("bad GoldenFloat width"))?;
                if !matches!(n, 8 | 16 | 32) {
                    return Err(err("GoldenFloat widths are 8, 16, or 32"));
                }
                Ok(FormatSpec::Gf { n })
            }
            _ => Err(err("unknown format family")),
        }
    }
}

impl fmt::Display for FormatSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatSpec::Fp { exp, man, denormals: true } => write!(f, "fp:e{exp}m{man}"),
            FormatSpec::Fp { exp, man, denormals: false } => write!(f, "fp:e{exp}m{man}:nodn"),
            FormatSpec::Fxp { int, frac } => write!(f, "fxp:1:{int}:{frac}"),
            FormatSpec::Int { bits } => write!(f, "int:{bits}"),
            FormatSpec::Bfp { exp, man, block: usize::MAX } => write!(f, "bfp:e{exp}m{man}:tensor"),
            FormatSpec::Bfp { exp, man, block } => write!(f, "bfp:e{exp}m{man}:b{block}"),
            FormatSpec::Afp { exp, man } => write!(f, "afp:e{exp}m{man}"),
            FormatSpec::Posit { n, es } => write!(f, "posit:{n}:{es}"),
            FormatSpec::Mx { elem, block } => write!(f, "mx:{}:b{block}", elem.token()),
            FormatSpec::P3109 { exp, man } => write!(f, "p3109:e{exp}m{man}"),
            FormatSpec::Gf { n } => write!(f, "gf:{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_families() {
        assert_eq!(
            "fp:e4m3".parse::<FormatSpec>().unwrap(),
            FormatSpec::Fp { exp: 4, man: 3, denormals: true }
        );
        assert_eq!(
            "fp:e5m10:nodn".parse::<FormatSpec>().unwrap(),
            FormatSpec::Fp { exp: 5, man: 10, denormals: false }
        );
        assert_eq!(
            "fxp:1:15:16".parse::<FormatSpec>().unwrap(),
            FormatSpec::Fxp { int: 15, frac: 16 }
        );
        assert_eq!("int:8".parse::<FormatSpec>().unwrap(), FormatSpec::Int { bits: 8 });
        assert_eq!(
            "bfp:e5m5:b16".parse::<FormatSpec>().unwrap(),
            FormatSpec::Bfp { exp: 5, man: 5, block: 16 }
        );
        assert_eq!("afp:e4m3".parse::<FormatSpec>().unwrap(), FormatSpec::Afp { exp: 4, man: 3 });
        assert_eq!("posit:8:1".parse::<FormatSpec>().unwrap(), FormatSpec::Posit { n: 8, es: 1 });
        assert_eq!(
            "bfp:e5m5:tensor".parse::<FormatSpec>().unwrap(),
            FormatSpec::Bfp { exp: 5, man: 5, block: usize::MAX }
        );
        assert_eq!(
            "mx:fp4e2m1:b32".parse::<FormatSpec>().unwrap(),
            FormatSpec::Mx { elem: MxElem::Fp4E2m1, block: 32 }
        );
        assert_eq!(
            "mx:fp8e5m2:b16".parse::<FormatSpec>().unwrap(),
            FormatSpec::Mx { elem: MxElem::Fp8E5m2, block: 16 }
        );
        assert_eq!(
            "p3109:e4m3".parse::<FormatSpec>().unwrap(),
            FormatSpec::P3109 { exp: 4, man: 3 }
        );
        assert_eq!("gf:16".parse::<FormatSpec>().unwrap(), FormatSpec::Gf { n: 16 });
    }

    #[test]
    fn parse_shorthands() {
        assert_eq!(
            "bfloat16".parse::<FormatSpec>().unwrap(),
            FormatSpec::Fp { exp: 8, man: 7, denormals: true }
        );
        assert_eq!("int8".parse::<FormatSpec>().unwrap(), FormatSpec::Int { bits: 8 });
        assert_eq!(
            "mxfp4".parse::<FormatSpec>().unwrap(),
            FormatSpec::Mx { elem: MxElem::Fp4E2m1, block: 32 }
        );
        assert_eq!(
            "mxfp6".parse::<FormatSpec>().unwrap(),
            FormatSpec::Mx { elem: MxElem::Fp6E2m3, block: 32 }
        );
        assert_eq!(
            "mxfp8".parse::<FormatSpec>().unwrap(),
            FormatSpec::Mx { elem: MxElem::Fp8E4m3, block: 32 }
        );
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "fp:e4m3",
            "fp:e5m2:nodn",
            "fxp:1:7:8",
            "int:8",
            "bfp:e8m7:b32",
            "bfp:e5m5:tensor",
            "afp:e3m4",
            "posit:16:1",
            "mx:fp4e2m1:b32",
            "mx:fp8e5m2:b16",
            "p3109:e5m2",
            "gf:8",
        ] {
            let spec: FormatSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.to_string().parse::<FormatSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn build_produces_right_names() {
        let spec: FormatSpec = "bfp:e5m5:b16".parse().unwrap();
        assert_eq!(spec.build().name(), "bfp_e5m5_b16");
        let spec: FormatSpec = "fp32".parse().unwrap();
        assert_eq!(spec.build().name(), "fp_e8m23");
        let spec: FormatSpec = "mx:fp8e4m3:b32".parse().unwrap();
        assert_eq!(spec.build().name(), "mx_fp8e4m3_b32");
        let spec: FormatSpec = "p3109:e4m3".parse().unwrap();
        assert_eq!(spec.build().name(), "p3109_e4m3");
        let spec: FormatSpec = "gf:8".parse().unwrap();
        assert_eq!(spec.build().name(), "gf8_e3m4");
    }

    #[test]
    fn canonical_spec_roundtrips_through_the_grammar() {
        // `NumberFormat::canonical_spec` is a format's identity; for
        // every spec-constructible format that string must parse back to
        // the spec that built it, so shorthand and explicit constructions
        // share one identity.
        for s in [
            "fp:e4m3",
            "fp:e5m2:nodn",
            "fp8",
            "bfloat16",
            "fxp:1:7:8",
            "int:8",
            "int16",
            "bfp:e8m7:b32",
            "bfp:e5m5:tensor",
            "afp:e3m4",
            "posit:16:1",
            "posit8",
            "mx:fp4e2m1:b32",
            "mx:fp8e5m2:b16",
            "mxfp8",
            "p3109:e4m3",
        ] {
            let spec: FormatSpec = s.parse().unwrap();
            let canon = spec.build().canonical_spec();
            assert_eq!(canon.parse::<FormatSpec>().unwrap(), spec, "via `{s}` → `{canon}`");
            assert_eq!(canon, spec.to_string(), "canonical_spec must equal FormatSpec Display");
        }
    }

    #[test]
    fn goldenfloat_canonical_spec_aliases_to_fp() {
        // `gf:N` deliberately does NOT canonicalise to itself: a GoldenFloat
        // quantises identically to its φ-split FloatingPoint, so the two
        // are one format.
        for (gf, fp) in [("gf:8", "fp:e3m4"), ("gf:16", "fp:e6m9"), ("gf:32", "fp:e11m20")] {
            let spec: FormatSpec = gf.parse().unwrap();
            let canon = spec.build().canonical_spec();
            assert_eq!(canon, fp, "{gf}");
            assert_eq!(canon, fp.parse::<FormatSpec>().unwrap().build().canonical_spec());
        }
    }

    /// Well-formed specs outside a constructor's bounds: each must be a
    /// typed parse error, not a panic in `build()`.
    #[test]
    fn out_of_bounds_specs_are_parse_errors() {
        for s in [
            "fp:e12m3",
            "fp:e4m0",
            "afp:e12m3",
            "int:0",
            "int:1",
            "bfp:e5m5:b0",
            "bfp:e12m3:b16",
            "bfp:e5m24:b16",
            "posit:2:0",
            "posit:64:3",
            "fxp:1:40:40",
        ] {
            assert!(s.parse::<FormatSpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn bad_specs_error() {
        for s in [
            "",
            "fp",
            "fp:em",
            "fxp:2:3:4",
            "bfp:e5m5",
            "wat:1",
            "int:x",
            "mx:fp4e2m1",
            "mx:fp5e2m2:b32",
            "mx:fp4e2m1:b0",
            "mx:fp4e2m1:tensor",
            "p3109:e4m4",
            "p3109:e7m0",
            "gf:12",
        ] {
            assert!(s.parse::<FormatSpec>().is_err(), "`{s}` should not parse");
        }
    }
}
