//! The paper's taxonomy of injection sites: 8 single-bit error sites
//! informed by the number-format representations (§III-B, Table II).

use formats::NumberFormat;
use std::fmt;

/// Whether a flip lands in a data value or in hardware metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A bit of one element's encoded value.
    Value,
    /// A bit of a metadata register (scale / shared exponent / bias).
    Metadata,
}

impl SiteKind {
    /// The stable lowercase label used in trace records and manifests.
    pub fn as_str(&self) -> &'static str {
        match self {
            SiteKind::Value => "value",
            SiteKind::Metadata => "metadata",
        }
    }
}

/// The format family a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatFamily {
    /// Generic floating point.
    Fp,
    /// Fixed point.
    Fxp,
    /// Integer quantisation.
    Int,
    /// Block floating point.
    Bfp,
    /// AdaptivFloat.
    Afp,
}

impl FormatFamily {
    /// Classifies a concrete format by its name prefix.
    pub fn of(format: &dyn NumberFormat) -> Option<FormatFamily> {
        let n = format.name();
        if n.starts_with("fp_") {
            Some(FormatFamily::Fp)
        } else if n.starts_with("fxp_") {
            Some(FormatFamily::Fxp)
        } else if n.starts_with("int") {
            Some(FormatFamily::Int)
        } else if n.starts_with("bfp_") {
            Some(FormatFamily::Bfp)
        } else if n.starts_with("afp_") {
            Some(FormatFamily::Afp)
        } else {
            None
        }
    }
}

/// One of the paper's 8 single-bit injection sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionSite {
    /// Format family.
    pub family: FormatFamily,
    /// Value or metadata.
    pub kind: SiteKind,
}

impl InjectionSite {
    /// All 8 sites studied in the paper: value flips for all 5 families,
    /// metadata flips for INT, BFP, and AFP.
    pub fn all() -> [InjectionSite; 8] {
        use FormatFamily::*;
        use SiteKind::*;
        [
            InjectionSite { family: Fp, kind: Value },
            InjectionSite { family: Fxp, kind: Value },
            InjectionSite { family: Int, kind: Value },
            InjectionSite { family: Bfp, kind: Value },
            InjectionSite { family: Afp, kind: Value },
            InjectionSite { family: Int, kind: Metadata },
            InjectionSite { family: Bfp, kind: Metadata },
            InjectionSite { family: Afp, kind: Metadata },
        ]
    }

    /// Whether `format` supports this site.
    pub fn supported_by(&self, format: &dyn NumberFormat) -> bool {
        FormatFamily::of(format) == Some(self.family)
            && (self.kind == SiteKind::Value || format.supports_metadata_injection())
    }
}

/// Bit-position sampling policy for value-site faults.
///
/// MPGemmFI's observation (PAPERS.md) is that exponent-bit faults dominate
/// outcome severity, so uniform bit sampling spends most trials on benign
/// mantissa flips. [`BitSampler::Stratified`] splits the bit positions of
/// one encoded value into a *critical* stratum (the exponent field when the
/// format has one, otherwise the sign + high-order bits) and the rest, and
/// oversamples the critical stratum. Unbiased population estimates are
/// recovered downstream by re-weighting per-stratum statistics with the
/// strata's population weights ([`BitStrata::population_weight`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BitSampler {
    /// Uniform over all bit positions — draw-for-draw identical to the
    /// historical per-trial sampling path.
    Uniform,
    /// Oversample the critical stratum with probability `critical_mass`
    /// (must be in `(0, 1)`); the remaining mass samples the other bits.
    Stratified {
        /// Probability that a trial lands in the critical stratum.
        critical_mass: f64,
    },
    /// Always flip this bit position (0 = MSB); only the element is
    /// drawn. Must be below the format's bit width. Used by per-bit
    /// vulnerability analyses.
    Fixed(usize),
}

impl BitSampler {
    /// The stable lowercase label used in manifests and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            BitSampler::Uniform => "uniform",
            BitSampler::Stratified { .. } => "stratified",
            BitSampler::Fixed(_) => "fixed",
        }
    }
}

/// The split of one value word's bit positions into a critical stratum and
/// the rest (see [`BitSampler`]). Stratum 0 is critical, stratum 1 the
/// remainder; either may be empty only if the word is 1 bit wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitStrata {
    /// Contiguous critical bit positions, 0 = MSB.
    pub critical: std::ops::Range<usize>,
    /// Total bits per value word.
    pub width: usize,
}

impl BitStrata {
    /// Builds the strata for a format's value words: the exponent field
    /// when the format reports one, otherwise the sign bit plus the top
    /// quarter of the word (the MSB-dominance fallback for formats whose
    /// magnitude weight decays monotonically with bit position).
    pub fn for_format(format: &dyn NumberFormat) -> BitStrata {
        let width = format.bit_width() as usize;
        let critical = match format.exponent_field() {
            Some(r) if !r.is_empty() && r.end <= width => r,
            _ => 0..(1 + width / 4).min(width),
        };
        BitStrata { critical, width }
    }

    /// Number of bit positions in stratum `s` (0 = critical, 1 = rest).
    pub fn len(&self, s: usize) -> usize {
        match s {
            0 => self.critical.len(),
            1 => self.width - self.critical.len(),
            _ => panic!("bit strata have exactly 2 strata, got index {s}"),
        }
    }

    /// The fraction of all bit positions that stratum `s` covers — the
    /// weight that makes per-stratum means recombine into an unbiased
    /// uniform-population estimate.
    pub fn population_weight(&self, s: usize) -> f64 {
        self.len(s) as f64 / self.width as f64
    }

    /// The stratum (0 or 1) a concrete bit position falls in.
    pub fn stratum_of(&self, bit: usize) -> usize {
        usize::from(!self.critical.contains(&bit))
    }

    /// Maps a within-stratum offset to an absolute bit position.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range for the stratum.
    pub fn bit_at(&self, s: usize, offset: usize) -> usize {
        assert!(offset < self.len(s), "offset {offset} out of range for stratum {s}");
        match s {
            0 => self.critical.start + offset,
            _ => {
                if offset < self.critical.start {
                    offset
                } else {
                    offset - self.critical.start + self.critical.end
                }
            }
        }
    }
}

impl fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fam = match self.family {
            FormatFamily::Fp => "FP",
            FormatFamily::Fxp => "FxP",
            FormatFamily::Int => "INT",
            FormatFamily::Bfp => "BFP",
            FormatFamily::Afp => "AFP",
        };
        let kind = match self.kind {
            SiteKind::Value => "value",
            SiteKind::Metadata => "metadata",
        };
        write!(f, "{fam}/{kind}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formats::{AdaptivFloat, BlockFloatingPoint, FixedPoint, FloatingPoint, IntQuant};

    #[test]
    fn exactly_eight_sites() {
        let sites = InjectionSite::all();
        assert_eq!(sites.len(), 8);
        let meta_count = sites.iter().filter(|s| s.kind == SiteKind::Metadata).count();
        assert_eq!(meta_count, 3, "INT, BFP, AFP metadata sites");
    }

    #[test]
    fn family_classification() {
        assert_eq!(FormatFamily::of(&FloatingPoint::fp16()), Some(FormatFamily::Fp));
        assert_eq!(FormatFamily::of(&FixedPoint::new(3, 4)), Some(FormatFamily::Fxp));
        assert_eq!(FormatFamily::of(&IntQuant::new(8)), Some(FormatFamily::Int));
        assert_eq!(FormatFamily::of(&BlockFloatingPoint::new(5, 5, 8)), Some(FormatFamily::Bfp));
        assert_eq!(FormatFamily::of(&AdaptivFloat::new(4, 3)), Some(FormatFamily::Afp));
    }

    #[test]
    fn metadata_sites_require_support() {
        let meta_fp = InjectionSite { family: FormatFamily::Fp, kind: SiteKind::Metadata };
        assert!(!meta_fp.supported_by(&FloatingPoint::fp16()));
        let meta_int = InjectionSite { family: FormatFamily::Int, kind: SiteKind::Metadata };
        assert!(meta_int.supported_by(&IntQuant::new(8)));
    }

    #[test]
    fn strata_from_exponent_field() {
        // FP e4m3: [sign | e4 | m3] → critical = bits 1..5.
        let strata = BitStrata::for_format(&FloatingPoint::new(4, 3));
        assert_eq!(strata, BitStrata { critical: 1..5, width: 8 });
        assert_eq!(strata.len(0), 4);
        assert_eq!(strata.len(1), 4);
        assert!((strata.population_weight(0) - 0.5).abs() < 1e-12);
        // INT8 has no exponent field → sign + top quarter fallback.
        let int = BitStrata::for_format(&IntQuant::new(8));
        assert_eq!(int.critical, 0..3);
    }

    #[test]
    fn strata_offset_mapping_is_a_bijection() {
        let strata = BitStrata { critical: 2..5, width: 9 };
        let mut seen = [false; 9];
        for s in 0..2 {
            for o in 0..strata.len(s) {
                let bit = strata.bit_at(s, o);
                assert!(!seen[bit], "bit {bit} mapped twice");
                assert_eq!(strata.stratum_of(bit), s);
                seen[bit] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "offset mapping must cover every bit");
    }

    #[test]
    fn display_names() {
        let s = InjectionSite { family: FormatFamily::Bfp, kind: SiteKind::Metadata };
        assert_eq!(s.to_string(), "BFP/metadata");
    }
}
