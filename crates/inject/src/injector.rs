//! Random fault sampling for injection campaigns: where to flip, seeded and
//! reproducible (the role PyTorchFI plays for the paper's tool).

use crate::site::{BitSampler, BitStrata, SiteKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampled fault location, before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Value or metadata flip.
    pub kind: SiteKind,
    /// Element index (value flips) or word index (metadata flips).
    pub index: usize,
    /// Bit position, 0 = MSB.
    pub bit: usize,
}

/// Why a fault could not be sampled: the requested fault space is empty.
///
/// Returned by the `try_*` sampling methods; the panicking variants use
/// its [`Display`](std::fmt::Display) text as their panic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmptyFaultSpace {
    /// The tensor has zero elements, so there are no value bits to flip.
    NoElements,
    /// The data word width is zero bits.
    ZeroBitWidth,
    /// There are no metadata bits to flip: the format carries no hardware
    /// metadata (e.g. plain FP or FxP), or its metadata words are 0 bits
    /// wide.
    NoMetadataWords,
}

impl std::fmt::Display for EmptyFaultSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmptyFaultSpace::NoElements => {
                write!(f, "empty fault space: tensor has 0 elements")
            }
            EmptyFaultSpace::ZeroBitWidth => {
                write!(f, "empty fault space: data width is 0 bits")
            }
            EmptyFaultSpace::NoMetadataWords => {
                write!(f, "empty fault space: format has no metadata words")
            }
        }
    }
}

impl std::error::Error for EmptyFaultSpace {}

/// Seeded sampler of fault locations.
///
/// # Examples
///
/// ```
/// use inject::{flip_value, Injector};
/// use formats::{FloatingPoint, NumberFormat};
/// use tensor::Tensor;
///
/// let fp = FloatingPoint::fp16();
/// let mut q = fp.real_to_format_tensor(&Tensor::ones([16]));
/// let mut inj = Injector::new(42);
/// let fault = inj.sample_value_fault(q.values.numel(), fp.bit_width() as usize);
/// let record = flip_value(&fp, &mut q, fault.index, fault.bit);
/// assert!(record.element < 16);
/// ```
#[derive(Debug)]
pub struct Injector {
    rng: StdRng,
}

impl Injector {
    /// Creates an injector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Injector { rng: StdRng::seed_from_u64(seed) }
    }

    /// Samples a uniform value-bit fault for a tensor of `numel` elements
    /// in a `bit_width`-bit format, or reports why the space is empty.
    pub fn try_sample_value_fault(
        &mut self,
        numel: usize,
        bit_width: usize,
    ) -> Result<Fault, EmptyFaultSpace> {
        if numel == 0 {
            return Err(EmptyFaultSpace::NoElements);
        }
        if bit_width == 0 {
            return Err(EmptyFaultSpace::ZeroBitWidth);
        }
        Ok(Fault {
            kind: SiteKind::Value,
            index: self.rng.gen_range(0..numel),
            bit: self.rng.gen_range(0..bit_width),
        })
    }

    /// Samples a uniform value-bit fault for a tensor of `numel` elements
    /// in a `bit_width`-bit format.
    ///
    /// # Panics
    ///
    /// Panics if `numel` or `bit_width` is zero.
    pub fn sample_value_fault(&mut self, numel: usize, bit_width: usize) -> Fault {
        match self.try_sample_value_fault(numel, bit_width) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Samples a value-bit fault under an explicit bit-position sampling
    /// policy, returning the fault and the stratum (0 = critical, 1 = rest)
    /// it landed in.
    ///
    /// With [`BitSampler::Uniform`] the RNG draw sequence is **identical**
    /// to [`Injector::try_sample_value_fault`] (element, then bit), so a
    /// campaign that switches to this entry point reproduces historical
    /// fault sequences bit-for-bit under the same seeds.
    pub fn try_sample_value_fault_with(
        &mut self,
        numel: usize,
        sampler: &BitSampler,
        strata: &BitStrata,
    ) -> Result<(Fault, usize), EmptyFaultSpace> {
        if numel == 0 {
            return Err(EmptyFaultSpace::NoElements);
        }
        if strata.width == 0 {
            return Err(EmptyFaultSpace::ZeroBitWidth);
        }
        let index = self.rng.gen_range(0..numel);
        let bit = match *sampler {
            BitSampler::Uniform => self.rng.gen_range(0..strata.width),
            BitSampler::Stratified { critical_mass } => {
                assert!(
                    critical_mass > 0.0 && critical_mass < 1.0,
                    "critical_mass must be in (0, 1), got {critical_mass}"
                );
                let u: f64 = self.rng.gen();
                // Degenerate strata (an empty critical field or a word that
                // is all critical) collapse to the non-empty stratum.
                let s = if (u < critical_mass && strata.len(0) > 0) || strata.len(1) == 0 {
                    0
                } else {
                    1
                };
                strata.bit_at(s, self.rng.gen_range(0..strata.len(s)))
            }
            BitSampler::Fixed(bit) => {
                assert!(
                    bit < strata.width,
                    "fixed bit {bit} is outside a {}-bit word",
                    strata.width
                );
                bit
            }
        };
        Ok((Fault { kind: SiteKind::Value, index, bit }, strata.stratum_of(bit)))
    }

    /// Samples a uniform metadata-bit fault given word count and width, or
    /// reports why the space is empty.
    pub fn try_sample_metadata_fault(
        &mut self,
        words: usize,
        word_width: usize,
    ) -> Result<Fault, EmptyFaultSpace> {
        if words == 0 || word_width == 0 {
            return Err(EmptyFaultSpace::NoMetadataWords);
        }
        Ok(Fault {
            kind: SiteKind::Metadata,
            index: self.rng.gen_range(0..words),
            bit: self.rng.gen_range(0..word_width),
        })
    }

    /// Samples a uniform metadata-bit fault given word count and width.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `word_width` is zero.
    pub fn sample_metadata_fault(&mut self, words: usize, word_width: usize) -> Fault {
        match self.try_sample_metadata_fault(words, word_width) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Access to the underlying RNG (for campaign-level sampling such as
    /// choosing a layer).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flip::{flip_metadata, flip_value};
    use formats::{BlockFloatingPoint, FloatingPoint, NumberFormat};
    use tensor::Tensor;

    #[test]
    fn deterministic_sampling() {
        let mut a = Injector::new(1);
        let mut b = Injector::new(1);
        for _ in 0..10 {
            assert_eq!(a.sample_value_fault(100, 8), b.sample_value_fault(100, 8));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Injector::new(1);
        let mut b = Injector::new(2);
        let fa: Vec<Fault> = (0..10).map(|_| a.sample_value_fault(1000, 32)).collect();
        let fb: Vec<Fault> = (0..10).map(|_| b.sample_value_fault(1000, 32)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn faults_stay_in_range() {
        let mut inj = Injector::new(3);
        for _ in 0..500 {
            let f = inj.sample_value_fault(17, 9);
            assert!(f.index < 17);
            assert!(f.bit < 9);
        }
    }

    #[test]
    fn random_value_injection_changes_at_most_one_element() {
        let fp = FloatingPoint::fp16();
        let x = Tensor::ones([32]);
        let mut inj = Injector::new(7);
        for _ in 0..20 {
            let mut q = fp.real_to_format_tensor(&x);
            let f = inj.sample_value_fault(q.values.numel(), fp.bit_width() as usize);
            let rec = flip_value(&fp, &mut q, f.index, f.bit);
            let changed = q
                .values
                .as_slice()
                .iter()
                .enumerate()
                .filter(|(i, &v)| v != x.as_slice()[*i])
                .count();
            assert!(changed <= 1, "one flip changed {changed} elements");
            if changed == 1 {
                assert_ne!(rec.old, rec.new);
            }
        }
    }

    #[test]
    fn uniform_sampler_reproduces_historical_draws() {
        // The sampler-aware entry point with `Uniform` must consume the RNG
        // exactly like the historical path: same seed → same faults.
        let strata = BitStrata { critical: 1..5, width: 8 };
        for seed in 0..20 {
            let mut a = Injector::new(seed);
            let mut b = Injector::new(seed);
            for _ in 0..5 {
                let legacy = a.sample_value_fault(37, 8);
                let (f, s) =
                    b.try_sample_value_fault_with(37, &BitSampler::Uniform, &strata).unwrap();
                assert_eq!(legacy, f);
                assert_eq!(s, strata.stratum_of(f.bit));
            }
        }
    }

    #[test]
    fn stratified_sampler_oversamples_critical_bits() {
        let strata = BitStrata { critical: 1..5, width: 16 }; // 4/16 of the word
        let sampler = BitSampler::Stratified { critical_mass: 0.75 };
        let mut inj = Injector::new(11);
        let mut critical = 0usize;
        const N: usize = 2000;
        for _ in 0..N {
            let (f, s) = inj.try_sample_value_fault_with(64, &sampler, &strata).unwrap();
            assert!(f.bit < 16);
            assert_eq!(s, strata.stratum_of(f.bit));
            critical += usize::from(s == 0);
        }
        let frac = critical as f64 / N as f64;
        assert!(
            (frac - 0.75).abs() < 0.05,
            "critical stratum got {frac:.3} of trials, wanted ~0.75 (uniform would give 0.25)"
        );
    }

    #[test]
    fn fixed_sampler_draws_only_the_element() {
        // The element draw is the uniform path's first draw; the bit is
        // the pinned one, not a second draw.
        let strata = BitStrata { critical: 1..5, width: 8 };
        for seed in 0..20 {
            let legacy = Injector::new(seed).sample_value_fault(37, 8);
            let (f, s) = Injector::new(seed)
                .try_sample_value_fault_with(37, &BitSampler::Fixed(6), &strata)
                .unwrap();
            assert_eq!((f.index, f.bit, s), (legacy.index, 6, 1));
        }
    }

    #[test]
    #[should_panic(expected = "fixed bit 8 is outside a 8-bit word")]
    fn fixed_sampler_rejects_bits_beyond_the_word() {
        let strata = BitStrata { critical: 1..5, width: 8 };
        let _ = Injector::new(0).try_sample_value_fault_with(4, &BitSampler::Fixed(8), &strata);
    }

    #[test]
    fn law_empty_fault_space_clear_errors() {
        // An empty space is a typed error naming why, never a draw.
        let mut inj = Injector::new(1);
        let err = inj.try_sample_value_fault(0, 8).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoElements);
        assert!(err.to_string().contains("0 elements"), "{err}");
        assert_eq!(inj.try_sample_value_fault(4, 0), Err(EmptyFaultSpace::ZeroBitWidth));
        // A format with no metadata quantises to zero metadata words.
        let fp = FloatingPoint::fp16();
        let q = fp.real_to_format_tensor(&Tensor::ones([4]));
        let (words, width) = (q.meta.word_count(), q.meta.word_width());
        let err = inj.try_sample_metadata_fault(words, width).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoMetadataWords);
        assert_eq!(inj.try_sample_metadata_fault(4, 0), Err(EmptyFaultSpace::NoMetadataWords));
    }

    #[test]
    fn random_metadata_injection_targets_valid_word() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::ones([16]); // 4 blocks
        let mut inj = Injector::new(9);
        for _ in 0..20 {
            let mut q = bfp.real_to_format_tensor(&x);
            let f = inj.sample_metadata_fault(q.meta.word_count(), q.meta.word_width());
            let rec = flip_metadata(&bfp, &mut q, f.index, f.bit);
            assert!(rec.word < 4);
            assert!(rec.bit < 5);
        }
    }
}
