//! Random fault sampling for injection campaigns: where to flip, seeded and
//! reproducible (the role PyTorchFI plays for the paper's tool).

use crate::flip::{flip_metadata, flip_value, MetadataFlip, ValueFlip};
use crate::site::{BitSampler, BitStrata, SiteKind};
use formats::{NumberFormat, Quantized};
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
/// its [`Display`](std::fmt::Display) text as their panic message, so an
/// empty tensor is no longer misreported as "format has no metadata words".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmptyFaultSpace {
    /// The tensor has zero elements, so there are no value bits to flip.
    NoElements,
    /// The data word width is zero bits.
    ZeroBitWidth,
    /// The format carries no hardware metadata (e.g. plain FP or FxP).
    NoMetadataWords,
    /// The format does carry metadata, but quantising a 0-element tensor
    /// produced zero metadata words, so there is nothing to flip.
    EmptyTensorMetadata,
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
            EmptyFaultSpace::EmptyTensorMetadata => {
                write!(
                    f,
                    "empty fault space: 0-element tensor produced no metadata words \
                     (the format does carry metadata; quantise a non-empty tensor)"
                )
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
/// use inject::Injector;
/// use formats::{FloatingPoint, NumberFormat};
/// use tensor::Tensor;
///
/// let fp = FloatingPoint::fp16();
/// let mut q = fp.real_to_format_tensor(&Tensor::ones([16]));
/// let mut inj = Injector::new(42);
/// let record = inj.inject_random_value(&fp, &mut q);
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
        };
        Ok((Fault { kind: SiteKind::Value, index, bit }, strata.stratum_of(bit)))
    }

    /// Samples one value fault per trial seed, each from its own fresh
    /// RNG — draw-for-draw identical to running the per-trial path once per
    /// seed.
    ///
    /// The fault space is validated up front, so an empty batch (or a batch
    /// of one) over an empty space reports the same typed
    /// [`EmptyFaultSpace`] error the per-trial path would.
    pub fn try_sample_value_fault_batch(
        seeds: &[u64],
        numel: usize,
        sampler: &BitSampler,
        strata: &BitStrata,
    ) -> Result<Vec<(Fault, usize)>, EmptyFaultSpace> {
        if numel == 0 {
            return Err(EmptyFaultSpace::NoElements);
        }
        if strata.width == 0 {
            return Err(EmptyFaultSpace::ZeroBitWidth);
        }
        seeds
            .iter()
            .map(|&s| Injector::new(s).try_sample_value_fault_with(numel, sampler, strata))
            .collect()
    }

    /// Samples one metadata fault per trial seed, each from its own fresh
    /// RNG (see [`Injector::try_sample_value_fault_batch`]). The word space
    /// is validated up front so empty batches report the same typed error
    /// as the per-trial path.
    pub fn try_sample_metadata_fault_batch(
        seeds: &[u64],
        words: usize,
        word_width: usize,
    ) -> Result<Vec<Fault>, EmptyFaultSpace> {
        if words == 0 || word_width == 0 {
            return Err(EmptyFaultSpace::NoMetadataWords);
        }
        seeds
            .iter()
            .map(|&s| Injector::new(s).try_sample_metadata_fault(words, word_width))
            .collect()
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

    /// Samples and executes a random single-bit value flip on `q`, or
    /// reports an empty fault space (0-element tensor).
    pub fn try_inject_random_value(
        &mut self,
        format: &dyn NumberFormat,
        q: &mut Quantized,
    ) -> Result<ValueFlip, EmptyFaultSpace> {
        let f = self.try_sample_value_fault(q.values.numel(), format.bit_width() as usize)?;
        Ok(flip_value(format, q, f.index, f.bit))
    }

    /// Samples and executes a random single-bit value flip on `q`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has 0 elements.
    pub fn inject_random_value(
        &mut self,
        format: &dyn NumberFormat,
        q: &mut Quantized,
    ) -> ValueFlip {
        match self.try_inject_random_value(format, q) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Samples and executes a random single-bit metadata flip on `q`, or
    /// reports an empty fault space — distinguishing a format with no
    /// metadata from a metadata-carrying format handed a 0-element tensor
    /// (which quantises to zero metadata words).
    pub fn try_inject_random_metadata(
        &mut self,
        format: &dyn NumberFormat,
        q: &mut Quantized,
    ) -> Result<MetadataFlip, EmptyFaultSpace> {
        let f = self.try_sample_metadata_fault(q.meta.word_count(), q.meta.word_width()).map_err(
            |e| {
                if e == EmptyFaultSpace::NoMetadataWords
                    && format.supports_metadata_injection()
                    && q.values.numel() == 0
                {
                    EmptyFaultSpace::EmptyTensorMetadata
                } else {
                    e
                }
            },
        )?;
        Ok(flip_metadata(format, q, f.index, f.bit))
    }

    /// Samples and executes a random single-bit metadata flip on `q`.
    ///
    /// # Panics
    ///
    /// Panics if the format carries no metadata, or if the tensor is empty
    /// (zero metadata words).
    pub fn inject_random_metadata(
        &mut self,
        format: &dyn NumberFormat,
        q: &mut Quantized,
    ) -> MetadataFlip {
        match self.try_inject_random_metadata(format, q) {
            Ok(r) => r,
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
    use formats::{BlockFloatingPoint, FloatingPoint};
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
            let rec = inj.inject_random_value(&fp, &mut q);
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
    fn batch_of_one_matches_per_trial_path() {
        let strata = BitStrata { critical: 1..4, width: 9 };
        for seed in [3u64, 17, 92] {
            let batch =
                Injector::try_sample_value_fault_batch(&[seed], 23, &BitSampler::Uniform, &strata)
                    .unwrap();
            let solo = Injector::new(seed).sample_value_fault(23, 9);
            assert_eq!(batch, vec![(solo, strata.stratum_of(solo.bit))]);
            let mbatch = Injector::try_sample_metadata_fault_batch(&[seed], 4, 5).unwrap();
            let msolo = Injector::new(seed).sample_metadata_fault(4, 5);
            assert_eq!(mbatch, vec![msolo]);
        }
    }

    #[test]
    fn empty_batches_report_typed_fault_space_errors() {
        // An empty batch over an empty fault space must surface the same
        // typed error the per-trial path reports — not silently succeed.
        let strata = BitStrata { critical: 0..2, width: 8 };
        let err = Injector::try_sample_value_fault_batch(&[], 0, &BitSampler::Uniform, &strata)
            .unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoElements);
        let zero_width = BitStrata { critical: 0..0, width: 0 };
        let err =
            Injector::try_sample_value_fault_batch(&[1], 5, &BitSampler::Uniform, &zero_width)
                .unwrap_err();
        assert_eq!(err, EmptyFaultSpace::ZeroBitWidth);
        let err = Injector::try_sample_metadata_fault_batch(&[], 0, 5).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoMetadataWords);
        // A non-empty space with an empty batch is simply zero faults.
        let ok = Injector::try_sample_value_fault_batch(&[], 5, &BitSampler::Uniform, &strata);
        assert_eq!(ok.unwrap(), vec![]);
    }

    #[test]
    fn law_empty_fault_space_clear_errors() {
        // A 0-element tensor must report an empty fault space explicitly —
        // not the misleading "format has no metadata words" (the format
        // *does* carry metadata; the tensor just produced zero words).
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let mut inj = Injector::new(1);
        let mut q = bfp.real_to_format_tensor(&Tensor::zeros([0]));
        let err = inj.try_inject_random_metadata(&bfp, &mut q).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::EmptyTensorMetadata);
        assert!(err.to_string().contains("0-element tensor"), "{err}");
        let err = inj.try_inject_random_value(&bfp, &mut q).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoElements);
        // A format with no metadata at all reports that, even on a
        // non-empty tensor.
        let fp = FloatingPoint::fp16();
        let mut q = fp.real_to_format_tensor(&Tensor::ones([4]));
        let err = inj.try_inject_random_metadata(&fp, &mut q).unwrap_err();
        assert_eq!(err, EmptyFaultSpace::NoMetadataWords);
    }

    #[test]
    fn random_metadata_injection_targets_valid_word() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::ones([16]); // 4 blocks
        let mut inj = Injector::new(9);
        for _ in 0..20 {
            let mut q = bfp.real_to_format_tensor(&x);
            let rec = inj.inject_random_metadata(&bfp, &mut q);
            assert!(rec.word < 4);
            assert!(rec.bit < 5);
        }
    }
}
