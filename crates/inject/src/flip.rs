//! Bit-flip primitives over quantised tensors — the paper's error-injection
//! routine: Method 3 (value → bitstring), flip, Method 4 (bitstring →
//! value); plus the metadata analogue.

use formats::{Metadata, NumberFormat, Quantized};

/// A record of one executed value-bit flip.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueFlip {
    /// Flat element index within the tensor.
    pub element: usize,
    /// Bit position flipped (0 = MSB of the format's bit image).
    pub bit: usize,
    /// Value before the flip.
    pub old: f32,
    /// Value after the flip.
    pub new: f32,
}

/// A record of one executed metadata-bit flip.
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataFlip {
    /// Metadata word index (e.g. which block's shared exponent).
    pub word: usize,
    /// Bit position flipped within the word (0 = MSB).
    pub bit: usize,
    /// Metadata before the flip.
    pub old: Metadata,
    /// Metadata after the flip.
    pub new: Metadata,
}

/// Flips one bit of one data value in-place.
///
/// # Panics
///
/// Panics if `element` or `bit` is out of range.
pub fn flip_value(
    format: &dyn NumberFormat,
    q: &mut Quantized,
    element: usize,
    bit: usize,
) -> ValueFlip {
    flip_value_multi(format, q, element, &[bit])
}

/// Flips several bits of one data value in-place (multi-bit upset):
/// Method 3 encodes the value, the bits flip, and Method 4 decodes the
/// corrupted code.
///
/// # Panics
///
/// Panics if `element` or any bit is out of range.
pub fn flip_value_multi(
    format: &dyn NumberFormat,
    q: &mut Quantized,
    element: usize,
    bits_to_flip: &[usize],
) -> ValueFlip {
    assert!(element < q.values.numel(), "element {element} out of range");
    let old = q.values.as_slice()[element];
    let mut bits = format.real_to_format(old, &q.meta, element);
    for &b in bits_to_flip {
        assert!(b < bits.len(), "bit {b} out of range for {}-bit values", bits.len());
        bits.flip(b);
    }
    let new = format.format_to_real(&bits, &q.meta, element);
    q.values.as_mut_slice()[element] = new;
    ValueFlip { element, bit: bits_to_flip.first().copied().unwrap_or(0), old, new }
}

/// Flips one bit of one metadata word in-place, re-interpreting the stored
/// values under the corrupted register (INT scale / BFP shared exponent /
/// AFP bias).
///
/// # Panics
///
/// Panics if the format has no metadata, or `word`/`bit` is out of range.
pub fn flip_metadata(
    format: &dyn NumberFormat,
    q: &mut Quantized,
    word: usize,
    bit: usize,
) -> MetadataFlip {
    assert!(format.supports_metadata_injection(), "{} has no injectable metadata", format.name());
    let old = q.meta.clone();
    let bits =
        q.meta.word_bits(word).unwrap_or_else(|| panic!("metadata word {word} out of range"));
    assert!(bit < bits.len(), "bit {bit} out of range for metadata word");
    let new = q.meta.with_word_bits(word, &bits.with_flip(bit));
    q.values = format.apply_metadata(&q.values, &old, &new);
    q.meta = new.clone();
    MetadataFlip { word, bit, old, new }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formats::{BlockFloatingPoint, FloatingPoint, IntQuant};
    use tensor::Tensor;

    #[test]
    fn value_flip_changes_exactly_one_element() {
        let fp = FloatingPoint::fp8_e4m3();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let mut q = fp.real_to_format_tensor(&x);
        let rec = flip_value(&fp, &mut q, 2, 0);
        assert_eq!(rec.old, 3.0);
        assert_eq!(rec.new, -3.0); // sign flip
        assert_eq!(q.values.as_slice(), &[1.0, 2.0, -3.0, 4.0]);
    }

    #[test]
    fn value_flip_twice_restores() {
        let fp = FloatingPoint::fp16();
        let x = Tensor::from_vec(vec![0.7, -1.3], [2]);
        let mut q = fp.real_to_format_tensor(&x);
        let orig = q.values.clone();
        for bit in 0..16 {
            flip_value(&fp, &mut q, 0, bit);
            flip_value(&fp, &mut q, 0, bit);
            assert_eq!(q.values, orig, "double flip of bit {bit} not identity");
        }
    }

    #[test]
    fn multi_bit_flip() {
        let int8 = IntQuant::new(8);
        let x = Tensor::from_vec(vec![10.0, 20.0], [2]);
        let mut q = int8.real_to_format_tensor(&x);
        let old = q.values.as_slice()[0];
        // Flip two low bits of element 0's code.
        let rec = flip_value_multi(&int8, &mut q, 0, &[6, 7]);
        assert_eq!(rec.old, old);
        assert_ne!(rec.new, old);
        // Flip them back.
        flip_value_multi(&int8, &mut q, 0, &[6, 7]);
        assert!((q.values.as_slice()[0] - old).abs() < 1e-6);
    }

    #[test]
    fn metadata_flip_corrupts_whole_block() {
        let bfp = BlockFloatingPoint::new(5, 5, 2);
        let x = Tensor::from_vec(vec![4.0, 2.0, 0.5, 0.25], [4]);
        let mut q = bfp.real_to_format_tensor(&x);
        let before = q.values.clone();
        let rec = flip_metadata(&bfp, &mut q, 1, 4); // block 1's exponent LSB
        assert_ne!(rec.old, rec.new);
        // Block 0 untouched; block 1 scaled.
        assert_eq!(q.values.as_slice()[0], before.as_slice()[0]);
        assert_eq!(q.values.as_slice()[1], before.as_slice()[1]);
        let r = q.values.as_slice()[2] / before.as_slice()[2];
        assert!(r == 2.0 || r == 0.5, "ratio {r}");
    }

    #[test]
    fn metadata_flip_twice_restores() {
        let int8 = IntQuant::new(8);
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25], [3]);
        let mut q = int8.real_to_format_tensor(&x);
        let orig_vals = q.values.clone();
        let orig_meta = q.meta.clone();
        flip_metadata(&int8, &mut q, 0, 9);
        flip_metadata(&int8, &mut q, 0, 9);
        assert_eq!(q.meta, orig_meta);
        for (a, b) in q.values.as_slice().iter().zip(orig_vals.as_slice()) {
            assert!((a - b).abs() <= b.abs() * 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "no injectable metadata")]
    fn metadata_flip_on_fp_panics() {
        let fp = FloatingPoint::fp16();
        let mut q = fp.real_to_format_tensor(&Tensor::ones([2]));
        flip_metadata(&fp, &mut q, 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_flip_bad_element_panics() {
        let fp = FloatingPoint::fp16();
        let mut q = fp.real_to_format_tensor(&Tensor::ones([2]));
        flip_value(&fp, &mut q, 5, 0);
    }
}
