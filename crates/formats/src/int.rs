//! Integer quantisation: a fixed-point format with no fractional bits and a
//! per-tensor scale factor that uniformly maps f32 values onto a symmetric
//! signed-integer grid. The scale factor is hardware metadata (an FP32
//! register) and an injection target — error site #6 in the paper.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::metadata::Metadata;
use tensor::Tensor;

/// The widest INT whose Method 1 runs in f32 ([`IntQuant::code_f32`]):
/// its codes have at most 23 magnitude bits, so `qmax` and every rounded
/// code are exact in f32, and `code · scale` (≤ 23 by 24 significand bits)
/// is exact in f64 — f32's one rounding of it gives the f64 path's value,
/// subnormals included. int:25 to int:32 stay on the f64 path.
const F32_EXACT_BITS: u32 = 24;

/// Symmetric integer quantisation with `bits` total bits (sign included).
///
/// `scale = max|x| / (2^(bits-1) − 1)` is computed per tensor; codes are
/// clamped to `±(2^(bits-1) − 1)` (symmetric, as in the paper's Table I:
/// INT8 spans −127..127).
///
/// # Examples
///
/// ```
/// use formats::{IntQuant, NumberFormat, Metadata};
/// use tensor::Tensor;
/// let int8 = IntQuant::new(8);
/// let x = Tensor::from_vec(vec![-1.0, 0.5, 1.27], [3]);
/// let q = int8.real_to_format_tensor(&x);
/// assert_eq!(q.meta, Metadata::Scale(1.27 / 127.0));
/// assert_eq!(q.values.as_slice()[2], 1.27);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntQuant {
    bits: u32,
}

impl IntQuant {
    /// Creates a `bits`-wide symmetric integer quantiser.
    ///
    /// # Panics
    ///
    /// Panics if `bits ∉ 2..=32`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=32).contains(&bits), "INT width {bits} out of range 2..=32");
        IntQuant { bits }
    }

    /// Total bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest positive code: `2^(bits-1) − 1`.
    pub fn qmax(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    fn code_of(&self, value: f32, scale: f32) -> i64 {
        Self::code(value, scale, self.qmax() as f64) as i64
    }

    /// The integer code of `value` under `scale`, as an f64: `value /
    /// scale` rounded ties-to-even and clamped to `±qmax`. An infinite
    /// value, or any value over a zero scale, saturates by its sign, and
    /// NaN maps to code 0. Branch-free, so the tensor map vectorises;
    /// `qmax` is a parameter so the loop holds it in a register.
    #[inline]
    fn code(value: f32, scale: f32, qmax: f64) -> f64 {
        // `· Inf` gives ±Inf (clamped to ±qmax) or, for ±0 and NaN, NaN.
        let r =
            if value.is_infinite() || scale == 0.0 { value * f32::INFINITY } else { value / scale };
        let q = crate::fp::round_ties_even(r as f64);
        // `+ 0.0` turns a −0.0 code into +0.0, like the integer it stands for.
        if q.is_nan() {
            0.0
        } else {
            q.clamp(-qmax, qmax) + 0.0
        }
    }

    /// [`code`](Self::code) in f32, for widths up to [`F32_EXACT_BITS`]
    /// (`qmax < 2^23`); the same value, bit for bit. `value / scale`
    /// already is an f32. Below 2^23 the add-and-subtract of 2^23 rounds
    /// `|r|` ties-to-even
    /// and both steps are exact; at or above it the sum is at least 2^23,
    /// over every `qmax < 2^23`, so the clamp gives `qmax` as the f64 path
    /// does (for int:25 and wider it would not). `qmax` is exact in f32.
    #[inline]
    fn code_f32(value: f32, scale: f32, qmax: f32) -> f32 {
        const TWO_23: f32 = 8_388_608.0;
        let r =
            if value.is_infinite() || scale == 0.0 { value * f32::INFINITY } else { value / scale };
        let q = ((r.abs() + TWO_23) - TWO_23).min(qmax).copysign(r);
        // `f32::min` drops a NaN operand, so NaN is mapped here, not by
        // the clamp; `+ 0.0` turns a −0.0 code into +0.0.
        if r.is_nan() {
            0.0
        } else {
            q + 0.0
        }
    }

    fn expect_scale(meta: &Metadata) -> f32 {
        match meta {
            Metadata::Scale(s) => *s,
            other => panic!("IntQuant expects Scale metadata, got {other:?}"),
        }
    }
}

impl NumberFormat for IntQuant {
    fn name(&self) -> String {
        format!("int{}", self.bits)
    }

    fn canonical_spec(&self) -> String {
        format!("int:{}", self.bits)
    }

    fn bit_width(&self) -> u32 {
        self.bits
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        // Chunked max reduction (bit-identical to `Tensor::max_abs`: f32
        // max is exact, so regrouping cannot change it), then a chunked map
        // with the scale fixed. A zero tensor gets scale 1.0 so decoding
        // stays well-defined.
        let m = crate::chunk::max_abs_chunked(t);
        let scale = if m == 0.0 { 1.0 } else { m / self.qmax() as f32 };
        let qmax = self.qmax();
        let values = if self.bits <= F32_EXACT_BITS {
            let qmax = qmax as f32;
            crate::chunk::map_chunked(t, move |x| Self::code_f32(x, scale, qmax) * scale)
        } else {
            let qmax = qmax as f64;
            let f = move |x| (Self::code(x, scale, qmax) * scale as f64) as f32;
            crate::chunk::map_chunked(t, f)
        };
        Quantized { values, meta: Metadata::Scale(scale) }
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, _index: usize) -> Bitstring {
        let scale = Self::expect_scale(meta);
        let code = self.code_of(value, scale);
        let w = self.bits as usize;
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        Bitstring::from_u64((code as u64) & mask, w)
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, _index: usize) -> f32 {
        let scale = Self::expect_scale(meta);
        // The grid is symmetric (Table I: INT8 spans −127..127); the
        // two's-complement pattern for −2^(b−1) is an alias of −qmax, so
        // decode→encode→decode stays a fixpoint (law `round-trip`).
        let code = bits.to_i64().clamp(-self.qmax(), self.qmax());
        (code as f64 * scale as f64) as f32
    }

    fn dynamic_range(&self) -> DynamicRange {
        // Table I reports the unscaled code range: max 2^(b-1)−1, min
        // (non-zero) 1.
        DynamicRange { max_abs: self.qmax() as f64, min_abs: 1.0 }
    }

    fn supports_metadata_injection(&self) -> bool {
        true
    }

    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        let old_s = Self::expect_scale(old);
        let new_s = Self::expect_scale(new);
        if old_s == new_s {
            return values.clone();
        }
        // Hardware keeps the stored integer codes; only the FP32 scale
        // register changed. Recover each code and redo the dequantising
        // multiply — the old ratio-based rescale lost the code grid (and
        // divided by zero for a zeroed-out register).
        values.map(|x| (self.code_of(x, old_s) as f64 * new_s as f64) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_codes_and_scale() {
        let f = IntQuant::new(8);
        let x = Tensor::from_vec(vec![-2.54, 0.0, 1.27, 2.54], [4]);
        let q = f.real_to_format_tensor(&x);
        let scale = 2.54f32 / 127.0;
        assert_eq!(q.meta, Metadata::Scale(scale));
        assert_eq!(q.values.as_slice()[0], -2.54);
        assert_eq!(q.values.as_slice()[1], 0.0);
        assert_eq!(q.values.as_slice()[3], 2.54);
    }

    #[test]
    fn zero_tensor_gets_unit_scale() {
        let f = IntQuant::new(8);
        let q = f.real_to_format_tensor(&Tensor::zeros([4]));
        assert_eq!(q.meta, Metadata::Scale(1.0));
        assert_eq!(q.values.sum_all(), 0.0);
    }

    #[test]
    fn bitstring_roundtrip() {
        let f = IntQuant::new(8);
        let meta = Metadata::Scale(0.1);
        for code in [-127i64, -1, 0, 1, 42, 127] {
            let v = code as f32 * 0.1;
            let bits = f.real_to_format(v, &meta, 0);
            let back = f.format_to_real(&bits, &meta, 0);
            assert!((back - v).abs() < 1e-6, "code {code}: {v} → {back}");
        }
    }

    #[test]
    fn msb_flip_is_catastrophic() {
        // Flipping the sign/MSB of a two's-complement code moves the value
        // by qmax+1 steps — the "single bit flip in INT8 can cause SDC"
        // observation the paper cites.
        let f = IntQuant::new(8);
        let meta = Metadata::Scale(1.0);
        let bits = f.real_to_format(5.0, &meta, 0);
        let v = f.format_to_real(&bits.with_flip(0), &meta, 0);
        assert_eq!(v, 5.0 - 128.0);
    }

    #[test]
    fn scale_metadata_injection_rescales_tensor() {
        let f = IntQuant::new(8);
        let x = Tensor::from_vec(vec![1.0, -0.5], [2]);
        let q = f.real_to_format_tensor(&x);
        let bits = q.meta.word_bits(0).unwrap();
        // Flip the exponent LSB of the scale register: scale doubles or
        // halves; the tensor follows multiplicatively.
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(8));
        let y = f.apply_metadata(&q.values, &q.meta, &corrupted);
        let (Metadata::Scale(old_s), Metadata::Scale(new_s)) = (&q.meta, &corrupted) else {
            panic!("wrong metadata kinds")
        };
        let ratio = *new_s as f64 / *old_s as f64;
        assert!(ratio == 2.0 || ratio == 0.5, "ratio {ratio}");
        let expect = (q.values.as_slice()[0] as f64 * ratio) as f32;
        assert!((y.as_slice()[0] - expect).abs() <= expect.abs() * 1e-6);
    }

    #[test]
    fn table1_int_ranges() {
        assert_eq!(IntQuant::new(8).dynamic_range().max_abs, 127.0);
        assert!((IntQuant::new(8).dynamic_range().db() - 42.08).abs() < 0.01);
        assert_eq!(IntQuant::new(16).dynamic_range().max_abs, 32767.0);
    }

    #[test]
    fn saturating_beyond_scale_range() {
        let f = IntQuant::new(4); // qmax = 7
        let meta = Metadata::Scale(1.0);
        let bits = f.real_to_format(100.0, &meta, 0);
        assert_eq!(f.format_to_real(&bits, &meta, 0), 7.0);
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        // Law `round-trip`: decode→encode→decode is a bitwise fixpoint for
        // every code (the INT analogue of
        // fp.rs::encode_decode_roundtrip_all_codes). Scale 2^−5 keeps
        // code·scale exact in f32 so the grid recovery is lossless.
        for width in [4u32, 8, 16] {
            let f = IntQuant::new(width);
            let meta = Metadata::Scale(0.03125);
            for code in 0..(1u64 << width) {
                let b1 = Bitstring::from_u64(code, width as usize);
                let v1 = f.format_to_real(&b1, &meta, 0);
                let b2 = f.real_to_format(v1, &meta, 0);
                let v2 = f.format_to_real(&b2, &meta, 0);
                assert_eq!(v1.to_bits(), v2.to_bits(), "int{width} code {code:#x}: {v1} → {v2}");
            }
        }
    }

    #[test]
    fn law_range_containment_most_negative_code() {
        // Laws `round-trip` + `range-containment`: the two's-complement
        // pattern −2^(b−1) must decode inside the symmetric ±qmax grid
        // (Table I: INT8 spans −127..127) — it aliases −qmax. Before the
        // fix it decoded to −128·scale, outside `dynamic_range()`, and
        // decode→encode→decode was not a fixpoint on it.
        let f = IntQuant::new(8);
        let meta = Metadata::Scale(1.0);
        let b = Bitstring::from_u64(0x80, 8);
        let v = f.format_to_real(&b, &meta, 0);
        assert_eq!(v, -127.0);
        assert!((v.abs() as f64) <= f.dynamic_range().max_abs);
    }

    #[test]
    fn law_meta_flip_keeps_code_grid() {
        // Law `meta-flip-range`: after a scale-register flip the stored
        // values must lie on the *new* code grid {−qmax..qmax}·new_scale —
        // hardware keeps the integer codes and only the dequantising
        // multiply changes. The old ratio-based rescale drifted off-grid
        // (double rounding) and divided by zero for a zeroed register.
        let f = IntQuant::new(8);
        let x = Tensor::from_vec(vec![1.0, -0.62, 0.003], [3]);
        let q = f.real_to_format_tensor(&x);
        let old_s = IntQuant::expect_scale(&q.meta);
        let new_s = old_s * 3.7;
        let y = f.apply_metadata(&q.values, &q.meta, &Metadata::Scale(new_s));
        for (i, (&v0, &v1)) in q.values.as_slice().iter().zip(y.as_slice()).enumerate() {
            let code = f.code_of(v0, old_s);
            assert_eq!(v1, (code as f64 * new_s as f64) as f32, "element {i}");
            assert!(code.abs() <= f.qmax());
        }
    }

    /// `code_of` as it was before the branch-free rewrite: a guard for
    /// non-finite values and zero scales, then an integer clamp.
    fn code_oracle(f: &IntQuant, value: f32, scale: f32) -> i64 {
        if !value.is_finite() || scale == 0.0 {
            return if value > 0.0 {
                f.qmax()
            } else if value < 0.0 {
                -f.qmax()
            } else {
                0
            };
        }
        let q = crate::fp::round_ties_even((value / scale) as f64);
        (q as i64).clamp(-f.qmax(), f.qmax())
    }

    #[test]
    fn code_matches_guarded_oracle() {
        // Every value against every scale a tensor or a flipped scale
        // register can hold: ±0, subnormal, negative, ±Inf and NaN.
        let specials = [0.0, -0.0, 1e-45, -1e-45, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let values: Vec<f32> =
            (0..2000).map(|i| ((i as f32) * 0.37).sin() * 300.0).chain(specials).collect();
        let scales = specials.iter().copied().chain([0.01, -0.02, 1.0, 3.0e38, 1e-40, 1e-7]);
        for bits in [2, 4, 8, 16, 24, 25, 32] {
            let f = IntQuant::new(bits);
            for scale in scales.clone() {
                for &x in &values {
                    let (got, want) = (f.code_of(x, scale), code_oracle(&f, x, scale));
                    assert_eq!(got, want, "int{bits} x = {x:e}, scale = {scale:e}");
                    let code = IntQuant::code(x, scale, f.qmax() as f64);
                    assert_eq!(code.to_bits(), (want as f64).to_bits());
                    if bits <= F32_EXACT_BITS {
                        let got = IntQuant::code_f32(x, scale, f.qmax() as f32);
                        assert_eq!(got.to_bits(), (want as f32).to_bits(), "int{bits} f32 code");
                    }
                }
            }
        }
    }

    /// Random finite f32 bit patterns of either sign whose biased exponent
    /// is at most `top`, plus one element at the top binade.
    fn random_below(seed: u64, top: u32, n: usize) -> Vec<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f32> = (0..n)
            .map(|_| {
                let e = rng.gen_range(top.saturating_sub(30)..=top);
                f32::from_bits((rng.gen::<u32>() & 0x807f_ffff) | (e << 23))
            })
            .collect();
        x.push(f32::from_bits((top << 23) | 0x007f_ffff));
        x
    }

    #[test]
    fn tensor_path_matches_guarded_oracle() {
        // Every width on both sides of the f32 path's limit (int:24 runs
        // in f32, int:25 in f64), under every kernel. Including tensors
        // whose scale underflows to +0.0 (a subnormal max) or is +Inf (an
        // Inf element), tensors whose scale or products are subnormal, and
        // one near f32::MAX. For int:25 the ramp's codes fill
        // [2^23, 2^24), where f32's add-and-subtract of 2^23 would round
        // odd codes away.
        let mut tensors: Vec<Vec<f32>> = vec![
            (0..4000)
                .map(|i| ((i as f32) * 0.37).sin() * 3.0)
                .chain([0.0, -0.0, f32::NAN])
                .collect(),
            vec![1e-45, -1e-45, 0.0, -0.0, f32::NAN],
            vec![f32::INFINITY, 2.5, -0.0, f32::NAN, -7.0, f32::NEG_INFINITY],
        ];
        for (seed, top) in [(1, 0), (2, 1), (3, 30), (4, 127), (5, 160), (6, 254)] {
            tensors.push(random_below(seed, top, 3000));
        }
        crate::chunk::for_each_kernel(|kern| {
            for bits in [2, 4, 8, 16, 24, 25, 32] {
                let f = IntQuant::new(bits);
                for data in &tensors {
                    let t = Tensor::from_vec(data.clone(), [data.len()]);
                    let q = f.real_to_format_tensor(&t);
                    let scale = IntQuant::expect_scale(&q.meta);
                    for (&x, &v) in t.as_slice().iter().zip(q.values.as_slice()) {
                        let want = (code_oracle(&f, x, scale) as f64 * scale as f64) as f32;
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "int{bits} {kern}: x = {x:e}, scale = {scale:e}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn law_meta_flip_zeroed_scale_register() {
        // A flip that zeroes the scale register collapses the tensor to
        // zero — the dequantising multiply is code·0 — instead of leaving
        // stale values behind.
        let f = IntQuant::new(8);
        let x = Tensor::from_vec(vec![1.0, -0.5], [2]);
        let q = f.real_to_format_tensor(&x);
        let y = f.apply_metadata(&q.values, &q.meta, &Metadata::Scale(0.0));
        assert_eq!(y.as_slice(), &[0.0, 0.0]);
    }
}
