//! Block floating point: blocks of values share one exponent register.
//!
//! Value-wise BFP resembles FP, but in hardware the shared exponent lives
//! once per block, so a single bit flip there corrupts the *entire block* —
//! the multi-bit-flip equivalence the paper highlights (§II-B). The shared
//! exponents are exposed as [`Metadata::SharedExponents`] — error site #7.
//!
//! Unlike QPyTorch's BFP (whose exponent is pegged to 8 bits — a limitation
//! the paper calls out), the exponent width here is configurable.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::fp::{exp2, exponent_of, f32_saturate, round_ties_even};
use crate::metadata::Metadata;
use tensor::Tensor;

/// A block-floating-point format: `exp_bits`-wide shared exponent per
/// block of `block_size` elements; each element stores sign + `man_bits`
/// of magnitude aligned to the block exponent.
///
/// # Examples
///
/// ```
/// use formats::{BlockFloatingPoint, NumberFormat};
/// use tensor::Tensor;
/// let bfp = BlockFloatingPoint::new(5, 5, 4);
/// let x = Tensor::from_vec(vec![8.0, 1.0, 0.25, 0.01], [4]);
/// let q = bfp.real_to_format_tensor(&x);
/// // 0.01 is far below the block's (max-driven) resolution: rounded to 0.
/// assert_eq!(q.values.as_slice()[3], 0.0);
/// assert_eq!(q.values.as_slice()[0], 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFloatingPoint {
    exp_bits: u32,
    man_bits: u32,
    block_size: usize,
}

impl BlockFloatingPoint {
    /// Creates a BFP format.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits ∉ 2..=11`, `man_bits ∉ 1..=23`, or
    /// `block_size == 0`.
    pub fn new(exp_bits: u32, man_bits: u32, block_size: usize) -> Self {
        assert!((2..=11).contains(&exp_bits), "exponent width {exp_bits} out of range");
        assert!((1..=23).contains(&man_bits), "mantissa width {man_bits} out of range");
        assert!(block_size > 0, "block size must be positive");
        BlockFloatingPoint { exp_bits, man_bits, block_size }
    }

    /// Creates a BFP format whose block is the *entire tensor* — one
    /// shared exponent per layer, the configuration the paper's §IV
    /// experiments discuss ("a large shared block size across an entire
    /// layer").
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits ∉ 2..=11` or `man_bits ∉ 1..=23`.
    pub fn per_tensor(exp_bits: u32, man_bits: u32) -> Self {
        Self::new(exp_bits, man_bits, usize::MAX)
    }

    /// Whether the block spans the whole tensor.
    pub fn is_per_tensor(&self) -> bool {
        self.block_size == usize::MAX
    }

    /// Shared-exponent width in bits.
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Per-element mantissa width in bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Elements per shared exponent.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn bias(&self) -> i64 {
        (1i64 << (self.exp_bits - 1)) - 1
    }

    fn max_code(&self) -> i64 {
        (1i64 << self.exp_bits) - 1
    }

    /// The biased exponent code chosen for a block with maximum magnitude
    /// `max_abs`.
    #[inline(always)]
    fn code_for_block(&self, max_abs: f64) -> u32 {
        if max_abs == 0.0 {
            return 0;
        }
        if !max_abs.is_finite() {
            // An Inf element pins the block at the top exponent code.
            return self.max_code() as u32;
        }
        let e = exponent_of(max_abs);
        (e + self.bias()).clamp(0, self.max_code()) as u32
    }

    /// Quantisation step for a block: `2^(shared − m + 1)`.
    fn step_for_code(&self, code: u32) -> f64 {
        exp2(self.step_exp(code))
    }

    /// The step's exponent `shared − m + 1`.
    fn step_exp(&self, code: u32) -> i64 {
        code as i64 - self.bias() - self.man_bits as i64 + 1
    }

    fn mag_max(&self) -> i64 {
        (1i64 << self.man_bits) - 1
    }

    /// Method 1 for one block with register code `code`.
    ///
    /// `|x| / step` is computed as `|x| · (1 / step)`. The step is a power
    /// of two, so whenever its reciprocal is a finite normal f64 the
    /// product is exact and equals the quotient. Otherwise the output is
    /// the same anyway: a step of +Inf has reciprocal 0, and `a · 0` equals
    /// `a / Inf` for every `a`; a step at or below 2^−1024 makes every
    /// `±mag · step` (`mag ≤ mag_max`) underflow to the same signed f32
    /// zero, whichever magnitude the quotient would have given.
    ///
    /// A block whose `step`, `1 / step` and `mag_max · step` are all
    /// f32-normal runs in f32 ([`Self::quantize_block_f32`]), bit for bit
    /// the same; this holds for every code of e5m5. The rest (e8/e11 codes
    /// near their ends) take the f64 loop below.
    #[inline(always)]
    fn quantize_block(&self, code: u32, src: &[f32], out: &mut [f32]) {
        let k = self.step_exp(code);
        if self.runs_in_f32(k) {
            return self.quantize_block_f32(src, out, k);
        }
        let step = exp2(k);
        let mag_max = self.mag_max() as f64;
        let inv = 1.0 / step;
        for (v, &x) in out.iter_mut().zip(src) {
            // `is_sign_negative` (not `< 0.0`) so a −0.0 element keeps its
            // sign bit through the round trip (law `round-trip`), matching
            // `FpParams::encode`. NaN has no magnitude in BFP: it
            // quantises to (signed) zero, as in the scalar Method 3.
            let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
            let mag =
                if x.is_nan() { 0.0 } else { round_ties_even((x as f64).abs() * inv).min(mag_max) };
            *v = f32_saturate(sign * mag * step);
        }
    }

    /// Whether a block whose step is `2^k` runs in f32: `2^k` and `2^−k`
    /// are f32-normal for `|k| ≤ 126`, and `mag_max · 2^k = (2^m − 1) · 2^k`
    /// is at most `2^128 − 2^105`, under `f32::MAX`, exactly when
    /// `m + k ≤ 128` (`m ≤ 23`).
    #[inline]
    fn runs_in_f32(&self, k: i64) -> bool {
        (-126..=126).contains(&k) && k + self.man_bits as i64 <= 128
    }

    /// [`Self::quantize_block`]'s loop in f32, for a step `2^k` with `2^k`,
    /// `2^−k` and `mag_max · 2^k` f32-normal ([`Self::runs_in_f32`]). Each
    /// step gives the f64 loop's value:
    /// - `|x| · inv` scales by a normal power of two. It is exact unless
    ///   it leaves f32's normal range; below it the product is under 2^−126
    ///   and rounds to magnitude 0 either way, above it (Inf included) it
    ///   clamps to `mag_max` either way.
    /// - Below 2^23 the add-and-subtract of 2^23 rounds ties-to-even; at
    ///   or above it the sum exceeds `mag_max < 2^23` and clamps. NaN
    ///   (only from a NaN element) maps to magnitude 0.
    /// - `mag · step` has at most 23 significant bits, lies between `step`
    ///   and `mag_max · step` or is zero, so it is exact, finite and
    ///   normal: f64's product and its `f32_saturate` give the same value.
    #[inline(always)]
    fn quantize_block_f32(&self, src: &[f32], out: &mut [f32], k: i64) {
        const TWO_23: f32 = 8_388_608.0;
        let pow2 = |k: i64| f32::from_bits(((k + 127) as u32) << 23);
        let (step, inv) = (pow2(k), pow2(-k));
        let mag_max = self.mag_max() as f32;
        let element = move |x: f32| {
            let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
            let a = x.abs() * inv;
            let mag = if x.is_nan() { 0.0 } else { ((a + TWO_23) - TWO_23).min(mag_max) };
            sign * mag * step
        };
        crate::chunk::map_lanes(element, src, out);
    }

    fn codes_of(meta: &Metadata) -> (&[u32], usize) {
        match meta {
            Metadata::SharedExponents { codes, block_size, .. } => (codes, *block_size),
            other => panic!("BFP expects SharedExponents metadata, got {other:?}"),
        }
    }
}

impl NumberFormat for BlockFloatingPoint {
    fn name(&self) -> String {
        if self.is_per_tensor() {
            format!("bfp_e{}m{}_btensor", self.exp_bits, self.man_bits)
        } else {
            format!("bfp_e{}m{}_b{}", self.exp_bits, self.man_bits, self.block_size)
        }
    }

    fn canonical_spec(&self) -> String {
        if self.is_per_tensor() {
            format!("bfp:e{}m{}:tensor", self.exp_bits, self.man_bits)
        } else {
            format!("bfp:e{}m{}:b{}", self.exp_bits, self.man_bits, self.block_size)
        }
    }

    /// Per-element data width (sign + mantissa); the shared exponent is
    /// amortised metadata.
    fn bit_width(&self) -> u32 {
        1 + self.man_bits
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let (values, codes) = crate::chunk::quantize_blocks(
            t,
            self.block_size,
            #[inline(always)]
            |max_abs| self.code_for_block(max_abs as f64),
            #[inline(always)]
            |code, src, out| self.quantize_block(code, src, out),
        );
        Quantized {
            values: Tensor::from_buffer(values, t.shape().clone()),
            meta: Metadata::SharedExponents {
                codes,
                block_size: self.block_size,
                exp_bits: self.exp_bits,
            },
        }
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, index: usize) -> Bitstring {
        let (codes, bs) = Self::codes_of(meta);
        let code = codes[index / bs];
        let step = self.step_for_code(code);
        // `is_sign_negative` so −0.0 encodes its sign bit (law `round-trip`:
        // decode→encode→decode must be a bitwise fixpoint, and a sign-bit
        // flip on a −0.0 element must report old ≠ new).
        let sign = (value.is_sign_negative()) as u64;
        let v = value as f64;
        let mag = if v.is_nan() {
            0
        } else {
            round_ties_even(v.abs() / step).min(self.mag_max() as f64) as u64
        };
        let m = self.man_bits as usize;
        Bitstring::from_u64((sign << m) | mag, 1 + m)
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, index: usize) -> f32 {
        let (codes, bs) = Self::codes_of(meta);
        assert_eq!(bits.len(), 1 + self.man_bits as usize, "BFP data width mismatch");
        let code = codes[index / bs];
        let step = self.step_for_code(code);
        let sign = if bits.bit(0) { -1.0 } else { 1.0 };
        let mag = bits.field(1, self.man_bits as usize).to_u64() as f64;
        f32_saturate(sign * mag * step)
    }

    fn dynamic_range(&self) -> DynamicRange {
        let emax = self.max_code() - self.bias();
        let emin = -self.bias();
        DynamicRange {
            max_abs: self.mag_max() as f64 * exp2(emax - self.man_bits as i64 + 1),
            min_abs: exp2(emin - self.man_bits as i64 + 1),
        }
    }

    fn supports_metadata_injection(&self) -> bool {
        true
    }

    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        let (old_codes, bs) = Self::codes_of(old);
        let (new_codes, _) = Self::codes_of(new);
        assert_eq!(old_codes.len(), new_codes.len(), "block count changed");
        let mut out = values.clone();
        for (b, (&oc, &nc)) in old_codes.iter().zip(new_codes).enumerate() {
            if oc == nc {
                continue;
            }
            // Hardware keeps the stored sign+magnitude codes; only the
            // shared-exponent register changed. Recover each element's
            // magnitude code under the old step and re-decode it under the
            // new one, saturating at the flipped block's representable max
            // (law `meta-flip-range`): a naive `· 2^(nc − oc)` overflows
            // f64→f32 to ±Inf for large code deltas, a value no BFP code
            // can represent.
            let old_step = self.step_for_code(oc);
            let new_step = self.step_for_code(nc);
            let mag_max = self.mag_max() as f64;
            let limit = mag_max * new_step;
            // Saturating index arithmetic: a per-tensor block (`block_size
            // == usize::MAX`) must not overflow `start + bs`.
            let start = b.saturating_mul(bs).min(values.numel());
            let end = start.saturating_add(bs).min(values.numel());
            for v in &mut out.as_mut_slice()[start..end] {
                let vf = *v as f64;
                let sign = if vf.is_sign_negative() { -1.0f64 } else { 1.0 };
                let mag = (vf.abs() / old_step).min(mag_max);
                *v = if mag == 0.0 {
                    (sign * 0.0) as f32
                } else {
                    f32_saturate(sign * (mag * new_step).min(limit))
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_exponent_follows_max() {
        let bfp = BlockFloatingPoint::new(5, 4, 4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0, 7.9], [4]);
        let q = bfp.real_to_format_tensor(&x);
        let Metadata::SharedExponents { codes, .. } = &q.meta else { panic!() };
        // max 7.9 → exponent 2 → code 2 + 15 = 17.
        assert_eq!(codes, &vec![17]);
    }

    #[test]
    fn multiple_blocks_get_independent_exponents() {
        let bfp = BlockFloatingPoint::new(5, 4, 2);
        let x = Tensor::from_vec(vec![100.0, 50.0, 0.01, 0.005], [4]);
        let q = bfp.real_to_format_tensor(&x);
        let Metadata::SharedExponents { codes, .. } = &q.meta else { panic!() };
        assert_eq!(codes.len(), 2);
        assert!(codes[0] > codes[1]);
        // Both blocks retain their large element at full relative precision.
        assert!((q.values.as_slice()[0] - 100.0).abs() / 100.0 < 0.05);
        assert!((q.values.as_slice()[2] - 0.01).abs() / 0.01 < 0.05);
    }

    #[test]
    fn small_values_in_big_block_round_to_zero() {
        // The paper's observation: a large shared block magnitude kills the
        // resolution of low-magnitude members.
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![1000.0, 0.5, 0.5, 0.5], [4]);
        let q = bfp.real_to_format_tensor(&x);
        assert_eq!(q.values.as_slice()[1], 0.0);
    }

    #[test]
    fn quantize_idempotent() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![3.7, -0.21, 0.0, 8.25], [4]);
        let q1 = bfp.real_to_format_tensor(&x);
        let q2 = bfp.real_to_format_tensor(&q1.values);
        assert_eq!(q1.values, q2.values);
        assert_eq!(q1.meta, q2.meta);
    }

    #[test]
    fn bitstring_roundtrip() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![3.7, -0.21, 0.0, 8.25], [4]);
        let q = bfp.real_to_format_tensor(&x);
        for i in 0..4 {
            let v = q.values.as_slice()[i];
            let bits = bfp.real_to_format(v, &q.meta, i);
            assert_eq!(bits.len(), 6);
            assert_eq!(bfp.format_to_real(&bits, &q.meta, i), v, "element {i}");
        }
    }

    #[test]
    fn shared_exponent_flip_scales_whole_block() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![4.0, 2.0, 1.0, -1.0, 0.5, 0.25, 0.125, -0.125], [8]);
        let q = bfp.real_to_format_tensor(&x);
        // Flip the LSB of block 0's exponent: every value in block 0
        // scales by 2^±1; block 1 is untouched.
        let bits = q.meta.word_bits(0).unwrap();
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(bfp.exp_bits() as usize - 1));
        let y = bfp.apply_metadata(&q.values, &q.meta, &corrupted);
        let r = y.as_slice()[0] / q.values.as_slice()[0];
        assert!(r == 2.0 || r == 0.5, "ratio {r}");
        for i in 4..8 {
            assert_eq!(y.as_slice()[i], q.values.as_slice()[i], "block 1 must be intact");
        }
    }

    #[test]
    fn data_bit_flip_bounded_by_block_range() {
        // A data-value flip in BFP cannot produce Inf/NaN: the worst case
        // is the max magnitude at the shared exponent. (This is why the
        // paper finds BFP value injections benign relative to FP.)
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![4.0, 2.0, 1.0, -1.0], [4]);
        let q = bfp.real_to_format_tensor(&x);
        for i in 0..4 {
            for bit in 0..6 {
                let bits = bfp.real_to_format(q.values.as_slice()[i], &q.meta, i).with_flip(bit);
                let v = bfp.format_to_real(&bits, &q.meta, i);
                assert!(v.is_finite());
                assert!(v.abs() <= 8.0, "flip({i},{bit}) gave {v}");
            }
        }
    }

    #[test]
    fn zero_block_quantizes_to_zero() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let q = bfp.real_to_format_tensor(&Tensor::zeros([4]));
        assert_eq!(q.values.sum_all(), 0.0);
        let Metadata::SharedExponents { codes, .. } = &q.meta else { panic!() };
        assert_eq!(codes[0], 0);
    }

    #[test]
    fn tail_block_smaller_than_block_size() {
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![1.0; 6], [6]);
        let q = bfp.real_to_format_tensor(&x);
        assert_eq!(q.meta.word_count(), 2);
        assert_eq!(q.values.as_slice()[5], 1.0);
    }

    #[test]
    fn law_meta_flip_finite_all_single_bit_flips() {
        // Law `meta-flip-finite`: no single-bit flip of a shared-exponent
        // register may drive any stored value to Inf/NaN — BFP has no
        // Inf/NaN codes, and §IV's finding that BFP injections are
        // Inf/NaN-free must survive metadata faults. Before the fix,
        // `· 2^(nc − oc)` overflowed f64→f32 to ±Inf for large upward code
        // deltas (e.g. bfloat-style e8m7, whose top step is 2^122).
        let bfp = BlockFloatingPoint::new(8, 7, 4);
        let x = Tensor::from_vec(vec![4.0, -2.0, 1.0, -0.0], [4]);
        let q = bfp.real_to_format_tensor(&x);
        let max_abs = bfp.dynamic_range().max_abs;
        let bits = q.meta.word_bits(0).unwrap();
        for bit in 0..bits.len() {
            let corrupted = q.meta.with_word_bits(0, &bits.with_flip(bit));
            let y = bfp.apply_metadata(&q.values, &q.meta, &corrupted);
            for (i, v) in y.as_slice().iter().enumerate() {
                assert!(v.is_finite(), "flip bit {bit}, element {i}: {v}");
                assert!((*v as f64).abs() <= max_abs, "flip bit {bit}, element {i}: {v}");
            }
        }
    }

    #[test]
    fn law_round_trip_negative_zero_keeps_sign() {
        // Law `round-trip`: −0.0 must encode its sign bit so decode→encode→
        // decode is a bitwise fixpoint (matching `FpParams::encode`) and a
        // sign-bit flip on a −0.0 element reports old ≠ new. The old
        // `(value < 0.0)` test dropped it.
        let bfp = BlockFloatingPoint::new(5, 5, 4);
        let x = Tensor::from_vec(vec![4.0, -0.0, 0.0, 1.0], [4]);
        let q = bfp.real_to_format_tensor(&x);
        assert!(q.values.as_slice()[1].is_sign_negative(), "Method 1 must keep −0.0");
        let bits = bfp.real_to_format(-0.0, &q.meta, 1);
        assert!(bits.bit(0), "sign bit must be set for −0.0");
        let back = bfp.format_to_real(&bits, &q.meta, 1);
        assert!(back == 0.0 && back.is_sign_negative());
        // The sign-bit flip is a real change, not `old == new`.
        let flipped = bfp.format_to_real(&bits.with_flip(0), &q.meta, 1);
        assert!(flipped == 0.0 && !flipped.is_sign_negative());
    }

    #[test]
    fn per_tensor_block_spanning_many_chunks_is_thread_count_invariant() {
        // Audit of the whole-tensor sentinel (`block_size == usize::MAX`)
        // against the chunk-parallel path: one shared-exponent block spans
        // many QUANT_CHUNK=4096 tasks, and the two-phase block max must
        // make the result byte-identical to the serial path. Above
        // PAR_MIN_ELEMS so the parallel dispatch path really runs.
        use tensor::parallel::with_threads;
        let n = tensor::parallel::PAR_MIN_ELEMS + 10_007;
        let x = Tensor::from_vec((0..n).map(|i| ((i as f32) * 0.371).sin() * 80.0).collect(), [n]);
        let bfp = BlockFloatingPoint::per_tensor(5, 5);
        let serial = {
            let _g = with_threads(1);
            bfp.real_to_format_tensor(&x)
        };
        assert_eq!(serial.meta.word_count(), 1, "one register for the whole tensor");
        for threads in [2, 8] {
            let _g = with_threads(threads);
            let par = bfp.real_to_format_tensor(&x);
            assert_eq!(par.meta, serial.meta, "{threads} threads");
            for (i, (a, b)) in
                par.values.as_slice().iter().zip(serial.values.as_slice()).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, element {i}");
            }
        }
    }

    #[test]
    fn per_tensor_sentinel_matches_explicit_whole_tensor_block() {
        // `bfp:…:tensor` must quantise exactly like `block_size == n`: the
        // sentinel is a spelling, not a different format.
        let n = 5000;
        let x = Tensor::from_vec((0..n).map(|i| ((i as f32) - 2500.0) * 0.013).collect(), [n]);
        let sentinel = BlockFloatingPoint::per_tensor(5, 5).real_to_format_tensor(&x);
        let explicit = BlockFloatingPoint::new(5, 5, n).real_to_format_tensor(&x);
        for (a, b) in sentinel.values.as_slice().iter().zip(explicit.values.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let Metadata::SharedExponents { codes: ca, .. } = &sentinel.meta else { panic!() };
        let Metadata::SharedExponents { codes: cb, .. } = &explicit.meta else { panic!() };
        assert_eq!(ca, cb);
    }

    #[test]
    fn non_dividing_block_sizes_tail_is_thread_count_invariant() {
        // Block sizes that divide neither the tensor length nor QUANT_CHUNK:
        // the tail block is shorter, and whole blocks must never straddle
        // task boundaries. Above PAR_MIN_ELEMS so the parallel dispatch
        // path really runs.
        use tensor::parallel::with_threads;
        let n = tensor::parallel::PAR_MIN_ELEMS + 9001;
        let x = Tensor::from_vec((0..n).map(|i| ((i as f32) * 1.618).cos() * 300.0).collect(), [n]);
        for block in [3usize, 48, 100, 5000] {
            let bfp = BlockFloatingPoint::new(5, 5, block);
            let serial = {
                let _g = with_threads(1);
                bfp.real_to_format_tensor(&x)
            };
            assert_eq!(serial.meta.word_count(), n.div_ceil(block), "block {block}");
            for threads in [2, 8] {
                let _g = with_threads(threads);
                let par = bfp.real_to_format_tensor(&x);
                assert_eq!(par.meta, serial.meta, "block {block}, {threads} threads");
                for (i, (a, b)) in
                    par.values.as_slice().iter().zip(serial.values.as_slice()).enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "block {block}, element {i}");
                }
            }
        }
    }

    /// Method 1 as it was before the block loop was tightened: f64 block
    /// max, division by the step, one element at a time.
    fn oracle(bfp: &BlockFloatingPoint, x: &[f32]) -> (Vec<f32>, Vec<u32>) {
        let bs = bfp.block_size.min(x.len().max(1));
        let (mut values, mut codes) = (Vec::new(), Vec::new());
        for block in x.chunks(bs) {
            let max_abs = block.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
            let code = bfp.code_for_block(max_abs);
            let step = bfp.step_for_code(code);
            codes.push(code);
            for &x in block {
                let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
                let mag = if x.is_nan() {
                    0.0
                } else {
                    round_ties_even((x as f64).abs() / step).min(bfp.mag_max() as f64)
                };
                values.push(f32_saturate(sign * mag * step));
            }
        }
        (values, codes)
    }

    /// Blocks of 16 with their maximum in every f32 binade, subnormals
    /// included, then blocks of ±Inf: each block holds its maximum, random
    /// smaller values of both signs, and the ties `(2j + 1) · 2^(e − m)`
    /// halfway between two steps of an e·m`man_bits` block at exponent
    /// `e`. A format whose exponent reaches every binade meets each of its
    /// block codes, on both sides of the f32 path's limits.
    fn binade_blocks(man_bits: u32) -> Vec<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb1d);
        let mut x = Vec::new();
        for e in -149i64..=127 {
            let max = (exp2(e) * (1.0 + rng.gen::<f64>())).min(f32::MAX as f64) as f32;
            x.push(max);
            for j in 0..5 {
                x.push(((2 * j + 1) as f64 * exp2(e - man_bits as i64)) as f32);
            }
            for _ in 0..10 {
                let v = max * rng.gen::<f32>();
                x.push(if rng.gen::<bool>() { -v } else { v });
            }
        }
        x.extend([f32::INFINITY; 16]);
        x
    }

    #[test]
    fn f32_path_covers_e5m5_and_leaves_the_extremes_of_e8_and_e11() {
        let runs = |bfp: BlockFloatingPoint, code: u32| bfp.runs_in_f32(bfp.step_exp(code));
        // The exponent test is the normality of step, 1/step and
        // mag_max·step, for every code of every width.
        let normal = |v: f64| (f32::MIN_POSITIVE as f64..=f32::MAX as f64).contains(&v);
        for (e, m) in [(2, 1), (5, 5), (8, 7), (8, 23), (11, 1), (11, 23)] {
            let bfp = BlockFloatingPoint::new(e, m, 4);
            for code in 0..=bfp.max_code() as u32 {
                let step = bfp.step_for_code(code);
                let mag_max = bfp.mag_max() as f64;
                let want = normal(step) && normal(1.0 / step) && normal(mag_max * step);
                assert_eq!(runs(bfp, code), want, "e{e}m{m} code {code}");
            }
        }
        let e5m5 = BlockFloatingPoint::new(5, 5, 16);
        assert!((0..=e5m5.max_code() as u32).all(|c| runs(e5m5, c)));
        // e8m7: step 2^(code − 133); code 7 has the first f32-normal step
        // and 254 the last whose 127 · step fits f32.
        let e8m7 = BlockFloatingPoint::new(8, 7, 16);
        let f32_codes: Vec<u32> = (0..=255).filter(|&c| runs(e8m7, c)).collect();
        assert_eq!((f32_codes[0], *f32_codes.last().unwrap()), (7, 254));
        assert_eq!(f32_codes.len(), 248);
        let e11m5 = BlockFloatingPoint::new(11, 5, 4);
        assert!(!runs(e11m5, 0) && !runs(e11m5, 2047) && runs(e11m5, 1023));
    }

    #[test]
    fn tensor_path_matches_division_oracle_bitwise() {
        // The reciprocal multiply, the f32 block loop, the f32 block max and
        // the shared `chunk::quantize_blocks` must not move a bit, under
        // every kernel. e11 formats reach steps whose reciprocal is not a
        // normal f64 (2^−1027 for all-zero blocks, +Inf at the top code of
        // e11m1), where the product is not the quotient but the output
        // still is (see `quantize_block`). The binade blocks put e8m7 and
        // e11 blocks on both sides of the f32 path's limits.
        crate::chunk::for_each_kernel(|kern| {
            let mut x = crate::chunk::oracle_inputs();
            x.extend(binade_blocks(7));
            x.extend(binade_blocks(5));
            check_against_oracle(&x, kern);
        });
    }

    fn check_against_oracle(x: &[f32], kern: tensor::linalg::kernels::Kernel) {
        let t = Tensor::from_vec(x.to_vec(), [x.len()]);
        let formats = [
            BlockFloatingPoint::new(5, 5, 16),
            BlockFloatingPoint::new(8, 7, 16),
            BlockFloatingPoint::new(2, 3, 8),
            BlockFloatingPoint::new(4, 23, 3),
            BlockFloatingPoint::new(11, 1, 4),
            BlockFloatingPoint::new(11, 5, 4),
            BlockFloatingPoint::new(5, 5, 5000),
            BlockFloatingPoint::per_tensor(5, 5),
        ];
        for bfp in formats {
            let q = bfp.real_to_format_tensor(&t);
            let (values, codes) = oracle(&bfp, x);
            let Metadata::SharedExponents { codes: got, .. } = &q.meta else { panic!() };
            assert_eq!(got, &codes, "{} {kern}", bfp.name());
            for (i, (a, b)) in q.values.as_slice().iter().zip(&values).enumerate() {
                let name = bfp.name();
                assert_eq!(a.to_bits(), b.to_bits(), "{name} {kern} element {i} ({:e})", x[i]);
            }
        }
    }

    #[test]
    fn law_meta_flip_range_per_tensor_block_no_overflow() {
        // Law `meta-flip-range` on a per-tensor block: `block_size ==
        // usize::MAX` must not overflow the `b·bs` / `start+bs` index
        // arithmetic in `apply_metadata`.
        let bfp = BlockFloatingPoint::per_tensor(5, 5);
        let x = Tensor::from_vec(vec![2.0, -1.0, 0.5], [3]);
        let q = bfp.real_to_format_tensor(&x);
        let bits = q.meta.word_bits(0).unwrap();
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(bfp.exp_bits() as usize - 1));
        let y = bfp.apply_metadata(&q.values, &q.meta, &corrupted);
        let r = y.as_slice()[0] / q.values.as_slice()[0];
        assert!(r == 2.0 || r == 0.5, "ratio {r}");
    }
}
