//! OCP Microscaling (MX) formats: blocks of narrow-float elements share a
//! power-of-two E8M0 scale.
//!
//! MX is BFP's microscaling-era sibling ([`crate::BlockFloatingPoint`]):
//! where BFP stores sign+magnitude integers against one shared exponent,
//! MX stores full minifloat elements (FP4/FP6/FP8, each with its own tiny
//! exponent field) against a shared **E8M0** scale — an unsigned 8-bit
//! power-of-two `2^(code − 127)` held once per block in a hardware scale
//! register. The registers ride the same
//! [`Metadata::SharedExponents`] machinery as BFP (`exp_bits = 8`, bias
//! 127 — exactly E8M0), so metadata fault injection works unchanged and a
//! single scale-register flip corrupts the whole block.
//!
//! Intentional deviation from OCP MX 1.0: scale code 255 (NaN in the spec)
//! decodes here as `2^128` — the conformance law `meta-flip-finite`
//! requires every scale-register flip to yield defined, finite values, so
//! the top code stays an ordinary (huge) scale. DESIGN.md §14 records
//! this.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::fp::{exp2, exponent_of, f32_saturate, mul_pow2, FpParams, SpecialRule};
use crate::metadata::Metadata;
use tensor::Tensor;

/// E8M0 scale bias: `scale = 2^(code − 127)`.
const SCALE_BIAS: i64 = 127;

/// E8M0 scale register width.
const SCALE_BITS: u32 = 8;

/// The OCP MX element formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxElem {
    /// FP4 e2m1: no Inf/NaN codes, max 6.
    Fp4E2m1,
    /// FP6 e2m3: no Inf/NaN codes, max 7.5.
    Fp6E2m3,
    /// FP6 e3m2: no Inf/NaN codes, max 28.
    Fp6E3m2,
    /// FP8 e4m3 ("fn"): one NaN code per sign, no Inf, max 448.
    Fp8E4m3,
    /// FP8 e5m2: full IEEE Inf/NaN reservation, finite max 57344.
    Fp8E5m2,
}

impl MxElem {
    /// All element formats, in spec order.
    pub const ALL: [MxElem; 5] =
        [MxElem::Fp4E2m1, MxElem::Fp6E2m3, MxElem::Fp6E3m2, MxElem::Fp8E4m3, MxElem::Fp8E5m2];

    /// The element's `[s | e | m]` kernel; OCP MX mandates denormals.
    pub(crate) fn params(self) -> FpParams {
        let (e, m, rule) = match self {
            MxElem::Fp4E2m1 => (2, 1, SpecialRule::Finite),
            MxElem::Fp6E2m3 => (2, 3, SpecialRule::Finite),
            MxElem::Fp6E3m2 => (3, 2, SpecialRule::Finite),
            MxElem::Fp8E4m3 => (4, 3, SpecialRule::NanOnly),
            MxElem::Fp8E5m2 => (5, 2, SpecialRule::Ieee),
        };
        FpParams::new(e, m, true, rule)
    }

    /// The spec-grammar token, e.g. `"fp4e2m1"`.
    pub fn token(self) -> &'static str {
        match self {
            MxElem::Fp4E2m1 => "fp4e2m1",
            MxElem::Fp6E2m3 => "fp6e2m3",
            MxElem::Fp6E3m2 => "fp6e3m2",
            MxElem::Fp8E4m3 => "fp8e4m3",
            MxElem::Fp8E5m2 => "fp8e5m2",
        }
    }

    /// Parses a spec-grammar token.
    pub fn parse(s: &str) -> Option<MxElem> {
        MxElem::ALL.iter().copied().find(|e| e.token() == s)
    }

    /// Element data width in bits (4, 6, or 8).
    pub fn bit_width(self) -> u32 {
        self.params().width() as u32
    }
}

/// An OCP microscaling format: `block_size` minifloat elements per shared
/// E8M0 power-of-two scale.
///
/// # Examples
///
/// ```
/// use formats::{MxElem, MxFloat, NumberFormat};
/// use tensor::Tensor;
/// let mx = MxFloat::new(MxElem::Fp8E4m3, 32);
/// assert_eq!(mx.name(), "mx_fp8e4m3_b32");
/// let x = Tensor::from_vec(vec![1.0, -0.5, 300.0, 0.001], [4]);
/// let q = mx.real_to_format_tensor(&x);
/// assert_eq!(q.meta.word_count(), 1); // one E8M0 scale register
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MxFloat {
    elem: MxElem,
    block_size: usize,
}

impl MxFloat {
    /// Creates an MX format.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is 0 or the BFP whole-tensor sentinel
    /// (`usize::MAX`) — OCP MX scales are per fixed-size block.
    pub fn new(elem: MxElem, block_size: usize) -> Self {
        assert!(
            block_size > 0 && block_size != usize::MAX,
            "MX block size must be a positive fixed count"
        );
        MxFloat { elem, block_size }
    }

    /// The element format.
    pub fn elem(&self) -> MxElem {
        self.elem
    }

    /// Elements per shared scale.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The E8M0 scale code chosen for a block of maximum magnitude
    /// `max_abs`: `clamp(floor(log2 max) − emax + 127, 0, 255)`, the OCP
    /// rule that puts the block max in the element's top binade.
    #[inline(always)]
    fn code_for_block(&self, max_abs: f64) -> u32 {
        if max_abs == 0.0 {
            return 0;
        }
        if !max_abs.is_finite() {
            // An Inf element pins the block at the top scale code.
            return (1 << SCALE_BITS) - 1;
        }
        let e = exponent_of(max_abs) - self.elem.params().emax();
        (e + SCALE_BIAS).clamp(0, (1 << SCALE_BITS) - 1) as u32
    }

    /// Unbiased scale exponent for a register code.
    fn scale_exp(code: u32) -> i64 {
        code as i64 - SCALE_BIAS
    }

    /// Method 1 for one block under scale code `code`.
    fn quantize_block(&self, code: u32, src: &[f32], out: &mut [f32]) {
        let params = self.elem.params();
        // E8M0 scales span 2^−127 … 2^128, so both 2^−s and 2^s are finite
        // normal f64s: multiplying by them is exact, the same value as
        // `mul_pow2(x, ∓s)` (and as dividing by the scale), with no
        // per-element loop or division.
        let s = Self::scale_exp(code);
        let (down, up) = (exp2(-s), exp2(s));
        debug_assert!(down.is_normal() && up.is_normal());
        for (v, &x) in out.iter_mut().zip(src) {
            let q = params.quantize(x as f64 * down);
            // A non-finite `q` is NaN (for NaN-capable elements); quantize
            // never returns Inf.
            *v = if q.is_finite() { f32_saturate(q * up) } else { q as f32 };
        }
    }

    fn codes_of(meta: &Metadata) -> (&[u32], usize) {
        match meta {
            Metadata::SharedExponents { codes, block_size, .. } => (codes, *block_size),
            other => panic!("MX expects SharedExponents metadata, got {other:?}"),
        }
    }
}

impl NumberFormat for MxFloat {
    fn name(&self) -> String {
        format!("mx_{}_b{}", self.elem.token(), self.block_size)
    }

    fn canonical_spec(&self) -> String {
        format!("mx:{}:b{}", self.elem.token(), self.block_size)
    }

    /// Per-element data width; the E8M0 scale is amortised metadata.
    fn bit_width(&self) -> u32 {
        self.elem.bit_width()
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
                exp_bits: SCALE_BITS,
            },
        }
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, index: usize) -> Bitstring {
        let (codes, bs) = Self::codes_of(meta);
        let s = Self::scale_exp(codes[index / bs]);
        let code = self.elem.params().encode(mul_pow2(value as f64, -s));
        Bitstring::from_u64(code, self.elem.params().width())
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, index: usize) -> f32 {
        let (codes, bs) = Self::codes_of(meta);
        let params = self.elem.params();
        assert_eq!(bits.len(), params.width(), "MX element width mismatch");
        let v = params.decode(bits.to_u64());
        if !v.is_finite() {
            // Explicit element Inf/NaN codes decode unscaled — only they
            // may produce non-finite values (and only for e4m3/e5m2).
            return v as f32;
        }
        f32_saturate(mul_pow2(v, Self::scale_exp(codes[index / bs])))
    }

    fn dynamic_range(&self) -> DynamicRange {
        let params = self.elem.params();
        // Bounds over *all* scale codes (0..=255), so flipped scale
        // registers stay inside the declared range.
        DynamicRange {
            max_abs: mul_pow2(params.max_value(), (1 << SCALE_BITS) - 1 - SCALE_BIAS),
            min_abs: mul_pow2(params.min_denormal(), -SCALE_BIAS),
        }
    }

    fn supports_metadata_injection(&self) -> bool {
        true
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        Some(1..1 + self.elem.params().e as usize)
    }

    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        let (old_codes, bs) = Self::codes_of(old);
        let (new_codes, _) = Self::codes_of(new);
        assert_eq!(old_codes.len(), new_codes.len(), "block count changed");
        let params = self.elem.params();
        let elem_max = params.max_value();
        let n = values.numel();
        let mut out = values.clone();
        for (b, (&oc, &nc)) in old_codes.iter().zip(new_codes).enumerate() {
            if oc == nc {
                continue;
            }
            // Hardware keeps the stored element codes; only the scale
            // register changed. Recover each element value under the old
            // scale and re-apply the new one, clamping at the element max
            // (law `meta-flip-range`) and at the f32 fabric (law
            // `meta-flip-finite` — a flip to code 255 scales by 2^128).
            let os = Self::scale_exp(oc);
            let ns = Self::scale_exp(nc);
            let start = b.saturating_mul(bs).min(n);
            let end = start.saturating_add(bs).min(n);
            for v in &mut out.as_mut_slice()[start..end] {
                let vf = *v as f64;
                if !vf.is_finite() {
                    // Element-level Inf/NaN codes ignore the scale.
                    continue;
                }
                let sign = if vf.is_sign_negative() { -1.0f64 } else { 1.0 };
                let elem = mul_pow2(vf.abs(), -os).min(elem_max);
                *v = if elem == 0.0 {
                    (sign * 0.0) as f32
                } else {
                    f32_saturate(sign * mul_pow2(elem, ns))
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::parallel::with_threads;

    #[test]
    fn scale_follows_block_max_into_top_binade() {
        // Block max 300 with e4m3 elements (emax 8): floor(log2 300) = 8,
        // so the scale is 2^0 — 300 sits in the element's top binade.
        let mx = MxFloat::new(MxElem::Fp8E4m3, 4);
        let x = Tensor::from_vec(vec![300.0, 1.0, -2.0, 0.5], [4]);
        let q = mx.real_to_format_tensor(&x);
        let Metadata::SharedExponents { codes, exp_bits, .. } = &q.meta else { panic!() };
        assert_eq!(*exp_bits, 8);
        assert_eq!(codes, &vec![127]);
        assert_eq!(q.values.as_slice()[0], 288.0); // e4m3 grid step is 32 here
    }

    #[test]
    fn blocks_get_independent_scales() {
        let mx = MxFloat::new(MxElem::Fp4E2m1, 2);
        let x = Tensor::from_vec(vec![48.0, 24.0, 0.375, 0.1875], [4]);
        let q = mx.real_to_format_tensor(&x);
        let Metadata::SharedExponents { codes, .. } = &q.meta else { panic!() };
        assert_eq!(codes.len(), 2);
        assert!(codes[0] > codes[1]);
        // Both blocks keep their max exactly (48 = 6·2^3, 0.375 = 6·2^-4).
        assert_eq!(q.values.as_slice()[0], 48.0);
        assert_eq!(q.values.as_slice()[2], 0.375);
    }

    #[test]
    fn quantize_idempotent() {
        for elem in MxElem::ALL {
            let mx = MxFloat::new(elem, 4);
            let x = Tensor::from_vec(vec![3.7, -0.21, 0.0, 8.25, 1e-9, -6.0e4, 0.125, -0.0], [8]);
            let q1 = mx.real_to_format_tensor(&x);
            let q2 = mx.real_to_format_tensor(&q1.values);
            assert_eq!(q1.values, q2.values, "{elem:?}");
            assert_eq!(q1.meta, q2.meta, "{elem:?}");
        }
    }

    #[test]
    fn bitstring_roundtrip_all_elements() {
        for elem in MxElem::ALL {
            let mx = MxFloat::new(elem, 4);
            let x = Tensor::from_vec(vec![3.7, -0.21, 0.0, 8.25], [4]);
            let q = mx.real_to_format_tensor(&x);
            for i in 0..4 {
                let v = q.values.as_slice()[i];
                let bits = mx.real_to_format(v, &q.meta, i);
                assert_eq!(bits.len(), elem.bit_width() as usize);
                assert_eq!(mx.format_to_real(&bits, &q.meta, i), v, "{elem:?} element {i}");
            }
        }
    }

    #[test]
    fn negative_zero_keeps_sign() {
        let mx = MxFloat::new(MxElem::Fp4E2m1, 4);
        let x = Tensor::from_vec(vec![1.0, -0.0, 0.0, 2.0], [4]);
        let q = mx.real_to_format_tensor(&x);
        assert!(q.values.as_slice()[1].is_sign_negative());
        let bits = mx.real_to_format(-0.0, &q.meta, 1);
        assert!(bits.bit(0));
        assert!(mx.format_to_real(&bits, &q.meta, 1).is_sign_negative());
    }

    #[test]
    fn scale_register_flip_scales_whole_block() {
        let mx = MxFloat::new(MxElem::Fp8E4m3, 4);
        let x = Tensor::from_vec(vec![4.0, 2.0, 1.0, -1.0, 0.5, 0.25, 0.125, -0.125], [8]);
        let q = mx.real_to_format_tensor(&x);
        let bits = q.meta.word_bits(0).unwrap();
        let corrupted = q.meta.with_word_bits(0, &bits.with_flip(SCALE_BITS as usize - 1));
        let y = mx.apply_metadata(&q.values, &q.meta, &corrupted);
        let r = y.as_slice()[0] / q.values.as_slice()[0];
        assert!(r == 2.0 || r == 0.5, "ratio {r}");
        for i in 4..8 {
            assert_eq!(y.as_slice()[i], q.values.as_slice()[i], "block 1 must be intact");
        }
    }

    #[test]
    fn scale_flip_to_top_code_stays_finite_and_in_range() {
        // Flipping the scale MSB jumps the code by 128 — the stored values
        // must stay finite (f32 fabric) and inside dynamic_range().
        for elem in MxElem::ALL {
            let mx = MxFloat::new(elem, 4);
            let x = Tensor::from_vec(vec![4.0, -2.0, 1.0, -0.0], [4]);
            let q = mx.real_to_format_tensor(&x);
            let max_abs = mx.dynamic_range().max_abs;
            let bits = q.meta.word_bits(0).unwrap();
            for bit in 0..bits.len() {
                let corrupted = q.meta.with_word_bits(0, &bits.with_flip(bit));
                let y = mx.apply_metadata(&q.values, &q.meta, &corrupted);
                for (i, v) in y.as_slice().iter().enumerate() {
                    assert!(v.is_finite(), "{elem:?} flip bit {bit}, element {i}: {v}");
                    assert!((*v as f64).abs() <= max_abs, "{elem:?} flip bit {bit}: {v}");
                }
            }
        }
    }

    #[test]
    fn nan_handling_per_element_rules() {
        let x = Tensor::from_vec(vec![1.0, f32::NAN, 2.0, -4.0], [4]);
        // Finite elements squash NaN to zero (no NaN code exists).
        let fp4 = MxFloat::new(MxElem::Fp4E2m1, 4);
        assert_eq!(fp4.real_to_format_tensor(&x).values.as_slice()[1], 0.0);
        // NaN-capable elements propagate it.
        let e4m3 = MxFloat::new(MxElem::Fp8E4m3, 4);
        assert!(e4m3.real_to_format_tensor(&x).values.as_slice()[1].is_nan());
    }

    #[test]
    fn tail_block_smaller_than_block_size() {
        let mx = MxFloat::new(MxElem::Fp8E4m3, 4);
        let x = Tensor::from_vec(vec![1.0; 6], [6]);
        let q = mx.real_to_format_tensor(&x);
        assert_eq!(q.meta.word_count(), 2);
        assert_eq!(q.values.as_slice()[5], 1.0);
    }

    #[test]
    fn chunk_parallel_quantise_is_thread_count_invariant() {
        // Block sizes that do not divide QUANT_CHUNK must still give
        // byte-identical output for every thread count — whole blocks never
        // straddle task boundaries. Above PAR_MIN_ELEMS so the parallel
        // dispatch path really runs.
        let n = tensor::parallel::PAR_MIN_ELEMS + 10_007;
        let x = Tensor::from_vec((0..n).map(|i| ((i as f32) * 0.7331).sin() * 50.0).collect(), [n]);
        for block in [1usize, 3, 32, 48, 100] {
            let mx = MxFloat::new(MxElem::Fp8E5m2, block);
            let serial = {
                let _g = with_threads(1);
                mx.real_to_format_tensor(&x)
            };
            for threads in [2, 8] {
                let _g = with_threads(threads);
                let par = mx.real_to_format_tensor(&x);
                assert_eq!(par.meta, serial.meta, "block {block}, {threads} threads");
                for (i, (a, b)) in
                    par.values.as_slice().iter().zip(serial.values.as_slice()).enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "block {block}, element {i}");
                }
            }
        }
    }

    #[test]
    fn tensor_path_matches_mul_pow2_oracle_bitwise() {
        // Method 1 as it was before the block loop was tightened (f64
        // block max, `mul_pow2` per element) must agree bit for bit, under
        // every kernel.
        let x = crate::chunk::oracle_inputs();
        let t = Tensor::from_vec(x.clone(), [x.len()]);
        crate::chunk::for_each_kernel(|kern| {
            for elem in MxElem::ALL {
                for block in [1usize, 32, 100] {
                    let mx = MxFloat::new(elem, block);
                    let name = mx.name();
                    let q = mx.real_to_format_tensor(&t);
                    let Metadata::SharedExponents { codes, .. } = &q.meta else { panic!() };
                    for (b, xs) in x.chunks(block).enumerate() {
                        let max_abs = xs.iter().fold(0.0f64, |m, &v| m.max((v as f64).abs()));
                        let code = mx.code_for_block(max_abs);
                        assert_eq!(codes[b], code, "{name} {kern} block {b}");
                        let s = MxFloat::scale_exp(code);
                        for (j, &xv) in xs.iter().enumerate() {
                            let v = elem.params().quantize(mul_pow2(xv as f64, -s));
                            let want =
                                if v.is_finite() { f32_saturate(mul_pow2(v, s)) } else { v as f32 };
                            let got = q.values.as_slice()[b * block + j];
                            assert_eq!(got.to_bits(), want.to_bits(), "{name} {kern} x = {xv:e}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn dynamic_range_covers_every_scale_code() {
        let mx = MxFloat::new(MxElem::Fp4E2m1, 32);
        let dr = mx.dynamic_range();
        // elem max 6 at scale 2^128; elem min denormal 0.5 at scale 2^-127.
        assert_eq!(dr.max_abs, 6.0 * (2f64).powi(128));
        assert_eq!(dr.min_abs, 0.5 * (2f64).powi(-127));
    }
}
