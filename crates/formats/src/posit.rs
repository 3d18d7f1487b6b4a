//! Posit arithmetic (Gustafson's Type-III unums) — the "future number
//! format" the paper's extensibility claim (Table II) invites: a complete
//! sixth format family implemented purely against the four-method
//! [`NumberFormat`](crate::NumberFormat) API, with no changes to the rest
//! of the stack.
//!
//! A posit`⟨n, es⟩` packs sign, a unary *regime*, `es` exponent bits, and
//! a fraction into `n` bits; value = `useed^k · 2^e · (1+f)` with
//! `useed = 2^(2^es)`. There are no denormals and no ±Inf — one NaR code.
//! Tapered precision gives posits more fraction bits near 1.0 and more
//! dynamic range at the extremes, a natural fit for DNN values.
//!
//! Encoding uses an exact value table built from the decoder (feasible
//! because `n ≤ 16`), so rounding is provably nearest-with-ties-to-even-code
//! and saturating at ±maxpos, per the posit standard.

use crate::bitstring::Bitstring;
use crate::format::{DynamicRange, NumberFormat, Quantized};
use crate::metadata::Metadata;
use std::sync::Arc;
use tensor::Tensor;

/// A posit`⟨n, es⟩` number format.
///
/// # Examples
///
/// ```
/// use formats::{Posit, NumberFormat};
/// use tensor::Tensor;
/// let p8 = Posit::new(8, 0);
/// let x = Tensor::from_vec(vec![1.0, 0.3, -100.0], [3]);
/// let q = p8.real_to_format_tensor(&x);
/// assert_eq!(q.values.as_slice()[0], 1.0); // 1.0 is exactly representable
/// assert_eq!(q.values.as_slice()[2], -64.0); // saturates at -maxpos
/// ```
#[derive(Clone)]
pub struct Posit {
    n: u32,
    es: u32,
    /// All finite posit values, sorted ascending, paired with their codes.
    table: Arc<Vec<(f64, u64)>>,
}

impl std::fmt::Debug for Posit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Posit(n={}, es={})", self.n, self.es)
    }
}

impl Posit {
    /// Creates a posit`⟨n, es⟩` format.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 3..=16` or `es > 3`.
    pub fn new(n: u32, es: u32) -> Self {
        assert!((3..=16).contains(&n), "posit width {n} out of range 3..=16");
        assert!(es <= 3, "posit es {es} out of range 0..=3");
        let mut table = Vec::with_capacity((1usize << n) - 1);
        for code in 0..(1u64 << n) {
            if code == 1u64 << (n - 1) {
                continue; // NaR
            }
            table.push((decode(code, n, es), code));
        }
        table.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite posit values"));
        Posit { n, es, table: Arc::new(table) }
    }

    /// Standard-draft posit8 (es = 0).
    pub fn posit8() -> Self {
        Self::new(8, 0)
    }

    /// Standard-draft posit16 (es = 1).
    pub fn posit16() -> Self {
        Self::new(16, 1)
    }

    /// Total width in bits.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Exponent field width.
    pub fn es(&self) -> u32 {
        self.es
    }

    /// Largest representable magnitude: `useed^(n−2)`.
    pub fn maxpos(&self) -> f64 {
        self.table.last().expect("non-empty table").0
    }

    /// Smallest representable positive magnitude: `useed^−(n−2)`.
    pub fn minpos(&self) -> f64 {
        let i = self.table.partition_point(|&(v, _)| v <= 0.0);
        self.table[i].0
    }

    /// Rounds to the nearest representable posit value: nearest, ties to
    /// the even code, saturating at ±maxpos (no overflow to NaR).
    pub fn quantize_scalar(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        self.nearest(x as f64).0 as f32
    }

    fn nearest(&self, x: f64) -> (f64, u64) {
        let t = &self.table;
        if x <= t[0].0 {
            return t[0];
        }
        if x >= t[t.len() - 1].0 {
            return t[t.len() - 1];
        }
        let i = t.partition_point(|&(v, _)| v < x);
        // t[i-1].0 < x <= t[i].0 after the guards above.
        let (lo, hi) = (t[i - 1], t[i]);
        if hi.0 == x {
            return hi;
        }
        let (dl, dh) = (x - lo.0, hi.0 - x);
        if dl < dh {
            lo
        } else if dh < dl {
            hi
        } else if lo.1 & 1 == 0 {
            lo
        } else {
            hi
        }
    }
}

/// Decodes an `n`-bit posit code (NaR excluded by the caller).
fn decode(code: u64, n: u32, es: u32) -> f64 {
    if code == 0 {
        return 0.0;
    }
    let sign = (code >> (n - 1)) & 1 == 1;
    // Posits negate via two's complement of the whole word.
    let mag_code = if sign { (code.wrapping_neg()) & ((1u64 << n) - 1) } else { code };
    let body_bits = n - 1;
    let body = mag_code & ((1u64 << body_bits) - 1);
    // Regime: run of identical bits from the top of the body.
    let top = (body >> (body_bits - 1)) & 1;
    let mut run = 0u32;
    while run < body_bits && (body >> (body_bits - 1 - run)) & 1 == top {
        run += 1;
    }
    let k: i64 = if top == 1 { run as i64 - 1 } else { -(run as i64) };
    // Bits consumed: run + 1 terminator (if any bits remain).
    let consumed = (run + 1).min(body_bits);
    let rest_bits = body_bits - consumed;
    let rest = body & ((1u64 << rest_bits) - 1);
    // Exponent: next min(es, rest_bits) bits; truncated bits read as 0.
    let e_bits = es.min(rest_bits);
    let e = if e_bits > 0 { (rest >> (rest_bits - e_bits)) << (es - e_bits) } else { 0 };
    let f_bits = rest_bits - e_bits;
    let f = if f_bits > 0 {
        (rest & ((1u64 << f_bits) - 1)) as f64 / (1u64 << f_bits) as f64
    } else {
        0.0
    };
    let scale = k * (1i64 << es) + e as i64;
    let v = (2.0f64).powi(scale as i32) * (1.0 + f);
    if sign {
        -v
    } else {
        v
    }
}

impl NumberFormat for Posit {
    fn name(&self) -> String {
        format!("posit{}_es{}", self.n, self.es)
    }

    fn canonical_spec(&self) -> String {
        format!("posit:{}:{}", self.n, self.es)
    }

    fn bit_width(&self) -> u32 {
        self.n
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        // Posit quantisation is a per-element search over the code table —
        // the slowest Method 1 in the zoo and the biggest chunking win.
        let values = crate::chunk::map_chunked(t, |x| self.quantize_scalar(x));
        Quantized { values, meta: Metadata::None }
    }

    fn elementwise_quantizer(&self) -> Option<Box<dyn Fn(f32) -> f32 + Send + Sync + '_>> {
        Some(Box::new(|x| self.quantize_scalar(x)))
    }

    fn real_to_format(&self, value: f32, _meta: &Metadata, _index: usize) -> Bitstring {
        if value.is_nan() {
            return Bitstring::from_u64(1u64 << (self.n - 1), self.n as usize);
        }
        let (_, code) = self.nearest(value as f64);
        Bitstring::from_u64(code, self.n as usize)
    }

    fn format_to_real(&self, bits: &Bitstring, _meta: &Metadata, _index: usize) -> f32 {
        assert_eq!(bits.len(), self.n as usize, "posit width mismatch");
        let code = bits.to_u64();
        if code == 1u64 << (self.n - 1) {
            return f32::NAN; // NaR
        }
        decode(code, self.n, self.es) as f32
    }

    fn dynamic_range(&self) -> DynamicRange {
        DynamicRange { max_abs: self.maxpos(), min_abs: self.minpos() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_posit8_es0_values() {
        let p = Posit::posit8();
        // maxpos = useed^(n-2) = 2^6 = 64; minpos = 2^-6.
        assert_eq!(p.maxpos(), 64.0);
        assert_eq!(p.minpos(), 1.0 / 64.0);
        // 1.0 encodes as 0b01000000.
        let bits = p.real_to_format(1.0, &Metadata::None, 0);
        assert_eq!(bits.to_u64(), 0b0100_0000);
        assert_eq!(p.format_to_real(&bits, &Metadata::None, 0), 1.0);
    }

    #[test]
    fn known_posit16_es1_range() {
        let p = Posit::posit16();
        // useed = 4; maxpos = 4^14 = 2^28.
        assert_eq!(p.maxpos(), (2.0f64).powi(28));
        assert_eq!(p.minpos(), (2.0f64).powi(-28));
    }

    #[test]
    fn negation_symmetry() {
        let p = Posit::new(8, 1);
        for &x in &[0.5f32, 1.0, 3.7, 100.0, 0.01] {
            assert_eq!(p.quantize_scalar(-x), -p.quantize_scalar(x), "at {x}");
        }
    }

    #[test]
    fn saturates_at_maxpos_no_overflow_to_nar() {
        let p = Posit::posit8();
        assert_eq!(p.quantize_scalar(1e30), 64.0);
        assert_eq!(p.quantize_scalar(-1e30), -64.0);
        // Tiny values round to 0 or minpos, never NaR.
        let v = p.quantize_scalar(1e-30);
        assert!(v == 0.0 || v as f64 == p.minpos());
    }

    #[test]
    fn nar_roundtrip() {
        let p = Posit::posit8();
        let bits = p.real_to_format(f32::NAN, &Metadata::None, 0);
        assert_eq!(bits.to_u64(), 0b1000_0000);
        assert!(p.format_to_real(&bits, &Metadata::None, 0).is_nan());
    }

    #[test]
    fn quantize_idempotent_all_codes() {
        // Every representable value must be a fixed point of quantisation.
        let p = Posit::new(8, 1);
        for &(v, code) in p.table.iter() {
            let q = p.quantize_scalar(v as f32);
            // f32 can represent all posit8 values exactly.
            assert_eq!(q as f64, v, "code {code:#010b}");
        }
    }

    #[test]
    fn bitstring_roundtrip_all_codes() {
        let p = Posit::new(8, 2);
        for code in 0u64..256 {
            if code == 128 {
                continue;
            }
            let bits = Bitstring::from_u64(code, 8);
            let v = p.format_to_real(&bits, &Metadata::None, 0);
            let re = p.real_to_format(v, &Metadata::None, 0);
            assert_eq!(re.to_u64(), code, "code {code:#010b} → {v} → {:#010b}", re.to_u64());
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_codes() {
        // Law `round-trip`: decode→encode→decode is a fixpoint for every
        // code, including NaR, across widths and es (extends the
        // fp.rs::encode_decode_roundtrip_all_codes pattern to posits; the
        // older bitstring_roundtrip_all_codes covers only posit(8,2)).
        for (n, es) in [(6u32, 0u32), (8, 0), (8, 1), (10, 2)] {
            let p = Posit::new(n, es);
            for code in 0..(1u64 << n) {
                let b1 = Bitstring::from_u64(code, n as usize);
                let v1 = p.format_to_real(&b1, &Metadata::None, 0);
                let b2 = p.real_to_format(v1, &Metadata::None, 0);
                let v2 = p.format_to_real(&b2, &Metadata::None, 0);
                assert!(
                    v1.to_bits() == v2.to_bits() || (v1.is_nan() && v2.is_nan()),
                    "posit({n},{es}) code {code:#x}: {v1} → {v2}"
                );
            }
        }
    }

    #[test]
    fn tapered_precision_beats_fp8_near_one() {
        // Posit8(es0) has 5 fraction bits near 1.0; FP8 e4m3 has 3.
        use crate::fp::FloatingPoint;
        let p = Posit::posit8();
        let f = FloatingPoint::fp8_e4m3();
        let x = 1.03f32;
        let pe = (p.quantize_scalar(x) - x).abs();
        let fe = (f.quantize_scalar(x) - x).abs();
        assert!(pe < fe, "posit err {pe} vs fp8 err {fe}");
    }

    #[test]
    fn monotone_over_table() {
        let p = Posit::new(10, 1);
        for w in p.table.windows(2) {
            assert!(w[0].0 < w[1].0, "table not strictly increasing");
        }
    }

    #[test]
    fn value_bit_flip_cannot_produce_infinity() {
        // Unlike FP, posits have no Inf — worst case is NaR or ±maxpos.
        let p = Posit::posit8();
        let x = Tensor::from_vec(vec![1.5, -0.25, 40.0], [3]);
        let q = p.real_to_format_tensor(&x);
        for i in 0..3 {
            for bit in 0..8 {
                let bits = p.real_to_format(q.values.as_slice()[i], &q.meta, i).with_flip(bit);
                let v = p.format_to_real(&bits, &q.meta, i);
                assert!(v.is_nan() || v.abs() <= 64.0, "flip({i},{bit}) gave {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_validation() {
        Posit::new(2, 0);
    }
}
