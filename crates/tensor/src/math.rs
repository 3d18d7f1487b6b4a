//! Owned transcendentals: lane-parallel ports of glibc 2.36's `tanhf`,
//! `expm1f` and `expf`, bit-identical to the host libm they replace.
//!
//! The substrate's results must not depend on which C library a build
//! links. `f32::tanh`, `f32::exp_m1` and `f32::exp` call the platform
//! libm, whose float routines differ between releases and vendors; the
//! ports here are the one implementation every build runs, pinned by
//! checked-in digests over all 2^32 inputs (see the tests below).
//!
//! - [`tanhf`] and [`expm1f`] port fdlibm's `flt-32/s_tanhf.c` and
//!   `s_expm1f.c` as glibc 2.36 ships them: single-precision arithmetic in
//!   fdlibm's order, no contraction.
//! - [`expf`] ports `e_expf.c` as glibc dispatches it on x86-64 hosts with
//!   FMA: double-precision evaluation with five fused multiply-adds,
//!   written as [`f64::mul_add`], which is exactly rounded on every host.
//!
//! # Lane form
//!
//! Each port is written once, over a fixed-width chunk of [`LANES`]
//! inputs. Every lane runs every branch's arithmetic in the scalar
//! routine's order and the result is picked with selects, so a lane's
//! value is the value of the scalar routine's taken branch. IEEE-754
//! vector lanes round exactly like scalar instructions, so the chunk body
//! gives the same bits whether the compiler keeps it scalar or widens it.
//! The body is compiled under one `#[target_feature]` wrapper per
//! micro-kernel ([`kernels::with_isa`]) and dispatched by
//! [`kernels::active`], which honours `GOLDENEYE_KERNEL`; there is no
//! other runtime path.

use crate::linalg::kernels::{self, Kernel};

/// Inputs per chunk: one 512-bit register of `f32`.
pub(crate) const LANES: usize = 16;

/// One chunk of lanes.
pub(crate) type Lanes = [f32; LANES];

/// An elementwise map written as a lane body (see the module docs). The
/// body must be `#[inline(always)]` so it compiles inside each
/// `#[target_feature]` wrapper rather than as one baseline function.
pub(crate) trait LaneMap {
    /// Maps one chunk of inputs.
    fn lanes(x: &Lanes) -> Lanes;
}

/// Applies `M` to every element of `xs` in place, with the dispatched
/// micro-kernel's instruction set.
pub(crate) fn map_in_place<M: LaneMap>(xs: &mut [f32]) {
    map_with::<M>(kernels::active(), xs)
}

/// [`map_in_place`] under an explicit kernel (clamped to what the host
/// supports: the SIMD wrappers also need FMA).
pub(crate) fn map_with<M: LaneMap>(kern: Kernel, xs: &mut [f32]) {
    kernels::with_isa(
        kern,
        #[inline(always)]
        || map_chunks::<M>(xs),
    )
}

#[inline(always)]
fn map_chunks<M: LaneMap>(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for c in &mut chunks {
        let c: &mut Lanes = c.try_into().expect("exact chunk");
        *c = M::lanes(c);
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut pad = [0.0f32; LANES];
        pad[..tail.len()].copy_from_slice(tail);
        let out = M::lanes(&pad);
        tail.copy_from_slice(&out[..tail.len()]);
    }
}

/// Runs one value through a lane body (padding the other lanes).
fn one<M: LaneMap>(x: f32) -> f32 {
    let mut v = [x];
    map_in_place::<M>(&mut v);
    v[0]
}

/// `tanh(x)`, bit-identical to glibc 2.36's `tanhf`.
pub fn tanhf(x: f32) -> f32 {
    one::<Tanh>(x)
}

/// `exp(x) - 1`, bit-identical to glibc 2.36's `expm1f`.
pub fn expm1f(x: f32) -> f32 {
    one::<Expm1>(x)
}

/// `exp(x)`, bit-identical to glibc 2.36's FMA `expf`.
pub fn expf(x: f32) -> f32 {
    one::<Exp>(x)
}

/// The [`tanhf`] lane body.
pub(crate) struct Tanh;
/// The [`expm1f`] lane body.
pub(crate) struct Expm1;
/// The [`expf`] lane body.
pub(crate) struct Exp;

impl LaneMap for Tanh {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        tanh_lanes(x)
    }
}

impl LaneMap for Expm1 {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        expm1_lanes(x)
    }
}

impl LaneMap for Exp {
    #[inline(always)]
    fn lanes(x: &Lanes) -> Lanes {
        exp_lanes(x)
    }
}

/// `s_tanhf.c`: `tanh(x) = ±(1 - 2/(expm1(2|x|) + 2))` for `|x| >= 1`,
/// `-t/(t + 2)` with `t = expm1(-2|x|)` below, `x` for zero, `x(1 + x)`
/// below 2^-55 and `±1` from 22 up.
#[inline(always)]
pub(crate) fn tanh_lanes(x: &Lanes) -> Lanes {
    const ONE: f32 = 1.0;
    const TWO: f32 = 2.0;
    const TINY: f32 = 1.0e-30;
    let mut arg = [0.0f32; LANES];
    for i in 0..LANES {
        let ix = x[i].to_bits() & 0x7fff_ffff;
        let ax = x[i].abs();
        arg[i] = if ix >= 0x3f80_0000 { TWO * ax } else { -TWO * ax };
    }
    let t = expm1_lanes(&arg);
    let mut out = [0.0f32; LANES];
    for i in 0..LANES {
        let xi = x[i];
        let jx = xi.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        let non_finite = if jx >= 0 { ONE / xi + ONE } else { ONE / xi - ONE };
        let small = xi * (ONE + xi);
        let big = ONE - TWO / (t[i] + TWO);
        let mid = -t[i] / (t[i] + TWO);
        let sat = ONE - TINY;
        let z = if ix >= 0x41b0_0000 {
            sat
        } else if ix >= 0x3f80_0000 {
            big
        } else {
            mid
        };
        let signed = if jx >= 0 { z } else { -z };
        out[i] = if ix >= 0x7f80_0000 {
            non_finite
        } else if ix == 0 {
            xi
        } else if ix < 0x2400_0000 {
            small
        } else {
            signed
        };
    }
    out
}

/// `s_expm1f.c`: reduce `x = k·ln2 + r` (`hi - lo` with a correction
/// `c`), evaluate the rational approximation on `r`, then scale by 2^k
/// with one of fdlibm's six reconstruction formulas.
#[inline(always)]
pub(crate) fn expm1_lanes(x: &Lanes) -> Lanes {
    const ONE: f32 = 1.0;
    const TINY: f32 = 1.0e-30;
    const HUGE: f32 = 1.0e+30;
    let o_threshold = f32::from_bits(0x42b1_7180);
    let ln2_hi = f32::from_bits(0x3f31_7180);
    let ln2_lo = f32::from_bits(0x3717_f7d1);
    let invln2 = f32::from_bits(0x3fb8_aa3b);
    let q1 = f32::from_bits(0xbd08_8889);
    let q2 = f32::from_bits(0x3ad0_0d01);
    let q3 = f32::from_bits(0xb8a6_70cd);
    let q4 = f32::from_bits(0x3686_7e54);
    let q5 = f32::from_bits(0xb457_edbb);
    let mut out = [0.0f32; LANES];
    for i in 0..LANES {
        let x0 = x[i];
        let neg = x0.to_bits() >> 31 == 1;
        let hx = x0.to_bits() & 0x7fff_ffff;

        // Argument reduction: both reductions, then the one |x| selects.
        let (near_hi, near_lo, near_k) =
            if neg { (x0 + ln2_hi, -ln2_lo, -1) } else { (x0 - ln2_hi, ln2_lo, 1) };
        let kf = invln2 * x0 + if neg { -0.5 } else { 0.5 };
        let far_k = kf as i32;
        let tk = far_k as f32;
        let far_hi = x0 - tk * ln2_hi;
        let far_lo = tk * ln2_lo;
        let (hi, lo, k) =
            if hx < 0x3f85_1592 { (near_hi, near_lo, near_k) } else { (far_hi, far_lo, far_k) };
        let xr = hi - lo;
        let cr = (hi - xr) - lo;
        let reduced = hx > 0x3eb1_7218;
        let (xr, c, k) = if reduced { (xr, cr, k) } else { (x0, 0.0, 0) };

        // The primary-range approximation.
        let hfx = 0.5 * xr;
        let hxs = xr * hfx;
        let r1 = ONE + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
        let t = 3.0 - r1 * hfx;
        let e0 = hxs * ((r1 - t) / (6.0 - xr * t));
        let k0 = xr - (xr * e0 - hxs);

        // Reconstruction for k != 0.
        let e = xr * (e0 - c) - c;
        let e = e - hxs;
        let km1 = 0.5 * (xr - e) - 0.5;
        let k1 = if xr < -0.25 { -2.0 * (e - (xr + 0.5)) } else { ONE + 2.0 * (xr - e) };
        let kexp = (k as u32).wrapping_shl(23);
        let y = ONE - (e - xr);
        let y_wide = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000)
        } else {
            f32::from_bits(y.to_bits().wrapping_add(kexp))
        };
        let wide = y_wide - ONE;
        let t_lo =
            f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
        let y_lo = t_lo - (e - xr);
        let low = f32::from_bits(y_lo.to_bits().wrapping_add(kexp));
        let t_hi = f32::from_bits((0x7fi32.wrapping_sub(k) as u32).wrapping_shl(23));
        let y_hi = (xr - (e + t_hi)) + ONE;
        let high = f32::from_bits(y_hi.to_bits().wrapping_add(kexp));
        let scaled = if k == 0 {
            k0
        } else if k == -1 {
            km1
        } else if k == 1 {
            k1
        } else if k <= -2 || k > 56 {
            wide
        } else if k < 23 {
            low
        } else {
            high
        };

        // |x| < 2^-25: x itself, through fdlibm's inexact-raising dance.
        let tiny_t = HUGE + x0;
        let tiny = x0 - (tiny_t - (HUGE + x0));
        let main = if !reduced && hx < 0x3300_0000 { tiny } else { scaled };

        // Huge and non-finite arguments.
        out[i] = if hx > 0x7f80_0000 {
            x0 + x0
        } else if hx == 0x7f80_0000 {
            if neg {
                -1.0
            } else {
                x0
            }
        } else if hx >= 0x42b1_7218 && x0 > o_threshold {
            HUGE * HUGE
        } else if hx >= 0x4195_b844 && neg {
            TINY - ONE
        } else {
            main
        };
    }
    out
}

/// `__exp2f_data.tab`: `asuint64(2^(i/32)) - (i << 47)`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `e_expf.c` (FMA build): `x·32/ln2 = k + r` by the round-to-integer
/// shift, `exp(x) = 2^(k/32) · 2^(r/32)` with a table for the first
/// factor and a cubic for the second, evaluated in `f64` and rounded once.
/// `|x| >= 88` and NaN take the special paths first.
#[inline(always)]
pub(crate) fn exp_lanes(x: &Lanes) -> Lanes {
    let invln2n = f64::from_bits(0x4047_1547_652b_82fe);
    let shift = f64::from_bits(0x4338_0000_0000_0000);
    let c0 = f64::from_bits(0x3ebc_6af8_4b91_2394);
    let c1 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
    let c2 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
    let oflow = f32::from_bits(0x42b1_7217);
    let uflow = f32::from_bits(0xc2cf_f1b4);
    let may_uflow = f32::from_bits(0xc2ce_8ecf);
    // `__math_oflowf`, `__math_uflowf` and `__math_may_uflowf` results.
    let big = f32::from_bits(0x7000_0000) * f32::from_bits(0x7000_0000);
    let zero = f32::from_bits(0x1000_0000) * f32::from_bits(0x1000_0000);
    let least = f32::from_bits(0x1a20_0000) * f32::from_bits(0x1a20_0000);
    let mut out = [0.0f32; LANES];
    for i in 0..LANES {
        let xi = x[i];
        let xd = xi as f64;
        let kd = invln2n.mul_add(xd, shift);
        let ki = kd.to_bits();
        let kd = kd - shift;
        let r = invln2n.mul_add(xd, -kd);
        let t = EXP2F_TAB[(ki & 31) as usize].wrapping_add(ki.wrapping_shl(47));
        let s = f64::from_bits(t);
        let z = c0.mul_add(r, c1);
        let r2 = r * r;
        let y = c2.mul_add(r, 1.0);
        let y = z.mul_add(r2, y);
        let main = (y * s) as f32;

        let abstop = (xi.to_bits() >> 20) & 0x7ff;
        out[i] = if abstop < 0x42b {
            main
        } else if xi.to_bits() == 0xff80_0000 {
            0.0
        } else if abstop >= 0x7f8 {
            xi + xi
        } else if xi > oflow {
            big
        } else if xi < uflow {
            zero
        } else if xi < may_uflow {
            least
        } else {
            main
        };
    }
    out
}

#[cfg(test)]
mod tests {
    //! The branchy scalar ports below follow the C sources line by line;
    //! they are the oracles the lane bodies are checked against, never a
    //! runtime path. The digests pin the lane bodies' outputs on every
    //! input, so a build on another host (another libm) checks the same
    //! bits.
    use super::*;

    fn tanhf_ref(x: f32) -> f32 {
        const ONE: f32 = 1.0;
        const TWO: f32 = 2.0;
        const TINY: f32 = 1.0e-30;
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 { ONE / x + ONE } else { ONE / x - ONE };
        }
        let z;
        if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (ONE + x);
            }
            if ix >= 0x3f80_0000 {
                let t = expm1f_ref(TWO * x.abs());
                z = ONE - TWO / (t + TWO);
            } else {
                let t = expm1f_ref(-TWO * x.abs());
                z = -t / (t + TWO);
            }
        } else {
            z = ONE - TINY;
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    fn expm1f_ref(mut x: f32) -> f32 {
        const ONE: f32 = 1.0;
        const TINY: f32 = 1.0e-30;
        const HUGE: f32 = 1.0e+30;
        let o_threshold = f32::from_bits(0x42b1_7180);
        let ln2_hi = f32::from_bits(0x3f31_7180);
        let ln2_lo = f32::from_bits(0x3717_f7d1);
        let invln2 = f32::from_bits(0x3fb8_aa3b);
        let q = [0xbd08_8889u32, 0x3ad0_0d01, 0xb8a6_70cd, 0x3686_7e54, 0xb457_edbb]
            .map(f32::from_bits);
        let hx0 = x.to_bits();
        let xsb = hx0 & 0x8000_0000;
        let hx = hx0 & 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 };
                }
                if x > o_threshold {
                    return HUGE * HUGE;
                }
            }
            if xsb != 0 {
                return TINY - ONE;
            }
        }
        let (k, c);
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if xsb == 0 {
                    (hi, lo, k) = (x - ln2_hi, ln2_lo, 1);
                } else {
                    (hi, lo, k) = (x + ln2_hi, -ln2_lo, -1);
                }
            } else {
                k = (invln2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * ln2_hi;
                lo = t * ln2_lo;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            k = 0;
            c = 0.0;
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = ONE + hxs * (q[0] + hxs * (q[1] + hxs * (q[2] + hxs * (q[3] + hxs * q[4]))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { ONE + 2.0 * (x - e) };
        }
        if k <= -2 || k > 56 {
            let mut y = ONE - (e - x);
            if k == 128 {
                y = y * 2.0 * f32::from_bits(0x7f00_0000);
            } else {
                y = f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
            }
            return y - ONE;
        }
        if k < 23 {
            let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
            let y = t - (e - x);
            f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32)
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            let y = (x - (e + t)) + ONE;
            f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32)
        }
    }

    fn expf_ref(x: f32) -> f32 {
        let abstop = (x.to_bits() >> 20) & 0x7ff;
        if abstop >= 0x42b {
            if x.to_bits() == 0xff80_0000 {
                return 0.0;
            }
            if abstop >= 0x7f8 {
                return x + x;
            }
            if x > f32::from_bits(0x42b1_7217) {
                return f32::from_bits(0x7000_0000) * f32::from_bits(0x7000_0000);
            }
            if x < f32::from_bits(0xc2cf_f1b4) {
                return f32::from_bits(0x1000_0000) * f32::from_bits(0x1000_0000);
            }
            if x < f32::from_bits(0xc2ce_8ecf) {
                return f32::from_bits(0x1a20_0000) * f32::from_bits(0x1a20_0000);
            }
        }
        let invln2n = f64::from_bits(0x4047_1547_652b_82fe);
        let shift = f64::from_bits(0x4338_0000_0000_0000);
        let xd = x as f64;
        let kd = invln2n.mul_add(xd, shift);
        let ki = kd.to_bits();
        let kd = kd - shift;
        let r = invln2n.mul_add(xd, -kd);
        let t = EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47);
        let s = f64::from_bits(t);
        let z =
            f64::from_bits(0x3ebc_6af8_4b91_2394).mul_add(r, f64::from_bits(0x3f2e_bfce_50fa_c4f3));
        let r2 = r * r;
        let y = f64::from_bits(0x3f96_2e42_ff0c_52d6).mul_add(r, 1.0);
        let y = z.mul_add(r2, y);
        (y * s) as f32
    }

    /// FNV-1a (64-bit) over each output's little-endian bytes.
    fn fnv(acc: u64, v: f32) -> u64 {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(acc, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// A port under test: its name, its lane body and its oracle.
    struct Port {
        name: &'static str,
        run: fn(Kernel, &mut [f32]),
        oracle: fn(f32) -> f32,
        /// FNV-1a of the outputs on every [`STRIDE`]th input bit pattern.
        strided_digest: u64,
        /// FNV-1a of the outputs on every input bit pattern, `0..=u32::MAX`
        /// in order.
        full_digest: u64,
    }

    /// The `cargo test` sweep's stride over the bit patterns: prime, so
    /// every residue of the exponent and mantissa fields is visited.
    const STRIDE: usize = 4099;

    const PORTS: [Port; 3] = [
        Port {
            name: "tanhf",
            run: map_with::<Tanh>,
            oracle: tanhf_ref,
            strided_digest: 0xf9b8_c6a9_7656_4d6b,
            full_digest: 0x4928_1f60_6e90_98ed,
        },
        Port {
            name: "expm1f",
            run: map_with::<Expm1>,
            oracle: expm1f_ref,
            strided_digest: 0x85f2_4ed7_8ef1_7a77,
            full_digest: 0xdfa3_3b8a_afa7_873f,
        },
        Port {
            name: "expf",
            run: map_with::<Exp>,
            oracle: expf_ref,
            strided_digest: 0xfd94_9e0a_46fb_b207,
            full_digest: 0x5a88_ecc5_8dea_b5a4,
        },
    ];

    /// Zeros, ±∞, NaNs, subnormals, the extremes, and the neighbourhood of
    /// every branch threshold in the three routines.
    fn special_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = vec![0, 1, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff, 0x7f80_0000];
        bits.extend([0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff, 0x7fa0_0001]);
        let thresholds = [
            0x2400_0000u32, // tanhf: 2^-55
            0x3f80_0000,    // tanhf: 1
            0x41b0_0000,    // tanhf: 22
            0x3300_0000,    // expm1f: 2^-25
            0x3eb1_7218,    // expm1f: ln2/2
            0x3f85_1592,    // expm1f: 1.5 ln2
            0x4195_b844,    // expm1f: 27 ln2
            0x42b1_7180,    // expm1f: overflow threshold
            0x42b1_7218,    // expm1f: 88.72
            0x42b0_0000,    // expf: 88
            0x42b1_7217,    // expf: overflow
            0x42cf_f1b4,    // expf: underflow (negated)
            0x42ce_8ecf,    // expf: may-underflow (negated)
            0x3f80_0000 + (23 << 23),
            0x3f80_0000 + (56 << 23),
        ];
        for t in thresholds {
            for d in 0..=4u32 {
                bits.extend([t.wrapping_add(d), t.wrapping_sub(d)]);
            }
        }
        // The ln2 multiples where expm1f's k steps (k = -2..=128).
        for k in -30i32..=128 {
            let v = (k as f32 + 0.5) * std::f32::consts::LN_2;
            for d in -2i32..=2 {
                bits.push(v.to_bits().wrapping_add(d as u32));
            }
        }
        let mut xs: Vec<f32> = Vec::new();
        for b in bits {
            xs.push(f32::from_bits(b));
            xs.push(f32::from_bits(b ^ 0x8000_0000));
        }
        xs
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn lane_bodies_match_the_scalar_oracles_on_special_inputs() {
        let xs = special_inputs();
        for port in &PORTS {
            for kern in kernels::supported_kernels() {
                let mut got = xs.clone();
                (port.run)(kern, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = (port.oracle)(x);
                    assert!(
                        same(g, want),
                        "{} {kern}: x={x:e} ({:#010x}) gave {g:e}, oracle {want:e}",
                        port.name,
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// The strided sweep: lane body against oracle on every input, and
    /// against the checked-in digest.
    #[test]
    fn lane_bodies_match_the_oracles_and_digests_on_a_strided_sweep() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(STRIDE).map(f32::from_bits).collect();
        for port in &PORTS {
            for kern in kernels::supported_kernels() {
                let mut got = xs.clone();
                (port.run)(kern, &mut got);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = (port.oracle)(x);
                    assert!(
                        same(g, want),
                        "{} {kern}: x={x:e} ({:#010x}) gave {g:e}, oracle {want:e}",
                        port.name,
                        x.to_bits()
                    );
                }
                let h = got.iter().fold(FNV_OFFSET, |acc, &v| fnv(acc, v));
                assert_eq!(h, port.strided_digest, "{} under {kern}: digest {h:#018x}", port.name);
            }
        }
    }

    #[test]
    fn scalar_entry_points_and_tails_match_the_slice_form() {
        let xs: Vec<f32> = (0..37).map(|i| i as f32 * 0.71 - 12.5).collect();
        let mut t = xs.clone();
        map_in_place::<Tanh>(&mut t);
        let mut e = xs.clone();
        map_in_place::<Exp>(&mut e);
        let mut m = xs.clone();
        map_in_place::<Expm1>(&mut m);
        for (i, &x) in xs.iter().enumerate() {
            assert!(same(t[i], tanhf(x)) && same(t[i], tanhf_ref(x)), "tanhf({x})");
            assert!(same(e[i], expf(x)) && same(e[i], expf_ref(x)), "expf({x})");
            assert!(same(m[i], expm1f(x)) && same(m[i], expm1f_ref(x)), "expm1f({x})");
        }
    }

    /// The full sweep: every input bit pattern, every supported kernel,
    /// against the checked-in digest. Minutes per port in a release build:
    /// `cargo test --release -p tensor -- --ignored`.
    #[test]
    #[ignore]
    fn lane_bodies_match_the_checked_in_digests_on_every_input() {
        const BLOCK: usize = 1 << 20;
        for port in &PORTS {
            for kern in kernels::supported_kernels() {
                let mut h = FNV_OFFSET;
                let mut buf = vec![0.0f32; BLOCK];
                for block in 0..(1usize << 32) / BLOCK {
                    let base = (block * BLOCK) as u32;
                    for (j, v) in buf.iter_mut().enumerate() {
                        *v = f32::from_bits(base + j as u32);
                    }
                    (port.run)(kern, &mut buf);
                    h = buf.iter().fold(h, |acc, &v| fnv(acc, v));
                }
                assert_eq!(h, port.full_digest, "{} under {kern}: digest {h:#018x}", port.name);
            }
        }
    }
}
