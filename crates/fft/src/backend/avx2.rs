//! Explicit 4-lane AVX2 kernels.
//!
//! Every function here is `#[target_feature(enable = "avx2,fma")]` —
//! safe to define, `unsafe` to call from a non-AVX2 context, which is
//! why the dispatch layer in `mod.rs` only reaches them through a
//! resolved [`super::StrixFftBackend::Avx2`]/`Avx512` value (a witness
//! that `is_x86_feature_detected!` confirmed the features).
//!
//! # Bit-identity discipline
//!
//! The scalar oracle compiles with floating-point contraction *off*,
//! so these kernels use only separate `_mm256_mul_pd` /
//! `_mm256_add_pd` / `_mm256_sub_pd` — **no FMA intrinsics**, whose
//! single rounding would diverge from the portable backend. Negation
//! is a sign-bit XOR (`-(a-b)` is *not* rewritten `b-a`: that would
//! flip the sign of a `-0.0` result). Each vectorised loop carries a
//! scalar tail computing the identical expressions, and the i64→f64
//! conversion reproduces scalar `as f64` exactly (see
//! [`cvt_i64_f64`]).
//!
//! The only `unsafe` blocks are the pointer loads/stores in the
//! helpers below, each behind a length assertion.

use core::arch::x86_64::{
    __m256d, __m256i, _mm256_add_pd, _mm256_blend_epi32, _mm256_castsi256_pd, _mm256_loadu_pd,
    _mm256_loadu_si256, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_srli_epi64,
    _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd, _mm256_xor_si256,
};

use super::portable;

/// f64 lanes per AVX2 vector.
const LANES: usize = 4;

/// Loads 4 lanes from `s` at offset `j`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn ld(s: &[f64], j: usize) -> __m256d {
    assert!(j + LANES <= s.len(), "simd load out of bounds");
    // SAFETY: the assertion above guarantees LANES readable f64 values
    // starting at offset j.
    unsafe { _mm256_loadu_pd(s.as_ptr().add(j)) }
}

/// Stores 4 lanes to `s` at offset `j`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn st(s: &mut [f64], j: usize, v: __m256d) {
    assert!(j + LANES <= s.len(), "simd store out of bounds");
    // SAFETY: the assertion above guarantees LANES writable f64 slots
    // starting at offset j.
    unsafe { _mm256_storeu_pd(s.as_mut_ptr().add(j), v) }
}

/// Loads 4 packed `i64` lanes from `s` at offset `j`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn ldi(s: &[i64], j: usize) -> __m256i {
    assert!(j + LANES <= s.len(), "simd load out of bounds");
    // SAFETY: the assertion above guarantees LANES readable i64 values
    // starting at offset j; unaligned access is permitted by loadu.
    unsafe { _mm256_loadu_si256(s.as_ptr().add(j).cast()) }
}

/// Lane-wise negation as a sign-bit flip — bit-identical to scalar
/// unary `-`, including on zeros (where `b - a` would differ).
#[inline]
#[target_feature(enable = "avx2,fma")]
fn neg(v: __m256d) -> __m256d {
    _mm256_xor_pd(v, _mm256_set1_pd(-0.0))
}

/// Lane-wise complex multiply on split operands — the vector form of
/// [`portable::cmul`]: `(ar·br − ai·bi, ar·bi + ai·br)` with separate
/// mul/sub/add (no FMA), so each lane rounds exactly like the scalar.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn cmulv(ar: __m256d, ai: __m256d, br: __m256d, bi: __m256d) -> (__m256d, __m256d) {
    (
        _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi)),
        _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br)),
    )
}

/// Exact full-range `i64 → f64` conversion (4 lanes), bit-identical to
/// scalar `v as f64`.
///
/// AVX2 has no packed 64-bit integer→double instruction, so this uses
/// the classic magic-constant decomposition: split each lane into its
/// low 32 bits (OR'd into the mantissa of 2^52) and its high 32 bits
/// (shifted down, sign bit flipped, OR'd into the mantissa of 2^84);
/// subtracting `2^84 + 2^63 + 2^52` undoes both biases and the sign
/// flip exactly, and the final add rounds once — the same single
/// rounding as the scalar conversion, hence bit-identical.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn cvt_i64_f64(v: __m256i) -> __m256d {
    // 2^52 — low-half bias.
    let magic_i_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000_u64 as i64);
    // 2^84 + 2^63 — high-half bias plus the flipped sign bit.
    let magic_i_hi32 = _mm256_set1_epi64x(0x4530_0000_8000_0000_u64 as i64);
    // 2^84 + 2^63 + 2^52 — the combined bias to subtract.
    let magic_i_all = _mm256_set1_epi64x(0x4530_0000_8010_0000_u64 as i64);
    let magic_d_all = _mm256_castsi256_pd(magic_i_all);
    // Even 32-bit elements (the low halves, little-endian) come from
    // v; odd elements carry 2^52's exponent bits.
    let v_lo = _mm256_blend_epi32::<0b0101_0101>(magic_i_lo, v);
    let v_hi = _mm256_xor_si256(_mm256_srli_epi64::<32>(v), magic_i_hi32);
    let v_hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), magic_d_all);
    _mm256_add_pd(v_hi_dbl, _mm256_castsi256_pd(v_lo))
}

/// Forward radix-2 DIF butterflies over every block of `len`.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn fwd_stage_r2(re: &mut [f64], im: &mut [f64], len: usize, wr: &[f64], wi: &[f64]) {
    let q = len / 2;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (lo_r, hi_r) = bre.split_at_mut(q);
        let (lo_i, hi_i) = bim.split_at_mut(q);
        let (wr, wi) = (&wr[..q], &wi[..q]);
        let mut j = 0;
        while j + LANES <= q {
            let (xr, xi) = (ld(lo_r, j), ld(lo_i, j));
            let (yr, yi) = (ld(hi_r, j), ld(hi_i, j));
            st(lo_r, j, _mm256_add_pd(xr, yr));
            st(lo_i, j, _mm256_add_pd(xi, yi));
            let (br, bi) =
                cmulv(_mm256_sub_pd(xr, yr), _mm256_sub_pd(xi, yi), ld(wr, j), ld(wi, j));
            st(hi_r, j, br);
            st(hi_i, j, bi);
            j += LANES;
        }
        while j < q {
            let (xr, xi) = (lo_r[j], lo_i[j]);
            let (yr, yi) = (hi_r[j], hi_i[j]);
            lo_r[j] = xr + yr;
            lo_i[j] = xi + yi;
            let (br, bi) = portable::cmul(xr - yr, xi - yi, wr[j], wi[j]);
            hi_r[j] = br;
            hi_i[j] = bi;
            j += 1;
        }
    }
}

/// Forward radix-4 DIF butterflies over every block of `len`.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn fwd_stage_r4(re: &mut [f64], im: &mut [f64], len: usize, twr: &[f64], twi: &[f64]) {
    let q = len / 4;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (r0, rest) = bre.split_at_mut(q);
        let (r1, rest) = rest.split_at_mut(q);
        let (r2, r3) = rest.split_at_mut(q);
        let (i0, rest) = bim.split_at_mut(q);
        let (i1, rest) = rest.split_at_mut(q);
        let (i2, i3) = rest.split_at_mut(q);
        let (w1r, w1i) = (&twr[..q], &twi[..q]);
        let (w2r, w2i) = (&twr[q..2 * q], &twi[q..2 * q]);
        let (w3r, w3i) = (&twr[2 * q..3 * q], &twi[2 * q..3 * q]);
        let mut j = 0;
        while j + LANES <= q {
            let (v0r, v0i) = (ld(r0, j), ld(i0, j));
            let (v1r, v1i) = (ld(r1, j), ld(i1, j));
            let (v2r, v2i) = (ld(r2, j), ld(i2, j));
            let (v3r, v3i) = (ld(r3, j), ld(i3, j));
            let (p02r, p02i) = (_mm256_add_pd(v0r, v2r), _mm256_add_pd(v0i, v2i));
            let (m02r, m02i) = (_mm256_sub_pd(v0r, v2r), _mm256_sub_pd(v0i, v2i));
            let (p13r, p13i) = (_mm256_add_pd(v1r, v3r), _mm256_add_pd(v1i, v3i));
            let m13ir = neg(_mm256_sub_pd(v1i, v3i));
            let m13ii = _mm256_sub_pd(v1r, v3r);
            st(r0, j, _mm256_add_pd(p02r, p13r));
            st(i0, j, _mm256_add_pd(p02i, p13i));
            let (y1r, y1i) = cmulv(
                _mm256_sub_pd(m02r, m13ir),
                _mm256_sub_pd(m02i, m13ii),
                ld(w1r, j),
                ld(w1i, j),
            );
            st(r1, j, y1r);
            st(i1, j, y1i);
            let (y2r, y2i) =
                cmulv(_mm256_sub_pd(p02r, p13r), _mm256_sub_pd(p02i, p13i), ld(w2r, j), ld(w2i, j));
            st(r2, j, y2r);
            st(i2, j, y2i);
            let (y3r, y3i) = cmulv(
                _mm256_add_pd(m02r, m13ir),
                _mm256_add_pd(m02i, m13ii),
                ld(w3r, j),
                ld(w3i, j),
            );
            st(r3, j, y3r);
            st(i3, j, y3i);
            j += LANES;
        }
        while j < q {
            let (p02r, p02i) = (r0[j] + r2[j], i0[j] + i2[j]);
            let (m02r, m02i) = (r0[j] - r2[j], i0[j] - i2[j]);
            let (p13r, p13i) = (r1[j] + r3[j], i1[j] + i3[j]);
            let (m13ir, m13ii) = (-(i1[j] - i3[j]), r1[j] - r3[j]);
            r0[j] = p02r + p13r;
            i0[j] = p02i + p13i;
            let (y1r, y1i) = portable::cmul(m02r - m13ir, m02i - m13ii, w1r[j], w1i[j]);
            r1[j] = y1r;
            i1[j] = y1i;
            let (y2r, y2i) = portable::cmul(p02r - p13r, p02i - p13i, w2r[j], w2i[j]);
            r2[j] = y2r;
            i2[j] = y2i;
            let (y3r, y3i) = portable::cmul(m02r + m13ir, m02i + m13ii, w3r[j], w3i[j]);
            r3[j] = y3r;
            i3[j] = y3i;
            j += 1;
        }
    }
}

/// Inverse radix-2 DIT butterflies over every block of `len`.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn inv_stage_r2(re: &mut [f64], im: &mut [f64], len: usize, wr: &[f64], wi: &[f64]) {
    let q = len / 2;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (lo_r, hi_r) = bre.split_at_mut(q);
        let (lo_i, hi_i) = bim.split_at_mut(q);
        let (wr, wi) = (&wr[..q], &wi[..q]);
        let mut j = 0;
        while j + LANES <= q {
            let (xr, xi) = (ld(lo_r, j), ld(lo_i, j));
            let (yr, yi) = cmulv(ld(hi_r, j), ld(hi_i, j), ld(wr, j), ld(wi, j));
            st(lo_r, j, _mm256_add_pd(xr, yr));
            st(lo_i, j, _mm256_add_pd(xi, yi));
            st(hi_r, j, _mm256_sub_pd(xr, yr));
            st(hi_i, j, _mm256_sub_pd(xi, yi));
            j += LANES;
        }
        while j < q {
            let (xr, xi) = (lo_r[j], lo_i[j]);
            let (yr, yi) = portable::cmul(hi_r[j], hi_i[j], wr[j], wi[j]);
            lo_r[j] = xr + yr;
            lo_i[j] = xi + yi;
            hi_r[j] = xr - yr;
            hi_i[j] = xi - yi;
            j += 1;
        }
    }
}

/// Inverse radix-4 DIT butterflies over every block of `len`.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn inv_stage_r4(re: &mut [f64], im: &mut [f64], len: usize, twr: &[f64], twi: &[f64]) {
    let q = len / 4;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (r0, rest) = bre.split_at_mut(q);
        let (r1, rest) = rest.split_at_mut(q);
        let (r2, r3) = rest.split_at_mut(q);
        let (i0, rest) = bim.split_at_mut(q);
        let (i1, rest) = rest.split_at_mut(q);
        let (i2, i3) = rest.split_at_mut(q);
        let (w1r, w1i) = (&twr[..q], &twi[..q]);
        let (w2r, w2i) = (&twr[q..2 * q], &twi[q..2 * q]);
        let (w3r, w3i) = (&twr[2 * q..3 * q], &twi[2 * q..3 * q]);
        let mut j = 0;
        while j + LANES <= q {
            let (u1r, u1i) = cmulv(ld(r1, j), ld(i1, j), ld(w1r, j), ld(w1i, j));
            let (u2r, u2i) = cmulv(ld(r2, j), ld(i2, j), ld(w2r, j), ld(w2i, j));
            let (u3r, u3i) = cmulv(ld(r3, j), ld(i3, j), ld(w3r, j), ld(w3i, j));
            let (v0r, v0i) = (ld(r0, j), ld(i0, j));
            let (p02r, p02i) = (_mm256_add_pd(v0r, u2r), _mm256_add_pd(v0i, u2i));
            let (m02r, m02i) = (_mm256_sub_pd(v0r, u2r), _mm256_sub_pd(v0i, u2i));
            let (p13r, p13i) = (_mm256_add_pd(u1r, u3r), _mm256_add_pd(u1i, u3i));
            let m13ir = neg(_mm256_sub_pd(u1i, u3i));
            let m13ii = _mm256_sub_pd(u1r, u3r);
            st(r0, j, _mm256_add_pd(p02r, p13r));
            st(i0, j, _mm256_add_pd(p02i, p13i));
            st(r1, j, _mm256_add_pd(m02r, m13ir));
            st(i1, j, _mm256_add_pd(m02i, m13ii));
            st(r2, j, _mm256_sub_pd(p02r, p13r));
            st(i2, j, _mm256_sub_pd(p02i, p13i));
            st(r3, j, _mm256_sub_pd(m02r, m13ir));
            st(i3, j, _mm256_sub_pd(m02i, m13ii));
            j += LANES;
        }
        while j < q {
            let (u1r, u1i) = portable::cmul(r1[j], i1[j], w1r[j], w1i[j]);
            let (u2r, u2i) = portable::cmul(r2[j], i2[j], w2r[j], w2i[j]);
            let (u3r, u3i) = portable::cmul(r3[j], i3[j], w3r[j], w3i[j]);
            let (p02r, p02i) = (r0[j] + u2r, i0[j] + u2i);
            let (m02r, m02i) = (r0[j] - u2r, i0[j] - u2i);
            let (p13r, p13i) = (u1r + u3r, u1i + u3i);
            let (m13ir, m13ii) = (-(u1i - u3i), u1r - u3r);
            r0[j] = p02r + p13r;
            i0[j] = p02i + p13i;
            r1[j] = m02r + m13ir;
            i1[j] = m02i + m13ii;
            r2[j] = p02r - p13r;
            i2[j] = p02i - p13i;
            r3[j] = m02r - m13ir;
            i3[j] = m02i - m13ii;
            j += 1;
        }
    }
}

/// Fused fold + twist + first forward stage, radix-2 head.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
#[target_feature(enable = "avx2,fma")]
pub(crate) fn fold_twist_r2(
    poly: &[i64],
    twist_re: &[f64],
    twist_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let n = out_re.len();
    let q = n / 2;
    let (pre, pim) = poly.split_at(n);
    let (o0r, o1r) = out_re.split_at_mut(q);
    let (o0i, o1i) = out_im.split_at_mut(q);
    let (wr, wi) = (&wr[..q], &wi[..q]);
    let mut j = 0;
    while j + LANES <= q {
        let (xr, xi) = cmulv(
            cvt_i64_f64(ldi(pre, j)),
            cvt_i64_f64(ldi(pim, j)),
            ld(twist_re, j),
            ld(twist_im, j),
        );
        let (yr, yi) = cmulv(
            cvt_i64_f64(ldi(pre, j + q)),
            cvt_i64_f64(ldi(pim, j + q)),
            ld(twist_re, j + q),
            ld(twist_im, j + q),
        );
        st(o0r, j, _mm256_add_pd(xr, yr));
        st(o0i, j, _mm256_add_pd(xi, yi));
        let (br, bi) = cmulv(_mm256_sub_pd(xr, yr), _mm256_sub_pd(xi, yi), ld(wr, j), ld(wi, j));
        st(o1r, j, br);
        st(o1i, j, bi);
        j += LANES;
    }
    while j < q {
        let (xr, xi) = portable::cmul(pre[j] as f64, pim[j] as f64, twist_re[j], twist_im[j]);
        let (yr, yi) =
            portable::cmul(pre[j + q] as f64, pim[j + q] as f64, twist_re[j + q], twist_im[j + q]);
        o0r[j] = xr + yr;
        o0i[j] = xi + yi;
        let (br, bi) = portable::cmul(xr - yr, xi - yi, wr[j], wi[j]);
        o1r[j] = br;
        o1i[j] = bi;
        j += 1;
    }
}

/// Fused fold + twist + first forward stage, radix-4 head.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
#[target_feature(enable = "avx2,fma")]
pub(crate) fn fold_twist_r4(
    poly: &[i64],
    twist_re: &[f64],
    twist_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    twr: &[f64],
    twi: &[f64],
) {
    let n = out_re.len();
    let q = n / 4;
    let (pre, pim) = poly.split_at(n);
    let (o0r, restr) = out_re.split_at_mut(q);
    let (o1r, restr) = restr.split_at_mut(q);
    let (o2r, o3r) = restr.split_at_mut(q);
    let (o0i, resti) = out_im.split_at_mut(q);
    let (o1i, resti) = resti.split_at_mut(q);
    let (o2i, o3i) = resti.split_at_mut(q);
    let (w1r, w1i) = (&twr[..q], &twi[..q]);
    let (w2r, w2i) = (&twr[q..2 * q], &twi[q..2 * q]);
    let (w3r, w3i) = (&twr[2 * q..3 * q], &twi[2 * q..3 * q]);
    let mut j = 0;
    while j + LANES <= q {
        let (a0r, a0i) = cmulv(
            cvt_i64_f64(ldi(pre, j)),
            cvt_i64_f64(ldi(pim, j)),
            ld(twist_re, j),
            ld(twist_im, j),
        );
        let (a1r, a1i) = cmulv(
            cvt_i64_f64(ldi(pre, j + q)),
            cvt_i64_f64(ldi(pim, j + q)),
            ld(twist_re, j + q),
            ld(twist_im, j + q),
        );
        let (a2r, a2i) = cmulv(
            cvt_i64_f64(ldi(pre, j + 2 * q)),
            cvt_i64_f64(ldi(pim, j + 2 * q)),
            ld(twist_re, j + 2 * q),
            ld(twist_im, j + 2 * q),
        );
        let (a3r, a3i) = cmulv(
            cvt_i64_f64(ldi(pre, j + 3 * q)),
            cvt_i64_f64(ldi(pim, j + 3 * q)),
            ld(twist_re, j + 3 * q),
            ld(twist_im, j + 3 * q),
        );
        let (p02r, p02i) = (_mm256_add_pd(a0r, a2r), _mm256_add_pd(a0i, a2i));
        let (m02r, m02i) = (_mm256_sub_pd(a0r, a2r), _mm256_sub_pd(a0i, a2i));
        let (p13r, p13i) = (_mm256_add_pd(a1r, a3r), _mm256_add_pd(a1i, a3i));
        let m13ir = neg(_mm256_sub_pd(a1i, a3i));
        let m13ii = _mm256_sub_pd(a1r, a3r);
        st(o0r, j, _mm256_add_pd(p02r, p13r));
        st(o0i, j, _mm256_add_pd(p02i, p13i));
        let (y1r, y1i) =
            cmulv(_mm256_sub_pd(m02r, m13ir), _mm256_sub_pd(m02i, m13ii), ld(w1r, j), ld(w1i, j));
        st(o1r, j, y1r);
        st(o1i, j, y1i);
        let (y2r, y2i) =
            cmulv(_mm256_sub_pd(p02r, p13r), _mm256_sub_pd(p02i, p13i), ld(w2r, j), ld(w2i, j));
        st(o2r, j, y2r);
        st(o2i, j, y2i);
        let (y3r, y3i) =
            cmulv(_mm256_add_pd(m02r, m13ir), _mm256_add_pd(m02i, m13ii), ld(w3r, j), ld(w3i, j));
        st(o3r, j, y3r);
        st(o3i, j, y3i);
        j += LANES;
    }
    while j < q {
        let (a0r, a0i) = portable::cmul(pre[j] as f64, pim[j] as f64, twist_re[j], twist_im[j]);
        let (a1r, a1i) =
            portable::cmul(pre[j + q] as f64, pim[j + q] as f64, twist_re[j + q], twist_im[j + q]);
        let (a2r, a2i) = portable::cmul(
            pre[j + 2 * q] as f64,
            pim[j + 2 * q] as f64,
            twist_re[j + 2 * q],
            twist_im[j + 2 * q],
        );
        let (a3r, a3i) = portable::cmul(
            pre[j + 3 * q] as f64,
            pim[j + 3 * q] as f64,
            twist_re[j + 3 * q],
            twist_im[j + 3 * q],
        );
        let (p02r, p02i) = (a0r + a2r, a0i + a2i);
        let (m02r, m02i) = (a0r - a2r, a0i - a2i);
        let (p13r, p13i) = (a1r + a3r, a1i + a3i);
        let (m13ir, m13ii) = (-(a1i - a3i), a1r - a3r);
        o0r[j] = p02r + p13r;
        o0i[j] = p02i + p13i;
        let (y1r, y1i) = portable::cmul(m02r - m13ir, m02i - m13ii, w1r[j], w1i[j]);
        o1r[j] = y1r;
        o1i[j] = y1i;
        let (y2r, y2i) = portable::cmul(p02r - p13r, p02i - p13i, w2r[j], w2i[j]);
        o2r[j] = y2r;
        o2i[j] = y2i;
        let (y3r, y3i) = portable::cmul(m02r + m13ir, m02i + m13ii, w3r[j], w3i[j]);
        o3r[j] = y3r;
        o3i[j] = y3i;
        j += 1;
    }
}

/// Fused last inverse stage (radix-2) + untwist/normalise + unfold.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
#[target_feature(enable = "avx2,fma")]
pub(crate) fn untwist_unfold_r2(
    sre: &[f64],
    sim: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    out: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let n = sre.len();
    let q = n / 2;
    let (out_re, out_im) = out.split_at_mut(n);
    let (s0r, s1r) = sre.split_at(q);
    let (s0i, s1i) = sim.split_at(q);
    let (u0r, u1r) = u_re.split_at(q);
    let (u0i, u1i) = u_im.split_at(q);
    let (r0, r1) = out_re.split_at_mut(q);
    let (i0, i1) = out_im.split_at_mut(q);
    let (wr, wi) = (&wr[..q], &wi[..q]);
    let mut j = 0;
    while j + LANES <= q {
        let (xr, xi) = (ld(s0r, j), ld(s0i, j));
        let (yr, yi) = cmulv(ld(s1r, j), ld(s1i, j), ld(wr, j), ld(wi, j));
        let (z0r, z0i) =
            cmulv(_mm256_add_pd(xr, yr), _mm256_add_pd(xi, yi), ld(u0r, j), ld(u0i, j));
        let (z1r, z1i) =
            cmulv(_mm256_sub_pd(xr, yr), _mm256_sub_pd(xi, yi), ld(u1r, j), ld(u1i, j));
        st(r0, j, z0r);
        st(i0, j, z0i);
        st(r1, j, z1r);
        st(i1, j, z1i);
        j += LANES;
    }
    while j < q {
        let (xr, xi) = (s0r[j], s0i[j]);
        let (yr, yi) = portable::cmul(s1r[j], s1i[j], wr[j], wi[j]);
        let (z0r, z0i) = portable::cmul(xr + yr, xi + yi, u0r[j], u0i[j]);
        let (z1r, z1i) = portable::cmul(xr - yr, xi - yi, u1r[j], u1i[j]);
        r0[j] = z0r;
        i0[j] = z0i;
        r1[j] = z1r;
        i1[j] = z1i;
        j += 1;
    }
}

/// Fused last inverse stage (radix-4) + untwist/normalise + unfold.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
#[target_feature(enable = "avx2,fma")]
pub(crate) fn untwist_unfold_r4(
    sre: &[f64],
    sim: &[f64],
    u_re: &[f64],
    u_im: &[f64],
    out: &mut [f64],
    twr: &[f64],
    twi: &[f64],
) {
    let n = sre.len();
    let q = n / 4;
    let (out_re, out_im) = out.split_at_mut(n);
    let (w1r, w1i) = (&twr[..q], &twi[..q]);
    let (w2r, w2i) = (&twr[q..2 * q], &twi[q..2 * q]);
    let (w3r, w3i) = (&twr[2 * q..3 * q], &twi[2 * q..3 * q]);
    let mut j = 0;
    while j + LANES <= q {
        let (u1r, u1i) = cmulv(ld(sre, j + q), ld(sim, j + q), ld(w1r, j), ld(w1i, j));
        let (u2r, u2i) = cmulv(ld(sre, j + 2 * q), ld(sim, j + 2 * q), ld(w2r, j), ld(w2i, j));
        let (u3r, u3i) = cmulv(ld(sre, j + 3 * q), ld(sim, j + 3 * q), ld(w3r, j), ld(w3i, j));
        let (v0r, v0i) = (ld(sre, j), ld(sim, j));
        let (p02r, p02i) = (_mm256_add_pd(v0r, u2r), _mm256_add_pd(v0i, u2i));
        let (m02r, m02i) = (_mm256_sub_pd(v0r, u2r), _mm256_sub_pd(v0i, u2i));
        let (p13r, p13i) = (_mm256_add_pd(u1r, u3r), _mm256_add_pd(u1i, u3i));
        let m13ir = neg(_mm256_sub_pd(u1i, u3i));
        let m13ii = _mm256_sub_pd(u1r, u3r);
        let (z0r, z0i) =
            cmulv(_mm256_add_pd(p02r, p13r), _mm256_add_pd(p02i, p13i), ld(u_re, j), ld(u_im, j));
        let (z1r, z1i) = cmulv(
            _mm256_add_pd(m02r, m13ir),
            _mm256_add_pd(m02i, m13ii),
            ld(u_re, j + q),
            ld(u_im, j + q),
        );
        let (z2r, z2i) = cmulv(
            _mm256_sub_pd(p02r, p13r),
            _mm256_sub_pd(p02i, p13i),
            ld(u_re, j + 2 * q),
            ld(u_im, j + 2 * q),
        );
        let (z3r, z3i) = cmulv(
            _mm256_sub_pd(m02r, m13ir),
            _mm256_sub_pd(m02i, m13ii),
            ld(u_re, j + 3 * q),
            ld(u_im, j + 3 * q),
        );
        st(out_re, j, z0r);
        st(out_im, j, z0i);
        st(out_re, j + q, z1r);
        st(out_im, j + q, z1i);
        st(out_re, j + 2 * q, z2r);
        st(out_im, j + 2 * q, z2i);
        st(out_re, j + 3 * q, z3r);
        st(out_im, j + 3 * q, z3i);
        j += LANES;
    }
    while j < q {
        let (u1r, u1i) = portable::cmul(sre[j + q], sim[j + q], w1r[j], w1i[j]);
        let (u2r, u2i) = portable::cmul(sre[j + 2 * q], sim[j + 2 * q], w2r[j], w2i[j]);
        let (u3r, u3i) = portable::cmul(sre[j + 3 * q], sim[j + 3 * q], w3r[j], w3i[j]);
        let (p02r, p02i) = (sre[j] + u2r, sim[j] + u2i);
        let (m02r, m02i) = (sre[j] - u2r, sim[j] - u2i);
        let (p13r, p13i) = (u1r + u3r, u1i + u3i);
        let (m13ir, m13ii) = (-(u1i - u3i), u1r - u3r);
        let (z0r, z0i) = portable::cmul(p02r + p13r, p02i + p13i, u_re[j], u_im[j]);
        let (z1r, z1i) = portable::cmul(m02r + m13ir, m02i + m13ii, u_re[j + q], u_im[j + q]);
        let (z2r, z2i) = portable::cmul(p02r - p13r, p02i - p13i, u_re[j + 2 * q], u_im[j + 2 * q]);
        let (z3r, z3i) =
            portable::cmul(m02r - m13ir, m02i - m13ii, u_re[j + 3 * q], u_im[j + 3 * q]);
        out_re[j] = z0r;
        out_im[j] = z0i;
        out_re[j + q] = z1r;
        out_im[j + q] = z1i;
        out_re[j + 2 * q] = z2r;
        out_im[j + 2 * q] = z2i;
        out_re[j + 3 * q] = z3r;
        out_im[j + 3 * q] = z3i;
        j += 1;
    }
}

/// Fully split VMA: `acc_k += a_k · b_k` over equal-length planes.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn mul_add_soa(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let n = acc_re.len();
    let mut j = 0;
    while j + LANES <= n {
        let (pr, pi) = cmulv(ld(a_re, j), ld(a_im, j), ld(b_re, j), ld(b_im, j));
        st(acc_re, j, _mm256_add_pd(ld(acc_re, j), pr));
        st(acc_im, j, _mm256_add_pd(ld(acc_im, j), pi));
        j += LANES;
    }
    while j < n {
        let pr = a_re[j] * b_re[j] - a_im[j] * b_im[j];
        let pi = a_re[j] * b_im[j] + a_im[j] * b_re[j];
        acc_re[j] += pr;
        acc_im[j] += pi;
        j += 1;
    }
}
