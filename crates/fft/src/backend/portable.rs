//! Portable backend: the autovectorised scalar SoA loops.
//!
//! These are the original inline loop bodies of `kernel.rs` /
//! `negacyclic.rs`, moved verbatim so every architecture keeps the
//! exact code (and codegen) the SoA rewrite shipped with. They are also
//! the **bit-identity reference** for the SIMD backends: each AVX2 /
//! AVX-512 kernel computes these same IEEE expressions per element, in
//! the same order, with separate multiply/add/subtract operations, so
//! the identity suite can compare backends bit-for-bit.
//!
//! Loop shape notes (preserved from the originals): operands are
//! pre-split to exact lengths so the compiler drops the bounds checks
//! and emits packed arithmetic; complex multiplies all go through
//! [`cmul`], which is exactly [`crate::Complex64`]'s `Mul` expression.

/// Scalar complex multiply on split operands — exactly
/// [`crate::Complex64`]'s `Mul` expression, so the split kernels round
/// like the interleaved reference.
#[inline(always)]
pub(crate) fn cmul(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// Forward radix-2 DIF butterflies over every block of `len`.
pub(crate) fn fwd_stage_r2(re: &mut [f64], im: &mut [f64], len: usize, wr: &[f64], wi: &[f64]) {
    let q = len / 2;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (lo_r, hi_r) = bre.split_at_mut(q);
        let (lo_i, hi_i) = bim.split_at_mut(q);
        let (wr, wi) = (&wr[..q], &wi[..q]);
        for j in 0..q {
            let (xr, xi) = (lo_r[j], lo_i[j]);
            let (yr, yi) = (hi_r[j], hi_i[j]);
            lo_r[j] = xr + yr;
            lo_i[j] = xi + yi;
            let (br, bi) = cmul(xr - yr, xi - yi, wr[j], wi[j]);
            hi_r[j] = br;
            hi_i[j] = bi;
        }
    }
}

/// Forward radix-4 DIF butterflies over every block of `len`. `twr` /
/// `twi` are the stage's power-major split twiddle planes (`3·len/4`
/// values: all `w^j`, then all `w^{2j}`, then all `w^{3j}`).
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
        for j in 0..q {
            let (p02r, p02i) = (r0[j] + r2[j], i0[j] + i2[j]);
            let (m02r, m02i) = (r0[j] - r2[j], i0[j] - i2[j]);
            let (p13r, p13i) = (r1[j] + r3[j], i1[j] + i3[j]);
            let (m13ir, m13ii) = (-(i1[j] - i3[j]), r1[j] - r3[j]);
            r0[j] = p02r + p13r;
            i0[j] = p02i + p13i;
            let (y1r, y1i) = cmul(m02r - m13ir, m02i - m13ii, w1r[j], w1i[j]);
            r1[j] = y1r;
            i1[j] = y1i;
            let (y2r, y2i) = cmul(p02r - p13r, p02i - p13i, w2r[j], w2i[j]);
            r2[j] = y2r;
            i2[j] = y2i;
            let (y3r, y3i) = cmul(m02r + m13ir, m02i + m13ii, w3r[j], w3i[j]);
            r3[j] = y3r;
            i3[j] = y3i;
        }
    }
}

/// Inverse radix-2 DIT butterflies over every block of `len`.
pub(crate) fn inv_stage_r2(re: &mut [f64], im: &mut [f64], len: usize, wr: &[f64], wi: &[f64]) {
    let q = len / 2;
    for (bre, bim) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
        let (lo_r, hi_r) = bre.split_at_mut(q);
        let (lo_i, hi_i) = bim.split_at_mut(q);
        let (wr, wi) = (&wr[..q], &wi[..q]);
        for j in 0..q {
            let (xr, xi) = (lo_r[j], lo_i[j]);
            let (yr, yi) = cmul(hi_r[j], hi_i[j], wr[j], wi[j]);
            lo_r[j] = xr + yr;
            lo_i[j] = xi + yi;
            hi_r[j] = xr - yr;
            hi_i[j] = xi - yi;
        }
    }
}

/// Inverse radix-4 DIT butterflies over every block of `len`.
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
        for j in 0..q {
            let (u1r, u1i) = cmul(r1[j], i1[j], w1r[j], w1i[j]);
            let (u2r, u2i) = cmul(r2[j], i2[j], w2r[j], w2i[j]);
            let (u3r, u3i) = cmul(r3[j], i3[j], w3r[j], w3i[j]);
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
        }
    }
}

/// Fused fold + twist + first forward stage, radix-2 head: `poly` is
/// one packed `2n`-coefficient `i64` polynomial, `out_re`/`out_im` the
/// transform's `n`-point split planes, `wr`/`wi` the stage's `n/2`
/// split twiddles.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
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
    for j in 0..q {
        let (xr, xi) = cmul(pre[j] as f64, pim[j] as f64, twist_re[j], twist_im[j]);
        let (yr, yi) = cmul(pre[j + q] as f64, pim[j + q] as f64, twist_re[j + q], twist_im[j + q]);
        o0r[j] = xr + yr;
        o0i[j] = xi + yi;
        let (br, bi) = cmul(xr - yr, xi - yi, wr[j], wi[j]);
        o1r[j] = br;
        o1i[j] = bi;
    }
}

/// Fused fold + twist + first forward stage, radix-4 head.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
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
    for j in 0..q {
        let (a0r, a0i) = cmul(pre[j] as f64, pim[j] as f64, twist_re[j], twist_im[j]);
        let (a1r, a1i) =
            cmul(pre[j + q] as f64, pim[j + q] as f64, twist_re[j + q], twist_im[j + q]);
        let (a2r, a2i) = cmul(
            pre[j + 2 * q] as f64,
            pim[j + 2 * q] as f64,
            twist_re[j + 2 * q],
            twist_im[j + 2 * q],
        );
        let (a3r, a3i) = cmul(
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
        let (y1r, y1i) = cmul(m02r - m13ir, m02i - m13ii, w1r[j], w1i[j]);
        o1r[j] = y1r;
        o1i[j] = y1i;
        let (y2r, y2i) = cmul(p02r - p13r, p02i - p13i, w2r[j], w2i[j]);
        o2r[j] = y2r;
        o2i[j] = y2i;
        let (y3r, y3i) = cmul(m02r + m13ir, m02i + m13ii, w3r[j], w3i[j]);
        o3r[j] = y3r;
        o3i[j] = y3i;
    }
}

/// Fused last inverse stage (radix-2) + merged untwist/normalise
/// multiply + unfold: the `n`-point split spectrum becomes `2n` packed
/// real coefficients in `out`.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
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
    for j in 0..q {
        let (xr, xi) = (s0r[j], s0i[j]);
        let (yr, yi) = cmul(s1r[j], s1i[j], wr[j], wi[j]);
        let (z0r, z0i) = cmul(xr + yr, xi + yi, u0r[j], u0i[j]);
        let (z1r, z1i) = cmul(xr - yr, xi - yi, u1r[j], u1i[j]);
        r0[j] = z0r;
        i0[j] = z0i;
        r1[j] = z1r;
        i1[j] = z1i;
    }
}

/// Fused last inverse stage (radix-4) + merged untwist/normalise
/// multiply + unfold.
#[allow(clippy::too_many_arguments)] // mirrors the fused kernel's full operand set
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
    for j in 0..q {
        let (u1r, u1i) = cmul(sre[j + q], sim[j + q], w1r[j], w1i[j]);
        let (u2r, u2i) = cmul(sre[j + 2 * q], sim[j + 2 * q], w2r[j], w2i[j]);
        let (u3r, u3i) = cmul(sre[j + 3 * q], sim[j + 3 * q], w3r[j], w3i[j]);
        let (p02r, p02i) = (sre[j] + u2r, sim[j] + u2i);
        let (m02r, m02i) = (sre[j] - u2r, sim[j] - u2i);
        let (p13r, p13i) = (u1r + u3r, u1i + u3i);
        let (m13ir, m13ii) = (-(u1i - u3i), u1r - u3r);
        let (z0r, z0i) = cmul(p02r + p13r, p02i + p13i, u_re[j], u_im[j]);
        let (z1r, z1i) = cmul(m02r + m13ir, m02i + m13ii, u_re[j + q], u_im[j + q]);
        let (z2r, z2i) = cmul(p02r - p13r, p02i - p13i, u_re[j + 2 * q], u_im[j + 2 * q]);
        let (z3r, z3i) = cmul(m02r - m13ir, m02i - m13ii, u_re[j + 3 * q], u_im[j + 3 * q]);
        out_re[j] = z0r;
        out_im[j] = z0i;
        out_re[j + q] = z1r;
        out_im[j + q] = z1i;
        out_re[j + 2 * q] = z2r;
        out_im[j + 2 * q] = z2i;
        out_re[j + 3 * q] = z3r;
        out_im[j + 3 * q] = z3i;
    }
}

/// Fully split VMA: `acc_k += a_k · b_k` over equal-length planes.
pub(crate) fn mul_add_soa(
    acc_re: &mut [f64],
    acc_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let n = acc_re.len();
    // Indexed loop over pre-checked equal-length slices: the bounds
    // checks fold away and the body is four independent packed FMAs'
    // worth of mul/add work per lane.
    for j in 0..n {
        let pr = a_re[j] * b_re[j] - a_im[j] * b_im[j];
        let pi = a_re[j] * b_im[j] + a_im[j] * b_re[j];
        acc_re[j] += pr;
        acc_im[j] += pi;
    }
}
