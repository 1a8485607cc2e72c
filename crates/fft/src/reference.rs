//! Correctness oracles for the transform layer:
//!
//! * exact schoolbook negacyclic arithmetic, the oracle for the FFT
//!   path and used directly by the software TFHE implementation for
//!   small test parameters;
//! * [`FftPlan`], the seed iterative radix-2 decimation-in-time FFT
//!   with precomputed tables and **natural-order** spectra — the
//!   reference for the bit-reversed-spectrum production kernel
//!   ([`crate::SpectralPlan`]). Its natural bin ordering makes it the
//!   easy-to-trust oracle: kernel tests compare
//!   `SpectralPlan::forward_many` against [`FftPlan::forward`] through
//!   `SpectralPlan::permutation`. This is the only interleaved
//!   [`Complex64`] transform left in the crate; production transforms
//!   run on the split-complex kernel only.

use crate::complex::Complex64;
use crate::error::FftError;
use crate::is_pow2_at_least;

/// Exact negacyclic product in `Z[X]/(X^N + 1)` with wrapping `i64`
/// arithmetic.
///
/// Coefficient `k` of the result is
/// `Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+N} a_i·b_j`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// # Example
///
/// ```
/// let a = [1i64, 1, 0, 0]; // 1 + X
/// let b = [0i64, 0, 0, 1]; // X^3
/// // (1+X)·X^3 = X^3 + X^4 = X^3 - 1 (mod X^4+1)
/// assert_eq!(strix_fft::reference::negacyclic_mul(&a, &b), [-1, 0, 0, 1]);
/// ```
pub fn negacyclic_mul(a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "polynomial sizes must match");
    let n = a.len();
    let mut out = vec![0i64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = ai.wrapping_mul(bj);
            let k = i + j;
            if k < n {
                out[k] = out[k].wrapping_add(prod);
            } else {
                out[k - n] = out[k - n].wrapping_sub(prod);
            }
        }
    }
    out
}

/// Exact negacyclic product of an integer polynomial with a torus
/// polynomial (`u64`, arithmetic mod 2^64).
///
/// This is the "external product inner multiply" used by TFHE: decomposed
/// digits (small signed) times bootstrapping-key coefficients (torus).
///
/// # Panics
///
/// Panics if `digits.len() != torus.len()`.
pub fn negacyclic_mul_torus(digits: &[i64], torus: &[u64]) -> Vec<u64> {
    assert_eq!(digits.len(), torus.len(), "polynomial sizes must match");
    let n = digits.len();
    let mut out = vec![0u64; n];
    for (i, &d) in digits.iter().enumerate() {
        if d == 0 {
            continue;
        }
        let d = d as u64; // two's complement wrapping multiply is exact mod 2^64
        for (j, &t) in torus.iter().enumerate() {
            let prod = d.wrapping_mul(t);
            let k = i + j;
            if k < n {
                out[k] = out[k].wrapping_add(prod);
            } else {
                out[k - n] = out[k - n].wrapping_sub(prod);
            }
        }
    }
    out
}

/// Negacyclic left-rotation by `amount` positions in `[0, 2N)`:
/// multiplies the polynomial by `X^{-amount}`.
///
/// Rotation by `N` negates the polynomial (`X^N = -1`), so a rotation by
/// `amount ∈ [N, 2N)` equals a rotation by `amount − N` followed by
/// negation.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()`.
pub fn rotate_left(poly: &[u64], amount: usize) -> Vec<u64> {
    let mut out = vec![0u64; poly.len()];
    rotate_left_into(poly, amount, &mut out);
    out
}

/// As [`rotate_left`], writing into a caller-provided buffer — the
/// allocation-free form used inside the blind-rotation CMUX loop.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()` or the buffer sizes differ.
pub fn rotate_left_into(poly: &[u64], amount: usize, out: &mut [u64]) {
    let n = poly.len();
    assert!(amount < 2 * n, "rotation amount {amount} out of range for size {n}");
    assert_eq!(out.len(), n, "rotation output buffer size mismatch");
    for (j, slot) in out.iter_mut().enumerate() {
        // out = X^{-amount} * poly: out[j] = poly[(j + amount) mod 2N] with sign.
        let src = j + amount;
        if src < n {
            *slot = poly[src];
        } else if src < 2 * n {
            *slot = poly[src - n].wrapping_neg();
        } else {
            *slot = poly[src - 2 * n];
        }
    }
}

/// Negacyclic right-rotation by `amount` positions in `[0, 2N)`:
/// multiplies the polynomial by `X^{amount}`.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()`.
pub fn rotate_right(poly: &[u64], amount: usize) -> Vec<u64> {
    let mut out = vec![0u64; poly.len()];
    rotate_right_into(poly, amount, &mut out);
    out
}

/// As [`rotate_right`], writing into a caller-provided buffer — the
/// allocation-free form used inside the blind-rotation CMUX loop.
///
/// # Panics
///
/// Panics if `amount >= 2 * poly.len()` or the buffer sizes differ.
pub fn rotate_right_into(poly: &[u64], amount: usize, out: &mut [u64]) {
    let n = poly.len();
    assert!(amount < 2 * n, "rotation amount {amount} out of range for size {n}");
    if amount == 0 {
        assert_eq!(out.len(), n, "rotation output buffer size mismatch");
        out.copy_from_slice(poly);
        return;
    }
    // X^{amount} = X^{-(2N - amount)}.
    rotate_left_into(poly, 2 * n - amount, out);
}

/// Precomputed plan for forward/inverse complex FFTs of a fixed size.
///
/// A plan is immutable after construction and can be shared freely across
/// threads. Construction costs `O(n log n)`; each transform costs
/// `O(n log n)` with no allocation.
///
/// # Example
///
/// ```
/// use strix_fft::reference::FftPlan;
/// use strix_fft::Complex64;
///
/// # fn main() -> Result<(), strix_fft::FftError> {
/// let plan = FftPlan::new(4)?;
/// let mut data = [
///     Complex64::new(1.0, 0.0),
///     Complex64::new(0.0, 0.0),
///     Complex64::new(0.0, 0.0),
///     Complex64::new(0.0, 0.0),
/// ];
/// plan.forward(&mut data)?;
/// // The spectrum of a unit impulse is flat.
/// for bin in &data {
///     assert!((bin.re - 1.0).abs() < 1e-12 && bin.im.abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FftPlan {
    size: usize,
    log2_size: u32,
    /// Twiddles `e^{-2πik/n}` for `k` in `[0, n/2)` (forward direction).
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation of `[0, n)`.
    bit_rev: Vec<u32>,
}

impl FftPlan {
    /// Smallest supported transform size.
    pub const MIN_SIZE: usize = 1;

    /// Creates a plan for transforms of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] if `size` is not a power of two.
    pub fn new(size: usize) -> Result<Self, FftError> {
        if !is_pow2_at_least(size, Self::MIN_SIZE) {
            return Err(FftError::InvalidSize { requested: size, min: Self::MIN_SIZE });
        }
        let log2_size = size.trailing_zeros();
        let mut twiddles = Vec::with_capacity(size / 2);
        for k in 0..size / 2 {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / size as f64;
            twiddles.push(Complex64::cis(theta));
        }
        let mut bit_rev = vec![0u32; size];
        for (i, slot) in bit_rev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2_size.max(1));
        }
        if size == 1 {
            bit_rev[0] = 0;
        }
        Ok(Self { size, log2_size, twiddles, bit_rev })
    }

    /// The transform size this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// `log2` of the transform size — the number of butterfly stages in the
    /// equivalent pipelined hardware unit.
    #[inline]
    pub fn stages(&self) -> u32 {
        self.log2_size
    }

    /// In-place forward FFT: `X_k = Σ_j x_j e^{-2πijk/n}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn forward(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(data.len())?;
        self.permute(data);
        self.butterflies(data, false);
        Ok(())
    }

    /// In-place unnormalised inverse FFT: `x_j = Σ_k X_k e^{+2πijk/n}`.
    ///
    /// Dividing by `n` is left to the caller so that scaling can be fused
    /// with other constants (as the accelerator does in its accumulator
    /// stage).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn inverse_unnormalized(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.check_len(data.len())?;
        self.permute(data);
        self.butterflies(data, true);
        Ok(())
    }

    /// In-place normalised inverse FFT (divides by `n`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.size()`.
    pub fn inverse(&self, data: &mut [Complex64]) -> Result<(), FftError> {
        self.inverse_unnormalized(data)?;
        let scale = 1.0 / self.size as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), FftError> {
        if len != self.size {
            return Err(FftError::LengthMismatch { expected: self.size, actual: len });
        }
        Ok(())
    }

    fn permute(&self, data: &mut [Complex64]) {
        for i in 0..self.size {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.size;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let tw = if inverse { tw.conj() } else { tw };
                    let a = data[start + k];
                    let b = data[start + k + half] * tw;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = [5i64, -3, 2, 7];
        let one = [1i64, 0, 0, 0];
        assert_eq!(negacyclic_mul(&a, &one), a);
    }

    #[test]
    fn commutativity() {
        let a = [1i64, 2, 3, 4, 5, 6, 7, 8];
        let b = [-3i64, 1, 4, -1, 5, -9, 2, 6];
        assert_eq!(negacyclic_mul(&a, &b), negacyclic_mul(&b, &a));
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // X^2 * X^2 = -1 mod X^4+1
        let x2 = [0i64, 0, 1, 0];
        assert_eq!(negacyclic_mul(&x2, &x2), [-1, 0, 0, 0]);
    }

    #[test]
    fn torus_multiplication_wraps_mod_2_64() {
        let digits = [3i64, 0];
        let torus = [u64::MAX, 0]; // -1 on the torus
                                   // 3 * (-1) = -3 mod 2^64
        assert_eq!(negacyclic_mul_torus(&digits, &torus), [3u64.wrapping_neg(), 0]);
    }

    #[test]
    fn torus_negative_digit() {
        let digits = [-2i64, 0];
        let torus = [5u64, 7];
        assert_eq!(
            negacyclic_mul_torus(&digits, &torus),
            [10u64.wrapping_neg(), 14u64.wrapping_neg()]
        );
    }

    #[test]
    fn rotate_left_within_first_period() {
        let p = [1u64, 2, 3, 4];
        // X^{-1} * p: out[j] = p[j+1], out[3] = -p[0]
        assert_eq!(rotate_left(&p, 1), [2, 3, 4, 1u64.wrapping_neg()]);
    }

    #[test]
    fn rotate_left_by_n_negates() {
        let p = [1u64, 2, 3, 4];
        assert_eq!(
            rotate_left(&p, 4),
            [1u64.wrapping_neg(), 2u64.wrapping_neg(), 3u64.wrapping_neg(), 4u64.wrapping_neg()]
        );
    }

    #[test]
    fn rotate_left_then_right_is_identity() {
        let p = [9u64, 8, 7, 6, 5, 4, 3, 2];
        for amount in 0..16 {
            let rotated = rotate_left(&p, amount);
            let back = rotate_right(&rotated, amount);
            assert_eq!(back, p, "amount {amount}");
        }
    }

    #[test]
    fn rotation_matches_monomial_multiplication() {
        // rotate_right(p, a) must equal p * X^a computed via negacyclic_mul.
        let p: Vec<u64> = (1..=8u64).collect();
        let p_i64: Vec<i64> = p.iter().map(|&x| x as i64).collect();
        for amount in 0..8 {
            let mut monomial = vec![0i64; 8];
            monomial[amount] = 1;
            let expected: Vec<u64> =
                negacyclic_mul(&p_i64, &monomial).into_iter().map(|x| x as u64).collect();
            assert_eq!(rotate_right(&p, amount), expected, "amount {amount}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotate_rejects_out_of_range() {
        rotate_left(&[0u64; 4], 8);
    }
}
