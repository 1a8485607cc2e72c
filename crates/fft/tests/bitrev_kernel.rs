//! Integration tests pinning the bit-reversed-spectrum kernel
//! (ISSUE 4): bit-exactness of the negacyclic product against the
//! schoolbook oracle across the full supported size range, the
//! permutation-free DIF∘DIT identity, round-trip error scaling, and
//! agreement with the natural-order seed kernel kept as oracle.

use strix_fft::reference::{self, FftPlan};
use strix_fft::{Complex64, NegacyclicFft, SoaSpectrum, SpectralPlan};

/// Deterministic pseudorandom i64 stream (splitmix64), bounded.
fn pseudo_poly(n: usize, seed: u64, bound: i64) -> Vec<i64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z % (2 * bound as u64 + 1)) as i64 - bound
        })
        .collect()
}

/// Runs `op` on `data` as a batch of one and returns the result.
fn single(data: &[Complex64], op: impl FnOnce(&mut SoaSpectrum)) -> Vec<Complex64> {
    let mut batch = SoaSpectrum::new(1, data.len());
    batch.store(0, data);
    op(&mut batch);
    let mut out = vec![Complex64::ZERO; data.len()];
    batch.load(0, &mut out);
    out
}

/// Negacyclic forward transform of one polynomial, interleaved.
fn forward_i64(fft: &NegacyclicFft, poly: &[i64]) -> Vec<Complex64> {
    let mut spec = SoaSpectrum::new(1, fft.fourier_size());
    fft.forward_i64_many(poly, &mut spec).unwrap();
    let mut out = vec![Complex64::ZERO; fft.fourier_size()];
    spec.load(0, &mut out);
    out
}

#[test]
fn negacyclic_mul_is_bit_exact_against_schoolbook_for_all_sizes() {
    // Every supported power of two from 2 to 4096, three pseudorandom
    // polynomial pairs each. Magnitudes are sized so the exact product
    // stays far below 2^52, where the FFT path must round exactly.
    for log_n in 1..=12u32 {
        let n = 1usize << log_n;
        let fft = NegacyclicFft::new(n).unwrap();
        // Keep N·bound² ≤ 2^45: shrink coefficients as N grows.
        let bound = (1i64 << 22) / (n as i64).max(1);
        let bound = bound.max(3);
        for trial in 0..3u64 {
            let a = pseudo_poly(n, 1000 * trial + log_n as u64, bound);
            let b = pseudo_poly(n, 2000 * trial + log_n as u64 + 7, bound);
            let expected = reference::negacyclic_mul(&a, &b);
            let mut out = vec![0i64; n];
            fft.negacyclic_mul_i64(&a, &b, &mut out).unwrap();
            assert_eq!(out, expected, "n={n} trial={trial}");
        }
    }
}

#[test]
fn dif_forward_then_dit_inverse_is_identity_without_permutation() {
    // The defining property of the convention: forward and inverse
    // compose to the identity with no reordering pass anywhere, for
    // every supported size including the odd-log2 radix-2-fixup ones.
    for log_n in 0..=13u32 {
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin() * 100.0, (i as f64 * 1.3).cos() * 50.0))
            .collect();
        let data = single(&input, |b| {
            plan.forward_many(b).unwrap();
            plan.inverse_many(b).unwrap();
        });
        let max_err = data.iter().zip(&input).map(|(a, b)| (*a - *b).abs()).fold(0.0f64, f64::max);
        assert!(max_err < 1e-9 * (log_n.max(1) as f64), "n={n}: max err {max_err}");
    }
}

#[test]
fn forward_spectrum_is_the_permuted_natural_spectrum() {
    // The digit-reversed spectrum is a pure relabeling of the seed
    // kernel's natural-order spectrum: SpectralPlan::forward_many at
    // slot perm[k] equals FftPlan::forward at bin k.
    for n in [2usize, 4, 8, 32, 128, 512, 1024] {
        let input: Vec<Complex64> =
            (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.25)).collect();
        let plan = SpectralPlan::new(n).unwrap();
        let oracle = FftPlan::new(n).unwrap();
        let reversed = single(&input, |b| plan.forward_many(b).unwrap());
        let mut natural = input;
        oracle.forward(&mut natural).unwrap();
        let perm = plan.permutation();
        for (k, &slot) in perm.iter().enumerate() {
            let d = (reversed[slot] - natural[k]).abs();
            assert!(d < 1e-8 * n as f64, "n={n} bin={k}: err {d}");
        }
    }
}

#[test]
fn negacyclic_round_trip_error_scales_with_size() {
    // Forward∘backward error on magnitude-M inputs must stay within a
    // bound that grows with log2(N) — the stage count — not with N.
    // The absolute tolerance per size documents the scaling and fails
    // loudly if a kernel change regresses accuracy by an order of
    // magnitude.
    let magnitude = 1000.0f64;
    for log_n in 1..=13u32 {
        let n = 1usize << log_n;
        let fft = NegacyclicFft::new(n).unwrap();
        let ints = pseudo_poly(n, 42 + log_n as u64, 1000);
        let poly: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        let mut spec = SoaSpectrum::new(1, n / 2);
        fft.forward_i64_many(&ints, &mut spec).unwrap();
        let mut back = vec![0.0f64; n];
        fft.backward_f64_many(&mut spec, &mut back).unwrap();
        let max_err = poly.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        // ~2^-52 per butterfly stage on values of size `magnitude`,
        // with sqrt(N) accumulation headroom folded into the constant.
        let tol = magnitude * (log_n as f64 + 1.0) * (n as f64).sqrt() * 1e-14;
        assert!(max_err < tol, "n={n}: max err {max_err:e} exceeds tol {tol:e}");
    }
}

#[test]
fn spectra_from_different_entry_points_are_interchangeable() {
    // The negacyclic entry point (fold + twist fused into the first
    // stage) and the raw kernel run on the folded, twisted input must
    // emit the same slot ordering — spectra from either are consumed
    // pointwise against each other.
    let n = 256;
    let ints = pseudo_poly(n, 9, 500);
    let fft = NegacyclicFft::new(n).unwrap();
    let spec_i = forward_i64(&fft, &ints);
    let twisted: Vec<Complex64> = (0..n / 2)
        .map(|j| {
            let folded = Complex64::new(ints[j] as f64, ints[j + n / 2] as f64);
            folded * Complex64::cis(std::f64::consts::PI * j as f64 / n as f64)
        })
        .collect();
    let kernel = SpectralPlan::new(n / 2).unwrap();
    let spec_f = single(&twisted, |b| kernel.forward_many(b).unwrap());
    assert_eq!(spec_i, spec_f);
}

#[test]
fn spectrum_permutation_is_consistent_with_kernel() {
    let n = 64;
    let fft = NegacyclicFft::new(n).unwrap();
    let kernel = SpectralPlan::new(n / 2).unwrap();
    assert_eq!(fft.spectrum_permutation(), kernel.permutation());
}
