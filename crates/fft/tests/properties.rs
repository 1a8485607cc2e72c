//! Property-based tests of the FFT substrate: algebraic laws that must
//! hold for arbitrary inputs, not just the unit-test vectors.

use proptest::prelude::*;

use strix_fft::reference::{self, FftPlan};
use strix_fft::{Complex64, NegacyclicFft, SoaSpectrum, SpectralPlan};

fn poly_strategy(n: usize, bound: i64) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-bound..=bound, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip_recovers_input(
        log_n in 1u32..=9,
        seed_re in prop::collection::vec(-1000.0f64..1000.0, 512),
    ) {
        let n = 1usize << log_n;
        let plan = FftPlan::new(n).unwrap();
        let input: Vec<Complex64> = seed_re[..n]
            .iter()
            .enumerate()
            .map(|(i, &re)| Complex64::new(re, (i as f64).sin() * 10.0))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data).unwrap();
        plan.inverse(&mut data).unwrap();
        for (a, b) in data.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_is_linear(
        a in prop::collection::vec(-100.0f64..100.0, 64),
        b in prop::collection::vec(-100.0f64..100.0, 64),
        scale in -10.0f64..10.0,
    ) {
        let n = 64;
        let plan = FftPlan::new(n).unwrap();
        let za: Vec<Complex64> = a.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let zb: Vec<Complex64> = b.iter().map(|&x| Complex64::new(0.0, x)).collect();

        let mut fa = za.clone();
        plan.forward(&mut fa).unwrap();
        let mut fb = zb.clone();
        plan.forward(&mut fb).unwrap();

        let mut combined: Vec<Complex64> =
            za.iter().zip(&zb).map(|(x, y)| *x + y.scale(scale)).collect();
        plan.forward(&mut combined).unwrap();

        for ((x, y), c) in fa.iter().zip(&fb).zip(&combined) {
            let expected = *x + y.scale(scale);
            prop_assert!((*c - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn spectral_kernel_round_trip_recovers_input(
        log_n in 0u32..=10,
        seed_re in prop::collection::vec(-1000.0f64..1000.0, 1024),
    ) {
        // DIF forward ∘ DIT inverse must be the identity with no
        // permutation pass, for arbitrary inputs at every size.
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        let input: Vec<Complex64> = seed_re[..n]
            .iter()
            .enumerate()
            .map(|(i, &re)| Complex64::new(re, (i as f64 * 0.9).cos() * 100.0))
            .collect();
        let mut batch = SoaSpectrum::new(1, n);
        batch.store(0, &input);
        plan.forward_many(&mut batch).unwrap();
        plan.inverse_many(&mut batch).unwrap();
        let mut data = vec![Complex64::ZERO; n];
        batch.load(0, &mut data);
        for (a, b) in data.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn negacyclic_mul_matches_schoolbook(
        log_n in 1u32..=7,
        a in poly_strategy(128, 512),
        b in poly_strategy(128, 512),
    ) {
        let n = 1usize << log_n;
        let fft = NegacyclicFft::new(n).unwrap();
        let a = &a[..n];
        let b = &b[..n];
        let expected = reference::negacyclic_mul(a, b);
        let mut out = vec![0i64; n];
        fft.negacyclic_mul_i64(a, b, &mut out).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn negacyclic_mul_is_commutative(
        a in poly_strategy(32, 1000),
        b in poly_strategy(32, 1000),
    ) {
        prop_assert_eq!(
            reference::negacyclic_mul(&a, &b),
            reference::negacyclic_mul(&b, &a)
        );
    }

    #[test]
    fn negacyclic_mul_distributes_over_addition(
        a in poly_strategy(16, 100),
        b in poly_strategy(16, 100),
        c in poly_strategy(16, 100),
    ) {
        let bc: Vec<i64> =
            b.iter().zip(&c).map(|(x, y)| x.wrapping_add(*y)).collect();
        let left = reference::negacyclic_mul(&a, &bc);
        let ab = reference::negacyclic_mul(&a, &b);
        let ac = reference::negacyclic_mul(&a, &c);
        let right: Vec<i64> =
            ab.iter().zip(&ac).map(|(x, y)| x.wrapping_add(*y)).collect();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn rotation_composes_additively(
        poly in prop::collection::vec(any::<u64>(), 16),
        r1 in 0usize..32,
        r2 in 0usize..32,
    ) {
        let once = reference::rotate_left(&reference::rotate_left(&poly, r1), r2);
        let both = reference::rotate_left(&poly, (r1 + r2) % 32);
        // X^{-r1}·X^{-r2} = X^{-(r1+r2) mod 2N} — full period is 2N = 32.
        prop_assert_eq!(once, both);
    }

    #[test]
    fn rotation_preserves_multiset_up_to_sign(
        poly in prop::collection::vec(any::<u64>(), 32),
        r in 0usize..64,
    ) {
        let rotated = reference::rotate_left(&poly, r);
        let mut orig_abs: Vec<u64> = poly
            .iter()
            .map(|&x| x.min(x.wrapping_neg()))
            .collect();
        let mut rot_abs: Vec<u64> = rotated
            .iter()
            .map(|&x| x.min(x.wrapping_neg()))
            .collect();
        orig_abs.sort_unstable();
        rot_abs.sort_unstable();
        prop_assert_eq!(orig_abs, rot_abs);
    }

    #[test]
    fn folded_transform_energy_matches_plancherel(
        a in poly_strategy(64, 1 << 20),
    ) {
        // For the negacyclic DFT at N/2 points with folded packing,
        // Σ|A_k|² = (N/2)·Σ a_j² (each of the N/2 bins aggregates the
        // energy of one conjugate pair).
        let n = 64;
        let fft = NegacyclicFft::new(n).unwrap();
        let mut spec = SoaSpectrum::new(1, n / 2);
        fft.forward_i64_many(&a, &mut spec).unwrap();
        let time_energy: f64 = a.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let (re, im) = spec.transform(0);
        let freq_energy: f64 = re.iter().zip(im).map(|(r, i)| Complex64::new(*r, *i).norm_sqr())
            .sum::<f64>() / (n / 2) as f64;
        let rel = (freq_energy - time_energy).abs() / time_energy.max(1.0);
        prop_assert!(rel < 1e-9, "rel err {rel}");
    }
}
