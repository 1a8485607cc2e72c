//! Tests of the natural-order oracle FFT, [`crate::reference::FftPlan`].

#[cfg(test)]
mod tests {
    use crate::complex::Complex64;
    use crate::error::FftError;
    use crate::reference::FftPlan;

    fn naive_dft(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        let theta = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                        input[j] * Complex64::cis(theta)
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(FftPlan::new(3).unwrap_err(), FftError::InvalidSize { requested: 3, min: 1 });
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::InvalidSize { requested: 0, min: 1 });
    }

    #[test]
    fn rejects_wrong_buffer_length() {
        let plan = FftPlan::new(8).unwrap();
        let mut short = vec![Complex64::ZERO; 4];
        assert_eq!(
            plan.forward(&mut short).unwrap_err(),
            FftError::LengthMismatch { expected: 8, actual: 4 }
        );
    }

    #[test]
    fn size_one_transform_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = [Complex64::new(2.5, -1.0)];
        plan.forward(&mut data).unwrap();
        assert_eq!(data[0], Complex64::new(2.5, -1.0));
    }

    #[test]
    fn matches_naive_dft() {
        for log_n in 1..=7 {
            let n = 1usize << log_n;
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin() + 1.0, (i as f64 * 0.7).cos()))
                .collect();
            let expected = naive_dft(&input, false);
            let plan = FftPlan::new(n).unwrap();
            let mut data = input.clone();
            plan.forward(&mut data).unwrap();
            assert_close(&data, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_inverse_dft() {
        let n = 32;
        let input: Vec<Complex64> =
            (0..n).map(|i| Complex64::new(i as f64, -(i as f64) * 0.3)).collect();
        let mut expected = naive_dft(&input, true);
        for z in expected.iter_mut() {
            *z = z.scale(1.0 / n as f64);
        }
        let plan = FftPlan::new(n).unwrap();
        let mut data = input.clone();
        plan.inverse(&mut data).unwrap();
        assert_close(&data, &expected, 1e-9);
    }

    #[test]
    fn round_trip_recovers_input() {
        let n = 256;
        let input: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i * 37 % 101) as f64, (i * 53 % 97) as f64)).collect();
        let plan = FftPlan::new(n).unwrap();
        let mut data = input.clone();
        plan.forward(&mut data).unwrap();
        plan.inverse(&mut data).unwrap();
        assert_close(&data, &input, 1e-8);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.23).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let plan = FftPlan::new(n).unwrap();
        let mut data = input;
        plan.forward(&mut data).unwrap();
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn linearity_holds() {
        let n = 16;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let plan = FftPlan::new(n).unwrap();

        let mut fa = a.clone();
        plan.forward(&mut fa).unwrap();
        let mut fb = b.clone();
        plan.forward(&mut fb).unwrap();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab).unwrap();

        let sum: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fab, &sum, 1e-9);
    }

    #[test]
    fn stages_matches_log2() {
        assert_eq!(FftPlan::new(1024).unwrap().stages(), 10);
        assert_eq!(FftPlan::new(8192).unwrap().stages(), 13);
    }
}
