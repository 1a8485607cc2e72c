//! Bit-exactness of the split-complex (SoA) batched transforms against
//! single transforms (batches of one).
//!
//! Batching changes the *loop schedule only*: every butterfly computes
//! the same IEEE expressions in the same per-transform order, so a
//! batched transform must agree with a loop of single transforms **bit
//! for bit**, not just within rounding tolerance. These tests pin that
//! contract for every entry point the CMUX hot path uses, and pin the
//! split VMA kernel against interleaved complex arithmetic.

use strix_fft::{pointwise_mul_add_soa, Complex64, NegacyclicFft, SoaSpectrum, SpectralPlan};

/// Deterministic pseudo-random f64 stream (splitmix64 → [-1, 1) keeps
/// the values un-round, so equality failures can't hide in zeros).
fn noise(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn noise_complex(seed: u64, len: usize) -> Vec<Complex64> {
    let re = noise(seed, len);
    let im = noise(seed ^ 0xdead_beef, len);
    re.into_iter().zip(im).map(|(r, i)| Complex64::new(r, i)).collect()
}

fn noise_i64(seed: u64, len: usize) -> Vec<i64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            ((state >> 17) as i64 % 1024) - 512
        })
        .collect()
}

/// `data` as a batch of one.
fn batch_of(data: &[Complex64]) -> SoaSpectrum {
    let mut batch = SoaSpectrum::new(1, data.len());
    batch.store(0, data);
    batch
}

/// Runs `op` on `data` as a batch of one and returns the result.
fn single(data: &[Complex64], op: impl FnOnce(&mut SoaSpectrum)) -> Vec<Complex64> {
    let mut batch = batch_of(data);
    op(&mut batch);
    let mut out = vec![Complex64::ZERO; data.len()];
    batch.load(0, &mut out);
    out
}

#[test]
fn forward_many_is_bit_exact_vs_looped_single_transforms() {
    for log_n in 0..=11 {
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        for count in [1usize, 2, 3, 6] {
            let inputs: Vec<Vec<Complex64>> =
                (0..count).map(|t| noise_complex(7 + t as u64 + n as u64, n)).collect();
            let mut batch = SoaSpectrum::new(count, n);
            for (t, input) in inputs.iter().enumerate() {
                batch.store(t, input);
            }
            plan.forward_many(&mut batch).unwrap();
            let mut got = vec![Complex64::ZERO; n];
            for (t, input) in inputs.iter().enumerate() {
                let one = single(input, |b| plan.forward_many(b).unwrap());
                batch.load(t, &mut got);
                assert_eq!(got, one, "n={n} count={count} t={t}");
            }
        }
    }
}

#[test]
fn inverse_many_is_bit_exact_vs_looped_single_transforms() {
    for log_n in 0..=11 {
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        let count = 3;
        let inputs: Vec<Vec<Complex64>> =
            (0..count).map(|t| noise_complex(31 + t as u64 + n as u64, n)).collect();

        let mut unnorm = SoaSpectrum::new(count, n);
        let mut norm = SoaSpectrum::new(count, n);
        for (t, input) in inputs.iter().enumerate() {
            unnorm.store(t, input);
            norm.store(t, input);
        }
        plan.inverse_many_unnormalized(&mut unnorm).unwrap();
        plan.inverse_many(&mut norm).unwrap();

        let mut got = vec![Complex64::ZERO; n];
        for (t, input) in inputs.iter().enumerate() {
            let one = single(input, |b| plan.inverse_many_unnormalized(b).unwrap());
            unnorm.load(t, &mut got);
            assert_eq!(got, one, "unnormalized n={n} t={t}");

            let one = single(input, |b| plan.inverse_many(b).unwrap());
            norm.load(t, &mut got);
            assert_eq!(got, one, "normalized n={n} t={t}");
        }
    }
}

#[test]
fn negacyclic_forward_many_is_bit_exact_vs_looped_forward_i64() {
    // Covers both first-stage radices (log2(N/2) even and odd) and the
    // digit-batch shapes of the CMUX: (k+1)·l ∈ {4, 6, 9}.
    for n in [2usize, 4, 8, 64, 256, 512, 1024, 2048] {
        let fft = NegacyclicFft::new(n).unwrap();
        let half = fft.fourier_size();
        for count in [1usize, 4, 6, 9] {
            let polys = noise_i64(n as u64 * 1001 + count as u64, n * count);
            let mut batch = SoaSpectrum::new(count, half);
            fft.forward_i64_many(&polys, &mut batch).unwrap();

            let mut one = SoaSpectrum::new(1, half);
            let mut single = vec![Complex64::ZERO; half];
            let mut got = vec![Complex64::ZERO; half];
            for (t, poly) in polys.chunks_exact(n).enumerate() {
                fft.forward_i64_many(poly, &mut one).unwrap();
                one.load(0, &mut single);
                batch.load(t, &mut got);
                assert_eq!(got, single, "n={n} count={count} t={t}");
            }
        }
    }
}

#[test]
fn negacyclic_backward_many_is_bit_exact_vs_looped_backward_f64() {
    for n in [2usize, 8, 256, 512, 1024, 2048] {
        let fft = NegacyclicFft::new(n).unwrap();
        let half = fft.fourier_size();
        let count = 3;
        let specs: Vec<Vec<Complex64>> =
            (0..count).map(|t| noise_complex(n as u64 * 7 + t as u64, half)).collect();

        let mut batch = SoaSpectrum::new(count, half);
        for (t, spec) in specs.iter().enumerate() {
            batch.store(t, spec);
        }
        let mut out = vec![0.0f64; n * count];
        fft.backward_f64_many(&mut batch, &mut out).unwrap();

        let mut single = vec![0.0f64; n];
        for (t, spec) in specs.iter().enumerate() {
            fft.backward_f64_many(&mut batch_of(spec), &mut single).unwrap();
            assert_eq!(&out[t * n..(t + 1) * n], single.as_slice(), "n={n} t={t}");
        }
    }
}

#[test]
fn soa_round_trip_recovers_polynomials() {
    let n = 512;
    let fft = NegacyclicFft::new(n).unwrap();
    let count = 5;
    let polys = noise_i64(99, n * count);
    let mut batch = SoaSpectrum::new(count, fft.fourier_size());
    fft.forward_i64_many(&polys, &mut batch).unwrap();
    let mut out = vec![0.0f64; n * count];
    fft.backward_f64_many(&mut batch, &mut out).unwrap();
    for (o, &p) in out.iter().zip(&polys) {
        assert!((o - p as f64).abs() < 1e-6, "{o} vs {p}");
    }
}

#[test]
fn split_vma_kernels_are_bit_exact_vs_interleaved() {
    let n = 512;
    let a = noise_complex(1, n);
    let b = noise_complex(2, n);
    let acc0 = noise_complex(3, n);

    // Interleaved oracle: `Complex64` arithmetic.
    let mut acc = acc0.clone();
    for ((s, x), y) in acc.iter_mut().zip(&a).zip(&b) {
        *s += *x * *y;
    }

    // Fully split four-array kernel.
    let b_re: Vec<f64> = b.iter().map(|z| z.re).collect();
    let b_im: Vec<f64> = b.iter().map(|z| z.im).collect();
    let a_re: Vec<f64> = a.iter().map(|z| z.re).collect();
    let a_im: Vec<f64> = a.iter().map(|z| z.im).collect();
    let mut acc_re: Vec<f64> = acc0.iter().map(|z| z.re).collect();
    let mut acc_im: Vec<f64> = acc0.iter().map(|z| z.im).collect();
    pointwise_mul_add_soa(&mut acc_re, &mut acc_im, &a_re, &a_im, &b_re, &b_im);
    for j in 0..n {
        assert_eq!(acc_re[j], acc[j].re, "re j={j}");
        assert_eq!(acc_im[j], acc[j].im, "im j={j}");
    }
}

#[test]
fn batched_entry_points_report_length_mismatches() {
    let plan = SpectralPlan::new(8).unwrap();
    let mut wrong = SoaSpectrum::new(2, 4);
    assert!(plan.forward_many(&mut wrong).is_err());
    assert!(plan.inverse_many(&mut wrong).is_err());

    let fft = NegacyclicFft::new(8).unwrap();
    let mut batch = SoaSpectrum::new(2, 4);
    // Wrong time-domain length for the batch count.
    assert!(fft.forward_i64_many(&[0i64; 8], &mut batch).is_err());
    assert!(fft.backward_f64_many(&mut batch, &mut [0.0; 8]).is_err());
    // Wrong transform length.
    let mut wrong = SoaSpectrum::new(2, 8);
    assert!(fft.forward_i64_many(&[0i64; 16], &mut wrong).is_err());
}
