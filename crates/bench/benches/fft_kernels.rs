//! Criterion micro-benchmark pitting the bit-reversed-spectrum
//! negacyclic kernel against the seed radix-2 natural-order path.
//!
//! The seed path is reconstructed here, faithfully, from the pieces
//! that still ship: the natural-order [`FftPlan`] (kept as the
//! correctness oracle in `strix_fft::reference`) plus the explicit
//! fold/twist, untwist and normalisation passes the seed
//! `NegacyclicFft` performed around it. The production path is today's
//! [`NegacyclicFft`] — DIF/DIT kernel, no permutation pass, fused twist
//! and untwist/normalise stages — transforming a batch of one.
//!
//! Acceptance bar (ISSUE 4): the forward+inverse pair at N=1024 must
//! be ≥ 1.5× faster on the new kernel than on the seed kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strix_fft::reference::FftPlan;
use strix_fft::{Complex64, NegacyclicFft, SoaSpectrum, StrixFftBackend};

/// The seed negacyclic transform: explicit twist tables around the
/// natural-order radix-2 `FftPlan`, exactly as the seed
/// `NegacyclicFft` was implemented.
struct SeedNegacyclic {
    plan: FftPlan,
    twist: Vec<Complex64>,
    untwist: Vec<Complex64>,
    half: usize,
}

impl SeedNegacyclic {
    fn new(poly_size: usize) -> Self {
        let half = poly_size / 2;
        let mut twist = Vec::with_capacity(half);
        let mut untwist = Vec::with_capacity(half);
        for j in 0..half {
            let theta = std::f64::consts::PI * j as f64 / poly_size as f64;
            twist.push(Complex64::cis(theta));
            untwist.push(Complex64::cis(-theta));
        }
        Self { plan: FftPlan::new(half).unwrap(), twist, untwist, half }
    }

    fn forward_i64(&self, poly: &[i64], out: &mut [Complex64]) {
        for j in 0..self.half {
            let folded = Complex64::new(poly[j] as f64, poly[j + self.half] as f64);
            out[j] = folded * self.twist[j];
        }
        self.plan.forward(out).unwrap();
    }

    fn backward_f64(&self, spectrum: &mut [Complex64], out: &mut [f64]) {
        self.plan.inverse(spectrum).unwrap();
        for j in 0..self.half {
            let z = spectrum[j] * self.untwist[j];
            out[j] = z.re;
            out[j + self.half] = z.im;
        }
    }
}

fn sample_poly(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 31 % 1024) - 512).collect()
}

fn bench_transform_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_kernels");
    for n in [1024usize, 2048] {
        let poly = sample_poly(n);
        let seed = SeedNegacyclic::new(n);
        let new = NegacyclicFft::new(n).unwrap();
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("seed_radix2_pair", n), &n, |b, _| {
            let mut spec = vec![Complex64::ZERO; n / 2];
            let mut time = vec![0.0f64; n];
            b.iter(|| {
                seed.forward_i64(&poly, &mut spec);
                seed.backward_f64(&mut spec, &mut time);
                time[0]
            })
        });

        group.bench_with_input(BenchmarkId::new("bitrev_fused_pair", n), &n, |b, _| {
            let mut spec = SoaSpectrum::new(1, n / 2);
            let mut time = vec![0.0f64; n];
            b.iter(|| {
                new.forward_i64_many(&poly, &mut spec).unwrap();
                new.backward_f64_many(&mut spec, &mut time).unwrap();
                time[0]
            })
        });

        group.bench_with_input(BenchmarkId::new("seed_radix2_forward", n), &n, |b, _| {
            let mut spec = vec![Complex64::ZERO; n / 2];
            b.iter(|| seed.forward_i64(&poly, &mut spec))
        });

        group.bench_with_input(BenchmarkId::new("bitrev_fused_forward", n), &n, |b, _| {
            let mut spec = SoaSpectrum::new(1, n / 2);
            b.iter(|| new.forward_i64_many(&poly, &mut spec).unwrap())
        });
    }
    group.finish();
}

/// Per-backend smoke over the batched SoA entry points — one bench per
/// *available* backend (unavailable tiers are skipped, so the group
/// degrades gracefully on portable-only hardware). The ISSUE 9
/// acceptance bar reads off this group: `forward_many` at N=1024/2048,
/// best backend ≥ 1.3× over portable.
fn bench_backend_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_backends");
    // One CMUX external product's worth of transforms per call, so the
    // stage-across-batch schedule is exercised like the hot path.
    let batch = 8usize;
    for n in [1024usize, 2048] {
        let polys: Vec<i64> = (0..(batch * n) as i64).map(|i| (i * 31 % 1024) - 512).collect();
        group.throughput(Throughput::Elements((batch * n) as u64));
        for backend in [StrixFftBackend::Portable, StrixFftBackend::Avx2, StrixFftBackend::Avx512] {
            if !backend.is_available() {
                continue;
            }
            let fft = NegacyclicFft::with_backend(n, backend).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("forward_many/{backend}"), n),
                &n,
                |b, _| {
                    let mut spec = SoaSpectrum::new(batch, n / 2);
                    b.iter(|| fft.forward_i64_many(&polys, &mut spec).unwrap())
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("backward_many/{backend}"), n),
                &n,
                |b, _| {
                    let mut spec = SoaSpectrum::new(batch, n / 2);
                    fft.forward_i64_many(&polys, &mut spec).unwrap();
                    let mut time = vec![0.0f64; batch * n];
                    let mut scratch = SoaSpectrum::new(batch, n / 2);
                    b.iter(|| {
                        scratch.copy_from(&spec);
                        fft.backward_f64_many(&mut scratch, &mut time).unwrap();
                        time[0]
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("vma_soa/{backend}"), n),
                &n,
                |b, _| {
                    let mut acc = SoaSpectrum::new(batch, n / 2);
                    let mut a = SoaSpectrum::new(batch, n / 2);
                    fft.forward_i64_many(&polys, &mut a).unwrap();
                    let key_re = vec![0.5f64; n / 2];
                    let key_im = vec![-0.25f64; n / 2];
                    b.iter(|| {
                        for t in 0..batch {
                            let (ar, ai) = a.transform(t);
                            // Split borrows: accumulate into acc's planes.
                            let (sr, si) = acc.transform_mut(t);
                            fft.pointwise_mul_add_soa(sr, si, ar, ai, &key_re, &key_im);
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_transform_pair, bench_backend_matrix);
criterion_main!(benches);
