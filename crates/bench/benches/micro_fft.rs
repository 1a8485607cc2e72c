//! Criterion micro-benchmarks of the FFT substrate: the natural-order
//! reference complex transform, the folded negacyclic transform (a
//! batch of one), and negacyclic multiplication FFT-vs-schoolbook.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strix_fft::reference::{self, FftPlan};
use strix_fft::{Complex64, NegacyclicFft, SoaSpectrum};

fn bench_complex_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("complex_fft");
    for log_n in [9u32, 10, 13] {
        let n = 1usize << log_n;
        let plan = FftPlan::new(n).unwrap();
        let data: Vec<Complex64> =
            (0..n).map(|i| Complex64::new(i as f64, (i * 7) as f64)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut d = data.clone();
                plan.forward(&mut d).unwrap();
                d
            })
        });
    }
    group.finish();
}

fn bench_negacyclic_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("negacyclic_transform");
    for n in [1024usize, 2048, 16384] {
        let fft = NegacyclicFft::new(n).unwrap();
        let poly: Vec<i64> = (0..n as i64).map(|i| (i * 31 % 1024) - 512).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("forward_i64", n), &n, |b, _| {
            let mut spec = SoaSpectrum::new(1, n / 2);
            b.iter(|| fft.forward_i64_many(&poly, &mut spec).unwrap())
        });
    }
    group.finish();
}

fn bench_negacyclic_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("negacyclic_mul");
    group.sample_size(20);
    let n = 1024usize;
    let a: Vec<i64> = (0..n as i64).map(|i| (i % 64) - 32).collect();
    let b_poly: Vec<i64> = (0..n as i64).map(|i| (i % 32) - 16).collect();
    let fft = NegacyclicFft::new(n).unwrap();
    group.bench_function("fft_1024", |b| {
        let mut out = vec![0i64; n];
        b.iter(|| fft.negacyclic_mul_i64(&a, &b_poly, &mut out).unwrap())
    });
    group.bench_function("schoolbook_1024", |b| b.iter(|| reference::negacyclic_mul(&a, &b_poly)));
    group.finish();
}

criterion_group!(benches, bench_complex_fft, bench_negacyclic_transform, bench_negacyclic_mul);
criterion_main!(benches);
