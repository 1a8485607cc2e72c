//! The CPU baseline: single-threaded TFHE on the host machine.
//!
//! The paper's CPU column measures the Concrete library on an Intel
//! Xeon Platinum. Our substitute runs this repository's own
//! `strix-tfhe` implementation — the same algorithm (Fourier-domain
//! bootstrapping keys, folded negacyclic FFT, gadget decomposition) on
//! whatever host executes the benchmark, so absolute numbers shift with
//! the machine while the asymptotics and the Fig. 1 breakdown shape are
//! preserved. Published Xeon numbers live in [`crate::published`].

use std::time::Instant;

use serde::{Deserialize, Serialize};

use strix_tfhe::bootstrap::{encode_bool, BootstrapKey, Lut};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::prelude::*;
use strix_tfhe::torus::encode_fraction;

/// A measured CPU performance point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CpuMeasurement {
    /// Parameter-set name.
    pub params_name: String,
    /// Average PBS latency (blind rotation + sample extract), seconds.
    pub pbs_s: f64,
    /// Average keyswitch latency, seconds.
    pub keyswitch_s: f64,
    /// Average full bootstrapped-gate latency, seconds.
    pub gate_s: f64,
    /// Single-thread throughput implied by the PBS+KS latency.
    pub throughput_pbs_s: f64,
    /// Number of measured iterations.
    pub iterations: usize,
}

/// Measures PBS, keyswitch and full-gate latency with *real* keys.
///
/// Suitable for parameter sets with `N ≤ 2048`; key generation uses the
/// exact (schoolbook) polynomial path whose cost grows quadratically in
/// `N`. For larger sets use [`measure_pbs_benchmark_key`].
pub fn measure_gate(params: &TfheParameters, iterations: usize, seed: u64) -> CpuMeasurement {
    let (mut client, server) = generate_keys(params, seed);
    let a = client.encrypt_bool(true);
    let b = client.encrypt_bool(false);
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));

    // Warm-up (page in the keys, settle the allocator).
    let _ = server.nand(&a, &b).expect("gate runs");

    let mut pbs_total = 0.0f64;
    let mut ks_total = 0.0f64;
    let mut gate_total = 0.0f64;
    for _ in 0..iterations.max(1) {
        let t0 = Instant::now();
        let boot = server.bootstrap_key().bootstrap(a.as_lwe(), &lut).expect("pbs runs");
        pbs_total += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _ = server.keyswitch_key().keyswitch(&boot).expect("keyswitch runs");
        ks_total += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _ = server.nand(&a, &b).expect("gate runs");
        gate_total += t0.elapsed().as_secs_f64();
    }
    let n = iterations.max(1) as f64;
    let pbs_s = pbs_total / n;
    let keyswitch_s = ks_total / n;
    CpuMeasurement {
        params_name: params.name.clone(),
        pbs_s,
        keyswitch_s,
        gate_s: gate_total / n,
        throughput_pbs_s: 1.0 / (pbs_s + keyswitch_s),
        iterations: iterations.max(1),
    }
}

/// Measures PBS latency with a timing-equivalent benchmark key
/// ([`BootstrapKey::generate_for_benchmark`]); works at any `N`,
/// including set IV's 16384.
pub fn measure_pbs_benchmark_key(params: &TfheParameters, iterations: usize) -> CpuMeasurement {
    let bsk = BootstrapKey::generate_for_benchmark(params, PbsKernel::Classical);
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    // The mask must be non-zero: blind rotation skips iterations whose
    // modulus-switched mask element is 0, so a trivial (zero-mask)
    // ciphertext would measure an empty loop. Fill it with a fixed
    // pseudo-random pattern instead.
    let mut raw: Vec<u64> = (0..params.lwe_dimension as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678))
        .collect();
    raw.push(encode_bool(true));
    let ct = LweCiphertext::from_raw(raw);

    let _ = bsk.bootstrap(&ct, &lut).expect("pbs runs");
    let mut pbs_total = 0.0f64;
    for _ in 0..iterations.max(1) {
        let t0 = Instant::now();
        let _ = bsk.bootstrap(&ct, &lut).expect("pbs runs");
        pbs_total += t0.elapsed().as_secs_f64();
    }
    let n = iterations.max(1) as f64;
    let pbs_s = pbs_total / n;
    // Estimate keyswitch cost analytically from the matrix size: it is
    // a dense kN·l_k × (n+1) integer pass; calibrate on the measured
    // PBS rate (both are memory-streaming u64 kernels).
    let ks_macs =
        (params.extracted_lwe_dimension() * params.ks_level * (params.lwe_dimension + 1)) as f64;
    let pbs_flops = pbs_flop_estimate(params);
    let keyswitch_s = pbs_s * ks_macs / pbs_flops;
    CpuMeasurement {
        params_name: params.name.clone(),
        pbs_s,
        keyswitch_s,
        gate_s: pbs_s + keyswitch_s,
        throughput_pbs_s: 1.0 / (pbs_s + keyswitch_s),
        iterations: iterations.max(1),
    }
}

/// Measures multi-threaded PBS throughput: `threads` workers share one
/// bootstrapping key (it is read-only) and each runs `per_thread`
/// bootstraps. This is the configuration the paper's Fig. 7 CPU column
/// implicitly uses — its NN times imply PBS-parallel execution across
/// the Xeon's cores, not the single-thread latency of Table V.
pub fn measure_parallel_pbs(params: &TfheParameters, threads: usize, per_thread: usize) -> f64 {
    let bsk = BootstrapKey::generate_for_benchmark(params, PbsKernel::Classical);
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    let mut raw: Vec<u64> = (0..params.lwe_dimension as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        .collect();
    raw.push(encode_bool(true));
    let ct = LweCiphertext::from_raw(raw);

    let threads = threads.max(1);
    let per_thread = per_thread.max(1);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    let _ = bsk.bootstrap(&ct, &lut).expect("pbs runs");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (threads * per_thread) as f64 / elapsed
}

/// Rough floating-point operation count of one PBS, used only to scale
/// the keyswitch estimate in [`measure_pbs_benchmark_key`].
fn pbs_flop_estimate(params: &TfheParameters) -> f64 {
    let n = params.lwe_dimension as f64;
    let nn = params.polynomial_size as f64;
    let k1 = (params.glwe_dimension + 1) as f64;
    let l = params.pbs_level as f64;
    let fft = nn / 2.0 * (nn / 2.0).log2() * 5.0; // one folded FFT
    let per_iter = k1 * l * fft // forward FFTs
        + k1 * fft // inverse FFTs
        + k1 * l * k1 * nn / 2.0 * 6.0 // pointwise complex MACs
        + k1 * l * nn; // decomposition
    n * per_iter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_gate_has_paper_figure_1_shape() {
        // PBS must dominate KS; both must be non-trivial. Enough
        // iterations to ride out scheduler noise when the whole test
        // suite runs in parallel.
        let params = TfheParameters::testing_fast();
        let m = measure_gate(&params, 20, 7);
        assert!(m.pbs_s > 0.0 && m.keyswitch_s > 0.0);
        assert!(m.pbs_s > m.keyswitch_s, "pbs {} ks {}", m.pbs_s, m.keyswitch_s);
        assert!(m.gate_s >= m.pbs_s);
        assert!(m.throughput_pbs_s > 0.0);
    }

    #[test]
    fn benchmark_key_measurement_runs_without_real_keys() {
        let params = TfheParameters::testing_fast();
        let m = measure_pbs_benchmark_key(&params, 2);
        assert!(m.pbs_s > 0.0);
        assert!(m.keyswitch_s > 0.0);
        assert_eq!(m.iterations, 2);
    }

    #[test]
    fn larger_polynomials_are_slower() {
        let fast = measure_pbs_benchmark_key(&TfheParameters::testing_fast(), 2);
        let mut big = TfheParameters::testing_fast();
        big.polynomial_size *= 4;
        let slow = measure_pbs_benchmark_key(&big, 2);
        assert!(slow.pbs_s > fast.pbs_s, "{} vs {}", slow.pbs_s, fast.pbs_s);
    }

    #[test]
    fn zero_iterations_clamps_to_one() {
        let m = measure_pbs_benchmark_key(&TfheParameters::testing_fast(), 0);
        assert_eq!(m.iterations, 1);
    }

    #[test]
    fn parallel_measurement_scales_with_threads() {
        let params = TfheParameters::testing_fast();
        let one = measure_parallel_pbs(&params, 1, 8);
        let two = measure_parallel_pbs(&params, 2, 8);
        assert!(one > 0.0 && two > 0.0);
        // Parallel efficiency varies wildly when the test runner itself
        // saturates the machine; only require that two threads retain a
        // meaningful fraction of single-thread speed.
        assert!(two > one * 0.5, "1t {one:.0} vs 2t {two:.0} PBS/s");
    }
}
