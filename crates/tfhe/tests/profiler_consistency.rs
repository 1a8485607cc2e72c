//! Consistency of the probed (profiled) execution paths with the
//! production kernel they instrument.
//!
//! Two properties keep the production stage breakdown trustworthy now
//! that the runtime samples epochs through `bootstrap_batch_profiled`:
//!
//! 1. **Accounting** — the per-stage times must sum to (almost all of)
//!    the measured wall time of the profiled call: if a meaningful
//!    fraction of the kernel ran outside every probe bracket, the
//!    breakdown would misattribute it.
//! 2. **Bit-identity** — `TimingProbe` must not perturb the arithmetic:
//!    probed outputs equal `NoProbe` outputs bit for bit, on real
//!    encrypted keys, for both the PBS and the keyswitch.

use std::time::{Duration, Instant};

use strix_tfhe::bootstrap::{Lut, PbsJob};
use strix_tfhe::prelude::*;
use strix_tfhe::profiler::{PbsStage, StageTimings};

#[test]
fn probed_stage_times_sum_to_the_measured_wall_time() {
    let params = TfheParameters::testing_fast();
    let (mut client, server) = generate_keys(&params, 321);
    let bsk = server.bootstrap_key();
    let lut = Lut::from_function(params.polynomial_size, 2, |m| m).unwrap();
    let cts: Vec<_> =
        (0..6u64).map(|i| client.encrypt_shortint(i % 4, 2).unwrap().as_lwe().clone()).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();

    // Warm up caches and the FFT twiddle tables so the measured run is
    // representative, then measure the profiled call.
    let mut warmup = StageTimings::new();
    bsk.bootstrap_batch_profiled(&jobs, &mut warmup).unwrap();
    let mut timings = StageTimings::new();
    let t0 = Instant::now();
    bsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    let wall = t0.elapsed();

    let sum = timings.total();
    // The probes nest no regions and bracket every heavy loop, so the
    // sum can only fall short of wall time by loop glue, and can only
    // exceed it by `Instant` measurement noise. Tolerances are
    // deliberately loose: this runs in debug CI on shared hardware.
    assert!(
        sum <= wall + wall / 4 + Duration::from_millis(1),
        "stage sum {sum:?} exceeds wall time {wall:?}"
    );
    assert!(
        sum >= wall / 2,
        "stage sum {sum:?} accounts for under half of wall time {wall:?} — \
         a heavy region is running outside every probe bracket"
    );
}

#[test]
fn probed_bootstrap_is_bit_identical_to_production_on_real_keys() {
    let params = TfheParameters::testing_fast();
    let (mut client, server) = generate_keys(&params, 654);
    let bsk = server.bootstrap_key();
    let lut = Lut::from_function(params.polynomial_size, 2, |m| (m + 3) % 4).unwrap();
    let cts: Vec<_> =
        (0..5u64).map(|i| client.encrypt_shortint(i % 4, 2).unwrap().as_lwe().clone()).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();

    let production = bsk.bootstrap_batch(&jobs, 1).unwrap();
    let mut timings = StageTimings::new();
    let probed = bsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    assert_eq!(probed, production, "TimingProbe must not perturb the arithmetic");

    // Single-job probed path agrees too.
    let mut single_timings = StageTimings::new();
    let single = bsk.bootstrap_batch_profiled(&jobs[..1], &mut single_timings).unwrap().remove(0);
    assert_eq!(single, production[0]);
    assert!(single_timings.total_for(PbsStage::Fft) > Duration::ZERO);
}

#[test]
fn probed_multi_bit_bootstrap_is_bit_identical_to_production() {
    // The grouped kernel threads the same `Probe` machinery through its
    // assembly/decompose/FFT loops; the probes must not perturb it.
    let params =
        TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 2 });
    let (mut client, server) = generate_keys(&params, 246);
    let mbsk = server.bootstrap_key_for(params.pbs_kernel);
    assert_eq!(mbsk.kernel(), params.pbs_kernel, "multi-bit params carry the grouped key");
    let lut = Lut::from_function(params.polynomial_size, 2, |m| (m + 3) % 4).unwrap();
    let cts: Vec<_> =
        (0..5u64).map(|i| client.encrypt_shortint(i % 4, 2).unwrap().as_lwe().clone()).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();

    let production = mbsk.bootstrap_batch(&jobs, 1).unwrap();
    let mut timings = StageTimings::new();
    let probed = mbsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    assert_eq!(probed, production, "TimingProbe must not perturb the grouped kernel");
    // The grouped kernel's signature stages all ran under a probe: the
    // combined-GGSW assembly accounts to VectorMultiply and there is no
    // per-entry rotate stage.
    assert!(timings.total_for(PbsStage::Fft) > Duration::ZERO);
    assert!(timings.total_for(PbsStage::VectorMultiply) > Duration::ZERO);
}

#[test]
fn probed_multi_bit_stage_times_sum_to_the_measured_wall_time() {
    let params =
        TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 2 });
    let (mut client, server) = generate_keys(&params, 135);
    let mbsk = server.bootstrap_key_for(params.pbs_kernel);
    let lut = Lut::from_function(params.polynomial_size, 2, |m| m).unwrap();
    let cts: Vec<_> =
        (0..6u64).map(|i| client.encrypt_shortint(i % 4, 2).unwrap().as_lwe().clone()).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();

    let mut warmup = StageTimings::new();
    mbsk.bootstrap_batch_profiled(&jobs, &mut warmup).unwrap();
    let mut timings = StageTimings::new();
    let t0 = Instant::now();
    mbsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    let wall = t0.elapsed();

    let sum = timings.total();
    assert!(
        sum <= wall + wall / 4 + Duration::from_millis(1),
        "stage sum {sum:?} exceeds wall time {wall:?}"
    );
    assert!(
        sum >= wall / 2,
        "stage sum {sum:?} accounts for under half of wall time {wall:?} — \
         a heavy region of the grouped kernel runs outside every probe bracket"
    );
}

#[test]
fn probed_keyswitch_is_bit_identical_to_production() {
    let params = TfheParameters::testing_fast();
    let (mut client, server) = generate_keys(&params, 987);
    let lut = Lut::from_function(params.polynomial_size, 2, |m| m).unwrap();
    let big = server
        .bootstrap_key()
        .bootstrap(client.encrypt_shortint(2, 2).unwrap().as_lwe(), &lut)
        .unwrap();
    let ksk = server.keyswitch_key();
    let production = ksk.keyswitch(&big).unwrap();
    let mut timings = StageTimings::new();
    let probed = ksk.keyswitch_profiled(&big, &mut timings).unwrap();
    assert_eq!(probed, production);
    assert!(timings.total_for(PbsStage::KeySwitch) > Duration::ZERO);
}
