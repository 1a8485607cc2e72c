//! Bit-identity of the coefficient-batched (job-blocked) CMUX driver
//! against the per-job oracle, across parameter shapes and job counts.
//!
//! The blocked driver (`bootstrap_batch`) re-schedules the external
//! product across jobs — batched split-complex FFTs, a row-major VMA
//! over each block, a batched inverse — but performs the same per-job
//! arithmetic in the same per-job order as the oracle
//! (`reference::blind_rotate` → `reference::external_product_scratch`).
//! These tests pin that equivalence at the bit level, including:
//!
//! * every combination of k ∈ {1, 2}, N ∈ {512, 1024, 2048} and
//!   level ∈ {2, 3} (first-stage radix of the half-size kernel flips
//!   between the sizes, and the digit-batch shape (k+1)·l covers
//!   4/6/9),
//! * job counts that do **not** divide `CMUX_JOB_BLOCK` (partial final
//!   blocks) and jobs whose masks modulus-switch to zero rotations
//!   (skipped inside a block),
//! * the parallel sharded driver (`bootstrap_batch` with `threads > 1`).
//!
//! Keys here are timing-equivalent trivial keys with dense pseudo-
//! random ciphertext masks: bit-identity is a property of the
//! *arithmetic schedule*, not of key secrecy, and trivial keys make
//! N = 2048 keygen instant. Semantic correctness of the blocked path
//! on real encrypted keys is covered by the bootstrap test module
//! (`batched_bootstrap_matches_single_per_job` et al.).

use std::sync::OnceLock;

use proptest::prelude::*;

use strix_tfhe::bootstrap::{BootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::reference;
use strix_tfhe::scratch::CMUX_JOB_BLOCK;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{PbsKernel, StrixFftBackend, TfheParameters};

/// Small LWE dimension: enough blind-rotation iterations to exercise
/// many (entry, block) steps while keeping 2048-point transforms fast.
const TEST_LWE_DIM: usize = 12;

fn shaped_params(k: usize, n: usize, level: usize) -> TfheParameters {
    let mut p = TfheParameters::set_ii();
    p.name = format!("soa-test-k{k}-n{n}-l{level}");
    p.lwe_dimension = TEST_LWE_DIM;
    p.glwe_dimension = k;
    p.polynomial_size = n;
    p.pbs_level = level;
    p.validate().expect("test parameter shape must be valid");
    p
}

/// splitmix64 — dense pseudo-random torus values so every mask element
/// modulus-switches to a non-trivial rotation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_ct(seed: u64, dim: usize) -> LweCiphertext {
    let mut state = seed;
    LweCiphertext::from_raw((0..=dim).map(|_| splitmix(&mut state)).collect())
}

/// Per-job oracle: the reference CMUX, one job at a time.
fn oracle_outputs(bsk: &BootstrapKey, jobs: &[PbsJob<'_>]) -> Vec<LweCiphertext> {
    jobs.iter()
        .map(|job| reference::blind_rotate(bsk, job.ct, job.lut).unwrap().sample_extract())
        .collect()
}

fn benchmark_key(params: &TfheParameters) -> BootstrapKey {
    BootstrapKey::generate_for_benchmark(params, PbsKernel::Classical)
}

#[test]
fn blocked_cmux_is_bit_identical_to_per_job_oracle_across_shapes() {
    for k in [1usize, 2] {
        for n in [512usize, 1024, 2048] {
            for level in [2usize, 3] {
                let params = shaped_params(k, n, level);
                let bsk = benchmark_key(&params);
                let lut = Lut::sign(n, encode_fraction(1, 3));
                // CMUX_JOB_BLOCK + 1 jobs: one full block plus a
                // partial block of one.
                let cts: Vec<LweCiphertext> = (0..CMUX_JOB_BLOCK as u64 + 1)
                    .map(|j| random_ct(0xA5A5 + j + (k * n * level) as u64, TEST_LWE_DIM))
                    .collect();
                let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
                let blocked = bsk.bootstrap_batch(&jobs, 1).unwrap();
                let oracle = oracle_outputs(&bsk, &jobs);
                assert_eq!(blocked, oracle, "k={k} n={n} level={level}");
            }
        }
    }
}

#[test]
fn blocked_cmux_handles_zero_rotations_inside_a_block() {
    // A trivial ciphertext (all-zero mask) skips every CMUX; mixing it
    // into a block with active jobs must leave both its own output and
    // its neighbours' outputs bit-identical to the oracle.
    let params = shaped_params(1, 512, 2);
    let bsk = benchmark_key(&params);
    let lut = Lut::sign(512, encode_fraction(1, 3));
    let mut cts: Vec<LweCiphertext> =
        (0..6u64).map(|j| random_ct(0xBEEF + j, TEST_LWE_DIM)).collect();
    cts[1] = LweCiphertext::trivial(TEST_LWE_DIM, encode_fraction(1, 3));
    cts[4] = LweCiphertext::trivial(TEST_LWE_DIM, 0);
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
    assert_eq!(bsk.bootstrap_batch(&jobs, 1).unwrap(), oracle_outputs(&bsk, &jobs));
}

#[test]
fn forced_portable_backend_is_bit_identical_to_the_detected_backend() {
    // The SIMD backends promise bit-identity with the portable scalar
    // kernels; the strongest end-to-end statement is two keys over the
    // same parameters — one forced portable, one on the auto-detected
    // tier — producing byte-equal PBS outputs. On hosts where auto
    // resolves to portable this degenerates to a self-comparison,
    // which is fine: it then costs one extra keygen, not coverage.
    for n in [1024usize, 2048] {
        let params = shaped_params(1, n, 2);
        let portable_key =
            benchmark_key(&params.clone().with_fft_backend(StrixFftBackend::Portable));
        let auto_key = benchmark_key(&params);
        let lut = Lut::sign(n, encode_fraction(1, 3));
        let cts: Vec<LweCiphertext> =
            (0..4u64).map(|j| random_ct(0xF0CA + j + n as u64, TEST_LWE_DIM)).collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        assert_eq!(
            portable_key.bootstrap_batch(&jobs, 1).unwrap(),
            auto_key.bootstrap_batch(&jobs, 1).unwrap(),
            "n={n}: auto backend ({}) diverged from portable",
            auto_key.fft().backend()
        );
    }
}

/// Shared fixture for the proptest cases (keygen once, not per case).
fn fixture() -> &'static (TfheParameters, BootstrapKey, Lut, Lut) {
    static FIXTURE: OnceLock<(TfheParameters, BootstrapKey, Lut, Lut)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = shaped_params(1, 512, 3);
        let bsk = benchmark_key(&params);
        let lut_sign = Lut::sign(512, encode_fraction(1, 3));
        let lut_id = Lut::from_function(512, 2, |m| m).unwrap();
        (params, bsk, lut_sign, lut_id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random job counts (including counts ≠ 0 mod CMUX_JOB_BLOCK),
    /// random masks, mixed LUTs: blocked batch == per-job oracle,
    /// bit for bit, and the parallel sharded path agrees too.
    #[test]
    fn blocked_batch_matches_oracle_for_uneven_job_counts(
        job_count in 1usize..=2 * CMUX_JOB_BLOCK + 3,
        seed in any::<u64>(),
        threads in 1usize..=5,
    ) {
        let (_, bsk, lut_sign, lut_id) = fixture();
        let cts: Vec<LweCiphertext> =
            (0..job_count as u64).map(|j| random_ct(seed ^ j, TEST_LWE_DIM)).collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { lut_sign } else { lut_id } })
            .collect();
        let oracle = oracle_outputs(bsk, &jobs);
        prop_assert_eq!(&bsk.bootstrap_batch(&jobs, 1).unwrap(), &oracle);
        prop_assert_eq!(&bsk.bootstrap_batch(&jobs, threads).unwrap(), &oracle);
    }
}

#[test]
fn profiled_batch_is_bit_identical_and_records_all_cmux_stages() {
    use strix_tfhe::profiler::{PbsStage, StageTimings};
    let (_, bsk, lut_sign, _) = fixture();
    let cts: Vec<LweCiphertext> = (0..5u64).map(|j| random_ct(0xCAFE + j, TEST_LWE_DIM)).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: lut_sign }).collect();
    let mut timings = StageTimings::new();
    let profiled = bsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    assert_eq!(profiled, bsk.bootstrap_batch(&jobs, 1).unwrap());
    for stage in [
        PbsStage::ModSwitch,
        PbsStage::Rotate,
        PbsStage::Decompose,
        PbsStage::Fft,
        PbsStage::VectorMultiply,
        PbsStage::IfftAccumulate,
        PbsStage::SampleExtract,
    ] {
        assert!(timings.total_for(stage) > std::time::Duration::ZERO, "{stage:?} not recorded");
    }
}
