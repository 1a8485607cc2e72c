//! Validation of the static program analyzer against ground truth.
//!
//! Two layers of pinning:
//!
//! 1. **Closed form** — a property test over random single-LUT
//!    programs checks that the analyzer's per-wire report is exactly
//!    the composition of the `strix-tfhe` noise module it claims to
//!    be: decision variance = Σ wᵢ²·fresh + modswitch, output variance
//!    = PBS + keyswitch, decision distance = the LUT's bucket radius.
//! 2. **Measurement** — seeded random single-LUT programs run through
//!    the synchronous reference executor (and the grouped multi-bit
//!    kernel runs through its key directly); over hundreds of samples
//!    the measured output-error standard deviation must land within
//!    [0.8, 1.25]× of the analyzer's prediction, for both kernels.
//!
//! Plus the admission regression: a program the analyzer rejects must
//! fail with [`RuntimeError::NoiseBudgetExceeded`] *before* any
//! request reaches the batcher — the runtime report stays at zero.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use strix::core::BatchGeometry;
use strix::runtime::session::{Program, ProgramSession, Wire};
use strix::runtime::{
    AdmissionPolicy, KernelPolicy, Runtime, RuntimeConfig, RuntimeError, TfheExecutor,
    DEFAULT_THRESHOLD_SIGMAS,
};
use strix::tfhe::boolean::BinaryGate;
use strix::tfhe::bootstrap::{decode_bool, Lut, PbsJob};
use strix::tfhe::lwe::LweCiphertext;
use strix::tfhe::noise::{
    error_std, fresh_lwe_variance, linear_combination_variance, lut_decision_distance,
    lut_output_variance_for, measure_error, modswitch_variance,
};
use strix::tfhe::prelude::*;

const MESSAGE_BITS: u32 = 2;
const SAMPLES: usize = 320;

/// Deterministic xorshift64 so the "random" programs are the same on
/// every run — the statistical band then never flakes.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Builds a random single-LUT program: fan-in 1–3, weights 1–3, a
/// random 2-bit LUT table, and an input assignment whose weighted sum
/// stays inside the message space (so the expected plaintext is
/// well-defined and only noise separates samples).
struct RandomLutProgram {
    program: Program,
    weights: Vec<i64>,
    messages: Vec<u64>,
    expected_pt: u64,
}

fn random_lut_program(params: &TfheParameters, seed: u64) -> RandomLutProgram {
    let mut s = seed;
    let fan_in = 1 + (xorshift(&mut s) % 3) as usize;
    let weights: Vec<i64> = (0..fan_in).map(|_| 1 + (xorshift(&mut s) % 3) as i64).collect();
    let table: [u64; 4] = std::array::from_fn(|_| xorshift(&mut s) % 4);
    // One hot input of message 1: the weighted sum is that input's
    // weight (≤ 3), which never overflows the 2-bit message space.
    let hot = (xorshift(&mut s) as usize) % fan_in;
    let messages: Vec<u64> = (0..fan_in).map(|i| u64::from(i == hot)).collect();
    let expected_msg = table[weights[hot] as usize & 3];
    let expected_pt = expected_msg << (64 - MESSAGE_BITS - 1);

    let lut = Arc::new(
        Lut::from_function(params.polynomial_size, MESSAGE_BITS, move |m| table[(m & 3) as usize])
            .unwrap(),
    );
    let mut program = Program::new(fan_in);
    let out = program.linear_lut(weights.clone(), (0..fan_in).map(Wire::Input).collect(), 0, lut);
    program.output(out);
    RandomLutProgram { program, weights, messages, expected_pt }
}

/// Same band as the `noise_model` suite: with ≥320 samples the std
/// estimator's own spread is ~4%, far inside the tolerance, so a
/// violation means the analyzer's model diverged from the kernels.
fn assert_within_band(measured: f64, predicted: f64, label: &str) {
    let ratio = measured / predicted;
    eprintln!("{label}: measured {measured:.3e} / predicted {predicted:.3e} = {ratio:.3}");
    assert!(
        (0.8..=1.25).contains(&ratio),
        "{label}: measured std {measured:e} vs predicted {predicted:e} (ratio {ratio:.3})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analyzer's report on a random single-LUT program is the
    /// exact closed-form composition of the noise module — no hidden
    /// fudge factors, no dropped terms.
    #[test]
    fn analyzer_report_is_the_closed_form_noise_model(
        weights in prop::collection::vec(1i64..=8, 1..=4),
        precision in 1u32..=3,
    ) {
        let params = TfheParameters::testing_fast();
        let lut = Arc::new(
            Lut::from_function(params.polynomial_size, precision, |m| m).unwrap(),
        );
        let mut program = Program::new(weights.len());
        let out = program.linear_lut(
            weights.clone(),
            (0..weights.len()).map(Wire::Input).collect(),
            0,
            lut,
        );
        program.output(out);

        let kernel = PbsKernel::Classical;
        let analysis =
            AdmissionPolicy::new(params.clone(), KernelPolicy::uniform(kernel)).analyze(&program);
        prop_assert_eq!(analysis.reports.len(), 1);
        let report = analysis.reports[0];

        let fresh = vec![fresh_lwe_variance(&params); weights.len()];
        let decision =
            linear_combination_variance(&weights, &fresh) + modswitch_variance(&params);
        prop_assert!((report.decision_variance / decision - 1.0).abs() < 1e-12);
        prop_assert!(
            (report.output_variance / lut_output_variance_for(&params, kernel) - 1.0).abs()
                < 1e-12
        );
        prop_assert!(
            (report.decision_distance - lut_decision_distance(precision)).abs() < 1e-15
        );
        let gain: f64 = weights.iter().map(|&w| (w * w) as f64).sum();
        prop_assert!((report.linear_gain - gain).abs() < 1e-12);
    }
}

#[test]
fn analyzer_matches_measured_noise_on_random_single_lut_programs() {
    // Four seeded random programs, each bootstrapped SAMPLES times
    // through the synchronous reference path (linear preamble → PBS →
    // keyswitch — bit-identical to the streamed executor). The
    // measured output-error std must sit in the band around the
    // analyzer's predicted output std.
    let params = TfheParameters::testing_fast();
    let (mut client, server) = generate_keys(&params, 0x5EED_A000);
    for seed in [0x5EED_A001u64, 0x5EED_A002, 0x5EED_A003, 0x5EED_A004] {
        let case = random_lut_program(&params, seed);
        let analysis =
            AdmissionPolicy::new(params.clone(), KernelPolicy::uniform(PbsKernel::Classical))
                .analyze(&case.program);
        let predicted = analysis.reports[0].output_variance.sqrt();

        let errors: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let inputs: Vec<LweCiphertext> = case
                    .messages
                    .iter()
                    .map(|&m| client.encrypt_shortint(m, MESSAGE_BITS).unwrap().as_lwe().clone())
                    .collect();
                let outputs = case.program.run_sync(&server, &inputs).unwrap();
                measure_error(&client, &outputs[0], case.expected_pt)
            })
            .collect();
        let label = format!("single-lut seed {seed:#x} weights {:?}", case.weights);
        assert_within_band(error_std(&errors), predicted, &label);
    }
}

#[test]
fn analyzer_matches_measured_noise_under_multi_bit_kernel() {
    // The multi-bit arm of the same pin: a trivial single-LUT program
    // analyzed under MultiBit{g}, measured by driving the grouped key
    // directly through PBS + keyswitch — the exact pipeline the
    // executor dispatches when a grouped key is present.
    for g in [2usize, 3] {
        let kernel = PbsKernel::MultiBit { grouping_factor: g };
        let params = TfheParameters::testing_fast().with_kernel(kernel);
        let (mut client, server) = generate_keys(&params, 0x5EED_B000 + g as u64);

        let lut =
            Arc::new(Lut::from_function(params.polynomial_size, MESSAGE_BITS, |m| m).unwrap());
        let mut program = Program::new(1);
        let out = program.linear_lut(vec![1], vec![Wire::Input(0)], 0, Arc::clone(&lut));
        program.output(out);
        let analysis =
            AdmissionPolicy::new(params.clone(), KernelPolicy::uniform(kernel)).analyze(&program);
        let predicted = analysis.reports[0].output_variance.sqrt();

        const MESSAGE: u64 = 1;
        let expected_pt = MESSAGE << (64 - MESSAGE_BITS - 1);
        let cts: Vec<LweCiphertext> = (0..SAMPLES)
            .map(|_| client.encrypt_shortint(MESSAGE, MESSAGE_BITS).unwrap().as_lwe().clone())
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        let boots = server.bootstrap_key_for(params.pbs_kernel).bootstrap_batch(&jobs, 1).unwrap();
        let errors: Vec<f64> = boots
            .iter()
            .map(|b| {
                let ks = server.keyswitch_key().keyswitch(b).unwrap();
                measure_error(&client, &ks, expected_pt)
            })
            .collect();
        assert_within_band(error_std(&errors), predicted, &format!("multi-bit g={g} + ks"));
    }
}

#[test]
fn rejected_program_never_reaches_the_runtime() {
    // Admission is a gate, not a diagnostic: when the analyzer
    // predicts a margin below threshold the session must fail before
    // anything is enqueued, and the runtime must stay healthy for the
    // next (well-formed) program.
    let params = TfheParameters::testing_fast();
    let (mut client, server) = generate_keys(&params, 0x5EED_AD01);
    let config = RuntimeConfig::new(BatchGeometry::explicit(2, 8))
        .with_max_delay(Duration::from_millis(5))
        .with_workers(1);
    let runtime = Runtime::start(config, TfheExecutor::new(Arc::new(server)));
    let mut handle = runtime.client();

    // A weight of 2¹⁶ amplifies fresh noise ~2³² in variance — no
    // shipped parameter set survives that, so the analyzer rejects.
    let lut = Arc::new(Lut::from_function(params.polynomial_size, 1, |m| m).unwrap());
    let mut doomed = Program::new(1);
    let out = doomed.linear_lut(vec![1 << 16], vec![Wire::Input(0)], 0, lut);
    doomed.output(out);

    let input = client.encrypt_bool(true).into_lwe();
    let session = ProgramSession::new(&doomed, vec![input]).unwrap();
    match session.run(&mut handle) {
        Err(RuntimeError::NoiseBudgetExceeded { node, margin_sigmas, threshold_sigmas }) => {
            assert_eq!(node, 0);
            assert!(margin_sigmas < threshold_sigmas);
            assert_eq!(threshold_sigmas, DEFAULT_THRESHOLD_SIGMAS);
        }
        other => panic!("expected NoiseBudgetExceeded, got {other:?}"),
    }

    // The rejection happened at admission: nothing was submitted, so
    // the runtime has processed exactly zero requests.
    let report = runtime.report();
    assert_eq!(report.requests_completed, 0, "rejected program leaked requests into the batcher");
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.fused_linear_completed, 0);

    // A well-formed program on the same handle still runs.
    let mut healthy = Program::new(2);
    let and = healthy.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
    healthy.output(and);
    let inputs = vec![client.encrypt_bool(true).into_lwe(), client.encrypt_bool(true).into_lwe()];
    let outputs = ProgramSession::new(&healthy, inputs).unwrap().run(&mut handle).unwrap();
    assert!(decode_bool(client.decrypt_phase(&outputs[0]).unwrap()));

    let final_report = runtime.shutdown();
    assert_eq!(final_report.requests_completed, 1);
    assert_eq!(final_report.requests_failed, 0);
}
