//! Integration tests for the extension features beyond the paper's
//! headline pipeline: bootstrapping-key unrolling (§VII / Matcha),
//! bivariate LUTs, radix integers and the top-level energy report.

use strix::tfhe::bootstrap::Lut;
use strix::tfhe::integer::RadixSpec;
use strix::tfhe::prelude::*;
use strix::tfhe::rng::NoiseSampler;
use strix::tfhe::torus::encode_fraction;
use strix::tfhe::unrolled::UnrolledBootstrapKey;

#[test]
fn unrolled_key_computes_the_same_gates() {
    let params = TfheParameters::testing_fast();
    let mut rng = NoiseSampler::from_seed(808);
    let lwe_sk = strix::tfhe::lwe::LweSecretKey::generate(params.lwe_dimension, &mut rng);
    let glwe_sk = strix::tfhe::glwe::GlweSecretKey::generate(
        params.glwe_dimension,
        params.polynomial_size,
        &mut rng,
    );
    let unrolled = UnrolledBootstrapKey::generate(&lwe_sk, &glwe_sk, &params, &mut rng);
    assert_eq!(unrolled.iterations(), params.lwe_dimension / 2);

    let extracted = glwe_sk.to_extracted_lwe_key();
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    for b in [true, false] {
        let pt = encode_fraction(if b { 1 } else { -1 }, 3);
        let ct = lwe_sk.encrypt(pt, params.lwe_noise_std, &mut rng);
        let out = unrolled.bootstrap(&ct, &lut).unwrap();
        let phase = extracted.decrypt_phase(&out).unwrap();
        assert_eq!((phase as i64) > 0, b, "b={b}");
    }
}

#[test]
fn radix_integers_do_arithmetic_end_to_end() {
    let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 4_242);
    let spec = RadixSpec::new(1, 4);
    let a = client.encrypt_radix(9, spec).unwrap();
    let b = client.encrypt_radix(5, spec).unwrap();
    let sum = server.radix_add(&a, &b).unwrap();
    assert_eq!(client.decrypt_radix(&sum), 14);
    let eq = server.radix_eq(&sum, &client.encrypt_radix(14, spec).unwrap()).unwrap();
    assert_eq!(client.decrypt_shortint(&eq), 1);
}

#[test]
fn bivariate_lut_computes_two_input_functions() {
    let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 13_13);
    for (a, b) in [(0u64, 0u64), (1, 2), (3, 3), (2, 1)] {
        let ca = client.encrypt_shortint(a, 2).unwrap();
        let cb = client.encrypt_shortint(b, 2).unwrap();
        let out = server.apply_bivariate_lut(&ca, &cb, |x, y| (x + 2 * y) % 4).unwrap();
        assert_eq!(client.decrypt_shortint(&out), (a + 2 * b) % 4, "f({a},{b})");
    }
}

#[test]
fn energy_report_is_exposed_at_the_top_level() {
    use strix::core::{StrixConfig, StrixSimulator};
    let sim = StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
    let e = sim.energy_report();
    assert!(e.pbs_per_joule > 100.0);
    assert!(e.power_w > 50.0 && e.power_w < 100.0);
}
