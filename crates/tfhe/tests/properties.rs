//! Property-based tests of the TFHE data structures and their
//! invariants: gadget decomposition, torus codecs, ciphertext algebra.

use std::sync::OnceLock;

use proptest::prelude::*;

use strix_tfhe::bootstrap::{BootstrapKey, Lut, PbsJob};
use strix_tfhe::decompose::DecompositionParams;
use strix_tfhe::glwe::GlweSecretKey;
use strix_tfhe::lwe::{LweCiphertext, LweSecretKey};
use strix_tfhe::poly::TorusPolynomial;
use strix_tfhe::rng::NoiseSampler;
use strix_tfhe::torus;
use strix_tfhe::{PbsKernel, TfheParameters};

fn decomp_strategy() -> impl Strategy<Value = DecompositionParams> {
    (1u32..=16, 1usize..=4)
        .prop_filter("fits torus", |(b, l)| (*b as usize) * *l <= 64)
        .prop_map(|(base_log, level)| DecompositionParams::new(base_log, level))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decomposition_reconstructs_closest_representable(
        a in any::<u64>(),
        decomp in decomp_strategy(),
    ) {
        let digits = decomp.decompose(a);
        prop_assert_eq!(decomp.recompose(&digits), decomp.closest_representable(a));
    }

    #[test]
    fn decomposition_digits_are_balanced(
        a in any::<u64>(),
        decomp in decomp_strategy(),
    ) {
        let half = 1i64 << (decomp.base_log - 1);
        for d in decomp.decompose(a) {
            prop_assert!(d >= -half && d <= half, "digit {d} for base 2^{}", decomp.base_log);
        }
    }

    #[test]
    fn rounding_error_is_within_half_gadget_step(
        a in any::<u64>(),
        decomp in decomp_strategy(),
    ) {
        let r = decomp.closest_representable(a);
        let err = (a.wrapping_sub(r) as i64).unsigned_abs();
        let rep_bits = decomp.represented_bits();
        let bound = if rep_bits >= 64 { 0 } else { 1u64 << (64 - rep_bits - 1) };
        prop_assert!(err <= bound, "a={a} err={err} bound={bound}");
    }

    #[test]
    fn modulus_switch_error_bounded(a in any::<u64>(), bits in 1u32..=24) {
        let switched = torus::modulus_switch(a, bits);
        prop_assert!(switched < (1u64 << bits));
        let approx = switched as f64 / (1u64 << bits) as f64;
        let exact = a as f64 / 2.0f64.powi(64);
        let mut err = (approx - exact).abs();
        err = err.min(1.0 - err);
        prop_assert!(err <= 0.5 / (1u64 << bits) as f64 + 1e-15, "err {err}");
    }

    #[test]
    fn fraction_encoding_is_additive(
        a in -8i64..8,
        b in -8i64..8,
        denom in 4u32..=16,
    ) {
        let ea = torus::encode_fraction(a, denom);
        let eb = torus::encode_fraction(b, denom);
        prop_assert_eq!(ea.wrapping_add(eb), torus::encode_fraction(a + b, denom));
    }

    #[test]
    fn lwe_addition_is_homomorphic(
        m1 in 0u64..16,
        m2 in 0u64..16,
        seed in any::<u64>(),
    ) {
        let mut rng = NoiseSampler::from_seed(seed);
        let sk = LweSecretKey::generate(64, &mut rng);
        let std = 2.0f64.powi(-30);
        let mut c1 = sk.encrypt(torus::encode_fraction(m1 as i64, 5), std, &mut rng);
        let c2 = sk.encrypt(torus::encode_fraction(m2 as i64, 5), std, &mut rng);
        c1.add_assign(&c2).unwrap();
        let phase = sk.decrypt_phase(&c1).unwrap();
        prop_assert_eq!(torus::decode_message(phase, 5), (m1 + m2) % 32);
    }

    #[test]
    fn lwe_negation_then_addition_cancels(
        m in 0u64..16,
        seed in any::<u64>(),
    ) {
        let mut rng = NoiseSampler::from_seed(seed);
        let sk = LweSecretKey::generate(32, &mut rng);
        let std = 2.0f64.powi(-30);
        let ct = sk.encrypt(torus::encode_fraction(m as i64, 5), std, &mut rng);
        let mut neg = ct.clone();
        neg.negate();
        neg.add_assign(&ct).unwrap();
        let phase = sk.decrypt_phase(&neg).unwrap();
        prop_assert_eq!(torus::decode_message(phase, 5), 0);
    }

    #[test]
    fn trivial_ciphertexts_decrypt_exactly(pt in any::<u64>(), dim in 1usize..256) {
        let mut rng = NoiseSampler::from_seed(1);
        let sk = LweSecretKey::generate(dim, &mut rng);
        let ct = LweCiphertext::trivial(dim, pt);
        prop_assert_eq!(sk.decrypt_phase(&ct).unwrap(), pt);
    }

    #[test]
    fn polynomial_rotation_by_two_n_is_identity(
        coeffs in prop::collection::vec(any::<u64>(), 16),
        r in 0usize..32,
    ) {
        let p = TorusPolynomial::from_coeffs(coeffs);
        let forward = p.rotate_right(r);
        let back = forward.rotate_left(r);
        prop_assert_eq!(back, p);
    }

    #[test]
    fn f64_torus_conversion_round_trips_small_values(v in -(1i64 << 40)..(1i64 << 40)) {
        prop_assert_eq!(torus::f64_to_torus(v as f64), v as u64);
    }

    #[test]
    fn signed_interpretation_matches_twos_complement(t in any::<u64>()) {
        let signed = torus::torus_to_f64_signed(t);
        prop_assert_eq!(signed, t as i64 as f64);
    }
}

/// A real bootstrapping key plus a pair of distinct LUTs, generated
/// once for the whole parallel-equivalence property (key generation is
/// the expensive part; the ciphertexts vary per case).
fn pbs_fixture() -> &'static (TfheParameters, BootstrapKey, Vec<Lut>) {
    static FIXTURE: OnceLock<(TfheParameters, BootstrapKey, Vec<Lut>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = TfheParameters::testing_fast();
        let mut rng = NoiseSampler::from_seed(0xE90C);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let bsk =
            BootstrapKey::generate(&lwe_sk, &glwe_sk, &params, PbsKernel::Classical, &mut rng);
        let luts = vec![
            Lut::sign(params.polynomial_size, torus::encode_fraction(1, 3)),
            Lut::from_function(params.polynomial_size, 2, |m| (3 * m + 1) % 4).unwrap(),
        ];
        (params, bsk, luts)
    })
}

proptest! {
    // PBS-heavy property: fewer cases, each covering a random epoch.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A threaded `bootstrap_batch` must be *bit*-identical to the
    /// sequential key-major path for any epoch shape — including job
    /// counts that do not divide evenly across the thread count and
    /// epochs smaller than the thread count.
    #[test]
    fn parallel_epoch_is_bit_identical_to_sequential(
        job_count in 0usize..10,
        threads in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (params, bsk, luts) = pbs_fixture();
        let mut rng = NoiseSampler::from_seed(seed);
        let cts: Vec<LweCiphertext> = (0..job_count)
            .map(|_| {
                let mut raw = vec![0u64; params.lwe_dimension + 1];
                rng.fill_uniform(&mut raw);
                LweCiphertext::from_raw(raw)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: &luts[i % luts.len()] })
            .collect();
        let sequential = bsk.bootstrap_batch(&jobs, 1).unwrap();
        let parallel = bsk.bootstrap_batch(&jobs, threads).unwrap();
        prop_assert_eq!(parallel, sequential, "jobs={} threads={}", job_count, threads);
    }
}
