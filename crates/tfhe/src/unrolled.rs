//! Bootstrapping-key unrolling (Bourse et al., the paper's \[51\]; the
//! technique behind Matcha, §VII).
//!
//! Standard blind rotation runs `n` sequential CMUX iterations, one per
//! secret-key bit. Unrolling by two handles a *pair* of bits per
//! iteration:
//!
//! ```text
//! acc ← X^{ã₁s₁ + ã₂s₂} · acc
//!     = acc + s₁s₂·(X^{ã₁+ã₂}−1)·acc + s₁(1−s₂)·(X^{ã₁}−1)·acc
//!           + (1−s₁)s₂·(X^{ã₂}−1)·acc
//! ```
//!
//! so each pair needs **three** GGSW ciphertexts (of `s₁s₂`, `s₁(1−s₂)`
//! and `(1−s₁)s₂`) instead of two — 1.5× the key material — but only
//! `⌈n/2⌉` sequential iterations. Matcha uses this to cut latency; for
//! a *streaming* architecture like Strix the per-iteration work triples
//! while iterations only halve, which is exactly why the paper batches
//! instead of unrolling. The `ablations` bench quantifies that
//! trade-off on the simulator; this module provides the real
//! cryptographic implementation so the comparison is grounded.

use strix_fft::NegacyclicFft;

use crate::bootstrap::{check_pbs_shape, Lut};
use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParameters;
use crate::reference::external_product;
use crate::rng::NoiseSampler;
use crate::torus::modulus_switch;
use crate::TfheError;

/// One unrolled key entry: the three GGSWs of a secret-bit pair.
#[derive(Clone, Debug)]
struct PairEntry {
    /// GGSW(s₁·s₂).
    both: FourierGgsw,
    /// GGSW(s₁·(1−s₂)).
    only_first: FourierGgsw,
    /// GGSW((1−s₁)·s₂).
    only_second: FourierGgsw,
}

/// A 2-unrolled bootstrapping key: `⌈n/2⌉` iterations, 1.5× key bytes.
#[derive(Clone, Debug)]
pub struct UnrolledBootstrapKey {
    pairs: Vec<PairEntry>,
    /// Standard GGSW for the last bit when `n` is odd.
    tail: Option<FourierGgsw>,
    fft: NegacyclicFft,
    glwe_dimension: usize,
    poly_size: usize,
    input_dimension: usize,
}

impl UnrolledBootstrapKey {
    /// Generates the unrolled key for `lwe_sk` under `glwe_sk`.
    pub fn generate(
        lwe_sk: &LweSecretKey,
        glwe_sk: &GlweSecretKey,
        params: &TfheParameters,
        rng: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        let std = params.glwe_noise_std;
        let bits = lwe_sk.bits();
        let mut encrypt =
            |m: u64| GgswCiphertext::encrypt_scalar(m, glwe_sk, decomp, std, rng).to_fourier(&fft);
        let mut pairs = Vec::with_capacity(bits.len() / 2);
        for pair in bits.chunks_exact(2) {
            let (s1, s2) = (pair[0], pair[1]);
            pairs.push(PairEntry {
                both: encrypt(s1 * s2),
                only_first: encrypt(s1 * (1 - s2)),
                only_second: encrypt((1 - s1) * s2),
            });
        }
        let tail = (bits.len() % 2 == 1).then(|| encrypt(bits[bits.len() - 1]));
        Self {
            pairs,
            tail,
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            input_dimension: bits.len(),
        }
    }

    /// Number of sequential blind-rotation iterations: `⌈n/2⌉`.
    pub fn iterations(&self) -> usize {
        self.pairs.len() + usize::from(self.tail.is_some())
    }

    /// Input LWE dimension `n`.
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output LWE dimension `k·N`.
    pub fn output_dimension(&self) -> usize {
        self.glwe_dimension * self.poly_size
    }

    /// Total Fourier key bytes — 1.5× the standard key for even `n`.
    pub fn byte_size(&self) -> usize {
        let pair_bytes: usize = self
            .pairs
            .iter()
            .map(|p| p.both.byte_size() + p.only_first.byte_size() + p.only_second.byte_size())
            .sum();
        pair_bytes + self.tail.as_ref().map_or(0, FourierGgsw::byte_size)
    }

    /// Unrolled blind rotation followed by sample extraction.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        Ok(self.blind_rotate(ct, lut)?.sample_extract())
    }

    /// The unrolled blind rotation.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError> {
        check_pbs_shape(ct, lut, self.input_dimension, self.poly_size)?;
        let log2_two_n = self.poly_size.trailing_zeros() + 1;
        let two_n = 2 * self.poly_size;
        let b_tilde = modulus_switch(ct.body(), log2_two_n) as usize;
        let mut acc = GlweCiphertext::trivial(self.glwe_dimension, lut.poly().rotate_left(b_tilde));

        let mask = ct.mask();
        for (pair_idx, entry) in self.pairs.iter().enumerate() {
            let a1 = modulus_switch(mask[2 * pair_idx], log2_two_n) as usize;
            let a2 = modulus_switch(mask[2 * pair_idx + 1], log2_two_n) as usize;
            if a1 == 0 && a2 == 0 {
                continue;
            }
            // acc += Σ G_c ⊡ (X^{shift_c}·acc − acc) over the three
            // non-identity cases of the pair.
            let mut update = GlweCiphertext::zero(self.glwe_dimension, self.poly_size);
            for (ggsw, shift) in [
                (&entry.both, (a1 + a2) % two_n),
                (&entry.only_first, a1),
                (&entry.only_second, a2),
            ] {
                if shift == 0 {
                    // X^0·acc − acc = 0: no contribution (the encrypted
                    // selector multiplies zero).
                    continue;
                }
                let mut diff = acc.rotate_right(shift);
                diff.sub_assign(&acc)?;
                update.add_assign(&external_product(ggsw, &diff, &self.fft))?;
            }
            acc.add_assign(&update)?;
        }
        if let Some(tail) = &self.tail {
            let a = modulus_switch(mask[self.input_dimension - 1], log2_two_n) as usize;
            if a != 0 {
                let mut diff = acc.rotate_right(a);
                diff.sub_assign(&acc)?;
                acc.add_assign(&external_product(tail, &diff, &self.fft))?;
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{decode_bool, encode_bool, BootstrapKey};
    use crate::params::PbsKernel;
    use crate::torus::{decode_message, encode_fraction};

    struct Fixture {
        params: TfheParameters,
        lwe_sk: LweSecretKey,
        extracted: LweSecretKey,
        unrolled: UnrolledBootstrapKey,
        standard: BootstrapKey,
        rng: NoiseSampler,
    }

    fn fixture(params: TfheParameters) -> Fixture {
        let mut rng = NoiseSampler::from_seed(777);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let extracted = glwe_sk.to_extracted_lwe_key();
        let unrolled = UnrolledBootstrapKey::generate(&lwe_sk, &glwe_sk, &params, &mut rng);
        let standard =
            BootstrapKey::generate(&lwe_sk, &glwe_sk, &params, PbsKernel::Classical, &mut rng);
        Fixture { params, lwe_sk, extracted, unrolled, standard, rng }
    }

    #[test]
    fn iteration_count_halves() {
        let fx = fixture(TfheParameters::testing_fast());
        assert_eq!(fx.unrolled.iterations(), fx.params.lwe_dimension / 2);
    }

    #[test]
    fn key_grows_by_half() {
        let fx = fixture(TfheParameters::testing_fast());
        let ratio = fx.unrolled.byte_size() as f64 / fx.standard.byte_size() as f64;
        assert!((ratio - 1.5).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn unrolled_bootstrap_matches_standard_sign() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let out_u = fx.unrolled.bootstrap(&ct, &lut).unwrap();
            let out_s = fx.standard.bootstrap(&ct, &lut).unwrap();
            let phase_u = fx.extracted.decrypt_phase(&out_u).unwrap();
            let phase_s = fx.extracted.decrypt_phase(&out_s).unwrap();
            assert_eq!(decode_bool(phase_u), b, "unrolled b={b}");
            assert_eq!(decode_bool(phase_u), decode_bool(phase_s));
        }
    }

    #[test]
    fn unrolled_bootstrap_evaluates_luts() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let f = |m: u64| (m + 2) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.unrolled.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn odd_dimension_uses_a_tail_entry() {
        let mut params = TfheParameters::testing_fast();
        params.lwe_dimension = 65;
        let fx = &mut fixture(params.clone());
        assert_eq!(fx.unrolled.iterations(), 33); // 32 pairs + tail
        let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
        let ct = fx.lwe_sk.encrypt(encode_bool(true), params.lwe_noise_std, &mut fx.rng);
        let out = fx.unrolled.bootstrap(&ct, &lut).unwrap();
        let phase = fx.extracted.decrypt_phase(&out).unwrap();
        assert!(decode_bool(phase));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let fx = fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(fx.unrolled.bootstrap(&wrong, &lut).is_err());
    }
}
