//! Small-integer ciphertexts with LUT evaluation via PBS.
//!
//! Messages are `p`-bit unsigned integers encoded in the top bits of the
//! torus with one padding bit: `pt = m · q/2^{p+1}`. Programmable
//! bootstrapping evaluates *any* function `f: [0,2^p) → [0,2^p)` in a
//! single PBS — the paper's headline capability ("homomorphic look-up
//! tables", Table I) and the mechanism behind the Zama Deep-NN ReLU
//! activations of Fig. 7.

use crate::bootstrap::Lut;
use crate::keys::{ClientKey, ServerKey};
use crate::lwe::LweCiphertext;
use crate::torus::decode_message;
use crate::TfheError;

/// An encrypted `p`-bit unsigned integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShortintCiphertext {
    pub(crate) ct: LweCiphertext,
    pub(crate) message_bits: u32,
}

impl ShortintCiphertext {
    /// The message precision in bits.
    #[inline]
    pub fn message_bits(&self) -> u32 {
        self.message_bits
    }

    /// The message-space size `2^p`.
    #[inline]
    pub fn message_modulus(&self) -> u64 {
        1u64 << self.message_bits
    }

    /// Borrow of the underlying LWE ciphertext.
    #[inline]
    pub fn as_lwe(&self) -> &LweCiphertext {
        &self.ct
    }

    /// A trivial (noiseless, insecure) encryption of a known message.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::MessageOutOfRange`] if `m >= 2^p`.
    pub fn trivial(dimension: usize, m: u64, message_bits: u32) -> Result<Self, TfheError> {
        check_range(m, message_bits)?;
        let pt = m << (64 - message_bits - 1);
        Ok(Self { ct: LweCiphertext::trivial(dimension, pt), message_bits })
    }

    /// Homomorphic addition (mod `2^p` as long as the sum stays below
    /// the padding bit; callers chaining many additions should
    /// re-bootstrap via an identity LUT to reset both noise and range).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if precisions or
    /// dimensions differ.
    pub fn add_assign(&mut self, other: &ShortintCiphertext) -> Result<(), TfheError> {
        if self.message_bits != other.message_bits {
            return Err(TfheError::ParameterMismatch {
                what: "message bits",
                left: self.message_bits as usize,
                right: other.message_bits as usize,
            });
        }
        self.ct.add_assign(&other.ct)
    }

    /// Homomorphic multiplication by a small non-negative constant.
    pub fn scalar_mul_assign(&mut self, c: u64) {
        self.ct.scalar_mul_assign(c as i64);
    }

    /// Adds a plaintext constant.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::MessageOutOfRange`] if `m >= 2^p`.
    pub fn scalar_add_assign(&mut self, m: u64) -> Result<(), TfheError> {
        check_range(m, self.message_bits)?;
        self.ct.plaintext_add_assign(m << (64 - self.message_bits - 1));
        Ok(())
    }
}

fn check_range(m: u64, message_bits: u32) -> Result<(), TfheError> {
    let bound = 1u64 << message_bits;
    if m >= bound {
        return Err(TfheError::MessageOutOfRange { message: m, bound });
    }
    Ok(())
}

impl ClientKey {
    /// Encrypts a `p`-bit message.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::MessageOutOfRange`] if `m >= 2^p`, or
    /// [`TfheError::InvalidParameters`] if `2^p` exceeds the polynomial
    /// size (no LUT could ever be built for it).
    pub fn encrypt_shortint(
        &mut self,
        m: u64,
        message_bits: u32,
    ) -> Result<ShortintCiphertext, TfheError> {
        check_range(m, message_bits)?;
        if (1usize << message_bits) > self.params().polynomial_size {
            return Err(TfheError::InvalidParameters("message space larger than polynomial size"));
        }
        let pt = m << (64 - message_bits - 1);
        Ok(ShortintCiphertext { ct: self.encrypt_torus(pt), message_bits })
    }

    /// Decrypts a `p`-bit message.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension matches neither client key.
    pub fn decrypt_shortint(&self, ct: &ShortintCiphertext) -> u64 {
        // lint:allow(panic) ciphertext was produced under this key's dimension
        let phase = self.decrypt_phase(&ct.ct).expect("shortint ciphertext dimension");
        decode_message(phase, ct.message_bits + 1)
    }
}

impl ServerKey {
    /// Applies an arbitrary univariate function via one programmable
    /// bootstrap, refreshing noise in the process. The output message
    /// is reduced mod `2^p`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch or
    /// [`TfheError::InvalidParameters`] if the message space does not
    /// fit the polynomial size.
    pub fn apply_lut<F>(
        &self,
        ct: &ShortintCiphertext,
        f: F,
    ) -> Result<ShortintCiphertext, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        let p = ct.message_bits;
        let modulus = 1u64 << p;
        let lut = Lut::from_function(self.params.polynomial_size, p, |m| f(m) % modulus)?;
        let boot = self.bsk.bootstrap(&ct.ct, &lut)?;
        let switched = self.ksk.keyswitch(&boot)?;
        Ok(ShortintCiphertext { ct: switched, message_bits: p })
    }

    /// Applies a univariate function to a whole batch of ciphertexts
    /// with one pass over the bootstrapping key
    /// ([`crate::bootstrap::BootstrapKey::bootstrap_batch`]) — the
    /// user-facing batched counterpart of [`Self::apply_lut`]. All
    /// inputs must share one precision; each may use its own function.
    /// One invalid input fails the whole call; the streaming runtime's
    /// executor drives `bootstrap_batch` directly instead, isolating
    /// per-request failures.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_lut`], for any element of the batch.
    pub fn apply_lut_batch<F>(
        &self,
        cts: &[ShortintCiphertext],
        fs: &[F],
    ) -> Result<Vec<ShortintCiphertext>, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if cts.is_empty() {
            return Ok(Vec::new());
        }
        if fs.len() != cts.len() {
            return Err(TfheError::ParameterMismatch {
                what: "batch length",
                left: cts.len(),
                right: fs.len(),
            });
        }
        let p = cts[0].message_bits;
        let modulus = 1u64 << p;
        let mut luts = Vec::with_capacity(cts.len());
        for (ct, f) in cts.iter().zip(fs) {
            if ct.message_bits != p {
                return Err(TfheError::ParameterMismatch {
                    what: "message bits",
                    left: p as usize,
                    right: ct.message_bits as usize,
                });
            }
            luts.push(Lut::from_function(self.params.polynomial_size, p, |m| f(m) % modulus)?);
        }
        let jobs: Vec<crate::bootstrap::PbsJob<'_>> = cts
            .iter()
            .zip(&luts)
            .map(|(ct, lut)| crate::bootstrap::PbsJob { ct: &ct.ct, lut })
            .collect();
        let booted = self.bsk.bootstrap_batch(&jobs, 1)?;
        booted
            .iter()
            .map(|b| Ok(ShortintCiphertext { ct: self.ksk.keyswitch(b)?, message_bits: p }))
            .collect()
    }

    /// Bootstrapped identity: refreshes noise without changing the
    /// message.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_lut`].
    pub fn refresh(&self, ct: &ShortintCiphertext) -> Result<ShortintCiphertext, TfheError> {
        self.apply_lut(ct, |m| m)
    }

    /// ReLU over the two's-complement interpretation of the message
    /// space: values in `[2^{p-1}, 2^p)` are treated as negative and
    /// clamped to zero. This is the activation the Zama Deep-NN
    /// workload evaluates with one PBS per neuron.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_lut`].
    pub fn relu(&self, ct: &ShortintCiphertext) -> Result<ShortintCiphertext, TfheError> {
        let half = 1u64 << (ct.message_bits - 1);
        self.apply_lut(ct, move |m| if m < half { m } else { 0 })
    }

    /// Applies an arbitrary *bivariate* function in a single PBS by
    /// packing both operands into one ciphertext: `a` is shifted into
    /// the high half of a `2p`-bit message (`a·2^p + b`) and a `2p`-bit
    /// LUT evaluates `f(a, b)`. The standard shortint trick.
    ///
    /// Noise caveat: the packed `2p`-bit LUT has boxes of `N/2^{2p}`
    /// coefficients; the modulus-switch noise (σ ≈ 1.7 rotation steps,
    /// independent of `N`) must fit well inside half a box, so reliable
    /// use needs `N ≳ 2^{2p+4}` — small precisions (1–3 bits) at
    /// realistic polynomial sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the operands'
    /// precisions differ, or [`TfheError::InvalidParameters`] if the
    /// packed `2p`-bit space exceeds the polynomial size.
    pub fn apply_bivariate_lut<F>(
        &self,
        a: &ShortintCiphertext,
        b: &ShortintCiphertext,
        f: F,
    ) -> Result<ShortintCiphertext, TfheError>
    where
        F: Fn(u64, u64) -> u64,
    {
        let p = a.message_bits;
        if b.message_bits != p {
            return Err(TfheError::ParameterMismatch {
                what: "message bits",
                left: p as usize,
                right: b.message_bits as usize,
            });
        }
        let packed_bits = 2 * p;
        if (1usize << packed_bits) > self.params.polynomial_size {
            return Err(TfheError::InvalidParameters("message space larger than polynomial size"));
        }
        let shift = 1u64 << p;
        let modulus = shift;
        // In the packed 2p-bit space, `a`'s existing encoding
        // a·q/2^{p+1} = (a·2^p)·q/2^{2p+1} already sits in the high
        // half. `b` must move down to b·q/2^{2p+1}, which takes one
        // re-encoding bootstrap (there is no homomorphic right-shift).
        let n = self.params.polynomial_size;
        let down_lut = Lut::from_function_scaled(n, p, 64 - packed_bits - 1, |m| m)?;
        let b_low = self.ksk.keyswitch(&self.bsk.bootstrap(&b.ct, &down_lut)?)?;
        let mut packed = a.ct.clone();
        packed.add_assign(&b_low)?;
        // The 2p-bit bivariate LUT, emitting results in the p-bit space.
        let lut = Lut::from_function_scaled(n, packed_bits, 64 - p - 1, |m| {
            let (hi, lo) = (m >> p, m & (shift - 1));
            f(hi, lo) % modulus
        })?;
        let boot = self.bsk.bootstrap(&packed, &lut)?;
        let switched = self.ksk.keyswitch(&boot)?;
        Ok(ShortintCiphertext { ct: switched, message_bits: p })
    }

    /// Homomorphic multiplication mod `2^p` via one bivariate PBS.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_bivariate_lut`].
    pub fn mul(
        &self,
        a: &ShortintCiphertext,
        b: &ShortintCiphertext,
    ) -> Result<ShortintCiphertext, TfheError> {
        self.apply_bivariate_lut(a, b, |x, y| x * y)
    }

    /// Homomorphic minimum via one bivariate PBS.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_bivariate_lut`].
    pub fn min(
        &self,
        a: &ShortintCiphertext,
        b: &ShortintCiphertext,
    ) -> Result<ShortintCiphertext, TfheError> {
        self.apply_bivariate_lut(a, b, |x, y| x.min(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keys;
    use crate::params::TfheParameters;

    const P: u32 = 3; // 3-bit messages

    fn fixture() -> (ClientKey, ServerKey) {
        generate_keys(&TfheParameters::testing_fast(), 909)
    }

    #[test]
    fn encrypt_decrypt_all_messages() {
        let (mut client, _) = fixture();
        for m in 0..8u64 {
            let ct = client.encrypt_shortint(m, P).unwrap();
            assert_eq!(client.decrypt_shortint(&ct), m);
        }
    }

    #[test]
    fn out_of_range_messages_are_rejected() {
        let (mut client, _) = fixture();
        assert!(matches!(
            client.encrypt_shortint(8, P),
            Err(TfheError::MessageOutOfRange { message: 8, bound: 8 })
        ));
        // Message space larger than N is impossible to bootstrap.
        assert!(client.encrypt_shortint(0, 9).is_err());
    }

    #[test]
    fn identity_lut_refreshes_every_message() {
        let (mut client, server) = fixture();
        for m in 0..8u64 {
            let ct = client.encrypt_shortint(m, P).unwrap();
            let refreshed = server.refresh(&ct).unwrap();
            assert_eq!(client.decrypt_shortint(&refreshed), m, "m={m}");
        }
    }

    #[test]
    fn arbitrary_lut_evaluation() {
        let (mut client, server) = fixture();
        let f = |m: u64| (m * m + 3) % 8;
        for m in 0..8u64 {
            let ct = client.encrypt_shortint(m, P).unwrap();
            let out = server.apply_lut(&ct, f).unwrap();
            assert_eq!(client.decrypt_shortint(&out), f(m), "m={m}");
        }
    }

    #[test]
    fn relu_clamps_negative_half() {
        let (mut client, server) = fixture();
        // Signed interpretation: 0..3 are positive, 4..7 are -4..-1.
        for m in 0..8u64 {
            let ct = client.encrypt_shortint(m, P).unwrap();
            let out = server.relu(&ct).unwrap();
            let expected = if m < 4 { m } else { 0 };
            assert_eq!(client.decrypt_shortint(&out), expected, "m={m}");
        }
    }

    #[test]
    fn batched_lut_matches_per_message_results() {
        let (mut client, server) = fixture();
        let cts: Vec<ShortintCiphertext> =
            (0..8u64).map(|m| client.encrypt_shortint(m, P).unwrap()).collect();
        let fs: Vec<_> = (0..8u64).map(|i| move |m: u64| (m + i) % 8).collect();
        let outs = server.apply_lut_batch(&cts, &fs).unwrap();
        for (i, out) in outs.iter().enumerate() {
            let expected = (i as u64 + i as u64) % 8;
            assert_eq!(client.decrypt_shortint(out), expected, "i={i}");
        }
        assert!(server.apply_lut_batch::<fn(u64) -> u64>(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn batched_lut_rejects_mixed_precision_and_length() {
        let (mut client, server) = fixture();
        let a = client.encrypt_shortint(1, 2).unwrap();
        let b = client.encrypt_shortint(1, 3).unwrap();
        let id = |m: u64| m;
        assert!(server.apply_lut_batch(&[a.clone(), b], &[id, id]).is_err());
        assert!(server.apply_lut_batch(&[a], &[id, id]).is_err());
    }

    #[test]
    fn homomorphic_add_and_scalar_ops() {
        let (mut client, server) = fixture();
        let mut a = client.encrypt_shortint(2, P).unwrap();
        let b = client.encrypt_shortint(1, P).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(client.decrypt_shortint(&a), 3);
        a.scalar_mul_assign(2);
        assert_eq!(client.decrypt_shortint(&a), 6);
        // Refresh keeps it decodable after the multiply.
        let refreshed = server.refresh(&a).unwrap();
        assert_eq!(client.decrypt_shortint(&refreshed), 6);
        let mut c = client.encrypt_shortint(1, P).unwrap();
        c.scalar_add_assign(4).unwrap();
        assert_eq!(client.decrypt_shortint(&c), 5);
    }

    #[test]
    fn mixed_precision_is_rejected() {
        let (mut client, _) = fixture();
        let mut a = client.encrypt_shortint(1, 2).unwrap();
        let b = client.encrypt_shortint(1, 3).unwrap();
        assert!(matches!(
            a.add_assign(&b),
            Err(TfheError::ParameterMismatch { what: "message bits", .. })
        ));
    }

    #[test]
    fn trivial_shortint() {
        let (client, server) = fixture();
        let ct = ShortintCiphertext::trivial(server.params().lwe_dimension, 5, P).unwrap();
        assert_eq!(client.decrypt_shortint(&ct), 5);
        assert!(ShortintCiphertext::trivial(10, 8, P).is_err());
    }

    #[test]
    fn bivariate_multiplication_full_table() {
        // 2-bit operands: the packed space is 4 bits ≤ log2(N) = 8.
        let (mut client, server) = fixture();
        for a in 0..4u64 {
            for b in 0..4u64 {
                let ca = client.encrypt_shortint(a, 2).unwrap();
                let cb = client.encrypt_shortint(b, 2).unwrap();
                let prod = server.mul(&ca, &cb).unwrap();
                assert_eq!(client.decrypt_shortint(&prod), (a * b) % 4, "{a}*{b}");
            }
        }
    }

    #[test]
    fn bivariate_min() {
        let (mut client, server) = fixture();
        for (a, b) in [(0u64, 3u64), (2, 1), (3, 3)] {
            let ca = client.encrypt_shortint(a, 2).unwrap();
            let cb = client.encrypt_shortint(b, 2).unwrap();
            let m = server.min(&ca, &cb).unwrap();
            assert_eq!(client.decrypt_shortint(&m), a.min(b), "min({a},{b})");
        }
    }

    #[test]
    fn bivariate_rejects_mixed_precision_and_oversized_space() {
        let (mut client, server) = fixture();
        let a = client.encrypt_shortint(1, 2).unwrap();
        let b = client.encrypt_shortint(1, 3).unwrap();
        assert!(server.mul(&a, &b).is_err());
        // 2p = 10 bits > log2(256): impossible to pack.
        let a5 = client.encrypt_shortint(1, 5).unwrap();
        let b5 = client.encrypt_shortint(1, 5).unwrap();
        assert!(matches!(server.mul(&a5, &b5), Err(TfheError::InvalidParameters(_))));
    }
}
