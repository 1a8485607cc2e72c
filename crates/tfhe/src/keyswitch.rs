//! Keyswitching (Algorithm 2).
//!
//! After PBS the ciphertext lives under the extracted key of dimension
//! `k·N`. Keyswitching converts it back to the original `n`-dimension
//! key: each mask element is gadget-decomposed and the digits are
//! multiplied against the keyswitching key — a `k·N·l_k × (n+1)`
//! matrix–vector product over scalars, which is why the Strix keyswitch
//! cluster needs only the decomposer, VMA and accumulator units.

use crate::decompose::DecompositionParams;
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParameters;
use crate::profiler::{PbsStage, StageTimings};
use crate::rng::NoiseSampler;
use crate::TfheError;

/// The keyswitching key: for every input-key bit `s'_j` and level
/// `lvl`, an LWE encryption of `s'_j · q/B_ks^{lvl+1}` under the output
/// key.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    /// `rows[j * l_k + lvl]`.
    rows: Vec<LweCiphertext>,
    decomp: DecompositionParams,
    input_dimension: usize,
    output_dimension: usize,
}

impl KeySwitchKey {
    /// Generates a keyswitching key from `from_key` (dimension `k·N`)
    /// to `to_key` (dimension `n`).
    pub fn generate(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &TfheParameters,
        rng: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.ks_base_log, params.ks_level);
        let mut rows = Vec::with_capacity(from_key.dimension() * decomp.level);
        for &bit in from_key.bits() {
            for lvl in 1..=decomp.level {
                let pt = bit.wrapping_mul(decomp.gadget_scale(lvl));
                rows.push(to_key.encrypt(pt, params.lwe_noise_std, rng));
            }
        }
        Self {
            rows,
            decomp,
            input_dimension: from_key.dimension(),
            output_dimension: to_key.dimension(),
        }
    }

    /// Seeded generation: masks come from the shared CRS stream `crs`,
    /// so transport only ships one body element per row — an `(n+1)×`
    /// compression of the keyswitching key.
    pub fn generate_seeded(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &TfheParameters,
        noise_rng: &mut NoiseSampler,
        crs: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.ks_base_log, params.ks_level);
        let n = to_key.dimension();
        let mut rows = Vec::with_capacity(from_key.dimension() * decomp.level);
        for &bit in from_key.bits() {
            for lvl in 1..=decomp.level {
                let pt = bit.wrapping_mul(decomp.gadget_scale(lvl));
                let mut mask = vec![0u64; n];
                crs.fill_uniform(&mut mask);
                rows.push(to_key.encrypt_with_mask(mask, pt, params.lwe_noise_std, noise_rng));
            }
        }
        Self {
            rows,
            decomp,
            input_dimension: from_key.dimension(),
            output_dimension: to_key.dimension(),
        }
    }

    /// Expansion half of seeded transport: regenerates the CRS masks in
    /// the draw order of [`Self::generate_seeded`] and attaches the
    /// stored body elements.
    ///
    /// # Panics
    ///
    /// Panics if the body count is not `input_dimension · l_k`
    /// (transport payload invariant).
    pub(crate) fn from_seeded_parts(
        bodies: &[u64],
        params: &TfheParameters,
        input_dimension: usize,
        output_dimension: usize,
        crs: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.ks_base_log, params.ks_level);
        assert_eq!(bodies.len(), input_dimension * decomp.level, "seeded ksk row count");
        let rows = bodies
            .iter()
            .map(|&body| {
                let mut data = vec![0u64; output_dimension + 1];
                crs.fill_uniform(&mut data[..output_dimension]);
                data[output_dimension] = body;
                LweCiphertext::from_raw(data)
            })
            .collect();
        Self { rows, decomp, input_dimension, output_dimension }
    }

    /// The transport payload of a seeded key: one body element per row.
    pub(crate) fn bodies(&self) -> Vec<u64> {
        self.rows.iter().map(|r| r.body()).collect()
    }

    /// Input dimension (`k·N`).
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output dimension (`n`).
    #[inline]
    pub fn output_dimension(&self) -> usize {
        self.output_dimension
    }

    /// The decomposition used on input mask elements.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Key size in bytes (`k·N·l_k` ciphertexts of `n+1` words).
    pub fn byte_size(&self) -> usize {
        self.rows.len() * (self.output_dimension + 1) * 8
    }

    /// Switches `ct` (dimension `k·N`) to the output key (dimension `n`).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if `ct`'s dimension is
    /// not the key's input dimension.
    pub fn keyswitch(&self, ct: &LweCiphertext) -> Result<LweCiphertext, TfheError> {
        self.keyswitch_impl(ct, None, &mut vec![0i64; self.decomp.level])
    }

    /// Switches a whole batch, reusing one digit buffer across every
    /// ciphertext — the batched counterpart the runtime executor pairs
    /// with [`crate::bootstrap::BootstrapKey::bootstrap_batch`] when an
    /// epoch's PBS outputs all return to the original key. Outputs are
    /// in input order. Accepts owned or borrowed inputs
    /// (`&[LweCiphertext]` or `&[&LweCiphertext]`), so callers holding
    /// ciphertexts inside request structures can batch without cloning.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any input's
    /// dimension is not the key's input dimension.
    pub fn keyswitch_batch<C: AsRef<LweCiphertext>>(
        &self,
        cts: &[C],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let mut digits = vec![0i64; self.decomp.level];
        cts.iter().map(|ct| self.keyswitch_impl(ct.as_ref(), None, &mut digits)).collect()
    }

    /// Parallel batched keyswitch: splits `cts` into `threads`
    /// contiguous shards and runs each through
    /// [`Self::keyswitch_batch`] on its own [`std::thread::scope`]
    /// worker (one digit buffer per shard), all sharing this key. The
    /// Algorithm-2 tail of an epoch thereby scales with the same
    /// thread budget as the blind rotation
    /// ([`crate::bootstrap::BootstrapKey::bootstrap_batch`]).
    ///
    /// Results come back **in input order** and are **bit-identical**
    /// to the sequential path — each keyswitch depends only on its own
    /// ciphertext, so sharding cannot change a single operation.
    ///
    /// `threads` is clamped to `[1, cts.len()]`; `threads <= 1` runs
    /// sequentially on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any input's
    /// dimension is not the key's input dimension (validated up front,
    /// before any thread is spawned).
    pub fn keyswitch_batch_parallel<C: AsRef<LweCiphertext> + Sync>(
        &self,
        cts: &[C],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for ct in cts {
            let ct = ct.as_ref();
            if ct.dimension() != self.input_dimension {
                return Err(TfheError::ParameterMismatch {
                    what: "lwe dimension",
                    left: ct.dimension(),
                    right: self.input_dimension,
                });
            }
        }
        let threads = threads.max(1).min(cts.len());
        if threads <= 1 {
            return self.keyswitch_batch(cts);
        }
        // Balanced contiguous shards, mirroring the PBS sharding: the
        // first `cts % threads` shards take one extra ciphertext, and
        // contiguity preserves input order across the concatenation.
        let base = cts.len() / threads;
        let extra = cts.len() % threads;
        let shards: Vec<Result<Vec<LweCiphertext>, TfheError>> = std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let len = base + usize::from(i < extra);
                    let shard = &cts[start..start + len];
                    start += len;
                    scope.spawn(move || self.keyswitch_batch(shard))
                })
                .collect();
            handles
                .into_iter()
                // lint:allow(panic) a worker panic is propagated, not swallowed
                .map(|h| h.join().expect("keyswitch shard worker panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(cts.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }

    /// Profiled variant of [`Self::keyswitch`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch.
    pub fn keyswitch_profiled(
        &self,
        ct: &LweCiphertext,
        timings: &mut StageTimings,
    ) -> Result<LweCiphertext, TfheError> {
        self.keyswitch_impl(ct, Some(timings), &mut vec![0i64; self.decomp.level])
    }

    fn keyswitch_impl(
        &self,
        ct: &LweCiphertext,
        timings: Option<&mut StageTimings>,
        digits: &mut [i64],
    ) -> Result<LweCiphertext, TfheError> {
        if ct.dimension() != self.input_dimension {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.dimension(),
                right: self.input_dimension,
            });
        }
        let t0 = std::time::Instant::now();
        // Hoisted out of the k·N-element mask loop: the decomposition's
        // shift/mask constants (one `Decomposer` for the whole
        // ciphertext — and, via `keyswitch_batch`, the whole batch)
        // and the level stride into the key rows. The digit buffer is
        // caller-provided and fully overwritten per element, so it is
        // never re-zeroed.
        let decomposer = self.decomp.decomposer();
        let level = self.decomp.level;
        // o = (0, …, 0, b) − Σ_j Σ_lvl d_{j,lvl} · ksk[j][lvl]
        let mut out = LweCiphertext::trivial(self.output_dimension, ct.body());
        for (rows_j, &a) in self.rows.chunks_exact(level).zip(ct.mask()) {
            decomposer.decompose_into(a, digits);
            for (&d, row) in digits.iter().zip(rows_j) {
                if d == 0 {
                    continue;
                }
                // Fused multiply-subtract over the row (the keyswitch
                // cluster's VMA lane).
                let d = d as u64;
                for (o, &r) in out.raw_mut().iter_mut().zip(row.as_raw().iter()) {
                    *o = o.wrapping_sub(d.wrapping_mul(r));
                }
            }
        }
        if let Some(t) = timings {
            t.add(PbsStage::KeySwitch, t0.elapsed());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{decode_message, encode_fraction};

    fn fixture() -> (LweSecretKey, LweSecretKey, KeySwitchKey, NoiseSampler, TfheParameters) {
        let mut params = TfheParameters::testing_fast();
        params.ks_base_log = 4;
        params.ks_level = 8;
        let mut rng = NoiseSampler::from_seed(31337);
        let big = LweSecretKey::generate(256, &mut rng);
        let small = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let ksk = KeySwitchKey::generate(&big, &small, &params, &mut rng);
        (big, small, ksk, rng, params)
    }

    #[test]
    fn keyswitch_preserves_message() {
        let (big, small, ksk, mut rng, params) = fixture();
        for m in 0..8u64 {
            let pt = encode_fraction(m as i64, 3);
            let ct = big.encrypt(pt, params.lwe_noise_std, &mut rng);
            let switched = ksk.keyswitch(&ct).unwrap();
            assert_eq!(switched.dimension(), small.dimension());
            let phase = small.decrypt_phase(&switched).unwrap();
            assert_eq!(decode_message(phase, 3), m, "m={m}");
        }
    }

    #[test]
    fn keyswitch_is_linear() {
        let (big, small, ksk, mut rng, params) = fixture();
        let c1 = big.encrypt(encode_fraction(1, 3), params.lwe_noise_std, &mut rng);
        let c2 = big.encrypt(encode_fraction(2, 3), params.lwe_noise_std, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2).unwrap();
        let switched_sum = ksk.keyswitch(&sum).unwrap();
        let phase = small.decrypt_phase(&switched_sum).unwrap();
        assert_eq!(decode_message(phase, 3), 3);
    }

    #[test]
    fn batched_keyswitch_matches_single_per_input() {
        let (big, _, ksk, mut rng, params) = fixture();
        let cts: Vec<LweCiphertext> = (0..5i64)
            .map(|m| big.encrypt(encode_fraction(m, 3), params.lwe_noise_std, &mut rng))
            .collect();
        let batched = ksk.keyswitch_batch(&cts).unwrap();
        for (ct, out) in cts.iter().zip(&batched) {
            assert_eq!(out, &ksk.keyswitch(ct).unwrap());
        }
        assert!(ksk.keyswitch_batch(&[] as &[LweCiphertext]).unwrap().is_empty());
        let bad = LweCiphertext::trivial(3, 0);
        assert!(ksk.keyswitch_batch(&[bad]).is_err());
    }

    #[test]
    fn parallel_keyswitch_is_bit_identical_to_sequential() {
        let (big, _, ksk, mut rng, params) = fixture();
        // 7 inputs: does not divide evenly by 2..6 threads.
        let cts: Vec<LweCiphertext> = (0..7i64)
            .map(|m| big.encrypt(encode_fraction(m % 8, 3), params.lwe_noise_std, &mut rng))
            .collect();
        let sequential = ksk.keyswitch_batch(&cts).unwrap();
        for threads in 1..=8 {
            let parallel = ksk.keyswitch_batch_parallel(&cts, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Degenerate thread counts are clamped, not errors.
        assert_eq!(ksk.keyswitch_batch_parallel(&cts, 0).unwrap(), sequential);
        assert_eq!(ksk.keyswitch_batch_parallel(&cts, 100).unwrap(), sequential);
        assert!(ksk.keyswitch_batch_parallel(&[] as &[LweCiphertext], 4).unwrap().is_empty());
        // Borrowed inputs batch without cloning and agree with owned.
        let refs: Vec<&LweCiphertext> = cts.iter().collect();
        assert_eq!(ksk.keyswitch_batch_parallel(&refs, 3).unwrap(), sequential);
    }

    #[test]
    fn parallel_keyswitch_rejects_mismatch_before_spawning() {
        let (big, _, ksk, mut rng, params) = fixture();
        let good = big.encrypt(0, params.lwe_noise_std, &mut rng);
        let bad = LweCiphertext::trivial(3, 0);
        assert!(ksk.keyswitch_batch_parallel(&[good, bad], 2).is_err());
    }

    #[test]
    fn dimensions_and_size() {
        let (_, _, ksk, _, params) = fixture();
        assert_eq!(ksk.input_dimension(), 256);
        assert_eq!(ksk.output_dimension(), params.lwe_dimension);
        assert_eq!(ksk.byte_size(), 256 * params.ks_level * (params.lwe_dimension + 1) * 8);
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let (_, _, ksk, _, _) = fixture();
        let ct = LweCiphertext::trivial(100, 0);
        assert!(matches!(
            ksk.keyswitch(&ct),
            Err(TfheError::ParameterMismatch { what: "lwe dimension", .. })
        ));
    }

    #[test]
    fn trivial_input_switches_exactly() {
        // A trivial ciphertext has zero mask: keyswitching must return
        // the body untouched (no decomposition work at all).
        let (_, small, ksk, _, _) = fixture();
        let pt = encode_fraction(5, 3);
        let ct = LweCiphertext::trivial(256, pt);
        let switched = ksk.keyswitch(&ct).unwrap();
        assert_eq!(small.decrypt_phase(&switched).unwrap(), pt);
    }

    #[test]
    fn profiled_keyswitch_records_time() {
        let (big, _, ksk, mut rng, params) = fixture();
        let ct = big.encrypt(0, params.lwe_noise_std, &mut rng);
        let mut t = StageTimings::new();
        let _ = ksk.keyswitch_profiled(&ct, &mut t).unwrap();
        assert!(t.total_for(PbsStage::KeySwitch) > std::time::Duration::ZERO);
    }
}
