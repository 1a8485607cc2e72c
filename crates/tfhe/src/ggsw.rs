//! GGSW ciphertexts and the external product.
//!
//! The bootstrapping key is a vector of `n` GGSW ciphertexts, each a
//! `(k+1)·l_b × (k+1)` matrix of degree-`N−1` polynomials (§II-D). The
//! external product `GGSW(s) ⊡ GLWE(μ) ≈ GLWE(s·μ)` is the inner loop of
//! blind rotation (Algorithm 1 lines 7–10): gadget-decompose the GLWE,
//! transform the digit polynomials, multiply–accumulate against the
//! Fourier-domain key rows, and transform back.
//!
//! Production external products run inside the blocked CMUX driver of
//! [`crate::bootstrap::BootstrapKey`] (decomposer → FFT → VMA → IFFT →
//! accumulator, the Strix PBS cluster's dataflow). Two oracles check
//! it: the per-job FFT external product in [`crate::reference`], and
//! [`GgswCiphertext::external_product_exact`], an exact integer path.

use strix_fft::{NegacyclicFft, SoaSpectrum};

use crate::decompose::DecompositionParams;
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::poly::TorusPolynomial;
use crate::rng::NoiseSampler;

/// A GGSW ciphertext in the standard (time) domain: `(k+1)·l` GLWE rows.
///
/// Row `(j, lvl)` is a GLWE encryption of zero with `m · q/B^{lvl+1}`
/// added to polynomial `j` (the gadget matrix `m·G`).
#[derive(Clone, Debug)]
pub struct GgswCiphertext {
    rows: Vec<GlweCiphertext>,
    decomp: DecompositionParams,
    glwe_dimension: usize,
}

impl GgswCiphertext {
    /// Encrypts a small scalar (in blind rotation: a secret-key bit).
    pub fn encrypt_scalar(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        noise_std: f64,
        rng: &mut NoiseSampler,
    ) -> Self {
        let k = glwe_sk.dimension();
        let n = glwe_sk.poly_size();
        let zero = TorusPolynomial::zero(n);
        let mut rows = Vec::with_capacity((k + 1) * decomp.level);
        for j in 0..=k {
            for lvl in 1..=decomp.level {
                let mut row = glwe_sk.encrypt(&zero, noise_std, rng);
                let scale = decomp.gadget_scale(lvl);
                // lint:allow(panic) shape invariant established at construction
                let target = row.poly_mut(j).expect("row index within GLWE dimension");
                target[0] = target[0].wrapping_add(message.wrapping_mul(scale));
                rows.push(row);
            }
        }
        Self { rows, decomp, glwe_dimension: k }
    }

    /// Seeded encryption of a small scalar: every mask polynomial is
    /// drawn from the shared CRS stream `crs`, so only the body
    /// polynomials (one per row) have to ship — a `(k+1)×` transport
    /// compression of the bootstrapping key.
    ///
    /// The gadget term cannot be folded into a CRS mask (the receiver
    /// must regenerate masks from the seed alone), so each row instead
    /// encrypts the gadget's *phase contribution* directly: row
    /// `(j, lvl)` with `j < k` is a GLWE encryption of
    /// `−m·q/B^{lvl+1}·S_j`, and the body row `j = k` encrypts the
    /// constant `m·q/B^{lvl+1}`. Both have exactly the phase of the
    /// classical row (`encrypt_scalar` adds the gadget to polynomial
    /// `j`, which shifts the phase by the same amount), so the external
    /// product is oblivious to which generation path produced the key.
    pub(crate) fn encrypt_scalar_seeded(
        message: u64,
        glwe_sk: &GlweSecretKey,
        decomp: DecompositionParams,
        noise_std: f64,
        noise_rng: &mut NoiseSampler,
        crs: &mut NoiseSampler,
    ) -> Self {
        let k = glwe_sk.dimension();
        let n = glwe_sk.poly_size();
        let mut rows = Vec::with_capacity((k + 1) * decomp.level);
        for j in 0..=k {
            for lvl in 1..=decomp.level {
                let gadget = message.wrapping_mul(decomp.gadget_scale(lvl));
                let mut msg = TorusPolynomial::zero(n);
                if j < k {
                    let key = glwe_sk.polys()[j].coeffs();
                    for (m, &s) in msg.coeffs_mut().iter_mut().zip(key) {
                        *m = gadget.wrapping_mul(s).wrapping_neg();
                    }
                } else {
                    msg[0] = gadget;
                }
                let masks = draw_crs_masks(k, n, crs);
                rows.push(glwe_sk.encrypt_with_mask(masks, &msg, noise_std, noise_rng));
            }
        }
        Self { rows, decomp, glwe_dimension: k }
    }

    /// Expansion half of seeded transport: regenerates the CRS masks in
    /// the draw order of [`Self::encrypt_scalar_seeded`] and attaches
    /// the stored body polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` does not hold `(k+1)·l` rows (transport
    /// payload invariant).
    pub(crate) fn from_seeded_parts(
        bodies: &[TorusPolynomial],
        decomp: DecompositionParams,
        glwe_dimension: usize,
        crs: &mut NoiseSampler,
    ) -> Self {
        assert_eq!(bodies.len(), (glwe_dimension + 1) * decomp.level, "seeded ggsw row count");
        let rows = bodies
            .iter()
            .map(|body| {
                let masks = draw_crs_masks(glwe_dimension, body.size(), crs);
                GlweCiphertext::from_parts(masks, body.clone())
            })
            .collect();
        Self { rows, decomp, glwe_dimension }
    }

    /// A *trivial* (noiseless, zero-mask) GGSW encryption of `message`:
    /// rows carry only the gadget terms `m·q/B^{lvl+1}`. Useful for
    /// tests and for timing-equivalent benchmark keys — the arithmetic
    /// shape of the external product is identical to a real key's.
    pub fn trivial(
        message: u64,
        glwe_dimension: usize,
        poly_size: usize,
        decomp: DecompositionParams,
    ) -> Self {
        let mut rows = Vec::with_capacity((glwe_dimension + 1) * decomp.level);
        for j in 0..=glwe_dimension {
            for lvl in 1..=decomp.level {
                let mut row = GlweCiphertext::zero(glwe_dimension, poly_size);
                // lint:allow(panic) shape invariant established at construction
                let target = row.poly_mut(j).expect("row index within GLWE dimension");
                target[0] = message.wrapping_mul(decomp.gadget_scale(lvl));
                rows.push(row);
            }
        }
        Self { rows, decomp, glwe_dimension }
    }

    /// The GLWE rows, in `(j, lvl)` row-major order.
    #[inline]
    pub fn rows(&self) -> &[GlweCiphertext] {
        &self.rows
    }

    /// Decomposition parameters used by the gadget.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Exact (FFT-free) external product, the test oracle:
    /// `self ⊡ glwe ≈ GLWE(m · phase(glwe))`.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch (oracle-only code path).
    pub fn external_product_exact(&self, glwe: &GlweCiphertext) -> GlweCiphertext {
        let k = self.glwe_dimension;
        assert_eq!(glwe.dimension(), k, "glwe dimension mismatch");
        let n = glwe.poly_size();
        let mut acc = GlweCiphertext::zero(k, n);
        let mut row_idx = 0;
        for poly in glwe.polys() {
            let levels = self.decomp.decompose_polynomial(poly);
            for digits in levels.iter() {
                let row = &self.rows[row_idx];
                for col in 0..=k {
                    let row_poly = if col < k { &row.masks()[col] } else { row.body() };
                    let prod =
                        strix_fft::reference::negacyclic_mul_torus(digits, row_poly.coeffs());
                    // lint:allow(panic) shape invariant established at construction
                    let out = acc.poly_mut(col).expect("column within GLWE dimension");
                    for (o, p) in out.coeffs_mut().iter_mut().zip(&prod) {
                        *o = o.wrapping_add(*p);
                    }
                }
                row_idx += 1;
            }
        }
        acc
    }

    /// Converts to the Fourier domain for use in blind rotation: all
    /// `(k+1)·l · (k+1)` polynomials go through one batched transform.
    /// Each torus coefficient enters as its signed representative
    /// ([`crate::torus::torus_to_f64_signed`], i.e. `c as i64`). The
    /// resulting spectra are in `fft`'s digit-reversed slot order —
    /// globally consistent with every other spectrum produced under
    /// the same plan, which is the only way they are ever consumed —
    /// and are stored **split** (structure-of-arrays): one real plane
    /// and one imaginary plane per `(row, column)` polynomial, the
    /// layout the SIMD-friendly VMA kernels stream.
    ///
    /// # Panics
    ///
    /// Panics if `fft.poly_size()` differs from the ciphertext's.
    pub fn to_fourier(&self, fft: &NegacyclicFft) -> FourierGgsw {
        let k = self.glwe_dimension;
        // Row-major, then column: polynomial `(r, col)` is transform
        // `r·(k+1) + col`.
        let signed: Vec<i64> = self
            .rows
            .iter()
            .flat_map(GlweCiphertext::polys)
            .flat_map(|poly| poly.coeffs().iter().map(|&c| c as i64))
            .collect();
        let mut spectra = SoaSpectrum::new(self.rows.len() * (k + 1), fft.fourier_size());
        fft.forward_i64_many(&signed, &mut spectra)
            // lint:allow(panic) shape invariant established at construction
            .expect("ggsw polynomial size must match the fft plan");
        FourierGgsw { spectra, decomp: self.decomp, glwe_dimension: k }
    }
}

/// Draws `k` uniform mask polynomials from a CRS stream — the shared
/// mask schedule of seeded generation and expansion.
fn draw_crs_masks(k: usize, n: usize, crs: &mut NoiseSampler) -> Vec<TorusPolynomial> {
    (0..k)
        .map(|_| {
            let mut m = TorusPolynomial::zero(n);
            crs.fill_uniform(m.coeffs_mut());
            m
        })
        .collect()
}

/// A GGSW ciphertext with every polynomial stored in the Fourier domain
/// (`N/2` complex points per polynomial) — the format in which Strix
/// streams bootstrapping keys from HBM, and in which Concrete stores
/// them in memory.
///
/// Spectra follow the transform plan's **bit-reversed (digit-reversed)
/// slot order**: [`GgswCiphertext::to_fourier`] produces them under
/// the same [`NegacyclicFft`] plan that later transforms the
/// decomposed digits, so the VMA's pointwise multiply lines up slot
/// for slot and no spectrum is ever reordered. A `FourierGgsw` is only
/// meaningful together with the plan that created it.
///
/// Storage is **split-complex** ([`SoaSpectrum`]): all `(k+1)·l·(k+1)`
/// polynomials live in two contiguous `f64` planes (real, imaginary),
/// row-major then column. This is the layout the blocked CMUX's
/// four-array VMA streams directly, and the reference CMUX
/// ([`crate::reference`]) reads the same planes.
#[derive(Clone, Debug)]
pub struct FourierGgsw {
    /// Transform `row·(k+1) + col` holds the spectrum of row `row`
    /// (row-major `(j, lvl)` order), column `col`.
    spectra: SoaSpectrum,
    decomp: DecompositionParams,
    glwe_dimension: usize,
}

impl FourierGgsw {
    /// Decomposition parameters used by the gadget.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Number of GLWE rows (`(k+1)·l`).
    #[inline]
    pub fn row_count(&self) -> usize {
        self.spectra.count() / (self.glwe_dimension + 1)
    }

    /// The split `(re, im)` planes of the `(row, col)` polynomial's
    /// spectrum — the unit of key streaming in the CMUX VMA loops.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of range.
    #[inline]
    pub(crate) fn row_col(&self, row: usize, col: usize) -> (&[f64], &[f64]) {
        assert!(col <= self.glwe_dimension, "ggsw column out of range");
        self.spectra.transform(row * (self.glwe_dimension + 1) + col)
    }

    /// The full split-complex batch of this entry's spectra
    /// (`(k+1)·l·(k+1)` transforms, row-major then column) — the unit
    /// the multi-bit kernel streams when it MACs whole pattern entries
    /// into a combined GGSW.
    #[inline]
    pub fn spectra(&self) -> &SoaSpectrum {
        &self.spectra
    }

    /// Number of bytes this key entry occupies (the per-iteration HBM
    /// traffic of one blind-rotation step).
    pub fn byte_size(&self) -> usize {
        self.spectra.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{PbsStage, StageTimings};
    use crate::reference::{
        external_product, external_product_profiled, external_product_scratch,
        ExternalProductScratch,
    };
    use crate::torus::{decode_message, encode_fraction};

    const STD: f64 = 1.0e-12;

    struct Fixture {
        glwe_sk: GlweSecretKey,
        rng: NoiseSampler,
        fft: NegacyclicFft,
        decomp: DecompositionParams,
        k: usize,
        n: usize,
    }

    fn fixture(k: usize, n: usize) -> Fixture {
        let mut rng = NoiseSampler::from_seed(99);
        let glwe_sk = GlweSecretKey::generate(k, n, &mut rng);
        let fft = NegacyclicFft::new(n).unwrap();
        let decomp = DecompositionParams::new(10, 3);
        Fixture { glwe_sk, rng, fft, decomp, k, n }
    }

    fn test_message(n: usize) -> TorusPolynomial {
        TorusPolynomial::from_coeffs((0..n).map(|j| encode_fraction((j % 8) as i64, 4)).collect())
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let fourier = ggsw.to_fourier(&fx.fft);
        let prod = external_product(&fourier, &ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert_eq!(decode_message(*p, 4), decode_message(*m, 4));
        }
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(0, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let fourier = ggsw.to_fourier(&fx.fft);
        let prod = external_product(&fourier, &ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for p in phase.coeffs() {
            assert_eq!(decode_message(*p, 4), 0);
        }
    }

    #[test]
    fn fourier_path_matches_exact_path() {
        let mut fx = fixture(2, 32);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let exact = ggsw.external_product_exact(&ct);
        let fourier = external_product(&ggsw.to_fourier(&fx.fft), &ct, &fx.fft);
        // The two paths agree up to FFT rounding noise, far below the
        // decoding threshold used here.
        let pe = fx.glwe_sk.decrypt_phase(&exact).unwrap();
        let pf = fx.glwe_sk.decrypt_phase(&fourier).unwrap();
        for (a, b) in pe.coeffs().iter().zip(pf.coeffs()) {
            assert_eq!(decode_message(*a, 4), decode_message(*b, 4));
        }
    }

    #[test]
    fn seeded_ggsw_matches_classical_semantics() {
        // A seeded GGSW row encrypts the gadget's phase contribution
        // instead of folding the gadget into a mask; the external
        // product must be unable to tell the difference.
        for (k, n) in [(1usize, 64usize), (2, 32)] {
            let mut fx = fixture(k, n);
            for message in [0u64, 1] {
                let mut crs = NoiseSampler::from_seed(4242);
                let ggsw = GgswCiphertext::encrypt_scalar_seeded(
                    message,
                    &fx.glwe_sk,
                    fx.decomp,
                    STD,
                    &mut fx.rng,
                    &mut crs,
                );
                let msg = test_message(fx.n);
                let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
                let prod = ggsw.external_product_exact(&ct);
                let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
                for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
                    let want = if message == 1 { decode_message(*m, 4) } else { 0 };
                    assert_eq!(decode_message(*p, 4), want, "k={k} n={n} m={message}");
                }
            }
        }
    }

    #[test]
    fn seeded_ggsw_expansion_is_bit_identical() {
        let mut fx = fixture(2, 32);
        let mut crs = NoiseSampler::from_seed(7);
        let ggsw = GgswCiphertext::encrypt_scalar_seeded(
            1,
            &fx.glwe_sk,
            fx.decomp,
            STD,
            &mut fx.rng,
            &mut crs,
        );
        // Transport payload: the bodies only.
        let bodies: Vec<TorusPolynomial> = ggsw.rows().iter().map(|r| r.body().clone()).collect();
        let mut crs2 = NoiseSampler::from_seed(7);
        let expanded = GgswCiphertext::from_seeded_parts(&bodies, fx.decomp, 2, &mut crs2);
        assert_eq!(expanded.rows(), ggsw.rows());
    }

    #[test]
    fn external_product_is_linear_in_the_glwe() {
        // GGSW(1) ⊡ (c1 + c2) ≈ GGSW(1)⊡c1 + GGSW(1)⊡c2 (up to noise).
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng)
            .to_fourier(&fx.fft);
        let m1 = TorusPolynomial::constant(fx.n, encode_fraction(1, 4));
        let m2 = TorusPolynomial::constant(fx.n, encode_fraction(2, 4));
        let c1 = fx.glwe_sk.encrypt(&m1, STD, &mut fx.rng);
        let c2 = fx.glwe_sk.encrypt(&m2, STD, &mut fx.rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2).unwrap();
        let p_sum = external_product(&ggsw, &sum, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&p_sum).unwrap();
        assert_eq!(decode_message(phase[0], 4), 3);
    }

    #[test]
    fn ggsw_row_count_and_fourier_size() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng);
        assert_eq!(ggsw.rows().len(), (fx.k + 1) * fx.decomp.level);
        let fourier = ggsw.to_fourier(&fx.fft);
        // (k+1)l rows × (k+1) cols × N/2 points × 16 bytes
        assert_eq!(
            fourier.byte_size(),
            (fx.k + 1) * fx.decomp.level * (fx.k + 1) * (fx.n / 2) * 16
        );
    }

    #[test]
    fn trivial_ggsw_acts_like_noiseless_encryption() {
        // Trivial GGSW(1) ⊡ ct must preserve the message exactly like
        // an encrypted GGSW(1), with zero key noise.
        let mut fx = fixture(1, 64);
        let trivial = GgswCiphertext::trivial(1, 1, 64, fx.decomp).to_fourier(&fx.fft);
        let msg = test_message(fx.n);
        let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
        let prod = external_product(&trivial, &ct, &fx.fft);
        let phase = fx.glwe_sk.decrypt_phase(&prod).unwrap();
        for (p, m) in phase.coeffs().iter().zip(msg.coeffs()) {
            assert_eq!(decode_message(*p, 4), decode_message(*m, 4));
        }
    }

    #[test]
    fn scratch_product_is_bit_identical_to_allocating_product() {
        // The scratch path must be *bit*-identical, not just decode to
        // the same message: parallel epochs rely on it.
        for (k, n) in [(1usize, 64usize), (2, 32)] {
            let mut fx = fixture(k, n);
            let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng)
                .to_fourier(&fx.fft);
            let mut scratch = ExternalProductScratch::new(k, n, fx.decomp);
            let mut out = GlweCiphertext::zero(k, n);
            for trial in 0..3 {
                let msg = test_message(fx.n);
                let ct = fx.glwe_sk.encrypt(&msg, STD, &mut fx.rng);
                let alloc = external_product(&ggsw, &ct, &fx.fft);
                // Same scratch reused across trials: stale state must
                // not leak into the result.
                external_product_scratch(&ggsw, &ct, &fx.fft, &mut out, &mut scratch);
                assert_eq!(out, alloc, "k={k} n={n} trial={trial}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch glwe dimension mismatch")]
    fn scratch_product_rejects_wrong_scratch_shape() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng)
            .to_fourier(&fx.fft);
        let ct = fx.glwe_sk.encrypt(&test_message(fx.n), STD, &mut fx.rng);
        let mut out = GlweCiphertext::zero(1, 64);
        let mut wrong = ExternalProductScratch::new(2, 64, fx.decomp);
        external_product_scratch(&ggsw, &ct, &fx.fft, &mut out, &mut wrong);
    }

    #[test]
    fn profiled_product_records_all_stages() {
        let mut fx = fixture(1, 64);
        let ggsw = GgswCiphertext::encrypt_scalar(1, &fx.glwe_sk, fx.decomp, STD, &mut fx.rng)
            .to_fourier(&fx.fft);
        let ct = fx.glwe_sk.encrypt(&test_message(fx.n), STD, &mut fx.rng);
        let mut t = StageTimings::default();
        let _ = external_product_profiled(&ggsw, &ct, &fx.fft, &mut t);
        for stage in
            [PbsStage::Decompose, PbsStage::Fft, PbsStage::VectorMultiply, PbsStage::IfftAccumulate]
        {
            assert!(t.total_for(stage) > std::time::Duration::ZERO, "{stage:?}");
        }
    }
}
