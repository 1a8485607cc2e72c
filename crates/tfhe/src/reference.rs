//! The per-job CMUX oracle.
//!
//! Production blind rotation runs in the blocked, job-batched driver of
//! [`BootstrapKey`]. This module keeps the textbook schedule it is
//! pinned against: one job at a time, one CMUX per secret bit, each
//! CMUX one FFT external product (decompose → forward transform → VMA
//! → inverse transform). Per job, the driver performs exactly this
//! arithmetic in exactly this order, so the two agree **bit for bit**;
//! the `soa_cmux` suite holds them to that. It mirrors
//! `strix_fft::reference`: simple code that is easy to trust, used by
//! tests and by [`crate::unrolled`], never on the production path.

use strix_fft::{NegacyclicFft, SoaSpectrum};

use crate::bootstrap::{BootstrapKey, Lut};
use crate::decompose::DecompositionParams;
use crate::ggsw::FourierGgsw;
use crate::glwe::GlweCiphertext;
use crate::lwe::LweCiphertext;
use crate::params::PbsKernel;
use crate::profiler::{NoProbe, PbsStage, Probe, StageTimings, TimingProbe};
use crate::torus::{f64_to_torus, modulus_switch};
use crate::TfheError;

/// Working memory for one FFT external product (decompose → FFT → VMA
/// → IFFT), reusable across products of the same shape.
#[derive(Clone, Debug)]
pub struct ExternalProductScratch {
    /// Lane-parallel decomposition state (`N` extraction words).
    decomp_state: Vec<u64>,
    /// One polynomial's level-major digits (`l · N`).
    digit_levels: Vec<i64>,
    /// Spectra of those digits (`l` transforms of `N/2` points).
    digit_spec: SoaSpectrum,
    /// Accumulator spectra, one per output column (`k+1` transforms).
    fourier_acc: SoaSpectrum,
    /// Inverse-transform output (`(k+1) · N` reals).
    time_domain: Vec<f64>,
    glwe_dimension: usize,
}

impl ExternalProductScratch {
    /// Allocates scratch for external products of shape `(k, N, l)`.
    pub fn new(glwe_dimension: usize, poly_size: usize, decomp: DecompositionParams) -> Self {
        let half = poly_size / 2;
        let cols = glwe_dimension + 1;
        Self {
            decomp_state: vec![0u64; poly_size],
            digit_levels: vec![0i64; decomp.level * poly_size],
            digit_spec: SoaSpectrum::new(decomp.level, half),
            fourier_acc: SoaSpectrum::new(cols, half),
            time_domain: vec![0.0f64; cols * poly_size],
            glwe_dimension,
        }
    }

    /// Asserts this scratch matches the `(k, N, l)` shape of the
    /// product about to use it.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch.
    fn check_shape(&self, glwe_dimension: usize, poly_size: usize, level: usize) {
        assert_eq!(self.glwe_dimension, glwe_dimension, "scratch glwe dimension mismatch");
        assert_eq!(self.decomp_state.len(), poly_size, "scratch polynomial size mismatch");
        assert_eq!(self.digit_spec.count(), level, "scratch decomposition level mismatch");
    }
}

/// External product via the FFT: `ggsw ⊡ glwe ≈ GLWE(m · phase(glwe))`.
///
/// # Panics
///
/// Panics if `ggsw`, `glwe` and `fft` disagree in shape.
pub fn external_product(
    ggsw: &FourierGgsw,
    glwe: &GlweCiphertext,
    fft: &NegacyclicFft,
) -> GlweCiphertext {
    let mut scratch =
        ExternalProductScratch::new(glwe.dimension(), glwe.poly_size(), ggsw.decomposition());
    let mut out = GlweCiphertext::zero(glwe.dimension(), glwe.poly_size());
    external_product_probed(ggsw, glwe, fft, &mut out, &mut scratch, &mut NoProbe);
    out
}

/// As [`external_product`], writing into `out` with caller-provided
/// scratch — bit-identical, and allocation-free.
///
/// # Panics
///
/// Panics if `glwe`, `out`, `fft` or `scratch` disagree with the key's
/// shape.
pub fn external_product_scratch(
    ggsw: &FourierGgsw,
    glwe: &GlweCiphertext,
    fft: &NegacyclicFft,
    out: &mut GlweCiphertext,
    scratch: &mut ExternalProductScratch,
) {
    external_product_probed(ggsw, glwe, fft, out, scratch, &mut NoProbe);
}

/// As [`external_product`], with per-stage timing instrumentation.
///
/// # Panics
///
/// Panics if shapes mismatch.
pub fn external_product_profiled(
    ggsw: &FourierGgsw,
    glwe: &GlweCiphertext,
    fft: &NegacyclicFft,
    timings: &mut StageTimings,
) -> GlweCiphertext {
    let mut scratch =
        ExternalProductScratch::new(glwe.dimension(), glwe.poly_size(), ggsw.decomposition());
    let mut out = GlweCiphertext::zero(glwe.dimension(), glwe.poly_size());
    external_product_probed(ggsw, glwe, fft, &mut out, &mut scratch, &mut TimingProbe(timings));
    out
}

/// The single implementation behind every external-product entry point,
/// generic over a [`Probe`].
fn external_product_probed<P: Probe>(
    ggsw: &FourierGgsw,
    glwe: &GlweCiphertext,
    fft: &NegacyclicFft,
    out: &mut GlweCiphertext,
    scratch: &mut ExternalProductScratch,
    probe: &mut P,
) {
    let k = glwe.dimension();
    let n = glwe.poly_size();
    assert_eq!(out.dimension(), k, "output glwe dimension mismatch");
    assert_eq!(out.poly_size(), n, "output polynomial size mismatch");
    assert_eq!(fft.poly_size(), n, "fft plan size mismatch");
    let decomp = ggsw.decomposition();
    scratch.check_shape(k, n, decomp.level);
    let ExternalProductScratch {
        decomp_state,
        digit_levels,
        digit_spec,
        fourier_acc,
        time_domain,
        ..
    } = scratch;

    fourier_acc.fill_zero();
    for (j, poly) in glwe.polys().enumerate() {
        probe.time(PbsStage::Decompose, || {
            decomp.decompose_polynomial_levels(poly, digit_levels, decomp_state);
        });
        probe.time(PbsStage::Fft, || {
            fft.forward_i64_many(digit_levels, digit_spec)
                // lint:allow(panic) shapes are asserted above
                .expect("digit levels match the fft plan");
        });
        probe.time(PbsStage::VectorMultiply, || {
            for lvl in 0..decomp.level {
                let (d_re, d_im) = digit_spec.transform(lvl);
                for col in 0..=k {
                    let (k_re, k_im) = ggsw.row_col(j * decomp.level + lvl, col);
                    let (a_re, a_im) = fourier_acc.transform_mut(col);
                    fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                }
            }
        });
    }

    probe.time(PbsStage::IfftAccumulate, || {
        fft.backward_f64_many(fourier_acc, time_domain)
            // lint:allow(panic) shapes are asserted above
            .expect("accumulator matches the fft plan");
        for (col, time) in time_domain.chunks_exact(n).enumerate() {
            // lint:allow(panic) shapes are asserted above
            let poly = out.poly_mut(col).expect("column within GLWE dimension");
            for (o, &v) in poly.coeffs_mut().iter_mut().zip(time) {
                *o = f64_to_torus(v);
            }
        }
    });
}

/// Per-job blind rotation (Algorithm 1 lines 2–12) of `ct` over a
/// classical key: `n` sequential CMUXes
/// `acc ← acc + bsk_i ⊡ (X^{ã_i}·acc − acc)`, each a full
/// [`external_product`], skipping the identity steps `ã_i = 0`.
///
/// # Errors
///
/// Returns [`TfheError::ParameterMismatch`] if the ciphertext or LUT
/// does not match the key.
///
/// # Panics
///
/// Panics if `key` is not a classical key.
pub fn blind_rotate(
    key: &BootstrapKey,
    ct: &LweCiphertext,
    lut: &Lut,
) -> Result<GlweCiphertext, TfheError> {
    assert_eq!(key.kernel(), PbsKernel::Classical, "the CMUX oracle needs a classical key");
    key.check_shape(ct, lut)?;
    let poly_size = key.poly_size();
    // The extracted output dimension is k·N.
    let k = key.output_dimension() / poly_size;
    let log2_two_n = poly_size.trailing_zeros() + 1;
    let b_tilde = modulus_switch(ct.body(), log2_two_n) as usize;
    let mut acc = GlweCiphertext::trivial(k, lut.poly().rotate_left(b_tilde));
    let mut scratch = ExternalProductScratch::new(k, poly_size, key.decomposition());
    let mut diff = GlweCiphertext::zero(k, poly_size);
    let mut prod = GlweCiphertext::zero(k, poly_size);
    for (ggsw, &a) in key.entries().zip(ct.mask()) {
        let a_tilde = modulus_switch(a, log2_two_n) as usize;
        if a_tilde == 0 {
            continue;
        }
        acc.rotate_right_into(a_tilde, &mut diff);
        diff.sub_assign(&acc)?;
        external_product_scratch(ggsw, &diff, key.fft(), &mut prod, &mut scratch);
        acc.add_assign(&prod)?;
    }
    Ok(acc)
}
