//! Reusable per-thread working memory for the PBS hot path.
//!
//! FPT and BTS (and Strix itself) make the same observation about the
//! blind-rotation inner loop: the win comes from keeping its working
//! set *resident* — streamed key material flows past a fixed set of
//! on-chip buffers — rather than re-materialising state per operation.
//! The software analogue is the crate-private `PbsScratch`: one
//! allocation up front, zero heap traffic afterwards. Every blocked
//! CMUX step of [`crate::bootstrap::BootstrapKey`]'s driver reuses
//!
//! * an extraction-state buffer and a packed digit buffer for the
//!   lane-parallel gadget decomposition (decomposer unit),
//! * per-job split-complex digit and accumulator spectra for one block
//!   of [`CMUX_JOB_BLOCK`] jobs (FFT + VMA units),
//! * a batched inverse-transform buffer (IFFT unit),
//! * a GLWE-shaped buffer for the classical rotate-and-subtract
//!   difference (rotator unit),
//! * for a multi-bit key only, the combined-GGSW staging: one
//!   key-entry-sized spectrum per job of a block, a monomial spectrum
//!   and the per-pattern monomial degrees. A classical key's scratch
//!   allocates none of it.
//!
//! Scratch is deliberately **not** shared between threads: a parallel
//! epoch ([`crate::bootstrap::BootstrapKey::bootstrap_batch`] with
//! `threads > 1`) gives each worker its own scratch while all workers
//! share one `&BootstrapKey`.

use strix_fft::SoaSpectrum;

use crate::decompose::DecompositionParams;
use crate::glwe::GlweCiphertext;
use crate::params::PbsKernel;

/// Number of accumulators the blocked CMUX processes per bootstrapping
/// key entry before moving to the next block (the job-blocking factor
/// of the batched blind rotation).
///
/// Rationale: within a block, the VMA loop is **row-major** — one
/// `(k+1)·N/2`-point key row is loaded and applied to every job in the
/// block before the next row streams in, so the row stays in L1 across
/// `CMUX_JOB_BLOCK` uses instead of being re-fetched per job. The
/// block size bounds the staging footprint (each job stages
/// `(k+1)·l + (k+1)` split spectra); 4 keeps that under ~256 KiB at
/// the paper's set-II/III shapes — resident in L2 — while already
/// amortising the key stream 4×. Results are bit-identical for every
/// block size, so this is purely a locality knob.
pub const CMUX_JOB_BLOCK: usize = 4;

/// Per-thread reusable working memory for one bootstrapping key's
/// blocked CMUX driver, sized to the key's shape and kernel.
#[derive(Clone, Debug)]
pub(crate) struct PbsScratch {
    /// Classical rotate-and-subtract difference `X^ã·acc − acc`.
    pub(crate) diff: GlweCiphertext,
    /// Lane-parallel decomposition state (`N` extraction words).
    pub(crate) decomp_state: Vec<u64>,
    /// One job's full digit decomposition, poly-major then level-major
    /// within each polynomial (`(k+1)·l · N` digits) — the packed
    /// input of the batched forward transform.
    pub(crate) all_digits: Vec<i64>,
    /// Per-job split digit spectra for one block:
    /// [`CMUX_JOB_BLOCK`] batches of `(k+1)·l` transforms of `N/2`
    /// points (the FFT-unit output staging of the blocked CMUX).
    pub(crate) digit_batch: Vec<SoaSpectrum>,
    /// Per-job split accumulator spectra for one block:
    /// [`CMUX_JOB_BLOCK`] batches of `k+1` transforms of `N/2` points
    /// (the VMA accumulation staging).
    pub(crate) acc_batch: Vec<SoaSpectrum>,
    /// Batched inverse-transform output (`(k+1) · N` reals), reused by
    /// every job of every block.
    pub(crate) time_batch: Vec<f64>,
    /// Multi-bit only: per-job combined-GGSW spectra, `(k+1)·l · (k+1)`
    /// transforms of `N/2` points each — one full key entry's worth
    /// per job of a block, assembled fresh per group. Empty for a
    /// classical key.
    pub(crate) comb_batch: Vec<SoaSpectrum>,
    /// Multi-bit only: monomial spectrum staging (real plane).
    pub(crate) mono_re: Vec<f64>,
    /// Multi-bit only: monomial spectrum staging (imaginary plane).
    pub(crate) mono_im: Vec<f64>,
    /// Multi-bit only: per-(job, pattern) monomial degrees for one
    /// block ([`CMUX_JOB_BLOCK`] · `2^g` entries, pattern-minor).
    pub(crate) degrees: Vec<usize>,
    level: usize,
    kernel: PbsKernel,
}

impl PbsScratch {
    /// Allocates scratch for bootstraps of shape `(k, N, l)` under
    /// `kernel`.
    pub(crate) fn new(
        glwe_dimension: usize,
        poly_size: usize,
        decomp: DecompositionParams,
        kernel: PbsKernel,
    ) -> Self {
        let half = poly_size / 2;
        let cols = glwe_dimension + 1;
        let rows = cols * decomp.level;
        let (combined, patterns, mono) = match kernel {
            PbsKernel::Classical => (0, 0, 0),
            PbsKernel::MultiBit { grouping_factor } => (CMUX_JOB_BLOCK, 1 << grouping_factor, half),
        };
        Self {
            diff: GlweCiphertext::zero(glwe_dimension, poly_size),
            decomp_state: vec![0u64; poly_size],
            all_digits: vec![0i64; rows * poly_size],
            digit_batch: (0..CMUX_JOB_BLOCK).map(|_| SoaSpectrum::new(rows, half)).collect(),
            acc_batch: (0..CMUX_JOB_BLOCK).map(|_| SoaSpectrum::new(cols, half)).collect(),
            time_batch: vec![0.0f64; cols * poly_size],
            comb_batch: (0..combined).map(|_| SoaSpectrum::new(rows * cols, half)).collect(),
            mono_re: vec![0.0f64; mono],
            mono_im: vec![0.0f64; mono],
            degrees: vec![0usize; combined * patterns],
            level: decomp.level,
            kernel,
        }
    }

    /// Asserts this scratch matches the `(k, N, l)` shape and kernel of
    /// the key about to use it.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch — mixing scratch between parameter sets
    /// is a programming error, not a recoverable condition.
    pub(crate) fn check_shape(
        &self,
        glwe_dimension: usize,
        poly_size: usize,
        level: usize,
        kernel: PbsKernel,
    ) {
        assert_eq!(self.diff.dimension(), glwe_dimension, "scratch glwe dimension mismatch");
        assert_eq!(self.diff.poly_size(), poly_size, "scratch polynomial size mismatch");
        assert_eq!(self.level, level, "scratch decomposition level mismatch");
        assert_eq!(
            self.kernel.grouping_factor(),
            kernel.grouping_factor(),
            "scratch grouping factor mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MULTI_BIT: PbsKernel = PbsKernel::MultiBit { grouping_factor: 2 };

    #[test]
    fn buffers_are_sized_to_the_shape() {
        let decomp = DecompositionParams::new(8, 3);
        let s = PbsScratch::new(2, 64, decomp, PbsKernel::Classical);
        assert_eq!(s.decomp_state.len(), 64);
        assert_eq!(s.diff.dimension(), 2);
        assert_eq!(s.diff.poly_size(), 64);
        // Blocked-CMUX staging: one digit buffer per job of a block,
        // (k+1)·l transforms each, plus k+1 accumulator spectra.
        assert_eq!(s.all_digits.len(), 3 * 3 * 64);
        assert_eq!(s.digit_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.digit_batch[0].count(), 3 * 3);
        assert_eq!(s.digit_batch[0].transform_len(), 32);
        assert_eq!(s.acc_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.acc_batch[0].count(), 3);
        assert_eq!(s.time_batch.len(), 3 * 64);
        // A classical key stages no combined GGSWs.
        assert!(s.comb_batch.is_empty());
        assert!(s.mono_re.is_empty() && s.mono_im.is_empty() && s.degrees.is_empty());
        s.check_shape(2, 64, 3, PbsKernel::Classical);
    }

    #[test]
    #[should_panic(expected = "scratch polynomial size mismatch")]
    fn shape_mismatch_panics() {
        let decomp = DecompositionParams::new(8, 3);
        PbsScratch::new(1, 64, decomp, PbsKernel::Classical).check_shape(
            1,
            128,
            3,
            PbsKernel::Classical,
        );
    }

    #[test]
    fn multi_bit_buffers_are_sized_to_the_shape() {
        let decomp = DecompositionParams::new(8, 3);
        let s = PbsScratch::new(1, 64, decomp, MULTI_BIT);
        assert_eq!(s.decomp_state.len(), 64);
        assert_eq!(s.all_digits.len(), 2 * 3 * 64);
        assert_eq!(s.digit_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.digit_batch[0].count(), 2 * 3);
        assert_eq!(s.acc_batch[0].count(), 2);
        // One combined key entry per job: (k+1)l rows × (k+1) columns.
        assert_eq!(s.comb_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.comb_batch[0].count(), 2 * 3 * 2);
        assert_eq!(s.comb_batch[0].transform_len(), 32);
        assert_eq!(s.mono_re.len(), 32);
        assert_eq!(s.mono_im.len(), 32);
        assert_eq!(s.degrees.len(), CMUX_JOB_BLOCK << 2);
        assert_eq!(s.time_batch.len(), 2 * 64);
        s.check_shape(1, 64, 3, MULTI_BIT);
    }

    #[test]
    #[should_panic(expected = "scratch grouping factor mismatch")]
    fn multi_bit_grouping_mismatch_panics() {
        let decomp = DecompositionParams::new(8, 3);
        PbsScratch::new(1, 64, decomp, MULTI_BIT).check_shape(
            1,
            64,
            3,
            PbsKernel::MultiBit { grouping_factor: 3 },
        );
    }
}
