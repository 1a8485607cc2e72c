//! Floating-point FFT kernels for negacyclic polynomial arithmetic.
//!
//! This crate provides the transform layer that both the software TFHE
//! implementation (`strix-tfhe`) and the Strix accelerator model
//! (`strix-core`) are built on:
//!
//! * [`Complex64`] — a minimal complex number type (kept dependency-free),
//! * [`SpectralPlan`] — the branch-free **bit-reversed-spectrum**
//!   kernel: a radix-4/radix-2 decimation-in-frequency forward
//!   transform (natural in → digit-reversed spectrum out) paired with
//!   the exact decimation-in-time inverse (digit-reversed in → natural
//!   out), with stage-major precomputed twiddle tables per direction —
//!   no permutation pass, no direction branch, no `conj()` in any
//!   inner loop,
//! * [`NegacyclicFft`] — the *folding scheme* of the Strix paper (§V-A)
//!   on that kernel: an `N`-coefficient negacyclic transform computed
//!   on an `N/2`-point complex FFT by packing `a_j + i·a_{j+N/2}` and
//!   twisting by the odd 2N-th roots of unity, with the twist fused
//!   into the first forward stage and untwist + normalisation fused
//!   into the last inverse stage,
//! * [`SoaSpectrum`] — split-complex (structure-of-arrays) batches of
//!   spectra: one contiguous plane of real parts, one of imaginary
//!   parts. This is the **only** spectral layout: every transform
//!   entry point ([`SpectralPlan::forward_many`],
//!   [`NegacyclicFft::forward_i64_many`],
//!   [`NegacyclicFft::backward_f64_many`]) takes a batch — a single
//!   transform is a batch of one — and the fused four-array VMA
//!   ([`pointwise_mul_add_soa`]) autovectorises into packed `f64`
//!   arithmetic,
//! * [`StrixFftBackend`] — the pluggable kernel-backend layer: the
//!   SoA butterfly stages, the fused fold/twist and untwist/unfold
//!   passes, and the VMA kernel each exist as a portable scalar
//!   reference plus explicit AVX2 and AVX-512 implementations,
//!   selected by runtime CPU detection at plan construction (or forced
//!   via [`SpectralPlan::with_backend`] / the `STRIX_FFT_BACKEND`
//!   environment variable) — every backend bit-identical to the
//!   scalar oracle,
//! * [`mod@reference`] — the correctness oracles: exact schoolbook
//!   negacyclic convolution, and [`reference::FftPlan`], the
//!   natural-order radix-2 FFT the kernel is tested against.
//!
//! # Example
//!
//! ```
//! use strix_fft::NegacyclicFft;
//!
//! # fn main() -> Result<(), strix_fft::FftError> {
//! let fft = NegacyclicFft::new(8)?;
//! let a = [1i64, 2, 3, 4, 5, 6, 7, 8];
//! let b = [1i64, 0, 0, 0, 0, 0, 0, 0];
//! let mut out = [0i64; 8];
//! fft.negacyclic_mul_i64(&a, &b, &mut out)?;
//! assert_eq!(out, a); // multiplying by 1 is the identity
//! # Ok(())
//! # }
//! ```

mod backend;
mod complex;
mod error;
mod kernel;
mod negacyclic;
#[cfg(test)]
mod plan;
pub mod reference;
mod soa;

pub use backend::{detected_cpu_features, StrixFftBackend, BACKEND_ENV_VAR};
pub use complex::Complex64;
pub use error::FftError;
pub use kernel::SpectralPlan;
pub use negacyclic::{pointwise_mul_add_soa, MonomialTable, NegacyclicFft};
pub use soa::SoaSpectrum;

/// Returns `true` if `n` is a power of two greater than or equal to `min`.
pub(crate) fn is_pow2_at_least(n: usize, min: usize) -> bool {
    n >= min && n.is_power_of_two()
}
