//! A from-scratch implementation of TFHE (Fully Homomorphic Encryption
//! over the Torus) with programmable bootstrapping.
//!
//! This crate is the cryptographic substrate of the Strix reproduction.
//! It implements every entity of the paper's §II-D data-structure
//! taxonomy — LWE ciphertexts, GLWE test-vectors, bootstrapping keys
//! (vectors of GGSW ciphertexts) and keyswitching keys — together with
//! the two algorithms of §II-E:
//!
//! * **Algorithm 1, Programmable Bootstrapping**: modulus switching,
//!   blind rotation (rotate-and-subtract, gadget decomposition and the
//!   FFT-based external product) and sample extraction
//!   ([`bootstrap`]).
//! * **Algorithm 2, Keyswitching**: scalar gadget decomposition followed
//!   by a vector–matrix product with the keyswitching key
//!   ([`keyswitch`]).
//!
//! On top of the scheme it provides the user-facing layers the paper's
//! workloads rely on: gate bootstrapping for boolean circuits
//! ([`boolean`]) and small-integer LUT evaluation via PBS
//! ([`shortint`]), used by the Zama Deep-NN benchmark for its ReLU
//! activations.
//!
//! # Quick start
//!
//! ```
//! use strix_tfhe::prelude::*;
//!
//! # fn main() -> Result<(), strix_tfhe::TfheError> {
//! let params = TfheParameters::testing_fast();
//! let (mut client, server) = generate_keys(&params, 42);
//!
//! let a = client.encrypt_bool(true);
//! let b = client.encrypt_bool(false);
//! let c = server.nand(&a, &b)?;
//! assert!(client.decrypt_bool(&c));
//! # Ok(())
//! # }
//! ```
//!
//! # Security
//!
//! Parameter sets mirror the paper's Table IV and the security levels it
//! claims (110/128 bit); they are intended for research and benchmarking,
//! not production use. Randomness is drawn from a seedable CSPRNG so
//! experiments are reproducible.

pub mod boolean;
pub mod bootstrap;
pub mod decompose;
mod error;
pub mod ggsw;
pub mod glwe;
pub mod integer;
pub mod keys;
pub mod keyswitch;
pub mod lwe;
pub mod noise;
pub mod params;
pub mod poly;
pub mod profiler;
pub mod reference;
pub mod rng;
pub mod scratch;
pub mod shortint;
pub mod torus;
pub mod unrolled;

pub use error::TfheError;
pub use keys::{generate_keys, ClientKey, SeededServerKey, ServerKey};
pub use params::{ParameterSet, PbsKernel, TfheParameters};
// Re-exported so downstream crates can force a kernel backend without
// depending on `strix-fft` directly.
pub use strix_fft::StrixFftBackend;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::boolean::BoolCiphertext;
    pub use crate::keys::{generate_keys, ClientKey, SeededServerKey, ServerKey};
    pub use crate::lwe::LweCiphertext;
    pub use crate::params::{ParameterSet, PbsKernel, TfheParameters};
    pub use crate::shortint::ShortintCiphertext;
    pub use crate::TfheError;
}
