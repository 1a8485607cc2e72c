//! Golden digests of key materialisation and batched PBS.
//!
//! The bit-identity suites compare two code paths that live side by
//! side. This file pins absolute values instead: an FNV-1a digest of the
//! Fourier key planes of a fixed-seed seeded-key expansion, and of the
//! `bootstrap_batch` outputs of nine fixed jobs (two full
//! `CMUX_JOB_BLOCK`s and a partial one, with one all-zero-mask job), for
//! the classical kernel and the multi-bit kernel at `g = 2`, on every
//! kernel backend this CPU supports. A refactor of the transform layer
//! or the PBS driver that moves a single bit of either fails here.

use strix_tfhe::bootstrap::{BootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::{ClientKey, PbsKernel, StrixFftBackend, TfheParameters};

const CLIENT_SEED: u64 = 0x5eed_0012;
const CRS_SEED: u64 = 0xc0ff_ee12;
const JOBS: usize = 9;

/// `(key planes, bootstrap outputs)` digests, recorded before the
/// interleaved FFT layout and the second key type were removed.
const CLASSICAL_DIGESTS: (u64, u64) = (0x9321_62ce_a0fa_78f4, 0x79de_bae0_53da_bda1);
const MULTI_BIT_DIGESTS: (u64, u64) = (0x5a93_e65d_e90f_836c, 0xdbf8_8a83_dcca_6d7f);

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `testing_fast` with `n = 11`, so `g = 2` leaves a one-bit remainder
/// group.
fn params(kernel: PbsKernel, backend: StrixFftBackend) -> TfheParameters {
    TfheParameters { lwe_dimension: 11, ..TfheParameters::testing_fast() }
        .with_kernel(kernel)
        .with_fft_backend(backend)
}

fn available_backends() -> Vec<StrixFftBackend> {
    [StrixFftBackend::Portable, StrixFftBackend::Avx2, StrixFftBackend::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

fn key_digest(key: &BootstrapKey) -> u64 {
    let mut h = Fnv1a::new();
    for entry in key.entries() {
        let (re, im) = entry.spectra().planes();
        for v in re.iter().chain(im) {
            h.word(v.to_bits());
        }
    }
    h.0
}

/// Key digest and output digest for one kernel on one backend, with
/// the batch run on `threads` threads.
fn digests(kernel: PbsKernel, backend: StrixFftBackend, threads: usize) -> (u64, u64) {
    let params = params(kernel, backend);
    let mut client = ClientKey::generate(&params, CLIENT_SEED);
    let seeded = client.seeded_server_key(CRS_SEED);
    let p = 2u32;
    let mut cts: Vec<LweCiphertext> =
        (0..JOBS as u64 - 1).map(|m| client.encrypt_torus((m % 4) << (64 - p - 1))).collect();
    // Job 5 has an all-zero mask: every CMUX step skips it.
    cts.insert(5, LweCiphertext::trivial(params.lwe_dimension, 3 << (64 - p - 1)));
    let server = seeded.expand();
    let key = server.bootstrap_key_for(kernel);
    assert_eq!(key.kernel(), kernel);
    let identity = Lut::from_function(params.polynomial_size, p, |m| m).unwrap();
    let square = Lut::from_function(params.polynomial_size, p, |m| (m * m + 1) % 4).unwrap();
    let jobs: Vec<PbsJob<'_>> = cts
        .iter()
        .enumerate()
        .map(|(i, ct)| PbsJob { ct, lut: if i % 3 == 0 { &square } else { &identity } })
        .collect();
    let mut h = Fnv1a::new();
    for out in key.bootstrap_batch(&jobs, threads).unwrap() {
        for &w in out.mask() {
            h.word(w);
        }
        h.word(out.body());
    }
    (key_digest(key), h.0)
}

fn check(kernel: PbsKernel, golden: (u64, u64)) {
    for backend in available_backends() {
        for threads in [1, 2] {
            let got = digests(kernel, backend, threads);
            assert_eq!(
                got, golden,
                "{kernel:?} on {backend} with {threads} threads: got ({:#018x}, {:#018x})",
                got.0, got.1
            );
        }
    }
}

#[test]
fn classical_key_and_outputs_match_the_golden_digests() {
    check(PbsKernel::Classical, CLASSICAL_DIGESTS);
}

#[test]
fn multi_bit_key_and_outputs_match_the_golden_digests() {
    check(PbsKernel::MultiBit { grouping_factor: 2 }, MULTI_BIT_DIGESTS);
}
