//! Programmable bootstrapping (Algorithm 1).
//!
//! PBS refreshes the noise of an LWE ciphertext while evaluating an
//! arbitrary univariate function encoded in a test vector:
//!
//! 1. **Modulus switching** — every ciphertext element is switched from
//!    `q = 2^64` to `2N`, turning it into a rotation amount.
//! 2. **Blind rotation** — `n` sequential CMUX iterations rotate the
//!    test vector by the (encrypted) phase. Each iteration performs a
//!    rotate-and-subtract, a gadget decomposition and an external
//!    product — the six-stage dataflow of the Strix PBS cluster.
//! 3. **Sample extraction** — coefficient 0 of the rotated accumulator
//!    is extracted as an LWE ciphertext of dimension `k·N`.
//!
//! Note on Algorithm 1 as printed: line 6 shows the accumulator update
//! as `tv − Rotate(tv)` feeding the external product directly; the
//! mathematically complete CMUX also re-adds the untouched accumulator,
//! `acc ← acc + bsk_i ⊡ (X^{ã_i}·acc − acc)`, which is what every TFHE
//! library computes and what we implement. The per-iteration workload
//! (one rotation/subtraction, one decomposition, `(k+1)·l_b` FFTs,
//! `(k+1)²·l_b` pointwise multiplies, `k+1` IFFTs) is identical.
//!
//! # One driver, two kernels
//!
//! [`BootstrapKey`] holds the material of either PBS kernel — the
//! classical one-CMUX-per-bit key or the multi-bit grouped key — and
//! both run through one blocked driver, the software form of the
//! paper's HSC datapath (rotator → decomposer → FFT → VMA → IFFT →
//! accumulator) fed by whichever key it is given. The driver checks
//! shapes, rotates every accumulator by its body, modulus-switches
//! every mask once into an epoch-wide table, then walks the key in
//! key-major order, one step at a time, applying each step to the
//! batch in blocks of [`CMUX_JOB_BLOCK`] jobs; a single `match` per
//! `(step, block)` picks the classical or the grouped step kernel,
//! which share the decompose → forward-FFT staging and the inverse
//! drain. It shards epochs across threads, is observed through a
//! timing probe for the stage breakdown, and finishes with sample
//! extraction.
//!
//! The step loop runs entirely on per-thread scratch buffers — no heap
//! allocation between the initial accumulator setup and sample
//! extraction. All Fourier-domain data (bootstrapping-key rows, digit
//! spectra, accumulator spectra) lives in the transform plan's
//! bit-reversed slot order end to end — the `strix-fft` kernel never
//! runs a permutation pass, and nothing in PBS ever needs natural bin
//! order. The per-job CMUX the classical kernel is pinned against
//! lives in [`crate::reference`].

use strix_fft::{MonomialTable, NegacyclicFft, SoaSpectrum};

use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::{PbsKernel, TfheParameters};
use crate::poly::TorusPolynomial;
use crate::profiler::{NoProbe, PbsStage, Probe, StageTimings, TimingProbe};
use crate::rng::NoiseSampler;
use crate::scratch::{PbsScratch, CMUX_JOB_BLOCK};
use crate::torus::{encode_fraction, f64_to_torus, modulus_switch};
use crate::TfheError;

/// A test vector — the GLWE-encoded look-up table consumed by PBS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lut {
    poly: TorusPolynomial,
    /// Message precision the table was built for (the sign LUT counts
    /// as 1 bit: two half-torus boxes). Drives the static analyzer's
    /// per-node decision distance.
    precision_bits: u32,
}

impl Lut {
    /// The sign LUT used by gate bootstrapping: every output is `+μ` for
    /// phases in the positive half-torus and `−μ` for the negative half
    /// (via negacyclic wrap-around). All `N` coefficients equal `μ`.
    pub fn sign(poly_size: usize, mu: u64) -> Self {
        Self { poly: TorusPolynomial::from_coeffs(vec![mu; poly_size]), precision_bits: 1 }
    }

    /// Builds the LUT for an arbitrary function over a
    /// `precision_bits`-bit message space with one padding bit:
    /// inputs `m ∈ [0, 2^p)` map to `f(m)·Δ` with `Δ = q/2^{p+1}`.
    ///
    /// Each message owns a *box* of `N/2^p` consecutive coefficients;
    /// the final half-box rotation centres the boxes so that phases up
    /// to half a box away from the nominal encoding still decode to the
    /// right entry.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^p > N` (boxes
    /// would be empty) or `p >= 63`.
    pub fn from_function<F>(poly_size: usize, precision_bits: u32, f: F) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if precision_bits >= 63 {
            return Err(TfheError::InvalidParameters("precision must be below 63 bits"));
        }
        Self::from_function_scaled(poly_size, precision_bits, 64 - precision_bits - 1, f)
    }

    /// As [`Self::from_function`], but with an explicit output scale:
    /// LUT entries are `f(m) · 2^output_shift`. Input decoding still
    /// follows `precision_bits`. Used when the PBS must *re-encode*
    /// messages into a different space — e.g. moving an operand into
    /// the low half of a packed bivariate message.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^precision_bits`
    /// exceeds the polynomial size or the shift exceeds the torus.
    pub fn from_function_scaled<F>(
        poly_size: usize,
        precision_bits: u32,
        output_shift: u32,
        f: F,
    ) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if output_shift >= 64 {
            return Err(TfheError::InvalidParameters("output shift exceeds the torus"));
        }
        let space = 1usize << precision_bits;
        if space > poly_size {
            return Err(TfheError::InvalidParameters("message space larger than polynomial size"));
        }
        let box_size = poly_size / space;
        let mut coeffs = vec![0u64; poly_size];
        for (j, c) in coeffs.iter_mut().enumerate() {
            let m = (j / box_size) as u64;
            *c = f(m).wrapping_shl(output_shift);
        }
        let poly = TorusPolynomial::from_coeffs(coeffs).rotate_left(box_size / 2);
        Ok(Self { poly, precision_bits })
    }

    /// The underlying test-vector polynomial.
    #[inline]
    pub fn poly(&self) -> &TorusPolynomial {
        &self.poly
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly.size()
    }

    /// Message precision the table was built for, in bits.
    #[inline]
    pub fn precision_bits(&self) -> u32 {
        self.precision_bits
    }

    /// Distance from a nominal encoding to the nearest decision
    /// boundary of this table, in torus units: half a redundancy box,
    /// `2^-(p+2)` for a `p`-bit message space with one padding bit.
    /// The sign LUT (`p = 1`) gives the classic gate margin of `1/8`.
    #[inline]
    pub fn decision_distance(&self) -> f64 {
        crate::noise::lut_decision_distance(self.precision_bits)
    }
}

/// One entry of a batched bootstrap: a ciphertext and the LUT to
/// evaluate on it. Jobs in a batch share the bootstrapping key (that is
/// the point of batching) but may use different LUTs.
#[derive(Clone, Copy, Debug)]
pub struct PbsJob<'a> {
    /// The LWE ciphertext to bootstrap (dimension `n`).
    pub ct: &'a LweCiphertext,
    /// The test vector to evaluate.
    pub lut: &'a Lut,
}

/// The GGSW plaintexts of a key's entries, in generation order: one
/// secret bit per entry under the classical kernel; under the multi-bit
/// kernel, for each group of `g` bits (the last group takes the
/// `n mod g` remainder), the `2^m` indicator products
/// `m_b = ∏_t s_t^{b_t} · (1−s_t)^{1−b_t}` of the group's bit patterns
/// `b`, pattern-major. Exactly one `m_b` per group is 1.
///
/// # Panics
///
/// Panics if a multi-bit grouping factor is 0, exceeds
/// [`PbsKernel::MAX_GROUPING_FACTOR`] or exceeds `bits.len()`.
pub(crate) fn entry_messages(bits: &[u64], kernel: PbsKernel) -> Vec<u64> {
    let Some(g) = kernel.grouping_factor() else {
        return bits.to_vec();
    };
    assert!(g >= 1, "grouping factor must be positive");
    assert!(g <= PbsKernel::MAX_GROUPING_FACTOR, "grouping factor exceeds the supported maximum");
    assert!(g <= bits.len(), "grouping factor exceeds the lwe dimension");
    bits.chunks(g)
        .flat_map(|group| {
            (0..1usize << group.len()).map(move |pattern| {
                group
                    .iter()
                    .enumerate()
                    .map(|(t, &s)| if (pattern >> t) & 1 == 1 { s } else { 1 - s })
                    .product()
            })
        })
        .collect()
}

/// Checks that a `(ciphertext, LUT)` pair fits a key with input
/// dimension `input_dimension` and polynomial size `poly_size` — the
/// one validation every bootstrapping key applies.
pub(crate) fn check_pbs_shape(
    ct: &LweCiphertext,
    lut: &Lut,
    input_dimension: usize,
    poly_size: usize,
) -> Result<(), TfheError> {
    if ct.dimension() != input_dimension {
        return Err(TfheError::ParameterMismatch {
            what: "lwe dimension",
            left: ct.dimension(),
            right: input_dimension,
        });
    }
    if lut.poly_size() != poly_size {
        return Err(TfheError::ParameterMismatch {
            what: "polynomial size",
            left: lut.poly_size(),
            right: poly_size,
        });
    }
    Ok(())
}

/// The bootstrapping key: Fourier-domain GGSW encryptions of the LWE
/// secret-key bits, plus the FFT plan they were transformed under, for
/// one of the two PBS kernels ([`PbsKernel`]).
///
/// * **Classical** — `n` entries, `GGSW(s_i)`. Blind rotation runs one
///   CMUX per bit: `acc ← acc + GGSW(s_i) ⊡ (X^{ã_i}·acc − acc)`.
/// * **Multi-bit** (grouping factor `g`, the software counterpart of
///   tfhe-rs's `MULTI_BIT` PBS) — `⌈n/g⌉` groups; group `i` covers
///   secret bits `s_{ig} .. s_{ig+g-1}` and stores `2^g` entries, one
///   per bit pattern `b ∈ {0,1}^g`, encrypting the indicator product
///   `m_b` (see `entry_messages`); the last group covers the `n mod g`
///   remainder bits with `2^{n mod g}` entries. Since
///   `X^{Σ_t ã_t s_t} = Σ_b X^{⟨b, ã⟩} · m_b`, the driver assembles the
///   *combined* GGSW `G = Σ_b X^{d_b} · GGSW(m_b)` (monomial weighting
///   is a pointwise spectrum multiply, [`MonomialTable`]) and replaces
///   the accumulator with `G ⊡ acc` — one external product per group
///   instead of one per bit, trading a `2^g/g ×` larger key (and a
///   `2^g ×` key-noise term, see
///   [`crate::noise::multi_bit_external_product_variance`]) for `g ×`
///   fewer transforms. Outputs are **not bit-identical** to the
///   classical kernel's but decrypt to the same message: both realise
///   the blind rotation `X^{b̃ + Σ ã_j s_j} · lut`.
///
/// Both kernels run through one blocked driver (see the module docs);
/// only the per-step CMUX differs.
#[derive(Clone, Debug)]
pub struct BootstrapKey {
    /// Every GGSW entry in generation order: one per secret bit
    /// (classical), or group-major then pattern (multi-bit).
    entries: Vec<FourierGgsw>,
    steps: Steps,
    fft: NegacyclicFft,
    glwe_dimension: usize,
    poly_size: usize,
    decomp: DecompositionParams,
    input_dimension: usize,
}

/// What one blind-rotation step consumes — the kernel-specific part of
/// a key.
#[derive(Clone, Debug)]
enum Steps {
    /// One entry per step, one CMUX per secret bit.
    Classical,
    /// One group of `2^m` pattern entries per step, combined through
    /// monomial spectra.
    MultiBit { grouping_factor: usize, mono: MonomialTable },
}

impl BootstrapKey {
    /// Generates a bootstrapping key for `kernel` encrypting `lwe_sk`
    /// under `glwe_sk`. Every multi-bit pattern entry is a *real* GGSW
    /// encryption (including the encryptions of zero): which single
    /// pattern holds the 1 is exactly the key material.
    ///
    /// # Panics
    ///
    /// Panics if a multi-bit grouping factor is 0, exceeds
    /// [`PbsKernel::MAX_GROUPING_FACTOR`] or exceeds the LWE dimension
    /// (all rejected earlier by [`TfheParameters::validate`]).
    pub fn generate(
        lwe_sk: &LweSecretKey,
        glwe_sk: &GlweSecretKey,
        params: &TfheParameters,
        kernel: PbsKernel,
        rng: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = plan(params);
        let entries = entry_messages(lwe_sk.bits(), kernel)
            .into_iter()
            .map(|m| {
                GgswCiphertext::encrypt_scalar(m, glwe_sk, decomp, params.glwe_noise_std, rng)
                    .to_fourier(&fft)
            })
            .collect();
        Self::assemble(entries, fft, params, kernel)
    }

    /// Generates a *timing-equivalent* bootstrapping key for `kernel`
    /// without real encryption: every entry is a trivial (zero-mask)
    /// GGSW of 1, carrying only the gadget terms.
    ///
    /// Running PBS with this key performs exactly the same arithmetic
    /// (same decompositions, FFTs, multiplies) as with a real key, so
    /// it is suitable for the CPU-baseline *performance* measurements
    /// at large parameter sets, where real key generation via the exact
    /// schoolbook path would be prohibitive. It is cryptographically
    /// meaningless.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range grouping factor (see
    /// [`Self::generate`]).
    pub fn generate_for_benchmark(params: &TfheParameters, kernel: PbsKernel) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = plan(params);
        // GGSW of message 1: gadget terms give the spectra non-trivial
        // values so the FFT timing is honest.
        let template =
            GgswCiphertext::trivial(1, params.glwe_dimension, params.polynomial_size, decomp)
                .to_fourier(&fft);
        let count = entry_messages(&vec![0; params.lwe_dimension], kernel).len();
        Self::assemble(vec![template; count], fft, params, kernel)
    }

    /// Expansion half of seeded key transport: rebuilds each GGSW entry
    /// (in generation order) from its stored body polynomials and the
    /// CRS mask stream, then runs the usual Fourier materialisation.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` does not hold one entry per key entry of
    /// `kernel` with `(k+1)·l` rows each (transport payload invariant).
    pub(crate) fn from_seeded_parts(
        bodies: &[Vec<TorusPolynomial>],
        params: &TfheParameters,
        kernel: PbsKernel,
        crs: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = plan(params);
        let entries: Vec<FourierGgsw> = bodies
            .iter()
            .map(|entry| {
                GgswCiphertext::from_seeded_parts(entry, decomp, params.glwe_dimension, crs)
                    .to_fourier(&fft)
            })
            .collect();
        Self::assemble(entries, fft, params, kernel)
    }

    /// Wraps materialised entries (in generation order) into a key for
    /// `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the entry count does not match `kernel` at the
    /// parameters' LWE dimension.
    fn assemble(
        entries: Vec<FourierGgsw>,
        fft: NegacyclicFft,
        params: &TfheParameters,
        kernel: PbsKernel,
    ) -> Self {
        let n = params.lwe_dimension;
        assert_eq!(
            entries.len(),
            entry_messages(&vec![0; n], kernel).len(),
            "key entry count does not match the kernel"
        );
        let steps = match kernel {
            PbsKernel::Classical => Steps::Classical,
            PbsKernel::MultiBit { grouping_factor } => {
                Steps::MultiBit { grouping_factor, mono: MonomialTable::for_plan(&fft) }
            }
        };
        Self {
            entries,
            steps,
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp: DecompositionParams::new(params.pbs_base_log, params.pbs_level),
            input_dimension: n,
        }
    }

    /// The PBS kernel this key runs.
    #[inline]
    pub fn kernel(&self) -> PbsKernel {
        match self.steps {
            Steps::Classical => PbsKernel::Classical,
            Steps::MultiBit { grouping_factor, .. } => PbsKernel::MultiBit { grouping_factor },
        }
    }

    /// Input LWE dimension `n`.
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output LWE dimension `k·N` after sample extraction.
    #[inline]
    pub fn output_dimension(&self) -> usize {
        self.glwe_dimension * self.poly_size
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// The decomposition used by the external products.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// The FFT plan shared by all external products.
    #[inline]
    pub fn fft(&self) -> &NegacyclicFft {
        &self.fft
    }

    /// The Fourier-domain GGSW entries in generation order: one per
    /// secret bit (classical), or group-major then bit pattern
    /// (multi-bit).
    pub fn entries(&self) -> impl Iterator<Item = &FourierGgsw> {
        self.entries.iter()
    }

    /// Total Fourier-domain key size in bytes (HBM traffic per full
    /// PBS) — for the multi-bit kernel `2^g/g ×` the classical key.
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(FourierGgsw::byte_size).sum()
    }

    /// Checks that a `(ciphertext, LUT)` pair matches this key's shape
    /// — the validation every bootstrap applies, exposed so schedulers
    /// can pre-validate jobs before committing them to a shared batch.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] naming the mismatch.
    pub fn check_shape(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError> {
        check_pbs_shape(ct, lut, self.input_dimension, self.poly_size)
    }

    /// Full programmable bootstrap of one ciphertext: blind rotation
    /// followed by sample extraction — the batched driver on a batch of
    /// one. The output is an LWE ciphertext of dimension `k·N`
    /// encrypting `lut[phase]` with *fresh* noise, still under the
    /// extracted key — keyswitching back to the original key is a
    /// separate step (Algorithm 2, [`crate::keyswitch`]).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        let mut out = self.bootstrap_batch(&[PbsJob { ct, lut }], 1)?;
        // lint:allow(panic) the driver returns one output per job
        Ok(out.pop().expect("one job in, one output out"))
    }

    /// Batched programmable bootstrap with **key-major iteration
    /// order**, the software analogue of the paper's core-level
    /// batching (§IV-C): the outer loop walks the key's steps and the
    /// inner loop applies each step to every job, block by block, so
    /// one key fetch is reused by the whole batch. Jobs may carry
    /// different LUTs; only the key material is shared.
    ///
    /// `threads > 1` splits the jobs into contiguous, balanced shards,
    /// one per [`std::thread::scope`] worker with its own scratch, all
    /// sharing this key — core-level batching within each shard,
    /// device-level parallelism across shards. Each job's arithmetic
    /// depends only on its own ciphertext, so outputs come back in job
    /// order and **bit-identical** for every thread count. `threads` is
    /// clamped to `[1, jobs.len()]`.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's ciphertext
    /// dimension or LUT size disagrees with the key (validated up
    /// front, before any thread is spawned).
    pub fn bootstrap_batch(
        &self,
        jobs: &[PbsJob<'_>],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        let threads = threads.min(jobs.len()).max(1);
        if threads == 1 {
            return Ok(self.run(jobs, &mut self.scratch(), &mut NoProbe));
        }
        // Balanced contiguous shards: the first `jobs % threads` shards
        // take one extra job, so exactly `threads` workers spawn and no
        // worker trails the rest by more than one PBS. Contiguity
        // preserves key-major order within each shard and job order
        // across the concatenated results.
        let (base, extra) = (jobs.len() / threads, jobs.len() % threads);
        let shards: Vec<Vec<LweCiphertext>> = std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let shard = &jobs[start..start + base + usize::from(i < extra)];
                    start += shard.len();
                    scope.spawn(move || self.run(shard, &mut self.scratch(), &mut NoProbe))
                })
                .collect();
            // lint:allow(panic) a worker panic is propagated, not swallowed
            handles.into_iter().map(|h| h.join().expect("PBS shard worker panicked")).collect()
        });
        Ok(shards.into_iter().flatten().collect())
    }

    /// As [`Self::bootstrap_batch`] on one thread, with per-stage timing
    /// instrumentation over the **production driver** — the same
    /// kernels the un-instrumented batch runs, observed through a
    /// timing probe, so the per-stage breakdown reflects exactly what
    /// production executes. Multi-bit combined-GGSW assembly accounts
    /// to [`PbsStage::VectorMultiply`], monomial-degree computation to
    /// [`PbsStage::ModSwitch`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        Ok(self.run(jobs, &mut self.scratch(), &mut TimingProbe(timings)))
    }

    /// Scratch sized to this key — one per thread.
    fn scratch(&self) -> PbsScratch {
        PbsScratch::new(self.glwe_dimension, self.poly_size, self.decomp, self.kernel())
    }

    /// Number of blind-rotation steps: `n` (classical) or `⌈n/g⌉`
    /// (multi-bit).
    fn step_count(&self) -> usize {
        match self.steps {
            Steps::Classical => self.input_dimension,
            Steps::MultiBit { grouping_factor, .. } => {
                self.input_dimension.div_ceil(grouping_factor)
            }
        }
    }

    /// The secret bits step `step` covers, as `(first bit, bit count)`.
    fn step_bits(&self, step: usize) -> (usize, usize) {
        match self.steps {
            Steps::Classical => (step, 1),
            Steps::MultiBit { grouping_factor: g, .. } => {
                (step * g, g.min(self.input_dimension - step * g))
            }
        }
    }

    /// The key entries step `step` consumes: one GGSW (classical) or
    /// the group's `2^m` pattern entries (multi-bit).
    fn step_entries(&self, step: usize) -> &[FourierGgsw] {
        match self.steps {
            Steps::Classical => &self.entries[step..=step],
            Steps::MultiBit { grouping_factor: g, .. } => {
                let bits = self.step_bits(step).1;
                &self.entries[step << g..(step << g) + (1 << bits)]
            }
        }
    }

    /// The blocked PBS driver behind every bootstrap entry point, for
    /// both kernels, generic over a [`Probe`] (production: [`NoProbe`],
    /// which inlines to nothing; the stage breakdown: [`TimingProbe`])
    /// so instrumented and production execution can never drift. Jobs
    /// must already be shape-checked.
    ///
    /// 1. **Initial rotation** by each body (Algorithm 1 lines 3–4).
    /// 2. **Hoisted modulus switch**: every mask element of every job
    ///    is switched once, up front, into an entry-major table
    ///    (`switched[i·batch + j]`), so a step reads each bit's
    ///    rotation amounts as one contiguous slice. The values live in
    ///    `[0, 2N)`, so `u32` keeps the table a quarter the size of the
    ///    masks; `modulus_switch` is a pure rounding shift, so hoisting
    ///    is bit-identical to switching in-loop.
    /// 3. **Key-major, job-blocked rotation**: for each step, the step's
    ///    key entries are applied to the batch in blocks of
    ///    [`CMUX_JOB_BLOCK`] jobs ([`Self::cmux_block`] or
    ///    [`Self::grouped_cmux_block`]).
    /// 4. **Sample extraction**, in job order.
    // lint:hot-path-start — the PBS driver and both step kernels must stay allocation-free per step
    fn run<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) -> Vec<LweCiphertext> {
        scratch.check_shape(self.glwe_dimension, self.poly_size, self.decomp.level, self.kernel());
        let log2_two_n = self.poly_size.trailing_zeros() + 1;
        let batch = jobs.len();
        let mut accs: Vec<GlweCiphertext> = jobs
            .iter()
            .map(|job| {
                let b_tilde = modulus_switch(job.ct.body(), log2_two_n) as usize;
                GlweCiphertext::trivial(self.glwe_dimension, job.lut.poly().rotate_left(b_tilde))
            })
            // lint:allow(alloc) per-epoch accumulators, set up before the step loop
            .collect();
        // lint:allow(alloc) per-epoch switched-mask table, set up before the step loop
        let mut switched = vec![0u32; batch * self.input_dimension];
        probe.time(PbsStage::ModSwitch, || {
            for (j, job) in jobs.iter().enumerate() {
                for (i, &a) in job.ct.mask().iter().enumerate() {
                    switched[i * batch + j] = modulus_switch(a, log2_two_n) as u32;
                }
            }
        });
        for step in 0..self.step_count() {
            let (first_bit, bits) = self.step_bits(step);
            let rows = &switched[first_bit * batch..(first_bit + bits) * batch];
            let entries = self.step_entries(step);
            for (bi, block) in accs.chunks_mut(CMUX_JOB_BLOCK).enumerate() {
                let job0 = bi * CMUX_JOB_BLOCK;
                match &self.steps {
                    Steps::Classical => {
                        let amounts = &rows[job0..job0 + block.len()];
                        self.cmux_block(&entries[0], block, amounts, scratch, probe);
                    }
                    Steps::MultiBit { mono, .. } => {
                        self.grouped_cmux_block(entries, mono, rows, job0, block, scratch, probe);
                    }
                }
            }
        }
        probe.time(PbsStage::SampleExtract, || {
            // lint:allow(alloc) the epoch's outputs
            accs.iter().map(GlweCiphertext::sample_extract).collect()
        })
    }

    /// Gadget-decomposes `glwe`'s `k+1` polynomials into `all_digits`
    /// and forward-transforms all `(k+1)·l` digit polynomials into
    /// `digits` as one batch — the decomposer → FFT staging both step
    /// kernels share.
    fn stage_digits<P: Probe>(
        &self,
        glwe: &GlweCiphertext,
        all_digits: &mut [i64],
        decomp_state: &mut [u64],
        digits: &mut SoaSpectrum,
        probe: &mut P,
    ) {
        let chunk = self.decomp.level * self.poly_size;
        probe.time(PbsStage::Decompose, || {
            for (poly, levels) in glwe.polys().zip(all_digits.chunks_exact_mut(chunk)) {
                self.decomp.decompose_polynomial_levels(poly, levels, decomp_state);
            }
        });
        probe.time(PbsStage::Fft, || {
            self.fft
                .forward_i64_many(all_digits, digits)
                // lint:allow(panic) shape invariant established at construction
                .expect("digit batch matches the fft plan");
        });
    }

    /// Inverse-transforms the `k+1` accumulator spectra in `spec` and
    /// folds them into `acc` coefficient by coefficient with `combine`
    /// (`+=` for the classical CMUX, `=` for the multi-bit one) — the
    /// IFFT → accumulator drain both step kernels share.
    fn drain<P: Probe>(
        &self,
        spec: &mut SoaSpectrum,
        time: &mut [f64],
        acc: &mut GlweCiphertext,
        combine: impl Fn(u64, u64) -> u64,
        probe: &mut P,
    ) {
        probe.time(PbsStage::IfftAccumulate, || {
            self.fft
                .backward_f64_many(spec, time)
                // lint:allow(panic) shape invariant established at construction
                .expect("accumulator batch matches the fft plan");
            for (col, time) in time.chunks_exact(self.poly_size).enumerate() {
                // lint:allow(panic) shape invariant established at construction
                let poly = acc.poly_mut(col).expect("column within GLWE dimension");
                for (o, &v) in poly.coeffs_mut().iter_mut().zip(time) {
                    *o = combine(*o, f64_to_torus(v));
                }
            }
        });
    }

    /// One blocked classical CMUX step: applies `ggsw` to every
    /// accumulator of the block whose rotation amount is non-zero,
    /// computing `acc ← acc + ggsw ⊡ (X^ã·acc − acc)` for each,
    /// bit-identically to the per-job oracle
    /// ([`crate::reference::blind_rotate`]) but scheduled for locality:
    ///
    /// 1. **Stage** — per job: rotate-and-subtract, then
    ///    [`Self::stage_digits`] on the difference.
    /// 2. **VMA, row-major across the block** — for each of the
    ///    `(k+1)·l` key rows, multiply–accumulate it against every
    ///    staged job before the next row streams in, so the row stays
    ///    in L1 across the block.
    /// 3. **Drain** — per job: [`Self::drain`] with `+=`.
    ///
    /// Per job, rows are visited in the same order and every
    /// floating-point/torus operation is the same as in the oracle —
    /// only the loop nesting across *independent* jobs differs, which
    /// cannot change a bit of any output.
    fn cmux_block<P: Probe>(
        &self,
        ggsw: &FourierGgsw,
        accs: &mut [GlweCiphertext],
        amounts: &[u32],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        debug_assert_eq!(accs.len(), amounts.len());
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let k = self.glwe_dimension;
        let level = self.decomp.level;
        let PbsScratch {
            diff, decomp_state, all_digits, digit_batch, acc_batch, time_batch, ..
        } = scratch;

        for ((acc, &amt), digits) in accs.iter().zip(amounts).zip(digit_batch.iter_mut()) {
            if amt == 0 {
                continue;
            }
            probe.time(PbsStage::Rotate, || {
                acc.rotate_right_into(amt as usize, diff);
                // lint:allow(panic) shape invariant established at construction
                diff.sub_assign(acc).expect("scratch shape is pre-validated");
            });
            self.stage_digits(diff, all_digits, decomp_state, digits, probe);
        }

        // VMA, row-major across the block: key row `r` is loaded once
        // and applied to every staged job while hot.
        probe.time(PbsStage::VectorMultiply, || {
            for spec in
                acc_batch.iter_mut().zip(amounts).filter(|(_, &amt)| amt != 0).map(|(s, _)| s)
            {
                spec.fill_zero();
            }
            for r in 0..(k + 1) * level {
                for (digits, spec) in digit_batch
                    .iter()
                    .zip(acc_batch.iter_mut())
                    .zip(amounts)
                    .filter(|(_, &amt)| amt != 0)
                    .map(|(pair, _)| pair)
                {
                    let (d_re, d_im) = digits.transform(r);
                    for col in 0..=k {
                        let (k_re, k_im) = ggsw.row_col(r, col);
                        let (a_re, a_im) = spec.transform_mut(col);
                        self.fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        });

        for ((acc, &amt), spec) in accs.iter_mut().zip(amounts).zip(acc_batch.iter_mut()) {
            if amt != 0 {
                self.drain(spec, time_batch, acc, u64::wrapping_add, probe);
            }
        }
    }

    /// One blocked multi-bit step: replaces every active accumulator of
    /// the block with `G_job ⊡ acc`, where `G_job` is the job's
    /// combined GGSW for this group (`entries`, `2^m` patterns; `rows`
    /// holds the group's `m` switched-mask rows for the whole batch,
    /// and the block starts at job `job0`). Four stages:
    ///
    /// 1. **Degrees** — per job, first an all-zero probe of the group's
    ///    digits (a job whose digits are all zero is skipped outright,
    ///    *before* any degree work: `G` would encrypt `X^0 = 1`, the
    ///    exact identity the classical kernel also takes on `ã = 0`),
    ///    then the `2^m` monomial degrees
    ///    `d_b = Σ_{t: b_t=1} ã_t mod 2N` by binary-counting recurrence
    ///    (`d_{b|bit} = d_b + ã_t`). A block with no active job returns
    ///    here.
    /// 2. **Assembly, pattern-major across the block** — seed each
    ///    job's combined spectrum with the pattern-0 entry (its degree
    ///    is always 0: a plane copy), then for every other pattern MAC
    ///    `entry_b × X^{d_b}` into it; the monomial spectrum is built
    ///    once per `(job, pattern)` and reused across all
    ///    `(k+1)·l · (k+1)` transforms. Pattern-major order streams
    ///    each key entry once per block.
    /// 3. **External product** — per job: [`Self::stage_digits`] on the
    ///    accumulator itself (no rotate-and-subtract — the combined
    ///    GGSW carries the rotation), then the job-major VMA against
    ///    the job's combined spectrum (plane pointers hoisted once per
    ///    job).
    /// 4. **Drain** — per job: [`Self::drain`] **replacing** the
    ///    accumulator (`acc ← G ⊡ acc`, not `acc += …`).
    #[allow(clippy::too_many_arguments)] // the step's key, mask rows and block, plus shared state
    fn grouped_cmux_block<P: Probe>(
        &self,
        entries: &[FourierGgsw],
        mono: &MonomialTable,
        rows: &[u32],
        job0: usize,
        accs: &mut [GlweCiphertext],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let k = self.glwe_dimension;
        let two_n = 2 * self.poly_size;
        let cols = k + 1;
        let key_rows = cols * self.decomp.level;
        let group_bits = entries.len().trailing_zeros() as usize;
        let patterns = entries.len();
        let batch = rows.len() / group_bits;
        let PbsScratch {
            decomp_state,
            all_digits,
            digit_batch,
            acc_batch,
            time_batch,
            comb_batch,
            mono_re,
            mono_im,
            degrees,
            ..
        } = scratch;

        // Stage 1: active flags, then monomial degrees for active jobs
        // only.
        let mut active = [false; CMUX_JOB_BLOCK];
        let mut any_active = false;
        probe.time(PbsStage::ModSwitch, || {
            for (j, slot) in active.iter_mut().enumerate().take(accs.len()) {
                let digits = (0..group_bits).map(|t| rows[t * batch + job0 + j] as usize);
                if digits.clone().all(|a| a == 0) {
                    continue;
                }
                *slot = true;
                any_active = true;
                let d = &mut degrees[j * patterns..(j + 1) * patterns];
                d[0] = 0;
                for (t, a) in digits.enumerate() {
                    let bit = 1usize << t;
                    for b in 0..bit {
                        d[bit | b] = (d[b] + a) & (two_n - 1);
                    }
                }
            }
        });
        // A fully idle block (common in sparse-mask workloads) pays for
        // nothing beyond the probe above.
        if !any_active {
            return;
        }

        // Stage 2: assemble each active job's combined GGSW spectrum.
        // Plane base pointers are hoisted out of the transform walk:
        // one `planes()` borrow per `(pattern, job)` and a
        // `chunks_exact` sweep, instead of `rows·cols` bounds-computed
        // `transform()` calls per MAC.
        let half = mono_re.len();
        probe.time(PbsStage::VectorMultiply, || {
            for (j, comb) in comb_batch.iter_mut().enumerate().take(accs.len()) {
                if active[j] {
                    comb.copy_from(entries[0].spectra());
                }
            }
            for (pattern, entry) in entries.iter().enumerate().skip(1) {
                let (e_re_plane, e_im_plane) = entry.spectra().planes();
                for (j, comb) in comb_batch.iter_mut().enumerate().take(accs.len()) {
                    if !active[j] {
                        continue;
                    }
                    mono.spectrum_into(degrees[j * patterns + pattern], mono_re, mono_im)
                        // lint:allow(panic) shape invariant established at construction
                        .expect("monomial planes are sized to the fft plan");
                    let (c_re_plane, c_im_plane) = comb.planes_mut();
                    let chunks = c_re_plane
                        .chunks_exact_mut(half)
                        .zip(c_im_plane.chunks_exact_mut(half))
                        .zip(e_re_plane.chunks_exact(half).zip(e_im_plane.chunks_exact(half)));
                    for ((c_re, c_im), (e_re, e_im)) in chunks {
                        self.fft.pointwise_mul_add_soa(c_re, c_im, e_re, e_im, mono_re, mono_im);
                    }
                }
            }
        });

        // Stage 3a: decompose the accumulators directly and transform.
        for (j, acc) in accs.iter().enumerate() {
            if active[j] {
                self.stage_digits(acc, all_digits, decomp_state, &mut digit_batch[j], probe);
            }
        }

        // Stage 3b: VMA, job-major. Unlike the classical kernel — whose
        // row-major-across-jobs order reuses one shared key row for the
        // whole block — the combined spectrum here is *per job*, so
        // row-major order has nothing to reuse and only re-derives the
        // three spectra's plane pointers every row. Job-major hoists
        // them once per job; per accumulator column the additions still
        // run over `r` in ascending order, so results stay bit-identical
        // to the row-major schedule (the per-job accumulators are
        // disjoint).
        probe.time(PbsStage::VectorMultiply, || {
            for j in 0..accs.len() {
                if !active[j] {
                    continue;
                }
                acc_batch[j].fill_zero();
                let (d_re_plane, d_im_plane) = digit_batch[j].planes();
                let (k_re_plane, k_im_plane) = comb_batch[j].planes();
                let (a_re_plane, a_im_plane) = acc_batch[j].planes_mut();
                for r in 0..key_rows {
                    let d_re = &d_re_plane[r * half..(r + 1) * half];
                    let d_im = &d_im_plane[r * half..(r + 1) * half];
                    for col in 0..cols {
                        let s = (r * cols + col) * half;
                        let k_re = &k_re_plane[s..s + half];
                        let k_im = &k_im_plane[s..s + half];
                        let a_re = &mut a_re_plane[col * half..(col + 1) * half];
                        let a_im = &mut a_im_plane[col * half..(col + 1) * half];
                        self.fft.pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        });

        // Stage 4: batched inverse, *replacing* the accumulator.
        for (j, acc) in accs.iter_mut().enumerate() {
            if active[j] {
                self.drain(&mut acc_batch[j], time_batch, acc, |_, v| v, probe);
            }
        }
    }
    // lint:hot-path-end
}

/// The negacyclic transform plan for `params`.
fn plan(params: &TfheParameters) -> NegacyclicFft {
    NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
        // lint:allow(panic) parameters were validated at construction
        .expect("validated parameters have power-of-two N and an available backend")
}

/// Encodes a boolean as `±1/8` on the torus (gate-bootstrapping
/// convention): `true ↦ +1/8`, `false ↦ −1/8`.
///
/// The call `encode_fraction(±1, 3)` reads as "±1 over 2³" — the
/// second argument is the **log2 of the denominator**, so this is
/// exactly the `±1/8` the convention asks for (not `±1/3`).
///
/// ```
/// use strix_tfhe::bootstrap::{decode_bool, encode_bool};
/// use strix_tfhe::torus::encode_fraction;
///
/// // +1/8 of the torus is 2^64/8 = 2^61; −1/8 is its wrapping negation.
/// assert_eq!(encode_bool(true), 1u64 << 61);
/// assert_eq!(encode_bool(true), encode_fraction(1, 3));
/// assert_eq!(encode_bool(false), (1u64 << 61).wrapping_neg());
/// assert!(decode_bool(encode_bool(true)));
/// assert!(!decode_bool(encode_bool(false)));
/// ```
#[inline]
pub fn encode_bool(b: bool) -> u64 {
    if b {
        encode_fraction(1, 3)
    } else {
        encode_fraction(-1, 3)
    }
}

/// Decodes a phase to a boolean by its torus sign.
#[inline]
pub fn decode_bool(phase: u64) -> bool {
    (phase as i64) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::decode_message;

    struct Fixture {
        params: TfheParameters,
        lwe_sk: LweSecretKey,
        glwe_sk: GlweSecretKey,
        extracted: LweSecretKey,
        bsk: BootstrapKey,
        rng: NoiseSampler,
    }

    fn fixture(params: TfheParameters) -> Fixture {
        let mut rng = NoiseSampler::from_seed(4242);
        let lwe_sk = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let glwe_sk =
            GlweSecretKey::generate(params.glwe_dimension, params.polynomial_size, &mut rng);
        let extracted = glwe_sk.to_extracted_lwe_key();
        let bsk =
            BootstrapKey::generate(&lwe_sk, &glwe_sk, &params, PbsKernel::Classical, &mut rng);
        Fixture { params, lwe_sk, glwe_sk, extracted, bsk, rng }
    }

    #[test]
    fn lut_sign_shape() {
        let lut = Lut::sign(64, encode_fraction(1, 3));
        assert!(lut.poly().coeffs().iter().all(|&c| c == encode_fraction(1, 3)));
    }

    #[test]
    fn lut_from_function_rejects_oversized_space() {
        assert!(Lut::from_function(64, 7, |m| m).is_err());
        assert!(Lut::from_function(64, 6, |m| m).is_ok());
    }

    #[test]
    fn bootstrap_refreshes_sign_encoding() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), fx.bsk.output_dimension());
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b, "b={b}");
        }
    }

    #[test]
    fn bootstrap_evaluates_identity_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32; // 2-bit messages
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), m, "m={m}");
        }
    }

    #[test]
    fn bootstrap_evaluates_nontrivial_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn bootstrap_works_with_k2_parameters() {
        let fx = &mut fixture(TfheParameters::testing_k2());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), 2 * fx.params.polynomial_size);
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b);
        }
    }

    #[test]
    fn blind_rotate_output_decrypts_under_glwe_key() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let acc = crate::reference::blind_rotate(&fx.bsk, &ct, &lut).unwrap();
        let phase = fx.glwe_sk.decrypt_phase(&acc).unwrap();
        assert!(decode_bool(phase[0]));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(fx.bsk.bootstrap(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(fx.bsk.bootstrap(&ct, &wrong_lut).is_err());
    }

    #[test]
    fn profiled_bootstrap_accounts_blind_rotation_dominant() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut t = StageTimings::new();
        let _ = fx.bsk.bootstrap_batch_profiled(&[PbsJob { ct: &ct, lut: &lut }], &mut t).unwrap();
        // The paper reports ~98% of PBS inside the blind rotation; even
        // at toy sizes it must clearly dominate.
        assert!(t.blind_rotation_fraction() > 0.8, "{}", t.blind_rotation_fraction());
    }

    #[test]
    fn key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = fixture(params.clone());
        assert_eq!(fx.bsk.byte_size(), params.bootstrap_key_bytes());
    }

    #[test]
    fn bool_encoding_round_trip() {
        assert!(decode_bool(encode_bool(true)));
        assert!(!decode_bool(encode_bool(false)));
    }

    #[test]
    fn batched_bootstrap_matches_single_per_job() {
        // Key-major iteration must be arithmetically identical to the
        // ciphertext-major single path — same products, same order of
        // additions per accumulator.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        let cts: Vec<LweCiphertext> = (0..4u64)
            .map(|m| fx.lwe_sk.encrypt(m << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng))
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let batched = fx.bsk.bootstrap_batch(&jobs, 1).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            let single = fx.bsk.bootstrap(job.ct, job.lut).unwrap();
            assert_eq!(out, &single);
        }
        // And the results are still correct.
        for (m, out) in batched.iter().enumerate() {
            let phase = fx.extracted.decrypt_phase(out).unwrap();
            let expected = if m % 2 == 0 { m as u64 } else { ((m * m) % 4) as u64 };
            assert_eq!(decode_message(phase, p + 1), expected, "m={m}");
        }
    }

    #[test]
    fn parallel_bootstrap_is_bit_identical_to_sequential() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        // 7 jobs: does not divide evenly by 2, 3, 4, 5 or 6 threads.
        let cts: Vec<LweCiphertext> = (0..7u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let sequential = fx.bsk.bootstrap_batch(&jobs, 1).unwrap();
        for threads in 1..=8 {
            let parallel = fx.bsk.bootstrap_batch(&jobs, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Degenerate thread counts are clamped, not errors.
        assert_eq!(fx.bsk.bootstrap_batch(&jobs, 0).unwrap(), sequential);
        assert_eq!(fx.bsk.bootstrap_batch(&jobs, 100).unwrap(), sequential);
        assert!(fx.bsk.bootstrap_batch(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn parallel_bootstrap_rejects_shape_mismatch_before_spawning() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch(&jobs, 2).is_err());
    }

    #[test]
    fn scratch_reuse_across_bootstraps_is_bit_identical() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut scratch = fx.bsk.scratch();
        for b in [true, false, true] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let fresh = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let reused = fx.bsk.run(&[PbsJob { ct: &ct, lut: &lut }], &mut scratch, &mut NoProbe);
            assert_eq!(reused, [fresh]);
        }
    }

    #[test]
    #[should_panic(expected = "scratch polynomial size mismatch")]
    fn wrong_scratch_shape_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size * 2,
            fx.bsk.decomposition(),
            PbsKernel::Classical,
        );
        let _ = fx.bsk.run(&[PbsJob { ct: &ct, lut: &lut }], &mut wrong, &mut NoProbe);
    }

    #[test]
    fn batched_bootstrap_rejects_shape_mismatch() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch(&jobs, 1).is_err());
        assert!(fx.bsk.bootstrap_batch(&[], 1).unwrap().is_empty());
    }

    #[test]
    fn benchmark_key_has_real_key_shape_and_runs() {
        let params = TfheParameters::testing_fast();
        let bsk = BootstrapKey::generate_for_benchmark(&params, PbsKernel::Classical);
        assert_eq!(bsk.input_dimension(), params.lwe_dimension);
        assert_eq!(bsk.byte_size(), params.bootstrap_key_bytes());
        // PBS must execute (timing-equivalent arithmetic), whatever the
        // output decrypts to.
        let ct = LweCiphertext::trivial(params.lwe_dimension, encode_bool(true));
        let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
        let out = bsk.bootstrap(&ct, &lut).unwrap();
        assert_eq!(out.dimension(), bsk.output_dimension());
    }

    fn multi_bit_key(fx: &mut Fixture, g: usize) -> BootstrapKey {
        let kernel = PbsKernel::MultiBit { grouping_factor: g };
        BootstrapKey::generate(&fx.lwe_sk, &fx.glwe_sk, &fx.params, kernel, &mut fx.rng)
    }

    #[test]
    fn multi_bit_key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = &mut fixture(params.clone());
        for g in [2usize, 3] {
            let mbsk = multi_bit_key(fx, g);
            assert_eq!(mbsk.kernel(), PbsKernel::MultiBit { grouping_factor: g });
            assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(g), "g={g}");
            assert_eq!(mbsk.input_dimension(), params.lwe_dimension);
            assert_eq!(mbsk.output_dimension(), params.extracted_lwe_dimension());
        }
    }

    #[test]
    fn multi_bit_bootstrap_decrypts_like_classical() {
        // Not bit-identical — a genuinely different kernel — but the
        // decoded messages must agree with the classical path on every
        // input of the message space.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let classical = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let multi_bit = mbsk.bootstrap(&ct, &lut).unwrap();
            let pc = fx.extracted.decrypt_phase(&classical).unwrap();
            let pm = fx.extracted.decrypt_phase(&multi_bit).unwrap();
            assert_eq!(decode_message(pm, p + 1), decode_message(pc, p + 1), "m={m}");
            assert_eq!(decode_message(pm, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn multi_bit_zero_rotation_job_is_exact_passthrough() {
        // A trivial ciphertext with all-zero mask and body skips every
        // group: the accumulator must come back exactly as initialised,
        // bit-identical to what the classical kernel produces.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let grouped = mbsk.bootstrap(&ct, &lut).unwrap();
        let classical = fx.bsk.bootstrap(&ct, &lut).unwrap();
        assert_eq!(grouped, classical);
    }

    #[test]
    fn multi_bit_batch_matches_single_per_job() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let cts: Vec<LweCiphertext> = (0..5u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        let batched = mbsk.bootstrap_batch(&jobs, 1).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            assert_eq!(out, &mbsk.bootstrap(job.ct, job.lut).unwrap());
        }
    }

    #[test]
    fn multi_bit_shape_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(mbsk.bootstrap(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(mbsk.bootstrap(&ct, &wrong_lut).is_err());
    }

    #[test]
    #[should_panic(expected = "scratch grouping factor mismatch")]
    fn multi_bit_wrong_scratch_grouping_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size,
            mbsk.decomposition(),
            PbsKernel::MultiBit { grouping_factor: 3 },
        );
        let _ = mbsk.run(&[PbsJob { ct: &ct, lut: &lut }], &mut wrong, &mut NoProbe);
    }

    #[test]
    fn multi_bit_benchmark_key_has_real_shape_and_runs() {
        let params = TfheParameters::testing_fast();
        for g in [2usize, 3] {
            let kernel = PbsKernel::MultiBit { grouping_factor: g };
            let mbsk = BootstrapKey::generate_for_benchmark(&params, kernel);
            assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(g), "g={g}");
            let ct = LweCiphertext::trivial(params.lwe_dimension, encode_bool(true));
            let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
            let out = mbsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), mbsk.output_dimension());
        }
    }
}
