//! Gate bootstrapping: boolean logic with one PBS (+ keyswitch) per gate.
//!
//! Booleans are encoded as `±1/8` on the torus. A gate computes a small
//! linear combination of its input ciphertexts plus a constant offset,
//! then applies a sign-LUT PBS that maps positive phases to `+1/8` and
//! negative phases to `−1/8` (via negacyclic wrap-around), and finally
//! keyswitches back to the `n`-dimension key. This is the workload of
//! the paper's Fig. 1 breakdown and the gate-level benchmarks.

use crate::bootstrap::{decode_bool, encode_bool, Lut, PbsJob};
use crate::keys::{ClientKey, ServerKey};
use crate::lwe::LweCiphertext;
use crate::profiler::{PbsStage, StageTimings};
use crate::torus::encode_fraction;
use crate::TfheError;

/// An encrypted boolean (LWE ciphertext of dimension `n` with `±1/8`
/// encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoolCiphertext {
    pub(crate) ct: LweCiphertext,
}

impl BoolCiphertext {
    /// A trivial (noiseless, insecure) encryption of a known boolean.
    pub fn trivial(dimension: usize, value: bool) -> Self {
        Self { ct: LweCiphertext::trivial(dimension, encode_bool(value)) }
    }

    /// Borrow of the underlying LWE ciphertext.
    #[inline]
    pub fn as_lwe(&self) -> &LweCiphertext {
        &self.ct
    }

    /// Consumes into the underlying LWE ciphertext.
    #[inline]
    pub fn into_lwe(self) -> LweCiphertext {
        self.ct
    }
}

impl ClientKey {
    /// Encrypts a boolean.
    pub fn encrypt_bool(&mut self, value: bool) -> BoolCiphertext {
        BoolCiphertext { ct: self.encrypt_torus(encode_bool(value)) }
    }

    /// Decrypts a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension matches neither client key
    /// (programming error in the pipeline).
    pub fn decrypt_bool(&self, ct: &BoolCiphertext) -> bool {
        // lint:allow(panic) ciphertext was produced under this key's dimension
        let phase = self.decrypt_phase(&ct.ct).expect("boolean ciphertext dimension");
        decode_bool(phase)
    }
}

/// The linear pre-processing of a binary gate: `w1·c1 + w2·c2 + offset`.
///
/// Recipes are public so schedulers can evaluate a gate as one batched
/// runtime request (linear preamble, then the shared [`gate_sign_lut`]
/// bootstrap, then keyswitch) instead of calling [`ServerKey`] methods
/// synchronously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateRecipe {
    /// Weight of the first input ciphertext.
    pub w1: i64,
    /// Weight of the second input ciphertext.
    pub w2: i64,
    /// Offset numerator in eighths of the torus.
    pub offset_eighths: i64,
}

impl GateRecipe {
    /// The recipe's constant offset as a torus element.
    #[inline]
    pub fn offset(self) -> u64 {
        encode_fraction(self.offset_eighths, 3)
    }

    /// The two input weights as a slice-friendly array.
    #[inline]
    pub fn weights(self) -> [i64; 2] {
        [self.w1, self.w2]
    }

    /// Worst-case distance from this recipe's noiseless output phase to
    /// the nearest sign-LUT decision boundary, in torus units — the
    /// numerator of the recipe's noise margin.
    ///
    /// The sign LUT decides on half-torus boxes, so its boundaries sit
    /// at 0 and 1/2. Unit-weight recipes (AND, OR, NAND, NOR) place
    /// every outcome ±1/8 from a boundary; the ±2-weight recipes (XOR,
    /// XNOR) double the noise amplitude but also place their outcomes
    /// ±1/4 from a boundary, which is why all six gates share one noise
    /// budget. Computed by enumerating the four input combinations
    /// rather than hard-coded, so a new recipe is automatically scored
    /// by what its offsets actually achieve.
    pub fn decision_distance(self) -> f64 {
        let mut min_distance = f64::INFINITY;
        for (a, b) in [(-1i64, -1i64), (-1, 1), (1, -1), (1, 1)] {
            // Noiseless phase in eighths of the torus: inputs encode at
            // ±1/8.
            let eighths = self.w1 * a + self.w2 * b + self.offset_eighths;
            // Distance to the nearest multiple of 1/2 (= 4 eighths).
            let within_box = eighths.rem_euclid(4);
            let distance_eighths = within_box.min(4 - within_box);
            min_distance = min_distance.min(distance_eighths as f64 / 8.0);
        }
        min_distance
    }
}

/// The two-input boolean gates evaluable with one sign-LUT bootstrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryGate {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
}

impl BinaryGate {
    /// Every gate, in a fixed order (useful for exhaustive tests).
    pub const ALL: [BinaryGate; 6] = [
        BinaryGate::And,
        BinaryGate::Or,
        BinaryGate::Nand,
        BinaryGate::Nor,
        BinaryGate::Xor,
        BinaryGate::Xnor,
    ];

    /// The gate's linear pre-processing recipe.
    pub fn recipe(self) -> GateRecipe {
        match self {
            BinaryGate::And => GateRecipe { w1: 1, w2: 1, offset_eighths: -1 },
            BinaryGate::Or => GateRecipe { w1: 1, w2: 1, offset_eighths: 1 },
            BinaryGate::Nand => GateRecipe { w1: -1, w2: -1, offset_eighths: 1 },
            BinaryGate::Nor => GateRecipe { w1: -1, w2: -1, offset_eighths: -1 },
            BinaryGate::Xor => GateRecipe { w1: 2, w2: 2, offset_eighths: 2 },
            BinaryGate::Xnor => GateRecipe { w1: -2, w2: -2, offset_eighths: -2 },
        }
    }

    /// The plaintext truth table.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BinaryGate::And => a & b,
            BinaryGate::Or => a | b,
            BinaryGate::Nand => !(a & b),
            BinaryGate::Nor => !(a | b),
            BinaryGate::Xor => a ^ b,
            BinaryGate::Xnor => !(a ^ b),
        }
    }
}

impl std::fmt::Display for BinaryGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BinaryGate::And => "and",
            BinaryGate::Or => "or",
            BinaryGate::Nand => "nand",
            BinaryGate::Nor => "nor",
            BinaryGate::Xor => "xor",
            BinaryGate::Xnor => "xnor",
        };
        f.write_str(name)
    }
}

/// The sign LUT shared by every gate bootstrap: positive phases map to
/// `+1/8`, negative phases to `−1/8` (negacyclic wrap-around).
pub fn gate_sign_lut(poly_size: usize) -> Lut {
    Lut::sign(poly_size, encode_fraction(1, 3))
}

impl ServerKey {
    fn sign_lut(&self) -> Lut {
        gate_sign_lut(self.params.polynomial_size)
    }

    fn gate_linear(
        &self,
        recipe: GateRecipe,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<LweCiphertext, TfheError> {
        let mut acc = a.ct.clone();
        acc.scalar_mul_assign(recipe.w1);
        acc.add_scaled_assign(&b.ct, recipe.w2)?;
        acc.plaintext_add_assign(encode_fraction(recipe.offset_eighths, 3));
        Ok(acc)
    }

    /// Evaluates any two-input [`BinaryGate`]: the recipe's linear
    /// combination, the shared sign-LUT bootstrap, then a keyswitch
    /// back to the `n`-dimension key.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the inputs come from
    /// a different parameter set.
    pub fn binary_gate(
        &self,
        gate: BinaryGate,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        let sum = self.gate_linear(gate.recipe(), a, b)?;
        let boot = self.bsk.bootstrap(&sum, &self.sign_lut())?;
        Ok(BoolCiphertext { ct: self.ksk.keyswitch(&boot)? })
    }

    /// Homomorphic AND.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the inputs come from
    /// a different parameter set.
    pub fn and(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::And, a, b)
    }

    /// Homomorphic OR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn or(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Or, a, b)
    }

    /// Homomorphic NAND (the universal gate of the original TFHE demo).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nand(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Nand, a, b)
    }

    /// Homomorphic NOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nor(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Nor, a, b)
    }

    /// Homomorphic XOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn xor(&self, a: &BoolCiphertext, b: &BoolCiphertext) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Xor, a, b)
    }

    /// Homomorphic XNOR.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn xnor(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        self.binary_gate(BinaryGate::Xnor, a, b)
    }

    /// Homomorphic NOT — a negation of the ciphertext, with no
    /// bootstrap (and therefore no noise refresh).
    pub fn not(&self, a: &BoolCiphertext) -> BoolCiphertext {
        let mut ct = a.ct.clone();
        ct.negate();
        BoolCiphertext { ct }
    }

    /// Homomorphic multiplexer: `if sel { a } else { b }`, using two PBS
    /// and one shared keyswitch (the standard TFHE MUX circuit).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn mux(
        &self,
        sel: &BoolCiphertext,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
    ) -> Result<BoolCiphertext, TfheError> {
        let lut = self.sign_lut();
        // u1 = sel AND a (pre-keyswitch), u2 = (NOT sel) AND b.
        let u1_in = self.gate_linear(BinaryGate::And.recipe(), sel, a)?;
        let u1 = self.bsk.bootstrap(&u1_in, &lut)?;
        let not_sel = self.not(sel);
        let u2_in = self.gate_linear(BinaryGate::And.recipe(), &not_sel, b)?;
        let u2 = self.bsk.bootstrap(&u2_in, &lut)?;
        // sel·a and ¬sel·b are mutually exclusive: their sum plus 1/8
        // re-centres onto the ±1/8 encoding.
        let mut sum = u1;
        sum.add_assign(&u2)?;
        sum.plaintext_add_assign(encode_fraction(1, 3));
        Ok(BoolCiphertext { ct: self.ksk.keyswitch(&sum)? })
    }

    /// A profiled NAND gate, recording the Fig.-1 stage breakdown
    /// (linear ops, blind-rotation stages, sample extract, keyswitch).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on parameter mismatch.
    pub fn nand_profiled(
        &self,
        a: &BoolCiphertext,
        b: &BoolCiphertext,
        timings: &mut StageTimings,
    ) -> Result<BoolCiphertext, TfheError> {
        let t0 = std::time::Instant::now();
        let sum = self.gate_linear(BinaryGate::Nand.recipe(), a, b)?;
        timings.add(PbsStage::LinearOps, t0.elapsed());
        let lut = self.sign_lut();
        let mut boot =
            self.bsk.bootstrap_batch_profiled(&[PbsJob { ct: &sum, lut: &lut }], timings)?;
        // lint:allow(panic) the driver returns one output per job
        let boot = boot.pop().expect("one job in, one output out");
        let switched = self.ksk.keyswitch_profiled(&boot, timings)?;
        Ok(BoolCiphertext { ct: switched })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate_keys;
    use crate::params::TfheParameters;

    fn fixture() -> (ClientKey, ServerKey) {
        generate_keys(&TfheParameters::testing_fast(), 555)
    }

    #[test]
    fn truth_tables_two_input_gates() {
        let (mut client, server) = fixture();
        type Gate =
            fn(&ServerKey, &BoolCiphertext, &BoolCiphertext) -> Result<BoolCiphertext, TfheError>;
        type GateRow = (&'static str, Gate, fn(bool, bool) -> bool);
        let gates: [GateRow; 6] = [
            ("and", ServerKey::and, |x, y| x & y),
            ("or", ServerKey::or, |x, y| x | y),
            ("nand", ServerKey::nand, |x, y| !(x & y)),
            ("nor", ServerKey::nor, |x, y| !(x | y)),
            ("xor", ServerKey::xor, |x, y| x ^ y),
            ("xnor", ServerKey::xnor, |x, y| !(x ^ y)),
        ];
        for (name, gate, model) in gates {
            for x in [false, true] {
                for y in [false, true] {
                    let cx = client.encrypt_bool(x);
                    let cy = client.encrypt_bool(y);
                    let out = gate(&server, &cx, &cy).unwrap();
                    assert_eq!(client.decrypt_bool(&out), model(x, y), "{name}({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn binary_gate_dispatch_matches_eval_model() {
        let (mut client, server) = fixture();
        for gate in BinaryGate::ALL {
            for x in [false, true] {
                for y in [false, true] {
                    let cx = client.encrypt_bool(x);
                    let cy = client.encrypt_bool(y);
                    let out = server.binary_gate(gate, &cx, &cy).unwrap();
                    assert_eq!(client.decrypt_bool(&out), gate.eval(x, y), "{gate}({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn recipe_offsets_encode_eighths() {
        let and = BinaryGate::And.recipe();
        assert_eq!(and.weights(), [1, 1]);
        assert_eq!(and.offset(), (1u64 << 61).wrapping_neg());
        assert_eq!(BinaryGate::Or.recipe().offset(), 1u64 << 61);
        assert_eq!(BinaryGate::Xor.to_string(), "xor");
    }

    #[test]
    fn not_gate_is_noise_free_negation() {
        let (mut client, server) = fixture();
        for v in [false, true] {
            let c = client.encrypt_bool(v);
            assert_eq!(client.decrypt_bool(&server.not(&c)), !v);
        }
    }

    #[test]
    fn mux_selects_correct_branch() {
        let (mut client, server) = fixture();
        for sel in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let cs = client.encrypt_bool(sel);
                    let ca = client.encrypt_bool(a);
                    let cb = client.encrypt_bool(b);
                    let out = server.mux(&cs, &ca, &cb).unwrap();
                    let expected = if sel { a } else { b };
                    assert_eq!(client.decrypt_bool(&out), expected, "mux({sel},{a},{b})");
                }
            }
        }
    }

    #[test]
    fn gates_compose_into_a_circuit() {
        // Full adder: sum = a ⊕ b ⊕ cin, carry = maj(a, b, cin).
        let (mut client, server) = fixture();
        for bits in 0..8u8 {
            let (a, b, cin) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let ca = client.encrypt_bool(a);
            let cb = client.encrypt_bool(b);
            let cc = client.encrypt_bool(cin);
            let ab = server.xor(&ca, &cb).unwrap();
            let sum = server.xor(&ab, &cc).unwrap();
            let carry = {
                let t1 = server.and(&ca, &cb).unwrap();
                let t2 = server.and(&ab, &cc).unwrap();
                server.or(&t1, &t2).unwrap()
            };
            assert_eq!(client.decrypt_bool(&sum), a ^ b ^ cin, "sum {bits:03b}");
            assert_eq!(client.decrypt_bool(&carry), (a & b) | ((a ^ b) & cin), "carry {bits:03b}");
        }
    }

    #[test]
    fn trivial_bool_ciphertexts_work_as_gate_inputs() {
        let (client, server) = fixture();
        let t = BoolCiphertext::trivial(server.params().lwe_dimension, true);
        let f = BoolCiphertext::trivial(server.params().lwe_dimension, false);
        let out = server.and(&t, &f).unwrap();
        assert!(!client.decrypt_bool(&out));
    }

    #[test]
    fn profiled_nand_matches_paper_breakdown_shape() {
        let (mut client, server) = fixture();
        let a = client.encrypt_bool(true);
        let b = client.encrypt_bool(true);
        let mut t = StageTimings::new();
        let out = server.nand_profiled(&a, &b, &mut t).unwrap();
        assert!(!client.decrypt_bool(&out));
        // PBS dominates, keyswitch is visible, linear ops are small —
        // the qualitative shape of Fig. 1.
        assert!(t.pbs_fraction() > 0.5, "pbs fraction {}", t.pbs_fraction());
        assert!(t.fraction(PbsStage::KeySwitch) > 0.0);
        assert!(t.fraction(PbsStage::LinearOps) < 0.2);
    }
}
