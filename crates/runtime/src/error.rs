//! Runtime error type.

use strix_tfhe::TfheError;

/// Errors surfaced by the streaming runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// The runtime has shut down and no further requests are accepted
    /// (or no further responses will arrive).
    Shutdown,
    /// The underlying homomorphic operation failed.
    Tfhe(TfheError),
    /// The request got no result: its epoch's executor panicked or
    /// returned too few results, or
    /// [`recv_timeout`](crate::ClientHandle::recv_timeout) ran out of
    /// time. The runtime keeps serving either way.
    Lost,
    /// A dataflow program is malformed (bad wire reference, input
    /// count mismatch, weight arity mismatch).
    Program(&'static str),
    /// The static noise analyzer rejected a program at admission: some
    /// request node's predicted decision margin falls below the
    /// executor's threshold, so a decryption error would be likelier
    /// than the service guarantees. Raised before any request of the
    /// session is enqueued.
    NoiseBudgetExceeded {
        /// Index of the offending program node.
        node: usize,
        /// Predicted decision margin at that node, in standard
        /// deviations of the accumulated noise.
        margin_sigmas: f64,
        /// Minimum margin the admission policy requires.
        threshold_sigmas: f64,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Shutdown => write!(f, "runtime has shut down"),
            RuntimeError::Tfhe(e) => write!(f, "homomorphic operation failed: {e}"),
            RuntimeError::Lost => write!(f, "request was lost by the worker pool"),
            RuntimeError::Program(why) => write!(f, "malformed dataflow program: {why}"),
            RuntimeError::NoiseBudgetExceeded { node, margin_sigmas, threshold_sigmas } => write!(
                f,
                "noise budget exceeded: program node {node} has a predicted decision margin \
                 of {margin_sigmas:.2} sigmas, below the admission threshold of \
                 {threshold_sigmas:.2} sigmas"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Tfhe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TfheError> for RuntimeError {
    fn from(e: TfheError) -> Self {
        RuntimeError::Tfhe(e)
    }
}
