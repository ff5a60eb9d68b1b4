//! Faults of the functional executor.

use dfx_isa::TensorRef;

/// Why a functional core could not execute a program. The hardware would
/// raise these as faults; the simulator reports them as values so a
/// malformed program or model surfaces as an error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// The model does not divide evenly over the cluster.
    Partition(String),
    /// A tensor reference names the wrong kind of tensor for its use.
    WrongTensor {
        /// The offending reference.
        tensor: TensorRef,
        /// What the instruction needed there.
        expected: &'static str,
    },
    /// An index past the data held: a layer, a K/V head, a token id, or a
    /// register slice past the elements written so far.
    OutOfRange(String),
    /// Operand widths or shapes disagree with the instruction geometry.
    Shape(String),
    /// An instruction lacks an operand its kind requires.
    MissingOperand(&'static str),
    /// An instruction the functional model does not execute.
    Unsupported(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Partition(m) => write!(f, "partitioning failed: {m}"),
            ExecError::WrongTensor { tensor, expected } => {
                write!(f, "{tensor} is not a {expected}")
            }
            ExecError::OutOfRange(m) => write!(f, "out of range: {m}"),
            ExecError::Shape(m) => write!(f, "shape mismatch: {m}"),
            ExecError::MissingOperand(m) => write!(f, "missing operand: {m}"),
            ExecError::Unsupported(m) => write!(f, "unsupported instruction: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}
