//! Simulation errors.

/// Error type of the simulation crate.
///
/// Marked `#[non_exhaustive]`: downstream crates (the serving engine in
/// particular) gain new failure modes over time, so matches must carry a
/// wildcard arm and adding a variant is not a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The model cannot be partitioned across the requested cluster.
    Partition(String),
    /// The homogeneous cores diverged (a simulator invariant violation).
    LockstepViolation(String),
    /// Invalid workload or configuration.
    InvalidRequest(String),
    /// The request-serving engine failed (bad arrival process, empty
    /// backend pool, malformed statistics input, ...).
    Service(String),
    /// A device-memory budget was exceeded (a K/V claim past the free
    /// HBM, or an executor writing past its own reservation).
    Memory(String),
    /// A functional core faulted on its program or weights.
    Exec(dfx_core::ExecError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Partition(m) => write!(f, "partitioning failed: {m}"),
            SimError::LockstepViolation(m) => write!(f, "lockstep violation: {m}"),
            SimError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            SimError::Service(m) => write!(f, "serving failed: {m}"),
            SimError::Memory(m) => write!(f, "memory budget exceeded: {m}"),
            SimError::Exec(e) => write!(f, "functional core fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<dfx_core::ExecError> for SimError {
    fn from(e: dfx_core::ExecError) -> Self {
        SimError::Exec(e)
    }
}
