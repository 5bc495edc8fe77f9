use std::error::Error;
use std::fmt;

use ohmflow_linalg::LinalgError;

/// Errors produced by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A device parameter is invalid (zero or NaN resistance, …).
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// An element id does not refer to an element of the expected kind.
    WrongElementKind {
        /// What the caller expected.
        expected: &'static str,
    },
    /// The MNA system is singular — usually a floating node or an
    /// inconsistent source loop.
    SingularSystem {
        /// Underlying factorization failure.
        source: LinalgError,
    },
    /// Diode state iteration failed to reach a consistent state
    /// assignment.
    StateIterationDiverged {
        /// Simulation time at which iteration gave up (seconds; `0.0` for DC).
        time: f64,
        /// Number of state iterations attempted.
        iterations: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CircuitError::WrongElementKind { expected } => {
                write!(f, "element is not a {expected}")
            }
            CircuitError::SingularSystem { source } => {
                write!(
                    f,
                    "singular MNA system ({source}); check for floating nodes"
                )
            }
            CircuitError::StateIterationDiverged { time, iterations } => write!(
                f,
                "diode state iteration diverged at t={time:.3e}s after {iterations} iterations"
            ),
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CircuitError::SingularSystem { source } => Some(source),
            _ => None,
        }
    }
}

impl From<LinalgError> for CircuitError {
    fn from(source: LinalgError) -> Self {
        CircuitError::SingularSystem { source }
    }
}
