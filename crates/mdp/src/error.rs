use std::error::Error;
use std::fmt;

use dpm_ctmc::CtmcError;
use dpm_linalg::LinalgError;
use dpm_lp::LpError;

/// Error type for MDP construction and solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MdpError {
    /// A state index was out of range.
    StateOutOfRange {
        /// Offending index.
        state: usize,
        /// Number of states in the process.
        n_states: usize,
    },
    /// A state has no actions, so no policy can be formed.
    NoActions {
        /// The action-less state.
        state: usize,
    },
    /// An action specification was rejected.
    InvalidAction {
        /// The state the action was attached to.
        state: usize,
        /// Explanation.
        reason: String,
    },
    /// A policy does not match the process (wrong length, bad action index).
    InvalidPolicy {
        /// Explanation.
        reason: String,
    },
    /// A solver parameter was invalid.
    InvalidParameter {
        /// Explanation.
        reason: String,
    },
    /// The policy induces a chain with more than one closed class
    /// (multichain), outside the unichain assumption. The discrete-time
    /// evaluator infers this from singular evaluation equations.
    NotUnichain {
        /// The policy-iteration step at which evaluation failed.
        iteration: usize,
    },
    /// An iterative solver failed to converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
    },
    /// The LP formulation reported infeasibility (e.g. an unattainable
    /// performance constraint).
    Infeasible,
    /// A chain-level analysis failed.
    Chain(CtmcError),
    /// A numerical step failed.
    Numerical(LinalgError),
    /// The LP substrate failed.
    Lp(LpError),
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::StateOutOfRange { state, n_states } => {
                write!(
                    f,
                    "state {state} out of range for process with {n_states} states"
                )
            }
            MdpError::NoActions { state } => write!(f, "state {state} has no actions"),
            MdpError::InvalidAction { state, reason } => {
                write!(f, "invalid action at state {state}: {reason}")
            }
            MdpError::InvalidPolicy { reason } => write!(f, "invalid policy: {reason}"),
            MdpError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            MdpError::NotUnichain { iteration } => write!(
                f,
                "policy at iteration {iteration} has more than one closed class; policy is not unichain"
            ),
            MdpError::NotConverged { iterations } => {
                write!(f, "solver did not converge within {iterations} iterations")
            }
            MdpError::Infeasible => write!(f, "policy optimization problem is infeasible"),
            MdpError::Chain(e) => write!(f, "chain analysis failed: {e}"),
            MdpError::Numerical(e) => write!(f, "numerical failure: {e}"),
            MdpError::Lp(e) => write!(f, "LP solver failure: {e}"),
        }
    }
}

impl Error for MdpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MdpError::Chain(e) => Some(e),
            MdpError::Numerical(e) => Some(e),
            MdpError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CtmcError> for MdpError {
    fn from(e: CtmcError) -> Self {
        MdpError::Chain(e)
    }
}

impl From<LinalgError> for MdpError {
    fn from(e: LinalgError) -> Self {
        MdpError::Numerical(e)
    }
}

impl From<LpError> for MdpError {
    fn from(e: LpError) -> Self {
        MdpError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(MdpError::NoActions { state: 2 }.to_string().contains('2'));
        assert!(MdpError::Infeasible.to_string().contains("infeasible"));
    }

    #[test]
    fn sources_chain_through() {
        let e = MdpError::from(LinalgError::Singular { pivot: 1 });
        assert!(Error::source(&e).is_some());
        let e = MdpError::from(LpError::EmptyProblem);
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MdpError>();
    }
}
