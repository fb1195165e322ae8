//! Error types for the execution engine.

use problp_ac::{AcError, Semiring};

use crate::verify::VerifyError;

/// Errors produced by tape compilation and batch evaluation.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The source circuit was invalid (no root, bad children, ...).
    Circuit(AcError),
    /// The evidence batch ranges over the wrong number of variables.
    BatchLengthMismatch {
        /// Variables in the batch.
        batch: usize,
        /// Variables in the compiled circuit.
        circuit: usize,
    },
    /// An observed evidence state is not a state of its variable.
    StateOutOfRange {
        /// The offending variable index.
        var: usize,
        /// The observed state.
        state: usize,
        /// The variable's number of states.
        arity: usize,
    },
    /// The operation reads per-node values and needs a full-values tape
    /// (`Tape::compile_full` / `Engine::from_graph_full`).
    NeedsFullValues,
    /// The operation needs a tape compiled under a different semiring.
    SemiringMismatch {
        /// The semiring the operation requires.
        expected: Semiring,
        /// The semiring the tape was compiled for.
        actual: Semiring,
    },
    /// The query variable is outside the compiled circuit's variable
    /// range.
    QueryVarOutOfRange {
        /// The offending variable index.
        var: usize,
        /// Variables in the compiled circuit.
        vars: usize,
    },
    /// A shard worker panicked during a batched evaluation. The batch's
    /// results are lost, but the engine itself is untouched and can keep
    /// serving — a serving layer should fail the affected requests, not
    /// the process.
    WorkerPanic {
        /// The panic payload, rendered to a string when possible.
        message: String,
    },
    /// The static tape verifier rejected an instruction stream
    /// ([`crate::Tape::verify`] / [`crate::Tape::verify_fused`]); raised
    /// by debug-build compilation and by the [`crate::CircuitPool`]
    /// admission gate.
    Verify(VerifyError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Circuit(e) => write!(f, "circuit error: {e}"),
            EngineError::BatchLengthMismatch { batch, circuit } => write!(
                f,
                "evidence batch ranges over {batch} variables but the circuit has {circuit}"
            ),
            EngineError::StateOutOfRange { var, state, arity } => write!(
                f,
                "evidence observes state {state} of variable {var}, which has {arity} states"
            ),
            EngineError::NeedsFullValues => write!(
                f,
                "operation reads per-node values and needs a full-values tape \
                 (compile with Tape::compile_full)"
            ),
            EngineError::SemiringMismatch { expected, actual } => write!(
                f,
                "operation needs a {expected:?} tape but this one was compiled for {actual:?}"
            ),
            EngineError::QueryVarOutOfRange { var, vars } => write!(
                f,
                "query variable {var} out of range for a circuit over {vars} variables"
            ),
            EngineError::WorkerPanic { message } => {
                write!(f, "a batch evaluation worker panicked: {message}")
            }
            EngineError::Verify(e) => write!(f, "tape failed static verification: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Circuit(e) => Some(e),
            EngineError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AcError> for EngineError {
    fn from(e: AcError) -> Self {
        EngineError::Circuit(e)
    }
}

impl From<VerifyError> for EngineError {
    fn from(e: VerifyError) -> Self {
        EngineError::Verify(e)
    }
}

/// Renders a panic payload (as returned by [`std::thread::JoinHandle::join`]
/// or [`std::panic::catch_unwind`]) into a human-readable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Folds a list of shard join results into either the merged worker
/// outputs or the first panic, surfaced as [`EngineError::WorkerPanic`].
/// Every handle must already be joined (so no panic is left to tear down
/// a [`std::thread::scope`]) before this runs.
pub(crate) fn collect_worker_results<T>(
    joined: Vec<std::thread::Result<T>>,
) -> Result<Vec<T>, EngineError> {
    let mut out = Vec::with_capacity(joined.len());
    let mut panic: Option<String> = None;
    for r in joined {
        match r {
            Ok(v) => out.push(v),
            Err(p) => panic = panic.or(Some(panic_message(p))),
        }
    }
    match panic {
        Some(message) => Err(EngineError::WorkerPanic { message }),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = AcError::MissingRoot.into();
        assert!(matches!(e, EngineError::Circuit(_)));
        let e = EngineError::BatchLengthMismatch {
            batch: 3,
            circuit: 5,
        };
        assert!(e.to_string().contains("3 variables"));
        let e = EngineError::WorkerPanic {
            message: "boom".to_string(),
        };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn panic_payloads_render() {
        assert_eq!(panic_message(Box::new("str panic")), "str panic");
        assert_eq!(
            panic_message(Box::new("owned panic".to_string())),
            "owned panic"
        );
        assert_eq!(panic_message(Box::new(42u32)), "opaque panic payload");
    }

    #[test]
    fn worker_results_surface_the_first_panic() {
        let joined: Vec<std::thread::Result<u32>> =
            vec![Ok(1), Err(Box::new("first")), Err(Box::new("second"))];
        match collect_worker_results(joined) {
            Err(EngineError::WorkerPanic { message }) => assert_eq!(message, "first"),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let ok: Vec<std::thread::Result<u32>> = vec![Ok(1), Ok(2)];
        assert_eq!(collect_worker_results(ok).unwrap(), vec![1, 2]);
    }
}
