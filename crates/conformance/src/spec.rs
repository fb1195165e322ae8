//! Configuration vocabulary of the harness: which arithmetics, which
//! backends, what to corrupt, and the error type.

use problp_ac::Semiring;
use problp_num::{FixedFormat, FloatFormat};

// The arithmetic-naming vocabulary moved into `problp-num` so that the
// static analyses of `problp-verify` and this harness speak the same
// `f64 | fixed:I.F | float:E.M` grammar; re-exported here so existing
// `problp_conformance::ArithSpec` callers keep compiling.
pub use problp_num::ArithSpec;

/// One of the seven result streams the harness compares.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BackendKind {
    /// The scalar tree-walk reference, [`problp_ac::AcGraph::evaluate_nodes`].
    Scalar,
    /// The compact execution tape, [`problp_engine::Tape::compile`],
    /// through the scalar reference kernel.
    TapeCompact,
    /// The full-values execution tape, [`problp_engine::Tape::compile_full`],
    /// through the scalar reference kernel.
    TapeFull,
    /// The compact tape through the fused superinstruction stream
    /// ([`problp_engine::Tape::fuse`], `MulAcc` + `Reduce` enabled).
    FusedCompact,
    /// The full-values tape through the fused stream (chain collapse
    /// only — `MulAcc` is compact-mode-only by construction).
    FusedFull,
    /// The sequential ALU schedule, [`problp_hw::Schedule`].
    Schedule,
    /// The cycle-accurate pipelined datapath, [`problp_hw::PipelineSim`].
    Pipeline,
}

impl BackendKind {
    /// Every backend, in report order (the reference first).
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Scalar,
        BackendKind::TapeCompact,
        BackendKind::TapeFull,
        BackendKind::FusedCompact,
        BackendKind::FusedFull,
        BackendKind::Schedule,
        BackendKind::Pipeline,
    ];

    /// The backend's short CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::TapeCompact => "tape",
            BackendKind::TapeFull => "tape-full",
            BackendKind::FusedCompact => "fused-compact",
            BackendKind::FusedFull => "fused-full",
            BackendKind::Schedule => "schedule",
            BackendKind::Pipeline => "pipeline",
        }
    }

    /// Parses a short name as printed by [`BackendKind::name`].
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == name)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The short report name of a semiring.
pub fn semiring_name(semiring: Semiring) -> &'static str {
    match semiring {
        Semiring::SumProduct => "sum-product",
        Semiring::MaxProduct => "max-product",
        Semiring::MinProduct => "min-product",
    }
}

/// Knobs of one conformance run.
#[derive(Clone, Debug)]
pub struct ConformanceConfig {
    /// Evidence lanes per case.
    pub batch: usize,
    /// Seed of the per-model evidence batches (and of any generated
    /// models); the same seed reproduces the same lanes.
    pub seed: u64,
    /// Arithmetics to cross-check (each is a separate case).
    pub ariths: Vec<ArithSpec>,
    /// Semirings to cross-check. The hardware backends only join
    /// [`Semiring::SumProduct`] cases (the datapath has no max/min
    /// operators).
    pub semirings: Vec<Semiring>,
    /// Test-only fault injection: flip the low bit of lane 0 in this
    /// backend's stream before comparison, in every case. A harness that
    /// does not go red under injection is not checking anything.
    pub inject_fault: Option<BackendKind>,
    /// Test-only fault injection for the static/runtime flag
    /// cross-check: pretend this backend raised a runtime range flag in
    /// every case, so a statically-safe case must go red.
    pub inject_flag_fault: Option<BackendKind>,
    /// Test-only fault injection for the other direction of the flag
    /// cross-check: report every case as statically provably-safe
    /// regardless of what the range analysis concluded, so a case whose
    /// runtime genuinely flags must go red.
    pub force_static_safe: bool,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            batch: 64,
            seed: 7,
            ariths: vec![
                ArithSpec::F64,
                ArithSpec::Fixed(FixedFormat::new(2, 14).expect("valid format")),
                ArithSpec::Float(FloatFormat::new(8, 13).expect("valid format")),
                // Half precision's narrow exponent range underflows on
                // the random models: the case that exercises the
                // word lanes' underflow and overflow flags.
                ArithSpec::Float(FloatFormat::new(5, 10).expect("valid format")),
            ],
            semirings: vec![
                Semiring::SumProduct,
                Semiring::MaxProduct,
                Semiring::MinProduct,
            ],
            inject_fault: None,
            inject_flag_fault: None,
            force_static_safe: false,
        }
    }
}

/// Errors of a conformance run: any backend failing to build or evaluate
/// is itself a conformance failure, reported with the source error.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ConformanceError {
    /// Circuit compilation or scalar evaluation failed.
    Ac(problp_ac::AcError),
    /// Netlist construction or a hardware executor failed.
    Hw(problp_hw::HwError),
    /// Tape compilation or an engine sweep failed.
    Engine(problp_engine::EngineError),
    /// Evidence-batch construction failed.
    Bayes(problp_bayes::BayesError),
    /// The static verifier rejected a tape the harness was about to
    /// range-analyze — the tape itself is malformed.
    Verify(problp_engine::VerifyError),
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::Ac(e) => write!(f, "circuit backend failed: {e}"),
            ConformanceError::Hw(e) => write!(f, "hardware backend failed: {e}"),
            ConformanceError::Engine(e) => write!(f, "engine backend failed: {e}"),
            ConformanceError::Bayes(e) => write!(f, "evidence construction failed: {e}"),
            ConformanceError::Verify(e) => {
                write!(f, "static verification rejected a tape: {e}")
            }
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<problp_ac::AcError> for ConformanceError {
    fn from(e: problp_ac::AcError) -> Self {
        ConformanceError::Ac(e)
    }
}

impl From<problp_hw::HwError> for ConformanceError {
    fn from(e: problp_hw::HwError) -> Self {
        ConformanceError::Hw(e)
    }
}

impl From<problp_engine::EngineError> for ConformanceError {
    fn from(e: problp_engine::EngineError) -> Self {
        ConformanceError::Engine(e)
    }
}

impl From<problp_bayes::BayesError> for ConformanceError {
    fn from(e: problp_bayes::BayesError) -> Self {
        ConformanceError::Bayes(e)
    }
}

impl From<problp_engine::VerifyError> for ConformanceError {
    fn from(e: problp_engine::VerifyError) -> Self {
        ConformanceError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_spec_round_trips_through_parse() {
        for spec in ["f64", "fixed:2.14", "float:8.13"] {
            let parsed = ArithSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
        }
        assert_eq!(ArithSpec::parse("fixed:2"), None);
        assert_eq!(ArithSpec::parse("decimal:1.2"), None);
        assert_eq!(ArithSpec::parse("fixed:0.0"), None, "zero-width format");
    }

    #[test]
    fn backend_names_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.name()), Some(b));
        }
        assert_eq!(BackendKind::parse("verilog"), None);
    }
}
