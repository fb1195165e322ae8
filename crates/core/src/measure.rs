//! Test-set error measurement (the `Max error observed on test-set`
//! column of Table 2 and the observed curves of Fig. 5).
//!
//! Bulk evaluation routes through the batched execution engine
//! (`problp-engine`): the whole test set is packed into one columnar
//! [`EvidenceBatch`] and evaluated per tape sweep, once in exact `f64`
//! and once in the low-precision representation. Conditional queries run
//! one denominator batch plus one numerator batch per query state, with
//! the final ratio taken outside the AC (paper §3.2.2). Tape evaluation
//! is bit-identical to the scalar tree-walk this module used before the
//! engine existed (pinned by `problp-engine`'s property tests), so the
//! reported statistics are unchanged — just measured much faster.
//!
//! The low-precision engine runs in the context
//! [`problp_engine::visit_arith`] picks: a word-lane context for formats
//! that fit one machine word, the soft [`problp_num::FixedArith`] /
//! [`problp_num::FloatArith`] otherwise. Both give the same values and
//! flags bit for bit, so [`measure_errors`] returns the same
//! [`ErrorStats`] as [`measure_errors_with`] in the soft context.

use problp_ac::{AcError, AcGraph, Semiring};
use problp_bayes::{Evidence, EvidenceBatch, VarId};
use problp_bounds::QueryType;
use problp_engine::{visit_arith, ArithVisitor, Engine, EngineError, KernelSet, Tape};
use problp_num::{F64Arith, Flags, Representation};

use crate::error::CoreError;

/// Aggregated error statistics over a test set.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ErrorStats {
    /// Largest observed absolute error.
    pub max_abs: f64,
    /// Mean observed absolute error.
    pub mean_abs: f64,
    /// Largest observed relative error (over outputs with non-zero exact
    /// value).
    pub max_rel: f64,
    /// Mean observed relative error.
    pub mean_rel: f64,
    /// Number of measured query outputs.
    pub count: usize,
    /// Sticky arithmetic flags accumulated across all low-precision
    /// evaluations — `range_violation()` must stay false for the bounds
    /// to be valid.
    pub flags: Flags,
}

impl std::fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max abs {:.3e}, mean abs {:.3e}, max rel {:.3e}, mean rel {:.3e} over {} outputs",
            self.max_abs, self.mean_abs, self.max_rel, self.mean_rel, self.count
        )
    }
}

struct Accumulator {
    stats: ErrorStats,
    abs_sum: f64,
    rel_sum: f64,
    rel_count: usize,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            stats: ErrorStats::default(),
            abs_sum: 0.0,
            rel_sum: 0.0,
            rel_count: 0,
        }
    }

    fn record(&mut self, exact: f64, approx: f64) {
        let abs = (approx - exact).abs();
        self.stats.max_abs = self.stats.max_abs.max(abs);
        self.abs_sum += abs;
        self.stats.count += 1;
        if exact != 0.0 {
            let rel = abs / exact.abs();
            self.stats.max_rel = self.stats.max_rel.max(rel);
            self.rel_sum += rel;
            self.rel_count += 1;
        }
    }

    fn finish(mut self, flags: Flags) -> ErrorStats {
        if self.stats.count > 0 {
            self.stats.mean_abs = self.abs_sum / self.stats.count as f64;
        }
        if self.rel_count > 0 {
            self.stats.mean_rel = self.rel_sum / self.rel_count as f64;
        }
        self.stats.flags = flags;
        self.stats
    }
}

/// Runs the exact and low-precision engines over the batch and feeds the
/// accumulator, mirroring how the deployed hardware would serve the
/// queries in bulk.
fn measure_batched<A>(
    tape: &Tape,
    lp_ctx: A,
    query: QueryType,
    query_var: VarId,
    query_states: usize,
    batch: &EvidenceBatch,
) -> Result<ErrorStats, CoreError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let exact_engine = Engine::new(tape.clone(), F64Arith::new());
    let lp_engine = Engine::new(tape.clone(), lp_ctx);
    let mut acc = Accumulator::new();
    let mut flags = Flags::new();
    match query {
        QueryType::Marginal | QueryType::Mpe => {
            let exact = exact_engine.evaluate_batch(batch)?;
            let lp = lp_engine.evaluate_batch(batch)?;
            flags.merge(lp.flags);
            for (x, a) in exact.values.iter().zip(lp_engine.to_f64s(&lp.values)) {
                if x.is_finite() && a.is_finite() {
                    acc.record(*x, a);
                }
            }
        }
        QueryType::Conditional => {
            // Pr(q = s | e) for every state s, served as joint/marginal
            // lane pairs by the engine's conditional path: one numerator
            // batch Pr(q = s, e) per state over the shared denominator
            // batch Pr(e); the ratio is taken outside the AC (paper
            // §3.2.2, footnote 2).
            let exact = exact_engine.conditional_batch(batch, query_var)?;
            let lp = lp_engine.conditional_batch(batch, query_var)?;
            flags.merge(lp.flags);
            for s in 0..query_states {
                for lane in 0..batch.lanes() {
                    let x = exact.posteriors[lane][s];
                    let a = lp.posteriors[lane][s];
                    if x.is_finite() && a.is_finite() {
                        acc.record(x, a);
                    }
                }
            }
        }
    }
    Ok(acc.finish(flags))
}

/// Measures observed low-precision errors of `query` over a test set.
///
/// Query outputs whose exact value is NaN or whose exact denominator is
/// zero (unreachable evidence) are skipped.
///
/// # Errors
///
/// Propagates evaluation errors (shape mismatches, missing root).
///
/// # Examples
///
/// ```
/// use problp_ac::{compile, transform::binarize};
/// use problp_bayes::{networks, Evidence};
/// use problp_bounds::QueryType;
/// use problp_core::measure_errors;
/// use problp_num::{FixedFormat, Representation};
///
/// let net = networks::sprinkler();
/// let ac = binarize(&compile(&net)?)?;
/// let mut e = Evidence::empty(net.var_count());
/// e.observe(net.find("WetGrass").unwrap(), 1);
/// let stats = measure_errors(
///     &ac,
///     Representation::Fixed(FixedFormat::new(1, 12)?),
///     QueryType::Marginal,
///     net.find("Rain").unwrap(),
///     &[e],
/// )?;
/// assert!(stats.max_abs < 1e-2);
/// assert!(!stats.flags.range_violation());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn measure_errors(
    ac: &AcGraph,
    repr: Representation,
    query: QueryType,
    query_var: VarId,
    test_evidence: &[Evidence],
) -> Result<ErrorStats, CoreError> {
    struct Measure<'a> {
        ac: &'a AcGraph,
        query: QueryType,
        query_var: VarId,
        test_evidence: &'a [Evidence],
    }
    impl ArithVisitor for Measure<'_> {
        type Output = Result<ErrorStats, CoreError>;
        fn visit<A>(self, ctx: A) -> Self::Output
        where
            A: KernelSet + Clone + Send + Sync,
            A::Value: Clone + Send + Sync,
        {
            measure_errors_with(self.ac, ctx, self.query, self.query_var, self.test_evidence)
        }
    }
    visit_arith(
        repr.into(),
        Measure {
            ac,
            query,
            query_var,
            test_evidence,
        },
    )
}

/// [`measure_errors`] with the low-precision engine in an explicit
/// arithmetic context `lp_ctx` — e.g. the soft reference contexts, or a
/// truncating [`problp_num::FixedArith`].
///
/// # Errors
///
/// As [`measure_errors`].
pub fn measure_errors_with<A>(
    ac: &AcGraph,
    lp_ctx: A,
    query: QueryType,
    query_var: VarId,
    test_evidence: &[Evidence],
) -> Result<ErrorStats, CoreError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let query_states = ac.var_arities()[query_var.index()];
    for e in test_evidence {
        if e.len() != ac.var_count() {
            return Err(AcError::EvidenceLengthMismatch {
                evidence: e.len(),
                circuit: ac.var_count(),
            }
            .into());
        }
    }
    let batch = EvidenceBatch::from_evidences(ac.var_count(), test_evidence)
        .expect("lengths checked above");
    let semiring = match query {
        QueryType::Mpe => Semiring::MaxProduct,
        QueryType::Marginal | QueryType::Conditional => Semiring::SumProduct,
    };
    // Keep the pre-engine error contract: circuit-level failures (missing
    // root, invalid children) still surface as `CoreError::Circuit`.
    let tape = Tape::compile(ac, semiring).map_err(|e| match e {
        EngineError::Circuit(ac_err) => CoreError::Circuit(ac_err),
        other => CoreError::Engine(other),
    })?;
    measure_batched(&tape, lp_ctx, query, query_var, query_states, &batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_ac::{compile, transform::binarize};
    use problp_bayes::networks;
    use problp_bounds::{
        fixed_query_bound, float_query_bound, AcAnalysis, LeafErrorModel, Tolerance,
    };
    use problp_num::{FixedFormat, FloatFormat};

    fn all_single_evidences(net: &problp_bayes::BayesNet) -> Vec<Evidence> {
        let mut out = Vec::new();
        for v in 0..net.var_count() {
            for s in 0..net.variable(VarId::from_index(v)).arity() {
                let mut e = Evidence::empty(net.var_count());
                e.observe(VarId::from_index(v), s);
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn observed_errors_stay_below_the_fixed_bound() {
        let net = networks::student();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let analysis = AcAnalysis::new(&ac).unwrap();
        let format = FixedFormat::new(1, 12).unwrap();
        let bound = fixed_query_bound(
            &ac,
            &analysis,
            format,
            QueryType::Marginal,
            Tolerance::Absolute(1.0),
            LeafErrorModel::WorstCase,
        )
        .unwrap();
        let stats = measure_errors(
            &ac,
            Representation::Fixed(format),
            QueryType::Marginal,
            VarId::from_index(0),
            &all_single_evidences(&net),
        )
        .unwrap();
        assert!(stats.count > 0);
        assert!(stats.max_abs <= bound, "{} > {bound}", stats.max_abs);
        assert!(stats.mean_abs <= stats.max_abs);
        assert!(!stats.flags.range_violation());
    }

    #[test]
    fn observed_errors_stay_below_the_float_bound() {
        let net = networks::student();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let analysis = AcAnalysis::new(&ac).unwrap();
        let format = FloatFormat::new(10, 12).unwrap();
        let bound = float_query_bound(
            &ac,
            &analysis,
            format,
            QueryType::Marginal,
            Tolerance::Relative(1.0),
        )
        .unwrap();
        let stats = measure_errors(
            &ac,
            Representation::Float(format),
            QueryType::Marginal,
            VarId::from_index(0),
            &all_single_evidences(&net),
        )
        .unwrap();
        assert!(stats.max_rel <= bound, "{} > {bound}", stats.max_rel);
        assert!(!stats.flags.range_violation());
    }

    #[test]
    fn conditional_measurement_covers_every_state() {
        let net = networks::sprinkler();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let rain = net.find("Rain").unwrap();
        let mut e = Evidence::empty(net.var_count());
        e.observe(net.find("WetGrass").unwrap(), 1);
        let stats = measure_errors(
            &ac,
            Representation::Float(FloatFormat::new(8, 14).unwrap()),
            QueryType::Conditional,
            rain,
            std::slice::from_ref(&e),
        )
        .unwrap();
        // Two states of Rain measured.
        assert_eq!(stats.count, 2);
        assert!(stats.max_rel < 1e-2);
    }

    #[test]
    fn mpe_measurement_works() {
        let net = networks::figure1();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let stats = measure_errors(
            &ac,
            Representation::Fixed(FixedFormat::new(1, 10).unwrap()),
            QueryType::Mpe,
            VarId::from_index(0),
            &[Evidence::empty(net.var_count())],
        )
        .unwrap();
        assert_eq!(stats.count, 1);
        assert!(stats.max_abs < 1e-2);
    }

    #[test]
    fn circuit_errors_keep_the_pre_engine_contract() {
        // A rootless graph must still surface as CoreError::Circuit.
        let g = problp_ac::AcGraph::new(vec![2]);
        let err = measure_errors(
            &g,
            Representation::Fixed(FixedFormat::new(1, 8).unwrap()),
            QueryType::Marginal,
            VarId::from_index(0),
            &[Evidence::empty(1)],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::Circuit(problp_ac::AcError::MissingRoot)
        ));
    }

    #[test]
    fn more_bits_mean_less_error() {
        let net = networks::student();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let evidences = all_single_evidences(&net);
        let coarse = measure_errors(
            &ac,
            Representation::Fixed(FixedFormat::new(1, 6).unwrap()),
            QueryType::Marginal,
            VarId::from_index(0),
            &evidences,
        )
        .unwrap();
        let fine = measure_errors(
            &ac,
            Representation::Fixed(FixedFormat::new(1, 20).unwrap()),
            QueryType::Marginal,
            VarId::from_index(0),
            &evidences,
        )
        .unwrap();
        assert!(fine.max_abs < coarse.max_abs);
    }
}
