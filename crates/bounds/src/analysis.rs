//! Max-value and min-value analyses (paper §3.1.4).
//!
//! Every node of an AC is a monotonically increasing function of its
//! inputs (only sums and products of non-negative values), so all nodes
//! attain their maxima simultaneously when every indicator is 1 — a single
//! evaluation yields every node's maximum. Symmetrically, evaluating with
//! all indicators at 1 and sums replaced by *minimum over non-zero
//! children* yields each node's smallest achievable positive value.
//!
//! These two vectors drive:
//! * the `a_max`/`b_max` terms of the fixed-point multiplier model (eq. 5),
//! * integer-bit sizing (overflow) and exponent-bit sizing (overflow and
//!   underflow).
//!
//! Both evaluations run on the execution engine's **full-values tape**
//! (`problp-engine`, [`Tape::compile_full`]): every node keeps a stable
//! register, so one engine sweep returns the whole per-node value vector
//! — bit-identical to the scalar tree-walk
//! ([`AcGraph::evaluate_nodes`]) the analyses used before the engine
//! existed; the test suite pins the two against each other.

use problp_ac::{AcGraph, Semiring};
use problp_bayes::Evidence;
use problp_engine::{Engine, Tape};
use problp_num::F64Arith;

use crate::error::BoundsError;

/// Per-node value ranges of an arithmetic circuit.
///
/// # Examples
///
/// ```
/// use problp_ac::{compile, transform::binarize};
/// use problp_bayes::networks;
/// use problp_bounds::AcAnalysis;
///
/// let ac = binarize(&compile(&networks::sprinkler())?)?;
/// let analysis = AcAnalysis::new(&ac)?;
/// // The network polynomial evaluates to 1 at the all-ones input.
/// assert!((analysis.root_max() - 1.0).abs() < 1e-12);
/// assert!(analysis.root_min_positive() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct AcAnalysis {
    max_values: Vec<f64>,
    min_values: Vec<f64>,
    root_max: f64,
    root_min: f64,
    global_max: f64,
    global_min_positive: f64,
}

impl AcAnalysis {
    /// Runs both analyses on a circuit, evaluating through the execution
    /// engine's full-values tape (one sweep per semiring; bit-identical
    /// to [`AcGraph::evaluate_nodes`]).
    ///
    /// # Errors
    ///
    /// Returns [`BoundsError::MissingRoot`] for rootless circuits.
    pub fn new(ac: &AcGraph) -> Result<Self, BoundsError> {
        let all_ones = Evidence::empty(ac.var_count());
        let sweep = |semiring: Semiring| -> Result<Vec<f64>, BoundsError> {
            let tape = Tape::compile_full(ac, semiring).map_err(|_| BoundsError::MissingRoot)?;
            let engine = Engine::new(tape, F64Arith::new());
            let (values, _) = engine
                .evaluate_nodes_one(&all_ones)
                .map_err(|_| BoundsError::MissingRoot)?;
            Ok(values)
        };
        let max_values = sweep(Semiring::SumProduct)?;
        let min_values = sweep(Semiring::MinProduct)?;
        Self::from_values(ac, max_values, min_values)
    }

    /// Aggregates the two per-node vectors into an analysis.
    fn from_values(
        ac: &AcGraph,
        max_values: Vec<f64>,
        min_values: Vec<f64>,
    ) -> Result<Self, BoundsError> {
        let root = ac.root().ok_or(BoundsError::MissingRoot)?;
        let reachable = ac.reachable();
        let mut global_max = 0.0f64;
        let mut global_min_positive = f64::INFINITY;
        for i in 0..max_values.len() {
            if !reachable[i] {
                continue;
            }
            global_max = global_max.max(max_values[i]);
            if min_values[i] > 0.0 {
                global_min_positive = global_min_positive.min(min_values[i]);
            }
        }
        Ok(AcAnalysis {
            root_max: max_values[root.index()],
            root_min: min_values[root.index()],
            global_max,
            global_min_positive,
            max_values,
            min_values,
        })
    }

    /// The number of analyzed nodes.
    pub fn len(&self) -> usize {
        self.max_values.len()
    }

    /// Returns `true` for an empty analysis (never for a valid circuit).
    pub fn is_empty(&self) -> bool {
        self.max_values.is_empty()
    }

    /// Maximum achievable value of each node (all indicators at 1).
    pub fn max_values(&self) -> &[f64] {
        &self.max_values
    }

    /// Smallest achievable positive value of each node (zero when a node
    /// is structurally zero).
    pub fn min_values(&self) -> &[f64] {
        &self.min_values
    }

    /// Maximum achievable root value. For an AC compiled from a Bayesian
    /// network this is the polynomial at the all-ones input, i.e. exactly 1.
    pub fn root_max(&self) -> f64 {
        self.root_max
    }

    /// Smallest achievable positive root value: the `min Pr(e)` of the
    /// paper's eq. 14.
    pub fn root_min_positive(&self) -> f64 {
        self.root_min
    }

    /// Largest value over all (reachable) nodes — sizes integer/exponent
    /// bits against overflow.
    pub fn global_max(&self) -> f64 {
        self.global_max
    }

    /// Smallest positive value over all (reachable) nodes — sizes exponent
    /// bits against underflow.
    pub fn global_min_positive(&self) -> f64 {
        self.global_min_positive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_ac::compile;
    use problp_ac::transform::binarize;
    use problp_bayes::{networks, VarId};

    #[test]
    fn max_analysis_bounds_every_evidence() {
        let net = networks::student();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let analysis = AcAnalysis::new(&ac).unwrap();
        let mut ctx = F64Arith::new();
        // Try a range of single-variable observations: every node value
        // must stay below its analyzed maximum.
        for v in 0..net.var_count() {
            for s in 0..net.variable(VarId::from_index(v)).arity() {
                let mut e = Evidence::empty(net.var_count());
                e.observe(VarId::from_index(v), s);
                let values = ac
                    .evaluate_nodes(&mut ctx, &e, Semiring::SumProduct)
                    .unwrap();
                for (i, &val) in values.iter().enumerate() {
                    assert!(
                        val <= analysis.max_values()[i] + 1e-12,
                        "node {i}: {val} > {}",
                        analysis.max_values()[i]
                    );
                }
            }
        }
    }

    #[test]
    fn min_analysis_lower_bounds_nonzero_values() {
        let net = networks::student();
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let analysis = AcAnalysis::new(&ac).unwrap();
        let mut ctx = F64Arith::new();
        for v in 0..net.var_count() {
            for s in 0..net.variable(VarId::from_index(v)).arity() {
                let mut e = Evidence::empty(net.var_count());
                e.observe(VarId::from_index(v), s);
                let values = ac
                    .evaluate_nodes(&mut ctx, &e, Semiring::SumProduct)
                    .unwrap();
                for (i, &val) in values.iter().enumerate() {
                    if val > 0.0 {
                        assert!(
                            val >= analysis.min_values()[i] - 1e-15,
                            "node {i}: {val} < {}",
                            analysis.min_values()[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn root_max_is_one_for_network_polynomials() {
        for net in [networks::figure1(), networks::sprinkler(), networks::asia()] {
            let ac = binarize(&compile(&net).unwrap()).unwrap();
            let a = AcAnalysis::new(&ac).unwrap();
            assert!((a.root_max() - 1.0).abs() < 1e-9);
            assert!(a.root_min_positive() > 0.0);
            assert!(a.root_min_positive() <= 1.0);
            assert!(a.global_max() >= a.root_max());
            assert!(a.global_min_positive() <= a.root_min_positive());
        }
    }

    #[test]
    fn alarm_analysis_is_finite_and_positive() {
        let ac = binarize(&compile(&networks::alarm(7)).unwrap()).unwrap();
        let a = AcAnalysis::new(&ac).unwrap();
        assert!(a.global_max().is_finite());
        assert!(a.global_min_positive() > 0.0);
        assert!(
            a.global_min_positive() < 1e-3,
            "alarm has small node values"
        );
    }

    #[test]
    fn rootless_circuit_is_rejected() {
        let g = AcGraph::new(vec![2]);
        assert_eq!(AcAnalysis::new(&g).unwrap_err(), BoundsError::MissingRoot);
    }

    /// The tentpole contract: the engine-backed analysis (full-values
    /// tape) is bit-identical to the scalar tree-walk, on the standard
    /// networks, on binarized forms, and across a sweep of random
    /// circuits.
    #[test]
    fn engine_backed_analysis_is_bit_identical_to_scalar() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut circuits: Vec<AcGraph> = Vec::new();
        for net in [
            networks::figure1(),
            networks::sprinkler(),
            networks::student(),
            networks::asia(),
            networks::alarm(7),
        ] {
            let raw = compile(&net).unwrap();
            circuits.push(binarize(&raw).unwrap());
            circuits.push(raw);
        }
        for seed in 0..24 {
            let net = networks::random_network(seed, 7, 3, 3);
            circuits.push(compile(&net).unwrap());
        }
        let mut ctx = F64Arith::new();
        for ac in &circuits {
            let engine = AcAnalysis::new(ac).unwrap();
            let all_ones = Evidence::empty(ac.var_count());
            let mut scalar = |semiring| ac.evaluate_nodes(&mut ctx, &all_ones, semiring).unwrap();
            assert_eq!(
                bits(engine.max_values()),
                bits(&scalar(Semiring::SumProduct))
            );
            assert_eq!(
                bits(engine.min_values()),
                bits(&scalar(Semiring::MinProduct))
            );
        }
    }
}
