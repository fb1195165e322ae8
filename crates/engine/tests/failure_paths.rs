//! Failure-path hardening tests: worker panics surface as
//! [`EngineError::WorkerPanic`] instead of killing the process,
//! impossible conditional evidence is typed instead of leaking
//! `inf`/`NaN`, and empty-batch / zero-thread edges return cleanly.

use problp_ac::{compile, Semiring};
use problp_bayes::{networks, BatchQuery, Evidence, EvidenceBatch, VarId};
use problp_engine::{ConditionalLaneStatus, Engine, EngineError};
use problp_num::{Arith, F64Arith, Flags};

/// An arithmetic that panics on every multiplication: the deterministic
/// stand-in for "a worker crashed mid-sweep".
#[derive(Clone, Copy, Debug, Default)]
struct PanicArith;

impl Arith for PanicArith {
    type Value = f64;

    fn from_f64(&mut self, x: f64) -> f64 {
        x
    }
    fn to_f64(&self, v: &f64) -> f64 {
        *v
    }
    fn zero(&mut self) -> f64 {
        0.0
    }
    fn one(&mut self) -> f64 {
        1.0
    }
    fn add(&mut self, a: &f64, b: &f64) -> f64 {
        a + b
    }
    fn mul(&mut self, _a: &f64, _b: &f64) -> f64 {
        panic!("injected arithmetic fault")
    }
    fn max(&mut self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }
    fn min(&mut self, a: &f64, b: &f64) -> f64 {
        a.min(*b)
    }
    fn flags(&self) -> Flags {
        Flags::new()
    }
    fn clear_flags(&mut self) {}
}

// Scalar-default kernels only: the fault must fire through the same
// per-instruction path the reference evaluator uses.
impl problp_engine::KernelSet for PanicArith {}

/// A batch big enough that `evaluate_batch` actually shards across
/// worker threads (MIN_LANES_PER_THREAD is 32).
fn wide_batch(net: &problp_bayes::BayesNet, lanes: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(net.var_count());
    for _ in 0..lanes {
        batch.push(&Evidence::empty(net.var_count()));
    }
    batch
}

#[test]
fn evaluate_batch_surfaces_worker_panics_as_errors() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, PanicArith)
        .unwrap()
        .with_threads(2);
    let batch = wide_batch(&net, 64);
    match engine.evaluate_batch(&batch) {
        Err(EngineError::WorkerPanic { message }) => {
            assert!(message.contains("injected arithmetic fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The engine itself survives: a well-typed error, not a poisoned
    // process, and it keeps rejecting cleanly on the next call.
    assert!(matches!(
        engine.evaluate_batch(&batch),
        Err(EngineError::WorkerPanic { .. })
    ));
}

#[test]
fn evaluate_batch_surfaces_panics_on_the_single_shard_path_too() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    // One lane, one thread: the inline (no thread scope) fast path.
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, PanicArith)
        .unwrap()
        .with_threads(1);
    let batch = wide_batch(&net, 1);
    match engine.evaluate_batch(&batch) {
        Err(EngineError::WorkerPanic { message }) => {
            assert!(message.contains("injected arithmetic fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

/// The per-request reference path must be panic-proof end to end: a
/// panicking tenant yields a typed error from `serve_one`, never a
/// crash of the caller's thread (serve_one runs the engine inline, on
/// the single-shard path).
#[test]
fn serve_one_surfaces_worker_panics_as_errors() {
    use problp_engine::{CircuitPool, Priority, ServeError, ServeRequest};

    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let mut pool = CircuitPool::new(PanicArith);
    pool.register("bad", &ac).unwrap();
    let result = pool.serve_one(&ServeRequest {
        model: "bad".to_string(),
        evidence: Evidence::empty(net.var_count()),
        query: BatchQuery::Marginal,
        priority: Priority::Interactive,
    });
    match result {
        Err(ServeError::Engine(EngineError::WorkerPanic { message })) => {
            assert!(message.contains("injected arithmetic fault"), "{message}");
        }
        other => panic!("expected a WorkerPanic serve error, got {other:?}"),
    }
}

#[test]
fn mpe_batch_surfaces_worker_panics_as_errors() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let engine = Engine::from_graph_full(&ac, Semiring::MaxProduct, PanicArith)
        .unwrap()
        .with_threads(2);
    // One lane is one shard: phase 1 runs on the inline
    // `catch_unwind` path, which must surface the panic just as the
    // scoped-worker join path does.
    let batch = wide_batch(&net, 1);
    match engine.mpe_batch(&batch) {
        Err(EngineError::WorkerPanic { message }) => {
            assert!(message.contains("injected arithmetic fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn impossible_conditional_evidence_is_typed_not_nan_leaking() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    // Pr(Sprinkler=0, Rain=0, WetGrass=1) = 0: the wet-grass CPT row for
    // (no sprinkler, no rain) puts probability 1.0 on "dry".
    let mut impossible = Evidence::empty(net.var_count());
    impossible.observe(net.find("Sprinkler").unwrap(), 0);
    impossible.observe(net.find("Rain").unwrap(), 0);
    impossible.observe(net.find("WetGrass").unwrap(), 1);
    let possible = Evidence::empty(net.var_count());
    let batch = EvidenceBatch::from_evidences(net.var_count(), &[possible, impossible]).unwrap();
    let cond = engine
        .conditional_batch(&batch, net.find("Cloudy").unwrap())
        .unwrap();
    // The possible lane is untouched by its impossible neighbour.
    assert_eq!(cond.lane_status[0], ConditionalLaneStatus::Ok);
    assert!(cond.lane_status[0].is_ok());
    let sum: f64 = cond.posteriors[0].iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // The impossible lane is flagged, with deliberate NaNs instead of a
    // silent 0/0 or x/0.
    assert_eq!(
        cond.lane_status[1],
        ConditionalLaneStatus::ImpossibleEvidence
    );
    assert!(!cond.lane_status[1].is_ok());
    assert!(cond.posteriors[1].iter().all(|p| p.is_nan()));
}

#[test]
fn empty_batches_return_cleanly_on_every_entry_point() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let empty = EvidenceBatch::new(net.var_count());

    let sum = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    let r = sum.evaluate_batch(&empty).unwrap();
    assert!(r.values.is_empty());
    let c = sum.conditional_batch(&empty, VarId::from_index(0)).unwrap();
    assert!(c.marginals.is_empty() && c.posteriors.is_empty() && c.lane_status.is_empty());
    assert_eq!(c.joints.len(), 2, "one (empty) joint batch per state");

    let max = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
    let m = max.mpe_batch(&empty).unwrap();
    assert!(m.assignments.is_empty() && m.values.is_empty());
}

#[test]
fn zero_threads_means_all_cores_and_never_divides_by_zero() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let reference = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .unwrap()
        .with_threads(1);
    let zero = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .unwrap()
        .with_threads(0);
    let batch = wide_batch(&net, 100);
    let want = reference.evaluate_batch(&batch).unwrap();
    let got = zero.evaluate_batch(&batch).unwrap();
    assert_eq!(want.values, got.values);
    // And the empty-batch × zero-threads corner.
    let empty = EvidenceBatch::new(net.var_count());
    assert!(zero.evaluate_batch(&empty).unwrap().values.is_empty());

    let mpe_zero = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new())
        .unwrap()
        .with_threads(0);
    assert!(mpe_zero.mpe_batch(&empty).unwrap().values.is_empty());
    let got = mpe_zero.mpe_batch(&batch).unwrap();
    assert_eq!(got.values.len(), batch.lanes());
}

#[test]
fn serving_layer_isolates_a_panicking_tenant() {
    use problp_engine::{CircuitPool, Priority, ServeConfig, ServeError, ServeRequest, Server};
    use std::time::Duration;

    // Every request to this tenant panics mid-evaluation; the point is
    // that each gets a typed error back and the server survives to
    // serve the next one.
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let mut pool = CircuitPool::new(PanicArith);
    pool.register("bad", &ac).unwrap();
    let server = Server::start(
        pool,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for _ in 0..3 {
        let ticket = server
            .submit(ServeRequest {
                model: "bad".to_string(),
                evidence: Evidence::empty(net.var_count()),
                query: BatchQuery::Marginal,
                priority: Priority::Interactive,
            })
            .unwrap();
        match ticket.wait() {
            Err(ServeError::Engine(EngineError::WorkerPanic { message })) => {
                assert!(message.contains("injected arithmetic fault"), "{message}");
            }
            other => panic!("expected a WorkerPanic serve error, got {other:?}"),
        }
    }
    server.shutdown();
}
