//! `batch-offline`: rounds of four 1024-lane batches through
//! `Engine::evaluate_query` in f64, on engines built with the default
//! constructors (default kernel and thread count). No serving layer
//! runs, so nearly all the time is the tape kernels and the MPE decode.

use std::collections::BTreeMap;
use std::time::Instant;

use problp_ac::{compile, AcGraph, Semiring};
use problp_bayes::{networks, BatchQuery, Evidence, EvidenceBatch, VarId};
use problp_engine::{ConditionalLaneStatus, Engine, QueryBatchResult};
use problp_num::F64Arith;

use crate::gen::Gen;
use crate::serving::MODEL_SEED;
use crate::trace::{Child, Tracer};
use crate::{ms, us, with_setups, Args, Outcome, Phase};

/// Lanes per batch.
pub const LANES: usize = 1024;

/// The models and their engines.
struct Models {
    alarm: AcGraph,
    alarm_hidden: VarId,
    alarm_net: problp_bayes::BayesNet,
    har: AcGraph,
    har_class: VarId,
    har_net: problp_bayes::BayesNet,
    alarm_sum: Engine<F64Arith>,
    alarm_mpe: Engine<F64Arith>,
    har_sum: Engine<F64Arith>,
    compile_ms: f64,
}

fn setup(tracer: Option<&Tracer>) -> Models {
    let t0 = Instant::now();
    let alarm_net = networks::alarm(MODEL_SEED);
    let har_bench = problp_data::har_benchmark(MODEL_SEED);
    let t1 = Instant::now();
    let alarm = compile(&alarm_net).expect("alarm compiles");
    let har = compile(&har_bench.net).expect("the HAR classifier compiles");
    let t2 = Instant::now();
    let alarm_sum = Engine::from_graph(&alarm, Semiring::SumProduct, F64Arith::new())
        .expect("alarm tape compiles");
    let alarm_mpe = Engine::from_graph_full(&alarm, Semiring::MaxProduct, F64Arith::new())
        .expect("alarm full tape compiles");
    let har_sum =
        Engine::from_graph(&har, Semiring::SumProduct, F64Arith::new()).expect("HAR tape compiles");
    let t3 = Instant::now();
    if let Some(tracer) = tracer {
        let children: [Child; 3] = [
            ("data.build", t0, t1),
            ("ac.compile", t1, t2),
            ("engine.build", t2, t3),
        ];
        tracer.record(0, "setup", t0, t3, &children);
    }
    Models {
        alarm_hidden: alarm_net
            .find("HYPOVOLEMIA")
            .expect("alarm has HYPOVOLEMIA"),
        alarm,
        alarm_net,
        har,
        har_class: har_bench.query_var,
        har_net: har_bench.net,
        alarm_sum,
        alarm_mpe,
        har_sum,
        compile_ms: ms(t1, t2) / 2.0,
    }
}

/// One of the four batches of a round.
struct Job {
    /// `<model>.<query>`, the per-layer metric suffix.
    name: &'static str,
    /// Alarm (else the HAR classifier).
    alarm: bool,
    query: BatchQuery,
    evidences: Vec<Evidence>,
    batch: EvidenceBatch,
}

fn jobs(m: &Models, seed: u64) -> Vec<Job> {
    let spec: [(&str, BatchQuery, bool, Option<VarId>); 4] = [
        ("alarm.marginal", BatchQuery::Marginal, true, None),
        ("alarm.mpe", BatchQuery::Mpe, true, None),
        (
            "alarm.conditional",
            BatchQuery::Conditional {
                query_var: m.alarm_hidden,
            },
            true,
            Some(m.alarm_hidden),
        ),
        (
            "har.conditional",
            BatchQuery::Conditional {
                query_var: m.har_class,
            },
            false,
            Some(m.har_class),
        ),
    ];
    spec.into_iter()
        .enumerate()
        .map(|(k, (name, query, alarm, hidden))| {
            let net = if alarm { &m.alarm_net } else { &m.har_net };
            let mut gen = Gen::new(seed, 2000 + k as u64);
            let evidences: Vec<Evidence> = (0..LANES).map(|_| gen.evidence(net, hidden)).collect();
            let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences)
                .expect("generated evidence matches the network");
            Job {
                name,
                alarm,
                query,
                evidences,
                batch,
            }
        })
        .collect()
}

fn engine<'a>(m: &'a Models, job: &Job) -> &'a Engine<F64Arith> {
    match (job.alarm, job.query) {
        (true, BatchQuery::Mpe) => &m.alarm_mpe,
        (true, _) => &m.alarm_sum,
        (false, _) => &m.har_sum,
    }
}

fn circuit<'a>(m: &'a Models, job: &Job) -> &'a AcGraph {
    if job.alarm {
        &m.alarm
    } else {
        &m.har
    }
}

/// Tape instructions executed per lane: one pass for marginal and MPE,
/// one plus one per query state for a conditional.
fn instrs_per_lane(m: &Models, job: &Job) -> f64 {
    let e = engine(m, job);
    let instrs = e
        .fuse_stats()
        .map_or(e.tape().stats().instrs, |f| f.fused_instrs);
    let passes = match job.query {
        BatchQuery::Conditional { query_var } => 1 + e.tape().var_arities()[query_var.index()],
        _ => 1,
    };
    (instrs * passes) as f64
}

/// Bitwise equality of two results of the same batch.
fn same_result(a: &QueryBatchResult<f64>, b: &QueryBatchResult<f64>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (QueryBatchResult::Marginal(x), QueryBatchResult::Marginal(y)) => {
            bits(&x.values) == bits(&y.values)
        }
        (QueryBatchResult::Mpe(x), QueryBatchResult::Mpe(y)) => {
            bits(&x.values) == bits(&y.values) && x.assignments == y.assignments
        }
        (QueryBatchResult::Conditional(x), QueryBatchResult::Conditional(y)) => {
            x.predictions == y.predictions
                && x.lane_status == y.lane_status
                && x.posteriors.len() == y.posteriors.len()
                && x.posteriors
                    .iter()
                    .zip(&y.posteriors)
                    .all(|(p, q)| bits(p) == bits(q))
        }
        _ => false,
    }
}

/// Lanes of `result` that differ from the scalar `AcGraph` walk:
/// `evaluate` for marginals and conditionals, `mpe_assignment` for MPE.
fn scalar_mismatches(ac: &AcGraph, job: &Job, result: &QueryBatchResult<f64>) -> u64 {
    let eval = |e: &Evidence| ac.evaluate(e).expect("generated evidence fits the circuit");
    let lanes = job.evidences.iter().enumerate();
    let bad = match result {
        QueryBatchResult::Marginal(r) if r.values.len() == LANES => lanes
            .filter(|(i, e)| eval(e).to_bits() != r.values[*i].to_bits())
            .count(),
        QueryBatchResult::Mpe(r) if r.values.len() == LANES => lanes
            .filter(|(i, e)| {
                let (assignment, value) = ac.mpe_assignment(e).expect("evidence fits");
                value.to_bits() != r.values[*i].to_bits() || assignment != r.assignments[*i]
            })
            .count(),
        QueryBatchResult::Conditional(r) if r.posteriors.len() == LANES => {
            let BatchQuery::Conditional { query_var } = job.query else {
                return LANES as u64;
            };
            lanes
                .filter(|(i, e)| {
                    let den = eval(e);
                    let mut joint = (*e).clone();
                    let mut best = (f64::NEG_INFINITY, 0);
                    let posteriors: Vec<u64> = (0..ac.var_arities()[query_var.index()])
                        .map(|s| {
                            joint.observe(query_var, s);
                            let num = eval(&joint);
                            if num > best.0 {
                                best = (num, s);
                            }
                            (num / den).to_bits()
                        })
                        .collect();
                    let got: Vec<u64> = r.posteriors[*i].iter().map(|p| p.to_bits()).collect();
                    r.lane_status[*i] != ConditionalLaneStatus::Ok
                        || got != posteriors
                        || r.predictions[*i] != best.1
                })
                .count()
        }
        _ => LANES,
    };
    bad as u64
}

fn measure(m: &Models, jobs: &[Job], args: &Args, tracer: Option<&Tracer>) -> Phase {
    let deadline = Instant::now() + crate::phase_len(args);
    let mut first: Vec<Option<QueryBatchResult<f64>>> = jobs.iter().map(|_| None).collect();
    let mut busy = vec![0.0f64; jobs.len()];
    let mut calls = vec![0u64; jobs.len()];
    let mut rounds_us = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut round = 0u64;
    while Instant::now() < deadline || rounds_us.is_empty() {
        let mut round_us = 0.0;
        let mut children: Vec<Child> = Vec::with_capacity(jobs.len());
        let r0 = Instant::now();
        for (k, job) in jobs.iter().enumerate() {
            let t0 = Instant::now();
            let result = engine(m, job).evaluate_query(&job.batch, job.query);
            let t1 = Instant::now();
            children.push(("engine", t0, t1));
            round_us += us(t0, t1);
            busy[k] += us(t0, t1) / 1e6;
            calls[k] += 1;
            attempted += LANES as u64;
            // Outside the timed call: every repeat must reproduce the
            // first result, which is checked against the scalar walk
            // once the window has closed.
            match (result, &first[k]) {
                (Ok(r), None) => first[k] = Some(r),
                (Ok(r), Some(f)) if same_result(&r, f) => {}
                _ => failed += LANES as u64,
            }
        }
        if let Some(tracer) = tracer {
            let r1 = children.last().map_or(r0, |c| c.2);
            tracer.record(round, "round", r0, r1, &children);
        }
        rounds_us.push(round_us);
        round += 1;
    }
    for (job, result) in jobs.iter().zip(&first) {
        failed += result
            .as_ref()
            .map_or(LANES as u64, |r| scalar_mismatches(circuit(m, job), job, r));
    }
    let mut layers = BTreeMap::new();
    for (k, job) in jobs.iter().enumerate() {
        layers.insert(
            format!("engine.lanes_per_s.{}", job.name),
            (calls[k] * LANES as u64) as f64 / busy[k],
        );
        layers.insert(
            format!("engine.instrs_per_lane.{}", job.name),
            instrs_per_lane(m, job),
        );
    }
    let busy_s: f64 = busy.iter().sum();
    Phase {
        latency_us: rounds_us,
        work: (calls.iter().sum::<u64>() * LANES as u64) as f64,
        busy_s,
        attempted,
        failed,
        consistent: true,
        layers,
    }
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    let (setup_s, (untraced, traced, compile_ms)) = with_setups(
        || setup(tracer),
        |models| {
            let jobs = jobs(models, args.seed);
            let untraced = measure(models, &jobs, args, None);
            let traced = tracer.map(|t| measure(models, &jobs, args, Some(t)));
            (untraced, traced, models.compile_ms)
        },
    );
    Outcome {
        setup_s,
        throughput_name: "lanes_per_s",
        untraced,
        traced,
        setup_layers: [("ac.compile_ms".to_string(), compile_ms)]
            .into_iter()
            .collect(),
    }
}
