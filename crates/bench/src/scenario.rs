//! The one serving-scenario runner behind `problp serve-sim`,
//! `problp serve-http --self-drive` and the serving, QoS and cache
//! studies.
//!
//! Every serving claim of this repository rests on one check: each
//! coalesced answer is bit-identical to the same request evaluated
//! alone. This module owns the loop around that check, once:
//!
//! * [`tenants`] — the tenant fixture: compiled circuits and canonical
//!   evidence pools for `(name, BayesNet)` pairs; [`register`] hosts
//!   them in a [`CircuitPool`].
//! * [`trace`] — the seeded mixed-query trace on the vendored
//!   [`StdRng`]; a [`Mix`] picks each request's tenant and priority.
//! * [`submit`] + [`InFlight::drain`] (both at once: [`run`]) — the
//!   burst runner: submit a trace, drain it under one shared
//!   [`DRAIN_DEADLINE`] and record each request's sojourn in a
//!   [`Burst`].
//! * [`scalar_replay`] + [`mismatches`] — the bit-identity check
//!   against [`CircuitPool::serve_one`] and the per-request tree-walk.
//! * [`write_record`] — the one validate-then-write path of a
//!   [`BenchRecord`].
//!
//! The callers keep only what is specific to them: the CLI's sidecar
//! scrapes, cache replay and reload checks, the gateway's sockets and
//! probes, and the studies' reports.

use std::path::Path;
use std::time::{Duration, Instant};

use problp_ac::{compile, AcError, AcGraph};
use problp_bayes::{single_variable_evidences, BatchQuery, BayesNet, Evidence, VarId};
use problp_engine::{
    lane_answer_eq, CircuitPool, EngineError, LaneResult, Priority, ServeError, ServeRequest,
    ServeResponse, Server, Ticket,
};
use problp_num::F64Arith;
use problp_telemetry::{Histogram, HistogramSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bench_json::{validate_bench_json, BenchRecord};

/// One hosted model: its network, compiled circuit and canonical
/// evidence pool.
#[derive(Debug)]
pub struct Tenant {
    /// Model id in the pool — the `model` of its requests.
    pub name: String,
    /// The source network.
    pub net: BayesNet,
    /// The compiled circuit: the tree-walk reference.
    pub circuit: AcGraph,
    /// The canonical evidence pool
    /// ([`single_variable_evidences`]) its requests draw from.
    pub evidence: Vec<Evidence>,
}

impl Tenant {
    /// Query kind `kind % 3` of the canonical mix: the marginal, the
    /// MPE, or the posterior of the network's first root.
    pub fn query(&self, kind: usize) -> BatchQuery {
        match kind % 3 {
            0 => BatchQuery::Marginal,
            1 => BatchQuery::Mpe,
            _ => BatchQuery::Conditional {
                query_var: self
                    .net
                    .roots()
                    .first()
                    .copied()
                    .unwrap_or(VarId::from_index(0)),
            },
        }
    }
}

/// Compiles each `(name, network)` pair into a [`Tenant`].
///
/// # Errors
///
/// The first network that fails to compile.
pub fn tenants(models: Vec<(String, BayesNet)>) -> Result<Vec<Tenant>, AcError> {
    models
        .into_iter()
        .map(|(name, net)| {
            let circuit = compile(&net)?;
            let evidence = single_variable_evidences(circuit.var_arities());
            Ok(Tenant {
                name,
                net,
                circuit,
                evidence,
            })
        })
        .collect()
}

/// Hosts `tenants` in one f64 [`CircuitPool`].
///
/// # Errors
///
/// The first circuit the pool fails to compile to a tape.
pub fn register(tenants: &[Tenant]) -> Result<CircuitPool<F64Arith>, EngineError> {
    let mut pool = CircuitPool::new(F64Arith::new());
    for t in tenants {
        pool.register(&t.name, &t.circuit)?;
    }
    Ok(pool)
}

/// How [`trace`] picks each request's tenant and priority lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Uniform over the tenants; `batch_share` percent of the requests
    /// ride the [`Priority::Batch`] lane, the rest
    /// [`Priority::Interactive`].
    Uniform {
        /// Percentage of the trace on the Batch lane.
        batch_share: u64,
    },
    /// 70% of the requests (`HOT_SHARE`) flood tenant 0 on the
    /// Interactive lane; the rest spread uniformly over the other
    /// tenants on the Batch lane.
    Hot,
}

/// Percentage of a [`Mix::Hot`] trace on the hot tenant.
const HOT_SHARE: u64 = 70;

/// A seeded trace of `requests.max(1)` requests: tenant and priority
/// from `mix`, a uniform query kind ([`Tenant::query`]) and a uniform
/// instance of the tenant's evidence pool. The same seed gives the same
/// trace.
///
/// # Panics
///
/// Panics if `tenants` is empty.
pub fn trace(tenants: &[Tenant], requests: usize, seed: u64, mix: Mix) -> Vec<ServeRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests.max(1))
        .map(|_| {
            let roll = rng.random_range(0..100u64);
            let (t, priority) = match mix {
                Mix::Uniform { batch_share } => (
                    rng.random_range(0..tenants.len()),
                    if roll < batch_share {
                        Priority::Batch
                    } else {
                        Priority::Interactive
                    },
                ),
                Mix::Hot if roll < HOT_SHARE || tenants.len() < 2 => (0, Priority::Interactive),
                Mix::Hot => (1 + rng.random_range(0..tenants.len() - 1), Priority::Batch),
            };
            let tenant = &tenants[t];
            let query = tenant.query(rng.random_range(0..3));
            let evidence = tenant.evidence[rng.random_range(0..tenant.evidence.len())].clone();
            ServeRequest {
                model: tenant.name.clone(),
                evidence,
                query,
                priority,
            }
        })
        .collect()
}

/// The shared drain budget of a burst: a wedged dispatcher fails the
/// run in about this long overall, not this long per ticket.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// A submitted trace whose tickets are still in flight (see
/// [`submit`]).
pub struct InFlight {
    /// Per trace entry: submit instant and ticket, `None` when the
    /// quota rejected it.
    tickets: Vec<Option<(Instant, Ticket<f64>)>>,
    start: Instant,
}

/// Submits `trace` to `server` in order, calling `before(i)` ahead of
/// request `i` (serve-sim hot-swaps a model there). A
/// [`ServeError::QuotaExceeded`] admission is booked as a reject.
///
/// # Errors
///
/// Any other admission error, or the first error of `before`.
pub fn submit(
    server: &Server<F64Arith>,
    trace: &[ServeRequest],
    mut before: impl FnMut(usize) -> Result<(), ServeError>,
) -> Result<InFlight, ServeError> {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(trace.len());
    for (i, req) in trace.iter().enumerate() {
        before(i)?;
        let enqueued = Instant::now();
        match server.submit(req.clone()) {
            Ok(ticket) => tickets.push(Some((enqueued, ticket))),
            Err(ServeError::QuotaExceeded { .. }) => tickets.push(None),
            Err(e) => return Err(e),
        }
    }
    Ok(InFlight { tickets, start })
}

impl InFlight {
    /// Waits for every ticket under one shared [`DRAIN_DEADLINE`] (a
    /// late ticket yields a typed [`ServeError::Timeout`] answer). The
    /// sojourn is submit → dispatcher completion, the instant the
    /// ticket carries, not whenever the drain gets to the ticket.
    pub fn drain(self) -> Burst {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let outcomes = self
            .tickets
            .into_iter()
            .map(|slot| {
                slot.map(|(enqueued, ticket)| {
                    let (reply, completed) = ticket
                        .wait_deadline_timed(deadline.saturating_duration_since(Instant::now()));
                    (reply, completed.saturating_duration_since(enqueued))
                })
            })
            .collect();
        Burst {
            outcomes,
            secs: self.start.elapsed().as_secs_f64(),
        }
    }
}

/// Submits `trace` as one burst and drains it ([`submit`] then
/// [`InFlight::drain`]).
///
/// # Errors
///
/// Any admission error other than [`ServeError::QuotaExceeded`].
pub fn run(server: &Server<F64Arith>, trace: &[ServeRequest]) -> Result<Burst, ServeError> {
    Ok(submit(server, trace, |_| Ok(()))?.drain())
}

/// A drained trace: one outcome slot per trace entry.
#[derive(Clone, Debug, Default)]
pub struct Burst {
    /// The answer and its latency, or `None` where the tenant quota
    /// rejected the request at admission.
    pub outcomes: Vec<Option<(LaneResult<f64>, Duration)>>,
    /// Wall time from the first submission to the last answer, seconds.
    pub secs: f64,
}

impl Burst {
    /// Requests the quota rejected at admission.
    pub fn rejects(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// Requests admitted and answered.
    pub fn admitted(&self) -> usize {
        self.outcomes.len() - self.rejects()
    }

    /// Admitted requests per second of wall time (0 for an untimed
    /// burst).
    pub fn throughput_rps(&self) -> f64 {
        crate::bench_json::per_sec(self.admitted(), self.secs)
    }

    /// The latencies of the admitted requests whose trace index passes
    /// `keep`, as a histogram — the source of every report's and
    /// record's percentiles.
    pub fn latency(&self, keep: impl Fn(usize) -> bool) -> HistogramSnapshot {
        let histogram = Histogram::new();
        for (i, outcome) in self.outcomes.iter().enumerate() {
            if let Some((_, waited)) = outcome.as_ref().filter(|_| keep(i)) {
                histogram.observe_duration(*waited);
            }
        }
        histogram.snapshot()
    }

    /// Appends a later burst (the next round of the same pass).
    pub fn append(&mut self, later: Burst) {
        self.outcomes.extend(later.outcomes);
        self.secs += later.secs;
    }
}

/// The per-request tree-walk answer a served response must reproduce
/// bit for bit.
#[derive(Clone, PartialEq, Debug)]
pub enum ScalarReply {
    /// `Pr(e)`.
    Marginal(f64),
    /// The max-product value `max_x Pr(x, e)`.
    Mpe(f64),
    /// The posterior over the query variable and its argmax.
    Conditional {
        /// `posteriors[s] = Pr(q = s | e)`.
        posteriors: Vec<f64>,
        /// The argmax state.
        prediction: usize,
    },
    /// A conditional on evidence of probability zero.
    Impossible,
}

impl ScalarReply {
    /// Whether `reply` to `req` reproduces this reference bit for bit:
    /// values, posteriors and predictions, and the typed
    /// impossible-evidence lanes. An MPE assignment may break a tie
    /// differently from the scalar decoder, so it must instead achieve
    /// the reference value exactly on `ac` and respect the evidence.
    pub fn matches(&self, reply: &LaneResult<f64>, req: &ServeRequest, ac: &AcGraph) -> bool {
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        match (reply, self) {
            (Ok(ServeResponse::Marginal { value, .. }), ScalarReply::Marginal(w)) => same(value, w),
            (
                Ok(ServeResponse::Mpe {
                    value, assignment, ..
                }),
                ScalarReply::Mpe(w),
            ) => {
                same(value, w)
                    && assignment.len() == req.evidence.len()
                    && ac
                        .evaluate(&Evidence::from_assignment(assignment))
                        .is_ok_and(|joint| same(&joint, w))
                    && req
                        .evidence
                        .iter()
                        .all(|(var, s)| assignment[var.index()] == s)
            }
            (
                Ok(ServeResponse::Conditional {
                    posteriors,
                    prediction,
                    ..
                }),
                ScalarReply::Conditional {
                    posteriors: wp,
                    prediction: wpred,
                },
            ) => {
                prediction == wpred
                    && posteriors.len() == wp.len()
                    && posteriors.iter().zip(wp).all(|(a, b)| same(a, b))
            }
            (Err(ServeError::ImpossibleEvidence), ScalarReply::Impossible) => true,
            _ => false,
        }
    }
}

fn tenant<'a>(tenants: &'a [Tenant], model: &str) -> Result<&'a Tenant, ServeError> {
    tenants
        .iter()
        .find(|t| t.name == model)
        .ok_or_else(|| ServeError::UnknownModel {
            model: model.to_string(),
        })
}

fn tree_walk(ac: &AcGraph, req: &ServeRequest) -> Result<ScalarReply, AcError> {
    let e = &req.evidence;
    Ok(match req.query {
        BatchQuery::Marginal => ScalarReply::Marginal(ac.evaluate(e)?),
        BatchQuery::Mpe => ScalarReply::Mpe(ac.mpe_assignment(e)?.1),
        BatchQuery::Conditional { query_var } => {
            let den = ac.evaluate(e)?;
            if den == 0.0 {
                return Ok(ScalarReply::Impossible);
            }
            let mut posteriors = Vec::new();
            let mut prediction = 0usize;
            let mut best = f64::NEG_INFINITY;
            for s in 0..ac.var_arities()[query_var.index()] {
                let mut with_q = e.clone();
                with_q.observe(query_var, s);
                let num = ac.evaluate(&with_q)?;
                posteriors.push(num / den);
                if num > best {
                    best = num;
                    prediction = s;
                }
            }
            ScalarReply::Conditional {
                posteriors,
                prediction,
            }
        }
    })
}

/// Answers every request of `trace` alone on its tenant's tree-walk
/// (the paper's software baseline), timing each one: the bit-identity
/// reference and the scalar side of a speedup.
///
/// # Errors
///
/// [`ServeError::UnknownModel`] for a request no tenant hosts, or the
/// circuit's evaluation error.
pub fn scalar_replay(
    tenants: &[Tenant],
    trace: &[ServeRequest],
) -> Result<Vec<(ScalarReply, Duration)>, ServeError> {
    trace
        .iter()
        .map(|req| {
            let ac = &tenant(tenants, &req.model)?.circuit;
            let start = Instant::now();
            let reply = tree_walk(ac, req).map_err(EngineError::from)?;
            Ok((reply, start.elapsed()))
        })
        .collect()
}

/// Trace indices whose answer in `answers` is not bit-identical to the
/// request evaluated alone, both through `pool.serve_one` (payload
/// equality, [`lane_answer_eq`]: flags are batch-scope) and on the
/// tree-walk `scalar` reference of [`scalar_replay`]. Quota-rejected
/// slots are skipped.
pub fn mismatches(
    tenants: &[Tenant],
    pool: &CircuitPool<F64Arith>,
    trace: &[ServeRequest],
    answers: &Burst,
    scalar: &[(ScalarReply, Duration)],
) -> Vec<usize> {
    trace
        .iter()
        .zip(&answers.outcomes)
        .zip(scalar)
        .enumerate()
        .filter_map(|(i, ((req, outcome), (want, _)))| {
            let (reply, _) = outcome.as_ref()?;
            let ok = tenant(tenants, &req.model)
                .is_ok_and(|t| want.matches(reply, req, &t.circuit))
                && lane_answer_eq(&pool.serve_one(req), reply);
            (!ok).then_some(i)
        })
        .collect()
}

/// Validates `record` against the `problp-bench/v1` schema, then writes
/// it pretty-printed to `path` — the one path every record emitter
/// takes, so no invalid record reaches disk.
///
/// # Errors
///
/// The validation failure or the filesystem error, as text.
pub fn write_record(record: &BenchRecord, path: &Path) -> Result<(), String> {
    let text = record.to_json().render_pretty();
    validate_bench_json(&text)
        .map_err(|e| format!("bench record {:?} is invalid: {e}", record.scenario))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::networks;
    use problp_engine::ServeConfig;

    fn two_tenants() -> Vec<Tenant> {
        tenants(vec![
            ("sprinkler".to_string(), networks::sprinkler()),
            ("asia".to_string(), networks::asia()),
        ])
        .expect("built-in networks compile")
    }

    #[test]
    fn the_same_seed_gives_the_same_trace_and_another_seed_another() {
        let t = two_tenants();
        let mix = Mix::Uniform { batch_share: 30 };
        let a = trace(&t, 64, 11, mix);
        assert_eq!(a.len(), 64);
        assert_eq!(a, trace(&t, 64, 11, mix));
        assert_ne!(a, trace(&t, 64, 12, mix));
        // Both lanes and both tenants occur at this share and length.
        assert!(a.iter().any(|r| r.priority == Priority::Batch));
        assert!(a.iter().any(|r| r.priority == Priority::Interactive));
        assert!(a.iter().any(|r| r.model == "asia"));
        assert!(a.iter().any(|r| r.model == "sprinkler"));
    }

    #[test]
    fn a_hot_mix_floods_tenant_zero_on_the_interactive_lane_only() {
        let t = two_tenants();
        let hot = trace(&t, 200, 7, Mix::Hot);
        for r in &hot {
            assert_eq!(r.model == "sprinkler", r.priority == Priority::Interactive);
        }
        let on_hot = hot.iter().filter(|r| r.model == "sprinkler").count();
        assert!(
            (100..180).contains(&on_hot),
            "{on_hot} of 200 on the hot tenant"
        );
    }

    #[test]
    fn a_quota_bound_burst_books_exactly_the_servers_rejects() {
        let t = two_tenants();
        // One worker and a long coalescing window keep the burst queued,
        // so a quota of 4 lanes per tenant must bite.
        let server = Server::start(
            register(&t).expect("registers"),
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_millis(50),
                workers: 1,
                tenant_quota: 4,
                ..ServeConfig::default()
            },
        );
        let requests = trace(&t, 40, 3, Mix::Uniform { batch_share: 0 });
        let burst = run(&server, &requests).expect("only quota rejects at admission");
        assert!(burst.rejects() > 0, "the quota never bit");
        assert_eq!(burst.rejects() as u64, server.stats().rejected_quota);
        assert_eq!(burst.admitted() + burst.rejects(), requests.len());
        assert!(burst.throughput_rps() > 0.0);
        assert_eq!(burst.latency(|_| true).count, burst.admitted() as u64);
        let scalar = scalar_replay(&t, &requests).expect("replays");
        assert!(mismatches(&t, server.pool(), &requests, &burst, &scalar).is_empty());
        server.shutdown();
    }

    #[test]
    fn admission_errors_other_than_quota_come_back_typed() {
        let t = two_tenants();
        let server = Server::start(register(&t).expect("registers"), ServeConfig::default());
        let mut requests = trace(&t, 8, 1, Mix::Uniform { batch_share: 0 });
        requests[3].model = "nope".to_string();
        match run(&server, &requests) {
            Err(ServeError::UnknownModel { model }) => assert_eq!(model, "nope"),
            other => panic!("expected UnknownModel, got {:?}", other.map(|b| b.outcomes)),
        }
        assert!(matches!(
            scalar_replay(&t, &requests),
            Err(ServeError::UnknownModel { .. })
        ));
        server.shutdown();
    }

    #[test]
    fn a_wrong_answer_is_a_mismatch() {
        let t = two_tenants();
        let server = Server::start(register(&t).expect("registers"), ServeConfig::default());
        let requests = trace(&t, 24, 5, Mix::Uniform { batch_share: 50 });
        let mut burst = run(&server, &requests).expect("admits");
        let scalar = scalar_replay(&t, &requests).expect("replays");
        assert!(mismatches(&t, server.pool(), &requests, &burst, &scalar).is_empty());
        let (reply, _) = burst.outcomes[2].as_mut().expect("admitted");
        *reply = Err(ServeError::Disconnected);
        assert_eq!(
            mismatches(&t, server.pool(), &requests, &burst, &scalar),
            vec![2]
        );
        server.shutdown();
    }

    #[test]
    fn write_record_refuses_an_invalid_record() {
        let dir = std::env::temp_dir().join(format!("problp-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut record = BenchRecord {
            scenario: "scenario_test".to_string(),
            requests: 1,
            throughput_rps: 2.0,
            latency: None,
            rejects: 0,
            extra: Vec::new(),
        };
        let path = dir.join(record.file_name());
        write_record(&record, &path).expect("a valid record writes");
        assert!(validate_bench_json(&std::fs::read_to_string(&path).unwrap()).is_ok());
        std::fs::remove_file(&path).expect("cleanup");
        // JSON has no NaN: the throughput renders as null and fails the
        // schema, so nothing is written.
        record.throughput_rps = f64::NAN;
        let err = write_record(&record, &path).unwrap_err();
        assert!(err.contains("throughput_rps"), "{err}");
        assert!(!path.exists());
        std::fs::remove_dir(&dir).ok();
    }
}
