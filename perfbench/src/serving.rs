//! What the two serving workloads share: the hosted tenants, the
//! server set-up, the reference check and readings of the server's own
//! counters.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use problp_ac::{compile, AcGraph};
use problp_bayes::{networks, BatchQuery, BayesNet, Evidence};
use problp_engine::{CircuitPool, Priority, ServeConfig, ServeRequest, Server};
use problp_num::F64Arith;
use problp_telemetry::{metric_names, JsonValue, MetricsRegistry};

use crate::trace::{Child, Tracer};

/// Seed of the Alarm network's CPTs. Models are fixed; the run seed
/// only varies the requests.
pub const MODEL_SEED: u64 = 7;

/// One hosted model.
pub struct Tenant {
    pub name: &'static str,
    pub net: BayesNet,
    pub ac: AcGraph,
}

/// A started server with its tenants and set-up timings.
pub struct Hosted {
    pub tenants: Vec<Tenant>,
    pub server: Arc<Server<F64Arith>>,
    /// Mean `compile` time per model (ms).
    pub compile_ms: f64,
    /// Mean `CircuitPool::register` time per model (ms).
    pub register_ms: f64,
}

/// Builds and compiles alarm, asia and sprinkler, registers them in a
/// pool (default kernel) and starts a server with `config`.
pub fn host(config: ServeConfig, tracer: Option<&Tracer>) -> Hosted {
    let t0 = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    let mut pool = CircuitPool::new(F64Arith::new());
    let mut tenants = Vec::new();
    let (mut compile_ms, mut register_ms) = (0.0, 0.0);
    for (name, net) in [
        ("alarm", networks::alarm(MODEL_SEED)),
        ("asia", networks::asia()),
        ("sprinkler", networks::sprinkler()),
    ] {
        let c0 = Instant::now();
        let ac = compile(&net).expect("builtin networks compile");
        let c1 = Instant::now();
        pool.register(name, &ac)
            .expect("compiled circuits register");
        let c2 = Instant::now();
        compile_ms += crate::ms(c0, c1);
        register_ms += crate::ms(c1, c2);
        children.push(("ac.compile", c0, c1));
        children.push(("pool.register", c1, c2));
        tenants.push(Tenant { name, net, ac });
    }
    let s0 = Instant::now();
    let server = Arc::new(Server::start(pool, config));
    let s1 = Instant::now();
    children.push(("server.start", s0, s1));
    if let Some(tracer) = tracer {
        tracer.record(0, "setup", t0, s1, &children);
    }
    let n = tenants.len() as f64;
    Hosted {
        tenants,
        server,
        compile_ms: compile_ms / n,
        register_ms: register_ms / n,
    }
}

impl Hosted {
    /// The per-layer set-up metrics of this build.
    pub fn setup_layers(&self) -> BTreeMap<String, f64> {
        [
            ("ac.compile_ms".to_string(), self.compile_ms),
            ("pool.register_ms".to_string(), self.register_ms),
        ]
        .into_iter()
        .collect()
    }
}

/// An interactive request for `model`.
pub fn request(model: &str, query: BatchQuery, evidence: Evidence) -> ServeRequest {
    ServeRequest {
        model: model.to_string(),
        evidence,
        query,
        priority: Priority::Interactive,
    }
}

/// Point-in-time readings of the server counters the workloads report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub admitted: u64,
    pub dispatches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub depth_high_water: i64,
    /// Sum (µs) and count of `problp_engine_evaluate_us` over all
    /// query kinds.
    pub evaluate_sum_us: u64,
    pub evaluate_count: u64,
}

/// Reads the counters from `server`.
pub fn counters(server: &Server<F64Arith>) -> Counters {
    let stats = server.stats();
    let (evaluate_sum_us, evaluate_count) =
        series(&server.metrics(), metric_names::ENGINE_EVALUATE_US)
            .iter()
            .fold((0, 0), |(s, c), doc| {
                (s + field_u64(doc, "sum"), c + field_u64(doc, "count"))
            });
    Counters {
        admitted: stats.admitted,
        dispatches: stats.dispatches,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: stats.cache_evictions,
        depth_high_water: stats.queue_depth_high_water,
        evaluate_sum_us,
        evaluate_count,
    }
}

/// `problp_gateway_requests_total` by status code.
pub fn gateway_statuses(registry: &MetricsRegistry) -> BTreeMap<u16, u64> {
    series(registry, metric_names::GATEWAY_REQUESTS_TOTAL)
        .iter()
        .filter_map(|doc| {
            let code = doc.get("labels")?.get("status")?.as_str()?.parse().ok()?;
            Some((code, field_u64(doc, "value")))
        })
        .collect()
}

/// Every JSON-rendered series of metric `name`.
fn series(registry: &MetricsRegistry, name: &str) -> Vec<JsonValue> {
    let doc = registry.render_json();
    doc.get("series")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
        .cloned()
        .collect()
}

fn field_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
}

/// The mean engine evaluate time between two readings (µs).
pub fn evaluate_mean_us(before: &Counters, after: &Counters) -> f64 {
    let n = after.evaluate_count.saturating_sub(before.evaluate_count);
    if n == 0 {
        0.0
    } else {
        after.evaluate_sum_us.saturating_sub(before.evaluate_sum_us) as f64 / n as f64
    }
}

/// Whether `got` is an answer bit-identical (flags aside) to the
/// uncached single-request reference path `CircuitPool::serve_one`.
pub fn matches_reference(
    server: &Server<F64Arith>,
    req: &ServeRequest,
    got: &problp_engine::LaneResult<f64>,
) -> bool {
    got.is_ok() && problp_engine::lane_answer_eq(got, &server.pool().serve_one(req))
}
