//! Serve-layer observability: the admission/dispatch counters a
//! [`Server`] exports must agree exactly with the typed results the API
//! returns — tests read [`Server::stats`] and the Prometheus rendering
//! instead of parsing any stdout.

use std::sync::Arc;
use std::time::Duration;

use problp_ac::compile;
use problp_bayes::{networks, BatchQuery, Evidence};
use problp_engine::{CircuitPool, Priority, ServeConfig, ServeError, ServeRequest, Server};
use problp_num::F64Arith;
use problp_telemetry::{metric_names, MetricsRegistry};

fn two_model_pool() -> CircuitPool<F64Arith> {
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("sprinkler", &compile(&networks::sprinkler()).unwrap())
        .unwrap();
    pool.register("asia", &compile(&networks::asia()).unwrap())
        .unwrap();
    pool
}

fn request(model: &str, vars: usize, priority: Priority) -> ServeRequest {
    ServeRequest {
        model: model.to_string(),
        evidence: Evidence::empty(vars),
        query: BatchQuery::Marginal,
        priority,
    }
}

/// Every typed admission outcome increments exactly its counter: the
/// stats snapshot is the ground truth the sidecar exports.
#[test]
fn reject_counters_match_typed_serve_errors() {
    let server = Server::start(
        two_model_pool(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );

    // Two good requests, one unknown model, one shape mismatch.
    let t1 = server.submit(request("sprinkler", 4, Priority::Interactive));
    let t2 = server.submit(request("asia", 8, Priority::Batch));
    assert!(t1.is_ok() && t2.is_ok());
    assert!(matches!(
        server.submit(request("nonesuch", 4, Priority::Interactive)),
        Err(ServeError::UnknownModel { .. })
    ));
    assert!(matches!(
        server.submit(request("sprinkler", 99, Priority::Interactive)),
        Err(ServeError::Engine(_))
    ));
    assert!(t1.unwrap().wait().is_ok());
    assert!(t2.unwrap().wait().is_ok());

    let stats = server.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.rejected_unknown_model, 1);
    assert_eq!(stats.rejected_bad_shape, 1);
    assert_eq!(stats.rejected_quota, 0);
    assert_eq!(stats.rejected_shutdown, 0);
    assert!(stats.dispatches >= 1, "{stats:?}");
    assert_eq!(stats.models, vec!["asia", "sprinkler"]);
    assert_eq!(stats.live_workers, 2);
    server.shutdown();
}

/// Quota rejects and the post-shutdown reject are typed and counted,
/// and the per-tenant lane books drain back to empty.
#[test]
fn quota_and_shutdown_rejects_are_counted() {
    let server = Server::start(
        two_model_pool(),
        ServeConfig {
            // One worker and a generous wait so the queue holds lanes
            // long enough for the quota to engage deterministically.
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_millis(50),
            tenant_quota: 3,
            ..ServeConfig::default()
        },
    );
    let mut tickets = Vec::new();
    let mut quota_rejects = 0u64;
    for _ in 0..8 {
        match server.submit(request("sprinkler", 4, Priority::Interactive)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QuotaExceeded { model, quota }) => {
                assert_eq!(model, "sprinkler");
                assert_eq!(quota, 3);
                quota_rejects += 1;
            }
            Err(other) => panic!("unexpected reject: {other}"),
        }
    }
    assert!(quota_rejects > 0, "quota never engaged");
    // While lanes are queued/in flight, the books show the tenant.
    let mid = server.stats();
    assert_eq!(mid.rejected_quota, quota_rejects);
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let drained = server.stats();
    assert!(
        drained.tenant_lanes.is_empty(),
        "lane books must drain: {:?}",
        drained.tenant_lanes
    );
    server.shutdown();
    // The server handle is consumed by shutdown; counters live on in a
    // fresh server for the shutdown-reject path.
    let server = Server::start(two_model_pool(), ServeConfig::default());
    let stats_before = server.stats();
    assert_eq!(stats_before.rejected_shutdown, 0);
    drop(server);
}

/// The caller-supplied registry receives the serve metrics, rendered in
/// Prometheus text form with the documented names.
#[test]
fn instrumented_server_renders_prometheus_series() {
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::start_instrumented(
        two_model_pool(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    );
    let responses = server.serve_all(&[
        request("sprinkler", 4, Priority::Interactive),
        request("asia", 8, Priority::Batch),
        request("sprinkler", 4, Priority::Batch),
    ]);
    assert!(responses.iter().all(|r| r.is_ok()));

    let text = registry.render_prometheus();
    assert!(text.contains(&format!("{} 3", metric_names::SERVE_REQUESTS_TOTAL)));
    assert!(text.contains(&format!("{} 3", metric_names::SERVE_ADMITTED_TOTAL)));
    assert!(text.contains(metric_names::SERVE_QUEUE_DEPTH));
    assert!(text.contains(&format!("{}_high_water", metric_names::SERVE_QUEUE_DEPTH)));
    assert!(text.contains(&format!(
        "{}{{kind=\"quota\"}} 0",
        metric_names::SERVE_REJECTED_TOTAL
    )));
    assert!(text.contains(&format!(
        "{}_bucket{{query=\"marginal\",priority=\"interactive\",le=\"+Inf\"}}",
        metric_names::SERVE_SOJOURN_US
    )));
    // Three lanes dispatched → the engine counters moved.
    let instrs = registry.counter(metric_names::ENGINE_TAPE_INSTRS_TOTAL, "");
    assert!(instrs.get() > 0, "tape instruction counter never moved");
    assert_eq!(server.metrics().render_prometheus(), text);
    server.shutdown();
}

/// The health callback tracks dispatcher liveness across shutdown.
#[test]
fn health_fn_reflects_worker_liveness() {
    let server = Server::start(
        two_model_pool(),
        ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
    );
    let health = server.health_fn();
    let status = health();
    assert!(status.healthy);
    assert!(status
        .detail
        .iter()
        .any(|(k, v)| k == "models" && v == "asia,sprinkler"));
    server.shutdown();
    let status = health();
    assert!(!status.healthy, "shutdown server must report unhealthy");
    assert!(status
        .detail
        .iter()
        .any(|(k, v)| k == "workers_alive" && v == "0"));
}

/// Every shard is counted live before `start` returns: no sleep, no
/// poll, for any worker count.
#[test]
fn live_workers_are_counted_when_start_returns() {
    for workers in 1..=8 {
        let server = Server::start(
            two_model_pool(),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.stats().live_workers, workers as i64);
        server.shutdown();
    }
}
