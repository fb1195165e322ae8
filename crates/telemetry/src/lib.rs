//! # problp-telemetry — dependency-free observability for ProbLP
//!
//! Everything the serving stack exports about itself flows through this
//! crate: a [`MetricsRegistry`] of atomic counters, gauges and
//! fixed-bucket histograms (lock-free hot path, Prometheus text
//! rendering), a hand-rolled JSON value type ([`JsonValue`]) for
//! `/statz` and `BENCH_*.json`, the one HTTP/1.1 server core
//! ([`HttpServer`]) shared with the query gateway, and the [`Sidecar`]
//! serving `/metrics`, `/healthz` and `/statz` on it.
//!
//! The crate deliberately has **zero dependencies** (std only) so it
//! slots into the offline, vendor-shimmed workspace and can be pulled
//! in by `problp-engine` without a cycle.
//!
//! ## The metric namespace
//!
//! All serve-pipeline metric names live in [`metric_names`] with
//! rustdoc per name; the README "Observability" section carries the
//! same catalog. Conventions: `_total` for monotone counters, `_us`
//! for microsecond histograms, and every gauge additionally renders a
//! `<name>_high_water` series.
//!
//! ## Example
//!
//! ```
//! use problp_telemetry::{MetricsRegistry, default_latency_buckets_us};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let admitted = registry.counter("problp_serve_admitted_total", "lanes admitted");
//! let latency = registry.histogram(
//!     "problp_serve_sojourn_us",
//!     "submit-to-completion, microseconds",
//!     default_latency_buckets_us(),
//! );
//! admitted.add(3);
//! latency.observe(120);
//! let text = registry.render_prometheus();
//! assert!(text.contains("problp_serve_admitted_total 3"));
//! assert!(text.contains("problp_serve_sojourn_us_count 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod httpd;
pub mod json;
pub mod registry;
pub mod sidecar;

pub use httpd::{
    http_get, http_post, http_request, read_request, read_response, HttpAnswer, HttpError,
    HttpLimits, HttpRequest, HttpResponse, HttpServer, Incoming,
};
pub use json::{JsonError, JsonErrorKind, JsonValue};
pub use registry::{
    default_latency_buckets_us, default_size_buckets, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry,
};
pub use sidecar::{HealthFn, HealthStatus, Sidecar};

/// The serve-pipeline metric catalog: one documented constant per
/// exported metric name, so instrumentation sites and tests never
/// hand-type a name and the rustdoc doubles as the reference catalog.
pub mod metric_names {
    /// Counter: every lane submitted to [`Server::submit`], admitted or
    /// not.
    ///
    /// [`Server::submit`]: https://docs.rs/problp-engine
    pub const SERVE_REQUESTS_TOTAL: &str = "problp_serve_requests_total";
    /// Counter: lanes that passed admission and were queued.
    pub const SERVE_ADMITTED_TOTAL: &str = "problp_serve_admitted_total";
    /// Counter, label `kind` ∈ {`unknown_model`, `bad_shape`, `quota`,
    /// `shutdown`}: typed admission rejects by `ServeError` kind.
    pub const SERVE_REJECTED_TOTAL: &str = "problp_serve_rejected_total";
    /// Gauge, label `model`: lanes currently queued or in flight for a
    /// tenant (only exported when a tenant quota is configured).
    pub const SERVE_TENANT_LANES: &str = "problp_serve_tenant_lanes";
    /// Gauge: coalesced groups currently waiting for dispatch; its
    /// `_high_water` series is the max queue depth ever seen.
    pub const SERVE_QUEUE_DEPTH: &str = "problp_serve_queue_depth";
    /// Histogram: lanes per dispatched group (coalescing effectiveness).
    pub const SERVE_GROUP_LANES: &str = "problp_serve_group_lanes";
    /// Histogram: the adaptive coalescing wait actually applied per
    /// dispatched group, microseconds.
    pub const SERVE_EFFECTIVE_WAIT_US: &str = "problp_serve_effective_wait_us";
    /// Counter: batch groups promoted to interactive rank by priority
    /// aging before dispatch.
    pub const SERVE_AGING_PROMOTIONS_TOTAL: &str = "problp_serve_aging_promotions_total";
    /// Counter: dispatched groups (one evaluate call each).
    pub const SERVE_DISPATCHES_TOTAL: &str = "problp_serve_dispatches_total";
    /// Counter: exact answer-cache hits — lanes resolved at admission
    /// with a memoized, bit-identical payload. Always exported; stays
    /// at zero when `ServeConfig::cache_capacity` is zero.
    pub const SERVE_CACHE_HITS_TOTAL: &str = "problp_serve_cache_hits_total";
    /// Counter: answer-cache lookups that fell through to the queue.
    pub const SERVE_CACHE_MISSES_TOTAL: &str = "problp_serve_cache_misses_total";
    /// Counter: answer-cache entries dropped — LRU capacity pressure
    /// plus per-model invalidation on a hot reload.
    pub const SERVE_CACHE_EVICTIONS_TOTAL: &str = "problp_serve_cache_evictions_total";
    /// Gauge, label `model`: the tape version currently serving new
    /// admissions for a hosted model (starts at 1, bumped by each
    /// reload or re-register).
    pub const POOL_MODEL_VERSION: &str = "problp_pool_model_version";
    /// Histogram, labels `query` ∈ {`marginal`, `mpe`, `conditional`} ×
    /// `priority` ∈ {`interactive`, `batch`}: enqueue-to-completion
    /// sojourn, microseconds.
    pub const SERVE_SOJOURN_US: &str = "problp_serve_sojourn_us";
    /// Histogram, label `query`: engine evaluate wall time per
    /// dispatched group, microseconds.
    pub const ENGINE_EVALUATE_US: &str = "problp_engine_evaluate_us";
    /// Counter: tape instructions executed, summed as
    /// `instructions × lanes` per dispatched group. For engines running
    /// the fused kernel this still counts the *unfused* stream — the
    /// work the sweep answers for — while
    /// [`ENGINE_FUSED_INSTRS_TOTAL`] counts the superinstructions it
    /// actually dispatched; the ratio of the two is the live fusion
    /// rate.
    pub const ENGINE_TAPE_INSTRS_TOTAL: &str = "problp_engine_tape_instrs_total";
    /// Counter: fused superinstructions executed, summed as
    /// `fused instructions × lanes` per dispatched group. Only engines
    /// running the `fused` kernel (`Engine::with_kernel`) move it;
    /// compare against [`ENGINE_TAPE_INSTRS_TOTAL`] for the dispatch
    /// amplification fusion removed.
    pub const ENGINE_FUSED_INSTRS_TOTAL: &str = "problp_engine_fused_instrs_total";
    /// Counter, label `kernel` ∈ {`scalar`, `fused`}: dispatched groups
    /// by the evaluator core that served them — the live mix of kernel
    /// dispatch across the pool. `CircuitPool::new` pools stay on
    /// `scalar` unless `CircuitPool::with_kernel` says otherwise.
    pub const ENGINE_KERNEL_DISPATCHES_TOTAL: &str = "problp_engine_kernel_dispatches_total";
    /// Counter, label `flag` ∈ {`overflow`, `underflow`, `inexact`,
    /// `invalid`}: groups whose evaluation raised the sticky flag.
    pub const ENGINE_FLAG_RAISES_TOTAL: &str = "problp_engine_flag_raises_total";
    /// Counter: static verifier / range-analysis passes run (one per
    /// tape × format analyzed).
    pub const VERIFY_RUNS_TOTAL: &str = "problp_verify_runs_total";
    /// Counter: tapes the static verifier rejected with a typed
    /// `VerifyError` (admission-gate and CLI rejects alike).
    pub const VERIFY_REJECTS_TOTAL: &str = "problp_verify_rejects_total";
    /// Counter: instructions classified *provably-safe* by the range
    /// analysis, summed across runs.
    pub const VERIFY_INSTRS_SAFE_TOTAL: &str = "problp_verify_instrs_safe_total";
    /// Counter: instructions classified *may-saturate*, summed across
    /// runs.
    pub const VERIFY_INSTRS_MAY_SATURATE_TOTAL: &str = "problp_verify_instrs_may_saturate_total";
    /// Counter: instructions classified *may-underflow*, summed across
    /// runs.
    pub const VERIFY_INSTRS_MAY_UNDERFLOW_TOTAL: &str = "problp_verify_instrs_may_underflow_total";
    /// Counter, label `status` (HTTP status code as a string, e.g.
    /// `"200"`, `"429"`): every HTTP response the query gateway wrote,
    /// including protocol-level rejects (400/408/413/431) and
    /// load-shedding 503s from a full worker queue.
    pub const GATEWAY_REQUESTS_TOTAL: &str = "problp_gateway_requests_total";
    /// Histogram: request body bytes per gateway query (after the
    /// max-body admission cap).
    pub const GATEWAY_BODY_BYTES: &str = "problp_gateway_body_bytes";
    /// Histogram: gateway handler latency per parsed request —
    /// auth + decode + `Server::submit` + ticket wait + render,
    /// excluding socket read/write time — microseconds.
    pub const GATEWAY_HANDLER_US: &str = "problp_gateway_handler_us";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[10, 20, 50]);
        // Exactly on an edge → that bucket, one past → the next.
        h.observe(10);
        h.observe(11);
        h.observe(20);
        h.observe(21);
        h.observe(50);
        h.observe(51); // +Inf bucket
        h.observe(0); // below the first edge → first bucket
        let snap = h.snapshot();
        assert_eq!(snap.bounds, vec![10, 20, 50]);
        assert_eq!(snap.counts, vec![2, 2, 2, 1]);
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 10 + 11 + 20 + 21 + 50 + 51);
        assert_eq!(snap.max, 51);
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let h = Histogram::new(&[1, 2, 5, 10]);
        for v in [1, 1, 2, 5, 9] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), Some(1));
        assert_eq!(snap.quantile(50.0), Some(2));
        // p100 clamps to the observed max, never out of range.
        assert_eq!(snap.quantile(100.0), Some(9));
        assert_eq!(snap.quantile(f64::NAN), Some(1));
        assert_eq!(Histogram::new(&[1]).snapshot().quantile(50.0), None);
    }

    #[test]
    fn quantile_caps_at_observed_max_within_bucket() {
        let h = Histogram::new(&[1_000_000]);
        h.observe(3);
        // Everything is in the 1s bucket but the real max is 3 µs.
        assert_eq!(h.snapshot().quantile(99.0), Some(3));
    }

    #[test]
    fn prometheus_rendering_golden() {
        let registry = MetricsRegistry::new();
        let c = registry.counter_with(
            "problp_serve_rejected_total",
            &[("kind", "quota")],
            "typed admission rejects",
        );
        c.add(4);
        let g = registry.gauge("problp_serve_queue_depth", "groups waiting");
        g.set(7);
        g.set(2);
        let h = registry.histogram("req_us", "request latency", &[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(500);
        let expected = "\
# HELP problp_serve_rejected_total typed admission rejects
# TYPE problp_serve_rejected_total counter
problp_serve_rejected_total{kind=\"quota\"} 4
# HELP problp_serve_queue_depth groups waiting
# TYPE problp_serve_queue_depth gauge
problp_serve_queue_depth 2
problp_serve_queue_depth_high_water 7
# HELP req_us request latency
# TYPE req_us histogram
req_us_bucket{le=\"10\"} 2
req_us_bucket{le=\"100\"} 2
req_us_bucket{le=\"+Inf\"} 3
req_us_sum 515
req_us_count 3
";
        assert_eq!(registry.render_prometheus(), expected);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("c_total", "test");
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), threads as u64 * per_thread);
    }

    #[test]
    fn registry_get_or_create_returns_same_series() {
        let registry = MetricsRegistry::new();
        registry.counter("a_total", "a").add(2);
        registry.counter("a_total", "a").add(3);
        assert_eq!(registry.counter("a_total", "a").get(), 5);
        // Distinct labels are distinct series.
        registry.counter_with("b_total", &[("k", "x")], "b").inc();
        assert_eq!(
            registry.counter_with("b_total", &[("k", "y")], "b").get(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn registry_panics_on_type_clash() {
        let registry = MetricsRegistry::new();
        registry.counter("x", "x");
        registry.gauge("x", "x");
    }

    #[test]
    fn gauge_add_tracks_high_water() {
        let g = MetricsRegistry::new().gauge("g", "g");
        g.add(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8);
    }

    #[test]
    fn json_round_trip() {
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::from("problp-bench/v1")),
            ("requests".to_string(), JsonValue::from(512u64)),
            ("throughput_rps".to_string(), JsonValue::from(1234.5)),
            ("ok".to_string(), JsonValue::Bool(true)),
            ("none".to_string(), JsonValue::Null),
            (
                "arr".to_string(),
                JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from("x\n\"y")]),
            ),
        ]);
        let compact = doc.render();
        assert_eq!(JsonValue::parse(&compact).unwrap(), doc);
        let pretty = doc.render_pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), doc);
        assert!(pretty.contains("\"schema\": \"problp-bench/v1\""));
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn json_get_and_accessors() {
        let doc = JsonValue::parse("{\"a\": 3, \"b\": \"s\", \"c\": [1, 2]}").unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(
            doc.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn sidecar_serves_metrics_healthz_statz() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("hits_total", "test hits").add(9);
        let sidecar = Sidecar::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            Box::new(|| HealthStatus {
                healthy: true,
                detail: vec![("models".to_string(), "alarm,asia".to_string())],
            }),
        )
        .expect("bind sidecar");
        let addr = sidecar.local_addr();

        let (code, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("hits_total 9"));

        let (code, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(body.starts_with("ok\n"));
        assert!(body.contains("models: alarm,asia"));

        let (code, body) = http_get(&addr, "/statz").unwrap();
        assert_eq!(code, 200);
        let doc = JsonValue::parse(&body).expect("statz is valid json");
        assert_eq!(doc.get("healthy"), Some(&JsonValue::Bool(true)));
        assert!(doc.get("metrics").and_then(|m| m.get("series")).is_some());

        let (code, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn sidecar_unhealthy_is_503_and_shutdown_is_prompt() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut sidecar = Sidecar::start(
            "127.0.0.1:0",
            registry,
            Box::new(|| HealthStatus {
                healthy: false,
                detail: vec![("workers_alive".to_string(), "0".to_string())],
            }),
        )
        .expect("bind sidecar");
        let addr = sidecar.local_addr();
        let (code, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(body.starts_with("unhealthy\n"));
        let started = std::time::Instant::now();
        sidecar.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
