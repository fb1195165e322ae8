//! End-to-end tests of the HTTP query gateway over real sockets:
//! bit-identity of every answered query against the uncached
//! `CircuitPool::serve_one` reference path, the typed-error → status
//! mapping (401/404/400/413/422/429 + `Retry-After`), worker-pool
//! concurrency, and the `problp_gateway_*` instrumentation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_ac::compile;
use problp_bayes::{networks, BatchQuery, BayesNetBuilder, Evidence, VarId};
use problp_engine::serve::gateway::error_status;
use problp_engine::{
    CircuitPool, Gateway, GatewayConfig, Priority, ServeConfig, ServeError, ServeRequest,
    ServeResponse, Server,
};
use problp_num::F64Arith;
use problp_telemetry::{http_post, http_request, metric_names, JsonValue};

fn two_model_server(config: ServeConfig) -> Arc<Server<F64Arith>> {
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register(
        "sprinkler",
        &compile(&networks::sprinkler()).expect("compile"),
    )
    .expect("register sprinkler");
    pool.register("asia", &compile(&networks::asia()).expect("compile"))
        .expect("register asia");
    Arc::new(Server::start(pool, config))
}

fn tokens() -> Vec<(String, String)> {
    vec![
        ("tok-sprinkler".to_string(), "sprinkler".to_string()),
        ("tok-asia".to_string(), "asia".to_string()),
        ("tok-ghost".to_string(), "ghost".to_string()),
    ]
}

fn auth(token: &str) -> [(&'static str, String); 1] {
    [("Authorization", format!("Bearer {token}"))]
}

fn evidence_json(entries: &[Option<usize>]) -> String {
    let lanes: Vec<String> = entries
        .iter()
        .map(|e| match e {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    format!("[{}]", lanes.join(", "))
}

fn evidence_from(entries: &[Option<usize>]) -> Evidence {
    let mut evidence = Evidence::empty(entries.len());
    for (i, e) in entries.iter().enumerate() {
        if let Some(s) = e {
            evidence.observe(VarId::from_index(i), *s);
        }
    }
    evidence
}

#[test]
fn answers_are_bit_identical_to_serve_one() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    let cases: Vec<(&str, &str, Vec<Option<usize>>, &str)> = vec![
        ("tok-sprinkler", "marginal", vec![None; 4], "interactive"),
        (
            "tok-sprinkler",
            "marginal",
            vec![Some(0), None, Some(1), None],
            "batch",
        ),
        (
            "tok-sprinkler",
            "mpe",
            vec![None, Some(1), None, None],
            "interactive",
        ),
        ("tok-asia", "marginal", vec![None; 8], "interactive"),
        ("tok-asia", "mpe", vec![None; 8], "batch"),
    ];
    for (token, kind, entries, priority) in cases {
        let body = format!(
            r#"{{"query": "{kind}", "evidence": {}, "priority": "{priority}"}}"#,
            evidence_json(&entries)
        );
        let (code, _headers, text) =
            http_post(&addr, "/v1/query", &auth(token), &body).expect("post");
        assert_eq!(code, 200, "{kind}: {text}");
        let doc = JsonValue::parse(&text).expect("response json");
        let model = tokens()
            .iter()
            .find(|(t, _)| t == token)
            .map(|(_, m)| m.clone())
            .expect("token");
        let reference = server.pool().serve_one(&ServeRequest {
            model,
            evidence: evidence_from(&entries),
            query: match kind {
                "marginal" => BatchQuery::Marginal,
                _ => BatchQuery::Mpe,
            },
            priority: Priority::Interactive,
        });
        match reference.expect("reference answers") {
            ServeResponse::Marginal { value, .. } => {
                let got = doc.get("value").and_then(JsonValue::as_f64).expect("value");
                assert_eq!(got.to_bits(), value.to_bits(), "{kind} value drifted");
            }
            ServeResponse::Mpe {
                assignment, value, ..
            } => {
                let got_value = doc.get("value").and_then(JsonValue::as_f64).expect("value");
                assert_eq!(got_value.to_bits(), value.to_bits(), "mpe value drifted");
                let got_assignment: Vec<usize> = doc
                    .get("assignment")
                    .and_then(JsonValue::as_array)
                    .expect("assignment")
                    .iter()
                    .map(|v| v.as_f64().expect("state") as usize)
                    .collect();
                assert_eq!(got_assignment, assignment);
            }
            other => panic!("unexpected reference {other:?}"),
        }
    }

    // Conditional: posteriors bit for bit plus the prediction.
    let entries = [Some(1), None, None, None];
    let body = format!(
        r#"{{"query": "conditional", "query_var": 2, "evidence": {}}}"#,
        evidence_json(&entries)
    );
    let (code, _headers, text) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &body).expect("post");
    assert_eq!(code, 200, "{text}");
    let doc = JsonValue::parse(&text).expect("response json");
    let reference = server
        .pool()
        .serve_one(&ServeRequest {
            model: "sprinkler".to_string(),
            evidence: evidence_from(&entries),
            query: BatchQuery::Conditional {
                query_var: VarId::from_index(2),
            },
            priority: Priority::Interactive,
        })
        .expect("reference conditional");
    match reference {
        ServeResponse::Conditional {
            posteriors,
            prediction,
            ..
        } => {
            let got: Vec<f64> = doc
                .get("posteriors")
                .and_then(JsonValue::as_array)
                .expect("posteriors")
                .iter()
                .map(|v| v.as_f64().expect("posterior"))
                .collect();
            assert_eq!(got.len(), posteriors.len());
            for (g, r) in got.iter().zip(&posteriors) {
                assert_eq!(g.to_bits(), r.to_bits(), "posterior drifted");
            }
            let got_prediction = doc
                .get("prediction")
                .and_then(JsonValue::as_f64)
                .expect("prediction") as usize;
            assert_eq!(got_prediction, prediction);
        }
        other => panic!("unexpected reference {other:?}"),
    }
}

#[test]
fn auth_failures_are_401_and_unknown_models_404() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let good = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;

    // No Authorization header at all.
    let (code, _h, body) = http_post(&addr, "/v1/query", &[], good).expect("post");
    assert_eq!(code, 401, "{body}");
    assert!(body.contains("\"unauthorized\""));
    // Unknown token.
    let (code, _h, _b) = http_post(&addr, "/v1/query", &auth("tok-wrong"), good).expect("post");
    assert_eq!(code, 401);
    // Non-bearer scheme.
    let (code, _h, _b) = http_post(
        &addr,
        "/v1/query",
        &[("Authorization", "Basic dXNlcjpwdw==".to_string())],
        good,
    )
    .expect("post");
    assert_eq!(code, 401);
    // A valid token granting a model the pool does not host.
    let (code, _h, body) = http_post(&addr, "/v1/query", &auth("tok-ghost"), good).expect("post");
    assert_eq!(code, 404, "{body}");
    assert!(body.contains("\"unknown_model\""));
    // Unknown path and unsupported method.
    let (code, _h, _b) = http_post(&addr, "/v2/query", &auth("tok-sprinkler"), good).expect("post");
    assert_eq!(code, 404);
    let (code, _h, body) =
        http_request(&addr, "GET", "/v1/query", &auth("tok-sprinkler"), &[]).expect("get");
    assert_eq!(code, 405, "{body}");
    assert!(body.contains("\"method_not_allowed\""));
}

#[test]
fn bad_bodies_are_400_with_structured_errors() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    // Unparseable JSON.
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), "{nope").expect("post");
    assert_eq!(code, 400, "{body}");
    let doc = JsonValue::parse(&body).expect("error body is json");
    assert_eq!(
        doc.get("error").and_then(JsonValue::as_str),
        Some("bad_json")
    );
    assert!(doc.get("message").and_then(JsonValue::as_str).is_some());

    // Well-formed JSON, wrong evidence arity for the model: the typed
    // admission reject surfaces as bad_shape.
    let (code, _h, body) = http_post(
        &addr,
        "/v1/query",
        &auth("tok-sprinkler"),
        r#"{"query": "marginal", "evidence": [null, null]}"#,
    )
    .expect("post");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"bad_shape\""), "{body}");

    // An observed state past the variable's arity (every sprinkler
    // variable is binary) is a bad shape too, counted as one.
    let (code, _h, body) = http_post(
        &addr,
        "/v1/query",
        &auth("tok-sprinkler"),
        r#"{"query": "mpe", "evidence": [7, null, null, null]}"#,
    )
    .expect("post");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"bad_shape\""), "{body}");
    let needle = format!(
        "{}{{kind=\"bad_shape\"}} 2",
        metric_names::SERVE_REJECTED_TOTAL
    );
    let scrape = server.metrics().render_prometheus();
    assert!(scrape.contains(&needle), "missing {needle:?} in scrape");

    // Over the gateway's 64 KiB max-body cap: 413 from the declared
    // length.
    let huge = format!(
        r#"{{"query": "marginal", "evidence": [{}null]}}"#,
        "null, ".repeat(12_000)
    );
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &huge).expect("post");
    assert_eq!(code, 413, "{body}");
    assert!(body.contains("\"body_too_large\""), "{body}");
}

/// Regression: a deeply nested body once overflowed the parser's stack
/// and aborted the whole gateway process. It must be a typed 400, and
/// the gateway must keep answering afterwards.
#[test]
fn deeply_nested_json_is_400_and_the_gateway_survives() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    let nested = "[".repeat(60_000);
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &nested).expect("post");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"bad_json\""), "{body}");

    let query = format!(
        r#"{{"query": "marginal", "evidence": {}}}"#,
        evidence_json(&[None; 4])
    );
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &query).expect("post");
    assert_eq!(code, 200, "{body}");
}

#[test]
fn impossible_conditional_evidence_is_422() {
    // B is deterministically equal to A; observing A=0, B=1 has
    // probability zero, so the posterior over C does not exist.
    let mut builder = BayesNetBuilder::new();
    let a = builder.variable("A", 2);
    let b = builder.variable("B", 2);
    let c = builder.variable("C", 2);
    builder.cpt(a, [], [0.5, 0.5]).expect("cpt a");
    builder.cpt(b, [a], [1.0, 0.0, 0.0, 1.0]).expect("cpt b");
    builder.cpt(c, [a], [0.5, 0.5, 0.5, 0.5]).expect("cpt c");
    let net = builder.build().expect("build");
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("det", &compile(&net).expect("compile"))
        .expect("register");
    let server = Arc::new(Server::start(pool, ServeConfig::default()));
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: vec![("tok-det".to_string(), "det".to_string())],
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let (code, _h, body) = http_post(
        &gateway.local_addr(),
        "/v1/query",
        &auth("tok-det"),
        r#"{"query": "conditional", "query_var": 2, "evidence": [0, 1, null]}"#,
    )
    .expect("post");
    assert_eq!(code, 422, "{body}");
    assert!(body.contains("\"impossible_evidence\""), "{body}");
    // The reference path agrees it is the typed lane error.
    let reference = server.pool().serve_one(&ServeRequest {
        model: "det".to_string(),
        evidence: evidence_from(&[Some(0), Some(1), None]),
        query: BatchQuery::Conditional {
            query_var: VarId::from_index(2),
        },
        priority: Priority::Interactive,
    });
    assert_eq!(reference, Err(ServeError::ImpossibleEvidence));
}

#[test]
fn quota_pressure_is_429_with_retry_after() {
    // Long coalescing wait + quota 2: two requests sit queued while the
    // third is rejected at admission with QuotaExceeded → 429. The wait
    // must outlast the 600ms fill window below but stay well under the
    // HTTP client's 2s read timeout, or the fillers time out waiting
    // for their own answers.
    let server = two_model_server(ServeConfig {
        max_batch: 1024,
        max_wait: Duration::from_millis(1200),
        workers: 1,
        tenant_quota: 2,
        ..ServeConfig::default()
    });
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let body = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                http_post(&addr, "/v1/query", &auth("tok-sprinkler"), body).expect("filler post")
            })
        })
        .collect();
    // Let both fillers reach admission and start coalescing.
    std::thread::sleep(Duration::from_millis(600));
    let (code, headers, text) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), body).expect("probe post");
    assert_eq!(code, 429, "{text}");
    assert!(text.contains("\"quota_exceeded\""), "{text}");
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.clone());
    assert_eq!(retry_after.as_deref(), Some("1"));
    // The other tenant still gets served during sprinkler's saturation.
    let asia =
        r#"{"query": "marginal", "evidence": [null, null, null, null, null, null, null, null]}"#;
    let (code, _h, _b) = http_post(&addr, "/v1/query", &auth("tok-asia"), asia).expect("post");
    assert_eq!(code, 200);
    // The queued fillers resolve once the coalescing wait expires.
    for filler in fillers {
        let (code, _h, text) = filler.join().expect("filler thread");
        assert_eq!(code, 200, "{text}");
    }
    // And the metrics saw exactly one 429.
    let scrape = server.metrics().render_prometheus();
    let needle = format!(
        "{}{{status=\"429\"}} 1",
        metric_names::GATEWAY_REQUESTS_TOTAL
    );
    assert!(scrape.contains(&needle), "missing {needle:?} in scrape");
}

#[test]
fn statuses_are_counted_and_latency_observed() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let good = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;
    for _ in 0..3 {
        let (code, _h, _b) =
            http_post(&addr, "/v1/query", &auth("tok-sprinkler"), good).expect("post");
        assert_eq!(code, 200);
    }
    let (code, _h, _b) = http_post(&addr, "/v1/query", &[], good).expect("post");
    assert_eq!(code, 401);
    let (code, _h, _b) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), "{nope").expect("post");
    assert_eq!(code, 400);

    let scrape = server.metrics().render_prometheus();
    for needle in [
        format!(
            "{}{{status=\"200\"}} 3",
            metric_names::GATEWAY_REQUESTS_TOTAL
        ),
        format!(
            "{}{{status=\"401\"}} 1",
            metric_names::GATEWAY_REQUESTS_TOTAL
        ),
        format!(
            "{}{{status=\"400\"}} 1",
            metric_names::GATEWAY_REQUESTS_TOTAL
        ),
        format!("{}_count 5", metric_names::GATEWAY_BODY_BYTES),
        format!("{}_count 5", metric_names::GATEWAY_HANDLER_US),
    ] {
        assert!(scrape.contains(&needle), "missing {needle:?} in scrape");
    }
}

#[test]
fn stalled_connection_does_not_block_other_queries() {
    use std::io::Write;
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            http_workers: 2,
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"POST /v1/qu").expect("partial write");
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let (code, _h, _b) = http_post(
        &addr,
        "/v1/query",
        &auth("tok-sprinkler"),
        r#"{"query": "marginal", "evidence": [null, null, null, null]}"#,
    )
    .expect("post while stalled");
    assert_eq!(code, 200);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "query took {:?} behind a stalled connection",
        started.elapsed()
    );
    drop(stalled);
}

#[test]
fn error_status_is_connected_to_the_public_error_type() {
    // The mapping itself is pinned in unit tests; here just assert the
    // public re-export is callable from outside the crate.
    assert_eq!(error_status(&ServeError::ShutDown), (503, "shutting_down"));
}
