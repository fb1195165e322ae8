//! The HTTP/1.1 query gateway: `POST /v1/query` in front of
//! [`Server::submit`], turning the in-process serving stack into a
//! network service with typed backpressure.
//!
//! One JSON request per connection (the body schema is per query kind,
//! parsed and rendered with [`problp_telemetry::json`] — no new
//! dependencies), authenticated by a per-tenant `Authorization: Bearer`
//! token that the [`GatewayConfig::tokens`] table maps to a model id.
//! The request is submitted at its chosen [`Priority`] and the
//! [`super::LaneResult`] is rendered back as JSON, typed errors
//! included:
//!
//! | outcome | status | body `error` |
//! |---|---|---|
//! | answered | 200 | — |
//! | bad JSON (nesting past [`problp_telemetry::json::MAX_DEPTH`] included) / bad field / bad evidence shape or out-of-range state | 400 | `bad_json` / `bad_request` / `bad_shape` |
//! | missing or unknown bearer token | 401 | `unauthorized` |
//! | token maps to an unhosted model | 404 | `unknown_model` |
//! | non-POST on `/v1/query` | 405 | `method_not_allowed` |
//! | client stalled mid-request | 408 | `timeout` |
//! | body over 64 KiB | 413 | `body_too_large` |
//! | impossible conditional evidence | 422 | `impossible_evidence` |
//! | [`ServeError::QuotaExceeded`] | 429 + `Retry-After` | `quota_exceeded` |
//! | head over 8 KiB | 431 | `head_too_large` |
//! | engine failure / internal invariant | 500 | `engine` / `internal` |
//! | shutdown, answer deadline, full worker queue | 503 | `shutting_down` / `timeout` / `overloaded` |
//!
//! The gateway is only these routes: it runs on the shared
//! [`HttpServer`] core, like the scrape sidecar, which binds, accepts,
//! enforces the size limits and 2-second socket deadlines, and asks the
//! gateway for each answer. Unlike the sidecar's two workers, the
//! gateway sizes its worker pool for query traffic
//! ([`GatewayConfig::http_workers`]). It counts every response it
//! answers, sheds and protocol rejects included, in
//! `problp_gateway_requests_total{status=...}`; parsed requests also
//! feed `problp_gateway_body_bytes` and `problp_gateway_handler_us`
//! (see [`problp_telemetry::metric_names`]).
//!
//! # Request body
//!
//! ```json
//! {
//!   "query": "marginal" | "mpe" | "conditional",
//!   "evidence": [null, 0, 1, null],
//!   "query_var": 2,
//!   "priority": "interactive" | "batch"
//! }
//! ```
//!
//! `evidence` has one entry per model variable — `null` for
//! unobserved, a state index otherwise; `query_var` is required for
//! conditionals; `priority` defaults to interactive. The model is
//! *not* in the body: it comes from the bearer token, so a tenant can
//! only query the model its token grants.
//!
//! # Example
//!
//! ```
//! use problp_ac::compile;
//! use problp_bayes::networks;
//! use problp_engine::serve::gateway::{Gateway, GatewayConfig};
//! use problp_engine::{CircuitPool, ServeConfig, Server};
//! use problp_num::F64Arith;
//! use problp_telemetry::http_post;
//! use std::sync::Arc;
//!
//! let mut pool = CircuitPool::new(F64Arith::new());
//! pool.register("sprinkler", &compile(&networks::sprinkler())?)?;
//! let server = Arc::new(Server::start(pool, ServeConfig::default()));
//! let gateway = Gateway::start(
//!     Arc::clone(&server),
//!     GatewayConfig {
//!         tokens: vec![("tenant-a-token".to_string(), "sprinkler".to_string())],
//!         ..GatewayConfig::default()
//!     },
//! )?;
//! let (code, _headers, body) = http_post(
//!     &gateway.local_addr(),
//!     "/v1/query",
//!     &[("Authorization", "Bearer tenant-a-token".to_string())],
//!     r#"{"query": "marginal", "evidence": [null, null, null, null]}"#,
//! )?;
//! assert_eq!(code, 200);
//! let doc = problp_telemetry::JsonValue::parse(&body)?;
//! let value = doc.get("value").and_then(|v| v.as_f64()).expect("a marginal value");
//! assert!((value - 1.0).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_bayes::{BatchQuery, Evidence, VarId};
use problp_num::{Arith, Flags};
use problp_telemetry::{
    metric_names, Counter, HttpAnswer, HttpError, HttpLimits, HttpRequest, HttpServer, Incoming,
    JsonValue, MetricsRegistry,
};

use super::admission::{Priority, ServeError, ServeRequest, ServeResponse};
use super::metrics::query_kind_name;
use super::server::Server;
use crate::error::EngineError;
use crate::kernels::KernelSet;

/// Connections queued for the workers before the accept loop sheds
/// load with an immediate 503.
const HTTP_BACKLOG: usize = 64;
/// How long a handler waits on the request's [`super::Ticket`] before
/// answering 503 (the request itself stays in flight).
const ANSWER_DEADLINE: Duration = Duration::from_secs(10);
/// The `Retry-After` advertised on a 429 quota reject, seconds.
const RETRY_AFTER_SECS: u64 = 1;
const JSON: &str = "application/json; charset=utf-8";

/// The gateway's deployment knobs. `Default` binds an OS-assigned
/// loopback port with an empty token table (every request 401s until
/// tokens are configured).
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address (`host:port`; port 0 for OS-assigned, read back via
    /// [`Gateway::local_addr`]).
    pub addr: String,
    /// The auth table: `(bearer token, model id)`. A token authorizes
    /// exactly one model; the model id never appears in request bodies.
    pub tokens: Vec<(String, String)>,
    /// Connection-handling worker threads (the bounded pool between the
    /// accept loop and the handlers).
    pub http_workers: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            tokens: Vec::new(),
            http_workers: 4,
        }
    }
}

/// The HTTP status and stable error slug a [`ServeError`] surfaces as:
/// quota pressure is 429, lifecycle (shutdown / answer deadline /
/// disconnect) is 503, caller mistakes are 4xx, and engine or
/// invariant failures are 500. Exposed so tests and the serve-http
/// self-check assert the mapping rather than re-deriving it.
pub fn error_status(e: &ServeError) -> (u16, &'static str) {
    match e {
        ServeError::UnknownModel { .. } => (404, "unknown_model"),
        ServeError::QuotaExceeded { .. } => (429, "quota_exceeded"),
        ServeError::Timeout { .. } => (503, "timeout"),
        ServeError::ShutDown => (503, "shutting_down"),
        ServeError::Disconnected => (503, "disconnected"),
        ServeError::ImpossibleEvidence => (422, "impossible_evidence"),
        ServeError::Engine(
            EngineError::BatchLengthMismatch { .. } | EngineError::StateOutOfRange { .. },
        ) => (400, "bad_shape"),
        ServeError::Engine(_) => (500, "engine"),
        ServeError::LaneCountMismatch { .. } => (500, "internal"),
    }
}

/// Every status the gateway emits on known paths, precreated so the hot
/// path never pays the registry's registration lock.
const KNOWN_STATUSES: [u16; 12] = [200, 400, 401, 404, 405, 408, 413, 422, 429, 431, 500, 503];

struct GatewayMetrics {
    registry: Arc<MetricsRegistry>,
    by_status: Vec<(u16, Counter)>,
    body_bytes: problp_telemetry::Histogram,
    handler_us: problp_telemetry::Histogram,
}

impl GatewayMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        let by_status = KNOWN_STATUSES
            .iter()
            .map(|code| {
                let counter = registry.counter_with(
                    metric_names::GATEWAY_REQUESTS_TOTAL,
                    &[("status", &code.to_string())],
                    "gateway HTTP responses by status code",
                );
                (*code, counter)
            })
            .collect();
        let body_bytes = registry.histogram(
            metric_names::GATEWAY_BODY_BYTES,
            "request body bytes per gateway query",
        );
        let handler_us = registry.histogram(
            metric_names::GATEWAY_HANDLER_US,
            "gateway handler latency (auth to rendered response), microseconds",
        );
        GatewayMetrics {
            registry,
            by_status,
            body_bytes,
            handler_us,
        }
    }

    fn status_counter(&self, code: u16) -> Counter {
        match self.by_status.iter().find(|(c, _)| *c == code) {
            Some((_, counter)) => counter.clone(),
            None => self.registry.counter_with(
                metric_names::GATEWAY_REQUESTS_TOTAL,
                &[("status", &code.to_string())],
                "gateway HTTP responses by status code",
            ),
        }
    }
}

/// A `{"error": slug, "message": ...}` answer.
fn error_answer(code: u16, slug: &str, message: String) -> HttpAnswer {
    let body = JsonValue::Object(vec![
        ("error".to_string(), JsonValue::from(slug)),
        ("message".to_string(), JsonValue::from(message)),
    ]);
    HttpAnswer::new(code, JSON, body.render())
}

/// A running gateway; stops accepting and joins its threads when
/// dropped (the [`Server`] it fronts is independent and keeps running).
pub struct Gateway {
    http: HttpServer,
}

impl Gateway {
    /// Binds [`GatewayConfig::addr`] and starts serving queries against
    /// `server` on a background accept thread plus a bounded worker
    /// pool. Gateway metrics are recorded into `server`'s registry, so
    /// one scrape (or one [`problp_telemetry::Sidecar`]) sees the whole
    /// pipeline.
    pub fn start<A>(server: Arc<Server<A>>, config: GatewayConfig) -> io::Result<Gateway>
    where
        A: KernelSet + Clone + Send + Sync + 'static,
        A::Value: Clone + Send + Sync + 'static,
    {
        let metrics = GatewayMetrics::new(server.metrics());
        let tokens: HashMap<String, String> = config.tokens.into_iter().collect();
        let http = HttpServer::start(
            &config.addr,
            "problp-gateway",
            config.http_workers,
            HTTP_BACKLOG,
            HttpLimits::default(),
            move |incoming| {
                let answer = match incoming {
                    Incoming::Request(request) => {
                        metrics.body_bytes.observe(request.body.len() as u64);
                        let started = Instant::now();
                        let answer = route(request, &server, &tokens);
                        metrics.handler_us.observe_duration(started.elapsed());
                        answer
                    }
                    Incoming::Reject { code, error } => {
                        let slug = match error {
                            HttpError::HeadTooLarge { .. } => "head_too_large",
                            HttpError::BodyTooLarge { .. } => "body_too_large",
                            HttpError::Timeout => "timeout",
                            _ => "bad_request",
                        };
                        error_answer(code, slug, error.to_string())
                    }
                    Incoming::Overloaded => error_answer(
                        503,
                        "overloaded",
                        "gateway worker queue is full; retry".to_string(),
                    ),
                };
                metrics.status_counter(answer.code).inc();
                answer
            },
        )?;
        Ok(Gateway { http })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Stops the accept loop, drains the worker queue and joins every
    /// gateway thread.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
    }
}

fn route<A>(
    request: &HttpRequest,
    server: &Server<A>,
    tokens: &HashMap<String, String>,
) -> HttpAnswer
where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + Send + Sync + 'static,
{
    if request.path != "/v1/query" {
        return error_answer(
            404,
            "not_found",
            format!("unknown path {:?}; try POST /v1/query", request.path),
        );
    }
    if request.method != "POST" {
        return error_answer(
            405,
            "method_not_allowed",
            "/v1/query only accepts POST".to_string(),
        );
    }
    let Some(model) = bearer_model(request, tokens) else {
        return error_answer(
            401,
            "unauthorized",
            "missing or unknown bearer token".to_string(),
        );
    };
    let (evidence, query, priority) = match decode_query(&request.body) {
        Ok(parts) => parts,
        Err((code, slug, message)) => return error_answer(code, slug, message),
    };
    let answered = server
        .submit(ServeRequest {
            model: model.clone(),
            evidence,
            query,
            priority,
        })
        .and_then(|ticket| ticket.wait_deadline(ANSWER_DEADLINE));
    match answered {
        Ok(response) => {
            let body = render_response(server.pool().context(), &model, query, &response);
            HttpAnswer::new(200, JSON, body.render())
        }
        Err(e) => {
            let (code, slug) = error_status(&e);
            let mut answer = error_answer(code, slug, e.to_string());
            if code == 429 {
                answer
                    .headers
                    .push(("Retry-After", RETRY_AFTER_SECS.to_string()));
            }
            answer
        }
    }
}

/// The model a request's `Authorization: Bearer` token grants, if any.
fn bearer_model(request: &HttpRequest, tokens: &HashMap<String, String>) -> Option<String> {
    let auth = request.header("authorization")?;
    let (scheme, token) = auth.split_once(' ')?;
    if !scheme.eq_ignore_ascii_case("bearer") {
        return None;
    }
    tokens.get(token.trim()).cloned()
}

/// Decodes one `/v1/query` body into the submit arguments, or the
/// `(status, slug, message)` it should be rejected with.
#[allow(clippy::type_complexity)]
fn decode_query(
    body: &[u8],
) -> Result<(Evidence, BatchQuery, Priority), (u16, &'static str, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400, "bad_json", "body is not UTF-8".to_string()))?;
    let doc = JsonValue::parse(text)
        .map_err(|e| (400, "bad_json", format!("body is not valid JSON: {e}")))?;
    if doc.get("query").is_none() && doc.as_array().is_some() {
        return Err((400, "bad_request", "body must be a JSON object".to_string()));
    }
    let kind = doc
        .get("query")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            (
                400,
                "bad_request",
                "missing \"query\" (marginal | mpe | conditional)".to_string(),
            )
        })?;
    let lanes = doc
        .get("evidence")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            (
                400,
                "bad_request",
                "missing \"evidence\" (one entry per variable: null or a state index)".to_string(),
            )
        })?;
    let mut evidence = Evidence::empty(lanes.len());
    for (i, entry) in lanes.iter().enumerate() {
        match entry {
            JsonValue::Null => {}
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 1e9 => {
                evidence.observe(VarId::from_index(i), *n as usize);
            }
            other => {
                return Err((
                    400,
                    "bad_request",
                    format!("evidence[{i}] must be null or a state index, got {other:?}"),
                ))
            }
        }
    }
    let query = match kind {
        "marginal" => BatchQuery::Marginal,
        "mpe" => BatchQuery::Mpe,
        "conditional" => {
            let var = doc
                .get("query_var")
                .and_then(JsonValue::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as usize)
                .ok_or_else(|| {
                    (
                        400,
                        "bad_request",
                        "conditional queries need an integer \"query_var\"".to_string(),
                    )
                })?;
            if var >= evidence.len() {
                return Err((
                    400,
                    "bad_request",
                    format!(
                        "query_var {var} is out of range for {} evidence entries",
                        evidence.len()
                    ),
                ));
            }
            BatchQuery::Conditional {
                query_var: VarId::from_index(var),
            }
        }
        other => {
            return Err((
                400,
                "bad_request",
                format!("unknown query kind {other:?} (marginal | mpe | conditional)"),
            ))
        }
    };
    let priority = match doc.get("priority").and_then(JsonValue::as_str) {
        None => Priority::Interactive,
        Some("interactive") => Priority::Interactive,
        Some("batch") => Priority::Batch,
        Some(other) => {
            return Err((
                400,
                "bad_request",
                format!("unknown priority {other:?} (interactive | batch)"),
            ))
        }
    };
    Ok((evidence, query, priority))
}

/// The raised sticky-flag names, in the fixed catalog order.
fn flags_json(flags: &Flags) -> JsonValue {
    let mut raised = Vec::new();
    for (name, on) in [
        ("overflow", flags.overflow),
        ("underflow", flags.underflow),
        ("inexact", flags.inexact),
        ("invalid", flags.invalid),
    ] {
        if on {
            raised.push(JsonValue::from(name));
        }
    }
    JsonValue::Array(raised)
}

/// Renders one answered lane. Values are projected to `f64` via the
/// pool's [`Arith::to_f64`] — the identity for `F64Arith`, so the JSON
/// round-trips bit-identically there (the serve-http self-check pins
/// this against [`super::CircuitPool::serve_one`]).
fn render_response<A: Arith>(
    ctx: &A,
    model: &str,
    query: BatchQuery,
    response: &ServeResponse<A::Value>,
) -> JsonValue {
    let mut fields = vec![
        ("model".to_string(), JsonValue::from(model)),
        ("query".to_string(), JsonValue::from(query_kind_name(query))),
    ];
    match response {
        ServeResponse::Marginal { value, flags } => {
            fields.push(("value".to_string(), JsonValue::from(ctx.to_f64(value))));
            fields.push(("flags".to_string(), flags_json(flags)));
        }
        ServeResponse::Mpe {
            assignment,
            value,
            flags,
        } => {
            fields.push((
                "assignment".to_string(),
                JsonValue::Array(assignment.iter().map(|s| JsonValue::from(*s)).collect()),
            ));
            fields.push(("value".to_string(), JsonValue::from(ctx.to_f64(value))));
            fields.push(("flags".to_string(), flags_json(flags)));
        }
        ServeResponse::Conditional {
            posteriors,
            prediction,
            flags,
        } => {
            fields.push((
                "posteriors".to_string(),
                JsonValue::Array(posteriors.iter().map(|p| JsonValue::from(*p)).collect()),
            ));
            fields.push(("prediction".to_string(), JsonValue::from(*prediction)));
            fields.push(("flags".to_string(), flags_json(flags)));
        }
    }
    JsonValue::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_status_mapping_is_stable() {
        assert_eq!(
            error_status(&ServeError::QuotaExceeded {
                model: "m".to_string(),
                quota: 2
            }),
            (429, "quota_exceeded")
        );
        assert_eq!(error_status(&ServeError::ShutDown), (503, "shutting_down"));
        assert_eq!(
            error_status(&ServeError::Timeout {
                waited: Duration::from_secs(1)
            })
            .0,
            503
        );
        assert_eq!(
            error_status(&ServeError::UnknownModel {
                model: "m".to_string()
            }),
            (404, "unknown_model")
        );
        assert_eq!(
            error_status(&ServeError::ImpossibleEvidence),
            (422, "impossible_evidence")
        );
        assert_eq!(
            error_status(&ServeError::Engine(EngineError::BatchLengthMismatch {
                batch: 4,
                circuit: 2,
            }))
            .0,
            400
        );
        assert_eq!(
            error_status(&ServeError::LaneCountMismatch {
                expected: 2,
                got: 1
            })
            .0,
            500
        );
    }

    #[test]
    fn decode_rejects_each_bad_field() {
        let ok = br#"{"query": "marginal", "evidence": [null, 0]}"#;
        assert!(decode_query(ok).is_ok());
        let cases: [(&[u8], &str); 7] = [
            (b"not json", "bad_json"),
            (br#"[1, 2]"#, "bad_request"),
            (br#"{"evidence": [null]}"#, "bad_request"),
            (br#"{"query": "marginal"}"#, "bad_request"),
            (
                br#"{"query": "marginal", "evidence": [1.5]}"#,
                "bad_request",
            ),
            (
                br#"{"query": "conditional", "evidence": [null, null]}"#,
                "bad_request",
            ),
            (
                br#"{"query": "marginal", "evidence": [null], "priority": "turbo"}"#,
                "bad_request",
            ),
        ];
        for (body, want_slug) in cases {
            match decode_query(body) {
                Err((400, slug, _)) => assert_eq!(slug, want_slug, "{body:?}"),
                other => panic!("{body:?} should fail 400, got {other:?}"),
            }
        }
        // query_var out of range.
        match decode_query(br#"{"query": "conditional", "query_var": 9, "evidence": [null]}"#) {
            Err((400, "bad_request", msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected out-of-range reject, got {other:?}"),
        }
    }

    #[test]
    fn decode_builds_the_evidence_and_priority() {
        let (evidence, query, priority) = decode_query(
            br#"{"query": "conditional", "query_var": 0, "evidence": [null, 2, null, 1], "priority": "batch"}"#,
        )
        .expect("well-formed");
        assert_eq!(evidence.len(), 4);
        assert_eq!(evidence.state(VarId::from_index(1)), Some(2));
        assert_eq!(evidence.state(VarId::from_index(2)), None);
        assert_eq!(evidence.state(VarId::from_index(3)), Some(1));
        assert!(matches!(query, BatchQuery::Conditional { .. }));
        assert_eq!(priority, Priority::Batch);
    }
}
