//! A minimal HTTP/1.1 sidecar exposing the registry: `GET /metrics`
//! (Prometheus text), `GET /healthz` (liveness + detail lines, 200/503)
//! and `GET /statz` (JSON snapshot).
//!
//! The sidecar is only its routes: it runs on the shared
//! [`HttpServer`] core, like the query gateway in `problp-engine`. Two
//! workers mean one slow or stalled scraper cannot delay a `/healthz`
//! probe behind it and flap liveness. Oversized request lines/headers
//! answer 431 and oversized bodies 413 instead of reading unboundedly
//! into memory, and 2-second read/write deadlines bound how long any
//! one client can hold a worker.

use std::sync::Arc;

use crate::httpd::{HttpAnswer, HttpLimits, HttpServer, Incoming};
use crate::json::JsonValue;
use crate::registry::MetricsRegistry;

/// Worker threads handling sidecar connections: two, so a stalled
/// scraper can burn one full IO timeout while `/healthz` stays prompt
/// on the other.
const SIDECAR_WORKERS: usize = 2;
/// Connections queued for the workers before the accept loop sheds load
/// with an immediate 503.
const SIDECAR_BACKLOG: usize = 16;
/// Size limits of one scrape request: routing needs no body, so both
/// caps stay small.
const SIDECAR_LIMITS: HttpLimits = HttpLimits {
    max_head: 8 * 1024,
    max_body: 4 * 1024,
};
const TEXT: &str = "text/plain; charset=utf-8";

/// What `/healthz` reports. Produced by the health callback on every
/// request, so liveness reflects the serving stack *now*, not at
/// startup.
#[derive(Clone, Debug)]
pub struct HealthStatus {
    /// Overall liveness; `false` renders a 503.
    pub healthy: bool,
    /// Free-form key/value detail lines (worker counts, pool models).
    pub detail: Vec<(String, String)>,
}

impl HealthStatus {
    /// A healthy status with no detail.
    pub fn ok() -> Self {
        HealthStatus {
            healthy: true,
            detail: Vec::new(),
        }
    }
}

/// The health callback type: invoked per `/healthz` / `/statz` request.
pub type HealthFn = Box<dyn Fn() -> HealthStatus + Send + Sync>;

/// A running metrics sidecar; shuts down when dropped.
pub struct Sidecar {
    http: HttpServer,
}

impl Sidecar {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`Sidecar::local_addr`]) and starts serving `registry` and
    /// `health` on a background accept thread plus a small worker pool.
    pub fn start(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        health: HealthFn,
    ) -> std::io::Result<Sidecar> {
        let http = HttpServer::start(
            addr,
            "problp-sidecar",
            SIDECAR_WORKERS,
            SIDECAR_BACKLOG,
            SIDECAR_LIMITS,
            move |incoming| answer(incoming, &registry, &health),
        )?;
        Ok(Sidecar { http })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Stops the accept loop and joins the serving threads.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
    }
}

fn answer(incoming: Incoming<'_>, registry: &MetricsRegistry, health: &HealthFn) -> HttpAnswer {
    let request = match incoming {
        Incoming::Request(request) => request,
        Incoming::Reject { code, error } => {
            return HttpAnswer::new(code, TEXT, format!("{error}\n"))
        }
        Incoming::Overloaded => {
            return HttpAnswer::new(503, TEXT, "sidecar worker queue is full\n")
        }
    };
    if request.method != "GET" {
        return HttpAnswer::new(405, TEXT, "only GET is supported\n");
    }
    match request.path.as_str() {
        "/metrics" => HttpAnswer::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        "/healthz" => {
            let status = health();
            let mut body = String::from(if status.healthy {
                "ok\n"
            } else {
                "unhealthy\n"
            });
            for (k, v) in &status.detail {
                body.push_str(&format!("{k}: {v}\n"));
            }
            HttpAnswer::new(if status.healthy { 200 } else { 503 }, TEXT, body)
        }
        "/statz" => {
            let status = health();
            let detail = status
                .detail
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                .collect();
            let doc = JsonValue::Object(vec![
                ("healthy".to_string(), JsonValue::Bool(status.healthy)),
                ("detail".to_string(), JsonValue::Object(detail)),
                ("metrics".to_string(), registry.render_json()),
            ]);
            HttpAnswer::new(200, "application/json; charset=utf-8", doc.render())
        }
        _ => HttpAnswer::new(
            404,
            TEXT,
            "unknown path; try /metrics, /healthz or /statz\n",
        ),
    }
}
