//! The serving layer's telemetry: every metric handle the hot paths
//! touch, precreated at server start, plus [`ServerStats`] — the
//! programmatic point-in-time snapshot `/statz` and tests read instead
//! of parsing rendered output.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use problp_bayes::BatchQuery;
use problp_num::Flags;
use problp_telemetry::{
    default_latency_buckets_us, default_size_buckets, metric_names, Counter, Gauge, Histogram,
    MetricsRegistry,
};

use super::admission::Priority;
use super::pool::ModelVersion;
use crate::kernels::KernelKind;

/// The query kinds as stable metric-label names (`query` label of the
/// sojourn and evaluate histograms).
pub(crate) fn query_kind_name(query: BatchQuery) -> &'static str {
    match query {
        BatchQuery::Marginal => "marginal",
        BatchQuery::Mpe => "mpe",
        BatchQuery::Conditional { .. } => "conditional",
    }
}

/// Index of a query kind into the precreated per-kind handle arrays.
pub(crate) fn query_kind_idx(query: BatchQuery) -> usize {
    match query {
        BatchQuery::Marginal => 0,
        BatchQuery::Mpe => 1,
        BatchQuery::Conditional { .. } => 2,
    }
}

/// The priority classes as stable metric-label names.
pub(crate) fn priority_name(priority: Priority) -> &'static str {
    match priority {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    }
}

const QUERY_KINDS: [BatchQuery; 3] = [
    BatchQuery::Marginal,
    BatchQuery::Mpe,
    BatchQuery::Conditional {
        // The query_var is irrelevant here: these are label templates,
        // and all conditional queries share one label.
        query_var: problp_bayes::VarId::from_index(0),
    },
];
const PRIORITIES: [Priority; 2] = [Priority::Interactive, Priority::Batch];

/// Every metric handle the serving hot paths touch, precreated at
/// server start so submit/dispatch never pay the registry's
/// registration lock — each update is a bare atomic op. The catalog
/// (names, labels, semantics) is documented in
/// [`problp_telemetry::metric_names`].
pub(crate) struct ServeMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) requests: Counter,
    pub(crate) admitted: Counter,
    pub(crate) rejected_unknown_model: Counter,
    pub(crate) rejected_bad_shape: Counter,
    pub(crate) rejected_quota: Counter,
    pub(crate) rejected_shutdown: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) group_lanes: Histogram,
    pub(crate) effective_wait_us: Histogram,
    pub(crate) aging_promotions: Counter,
    pub(crate) dispatches: Counter,
    /// Exact answer-cache hits (ticket resolved at admission).
    pub(crate) cache_hits: Counter,
    /// Cache lookups that fell through to the queue.
    pub(crate) cache_misses: Counter,
    /// LRU evictions plus reload invalidations.
    pub(crate) cache_evictions: Counter,
    /// `[query kind][priority]` sojourn histograms.
    pub(crate) sojourn_us: [[Histogram; 2]; 3],
    /// Per-query-kind engine evaluate wall time.
    pub(crate) evaluate_us: [Histogram; 3],
    pub(crate) tape_instrs: Counter,
    pub(crate) fused_instrs: Counter,
    /// Dispatched groups by evaluator core: scalar, fused
    /// ([`crate::KernelKind::ALL`] order).
    pub(crate) kernel_dispatches: [Counter; 2],
    /// overflow, underflow, inexact, invalid.
    pub(crate) flag_raises: [Counter; 4],
    pub(crate) live_workers: Gauge,
    /// Per-model occupancy gauges, created on a tenant's first lane
    /// (only when quotas are on — mirrors the quota books).
    pub(crate) tenant_lanes: Mutex<HashMap<String, Gauge>>,
    /// Per-model live-version gauges, created at server start and
    /// updated on reload.
    pub(crate) model_versions: Mutex<HashMap<String, Gauge>>,
}

impl ServeMetrics {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        let sojourn_us = QUERY_KINDS.map(|q| {
            PRIORITIES.map(|p| {
                registry.histogram_with(
                    metric_names::SERVE_SOJOURN_US,
                    &[
                        ("query", query_kind_name(q)),
                        ("priority", priority_name(p)),
                    ],
                    "enqueue-to-completion sojourn per lane, microseconds",
                    default_latency_buckets_us(),
                )
            })
        });
        let evaluate_us = QUERY_KINDS.map(|q| {
            registry.histogram_with(
                metric_names::ENGINE_EVALUATE_US,
                &[("query", query_kind_name(q))],
                "engine evaluate wall time per dispatched group, microseconds",
                default_latency_buckets_us(),
            )
        });
        let flag_raises = ["overflow", "underflow", "inexact", "invalid"].map(|flag| {
            registry.counter_with(
                metric_names::ENGINE_FLAG_RAISES_TOTAL,
                &[("flag", flag)],
                "dispatched groups whose evaluation raised the sticky flag",
            )
        });
        ServeMetrics {
            requests: registry.counter(
                metric_names::SERVE_REQUESTS_TOTAL,
                "lanes submitted, admitted or not",
            ),
            admitted: registry.counter(
                metric_names::SERVE_ADMITTED_TOTAL,
                "lanes that passed admission and were queued",
            ),
            rejected_unknown_model: registry.counter_with(
                metric_names::SERVE_REJECTED_TOTAL,
                &[("kind", "unknown_model")],
                "typed admission rejects by ServeError kind",
            ),
            rejected_bad_shape: registry.counter_with(
                metric_names::SERVE_REJECTED_TOTAL,
                &[("kind", "bad_shape")],
                "typed admission rejects by ServeError kind",
            ),
            rejected_quota: registry.counter_with(
                metric_names::SERVE_REJECTED_TOTAL,
                &[("kind", "quota")],
                "typed admission rejects by ServeError kind",
            ),
            rejected_shutdown: registry.counter_with(
                metric_names::SERVE_REJECTED_TOTAL,
                &[("kind", "shutdown")],
                "typed admission rejects by ServeError kind",
            ),
            queue_depth: registry.gauge(
                metric_names::SERVE_QUEUE_DEPTH,
                "coalescing groups currently waiting for dispatch",
            ),
            group_lanes: registry.histogram(
                metric_names::SERVE_GROUP_LANES,
                "lanes per dispatched group",
                default_size_buckets(),
            ),
            effective_wait_us: registry.histogram(
                metric_names::SERVE_EFFECTIVE_WAIT_US,
                "adaptive coalescing wait applied per dispatched group, microseconds",
                default_latency_buckets_us(),
            ),
            aging_promotions: registry.counter(
                metric_names::SERVE_AGING_PROMOTIONS_TOTAL,
                "batch groups dispatched at the interactive rank via priority aging",
            ),
            dispatches: registry.counter(
                metric_names::SERVE_DISPATCHES_TOTAL,
                "dispatched groups (one engine evaluate each)",
            ),
            cache_hits: registry.counter(
                metric_names::SERVE_CACHE_HITS_TOTAL,
                "answer-cache hits (lanes resolved at admission, bit-identical)",
            ),
            cache_misses: registry.counter(
                metric_names::SERVE_CACHE_MISSES_TOTAL,
                "answer-cache lookups that fell through to the queue",
            ),
            cache_evictions: registry.counter(
                metric_names::SERVE_CACHE_EVICTIONS_TOTAL,
                "answer-cache entries dropped (LRU pressure or model reload)",
            ),
            sojourn_us,
            evaluate_us,
            tape_instrs: registry.counter(
                metric_names::ENGINE_TAPE_INSTRS_TOTAL,
                "tape instructions executed (instructions x lanes per group)",
            ),
            fused_instrs: registry.counter(
                metric_names::ENGINE_FUSED_INSTRS_TOTAL,
                "fused superinstructions executed (fused instructions x lanes per group)",
            ),
            kernel_dispatches: KernelKind::ALL.map(|k| {
                registry.counter_with(
                    metric_names::ENGINE_KERNEL_DISPATCHES_TOTAL,
                    &[("kernel", k.name())],
                    "dispatched groups by evaluator core",
                )
            }),
            flag_raises,
            live_workers: registry.gauge(
                "problp_serve_live_workers",
                "dispatcher worker threads currently running",
            ),
            tenant_lanes: Mutex::new(HashMap::new()),
            model_versions: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The per-model occupancy gauge, created on first use.
    pub(crate) fn tenant_gauge(&self, model: &str) -> Gauge {
        let mut map = self
            .tenant_lanes
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match map.get(model) {
            Some(g) => g.clone(),
            None => {
                let g = self.registry.gauge_with(
                    metric_names::SERVE_TENANT_LANES,
                    &[("model", model)],
                    "lanes queued + in flight per tenant (quota occupancy)",
                );
                map.insert(model.to_string(), g.clone());
                g
            }
        }
    }

    /// The per-model live-version gauge, created on first use.
    pub(crate) fn model_version_gauge(&self, model: &str) -> Gauge {
        let mut map = self
            .model_versions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match map.get(model) {
            Some(g) => g.clone(),
            None => {
                let g = self.registry.gauge_with(
                    metric_names::POOL_MODEL_VERSION,
                    &[("model", model)],
                    "the live tape version serving new admissions per model",
                );
                map.insert(model.to_string(), g.clone());
                g
            }
        }
    }

    /// Folds a dispatched group's batch-scope sticky flags into the
    /// per-flag raise counters.
    pub(crate) fn note_flags(&self, flags: Flags) {
        for (raised, counter) in [
            flags.overflow,
            flags.underflow,
            flags.inexact,
            flags.invalid,
        ]
        .into_iter()
        .zip(&self.flag_raises)
        {
            if raised {
                counter.inc();
            }
        }
    }
}

/// A point-in-time snapshot of a [`super::Server`]'s own counters
/// ([`super::Server::stats`]): what tests and the `/healthz`/`/statz`
/// sidecar read instead of parsing `serve-sim` stdout.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Lanes submitted, admitted or not.
    pub requests: u64,
    /// Lanes that passed admission and were queued.
    pub admitted: u64,
    /// Rejects with [`super::ServeError::UnknownModel`].
    pub rejected_unknown_model: u64,
    /// Rejects with a shape mismatch
    /// ([`crate::EngineError::BatchLengthMismatch`]) or an out-of-range
    /// evidence state ([`crate::EngineError::StateOutOfRange`]).
    pub rejected_bad_shape: u64,
    /// Rejects with [`super::ServeError::QuotaExceeded`].
    pub rejected_quota: u64,
    /// Rejects with [`super::ServeError::ShutDown`].
    pub rejected_shutdown: u64,
    /// Dispatched groups (one engine evaluate each).
    pub dispatches: u64,
    /// Answer-cache hits: lanes resolved at admission with a
    /// bit-identical memoized payload, never entering the queue.
    pub cache_hits: u64,
    /// Answer-cache lookups that fell through to the queue (always `0`
    /// with the cache disabled).
    pub cache_misses: u64,
    /// Answer-cache entries dropped — LRU capacity pressure plus the
    /// per-model invalidation of [`super::Server::reload`].
    pub cache_evictions: u64,
    /// Coalescing groups waiting right now.
    pub queue_depth: i64,
    /// The deepest the queue has ever been.
    pub queue_depth_high_water: i64,
    /// Lanes queued + in flight per model, sorted by model id (the
    /// quota denominator; empty when quotas are off — no books are kept
    /// then).
    pub tenant_lanes: Vec<(String, usize)>,
    /// Dispatcher worker threads currently alive.
    pub live_workers: i64,
    /// The hosted model ids, sorted.
    pub models: Vec<String>,
    /// The live tape version per hosted model, sorted by model id —
    /// `1` until the first [`super::Server::reload`] /
    /// [`super::CircuitPool::reload`] bumps it.
    pub model_versions: Vec<(String, ModelVersion)>,
}
