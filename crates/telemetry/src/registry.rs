//! The metrics registry: named counters, gauges and log-linear
//! histograms with a lock-free hot path.
//!
//! Registration (`[MetricsRegistry::counter]` and friends) takes a
//! mutex once per `(name, labels)` series and hands back a cheap
//! clonable handle; every update after that is a single atomic
//! operation, so instrumented hot paths (admission queues, dispatch
//! loops, per-lane result routing) pay no lock. Rendering walks the
//! registered series under the same mutex — scrapes are rare and cheap.
//!
//! Conventions:
//!
//! * Metric names are `snake_case` with a unit suffix where one applies
//!   (`_us` for microseconds, `_total` for monotone counters).
//! * Histograms store **microsecond** (or plain count) observations in
//!   one fixed log-linear bucket layout (see [`Histogram`]); bucket
//!   edges are *inclusive upper bounds* (`value <= bound`), matching
//!   Prometheus `le`, and only non-empty buckets are rendered.
//! * Every gauge also exports a `<name>_high_water` series — the
//!   largest value the gauge ever held — because queue-depth style
//!   gauges are most useful with their high-water mark.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::JsonValue;

/// A monotonically increasing counter. Handles are cheap clones sharing
/// one atomic cell; incrementing never locks.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    high_water: AtomicI64,
}

/// An instantaneous value (queue depth, occupancy). Tracks its
/// high-water mark on every update; both series are rendered (the mark
/// as `<name>_high_water`). Updates never lock.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `d` (which may be negative) and returns the new value.
    pub fn add(&self, d: i64) -> i64 {
        let now = self.0.value.fetch_add(d, Ordering::Relaxed) + d;
        self.0.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value the gauge ever held.
    pub fn high_water(&self) -> i64 {
        self.0.high_water.load(Ordering::Relaxed)
    }
}

/// Each power-of-two range `[2^k, 2^(k+1))` is cut into `2^SUB_BITS`
/// equal-width buckets; values below `2^SUB_BITS` get a bucket each.
const SUB_BITS: usize = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// 16 exact buckets for `0..16`, then 16 for each of the 60 ranges
/// `[2^4, 2^5)` .. `[2^63, 2^64)`: 976 in all.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS + 1);

/// The bucket `value` lands in.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let k = 63 - value.leading_zeros() as usize;
    let sub = (value >> (k - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (k - SUB_BITS + 1) * SUB_BUCKETS + sub
}

/// The largest value bucket `idx` holds (its inclusive upper edge).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let shift = idx / SUB_BUCKETS - 1;
    let lower = ((SUB_BUCKETS + idx % SUB_BUCKETS) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

#[derive(Debug)]
struct HistogramCell {
    /// Per-bucket observation counts (not cumulative).
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

/// A histogram of non-negative integer observations (latencies in
/// microseconds, batch sizes, byte counts) over one fixed log-linear
/// layout: values 0–15 get a bucket each, and every power-of-two range
/// `[2^k, 2^(k+1))` up to `2^63` is cut into 16 equal-width buckets —
/// 976 counters, so no caller picks bucket edges. A bucket's width is
/// at most 1/16 of any value in it, which bounds
/// [`HistogramSnapshot::quantile`]'s error. Observing is an index
/// computation plus four atomic updates — no lock.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates a standalone histogram (not attached to any registry —
    /// useful for study-local percentile accounting).
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramCell {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let cell = &self.0;
        cell.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.total.fetch_add(1, Ordering::Relaxed);
        cell.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a `std::time::Duration` in microseconds (saturating at
    /// `u64::MAX`).
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough point-in-time copy of the histogram state.
    /// (Counts are read one atomic at a time; a scrape racing an
    /// observation may be off by that single observation, which is the
    /// usual Prometheus contract.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &self.0;
        HistogramSnapshot {
            buckets: cell
                .counts
                .iter()
                .enumerate()
                .map(|(i, c)| (bucket_upper(i), c.load(Ordering::Relaxed)))
                .filter(|&(_, count)| count > 0)
                .collect(),
            sum: cell.sum.load(Ordering::Relaxed),
            count: cell.total.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation —
/// what the perf-trajectory (`BENCH_*.json`) files and every latency
/// report derive their percentiles from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The non-empty buckets as `(inclusive upper edge, count)`,
    /// ascending by edge; counts are not cumulative. Counts never fall,
    /// so later snapshots of one histogram only add edges.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The estimated `p`-th percentile (0..=100, a non-finite `p` reads
    /// as 0): the upper edge of the bucket holding the nearest-rank
    /// observation, capped at the observed maximum. So the estimate is
    /// never below the exact nearest-rank value `x`, never above
    /// `x + x/16`, and never above `max`. Returns `None` on an empty
    /// histogram.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = if p.is_finite() {
            p.clamp(0.0, 100.0)
        } else {
            0.0
        };
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(upper, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean of the observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// One registered series and its handle.
enum SeriesKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl SeriesKind {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesKind::Counter(_) => "counter",
            SeriesKind::Gauge(_) => "gauge",
            SeriesKind::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    kind: SeriesKind,
}

/// The registry of every metric a process exports: get-or-create
/// handles by `(name, labels)`, render the whole set as Prometheus text
/// or JSON.
///
/// # Examples
///
/// ```
/// use problp_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let served = registry.counter("requests_total", "requests admitted");
/// served.inc();
/// let rendered = registry.render_prometheus();
/// assert!(rendered.contains("# TYPE requests_total counter"));
/// assert!(rendered.contains("requests_total 1"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<Vec<Series>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Series>> {
        // Registration and rendering hold no invariants across a panic
        // point; recover rather than poison every future scrape.
        self.series
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get_or_insert<F>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: F,
    ) -> SeriesKind
    where
        F: FnOnce() -> SeriesKind,
    {
        let mut series = self.lock();
        if let Some(s) = series
            .iter()
            .find(|s| s.name == name && labels_eq(&s.labels, labels))
        {
            return match &s.kind {
                SeriesKind::Counter(c) => SeriesKind::Counter(c.clone()),
                SeriesKind::Gauge(g) => SeriesKind::Gauge(g.clone()),
                SeriesKind::Histogram(h) => SeriesKind::Histogram(h.clone()),
            };
        }
        let kind = make();
        let handle = match &kind {
            SeriesKind::Counter(c) => SeriesKind::Counter(c.clone()),
            SeriesKind::Gauge(g) => SeriesKind::Gauge(g.clone()),
            SeriesKind::Histogram(h) => SeriesKind::Histogram(h.clone()),
        };
        series.push(Series {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            kind,
        });
        handle
    }

    /// Get-or-create an unlabelled counter.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` series was already registered
    /// with a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Get-or-create a counter with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            SeriesKind::Counter(c) => c,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-create an unlabelled gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Get-or-create a gauge with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Gauge(Gauge(Arc::new(GaugeCell::default())))
        }) {
            SeriesKind::Gauge(g) => g,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-create an unlabelled histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Get-or-create a histogram with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Histogram(Histogram::new())
        }) {
            SeriesKind::Histogram(h) => h,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Renders every registered series in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` once per metric name,
    /// then one sample line per series (histograms expand to cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`; gauges add a
    /// `<name>_high_water` series).
    pub fn render_prometheus(&self) -> String {
        let series = self.lock();
        let mut out = String::new();
        let mut seen_header: Vec<&str> = Vec::new();
        for s in series.iter() {
            if !seen_header.contains(&s.name.as_str()) {
                seen_header.push(&s.name);
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.type_name()));
            }
            match &s.kind {
                SeriesKind::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        c.get()
                    ));
                }
                SeriesKind::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        g.get()
                    ));
                    out.push_str(&format!(
                        "{}_high_water{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        g.high_water()
                    ));
                }
                SeriesKind::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (upper, count) in &snap.buckets {
                        cumulative += count;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            label_block(&s.labels, &[("le", &upper.to_string())]),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_block(&s.labels, &[("le", "+Inf")]),
                        snap.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        snap.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        snap.count
                    ));
                }
            }
        }
        out
    }

    /// Renders every registered series as a JSON object (the `/statz`
    /// payload): `{"series": [{"name", "labels", "type", ...}]}` with
    /// counters/gauges carrying `value` (gauges also `high_water`) and
    /// histograms their buckets, `sum`, `count`, `max` and the
    /// p50/p90/p99 estimates.
    pub fn render_json(&self) -> JsonValue {
        let series = self.lock();
        let items: Vec<JsonValue> = series
            .iter()
            .map(|s| {
                let mut obj = vec![
                    ("name".to_string(), JsonValue::from(s.name.as_str())),
                    (
                        "labels".to_string(),
                        JsonValue::Object(
                            s.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                                .collect(),
                        ),
                    ),
                    ("type".to_string(), JsonValue::from(s.kind.type_name())),
                ];
                match &s.kind {
                    SeriesKind::Counter(c) => {
                        obj.push(("value".to_string(), JsonValue::from(c.get())));
                    }
                    SeriesKind::Gauge(g) => {
                        obj.push(("value".to_string(), JsonValue::from(g.get())));
                        obj.push(("high_water".to_string(), JsonValue::from(g.high_water())));
                    }
                    SeriesKind::Histogram(h) => {
                        let snap = h.snapshot();
                        obj.push((
                            "buckets".to_string(),
                            JsonValue::Array(
                                snap.buckets
                                    .iter()
                                    .map(|&(upper, count)| {
                                        JsonValue::Object(vec![
                                            ("le".to_string(), JsonValue::from(upper)),
                                            ("count".to_string(), JsonValue::from(count)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                        obj.push(("sum".to_string(), JsonValue::from(snap.sum)));
                        obj.push(("count".to_string(), JsonValue::from(snap.count)));
                        obj.push(("max".to_string(), JsonValue::from(snap.max)));
                        for p in [50.0, 90.0, 99.0] {
                            obj.push((
                                format!("p{}", p as u32),
                                snap.quantile(p).map_or(JsonValue::Null, JsonValue::from),
                            ));
                        }
                    }
                }
                JsonValue::Object(obj)
            })
            .collect();
        JsonValue::Object(vec![("series".to_string(), JsonValue::Array(items))])
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Renders `{k1="v1",k2="v2"}` (or the empty string with no labels),
/// with `extra` pairs appended — used for histogram `le` labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the Prometheus text format (backslash,
/// double quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_tile_the_whole_u64_range() {
        assert_eq!(bucket_index(0), 0);
        for idx in 0..BUCKETS {
            let upper = bucket_upper(idx);
            assert_eq!(bucket_index(upper), idx, "edge {upper}");
            if idx + 1 < BUCKETS {
                assert_eq!(bucket_index(upper + 1), idx + 1, "past edge {upper}");
            }
            // Every value in the bucket is within 1/16 of its edge.
            let lower = if idx == 0 {
                0
            } else {
                bucket_upper(idx - 1) + 1
            };
            assert!(upper - lower <= lower / 16, "bucket {lower}..={upper}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }
}
