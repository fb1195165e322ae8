//! The machine-readable perf trajectory: `BENCH_<scenario>.json` files
//! emitted by `reproduce`, `serve-sim` and `serve-http`, so every future
//! PR can diff its serving performance against this one's instead of
//! eyeballing stdout tables. Every emitter writes through
//! [`crate::scenario::write_record`], which validates before it writes.
//!
//! One file per scenario, schema [`BENCH_SCHEMA`]. The required keys —
//! enforced by [`validate_bench_json`], which CI runs on every emitted
//! file — are:
//!
//! | key | type | meaning |
//! |-----|------|---------|
//! | `schema` | string | exactly `"problp-bench/v1"` |
//! | `scenario` | string | which study produced the file |
//! | `requests` | number | requests (or lanes) the study drove |
//! | `throughput_rps` | number | requests per second end to end |
//! | `latency_us` | object | `p50` ≤ `p90` ≤ `p99` ≤ `max` sojourn, µs (all numbers, or all null with no sample) |
//! | `rejects` | number | typed admission rejects |
//!
//! Everything else (`extra` fields like speedups, quota settings,
//! per-backend work stats) is scenario-specific and additive — readers
//! must ignore keys they do not know. The `kernels` scenario also
//! requires every extra [`kernels_bench_record`] writes.

use problp_telemetry::{HistogramSnapshot, JsonValue};

/// The schema tag every `BENCH_*.json` carries; bump on breaking
/// changes to the required keys.
pub const BENCH_SCHEMA: &str = "problp-bench/v1";

/// One benchmark scenario's machine-readable result.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Scenario name — becomes the `BENCH_<scenario>.json` file name,
    /// so keep it `snake_case`.
    pub scenario: String,
    /// Requests (or lanes) the scenario drove.
    pub requests: u64,
    /// End-to-end requests per second.
    pub throughput_rps: f64,
    /// The sojourn-latency histogram the percentiles are derived from
    /// (`None` for scenarios without a latency dimension).
    pub latency: Option<HistogramSnapshot>,
    /// Typed admission rejects (quota, unknown model, ...).
    pub rejects: u64,
    /// Scenario-specific additions, appended to the JSON object as-is.
    pub extra: Vec<(String, JsonValue)>,
}

impl BenchRecord {
    /// The canonical file name: `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario)
    }

    /// The record as a JSON document with the schema's required keys
    /// first and `extra` appended.
    pub fn to_json(&self) -> JsonValue {
        let quant = |p: f64| -> JsonValue {
            self.latency
                .as_ref()
                .and_then(|h| h.quantile(p))
                .map_or(JsonValue::Null, JsonValue::from)
        };
        let latency = JsonValue::Object(vec![
            ("p50".to_string(), quant(50.0)),
            ("p90".to_string(), quant(90.0)),
            ("p99".to_string(), quant(99.0)),
            (
                "max".to_string(),
                self.latency
                    .as_ref()
                    .filter(|h| h.count > 0)
                    .map_or(JsonValue::Null, |h| JsonValue::from(h.max)),
            ),
        ]);
        let mut fields = vec![
            ("schema".to_string(), JsonValue::from(BENCH_SCHEMA)),
            (
                "scenario".to_string(),
                JsonValue::from(self.scenario.as_str()),
            ),
            ("requests".to_string(), JsonValue::from(self.requests)),
            (
                "throughput_rps".to_string(),
                JsonValue::from(self.throughput_rps),
            ),
            ("latency_us".to_string(), latency),
            ("rejects".to_string(), JsonValue::from(self.rejects)),
        ];
        fields.extend(self.extra.iter().cloned());
        JsonValue::Object(fields)
    }
}

/// Checks that `text` parses as JSON and carries every required
/// `problp-bench/v1` key with the right type; the error string names
/// the first violation.
///
/// # Errors
///
/// Returns a description of the first missing/mistyped key, or the
/// parse error.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing string key \"schema\"")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema is {schema:?}, expected {BENCH_SCHEMA:?}"));
    }
    doc.get("scenario")
        .and_then(JsonValue::as_str)
        .ok_or("missing string key \"scenario\"")?;
    for key in ["requests", "throughput_rps", "rejects"] {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric key {key:?}"))?;
    }
    let latency = doc
        .get("latency_us")
        .ok_or("missing object key \"latency_us\"")?;
    let mut numbers = Vec::new();
    for key in ["p50", "p90", "p99", "max"] {
        match latency.get(key) {
            Some(JsonValue::Number(n)) => numbers.push(*n),
            Some(JsonValue::Null) => {}
            Some(other) => {
                return Err(format!(
                    "latency_us.{key} must be a number or null, got {other:?}"
                ))
            }
            None => return Err(format!("missing latency_us key {key:?}")),
        }
    }
    if !matches!(numbers.len(), 0 | 4) {
        return Err("latency_us must be all numbers or all null".to_string());
    }
    if numbers.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!(
            "latency_us must read p50 <= p90 <= p99 <= max, got {numbers:?}"
        ));
    }
    if doc.get("scenario").and_then(JsonValue::as_str) == Some("kernels") {
        validate_kernels_extras(&doc)?;
    }
    Ok(())
}

/// The `kernels` scenario's required extras: numeric `batch`, `threads`
/// and fusion counts, boolean `identical`, and non-empty `rows` of
/// `arith`, `scalar_eps`, `fused_eps` and `fused_speedup`.
fn validate_kernels_extras(doc: &JsonValue) -> Result<(), String> {
    let number = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("kernels: missing numeric key {key:?}"))
    };
    for key in [
        "batch",
        "threads",
        "source_instrs",
        "fused_instrs",
        "mul_accs",
        "reduces",
    ] {
        number(doc, key)?;
    }
    if !matches!(doc.get("identical"), Some(JsonValue::Bool(_))) {
        return Err("kernels: missing boolean key \"identical\"".to_string());
    }
    let rows = doc.get("rows").and_then(JsonValue::as_array).unwrap_or(&[]);
    if rows.is_empty() {
        return Err("kernels: missing non-empty array key \"rows\"".to_string());
    }
    for row in rows {
        if row.get("arith").and_then(JsonValue::as_str).is_none() {
            return Err("kernels: missing string key \"arith\" in a row".to_string());
        }
        for key in ["scalar_eps", "fused_eps", "fused_speedup"] {
            number(row, key)?;
        }
    }
    Ok(())
}

/// `count / secs`, or 0 for an untimed run: the one meaning of a
/// record's `throughput_rps`.
pub(crate) fn per_sec(count: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// [`BenchRecord`] for the mixed-tenant serving study
/// (`BENCH_serving.json`): throughput of the pooled pass, sojourn
/// percentiles from the study's histogram, and the scalar-replay
/// comparison as extras.
pub fn serving_bench_record(study: &crate::ServingStudy) -> BenchRecord {
    BenchRecord {
        scenario: "serving".to_string(),
        requests: study.requests as u64,
        throughput_rps: per_sec(study.requests, study.served_secs),
        latency: Some(study.sojourn.clone()),
        rejects: 0,
        extra: vec![
            ("identical".to_string(), JsonValue::from(study.identical)),
            (
                "scalar_secs".to_string(),
                JsonValue::from(study.scalar_secs),
            ),
            (
                "served_secs".to_string(),
                JsonValue::from(study.served_secs),
            ),
            ("speedup".to_string(), JsonValue::from(study.speedup())),
            ("models".to_string(), JsonValue::from(study.models.len())),
        ],
    }
}

/// [`BenchRecord`] for the exact answer-cache study
/// (`BENCH_cache.json`): throughput of the cache-on pass, its sojourn
/// percentiles, and the cache books + cache-off comparison as extras.
pub fn cache_bench_record(study: &crate::CacheStudy) -> BenchRecord {
    BenchRecord {
        scenario: "cache".to_string(),
        requests: study.requests as u64,
        throughput_rps: per_sec(study.requests, study.cached_secs),
        latency: Some(study.sojourn.clone()),
        rejects: 0,
        extra: vec![
            ("unique".to_string(), JsonValue::from(study.unique)),
            ("rounds".to_string(), JsonValue::from(study.rounds)),
            ("identical".to_string(), JsonValue::from(study.identical)),
            ("cold_secs".to_string(), JsonValue::from(study.cold_secs)),
            (
                "cached_secs".to_string(),
                JsonValue::from(study.cached_secs),
            ),
            ("speedup".to_string(), JsonValue::from(study.speedup())),
            ("cache_hits".to_string(), JsonValue::from(study.cache_hits)),
            (
                "cache_misses".to_string(),
                JsonValue::from(study.cache_misses),
            ),
            (
                "cache_evictions".to_string(),
                JsonValue::from(study.cache_evictions),
            ),
            ("hit_rate".to_string(), JsonValue::from(study.hit_rate())),
        ],
    }
}

/// [`BenchRecord`] for the QoS study (`BENCH_qos.json`): the quota
/// rejects are the record's `rejects`, with the policy settings and
/// per-class percentiles as extras.
pub fn qos_bench_record(study: &crate::QosStudy) -> BenchRecord {
    let classes = study
        .classes
        .iter()
        .map(|c| {
            JsonValue::Object(vec![
                ("class".to_string(), JsonValue::from(c.class.as_str())),
                ("requests".to_string(), JsonValue::from(c.requests)),
                ("admitted".to_string(), JsonValue::from(c.admitted)),
                (
                    "p50_us".to_string(),
                    c.p50_us.map_or(JsonValue::Null, JsonValue::from),
                ),
                (
                    "p99_us".to_string(),
                    c.p99_us.map_or(JsonValue::Null, JsonValue::from),
                ),
            ])
        })
        .collect();
    BenchRecord {
        scenario: "qos".to_string(),
        requests: study.requests as u64,
        // Admitted requests per second, like the other serving records.
        throughput_rps: per_sec(study.admitted, study.served_secs),
        latency: Some(study.sojourn.clone()),
        rejects: study.quota_rejected as u64,
        extra: vec![
            ("quota".to_string(), JsonValue::from(study.quota)),
            ("admitted".to_string(), JsonValue::from(study.admitted)),
            ("identical".to_string(), JsonValue::from(study.identical)),
            (
                "hot_tenant_rejected".to_string(),
                JsonValue::from(study.hot_tenant_rejected),
            ),
            ("classes".to_string(), JsonValue::Array(classes)),
        ],
    }
}

/// [`BenchRecord`] for the differential conformance study
/// (`BENCH_conformance.json`): total compared lanes as `requests`,
/// those lanes per second of total backend wall time as the
/// throughput, and per-backend work/wall stats aggregated over the
/// cases as extras.
pub fn conformance_bench_record(report: &problp_conformance::ConformanceReport) -> BenchRecord {
    // Aggregate per backend over every (model, arith, semiring) case.
    let mut backends: Vec<(String, u64, f64, usize)> = Vec::new();
    let mut total_lanes = 0usize;
    let mut total_wall = 0.0;
    for case in &report.cases {
        for run in &case.backends {
            total_lanes += case.lanes;
            total_wall += run.wall.as_secs_f64();
            let name = format!("{}", run.backend);
            match backends.iter_mut().find(|(n, ..)| *n == name) {
                Some((_, work, wall, lanes)) => {
                    *work += run.work;
                    *wall += run.wall.as_secs_f64();
                    *lanes += case.lanes;
                }
                None => backends.push((name, run.work, run.wall.as_secs_f64(), case.lanes)),
            }
        }
    }
    let backend_rows = backends
        .iter()
        .map(|(name, work, wall, lanes)| {
            JsonValue::Object(vec![
                ("backend".to_string(), JsonValue::from(name.as_str())),
                ("work".to_string(), JsonValue::from(*work)),
                ("wall_secs".to_string(), JsonValue::from(*wall)),
                ("lanes".to_string(), JsonValue::from(*lanes)),
                (
                    "lanes_per_sec".to_string(),
                    if *wall > 0.0 {
                        JsonValue::from(*lanes as f64 / *wall)
                    } else {
                        JsonValue::Null
                    },
                ),
            ])
        })
        .collect();
    BenchRecord {
        scenario: "conformance".to_string(),
        requests: total_lanes as u64,
        throughput_rps: per_sec(total_lanes, total_wall),
        latency: None,
        rejects: 0,
        extra: vec![
            ("seed".to_string(), JsonValue::from(report.seed)),
            (
                "lanes_per_case".to_string(),
                JsonValue::from(report.lanes_per_case),
            ),
            ("cases".to_string(), JsonValue::from(report.cases.len())),
            (
                "mismatches".to_string(),
                JsonValue::from(report.total_mismatches()),
            ),
            ("all_match".to_string(), JsonValue::Bool(report.all_match())),
            ("backends".to_string(), JsonValue::Array(backend_rows)),
        ],
    }
}

/// [`BenchRecord`] for the static-analysis study (`BENCH_verify.json`):
/// analyzed tape instructions as `requests`, the aggregate
/// instructions-per-second of verification + analysis as the headline
/// throughput, per-model verdicts and minimal formats as extras.
pub fn verify_bench_record(study: &crate::VerifyStudy) -> BenchRecord {
    let rows = study
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("model".to_string(), JsonValue::from(r.model.as_str())),
                ("instrs".to_string(), JsonValue::from(r.instrs)),
                (
                    "verify_us".to_string(),
                    JsonValue::from(r.verifier_wall.as_secs_f64() * 1e6),
                ),
                (
                    "analyze_us".to_string(),
                    JsonValue::from(r.analysis_wall.as_secs_f64() * 1e6),
                ),
                ("safe_formats".to_string(), JsonValue::from(r.safe_formats)),
                (
                    "minimal_fixed".to_string(),
                    JsonValue::from(
                        format!(
                            "fixed:{}.{}",
                            r.minimal_format.int_bits(),
                            r.minimal_format.frac_bits()
                        )
                        .as_str(),
                    ),
                ),
            ])
        })
        .collect();
    let total_instrs: usize = study.rows.iter().map(|r| r.instrs).sum();
    let total_wall: f64 = study
        .rows
        .iter()
        .map(|r| r.verifier_wall.as_secs_f64() + r.analysis_wall.as_secs_f64())
        .sum();
    BenchRecord {
        scenario: "verify".to_string(),
        requests: total_instrs as u64,
        throughput_rps: per_sec(total_instrs, total_wall),
        latency: None,
        rejects: 0,
        extra: vec![
            (
                "formats".to_string(),
                JsonValue::Array(
                    study
                        .specs
                        .iter()
                        .map(|s| JsonValue::from(s.to_string().as_str()))
                        .collect(),
                ),
            ),
            ("models".to_string(), JsonValue::Array(rows)),
        ],
    }
}

/// [`BenchRecord`] for the evaluator-kernel study (`BENCH_kernels.json`):
/// lanes per sweep as `requests`, the fused f64 rate as the headline
/// throughput, per-arithmetic rates and speedups plus the fusion
/// statistics as extras.
pub fn kernels_bench_record(study: &crate::KernelStudy) -> BenchRecord {
    let rows = study
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("arith".to_string(), JsonValue::from(r.arith.as_str())),
                ("scalar_eps".to_string(), JsonValue::from(r.scalar_eps)),
                ("fused_eps".to_string(), JsonValue::from(r.fused_eps)),
                (
                    "fused_speedup".to_string(),
                    JsonValue::from(r.fused_speedup()),
                ),
            ])
        })
        .collect();
    let headline = study.rows.first();
    BenchRecord {
        scenario: "kernels".to_string(),
        requests: study.batch as u64,
        throughput_rps: headline.map_or(0.0, |r| r.fused_eps),
        latency: None,
        rejects: 0,
        extra: vec![
            ("batch".to_string(), JsonValue::from(study.batch)),
            ("threads".to_string(), JsonValue::from(1u64)),
            ("identical".to_string(), JsonValue::Bool(study.identical)),
            ("rows".to_string(), JsonValue::Array(rows)),
            (
                "source_instrs".to_string(),
                JsonValue::from(study.fuse.source_instrs),
            ),
            (
                "fused_instrs".to_string(),
                JsonValue::from(study.fuse.fused_instrs),
            ),
            ("mul_accs".to_string(), JsonValue::from(study.fuse.mul_accs)),
            ("reduces".to_string(), JsonValue::from(study.fuse.reduces)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEED;

    #[test]
    fn serving_record_round_trips_and_validates() {
        let study = crate::serving_study(40, SEED).expect("serves");
        let record = serving_bench_record(&study);
        assert_eq!(record.file_name(), "BENCH_serving.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("emitted record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(doc.get("requests").and_then(JsonValue::as_f64), Some(40.0));
        // 40 served requests → the histogram saw them all, so the
        // percentiles are real numbers.
        assert!(doc
            .get("latency_us")
            .and_then(|l| l.get("p50"))
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn cache_record_validates_and_the_books_are_deterministic() {
        let study = crate::cache_study(18, 3, SEED).expect("serves");
        assert_eq!(study.unique, 18);
        assert_eq!(study.requests, 54);
        // Round one misses each of the 18 distinct keys once; the drain
        // barrier guarantees rounds two and three hit all of them.
        assert_eq!(study.cache_misses, 18);
        assert_eq!(study.cache_hits, 36);
        assert_eq!(study.cache_evictions, 0);
        // A hit replays the memoized payload: the cached pass must be
        // bit-identical to the cache-off pass on every request.
        assert_eq!(study.identical, study.requests);
        let record = cache_bench_record(&study);
        assert_eq!(record.file_name(), "BENCH_cache.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("cache record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("hit_rate").and_then(JsonValue::as_f64),
            Some(36.0 / 54.0)
        );
    }

    #[test]
    fn qos_and_conformance_records_validate() {
        let qos = qos_bench_record(&crate::qos_study(80, SEED).expect("serves"));
        validate_bench_json(&qos.to_json().render()).expect("qos record validates");
        assert!(qos.rejects > 0, "the QoS study must exercise the quota");
        assert!(qos.throughput_rps > 0.0, "admitted requests per second");
        let conf = conformance_bench_record(&crate::conformance_study(8, SEED));
        assert!(conf.throughput_rps > 0.0, "compared lanes per second");
        let text = conf.to_json().render_pretty();
        validate_bench_json(&text).expect("conformance record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("all_match"), Some(&JsonValue::Bool(true)));
        assert!(
            doc.get("backends")
                .and_then(JsonValue::as_array)
                .is_some_and(|b| b.len() >= 3),
            "expected scalar/tape/schedule/pipeline backend rows"
        );
    }

    #[test]
    fn kernels_record_validates_and_carries_fusion_stats() {
        let study = crate::kernel_study(64);
        let record = kernels_bench_record(&study);
        assert_eq!(record.file_name(), "BENCH_kernels.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("kernels record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("identical"), Some(&JsonValue::Bool(true)));
        assert!(
            doc.get("mul_accs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                > 0.0,
            "the Alarm tape must fuse MulAccs"
        );
        assert!(doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .is_some_and(|r| r.len() == crate::KERNEL_STUDY_ARITHS.len()));

        // Every required kernels extra is enforced: renaming any one
        // top-level key or row field fails validation, naming the key.
        for key in [
            "batch",
            "identical",
            "rows",
            "reduces",
            "arith",
            "fused_eps",
        ] {
            let stripped = text.replace(&format!("\"{key}\""), "\"dropped\"");
            let err = validate_bench_json(&stripped).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn validator_rejects_missing_and_mistyped_keys() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").unwrap_err().contains("schema"));
        let wrong_schema = r#"{"schema": "problp-bench/v0"}"#;
        assert!(validate_bench_json(wrong_schema)
            .unwrap_err()
            .contains("v0"));
        let no_latency = r#"{"schema": "problp-bench/v1", "scenario": "x",
            "requests": 1, "throughput_rps": 2.0, "rejects": 0}"#;
        assert!(validate_bench_json(no_latency)
            .unwrap_err()
            .contains("latency_us"));
        let bad_percentile = r#"{"schema": "problp-bench/v1", "scenario": "x",
            "requests": 1, "throughput_rps": 2.0, "rejects": 0,
            "latency_us": {"p50": "fast", "p90": 1, "p99": 2, "max": 3}}"#;
        assert!(validate_bench_json(bad_percentile)
            .unwrap_err()
            .contains("p50"));
    }

    #[test]
    fn validator_rejects_disordered_and_half_null_percentiles() {
        let record = |latency: &str| {
            format!(
                r#"{{"schema": "problp-bench/v1", "scenario": "x", "requests": 1,
                "throughput_rps": 2.0, "rejects": 0, "latency_us": {latency}}}"#
            )
        };
        let disordered = record(r#"{"p50": 10, "p90": 30, "p99": 20, "max": 40}"#);
        assert!(validate_bench_json(&disordered)
            .unwrap_err()
            .contains("p50 <= p90 <= p99 <= max"));
        let half_null = record(r#"{"p50": 10, "p90": null, "p99": 20, "max": 40}"#);
        assert!(validate_bench_json(&half_null)
            .unwrap_err()
            .contains("all numbers or all null"));
    }
}
