//! The ProbLP benchmark: four workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open|http-closed|batch-offline|design-flow \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints a human-readable summary and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]);
//! with `--trace 1` the run measures an untraced half and a traced half,
//! reports the per-layer metrics ([`PER_LAYER`]) from the traced half,
//! and writes its spans to `perfbench/out/`. See `perfbench/README.md`.

mod batch_offline;
mod design_flow;
mod gen;
mod http;
mod http_closed;
mod serve_open;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Dist;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve-open", "http-closed", "batch-offline", "design-flow"];

/// End-to-end metrics: `(name, unit)`. Printed with `--trace 0`. The
/// tail percentiles are printed in the summary only: on a small shared
/// host they move with the host's wake-up latency far more than any
/// bound a regression check could use (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Printed with `--trace 1`; a layer
/// the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_p99_us", "us"),
    ("admission.submit_us.p50", "us"),
    ("admission.submit_us.p99", "us"),
    ("queue.sojourn_us.p50", "us"),
    ("queue.sojourn_us.p99", "us"),
    ("queue.lanes_per_dispatch", "lanes"),
    ("queue.depth_high_water", "count"),
    ("ticket.wake_us.p50", "us"),
    ("ticket.wake_us.p99", "us"),
    ("engine.evaluate_us.mean", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("pool.reload_ms.p50", "ms"),
    ("pool.register_ms", "ms"),
    ("gateway.connect_us.p50", "us"),
    ("gateway.ttfb_us.p50", "us"),
    ("gateway.ttfb_us.p99", "us"),
    ("gateway.requests_per_conn", "ratio"),
    ("gateway.status.200", "count"),
    ("gateway.status.other", "count"),
    ("engine.lanes_per_s.alarm.marginal", "1/s"),
    ("engine.lanes_per_s.alarm.mpe", "1/s"),
    ("engine.lanes_per_s.alarm.conditional", "1/s"),
    ("engine.lanes_per_s.har.conditional", "1/s"),
    ("engine.instrs_per_lane.alarm.marginal", "count"),
    ("engine.instrs_per_lane.alarm.mpe", "count"),
    ("engine.instrs_per_lane.alarm.conditional", "count"),
    ("engine.instrs_per_lane.har.conditional", "count"),
    ("ac.compile_ms", "ms"),
    ("ac.binarize_ms", "ms"),
    ("bounds.analysis_ms", "ms"),
    ("bounds.search_ms", "ms"),
    ("energy.estimate_us", "us"),
    ("hw.netlist_ms", "ms"),
    ("hw.verilog_ms", "ms"),
    ("core.measure_ms", "ms"),
    ("core.stage_sum_ratio", "ratio"),
    ("trace.overhead_p50_us", "us"),
    ("trace.spans", "count"),
    ("self_us.request", "us"),
    ("self_us.loadgen", "us"),
    ("self_us.admission", "us"),
    ("self_us.queue", "us"),
    ("self_us.ticket", "us"),
    ("self_us.gateway.connect", "us"),
    ("self_us.gateway.write", "us"),
    ("self_us.gateway.ttfb", "us"),
    ("self_us.gateway.read", "us"),
    ("self_us.pool.reload", "us"),
    ("self_us.round", "us"),
    ("self_us.engine", "us"),
    ("self_us.row", "us"),
    ("self_us.ac.binarize", "us"),
    ("self_us.bounds.analysis", "us"),
    ("self_us.bounds.search", "us"),
    ("self_us.energy.estimate", "us"),
    ("self_us.hw.netlist", "us"),
    ("self_us.hw.verilog", "us"),
];

/// Times each workload's set-up runs; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// `latency_p50_us` is the median over this many equal windows of a
/// run of each window's median (see [`stats::windowed`]).
pub const WINDOWS: usize = 10;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one measuring phase saw.
pub struct Phase {
    /// One latency sample (µs) per unit of work: a request, a round of
    /// batches, or a sweep of design rows.
    pub latency_us: Vec<f64>,
    /// Units of throughput work completed (requests, lanes, rows).
    pub work: f64,
    /// Seconds the work took.
    pub busy_s: f64,
    /// Checked outputs.
    pub attempted: u64,
    /// Outputs that failed their check (errors, timeouts, rejects,
    /// non-200 statuses, mismatches, violated bounds).
    pub failed: u64,
    /// Consistency checks beyond per-output answers (ledgers, counters).
    pub consistent: bool,
    /// Per-layer metrics this phase measured.
    pub layers: BTreeMap<String, f64>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.work / self.busy_s
        } else {
            0.0
        }
    }
}

/// One workload's run: set-up time plus the phases it measured.
pub struct Outcome {
    pub setup_s: f64,
    /// Name of `throughput_per_s` for this workload in the summary.
    pub throughput_name: &'static str,
    /// The untraced phase (the whole run without `--trace`).
    pub untraced: Phase,
    /// The traced phase (with `--trace 1`).
    pub traced: Option<Phase>,
    /// Per-layer metrics measured during set-up.
    pub setup_layers: BTreeMap<String, f64>,
}

/// Builds a workload's set-up [`SETUP_REPS`] times, about half before
/// and half after `measure` runs on one of the builds, so that the
/// median set-up time spans the same stretch of host time as the
/// measurement. Returns that median with `measure`'s result; the other
/// builds are dropped untimed.
pub fn with_setups<T, R>(
    mut build: impl FnMut() -> T,
    measure: impl FnOnce(&mut T) -> R,
) -> (f64, R) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut timed_build = || {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        built
    };
    let before = SETUP_REPS / 2 + 1;
    let mut kept = timed_build();
    for _ in 1..before {
        drop(kept);
        kept = timed_build();
    }
    let result = measure(&mut kept);
    drop(kept);
    for _ in before..SETUP_REPS {
        drop(timed_build());
    }
    (Dist::new(times).p(50.0), result)
}

/// Milliseconds between two instants.
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Microseconds between two instants.
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds `self_us.<layer>` metrics and the span count from a tracer.
fn trace_layers(tracer: &Tracer, layers: &mut BTreeMap<String, f64>) {
    let spans = tracer.spans();
    layers.insert("trace.spans".to_string(), spans.len() as f64);
    for (name, t) in trace::self_times(&spans) {
        layers.insert(format!("self_us.{name}"), t.mean_us());
    }
}

fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    match args.workload.as_str() {
        "serve-open" => serve_open::run(args, tracer),
        "http-closed" => http_closed::run(args, tracer),
        "batch-offline" => batch_offline::run(args, tracer),
        _ => design_flow::run(args, tracer),
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let outcome = run(&args, tracer.as_ref());
    let rss = peak_rss_mb();

    let u = &outcome.untraced;
    let lat = Dist::new(u.latency_us.clone());
    let mut attempted = u.attempted;
    let mut failed = u.failed;
    let mut consistent = u.consistent;
    if let Some(t) = &outcome.traced {
        attempted += t.attempted;
        failed += t.failed;
        consistent &= t.consistent;
    }
    let correct = consistent && failed == 0 && attempted > 0;

    println!(
        "workload {} seed {} ({} s{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced half" } else { "" }
    );
    println!(
        "  setup_s          {:.4} s (median of {SETUP_REPS} set-ups)",
        outcome.setup_s
    );
    let p50 = stats::windowed(&u.latency_us, WINDOWS, 50.0);
    println!("  latency_p50_us   {p50:.1} us (median of {WINDOWS} window p50s)");
    println!("  latency, pooled  {}", lat.describe("us"));
    println!(
        "  {:<16} {:.2} 1/s",
        outcome.throughput_name,
        u.throughput()
    );
    println!(
        "  failed_ratio     {} ({failed} of {attempted})",
        if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        }
    );
    println!("  peak_rss_mb      {rss:.1} MB");
    if !consistent {
        println!("  CONSISTENCY CHECK FAILED (see stderr)");
    }

    let metrics: Vec<String> = match (&tracer, &outcome.traced) {
        (Some(tracer), Some(traced)) => {
            let mut layers = outcome.setup_layers.clone();
            layers.extend(traced.layers.clone());
            trace_layers(tracer, &mut layers);
            layers.insert(
                "trace.overhead_p50_us".to_string(),
                stats::windowed(&traced.latency_us, WINDOWS, 50.0) - p50,
            );
            let path = PathBuf::from("perfbench/out")
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            let header = format!(
                "\"workload\": \"{}\", \"seed\": {}",
                args.workload, args.seed
            );
            match tracer.write_json(&path, &header) {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            println!("  per-layer (traced half):");
            for (name, value) in &layers {
                println!("    {name:<44} {value:.3}");
            }
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    json_metric(name, layers.get(*name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        }
        _ => {
            let values = [outcome.setup_s, p50, u.throughput(), rss];
            END_TO_END
                .iter()
                .zip(values)
                .map(|((name, unit), value)| json_metric(name, value, unit))
                .collect()
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The measuring window of one phase: the whole run, or half of it in
/// a traced run.
pub fn phase_len(args: &Args) -> Duration {
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    Duration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_telemetry::JsonValue;

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints, with the same units, and the workloads match.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or("");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
