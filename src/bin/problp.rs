//! The `problp` command-line interface: run the framework on a network
//! file and emit the report, the Verilog and a self-checking testbench.
//!
//! ```text
//! problp info       --network model.bn
//! problp run        --network model.bn --query marginal --tolerance abs:0.01 \
//!                   --out-dir build/
//! problp export     --network model.bn --dot circuit.dot
//! problp throughput --network model.bn --batch 1024 --threads 0 \
//!                   --query marginal|mpe|conditional [--query-var NAME]
//!                   [--kernel scalar|fused]
//! problp accuracy   [--dataset HAR|UNIMIB|UIWADS] [--instances 300]
//! problp serve-sim  --models sprinkler,asia [--requests 512] [--max-batch 32]
//!                   [--max-wait-us 500] [--workers 4] [--seed 7]
//!                   [--tenant-quota 0] [--batch-share 0] [--aging-us 20000]
//!                   [--adaptive-wait] [--cache-capacity 0]
//!                   [--reload-mid-trace] [--metrics-addr 127.0.0.1:0]
//!                   [--linger-ms 0] [--bench-json FILE]
//! problp serve-http --models sprinkler,asia [--addr 127.0.0.1:0]
//!                   [--tokens TOK=MODEL,...] [--http-workers 4]
//!                   [--max-batch 32] [--max-wait-us 500] [--workers 4]
//!                   [--tenant-quota 0] [--cache-capacity 0] [--seed 7]
//!                   [--self-drive N] [--metrics-addr 127.0.0.1:0]
//!                   [--linger-ms 0] [--bench-json FILE]
//! problp conformance [--models alarm,asia] [--random 2] [--batch 256]
//!                   [--seed 7] [--repr f64,fixed:2.14,float:8.13]
//!                   [--inject-fault scalar|tape|tape-full|fused-compact|
//!                    fused-full|schedule|pipeline]
//! problp verify     [--models sprinkler,asia] [--repr f64,fixed:2.14,float:8.23]
//!                   [--seed 7] [--corrupt oob-reg|slot-oob|param-write|truncate]
//! problp lint-src   [--allow ci/lint-allow.txt]
//! ```
//!
//! Every valued flag needs its value: a missing or malformed one prints
//! the usage and exits 2.
//!
//! Networks use the plain-text `.bn` format of [`problp::bayes::io`].
//! `throughput` measures bulk-inference rates — the scalar tree-walk
//! versus the batched execution engine (`problp::engine`) at the given
//! batch size (`--threads 0` = all cores) — for all three query kinds:
//! marginal sweeps, MPE decoding (max-product argmax traceback) and
//! conditional posteriors (joint/marginal lane pairs). `--kernel`
//! selects the engine's evaluator core: the scalar reference walk or
//! the fused superinstruction stream (bit-identical; see
//! `problp::engine::KernelKind`). It defaults to the library's
//! `Engine` default, `fused`.
//! `accuracy` runs
//! the engine-served per-precision classifier accuracy study of
//! `problp::bench` on the synthetic sensing datasets. `serve-sim`
//! replays a seeded mixed-tenant request trace through the sharded
//! multi-circuit serving layer (`problp::engine::serve`: a
//! `CircuitPool` behind an admission queue and dispatcher shards),
//! verifies every admitted answer bit-identical against per-request
//! evaluation, and reports per-priority-class latency percentiles,
//! quota-reject counts and the batched-vs-scalar speedup. The QoS
//! policy knobs mirror `ServeConfig`: `--tenant-quota` caps each
//! model's queued + in-flight lanes (0 = off), `--batch-share` routes
//! that percentage of the trace to the `Batch` priority lane,
//! `--aging-us` is the anti-starvation promotion bound, and
//! `--adaptive-wait` shrinks the coalescing wait of hot streams.
//! `--cache-capacity N` turns on the exact answer cache (then a slice
//! of served requests is replayed and must hit, bit-identical), and
//! `--reload-mid-trace` hot-swaps the first model halfway through the
//! trace. `--models` takes built-in network names
//! (`figure1|sprinkler|asia|student|earthquake|cancer|alarm`) or `.bn`
//! paths, comma-separated.
//!
//! `serve-http` puts the `POST /v1/query` gateway in front of the same
//! pooled server; bearer tokens map to models (`--tokens`, default one
//! `token-<model>` per model). With `--self-drive N` it replays an
//! `N`-request seeded trace through real sockets, checks every answer
//! bit-identical, probes the typed-error statuses
//! (401/404/405/400/413/429) and cross-checks the gateway counters, then
//! exits. Both serving commands run on the one serving-scenario runner
//! of `problp::bench::scenario`.
//!
//! With `--metrics-addr HOST:PORT` (port 0 picks a free port),
//! `serve-sim` and `serve-http` also start the `problp::telemetry`
//! observability sidecar on that address — `/metrics` (Prometheus
//! text), `/healthz`, `/statz` (JSON) — backed by the server's live
//! metric registry; `serve-sim` scrapes it itself mid-trace as a
//! self-check. The bound address is printed so external scrapers can
//! follow. `--linger-ms N` keeps the sidecar (and the server) up for N
//! extra milliseconds after the run, and `--bench-json FILE` writes the
//! run's machine-readable `problp-bench/v1` perf record (validated
//! before it is written, and by `reproduce check-bench`).
//!
//! `conformance` runs the differential cross-check of
//! `problp::conformance`: the same seeded evidence batch is evaluated on
//! the scalar tree-walk, the compact and full-values engine tapes, the
//! fused superinstruction streams of both tape modes, the sequential
//! ALU schedule and the cycle-accurate pipelined datapath (streaming
//! one lane per cycle), and every stream must be bit-identical per
//! arithmetic (`--repr`) and semiring. Without
//! `--models` it checks `sprinkler,asia` plus `--random` seeded random
//! networks (default 2). The exit code is non-zero on any divergence;
//! `--inject-fault` deliberately corrupts one backend's stream to prove
//! the harness detects it.
//!
//! `verify` runs the static-analysis subsystem (`problp::verify`) over
//! each model's tape: the Layer-1 structural verifier (compact and
//! fused streams), the Layer-2 fixed/float range analysis per `--repr`
//! arithmetic, and the minimal-safe-fixed-format search. It prints one
//! row per model plus the `problp_verify_*` counter totals and ends
//! with `verdict: PASS` / `verdict: FAIL` (non-zero exit). `--corrupt`
//! mutates each tape before verification — the verifier must reject it
//! with a typed error, so a corrupted run *failing* is the expected CI
//! outcome.
//!
//! `lint-src` enforces the serving-path panic policy: no `.unwrap()` /
//! `.expect(` in the non-test code of the `crates/engine/src/serve/`
//! modules and `crates/telemetry/src` (scanning stops at the first
//! `#[cfg(test)]` line of each file). Exceptions live in
//! `ci/lint-allow.txt` as `file-suffix: line-substring` entries. Run it
//! from the repository root; non-zero exit on any violation.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp::ac::transform::binarize;
use problp::bench::scenario::{self, Mix};
use problp::engine::{KernelKind, LaneResult, ServeError};
use problp::prelude::*;
use problp::telemetry::{MetricsRegistry, Sidecar};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  problp info       --network FILE [--optimize]
  problp run        --network FILE [--query marginal|conditional|mpe]
                    [--tolerance abs:X|rel:X] [--out-dir DIR] [--optimize]
  problp export     --network FILE --dot FILE
  problp throughput --network FILE [--batch N] [--threads N] [--optimize]
                    [--query marginal|mpe|conditional] [--query-var NAME]
                    [--kernel scalar|fused]
  problp accuracy   [--dataset HAR|UNIMIB|UIWADS] [--instances N]
  problp serve-sim  --models NAME|FILE[,NAME|FILE...] [--requests N]
                    [--max-batch N] [--max-wait-us N] [--workers N] [--seed N]
                    [--tenant-quota N] [--batch-share PCT] [--aging-us N]
                    [--adaptive-wait] [--cache-capacity N]
                    [--reload-mid-trace] [--metrics-addr HOST:PORT]
                    [--linger-ms N] [--bench-json FILE]
  problp serve-http --models NAME|FILE[,NAME|FILE...] [--addr HOST:PORT]
                    [--tokens TOK=MODEL[,TOK=MODEL...]] [--http-workers N]
                    [--max-batch N] [--max-wait-us N] [--workers N]
                    [--tenant-quota N] [--cache-capacity N] [--seed N]
                    [--self-drive N] [--metrics-addr HOST:PORT]
                    [--linger-ms N] [--bench-json FILE]
  problp conformance [--models NAME|FILE[,...]] [--random N] [--batch N]
                    [--seed N] [--repr LIST] [--inject-fault BACKEND]
                    (LIST entries: f64 | fixed:I.F | float:E.M;
                     BACKEND: scalar|tape|tape-full|fused-compact|
                     fused-full|schedule|pipeline)
  problp verify     [--models NAME|FILE[,...]] [--repr LIST] [--seed N]
                    [--corrupt oob-reg|slot-oob|param-write|truncate]
  problp lint-src   [--allow FILE]"
    );
    ExitCode::from(2)
}

fn parse_tolerance(spec: &str) -> Option<Tolerance> {
    let (kind, value) = spec.split_once(':')?;
    let value: f64 = value.parse().ok()?;
    match kind {
        "abs" => Some(Tolerance::Absolute(value)),
        "rel" => Some(Tolerance::Relative(value)),
        _ => None,
    }
}

fn parse_query(spec: &str) -> Option<QueryType> {
    match spec {
        "marginal" => Some(QueryType::Marginal),
        "conditional" => Some(QueryType::Conditional),
        "mpe" => Some(QueryType::Mpe),
        _ => None,
    }
}

fn load_network(path: &Path) -> Result<BayesNet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    problp::bayes::io::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every command-line flag with its default; each command reads the
/// ones it uses.
struct Opts {
    network: Option<PathBuf>,
    query: QueryType,
    query_var: Option<String>,
    tolerance: Tolerance,
    out_dir: PathBuf,
    dot: Option<PathBuf>,
    optimize: bool,
    /// `--batch`: throughput defaults to 1024 lanes, conformance to 256.
    batch: Option<usize>,
    threads: usize,
    dataset: Option<String>,
    instances: usize,
    /// Comma-separated built-in network names or `.bn` paths.
    models: Option<String>,
    requests: usize,
    max_batch: usize,
    max_wait_us: u64,
    workers: usize,
    seed: u64,
    /// Per-model cap on queued + in-flight lanes (0 = no quota).
    tenant_quota: usize,
    /// Percentage of the serve-sim trace routed to the `Batch` lane.
    batch_share: u64,
    /// Anti-starvation promotion bound of the priority lanes, µs.
    aging_us: u64,
    /// Shrink the coalescing wait of hot streams (EWMA-driven).
    adaptive_wait: bool,
    /// Exact answer-cache capacity in entries (0 = cache off).
    cache_capacity: usize,
    /// Hot-swap the first model halfway through the serve-sim trace
    /// ([`Server::reload`]): recompiles the same graph, so answers stay
    /// bit-identical while the version bumps and the cut-over runs.
    reload_mid_trace: bool,
    /// Bind the `/metrics` + `/healthz` sidecar here (port 0 = any).
    metrics_addr: Option<String>,
    /// Keep the sidecar and server alive this long after the run.
    linger_ms: u64,
    /// Write the run's `problp-bench/v1` perf record here.
    bench_json: Option<PathBuf>,
    /// Seeded random networks for conformance (`None` = 2 without
    /// `--models`, else 0).
    random: Option<usize>,
    /// Comma-separated arithmetics (`f64 | fixed:I.F | float:E.M`).
    repr: Option<String>,
    /// Corrupt this conformance backend's stream (harness self-test).
    inject_fault: Option<String>,
    /// Mutate each tape before `verify` (red-path self-test); the run
    /// then *must* fail.
    corrupt: Option<String>,
    allow: PathBuf,
    kernel: KernelKind,
    /// Gateway bind address (`host:port`; port 0 = OS-assigned).
    addr: String,
    /// `TOK=MODEL` pairs; `None` mints `token-<model>` per model.
    tokens: Option<String>,
    /// Gateway connection-handling worker threads.
    http_workers: usize,
    /// `Some(n)`: replay an `n`-request seeded trace through real
    /// sockets, self-check and exit. `None`: serve until killed.
    self_drive: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            network: None,
            query: QueryType::Marginal,
            query_var: None,
            tolerance: Tolerance::Absolute(0.01),
            out_dir: PathBuf::from("."),
            dot: None,
            optimize: false,
            batch: None,
            threads: 0,
            dataset: None,
            instances: 300,
            models: None,
            requests: 512,
            max_batch: 32,
            max_wait_us: 500,
            workers: 4,
            seed: 7,
            tenant_quota: 0,
            batch_share: 0,
            aging_us: 20_000,
            adaptive_wait: false,
            cache_capacity: 0,
            reload_mid_trace: false,
            metrics_addr: None,
            linger_ms: 0,
            bench_json: None,
            random: None,
            repr: None,
            inject_fault: None,
            corrupt: None,
            allow: PathBuf::from("ci/lint-allow.txt"),
            kernel: KernelKind::default(),
            addr: "127.0.0.1:0".to_string(),
            tokens: None,
            http_workers: 4,
            self_drive: None,
        }
    }
}

/// The next argument parsed as a flag's value; `None` when it is
/// missing or malformed, which every caller turns into the usage.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>) -> Option<T> {
    it.next()?.parse().ok()
}

/// Parses the flags after the command; `None` on an unknown flag or a
/// bad value.
fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let it = &mut it;
        match arg.as_str() {
            "--network" => o.network = Some(value(it)?),
            "--models" => o.models = Some(value(it)?),
            "--requests" => o.requests = value(it)?,
            "--max-batch" => o.max_batch = value(it)?,
            "--max-wait-us" => o.max_wait_us = value(it)?,
            "--workers" => o.workers = value(it)?,
            "--seed" => o.seed = value(it)?,
            "--tenant-quota" => o.tenant_quota = value(it)?,
            "--batch-share" => o.batch_share = value(it).filter(|n| *n <= 100)?,
            "--aging-us" => o.aging_us = value(it)?,
            "--adaptive-wait" => o.adaptive_wait = true,
            "--cache-capacity" => o.cache_capacity = value(it)?,
            "--reload-mid-trace" => o.reload_mid_trace = true,
            "--addr" => o.addr = value(it)?,
            "--tokens" => o.tokens = Some(value(it)?),
            "--http-workers" => o.http_workers = value(it)?,
            "--self-drive" => o.self_drive = Some(value(it)?),
            "--metrics-addr" => o.metrics_addr = Some(value(it)?),
            "--linger-ms" => o.linger_ms = value(it)?,
            "--bench-json" => o.bench_json = Some(value(it)?),
            "--random" => o.random = Some(value(it)?),
            "--repr" => o.repr = Some(value(it)?),
            "--inject-fault" => o.inject_fault = Some(value(it)?),
            "--corrupt" => o.corrupt = Some(value(it)?),
            "--allow" => o.allow = value(it)?,
            "--kernel" => o.kernel = KernelKind::parse(&value::<String>(it)?)?,
            "--batch" => o.batch = Some(value(it)?),
            "--threads" => o.threads = value(it)?,
            "--instances" => o.instances = value(it)?,
            "--query" => o.query = parse_query(&value::<String>(it)?)?,
            "--query-var" => o.query_var = Some(value(it)?),
            "--dataset" => o.dataset = Some(value(it)?),
            "--tolerance" => o.tolerance = parse_tolerance(&value::<String>(it)?)?,
            "--out-dir" => o.out_dir = value(it)?,
            "--dot" => o.dot = Some(value(it)?),
            "--optimize" => o.optimize = true,
            _ => return None,
        }
    }
    Some(o)
}

/// Maps a command's outcome to the exit code: `Ok(false)` is a failed
/// check (already reported), `Err` is printed.
fn exit_code(outcome: Result<bool, Box<dyn Error>>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let Some(o) = parse_opts(rest) else {
        return usage();
    };
    let outcome = match command.as_str() {
        // The serving commands host many models at once (built-in names
        // or .bn files) instead of one `--network`.
        "serve-sim" | "serve-http" if o.models.is_none() => return usage(),
        "serve-sim" => serve_sim(&o).map(|()| true),
        "serve-http" => serve_http(&o).map(|()| true),
        "conformance" => conformance(&o).map(|()| true),
        // Pure static analysis: never evaluates anything.
        "verify" => verify_tapes(&o),
        // Needs no models at all; it reads workspace sources.
        "lint-src" => lint_src(&o.allow),
        // Runs on the packaged classifier benchmarks, no network file.
        "accuracy" => accuracy(&o).map(|()| true),
        "export" => {
            let (Some(network), Some(dot)) = (&o.network, &o.dot) else {
                return usage();
            };
            export(network, dot, &o).map(|()| true)
        }
        "info" | "run" | "throughput" => {
            let Some(network) = &o.network else {
                return usage();
            };
            on_network(command, network, &o).map(|()| true)
        }
        _ => return usage(),
    };
    exit_code(outcome)
}

fn accuracy(o: &Opts) -> Result<(), Box<dyn Error>> {
    let names: Vec<&str> = match &o.dataset {
        Some(d) => vec![d.as_str()],
        None => vec!["HAR", "UNIMIB", "UIWADS"],
    };
    if let Some(bad) = names
        .iter()
        .find(|n| !matches!(**n, "HAR" | "UNIMIB" | "UIWADS"))
    {
        return Err(format!("unknown dataset {bad} (expected HAR, UNIMIB or UIWADS)").into());
    }
    print!(
        "{}",
        problp::bench::accuracy_study_report(&names, o.instances)
    );
    Ok(())
}

/// Loads and compiles `network`, optimized with `--optimize`.
fn load_circuit(network: &Path, o: &Opts) -> Result<(BayesNet, AcGraph), Box<dyn Error>> {
    let net = load_network(network)?;
    let circuit = compile(&net).map_err(|e| format!("compilation failed: {e}"))?;
    if !o.optimize {
        return Ok((net, circuit));
    }
    let (opt, stats) =
        problp::ac::optimize(&circuit).map_err(|e| format!("optimisation failed: {e}"))?;
    eprintln!("optimized: {stats}");
    Ok((net, opt))
}

/// `export`: writes the compiled circuit of `network` to `dot`.
fn export(network: &Path, dot: &Path, o: &Opts) -> Result<(), Box<dyn Error>> {
    let (_, circuit) = load_circuit(network, o)?;
    std::fs::write(dot, circuit.to_dot())
        .map_err(|e| format!("cannot write {}: {e}", dot.display()))?;
    println!("wrote {}", dot.display());
    Ok(())
}

/// The other single-network commands: run `command` on the compiled
/// `network`.
fn on_network(command: &str, network: &Path, o: &Opts) -> Result<(), Box<dyn Error>> {
    let (net, circuit) = load_circuit(network, o)?;
    match command {
        "info" => {
            println!("network: {net}");
            println!("circuit: {}", circuit.stats());
            match binarize(&circuit) {
                Ok(bin) => println!("binarized: {}", bin.stats()),
                Err(e) => eprintln!("error: {e}"),
            }
            Ok(())
        }
        "throughput" => throughput(
            &net,
            &circuit,
            o.query,
            o.query_var.as_deref(),
            o.batch.unwrap_or(1024),
            o.threads,
            o.kernel,
        ),
        _ => execute(&net, &circuit, network, o),
    }
}

/// Runs `f` repeatedly for at least ~0.3 s and returns its rate in units
/// of `per_call` outputs per second.
fn rate_of(mut f: impl FnMut(), per_call: usize) -> f64 {
    use std::time::Instant;
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < 0.3 {
        f();
        calls += 1;
    }
    calls as f64 * per_call as f64 / start.elapsed().as_secs_f64()
}

/// Measures bulk-inference throughput of the circuit — the scalar
/// tree-walk versus the batched execution engine — over `batch` evidence
/// instances cycling through the single-variable observations, for the
/// requested query kind (marginal sweeps, MPE decoding, or conditional
/// posteriors on `query_var`, defaulting to the network's first root).
/// `kernel` selects the engine's evaluator core (the scalar reference or
/// fused superinstructions — bit-identical).
#[allow(clippy::too_many_arguments)]
fn throughput(
    net: &BayesNet,
    circuit: &AcGraph,
    query: QueryType,
    query_var: Option<&str>,
    batch: usize,
    threads: usize,
    kernel: problp::engine::KernelKind,
) -> Result<(), Box<dyn Error>> {
    use problp::engine::Engine;

    let var_count = circuit.var_count();
    let pool = problp::bayes::single_variable_evidences(circuit.var_arities());
    let instances: Vec<Evidence> = (0..batch.max(1))
        .map(|i| pool[i % pool.len()].clone())
        .collect();
    let mut evidence_batch = problp::bayes::EvidenceBatch::new(var_count);
    for e in &instances {
        evidence_batch.push(e);
    }
    let n = instances.len();
    let cap_threads = |engine: Engine<F64Arith>| {
        let engine = engine.with_threads(threads).with_kernel(kernel);
        println!("tape: {}", engine.tape());
        if let Some(stats) = engine.fuse_stats() {
            println!("fusion: {stats}");
        }
        engine
    };
    println!("kernel: {kernel}");

    let (label, scalar, batched) = match query {
        QueryType::Marginal => {
            let engine = cap_threads(Engine::from_graph(
                circuit,
                Semiring::SumProduct,
                F64Arith::new(),
            )?);
            let scalar = rate_of(
                || {
                    for e in &instances {
                        std::hint::black_box(circuit.evaluate(e).expect("evaluates"));
                    }
                },
                n,
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(engine.evaluate_batch(&evidence_batch).expect("serves"));
                },
                n,
            );
            ("marginals", scalar, batched)
        }
        QueryType::Mpe => {
            let engine = cap_threads(Engine::from_graph_full(
                circuit,
                Semiring::MaxProduct,
                F64Arith::new(),
            )?);
            // The scalar decoder needs Σ arity evaluations per instance;
            // time it on a prefix so huge batches stay responsive.
            let prefix = &instances[..n.min(64)];
            let scalar = rate_of(
                || {
                    for e in prefix {
                        std::hint::black_box(circuit.mpe_assignment(e).expect("decodes"));
                    }
                },
                prefix.len(),
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(engine.mpe_batch(&evidence_batch).expect("decodes"));
                },
                n,
            );
            ("MPE decodes", scalar, batched)
        }
        QueryType::Conditional => {
            let qv = match query_var {
                Some(name) => net
                    .find(name)
                    .ok_or_else(|| format!("no variable named {name}"))?,
                None => net.roots().first().copied().unwrap_or(VarId::from_index(0)),
            };
            let states = net.variable(qv).arity();
            println!(
                "query variable: {} ({} states)",
                net.variable(qv).name(),
                states
            );
            let engine = cap_threads(Engine::from_graph(
                circuit,
                Semiring::SumProduct,
                F64Arith::new(),
            )?);
            let scalar = rate_of(
                || {
                    for e in &instances {
                        let den = circuit.evaluate(e).expect("evaluates");
                        for s in 0..states {
                            let mut with_q = e.clone();
                            with_q.observe(qv, s);
                            let num = circuit.evaluate(&with_q).expect("evaluates");
                            std::hint::black_box(num / den);
                        }
                    }
                },
                n,
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(
                        engine
                            .conditional_batch(&evidence_batch, qv)
                            .expect("serves"),
                    );
                },
                n,
            );
            ("conditional queries", scalar, batched)
        }
    };
    println!("scalar tree-walk: {scalar:>12.0} {label}/s");
    println!(
        "batched engine:   {batched:>12.0} {label}/s  ({:.1}x)",
        batched / scalar
    );
    Ok(())
}

/// Resolves a whole comma-separated `--models` list, rejecting duplicate
/// names up front (both `serve-sim`'s pool and the conformance report
/// are keyed by name, so a collision would silently merge two tenants).
fn load_models(spec: &str, seed: u64) -> Result<Vec<(String, BayesNet)>, String> {
    let mut models: Vec<(String, BayesNet)> = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (name, net) = load_model(entry.trim(), seed)?;
        if models.iter().any(|(n, _)| n == &name) {
            return Err(format!(
                "duplicate model name {name:?} in --models (built-in names and .bn file \
                 stems must be unique)"
            ));
        }
        models.push((name, net));
    }
    Ok(models)
}

/// Resolves one `--models` entry: a built-in network name or a `.bn`
/// file path.
fn load_model(spec: &str, seed: u64) -> Result<(String, BayesNet), String> {
    use problp::bayes::networks;
    let net = match spec {
        "figure1" => Some(networks::figure1()),
        "sprinkler" => Some(networks::sprinkler()),
        "asia" => Some(networks::asia()),
        "student" => Some(networks::student()),
        "earthquake" => Some(networks::earthquake()),
        "cancer" => Some(networks::cancer()),
        "alarm" => Some(networks::alarm(seed)),
        _ => None,
    };
    if let Some(net) = net {
        return Ok((spec.to_string(), net));
    }
    let path = PathBuf::from(spec);
    let net = load_network(&path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| spec.to_string());
    Ok((name, net))
}

/// Renders the p50/p90/p99/max line of an ascending-sorted latency
/// sample (`-` for an empty sample).
fn latency_line(sorted_us: &[u128]) -> String {
    let q = |p: f64| {
        problp::bench::percentile_us(sorted_us, p)
            .map_or_else(|| "-".to_string(), |us| us.to_string())
    };
    format!(
        "p50 {}us  p90 {}us  p99 {}us  max {}us",
        q(50.0),
        q(90.0),
        q(99.0),
        sorted_us.last().copied().unwrap_or(0)
    )
}

/// Starts the `/metrics` + `/healthz` sidecar on `--metrics-addr`, if
/// given, over the server's registry; port 0 picks a free port, printed
/// for external scrapers (and the CI smoke tests).
fn start_sidecar(
    o: &Opts,
    registry: &Arc<MetricsRegistry>,
    health: problp::telemetry::HealthFn,
) -> Result<Option<Sidecar>, String> {
    let Some(addr) = &o.metrics_addr else {
        return Ok(None);
    };
    let s = Sidecar::start(addr, Arc::clone(registry), health)
        .map_err(|e| format!("cannot bind metrics sidecar on {addr}: {e}"))?;
    println!("  metrics sidecar: http://{}/metrics", s.local_addr());
    Ok(Some(s))
}

/// Replays a mixed-tenant trace through the sharded serving layer
/// (`problp::engine::serve`) under the configured QoS policy, checks
/// every admitted answer bit-identical to per-request evaluation, and
/// reports per-class latency percentiles, quota rejects and the
/// batched-vs-scalar speedup. The trace, burst and check are the
/// scenario runner's; this command adds the sidecar self-scrapes, the
/// mid-trace reload, the cache replay and the server-stats cross-checks.
fn serve_sim(o: &Opts) -> Result<(), Box<dyn Error>> {
    use problp::telemetry::{http_get, metric_names};

    let tenants = scenario::tenants(load_models(o.models.as_deref().unwrap_or(""), o.seed)?)?;
    if tenants.len() < 2 {
        return Err("serve-sim needs at least two models (--models a,b)".into());
    }
    let trace = scenario::trace(
        &tenants,
        o.requests,
        o.seed,
        Mix::Uniform {
            batch_share: o.batch_share,
        },
    );

    println!(
        "serve-sim: {} models, {} requests (seed {})",
        tenants.len(),
        trace.len(),
        o.seed
    );
    for t in &tenants {
        let share = trace.iter().filter(|r| r.model == t.name).count();
        println!(
            "  model {}: {} variables, {share} requests",
            t.name,
            t.net.var_count()
        );
    }
    let on_off = |on: bool| if on { "on" } else { "off" };
    println!(
        "  policy: max_batch {}, max_wait {}us, workers {}, engine threads 1",
        o.max_batch, o.max_wait_us, o.workers
    );
    println!(
        "  qos: tenant_quota {} ({}), batch share {}%, aging {}us, adaptive wait {}",
        o.tenant_quota,
        on_off(o.tenant_quota > 0),
        o.batch_share,
        o.aging_us,
        on_off(o.adaptive_wait)
    );
    println!(
        "  cache: capacity {} ({}), mid-trace reload {}",
        o.cache_capacity,
        on_off(o.cache_capacity > 0),
        on_off(o.reload_mid_trace)
    );

    // Scalar replay: every request answered alone by the tree-walk (the
    // paper's software baseline) — the bit-identity reference, timed per
    // request so the speedup compares like with like under a quota.
    let scalar = scenario::scalar_replay(&tenants, &trace)?;

    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::start_instrumented(
        scenario::register(&tenants)?,
        ServeConfig {
            max_batch: o.max_batch.max(1),
            max_wait: Duration::from_micros(o.max_wait_us),
            workers: o.workers.max(1),
            tenant_quota: o.tenant_quota,
            priority_aging: Duration::from_micros(o.aging_us),
            adaptive_wait: o.adaptive_wait,
            cache_capacity: o.cache_capacity,
        },
        Arc::clone(&registry),
    );
    let sidecar = start_sidecar(o, &registry, server.health_fn())?;
    // With --reload-mid-trace, the first model is hot-swapped while the
    // first half of the trace is still in flight: admissions after this
    // point run on tape version 2 (recompiled from the same graph, so
    // every bit-identity check below still holds), in-flight work stays
    // pinned to version 1, and nothing is drained for the cut-over.
    let reload_at = o.reload_mid_trace.then_some(trace.len() / 2);
    let in_flight = scenario::submit(&server, &trace, |i| {
        if Some(i) == reload_at {
            let t = &tenants[0];
            let version = server.reload(&t.name, &t.circuit)?;
            println!(
                "  mid-trace reload: model {} cut over to version {version}",
                t.name
            );
        }
        Ok(())
    })?;
    // Self-check while the trace is in flight: the sidecar must report
    // healthy (workers alive, not shut down) mid-run.
    if let Some(s) = &sidecar {
        let (status, body) = http_get(&s.local_addr(), "/healthz")
            .map_err(|e| format!("mid-trace /healthz scrape failed: {e}"))?;
        if status != 200 {
            return Err(format!("mid-trace /healthz returned {status}: {}", body.trim()).into());
        }
        println!("  mid-trace /healthz: {status} ok");
    }
    let burst = in_flight.drain();
    let mismatched = scenario::mismatches(&tenants, server.pool(), &trace, &burst, &scalar);
    for &i in mismatched.iter().take(3) {
        eprintln!("mismatch at request {i}: {:?}", trace[i]);
    }
    let quota_rejects = burst.rejects();
    let admitted = burst.admitted();

    // The server's own counters must agree with the runner's books: the
    // stats snapshot is the authoritative record (the sidecar and tests
    // read the same atomics), the local counts are the check. With the
    // cache on, every well-formed submission either hit or missed (hits
    // bypass the quota; quota rejects still count a miss first), so the
    // two cache counters partition the trace.
    let stats = server.stats();
    let lookups = if o.cache_capacity > 0 { trace.len() } else { 0 };
    for (what, counted, booked) in [
        ("requests", stats.requests, trace.len()),
        ("quota rejects", stats.rejected_quota, quota_rejects),
        (
            "cache lookups",
            stats.cache_hits + stats.cache_misses,
            lookups,
        ),
    ] {
        if counted != booked as u64 {
            return Err(format!("server counted {counted} {what}, the run booked {booked}").into());
        }
    }

    println!(
        "\n  verification: {}/{admitted} admitted answers bit-identical to per-request evaluation",
        admitted - mismatched.len()
    );
    if o.tenant_quota > 0 {
        println!(
            "  quota rejects: {quota_rejects}/{} (tenant_quota {})",
            trace.len(),
            o.tenant_quota
        );
    }
    println!(
        "  server stats: {} admitted, {} dispatches, queue-depth high water {}, {} workers live",
        stats.admitted, stats.dispatches, stats.queue_depth_high_water, stats.live_workers
    );
    // Overall sojourn percentiles, then per priority class when the
    // trace actually mixes classes.
    let all = burst.sorted_us(&trace, |_| true);
    println!("  latency (sojourn): {}", latency_line(&all));
    for class in [Priority::Interactive, Priority::Batch] {
        let lane = burst.sorted_us(&trace, |r| r.priority == class);
        if lane.is_empty() || lane.len() == all.len() {
            continue; // single-class trace: the overall line covers it
        }
        println!(
            "  latency ({class}): {}  ({} requests)",
            latency_line(&lane),
            lane.len()
        );
    }
    let scalar_total: Duration = scalar.iter().map(|(_, d)| *d).sum();
    println!(
        "  scalar replay:   {:>9.2} ms total  ({:>10.0} req/s)",
        scalar_total.as_secs_f64() * 1e3,
        trace.len() as f64 / scalar_total.as_secs_f64()
    );
    println!(
        "  pooled serving:  {:>9.2} ms total  ({:>10.0} req/s over {admitted} admitted)",
        burst.secs * 1e3,
        burst.throughput_rps()
    );
    // Like for like: the scalar side of the speedup only counts the
    // requests the pooled side actually served (quota rejects are work
    // the scalar baseline would also not have done).
    let scalar_admitted: Duration = burst
        .outcomes
        .iter()
        .zip(&scalar)
        .filter(|(outcome, _)| outcome.is_some())
        .map(|(_, (_, d))| *d)
        .sum();
    println!(
        "  speedup: {:.2}x{}",
        scalar_admitted.as_secs_f64() / burst.secs,
        if quota_rejects > 0 {
            " (over the admitted requests)"
        } else {
            ""
        }
    );
    if !mismatched.is_empty() {
        return Err(format!(
            "{} served answers diverged from scalar replay",
            mismatched.len()
        )
        .into());
    }
    if quota_rejects > 0 && o.tenant_quota == 0 {
        return Err("quota rejects without a configured quota".into());
    }

    // Cache replay: resubmit the last 32 served requests. Every replay
    // must come back bit-identical to the first pass, and with a cache
    // big enough that nothing was evicted, every one must be a hit.
    // After a mid-trace reload only post-reload requests replay — the
    // swap invalidated the old version's entries by design.
    let mut replay_submissions = 0usize;
    if o.cache_capacity > 0 {
        let before = server.stats();
        let served: Vec<usize> = (0..trace.len())
            .filter(|&i| burst.outcomes[i].is_some() && reload_at.is_none_or(|at| i >= at))
            .collect();
        let replay = &served[served.len().saturating_sub(32)..];
        let again: Vec<ServeRequest> = replay.iter().map(|&i| trace[i].clone()).collect();
        replay_submissions = again.len();
        // A miss (small cache) can still bounce off the quota; that is
        // the quota doing its job, not a cache bug.
        let replayed = scenario::run(&server, &again)?;
        for (&i, outcome) in replay.iter().zip(&replayed.outcomes) {
            if let (Some((first, _)), Some((reply, _))) = (&burst.outcomes[i], outcome) {
                if !problp::engine::lane_answer_eq(first, reply) {
                    return Err(format!("cache replay diverged at request {i}").into());
                }
            }
        }
        let after = server.stats();
        let hits = after.cache_hits - before.cache_hits;
        println!(
            "  cache replay: {} resubmissions, {hits} hits \
             ({} hits / {} misses / {} evictions overall)",
            replayed.admitted(),
            after.cache_hits,
            after.cache_misses,
            after.cache_evictions
        );
        if o.cache_capacity >= admitted && hits != replayed.admitted() as u64 {
            return Err(format!(
                "expected all {} replays to hit an unevicted cache, got {hits}",
                replayed.admitted()
            )
            .into());
        }
    }
    let stats = server.stats();
    let versions: Vec<String> = stats
        .model_versions
        .iter()
        .map(|(m, v)| format!("{m}=v{v}"))
        .collect();
    println!("  model versions: {}", versions.join("  "));
    if o.reload_mid_trace {
        let name0 = &tenants[0].name;
        let v0 = stats
            .model_versions
            .iter()
            .find(|(m, _)| m == name0)
            .map(|(_, v)| *v);
        if v0 != Some(2) {
            return Err(format!(
                "model {name0} should be at version 2 after the reload, stats say {v0:?}"
            )
            .into());
        }
    }

    // Final self-scrape: the Prometheus rendering must carry the series
    // the run produced — the request counter at the trace size, the
    // queue-depth gauge and the typed reject counters.
    if let Some(s) = &sidecar {
        let (status, body) = http_get(&s.local_addr(), "/metrics")
            .map_err(|e| format!("/metrics scrape failed: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics returned {status}").into());
        }
        let want_counter = format!(
            "{} {}",
            metric_names::SERVE_REQUESTS_TOTAL,
            trace.len() + replay_submissions
        );
        let want_hits = format!(
            "{} {}",
            metric_names::SERVE_CACHE_HITS_TOTAL,
            stats.cache_hits
        );
        for needle in [
            want_counter.as_str(),
            want_hits.as_str(),
            metric_names::SERVE_CACHE_MISSES_TOTAL,
            metric_names::POOL_MODEL_VERSION,
            metric_names::SERVE_QUEUE_DEPTH,
            metric_names::SERVE_REJECTED_TOTAL,
            metric_names::SERVE_SOJOURN_US,
        ] {
            if !body.contains(needle) {
                return Err(format!("/metrics scrape is missing {needle:?}").into());
            }
        }
        println!(
            "  /metrics self-check: {} bytes, all expected series present",
            body.len()
        );
    }

    if let Some(path) = &o.bench_json {
        write_bench(
            path,
            "serve_sim",
            trace.len(),
            quota_rejects,
            &burst,
            vec![
                ("models", tenants.len().into()),
                ("workers", o.workers.max(1).into()),
                ("identical", (admitted - mismatched.len()).into()),
                ("scalar_secs", scalar_total.as_secs_f64().into()),
                ("served_secs", burst.secs.into()),
            ],
        )?;
    }

    // Keep the sidecar (and the healthy server behind it) up for
    // external scrapers before tearing down.
    std::thread::sleep(Duration::from_millis(o.linger_ms));
    server.shutdown();
    drop(sidecar);
    Ok(())
}

/// Writes a serving command's `problp-bench/v1` record through the
/// scenario runner's validate-then-write path, with throughput and
/// latency from `burst`.
fn write_bench(
    path: &Path,
    scenario_name: &str,
    requests: usize,
    rejects: usize,
    burst: &scenario::Burst,
    extra: Vec<(&str, problp::telemetry::JsonValue)>,
) -> Result<(), String> {
    let record = problp::bench::BenchRecord {
        scenario: scenario_name.to_string(),
        requests: requests as u64,
        throughput_rps: burst.throughput_rps(),
        latency: Some(burst.latency()),
        rejects: rejects as u64,
        extra: extra.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    };
    scenario::write_record(&record, path)?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// Renders a [`ServeRequest`] as the gateway's POST body. The model
/// never appears — it is carried by the bearer token.
fn gateway_body(req: &ServeRequest) -> String {
    let lanes: Vec<String> = (0..req.evidence.len())
        .map(|i| match req.evidence.state(VarId::from_index(i)) {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let priority = match req.priority {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    };
    let query = match req.query {
        BatchQuery::Marginal => r#""query": "marginal""#.to_string(),
        BatchQuery::Mpe => r#""query": "mpe""#.to_string(),
        BatchQuery::Conditional { query_var } => format!(
            r#""query": "conditional", "query_var": {}"#,
            query_var.index()
        ),
    };
    format!(
        r#"{{{query}, "evidence": [{}], "priority": "{priority}"}}"#,
        lanes.join(", ")
    )
}

/// The serving answer a gateway reply to `req` encodes: a 200 body
/// parsed back into a [`ServeResponse`] (flags are batch-scope and left
/// empty), a 422 `impossible_evidence` as that typed error; `None` for
/// anything else.
fn http_answer(req: &ServeRequest, code: u16, text: &str) -> Option<LaneResult<f64>> {
    use problp::telemetry::JsonValue;
    if code == 422 && text.contains("\"impossible_evidence\"") {
        return Some(Err(ServeError::ImpossibleEvidence));
    }
    if code != 200 {
        return None;
    }
    let doc = JsonValue::parse(text).ok()?;
    let number = |name: &str| doc.get(name).and_then(JsonValue::as_f64);
    let numbers = |name: &str| -> Option<Vec<f64>> {
        doc.get(name)?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect()
    };
    let flags = problp::num::Flags::default();
    Some(Ok(match req.query {
        BatchQuery::Marginal => ServeResponse::Marginal {
            value: number("value")?,
            flags,
        },
        BatchQuery::Mpe => ServeResponse::Mpe {
            assignment: numbers("assignment")?
                .into_iter()
                .map(|s| s as usize)
                .collect(),
            value: number("value")?,
            flags,
        },
        BatchQuery::Conditional { .. } => ServeResponse::Conditional {
            posteriors: numbers("posteriors")?,
            prediction: number("prediction")? as usize,
            flags,
        },
    }))
}

/// Hosts the multi-model pool behind the HTTP query gateway
/// (`problp::gateway`). Without `--self-drive` it serves until killed
/// (or for `--linger-ms`); with it, a seeded mixed-query trace from the
/// scenario runner is replayed through real sockets, every answer
/// checked bit-identical to per-request evaluation (`serve_one` and the
/// tree-walk), the typed error → status mapping probed
/// (401/404/405/400/413/429), and the `problp_gateway_*` series
/// cross-checked against the client's own status counts.
fn serve_http(o: &Opts) -> Result<(), Box<dyn Error>> {
    use problp::telemetry::{http_post, http_request, metric_names};

    let tenants = scenario::tenants(load_models(o.models.as_deref().unwrap_or(""), o.seed)?)?;
    if tenants.is_empty() {
        return Err("serve-http needs at least one model (--models a,b)".into());
    }

    // The auth table: explicit TOK=MODEL pairs, or one minted
    // `token-<model>` per hosted model.
    let tokens: Vec<(String, String)> = match &o.tokens {
        Some(spec) => {
            let mut table = Vec::new();
            for entry in spec.split(',').filter(|s| !s.is_empty()) {
                let Some((tok, model)) = entry.trim().split_once('=') else {
                    return Err(format!("--tokens entry {entry:?} is not TOK=MODEL").into());
                };
                if !tenants.iter().any(|t| t.name == model) {
                    return Err(format!("--tokens names unhosted model {model:?}").into());
                }
                table.push((tok.to_string(), model.to_string()));
            }
            table
        }
        None => tenants
            .iter()
            .map(|t| (format!("token-{}", t.name), t.name.clone()))
            .collect(),
    };

    let registry = Arc::new(MetricsRegistry::new());
    let server = Arc::new(Server::start_instrumented(
        scenario::register(&tenants)?,
        ServeConfig {
            max_batch: o.max_batch.max(1),
            max_wait: Duration::from_micros(o.max_wait_us),
            workers: o.workers.max(1),
            tenant_quota: o.tenant_quota,
            cache_capacity: o.cache_capacity,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            addr: o.addr.clone(),
            tokens: tokens.clone(),
            http_workers: o.http_workers.max(1),
        },
    )
    .map_err(|e| format!("cannot bind gateway on {}: {e}", o.addr))?;
    let addr = gateway.local_addr();
    println!(
        "serve-http: {} models behind POST http://{addr}/v1/query",
        tenants.len()
    );
    for (tok, model) in &tokens {
        println!("  token {tok} -> model {model}");
    }
    let sidecar = start_sidecar(o, &registry, server.health_fn())?;

    let Some(drive) = o.self_drive else {
        // Plain serving mode: stay up until killed, or for a bounded
        // window when --linger-ms is given.
        if o.linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(o.linger_ms));
            gateway.shutdown();
            drop(server); // the Arc's last drop joins the serve workers
            drop(sidecar);
            return Ok(());
        }
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    };

    // --- Self-drive: a seeded mixed trace over real sockets. ---
    let trace = scenario::trace(&tenants, drive, o.seed, Mix::Uniform { batch_share: 25 });
    println!("  self-drive: {} requests (seed {})", trace.len(), o.seed);

    let token_for = |model: &str| -> Result<&str, String> {
        tokens
            .iter()
            .find(|(_, m)| m == model)
            .map(|(t, _)| t.as_str())
            .ok_or_else(|| format!("no token grants model {model:?}"))
    };
    let bearer = |tok: &str| [("Authorization", format!("Bearer {tok}"))];
    // The client's own status ledger: the run's last self-check holds
    // the gateway's counters to exactly these numbers.
    let mut statuses: std::collections::BTreeMap<u16, u64> = Default::default();
    let mut count = |code: u16| *statuses.entry(code).or_default() += 1;
    // One request at a time: the round trip is the latency. A 429 is
    // the quota's reject when a quota is set; without one it fails the
    // run like any other unexpected status.
    let mut burst = scenario::Burst::default();
    let drive_start = Instant::now();
    for (i, req) in trace.iter().enumerate() {
        let sent = Instant::now();
        let (code, _headers, text) = http_post(
            &addr,
            "/v1/query",
            &bearer(token_for(&req.model)?),
            &gateway_body(req),
        )
        .map_err(|e| format!("request {i} failed: {e}"))?;
        let waited = sent.elapsed();
        count(code);
        burst.outcomes.push(if code == 429 && o.tenant_quota > 0 {
            None
        } else {
            let answer = http_answer(req, code, &text)
                .ok_or_else(|| format!("request {i}: unexpected HTTP {code}: {}", text.trim()))?;
            Some((answer, waited))
        });
    }
    burst.secs = drive_start.elapsed().as_secs_f64();
    let scalar = scenario::scalar_replay(&tenants, &trace)?;
    let mismatched = scenario::mismatches(&tenants, server.pool(), &trace, &burst, &scalar);
    for &i in mismatched.iter().take(3) {
        eprintln!(
            "mismatch at request {i}: {:?} answered {:?}",
            trace[i], burst.outcomes[i]
        );
    }
    let impossible = burst
        .outcomes
        .iter()
        .flatten()
        .filter(|(answer, _)| matches!(answer, Err(ServeError::ImpossibleEvidence)))
        .count();
    let identical = burst.admitted() - mismatched.len();
    println!(
        "  verification: {identical}/{} socket answers bit-identical to serve_one \
         ({impossible} typed impossible-evidence)",
        trace.len()
    );

    // Typed-error probes: each must surface as its mapped status with
    // the stable error slug in a JSON body.
    let reference = &tenants[0];
    let ref_token = token_for(&reference.name)?;
    let good = gateway_body(&ServeRequest {
        model: reference.name.clone(),
        evidence: Evidence::empty(reference.circuit.var_arities().len()),
        query: BatchQuery::Marginal,
        priority: Priority::Interactive,
    });
    let good = good.as_str();
    let bad_shape = r#"{"query": "marginal", "evidence": [null]}"#;
    // The first variable observed one past its last state.
    let mut bad_state = Evidence::empty(reference.circuit.var_arities().len());
    bad_state.observe(VarId::from_index(0), reference.circuit.var_arities()[0]);
    let bad_state = gateway_body(&ServeRequest {
        model: reference.name.clone(),
        evidence: bad_state,
        query: BatchQuery::Mpe,
        priority: Priority::Interactive,
    });
    let oversized = format!(
        r#"{{"query": "marginal", "evidence": [{}null]}}"#,
        "null, ".repeat(20_000)
    );
    // One row per probe: what, method, path, bearer token ("" for
    // none), body, then the status and error slug it must produce.
    #[rustfmt::skip]
    let probes = [
        ("missing auth", "POST", "/v1/query", "", good, 401, "unauthorized"),
        ("unknown token", "POST", "/v1/query", "definitely-wrong", good, 401, "unauthorized"),
        ("unknown path", "POST", "/v2/query", ref_token, good, 404, "not_found"),
        ("bad method", "GET", "/v1/query", ref_token, "", 405, "method_not_allowed"),
        ("bad json", "POST", "/v1/query", ref_token, "{nope", 400, "bad_json"),
        ("bad shape", "POST", "/v1/query", ref_token, bad_shape, 400, "bad_shape"),
        ("bad state", "POST", "/v1/query", ref_token, &bad_state, 400, "bad_shape"),
        ("oversized body", "POST", "/v1/query", ref_token, &oversized, 413, "body_too_large"),
    ];
    let mut parse_rejects = 0u64;
    for (what, method, path, token, body, want_code, want_slug) in probes {
        let auth = if token.is_empty() {
            Vec::new()
        } else {
            bearer(token).to_vec()
        };
        let (code, _headers, text) = http_request(&addr, method, path, &auth, body.as_bytes())?;
        count(code);
        if code == 413 {
            parse_rejects += 1; // rejected before the body counters
        }
        if code != want_code || !text.contains(&format!("\"{want_slug}\"")) {
            return Err(format!(
                "{what} probe: expected {want_code} {want_slug}, got {code}: {}",
                text.trim()
            )
            .into());
        }
        println!("  probe {what}: {code} {want_slug}");
    }

    // Deterministic quota probe on a dedicated single-worker instance:
    // a long coalescing window holds two requests in flight, so the
    // third must bounce off tenant_quota=2 as a 429 with Retry-After.
    {
        // The coalescing wait must outlast the 600ms fill window below
        // (so both fillers are still occupying the quota when the probe
        // lands) but stay well under the HTTP client's 2s read timeout,
        // or the fillers time out waiting for their own answers.
        let qserver = Arc::new(Server::start(
            scenario::register(std::slice::from_ref(reference))?,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_millis(1200),
                workers: 1,
                tenant_quota: 2,
                ..ServeConfig::default()
            },
        ));
        let mut qgateway = Gateway::start(
            Arc::clone(&qserver),
            GatewayConfig {
                tokens: vec![("quota-probe".to_string(), reference.name.clone())],
                ..GatewayConfig::default()
            },
        )?;
        let qaddr = qgateway.local_addr();
        let quota_bearer = [("Authorization", "Bearer quota-probe".to_string())];
        let fillers: Vec<_> = (0..2)
            .map(|_| {
                let (body, auth) = (good.to_string(), quota_bearer.clone());
                std::thread::spawn(move || http_post(&qaddr, "/v1/query", &auth, &body))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(600));
        let (code, headers, text) = http_post(&qaddr, "/v1/query", &quota_bearer, good)?;
        if code != 429 || !text.contains("\"quota_exceeded\"") {
            return Err(format!("quota probe: expected 429, got {code}: {}", text.trim()).into());
        }
        let retry_after = headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.clone())
            .ok_or("quota probe: 429 without a Retry-After header")?;
        for filler in fillers {
            let (code, _h, text) = filler
                .join()
                .map_err(|_| "quota filler thread panicked")?
                .map_err(|e| format!("quota filler failed: {e}"))?;
            if code != 200 {
                return Err(format!("quota filler got {code}: {}", text.trim()).into());
            }
        }
        let scrape = qserver.metrics().render_prometheus();
        let needle = format!(
            "{}{{status=\"429\"}} 1",
            metric_names::GATEWAY_REQUESTS_TOTAL
        );
        if !scrape.contains(&needle) {
            return Err(format!("quota instance scrape is missing {needle:?}").into());
        }
        println!("  probe quota: 429 quota_exceeded (Retry-After {retry_after})");
        qgateway.shutdown();
        drop(qserver); // last Arc: Drop joins the quota instance
    }

    // Metrics self-check: the gateway's own counters must agree with
    // the client-side status ledger, and every request that got past
    // HTTP parsing must appear in the body/latency histograms.
    let scrape = registry.render_prometheus();
    for (code, n) in &statuses {
        let needle = format!(
            "{}{{status=\"{code}\"}} {n}",
            metric_names::GATEWAY_REQUESTS_TOTAL
        );
        if !scrape.contains(&needle) {
            return Err(format!("gateway scrape is missing {needle:?}").into());
        }
    }
    let total: u64 = statuses.values().sum();
    let parsed = total - parse_rejects;
    for histogram in [
        metric_names::GATEWAY_BODY_BYTES,
        metric_names::GATEWAY_HANDLER_US,
    ] {
        let needle = format!("{histogram}_count {parsed}");
        if !scrape.contains(&needle) {
            return Err(format!("gateway scrape is missing {needle:?}").into());
        }
    }
    println!(
        "  metrics self-check: {total} requests across {} statuses",
        statuses.len()
    );

    println!(
        "  latency (round-trip): {}",
        latency_line(&burst.sorted_us(&trace, |_| true))
    );
    println!(
        "  trace: {:>9.2} ms total  ({:>10.0} req/s over sockets)",
        burst.secs * 1e3,
        burst.throughput_rps()
    );
    if !mismatched.is_empty() {
        return Err(format!(
            "{} socket answers diverged from per-request evaluation",
            mismatched.len()
        )
        .into());
    }

    if let Some(path) = &o.bench_json {
        let statuses_json = problp::telemetry::JsonValue::Object(
            statuses
                .iter()
                .map(|(c, n)| (c.to_string(), (*n).into()))
                .collect(),
        );
        // The gateway record's rejects are every non-200 status the
        // client saw, probes included.
        let rejects = total - statuses.get(&200).copied().unwrap_or(0);
        write_bench(
            path,
            "gateway",
            trace.len(),
            rejects as usize,
            &burst,
            vec![
                ("models", tenants.len().into()),
                ("http_workers", o.http_workers.max(1).into()),
                ("identical", identical.into()),
                ("statuses", statuses_json),
            ],
        )?;
    }

    std::thread::sleep(Duration::from_millis(o.linger_ms));
    gateway.shutdown();
    drop(server); // the Arc's last drop joins the serve workers
    drop(sidecar);
    Ok(())
}

/// Runs the differential conformance cross-check of
/// `problp::conformance` and fails (non-zero exit) on any backend
/// diverging from the scalar reference.
fn conformance(o: &Opts) -> Result<(), Box<dyn Error>> {
    use problp::conformance::{
        random_models, run_conformance, ArithSpec, BackendKind, ConformanceConfig,
    };

    let mut models: Vec<(String, BayesNet)> = match &o.models {
        Some(spec) => load_models(spec, o.seed)?,
        None => Vec::new(),
    };
    let random = o.random.unwrap_or(if models.is_empty() { 2 } else { 0 });
    if models.is_empty() && random == 0 {
        return Err("conformance needs at least one model (--models or --random)".into());
    }
    if models.is_empty() {
        models.push((
            "sprinkler".to_string(),
            problp::bayes::networks::sprinkler(),
        ));
        models.push(("asia".to_string(), problp::bayes::networks::asia()));
    }
    models.extend(random_models(o.seed, random));

    let mut config = ConformanceConfig {
        batch: o.batch.unwrap_or(256).max(1),
        seed: o.seed,
        ..ConformanceConfig::default()
    };
    if let Some(spec) = &o.repr {
        let mut ariths = Vec::new();
        for entry in spec.split(',').filter(|s| !s.is_empty()) {
            let Some(a) = ArithSpec::parse(entry.trim()) else {
                return Err(format!(
                    "bad --repr entry {entry:?} (expected f64, fixed:I.F or float:E.M)"
                )
                .into());
            };
            ariths.push(a);
        }
        if ariths.is_empty() {
            return Err("--repr lists no arithmetics".into());
        }
        config.ariths = ariths;
    }
    if let Some(backend) = &o.inject_fault {
        let Some(b) = BackendKind::parse(backend) else {
            let names: Vec<&str> = BackendKind::ALL.iter().map(|b| b.name()).collect();
            return Err(format!(
                "bad --inject-fault backend {backend:?} (expected one of {})",
                names.join(", ")
            )
            .into());
        };
        config.inject_fault = Some(b);
        eprintln!("injecting a fault into the {b} stream (harness self-test)");
    }

    let report = run_conformance(&models, &config)?;
    print!("{report}");
    if report.all_match() {
        Ok(())
    } else {
        Err(format!(
            "{} result lanes diverged from the scalar reference",
            report.total_mismatches()
        )
        .into())
    }
}

/// Applies one named corruption class to a compiled tape through the
/// test-only mutation hook, so the CLI can demonstrate (and CI can
/// grep for) the verifier's typed rejections.
fn apply_corruption(tape: &mut problp::engine::Tape, class: &str) -> Result<(), String> {
    use problp::engine::Instr;
    let num_regs = tape.num_regs() as u32;
    let param = tape.param_regs().first().copied();
    let instrs = tape.raw_instrs_mut();
    match class {
        // An operand register past the register file: RegisterOutOfBounds.
        "oob-reg" => {
            let bin = instrs
                .iter_mut()
                .find_map(|i| match i {
                    Instr::Add { rhs, .. }
                    | Instr::Mul { rhs, .. }
                    | Instr::Max { rhs, .. }
                    | Instr::MinNz { rhs, .. } => Some(rhs),
                    Instr::LoadIndicator { .. } => None,
                })
                .ok_or("tape has no binary instruction to corrupt")?;
            *bin = num_regs + 7;
        }
        // An indicator slot past the evidence table: SlotOutOfBounds.
        "slot-oob" => {
            let slot = instrs
                .iter_mut()
                .find_map(|i| match i {
                    Instr::LoadIndicator { slot, .. } => Some(slot),
                    _ => None,
                })
                .ok_or("tape has no indicator load to corrupt")?;
            *slot = u32::MAX / 2;
        }
        // A write into the immutable parameter table: ParamRegisterWrite.
        "param-write" => {
            let reg = param.ok_or("tape has no parameter registers")?;
            let dst = instrs
                .first_mut()
                .map(|i| match i {
                    Instr::LoadIndicator { dst, .. }
                    | Instr::Add { dst, .. }
                    | Instr::Mul { dst, .. }
                    | Instr::Max { dst, .. }
                    | Instr::MinNz { dst, .. } => dst,
                })
                .ok_or("tape is empty")?;
            *dst = reg;
        }
        // No instruction ever defines the root: RootUndefined.
        "truncate" => instrs.clear(),
        other => {
            return Err(format!(
                "unknown --corrupt class {other:?} (expected oob-reg, slot-oob, \
                 param-write or truncate)"
            ));
        }
    }
    Ok(())
}

/// Runs the static-analysis subsystem (`problp::verify`) over each
/// model's tape: Layer-1 structural verification of the compact and
/// fused streams, Layer-2 range analysis per arithmetic, and the
/// minimal-safe-fixed-format search. Returns `Ok(false)` (and prints
/// `verdict: FAIL`) if any tape is rejected.
fn verify_tapes(o: &Opts) -> Result<bool, Box<dyn Error>> {
    use problp::engine::Tape;
    use problp::telemetry::{metric_names, MetricsRegistry};
    use problp::verify::{analyze, minimal_fixed_format, ArithSpec, VerifyMetrics};

    let models = load_models(o.models.as_deref().unwrap_or("sprinkler,asia"), o.seed)?;
    if models.is_empty() {
        return Err("verify needs at least one model (--models)".into());
    }
    let spec = o.repr.as_deref().unwrap_or("f64,fixed:2.14,float:8.23");
    let mut ariths: Vec<ArithSpec> = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let Some(a) = ArithSpec::parse(entry.trim()) else {
            return Err(format!(
                "bad --repr entry {entry:?} (expected f64, fixed:I.F or float:E.M)"
            )
            .into());
        };
        ariths.push(a);
    }
    if ariths.is_empty() {
        return Err("--repr lists no arithmetics".into());
    }

    let registry = MetricsRegistry::new();
    let metrics = VerifyMetrics::new(&registry);
    if let Some(class) = &o.corrupt {
        eprintln!("corrupting every tape with class {class} (verifier self-test)");
    }

    let arith_width = 16usize;
    let mut header = format!("{:<12} {:>7}  ", "model", "instrs");
    for a in &ariths {
        header.push_str(&format!("{:<arith_width$}", a.to_string()));
    }
    header.push_str("minimal fixed");
    println!("{header}");
    println!("{}", "-".repeat(header.len().max(60)));

    let mut clean = true;
    for (name, net) in &models {
        let ac = compile(net)?;
        let mut tape = Tape::compile(&ac, Semiring::SumProduct)?;
        if let Some(class) = &o.corrupt {
            apply_corruption(&mut tape, class)?;
        }

        // Layer 1 first; a corrupted tape must not reach fusion or the
        // range analysis (both assume structural well-formedness).
        if let Err(e) = tape.verify() {
            metrics.observe_reject();
            println!("{name:<12} {:>7}  REJECTED ({e})", tape.instrs().len());
            clean = false;
            continue;
        }
        tape.verify_fused(&tape.fuse())?;
        metrics.observe_pass();

        let mut row = format!("{name:<12} {:>7}  ", tape.instrs().len());
        for &arith in &ariths {
            let report = analyze(&tape, arith)?;
            metrics.observe_report(&report);
            let cell = if report.all_safe() {
                "safe".to_string()
            } else {
                format!("sat:{} unf:{}", report.may_saturate, report.may_underflow)
            };
            row.push_str(&format!("{cell:<arith_width$}"));
        }
        let rec = minimal_fixed_format(&tape)?;
        row.push_str(&format!(
            "fixed:{}.{}{}",
            rec.format.int_bits(),
            rec.format.frac_bits(),
            // The width search is capped; `*` marks a recommendation
            // that still may saturate or underflow at the cap.
            if rec.saturation_free && rec.underflow_free {
                ""
            } else {
                "*"
            }
        ));
        println!("{row}");
    }

    let counter = |name: &str| registry.counter(name, "").get();
    println!(
        "\ncounters: runs={} rejects={} safe={} may-saturate={} may-underflow={}",
        counter(metric_names::VERIFY_RUNS_TOTAL),
        counter(metric_names::VERIFY_REJECTS_TOTAL),
        counter(metric_names::VERIFY_INSTRS_SAFE_TOTAL),
        counter(metric_names::VERIFY_INSTRS_MAY_SATURATE_TOTAL),
        counter(metric_names::VERIFY_INSTRS_MAY_UNDERFLOW_TOTAL),
    );
    if clean {
        println!("verdict: PASS — every tape verified");
    } else {
        println!("verdict: FAIL — the verifier rejected at least one tape");
    }
    Ok(clean)
}

/// The files `lint-src` scans: the whole serving module tree plus the
/// whole telemetry crate — the code that runs inside long-lived
/// servers, where a stray panic takes the process down.
const LINT_SCOPE_DIRS: [&str; 2] = ["crates/engine/src/serve", "crates/telemetry/src"];

/// Enforces the serving-path panic policy: no `.unwrap()` / `.expect(`
/// outside test code in the lint scope. Allowlist entries are
/// `file-suffix: line-substring` lines in `allow_path`; `#` comments
/// and blank lines are skipped. Returns `Ok(false)` on violations.
fn lint_src(allow_path: &std::path::Path) -> Result<bool, Box<dyn Error>> {
    let mut files = Vec::new();
    for scope in LINT_SCOPE_DIRS {
        let dir = std::fs::read_dir(scope)
            .map_err(|e| format!("cannot read {scope} (run from the repository root): {e}"))?;
        for entry in dir {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();

    let allow: Vec<(String, String)> = match std::fs::read_to_string(allow_path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                l.split_once(':')
                    .map(|(f, p)| (f.trim().to_string(), p.trim().to_string()))
            })
            .collect(),
        // A missing allowlist just means "no exceptions".
        Err(_) => Vec::new(),
    };

    let mut violations = 0usize;
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path.to_string_lossy().replace('\\', "/");
        for (idx, line) in text.lines().enumerate() {
            // Everything from the first `#[cfg(test)]` on is test code
            // (the scoped files keep their test module last).
            if line.contains("#[cfg(test)]") {
                break;
            }
            let code = line.trim_start();
            // Doc text may legitimately *mention* unwrap().
            if code.starts_with("//") {
                continue;
            }
            if !code.contains(".unwrap()") && !code.contains(".expect(") {
                continue;
            }
            if allow
                .iter()
                .any(|(f, pat)| rel.ends_with(f.as_str()) && line.contains(pat.as_str()))
            {
                continue;
            }
            println!(
                "{rel}:{}: unwrap()/expect() in non-test code: {code}",
                idx + 1
            );
            violations += 1;
        }
    }

    if violations == 0 {
        println!(
            "lint-src: clean — no unwrap()/expect() in the non-test code of {} files",
            files.len()
        );
        Ok(true)
    } else {
        println!(
            "lint-src: {violations} violation(s); fix them or add a \
             `file-suffix: line-substring` entry to {}",
            allow_path.display()
        );
        Ok(false)
    }
}

/// `run`: the full pipeline on `circuit`, writing the report, the
/// Verilog and a self-checking testbench into `--out-dir`.
fn execute(
    net: &BayesNet,
    circuit: &AcGraph,
    network: &Path,
    o: &Opts,
) -> Result<(), Box<dyn Error>> {
    let report = Problp::new(circuit)
        .query(o.query)
        .tolerance(o.tolerance)
        .run()?;
    println!("{report}");

    std::fs::create_dir_all(&o.out_dir)?;
    let report_path = o.out_dir.join("report.txt");
    std::fs::write(
        &report_path,
        format!(
            "network: {}\noptimized: {}\n{report}\n",
            network.display(),
            o.optimize
        ),
    )?;
    let rtl_path = o.out_dir.join("problp_ac_top.v");
    std::fs::write(&rtl_path, &report.hardware.verilog)?;

    // A self-checking testbench over a few canonical vectors.
    let bin = binarize(circuit)?;
    let netlist = Netlist::from_ac(&bin, report.selected.repr)?;
    let mut vectors = vec![Evidence::empty(net.var_count())];
    for v in 0..net.var_count().min(4) {
        let mut e = Evidence::empty(net.var_count());
        e.observe(VarId::from_index(v), 0);
        vectors.push(e);
    }
    let tb_path = o.out_dir.join("problp_ac_tb.v");
    std::fs::write(&tb_path, problp::hw::emit_testbench(&netlist, &vectors)?)?;

    println!(
        "\nwrote {}, {}, {}",
        report_path.display(),
        rtl_path.display(),
        tb_path.display()
    );
    Ok(())
}
