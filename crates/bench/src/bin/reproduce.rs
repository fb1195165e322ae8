//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p problp-bench --bin reproduce -- all
//! cargo run --release -p problp-bench --bin reproduce -- table2 --instances 1000
//! cargo run --release -p problp-bench --bin reproduce -- all --write-experiments
//! ```
//!
//! Subcommands: `table1`, `fig5a`, `fig5b`, `table2`, `ablations`,
//! `accuracy`, `missing`, `throughput`, `kernels`, `serving`,
//! `conformance`, `verify`, `all`, plus `check-bench FILE...` (validate
//! emitted `BENCH_*.json` files). Options: `--instances N` (test
//! instances per benchmark, default 300; the paper uses 1000 for Alarm),
//! `--write-experiments` (write the measured results to
//! `EXPERIMENTS.generated.md`). The `kernels`, `serving`, `conformance`
//! and `verify` sections also write machine-readable
//! `BENCH_kernels.json` / `BENCH_serving.json` / `BENCH_qos.json` /
//! `BENCH_cache.json` / `BENCH_conformance.json` / `BENCH_verify.json`
//! perf records into the working directory. Each record is validated
//! before it is written; one that fails to validate or write exits
//! non-zero.

use problp_bench::{
    alarm_fixture, cache_bench_record, conformance_bench_record, figure5a, figure5b,
    kernels_bench_record, qos_bench_record, render_cache_report, render_conformance_report,
    render_kernel_study, render_qos_report, render_serving_report, render_sweep, render_table2,
    scenario::write_record, serving_bench_record, table1, table2, validate_bench_json,
    verify_bench_record, BenchRecord, SEED,
};

struct Options {
    command: String,
    instances: usize,
    write_experiments: bool,
    check_files: Vec<String>,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: "all".to_string(),
        instances: 300,
        write_experiments: false,
        check_files: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instances" => {
                opts.instances = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--instances needs a number"));
            }
            "--write-experiments" => opts.write_experiments = true,
            "check-bench" => {
                opts.command = arg;
                opts.check_files = args.by_ref().collect();
                if opts.check_files.is_empty() {
                    die("check-bench needs at least one BENCH_*.json path");
                }
            }
            "table1" | "fig5a" | "fig5b" | "table2" | "ablations" | "accuracy" | "missing"
            | "throughput" | "kernels" | "serving" | "conformance" | "verify" | "all" => {
                opts.command = arg
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: reproduce [table1|fig5a|fig5b|table2|ablations|accuracy|missing|throughput|kernels|serving|conformance|verify|all] [--instances N] [--write-experiments]");
    eprintln!("       reproduce check-bench FILE...");
    std::process::exit(2);
}

/// Validates `BENCH_*.json` files against the `problp-bench/v1` schema;
/// exits non-zero on the first invalid file.
fn check_bench(paths: &[String]) {
    for path in paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match validate_bench_json(&text) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => die(&format!("{path}: {e}")),
        }
    }
}

/// Prints `msg` and exits 1: a runtime failure, not a usage error.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Validates and writes one `BENCH_<scenario>.json` into the working
/// directory; exits non-zero when it cannot, so a CI step never goes on
/// to check a stale file.
fn emit_bench(record: &BenchRecord) {
    let path = record.file_name();
    match write_record(record, std::path::Path::new(&path)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => fail(&e),
    }
}

/// The sweep grid of Figure 5 (the paper sweeps 8..=40).
const SWEEP_BITS: [u32; 9] = [8, 12, 16, 20, 24, 28, 32, 36, 40];

fn main() {
    let opts = parse_args();
    if opts.command == "check-bench" {
        check_bench(&opts.check_files);
        return;
    }
    let mut sections: Vec<String> = Vec::new();
    // Prints one rendered section and keeps it for --write-experiments.
    let mut section = |title: &str, text: String| {
        println!("{text}");
        sections.push(format!("## {title}\n\n```text\n{text}```\n"));
    };
    let run = |names: &[&str]| names.contains(&opts.command.as_str()) || opts.command == "all";

    if run(&["table1"]) {
        section("Table 1 — operator energy models", table1());
    }

    let fixture = run(&["fig5a", "fig5b"]).then(|| {
        eprintln!(
            "building alarm fixture (seed {SEED}, {} instances)...",
            opts.instances
        );
        alarm_fixture(opts.instances)
    });
    if let (true, Some(fixture)) = (run(&["fig5a"]), &fixture) {
        let title = format!(
            "Figure 5(a): fixed-point marginal on Alarm, I=1, {} test instances — absolute error",
            fixture.bench.test_len()
        );
        section(
            "Figure 5(a) — fixed-point bound vs observed error",
            render_sweep(&title, "max obs.", &figure5a(fixture, &SWEEP_BITS)),
        );
    }
    if let (true, Some(fixture)) = (run(&["fig5b"]), &fixture) {
        let title = format!(
            "Figure 5(b): floating-point marginal on Alarm, {} test instances — relative error",
            fixture.bench.test_len()
        );
        section(
            "Figure 5(b) — floating-point bound vs observed error",
            render_sweep(&title, "max obs.", &figure5b(fixture, &SWEEP_BITS)),
        );
    }

    if run(&["table2"]) {
        eprintln!(
            "running the full framework on all benchmarks ({} instances each)...",
            opts.instances
        );
        section(
            "Table 2 — overall performance",
            render_table2(&table2(opts.instances)),
        );
    }

    if run(&["accuracy"]) {
        section(
            "Classification impact",
            problp_bench::accuracy_report(opts.instances),
        );
        section(
            "Per-precision classifier accuracy (engine-served)",
            problp_bench::accuracy_study_report(&["HAR", "UNIMIB", "UIWADS"], opts.instances),
        );
    }

    if run(&["missing"]) {
        section(
            "Missing-data robustness",
            problp_bench::missing_data_report(opts.instances.min(100), 0.01),
        );
    }

    if run(&["throughput"]) {
        section(
            "Engine throughput — batched vs scalar evaluation",
            problp_bench::throughput_report(0),
        );
    }

    if run(&["kernels"]) {
        let study = problp_bench::kernel_study(1024);
        section(
            "Evaluator kernels — scalar vs fused tape",
            render_kernel_study(&study),
        );
        emit_bench(&kernels_bench_record(&study));
    }

    if run(&["serving"]) {
        let study = problp_bench::serving_study(512, SEED)
            .unwrap_or_else(|e| fail(&format!("serving study: {e}")));
        section(
            "Sharded multi-circuit serving — mixed-tenant workload",
            render_serving_report(&study),
        );
        emit_bench(&serving_bench_record(&study));
        let study =
            problp_bench::qos_study(256, SEED).unwrap_or_else(|e| fail(&format!("QoS study: {e}")));
        section(
            "QoS serving policy — hot-tenant quota + priority lanes + adaptive wait",
            render_qos_report(&study),
        );
        emit_bench(&qos_bench_record(&study));
        let study = problp_bench::cache_study(64, 4, SEED)
            .unwrap_or_else(|e| fail(&format!("cache study: {e}")));
        section(
            "Exact answer caching — repeated mixed-tenant trace",
            render_cache_report(&study),
        );
        emit_bench(&cache_bench_record(&study));
    }

    if run(&["conformance"]) {
        let study = problp_bench::conformance_study(256, SEED);
        section(
            "Differential conformance — engine vs hardware backends",
            render_conformance_report(&study),
        );
        emit_bench(&conformance_bench_record(&study));
    }

    if run(&["verify"]) {
        let study = problp_bench::verify_study();
        section(
            "Static analysis — tape verifier + range analysis",
            problp_bench::render_verify_study(&study),
        );
        emit_bench(&verify_bench_record(&study));
    }

    if run(&["ablations"]) {
        section(
            "Ablations — design choices",
            problp_bench::ablation_report(),
        );
    }

    if opts.write_experiments {
        let doc = format!(
            "# EXPERIMENTS — measured reproduction results\n\n\
             Generated by `cargo run --release -p problp-bench --bin reproduce -- {} --instances {}`\n\
             (seed {SEED}).\n\n{}",
            opts.command,
            opts.instances,
            sections.join("\n")
        );
        std::fs::write("EXPERIMENTS.generated.md", doc).expect("write EXPERIMENTS.generated.md");
        eprintln!("wrote EXPERIMENTS.generated.md");
    }
}
