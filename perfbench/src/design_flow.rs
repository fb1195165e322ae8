//! `design-flow`: the paper's Fig. 2 flow over the ten Table 2 rows
//! (HAR, UNIMIB, UIWADS and Alarm × query × tolerance), each with RTL
//! emission on and a measured test set of [`INSTANCES`] instances.
//!
//! The untraced phase calls `Problp::run`. The traced phase calls the
//! same stages one by one in `Problp::run`'s order with a span around
//! each, checks that they reach the same design, and reports their sum
//! against `Problp::run`'s own time.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use problp_ac::{compile, transform, AcGraph};
use problp_bayes::{Evidence, VarId};
use problp_bounds::{
    optimize_fixed, optimize_float, AcAnalysis, LeafErrorModel, QueryType, Tolerance,
    DEFAULT_MAX_PRECISION_BITS,
};
use problp_core::{gate_level_energy_nj, measure_errors, ErrorStats, Problp, Report};
use problp_energy::{fixed_ac_energy, float_ac_energy, CellLibrary, Tsmc65Model};
use problp_hw::{emit_verilog, Netlist};
use problp_num::{FloatFormat, Representation};

use crate::gen::Gen;
use crate::serving::MODEL_SEED;
use crate::trace::{Child, Tracer};
use crate::{ms, us, with_setups, Args, Outcome, Phase};

/// Test instances measured per row.
pub const INSTANCES: usize = 200;

/// The paper's Table 2 rows: benchmark index × query × tolerance.
const ROWS: [(usize, QueryType, Tolerance); 10] = [
    (0, QueryType::Marginal, Tolerance::Absolute(0.01)),
    (0, QueryType::Marginal, Tolerance::Relative(0.01)),
    (0, QueryType::Conditional, Tolerance::Absolute(0.01)),
    (0, QueryType::Conditional, Tolerance::Relative(0.01)),
    (1, QueryType::Marginal, Tolerance::Absolute(0.01)),
    (1, QueryType::Conditional, Tolerance::Relative(0.01)),
    (2, QueryType::Marginal, Tolerance::Absolute(0.01)),
    (2, QueryType::Marginal, Tolerance::Relative(0.01)),
    (3, QueryType::Marginal, Tolerance::Absolute(0.01)),
    (3, QueryType::Conditional, Tolerance::Relative(0.01)),
];

/// One benchmark network, compiled.
struct Bench {
    net: problp_bayes::BayesNet,
    query_var: VarId,
    ac: AcGraph,
}

struct Benches {
    benches: Vec<Bench>,
    compile_ms: f64,
}

fn setup(tracer: Option<&Tracer>) -> Benches {
    let t0 = Instant::now();
    let data = [
        problp_data::har_benchmark(MODEL_SEED),
        problp_data::unimib_benchmark(MODEL_SEED),
        problp_data::uiwads_benchmark(MODEL_SEED),
        problp_data::alarm_benchmark(MODEL_SEED, 0),
    ];
    let t1 = Instant::now();
    let benches: Vec<Bench> = data
        .into_iter()
        .map(|b| Bench {
            ac: compile(&b.net).expect("benchmark networks compile"),
            net: b.net,
            query_var: b.query_var,
        })
        .collect();
    let t2 = Instant::now();
    if let Some(tracer) = tracer {
        let children: [Child; 2] = [("data.build", t0, t1), ("ac.compile", t1, t2)];
        tracer.record(0, "setup", t0, t2, &children);
    }
    Benches {
        compile_ms: ms(t1, t2) / benches.len() as f64,
        benches,
    }
}

/// The design a row arrived at, for comparing runs and stage replays.
#[derive(Clone, PartialEq, Debug)]
struct Design {
    repr: Representation,
    bound_bits: u64,
    observed_bits: u64,
    /// Hash of the emitted Verilog.
    verilog: u64,
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn observed(stats: &ErrorStats, tolerance: Tolerance) -> f64 {
    match tolerance {
        Tolerance::Absolute(_) => stats.max_abs,
        Tolerance::Relative(_) => stats.max_rel,
    }
}

fn tolerance_value(t: Tolerance) -> f64 {
    match t {
        Tolerance::Absolute(v) | Tolerance::Relative(v) => v,
    }
}

/// Whether the design keeps its guarantee: bound within tolerance and
/// observed error within bound.
fn sound(bound: f64, observed: f64, tolerance: Tolerance) -> bool {
    bound <= tolerance_value(tolerance) && observed <= bound
}

fn design_of(report: &Report, tolerance: Tolerance) -> Option<Design> {
    let stats = report.observed.as_ref()?;
    Some(Design {
        repr: report.selected.repr,
        bound_bits: report.selected.bound.to_bits(),
        observed_bits: observed(stats, tolerance).to_bits(),
        verilog: text_hash(&report.hardware.verilog),
    })
}

/// `Problp::run` on one row.
fn run_row(
    b: &Bench,
    tests: &[Evidence],
    query: QueryType,
    tolerance: Tolerance,
) -> Option<Design> {
    let report = Problp::new(&b.ac)
        .query(query)
        .tolerance(tolerance)
        .measure_on(b.query_var, tests)
        .run()
        .ok()?;
    design_of(&report, tolerance)
}

/// The stages of `Problp::run` called one by one, each inside a span.
fn staged_row(
    b: &Bench,
    tests: &[Evidence],
    query: QueryType,
    tolerance: Tolerance,
    spans: &mut Vec<Child>,
) -> Option<Design> {
    let model = Tsmc65Model;
    let mut span = |name: &'static str, t0: Instant| spans.push((name, t0, Instant::now()));

    let t = Instant::now();
    let bin = transform::binarize(&b.ac).ok()?;
    span("ac.binarize", t);
    let t = Instant::now();
    let analysis = AcAnalysis::new(&bin).ok()?;
    span("bounds.analysis", t);
    let t = Instant::now();
    let fixed = optimize_fixed(
        &bin,
        &analysis,
        query,
        tolerance,
        LeafErrorModel::WorstCase,
        DEFAULT_MAX_PRECISION_BITS,
    );
    let float = optimize_float(
        &bin,
        &analysis,
        query,
        tolerance,
        DEFAULT_MAX_PRECISION_BITS,
    );
    span("bounds.search", t);
    let t = Instant::now();
    let fixed = fixed.ok().map(|c| {
        let e = fixed_ac_energy(&bin, c.format, &model).total_nj();
        (Representation::Fixed(c.format), c.bound, e)
    });
    let float = float.ok().map(|c| {
        let e = float_ac_energy(&bin, c.format, &model).total_nj();
        (Representation::Float(c.format), c.bound, e)
    });
    let (repr, bound, _) = match (fixed, float) {
        (Some(a), Some(b)) => {
            if a.2 <= b.2 {
                a
            } else {
                b
            }
        }
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => return None,
    };
    span("energy.estimate", t);
    let t = Instant::now();
    let netlist = Netlist::from_ac(&bin, repr).ok()?;
    let stats = netlist.stats();
    std::hint::black_box(gate_level_energy_nj(&stats, repr, &CellLibrary::default()));
    span("hw.netlist", t);
    let t = Instant::now();
    let verilog = emit_verilog(&netlist);
    span("hw.verilog", t);
    let t = Instant::now();
    std::hint::black_box(float_ac_energy(&bin, FloatFormat::ieee_single(), &model).total_nj());
    span("energy.estimate", t);
    let t = Instant::now();
    let stats = measure_errors(&bin, repr, query, b.query_var, tests).ok()?;
    span("core.measure", t);
    Some(Design {
        repr,
        bound_bits: bound.to_bits(),
        observed_bits: observed(&stats, tolerance).to_bits(),
        verilog: text_hash(&verilog),
    })
}

fn measure(bs: &Benches, tests: &[Vec<Evidence>], args: &Args, tracer: Option<&Tracer>) -> Phase {
    let deadline = Instant::now() + crate::phase_len(args);
    let mut first: Vec<Option<Design>> = vec![None; ROWS.len()];
    let mut sweeps_us = Vec::new();
    let (mut rows, mut failed) = (0u64, 0u64);
    let mut busy_s = 0.0;
    let mut run_total = 0.0;
    let mut stage_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut row_id = 0u64;
    while Instant::now() < deadline || sweeps_us.is_empty() {
        let mut sweep_us = 0.0;
        for (k, &(bi, query, tolerance)) in ROWS.iter().enumerate() {
            let b = &bs.benches[bi];
            let t0 = Instant::now();
            let (design, row_us, replay_ok) = match tracer {
                None => {
                    let design = run_row(b, &tests[bi], query, tolerance);
                    (design, us(t0, Instant::now()), true)
                }
                Some(tracer) => {
                    let mut spans = Vec::new();
                    let design = staged_row(b, &tests[bi], query, tolerance, &mut spans);
                    let t1 = Instant::now();
                    tracer.record(row_id, "row", t0, t1, &spans);
                    for (name, s, e) in &spans {
                        *stage_ms.entry(name).or_default() += ms(*s, *e);
                    }
                    // The same row through `Problp::run`, untraced: it
                    // must reach the same design in about the same time.
                    let r0 = Instant::now();
                    let same = run_row(b, &tests[bi], query, tolerance) == design;
                    run_total += ms(r0, Instant::now());
                    (design, us(t0, t1), same)
                }
            };
            sweep_us += row_us;
            busy_s += row_us / 1e6;
            rows += 1;
            row_id += 1;
            // Outside the flow: the guarantee holds and repeats agree.
            let ok = match &design {
                Some(d) => {
                    replay_ok
                        && sound(
                            f64::from_bits(d.bound_bits),
                            f64::from_bits(d.observed_bits),
                            tolerance,
                        )
                        && first[k].as_ref().is_none_or(|f| f == d)
                }
                None => false,
            };
            if !ok {
                failed += 1;
            }
            if first[k].is_none() {
                first[k] = design;
            }
        }
        sweeps_us.push(sweep_us);
    }
    let mut layers = BTreeMap::new();
    if tracer.is_some() {
        let per_row = |name: &str| stage_ms.get(name).copied().unwrap_or(0.0) / rows as f64;
        for (metric, stage, scale) in [
            ("ac.binarize_ms", "ac.binarize", 1.0),
            ("bounds.analysis_ms", "bounds.analysis", 1.0),
            ("bounds.search_ms", "bounds.search", 1.0),
            ("energy.estimate_us", "energy.estimate", 1e3),
            ("hw.netlist_ms", "hw.netlist", 1.0),
            ("hw.verilog_ms", "hw.verilog", 1.0),
            ("core.measure_ms", "core.measure", 1.0),
        ] {
            layers.insert(metric.to_string(), per_row(stage) * scale);
        }
        let stage_sum: f64 = stage_ms.values().sum();
        layers.insert(
            "core.stage_sum_ratio".to_string(),
            stage_sum / run_total.max(f64::MIN_POSITIVE),
        );
    }
    Phase {
        latency_us: sweeps_us,
        work: rows as f64,
        busy_s,
        attempted: rows,
        failed,
        consistent: true,
        layers,
    }
}

pub fn run(args: &Args, tracer: Option<&Tracer>) -> Outcome {
    let (setup_s, (untraced, traced, compile_ms)) = with_setups(
        || setup(tracer),
        |benches| {
            let tests: Vec<Vec<Evidence>> = benches
                .benches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let mut gen = Gen::new(args.seed, 3000 + i as u64);
                    (0..INSTANCES)
                        .map(|_| gen.evidence(&b.net, Some(b.query_var)))
                        .collect()
                })
                .collect();
            let untraced = measure(benches, &tests, args, None);
            let traced = tracer.map(|t| measure(benches, &tests, args, Some(t)));
            (untraced, traced, benches.compile_ms)
        },
    );
    Outcome {
        setup_s,
        throughput_name: "designs_per_s",
        untraced,
        traced,
        setup_layers: [("ac.compile_ms".to_string(), compile_ms)]
            .into_iter()
            .collect(),
    }
}
