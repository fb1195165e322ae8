//! The observed-error column of Table 2 must not depend on how a format
//! is computed: `measure_errors` runs narrow formats on word lanes, and
//! every field of its `ErrorStats`, flags included, must be bit-equal to
//! the same measurement through the soft `FixedArith`/`FloatArith`
//! engine.

use problp::ac::transform::binarize;
use problp::core::{measure_errors_with, ErrorStats};
use problp::data::Benchmark;
use problp::prelude::*;

/// Test instances measured per benchmark (a prefix of its test split).
const INSTANCES: usize = 48;

/// The formats the Table 2 flow selects on these benchmarks.
fn table2_formats() -> Vec<Representation> {
    let fx = |i, f| Representation::Fixed(FixedFormat::new(i, f).unwrap());
    let fl = |e, m| Representation::Float(FloatFormat::new(e, m).unwrap());
    vec![fx(1, 16), fx(1, 14), fl(10, 14), fl(7, 12), fl(9, 14)]
}

/// Every field as raw bits, so `-0.0`/`0.0` or NaN cannot compare equal
/// by accident.
fn bits(s: &ErrorStats) -> ([u64; 4], usize, problp::num::Flags) {
    let f = [s.max_abs, s.mean_abs, s.max_rel, s.mean_rel].map(f64::to_bits);
    (f, s.count, s.flags)
}

fn soft_measure(
    ac: &AcGraph,
    repr: Representation,
    query: QueryType,
    bench: &Benchmark,
    tests: &[Evidence],
) -> ErrorStats {
    match repr {
        Representation::Fixed(f) => {
            measure_errors_with(ac, FixedArith::new(f), query, bench.query_var, tests)
        }
        Representation::Float(f) => {
            measure_errors_with(ac, FloatArith::new(f), query, bench.query_var, tests)
        }
    }
    .unwrap()
}

#[test]
fn word_lane_measurements_equal_the_soft_engine_bit_for_bit() {
    let benches = [
        problp::data::har_benchmark(3),
        problp::data::unimib_benchmark(3),
        problp::data::alarm_benchmark(3, INSTANCES),
    ];
    let (mut compared, mut measured) = (0, 0);
    for bench in &benches {
        let ac = binarize(&compile(&bench.net).unwrap()).unwrap();
        let tests = &bench.test_evidence[..bench.test_len().min(INSTANCES)];
        for query in [QueryType::Marginal, QueryType::Conditional] {
            for repr in table2_formats() {
                let fast = measure_errors(&ac, repr, query, bench.query_var, tests).unwrap();
                let soft = soft_measure(&ac, repr, query, bench, tests);
                assert_eq!(
                    bits(&fast),
                    bits(&soft),
                    "{} {query:?} {repr}: {fast} vs {soft}",
                    bench.name
                );
                compared += 1;
                measured += fast.count;
            }
        }
    }
    assert_eq!(compared, 3 * 2 * 5);
    // Fixed point has no finite conditionals on the tiny HAR outputs;
    // everything else measures real lanes.
    assert!(
        measured > 20 * INSTANCES,
        "only {measured} outputs measured"
    );
}
