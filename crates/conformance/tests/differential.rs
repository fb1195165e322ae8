//! Integration tests of the differential harness: green on real models,
//! red under fault injection, deterministic under a fixed seed.

use problp_bayes::networks;
use problp_conformance::{
    random_batch, random_models, run_conformance, ArithSpec, BackendKind, ConformanceConfig,
    ConformanceReport,
};

fn small_models() -> Vec<(String, problp_bayes::BayesNet)> {
    vec![
        ("sprinkler".to_string(), networks::sprinkler()),
        ("asia".to_string(), networks::asia()),
    ]
}

fn small_config() -> ConformanceConfig {
    ConformanceConfig {
        batch: 24,
        ..ConformanceConfig::default()
    }
}

#[test]
fn named_models_are_bit_identical_across_all_backends() {
    let report = run_conformance(&small_models(), &small_config()).unwrap();
    assert!(report.all_match(), "unexpected divergence:\n{report}");
    // 2 models × 4 ariths × 3 semirings cases; hardware joins only the
    // sum-product third.
    assert_eq!(report.cases.len(), 24);
    let hw_cases = report
        .cases
        .iter()
        .filter(|c| {
            c.backends
                .iter()
                .any(|b| b.backend == BackendKind::Pipeline)
        })
        .count();
    assert_eq!(hw_cases, 8);
    assert_eq!(report.total_mismatches(), 0);
}

#[test]
fn random_models_are_bit_identical_across_all_backends() {
    let models = random_models(41, 3);
    let report = run_conformance(&models, &small_config()).unwrap();
    assert!(report.all_match(), "unexpected divergence:\n{report}");
}

#[test]
fn fault_injection_turns_the_verdict_red() {
    // A harness that cannot detect a corrupted backend proves nothing:
    // flipping one bit of lane 0 in any stream must flip the verdict.
    let models = vec![("sprinkler".to_string(), networks::sprinkler())];
    for backend in BackendKind::ALL
        .into_iter()
        .filter(|b| *b != BackendKind::Scalar)
    {
        let config = ConformanceConfig {
            batch: 8,
            inject_fault: Some(backend),
            ..ConformanceConfig::default()
        };
        let report = run_conformance(&models, &config).unwrap();
        assert!(
            !report.all_match(),
            "injected fault in {backend} went undetected"
        );
        let diverged: Vec<_> = report
            .cases
            .iter()
            .flat_map(|c| &c.backends)
            .filter(|b| b.mismatched_lanes > 0)
            .collect();
        assert!(diverged.iter().all(|b| b.backend == backend));
        assert!(diverged.iter().all(|b| b.first_mismatch == Some(0)));
    }
}

#[test]
fn corrupting_the_reference_flags_every_other_stream() {
    let models = vec![("figure1".to_string(), networks::figure1())];
    let config = ConformanceConfig {
        batch: 8,
        inject_fault: Some(BackendKind::Scalar),
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&models, &config).unwrap();
    assert!(!report.all_match());
    // Every compared stream disagrees with the perturbed reference.
    for case in &report.cases {
        for b in case
            .backends
            .iter()
            .filter(|b| b.backend != BackendKind::Scalar)
        {
            assert!(b.mismatched_lanes > 0, "{} should diverge", b.backend);
        }
    }
}

#[test]
fn runs_are_deterministic_under_a_fixed_seed() {
    let verdicts = |report: &ConformanceReport| -> Vec<(String, usize)> {
        report
            .cases
            .iter()
            .map(|c| {
                (
                    format!("{}/{}/{:?}", c.model, c.arith, c.semiring),
                    c.backends.iter().map(|b| b.mismatched_lanes).sum(),
                )
            })
            .collect()
    };
    let a = run_conformance(&small_models(), &small_config()).unwrap();
    let b = run_conformance(&small_models(), &small_config()).unwrap();
    assert_eq!(verdicts(&a), verdicts(&b));

    let net = networks::asia();
    assert_eq!(random_batch(&net, 32, 9), random_batch(&net, 32, 9));
    assert_ne!(random_batch(&net, 32, 9), random_batch(&net, 32, 10));
}

#[test]
fn single_arith_single_semiring_configs_narrow_the_matrix() {
    let config = ConformanceConfig {
        batch: 8,
        ariths: vec![ArithSpec::parse("fixed:1.11").unwrap()],
        semirings: vec![problp_ac::Semiring::SumProduct],
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&small_models(), &config).unwrap();
    assert_eq!(report.cases.len(), 2);
    assert!(report.all_match(), "{report}");
    // Sum-product cases carry all seven streams.
    assert!(report
        .cases
        .iter()
        .all(|c| c.backends.len() == BackendKind::ALL.len()));
}

#[test]
fn no_runtime_flag_ever_contradicts_a_provably_safe_verdict() {
    // The soundness contract of the range analysis, asserted across the
    // full backend matrix: wherever the static pass says every
    // instruction is provably in range, no backend's sticky
    // overflow/underflow flag may fire — for any model, semiring or
    // format in the acceptance set.
    let mut models = small_models();
    models.extend(random_models(23, 2));
    let config = ConformanceConfig {
        batch: 24,
        ariths: vec![
            ArithSpec::parse("f64").unwrap(),
            ArithSpec::parse("fixed:2.14").unwrap(),
            ArithSpec::parse("fixed:8.24").unwrap(),
            ArithSpec::parse("float:8.23").unwrap(),
        ],
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&models, &config).unwrap();
    assert_eq!(report.total_flag_conflicts(), 0, "{report}");
    assert!(report.all_match(), "{report}");
    // f64 is flagless by construction: the analysis must prove all of
    // its cases safe, so the contract is not vacuous.
    for case in report.cases.iter().filter(|c| c.arith == ArithSpec::F64) {
        assert!(case.static_safe, "f64 case not proven safe:\n{report}");
        assert!(case.backends.iter().all(|b| !b.range_flag));
    }
}

#[test]
fn injected_runtime_flag_on_a_safe_case_turns_the_verdict_red() {
    // Direction 1 of the flag cross-check: a backend that raises a range
    // flag where the analysis proved safety must fail the case. f64
    // cases are all provably safe, so the injected flag is a guaranteed
    // contradiction.
    let models = vec![("sprinkler".to_string(), networks::sprinkler())];
    let config = ConformanceConfig {
        batch: 8,
        ariths: vec![ArithSpec::F64],
        inject_flag_fault: Some(BackendKind::FusedCompact),
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&models, &config).unwrap();
    assert!(!report.all_match(), "flag fault went undetected:\n{report}");
    assert!(report.total_flag_conflicts() > 0);
    assert_eq!(report.total_mismatches(), 0, "values still agree");
    assert!(report.to_string().contains("verdict: FAIL"));
}

#[test]
fn forged_safe_verdict_on_a_flagging_case_turns_the_verdict_red() {
    // Direction 2: a static pass that (wrongly) claims safety where the
    // runtime genuinely flushes to zero must also fail. float:3.8 has
    // min_positive = 0.25, so asia's small products underflow for real.
    let models = vec![("asia".to_string(), networks::asia())];
    let base = ConformanceConfig {
        batch: 24,
        ariths: vec![ArithSpec::parse("float:3.8").unwrap()],
        semirings: vec![problp_ac::Semiring::SumProduct],
        ..ConformanceConfig::default()
    };

    // Honest analysis: it predicts the underflow, so no conflict.
    let report = run_conformance(&models, &base).unwrap();
    assert!(report.all_match(), "{report}");
    let case = &report.cases[0];
    assert!(!case.static_safe, "the analysis must warn here");
    assert!(case.static_may_underflow > 0);
    assert!(
        case.backends.iter().any(|b| b.range_flag),
        "the runtime must genuinely flag here:\n{report}"
    );

    // Forged verdict: same run, claimed safe — every flagging backend
    // becomes a conflict.
    let forged = ConformanceConfig {
        force_static_safe: true,
        ..base
    };
    let report = run_conformance(&models, &forged).unwrap();
    assert!(!report.all_match(), "{report}");
    assert!(report.total_flag_conflicts() > 0);
}

#[test]
fn report_rendering_names_the_verdict() {
    let report = run_conformance(
        &[("sprinkler".to_string(), networks::sprinkler())],
        &ConformanceConfig {
            batch: 4,
            ..ConformanceConfig::default()
        },
    )
    .unwrap();
    let text = report.to_string();
    assert!(text.contains("verdict: PASS"), "{text}");
    assert!(text.contains("pipeline"), "{text}");
    assert!(text.contains("sum-product"), "{text}");
}

#[test]
fn the_default_matrix_drives_word_lanes_into_their_range_flags() {
    // float:5.10 runs on word lanes in the fused streams; its narrow
    // exponent range must make the soft walk underflow somewhere, so
    // the word lanes' flush-to-zero and flags are compared for real.
    let report = run_conformance(&random_models(41, 3), &small_config()).unwrap();
    assert!(report.all_match(), "{report}");
    let half = ArithSpec::parse("float:5.10").unwrap();
    let flagged = report
        .cases
        .iter()
        .filter(|c| c.arith == half)
        .filter(|c| c.backends[0].flags.underflow)
        .count();
    assert!(flagged > 0, "no float:5.10 case underflowed:\n{report}");
    for case in report.cases.iter().filter(|c| c.arith == half) {
        for b in &case.backends {
            assert!(!b.flags_diverged, "{} {}", case.model, b.backend);
        }
    }
}
