//! Kernel-dispatch conformance tests: the fused superinstruction stream
//! — the default batch core of [`Engine`] — must be bit-identical to the
//! scalar tape walk — same values, same sticky flags, per lane — for
//! every semiring, every arithmetic, both tape modes, every chunk size
//! and every remainder lane count. The scalar walk stays the reference
//! (always pinned with `with_kernel(KernelKind::Scalar)`); these tests
//! are the license for the fast paths to exist. The word-lane contexts
//! are checked against the scalar kernel in their *soft* types.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use problp_ac::{compile, transform::binarize, Semiring};
use problp_bayes::{networks, Evidence, EvidenceBatch, VarId};
use problp_engine::{Engine, FusedInstr, FusedTape, KernelKind, KernelSet, Tape, LANE_WIDTH};
use problp_num::{
    F64Arith, FixedArith, FixedFormat, FixedRounding, FixedWordArith, Flags, FloatArith,
    FloatFormat, FloatWordArith,
};

const SEMIRINGS: [Semiring; 3] = [
    Semiring::SumProduct,
    Semiring::MaxProduct,
    Semiring::MinProduct,
];

/// Builds a batch whose lanes cycle through single-variable
/// observations plus an empty-evidence lane, so remainder lanes carry
/// distinct values (a clobbered or skipped tail lane cannot hide).
fn varied_batch(net: &problp_bayes::BayesNet, lanes: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(net.var_count());
    for i in 0..lanes {
        let mut e = Evidence::empty(net.var_count());
        if i % 3 != 0 {
            let var = VarId::from_index(i % net.var_count());
            e.observe(var, i % net.variable(var).arity());
        }
        batch.push(&e);
    }
    batch
}

/// Structurally validates a fused stream against its source tape: every
/// register read must have been written earlier in the stream (or be a
/// pinned parameter register), the root register must be written, and
/// no instruction may read a register the fuser elided. This is the
/// "no clobbered registers" half of the fusion contract — value
/// identity is pinned separately by the evaluation properties.
fn assert_fused_stream_well_formed(tape: &Tape, fused: &FusedTape) {
    let mut written = vec![false; tape.num_regs()];
    for &p in tape.param_regs() {
        written[p as usize] = true;
    }
    let read = |reg: u32, written: &[bool], what: &str, idx: usize| {
        assert!(
            written[reg as usize],
            "fused instr {idx} reads {what} r{reg} before any write"
        );
    };
    for (idx, instr) in fused.instrs().iter().enumerate() {
        match *instr {
            FusedInstr::LoadIndicator { dst, slot } => {
                assert!((slot as usize) < tape.indicator_slots().count());
                written[dst as usize] = true;
            }
            FusedInstr::Bin { dst, lhs, rhs, .. } => {
                read(lhs, &written, "lhs", idx);
                read(rhs, &written, "rhs", idx);
                written[dst as usize] = true;
            }
            FusedInstr::MulAcc { dst, acc, a, b, .. } => {
                read(acc, &written, "acc", idx);
                read(a, &written, "a", idx);
                read(b, &written, "b", idx);
                written[dst as usize] = true;
            }
            FusedInstr::Reduce {
                dst, first, lo, hi, ..
            } => {
                read(first, &written, "first", idx);
                for &r in fused.operands(lo, hi) {
                    read(r, &written, "operand", idx);
                }
                written[dst as usize] = true;
            }
        }
    }
    assert!(
        written[tape.root_reg() as usize],
        "fused stream never writes the root register"
    );
    let stats = fused.stats();
    assert_eq!(stats.fused_instrs, fused.instrs().len());
    assert!(stats.fused_instrs <= stats.source_instrs);
}

/// A one-lane batch holding lane `lane` of `batch`.
fn lane_batch(batch: &EvidenceBatch, lane: usize) -> EvidenceBatch {
    EvidenceBatch::from_evidences(batch.var_count(), &[batch.evidence(lane)]).unwrap()
}

/// Checks that a default-built engine over `tape` (the fused kernel)
/// matches the same engine pinned to [`KernelKind::Scalar`] bit for bit:
/// every lane's value, the aggregate sticky flags, and each lane's own
/// flags (swept alone, so no other lane can mask a raise).
fn default_matches_scalar<A>(
    tape: &Tape,
    ctx: A,
    batch: &EvidenceBatch,
) -> Result<(), TestCaseError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    fused_matches_scalar(tape, ctx.clone(), ctx, batch)
}

/// [`default_matches_scalar`] with the fused engine in `fast_ctx` and the
/// scalar reference in `reference_ctx` — a word-lane context against its
/// soft type.
fn fused_matches_scalar<R, A>(
    tape: &Tape,
    reference_ctx: R,
    fast_ctx: A,
    batch: &EvidenceBatch,
) -> Result<(), TestCaseError>
where
    R: KernelSet + Clone + Send + Sync,
    R::Value: Clone + Send + Sync,
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let fast = Engine::new(tape.clone(), fast_ctx);
    prop_assert_eq!(fast.kernel(), KernelKind::Fused);
    let reference = Engine::new(tape.clone(), reference_ctx).with_kernel(KernelKind::Scalar);
    // The root bits and sticky flags of one batch sweep.
    fn sweep<A>(e: &Engine<A>, b: &EvidenceBatch) -> (Vec<u64>, Flags)
    where
        A: KernelSet + Clone + Send + Sync,
        A::Value: Clone + Send + Sync,
    {
        let r = e.evaluate_batch(b).unwrap();
        let bits = r
            .values
            .iter()
            .map(|v| e.context().to_f64(v).to_bits())
            .collect();
        (bits, r.flags)
    }
    prop_assert_eq!(sweep(&fast, batch), sweep(&reference, batch));
    for lane in 0..batch.lanes() {
        let one = lane_batch(batch, lane);
        prop_assert_eq!(sweep(&fast, &one), sweep(&reference, &one), "lane {}", lane);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: on random circuits, the default engine
    /// (fused kernel) returns the scalar kernel's values and flags bit
    /// for bit, in f64, `fixed:2.14` and `float:8.13`, under every
    /// semiring, on compact and full-values tapes.
    #[test]
    fn default_engine_matches_scalar_kernel(
        seed in 0u64..500,
        lanes in 1usize..40,
    ) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        let batch = varied_batch(&net, lanes);
        let fixed = FixedFormat::new(2, 14).unwrap();
        let float = FloatFormat::new(8, 13).unwrap();
        for semiring in SEMIRINGS {
            for tape in [
                Tape::compile(&ac, semiring).unwrap(),
                Tape::compile_full(&ac, semiring).unwrap(),
            ] {
                default_matches_scalar(&tape, F64Arith::new(), &batch)?;
                default_matches_scalar(&tape, FixedArith::new(fixed), &batch)?;
                default_matches_scalar(&tape, FloatArith::new(float), &batch)?;
            }
        }
    }

    /// Word lanes against their soft types: the fused kernel on `u64`
    /// raw words must return the soft scalar kernel's values and flags
    /// in narrow fixed-point formats, in both rounding modes, where the
    /// per-lane sticky flags (inexact, overflow) actually fire.
    #[test]
    fn fixed_word_lanes_match_the_soft_scalar_kernel(
        seed in 0u64..500,
        lanes in 1usize..80,
        (int_bits, frac) in (0u32..3, 6u32..20),
        truncate in any::<bool>(),
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let batch = varied_batch(&net, lanes);
        let format = FixedFormat::new(int_bits, frac).unwrap();
        let rounding = if truncate { FixedRounding::Truncate } else { FixedRounding::HalfUp };
        for semiring in SEMIRINGS {
            for tape in [
                Tape::compile(&ac, semiring).unwrap(),
                Tape::compile_full(&ac, semiring).unwrap(),
            ] {
                fused_matches_scalar(
                    &tape,
                    FixedArith::with_rounding(format, rounding),
                    FixedWordArith::with_rounding(format, rounding).unwrap(),
                    &batch,
                )?;
            }
        }
    }

    /// The same for `f64` lanes in narrow float formats; the small
    /// exponent ranges make products underflow, so the flush-to-zero
    /// path and its flags are compared too.
    #[test]
    fn float_word_lanes_match_the_soft_scalar_kernel(
        seed in 0u64..500,
        lanes in 1usize..80,
        (exp_bits, mant_bits) in (3u32..11, 2u32..25),
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let batch = varied_batch(&net, lanes);
        let format = FloatFormat::new(exp_bits, mant_bits).unwrap();
        for semiring in SEMIRINGS {
            for tape in [
                Tape::compile(&ac, semiring).unwrap(),
                Tape::compile_full(&ac, semiring).unwrap(),
            ] {
                fused_matches_scalar(
                    &tape,
                    FloatArith::new(format),
                    FloatWordArith::new(format).unwrap(),
                    &batch,
                )?;
            }
        }
    }

    /// Fusion on full-values tapes must keep every register's final
    /// write (`MulAcc` is compact-only), and the fused stream stays
    /// structurally sound on both modes: no read of an unwritten or
    /// elided register, root always written.
    #[test]
    fn fused_streams_are_well_formed_and_full_mode_keeps_registers(
        seed in 0u64..500,
    ) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        for semiring in SEMIRINGS {
            let compact = Tape::compile(&ac, semiring).unwrap();
            let fused = compact.fuse();
            assert_fused_stream_well_formed(&compact, &fused);

            let full = Tape::compile_full(&ac, semiring).unwrap();
            let fused_full = full.fuse();
            assert_fused_stream_well_formed(&full, &fused_full);
            prop_assert_eq!(fused_full.stats().mul_accs, 0, "MulAcc must be compact-only");
        }
    }

    /// Results are independent of the lane-chunk size for both kernels:
    /// chunk 1 (every lane is a remainder), 3 (odd), 8 (exactly one
    /// vector chunk) and 1024 (whole batch in one chunk) agree bit for
    /// bit, flags included.
    #[test]
    fn chunk_size_never_changes_results(
        seed in 0u64..200,
        lanes in 1usize..100,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let batch = varied_batch(&net, lanes);
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        let reference = engine
            .clone()
            .with_kernel(KernelKind::Scalar)
            .evaluate_batch(&batch)
            .unwrap();
        for kernel in KernelKind::ALL {
            for chunk in [1usize, 3, LANE_WIDTH, 1024] {
                let e = engine.clone().with_kernel(kernel).with_chunk(chunk).with_threads(1);
                let got = e.evaluate_batch(&batch).unwrap();
                prop_assert_eq!(got.flags, reference.flags);
                for (r, g) in reference.values.iter().zip(&got.values) {
                    prop_assert_eq!(
                        r.to_bits(), g.to_bits(),
                        "{:?} chunk {}", kernel, chunk
                    );
                }
            }
        }
    }
}

/// Remainder-lane regression: lane counts that leave 1, `LANE_WIDTH`-1
/// or `LANE_WIDTH`+1 lanes (and primes that never divide the width)
/// must produce the same per-lane values *and* per-lane sticky flags as
/// the scalar walk — the scalar tail after the vector body covers
/// exactly the right lanes.
#[test]
fn remainder_lanes_match_scalar_values_and_flags() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    let format = FixedFormat::new(1, 10).unwrap();
    for lanes in [1, LANE_WIDTH - 1, LANE_WIDTH, LANE_WIDTH + 1, 13, 31, 97] {
        let batch = varied_batch(&net, lanes);
        for semiring in SEMIRINGS {
            // Fixed point: inexact is sticky per lane.
            let tape = Tape::compile(&ac, semiring).unwrap();
            default_matches_scalar(&tape, FixedArith::new(format), &batch).unwrap();
        }
    }
    // The low-precision format actually exercises the sticky path: at
    // 10 fractional bits the Alarm CPTs cannot all be exact.
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, FixedArith::new(format)).unwrap();
    let got = engine.evaluate_batch(&varied_batch(&net, 97)).unwrap();
    assert!(got.flags.inexact, "regression batch never went inexact");
}

/// The default engine on a real circuit actually fuses something — the
/// throughput claim rests on superinstructions existing, so an
/// accidentally-empty pass must fail loudly here, not in the bench —
/// and `fuse_stats` reports exactly the stream its sweeps run.
#[test]
fn fusion_finds_superinstructions_on_alarm() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    assert_eq!(engine.kernel(), KernelKind::Fused);
    let stats = engine.fuse_stats().expect("default engine exposes stats");
    assert_eq!(stats, engine.tape().fuse().stats());
    assert!(stats.mul_accs > 0, "no MulAcc fused on alarm: {stats}");
    assert!(stats.reduces > 0, "no Reduce fused on alarm: {stats}");
    assert!(stats.fused_instrs < stats.source_instrs);
    // A scalar-pinned engine reports no fused tape.
    let scalar = engine.with_kernel(KernelKind::Scalar);
    assert!(scalar.fused_tape().is_none());
    assert!(scalar.fuse_stats().is_none());
}

/// The fused stream is built on the first fused batch sweep, never by
/// the single-instance paths, which run the reference instruction
/// stream.
#[test]
fn only_fused_batch_sweeps_build_the_fused_stream() {
    let net = networks::asia();
    let ac = compile(&net).unwrap();
    let batch = varied_batch(&net, 11);
    let evidence = batch.evidence(1);
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    engine.evaluate_one(&evidence).unwrap();
    assert!(!engine.has_fused_tape());
    let full = Engine::from_graph_full(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    full.evaluate_nodes_one(&evidence).unwrap();
    assert!(!full.has_fused_tape());

    engine.evaluate_batch(&batch).unwrap();
    assert!(engine.has_fused_tape());
    assert!(engine.clone().has_fused_tape(), "clones keep the stream");

    let scalar = full.with_kernel(KernelKind::Scalar);
    scalar.evaluate_batch(&batch).unwrap();
    assert!(!scalar.has_fused_tape());
}

/// MPE and conditional serving agree across kernels: the scalar-kernel
/// decode is the oracle for the fused one, whose traceback reads the
/// fused sweep's register rows.
#[test]
fn queries_agree_across_kernels() {
    let net = networks::asia();
    let ac = compile(&net).unwrap();
    let batch = varied_batch(&net, 11);
    let query_var = VarId::from_index(1);
    let mut cond_batch = EvidenceBatch::new(net.var_count());
    for lane in 0..batch.lanes() {
        let mut e = batch.evidence(lane);
        e.forget(query_var);
        cond_batch.push(&e);
    }

    let mpe_engine = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
    let cond_engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    let mpe_ref = mpe_engine
        .clone()
        .with_kernel(KernelKind::Scalar)
        .mpe_batch(&batch)
        .unwrap();
    let cond_ref = cond_engine
        .clone()
        .with_kernel(KernelKind::Scalar)
        .conditional_batch(&cond_batch, query_var)
        .unwrap();

    let mpe = mpe_engine.mpe_batch(&batch).unwrap();
    assert_eq!(mpe.assignments, mpe_ref.assignments);
    for (a, b) in mpe.values.iter().zip(&mpe_ref.values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let cond = cond_engine
        .conditional_batch(&cond_batch, query_var)
        .unwrap();
    assert_eq!(cond.predictions, cond_ref.predictions);
    for (p, q) in cond.posteriors.iter().zip(&cond_ref.posteriors) {
        for (a, b) in p.iter().zip(q) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Checks `mpe_batch` over Alarm in one arithmetic: every thread count,
/// lane-block size and kernel yields the assignments, value bits and
/// flags of the single-threaded, one-lane-block scalar run, whose value
/// bits are returned for further checks.
fn mpe_is_independent_of_sharding_and_kernel<A>(
    ac: &problp_ac::AcGraph,
    ctx: A,
    batch: &EvidenceBatch,
) -> Vec<u64>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let engine = Engine::from_graph_full(ac, Semiring::MaxProduct, ctx).unwrap();
    let run = |kernel: KernelKind, threads: usize, chunk: usize| {
        let e = engine
            .clone()
            .with_kernel(kernel)
            .with_threads(threads)
            .with_chunk(chunk);
        let mpe = e.mpe_batch(batch).unwrap();
        let bits: Vec<u64> = mpe
            .values
            .iter()
            .map(|v| e.context().to_f64(v).to_bits())
            .collect();
        (mpe.assignments, bits, mpe.flags)
    };
    let reference = run(KernelKind::Scalar, 1, 1);
    for kernel in KernelKind::ALL {
        for threads in [1, 2, 3] {
            for chunk in [1, 7, 64] {
                let got = run(kernel, threads, chunk);
                assert!(
                    got == reference,
                    "{kernel:?} threads={threads} chunk={chunk}"
                );
            }
        }
    }
    reference.1
}

/// MPE decoding reads its traceback from the batch sweep's register
/// rows, so sharding, lane blocking and the kernel must not move a
/// single assignment, value bit or flag, in `f64`, `fixed:1.10` and
/// `float:8.13`. In `f64` the values also equal the scalar decoder's.
#[test]
fn mpe_batch_is_independent_of_threads_chunks_and_kernel() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    // 70 lanes: enough for three shards of at least 32 lanes' worth.
    let batch = varied_batch(&net, 70);
    let bits = mpe_is_independent_of_sharding_and_kernel(&ac, F64Arith::new(), &batch);
    for (lane, got) in bits.iter().enumerate() {
        let (_, oracle) = ac.mpe_assignment(&batch.evidence(lane)).unwrap();
        assert_eq!(*got, oracle.to_bits(), "lane {lane}");
    }
    let fixed = FixedArith::new(FixedFormat::new(1, 10).unwrap());
    mpe_is_independent_of_sharding_and_kernel(&ac, fixed, &batch);
    let float = FloatArith::new(FloatFormat::new(8, 13).unwrap());
    mpe_is_independent_of_sharding_and_kernel(&ac, float, &batch);
}
