//! The batched, multi-threaded tape evaluator.
//!
//! # Lane sharding and the SoA register file
//!
//! [`Engine::evaluate_batch`] processes N evidence instances ("lanes")
//! per tape sweep. Lanes are split into contiguous shards, one per worker
//! thread (`std::thread::scope`, no dependencies); each worker owns a
//! structure-of-arrays register file laid out `[register][lane]`:
//!
//! ```text
//! regs: | r0 lane0 .. r0 laneB | r1 lane0 .. r1 laneB | ...
//! ```
//!
//! so every instruction becomes a tight loop over one destination row and
//! up to two source rows — contiguous streams the compiler can vectorize
//! and the prefetcher can follow. Workers further tile their shard into
//! blocks of [`Engine::chunk`] lanes so the whole register file stays
//! cache-resident regardless of batch size. Parameter constants are
//! converted via [`Arith::from_f64`] once at engine construction and
//! broadcast into their pinned rows once per shard.
//!
//! This is the engine's only batch sweep. [`Engine::evaluate_batch`]
//! keeps each lane's root register; [`Engine::mpe_batch`] also walks
//! each lane's registers for its argmax traceback, read straight from
//! the block's `[register][lane]` rows. Sticky [`Flags`] are aggregated
//! over the whole batch; a caller that needs one lane's flags sweeps
//! that lane alone.
//!
//! # Kernels
//!
//! Batch sweeps, MPE decoding included, run the fused superinstruction
//! stream ([`KernelKind::Fused`], the default) unless an engine is
//! pinned to the scalar reference with [`Engine::with_kernel`]. The
//! stream is built lazily, on the first fused batch sweep, so an engine
//! that only ever answers single instances never pays for
//! [`Tape::fuse`].

use std::sync::OnceLock;

use problp_ac::{AcGraph, Semiring};
use problp_bayes::{Evidence, EvidenceBatch, VarId};
use problp_num::{Arith, Flags};

use crate::error::{panic_message, EngineError};
use crate::fuse::{BinOp, FuseStats, FusedInstr, FusedTape};
use crate::kernels::{apply_op, scalar_bin_rows, KernelKind, KernelSet};
use crate::tape::{Instr, Tape, TapeMode};

/// Target byte size of one worker's SoA register file: small enough to
/// stay L2-resident, large enough to amortise the per-block overhead.
const TARGET_REGFILE_BYTES: usize = 512 * 1024;

/// Picks the default lane-block size for a register file of `num_regs`
/// values of `value_bytes` each.
fn default_chunk(num_regs: usize, value_bytes: usize) -> usize {
    (TARGET_REGFILE_BYTES / (num_regs.max(1) * value_bytes.max(1))).clamp(16, 1024)
}

/// Below this many lanes per thread, sharding costs more than it saves.
const MIN_LANES_PER_THREAD: usize = 32;

/// The result of a batch evaluation.
#[derive(Clone, Debug)]
pub struct BatchResult<V> {
    /// The root value of each lane, in batch order.
    pub values: Vec<V>,
    /// Sticky flags aggregated across every lane and the engine's
    /// parameter conversions.
    pub flags: Flags,
}

/// One lane's view of a lane block's SoA register file: register `r`
/// of the lane is `rows[r * chunk + lane]`.
#[derive(Clone, Copy)]
pub(crate) struct LaneRegs<'a, V> {
    rows: &'a [V],
    chunk: usize,
    lane: usize,
}

impl<'a, V> LaneRegs<'a, V> {
    /// The lane's value of register `reg`.
    pub(crate) fn get(&self, reg: u32) -> &'a V {
        &self.rows[reg as usize * self.chunk + self.lane]
    }
}

/// A compiled circuit bound to a number system, ready for bulk
/// evaluation.
///
/// # Examples
///
/// ```
/// use problp_ac::{compile, Semiring};
/// use problp_bayes::{networks, Evidence, EvidenceBatch};
/// use problp_engine::Engine;
/// use problp_num::F64Arith;
///
/// let net = networks::sprinkler();
/// let ac = compile(&net)?;
/// let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())?;
///
/// let batch = EvidenceBatch::from_evidences(
///     net.var_count(),
///     &[Evidence::empty(net.var_count())],
/// )?;
/// let result = engine.evaluate_batch(&batch)?;
/// assert!((result.values[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine<A: Arith> {
    pub(crate) tape: Tape,
    pub(crate) ctx: A,
    /// Parameter constants pre-converted into the engine's number system;
    /// `consts[p]` is broadcast into register row `param_regs[p]` before
    /// each sweep.
    consts: Vec<A::Value>,
    /// Flags raised converting the constants (merged into every result).
    const_flags: Flags,
    pub(crate) zero: A::Value,
    one: A::Value,
    threads: usize,
    chunk: usize,
    /// Which evaluator core batch sweeps dispatch through.
    kernel: KernelKind,
    /// The fused superinstruction stream of `tape`, filled on first use
    /// under [`KernelKind::Fused`] (see [`Engine::fused_tape`]).
    fused: OnceLock<FusedTape>,
}

impl<A> Engine<A>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    /// Builds an engine from a compiled tape and an arithmetic context.
    ///
    /// Parameter constants are converted through `ctx` here, once, rather
    /// than per evaluation as the scalar tree-walk does.
    pub fn new(tape: Tape, mut ctx: A) -> Self {
        ctx.clear_flags();
        let consts: Vec<A::Value> = tape.params().iter().map(|&p| ctx.from_f64(p)).collect();
        let const_flags = ctx.flags();
        let zero = ctx.zero();
        let one = ctx.one();
        ctx.clear_flags();
        let chunk = default_chunk(tape.num_regs(), std::mem::size_of::<A::Value>());
        Engine {
            tape,
            ctx,
            consts,
            const_flags,
            zero,
            one,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk,
            kernel: KernelKind::default(),
            fused: OnceLock::new(),
        }
    }

    /// Compiles `ac` under `semiring` and builds an engine in one step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] for invalid circuits.
    pub fn from_graph(ac: &AcGraph, semiring: Semiring, ctx: A) -> Result<Self, EngineError> {
        Ok(Engine::new(Tape::compile(ac, semiring)?, ctx))
    }

    /// Like [`Engine::from_graph`], but on a **full-values** tape
    /// ([`Tape::compile_full`]): register `i` holds source node `i`'s
    /// value after a sweep, which [`Engine::evaluate_nodes_one`] and
    /// [`Engine::mpe_batch`] require.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] for invalid circuits.
    pub fn from_graph_full(ac: &AcGraph, semiring: Semiring, ctx: A) -> Result<Self, EngineError> {
        Ok(Engine::new(Tape::compile_full(ac, semiring)?, ctx))
    }

    /// Caps the number of worker threads. `0` restores the default (all
    /// available cores — the CLI's `--threads 0` convention); `1` forces
    /// single-threaded evaluation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        self
    }

    /// Sets the lane-block size of the SoA register file. The default is
    /// sized so the register file stays cache-resident
    /// (`~512 KiB / (registers x value size)`, clamped to 16..=1024).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Selects the evaluator core batch sweeps run through (see
    /// [`KernelKind`] and the [`crate::kernels`] module docs). The
    /// default is [`KernelKind::Fused`]; [`KernelKind::Scalar`] pins the
    /// reference path the fused stream is proven bit-identical to.
    ///
    /// The single-instance paths ([`Engine::evaluate_one`],
    /// [`Engine::evaluate_nodes_one`]) always run the reference
    /// instruction stream regardless of this setting.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The evaluator core selected by [`Engine::with_kernel`].
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The fused superinstruction stream, when the engine runs the
    /// [`KernelKind::Fused`] core. The first call (or the first fused
    /// batch sweep) runs [`Tape::fuse`]; later calls reuse the stream.
    pub fn fused_tape(&self) -> Option<&FusedTape> {
        (self.kernel == KernelKind::Fused).then(|| self.fused.get_or_init(|| self.tape.fuse()))
    }

    /// Whether the fused stream has been built yet. Never builds it,
    /// unlike [`Engine::fused_tape`].
    pub fn has_fused_tape(&self) -> bool {
        self.fused.get().is_some()
    }

    /// Statistics of the fusion pass, when the engine runs the
    /// [`KernelKind::Fused`] core (feeds the
    /// `problp_engine_fused_instrs_total` serving counter). Builds the
    /// stream like [`Engine::fused_tape`].
    pub fn fuse_stats(&self) -> Option<FuseStats> {
        self.fused_tape().map(FusedTape::stats)
    }

    /// The compiled tape backing this engine.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Mutable access to the backing tape. Exists so verifier mutation
    /// tests can corrupt an engine's tape and prove the
    /// [`crate::CircuitPool`] admission gate rejects it; an engine edited
    /// through this computes garbage. Not a stable API.
    #[doc(hidden)]
    pub fn raw_tape_mut(&mut self) -> &mut Tape {
        self.fused = OnceLock::new();
        &mut self.tape
    }

    /// The engine's arithmetic context (a reference hook for differential
    /// harnesses that need to convert or compare engine values — e.g.
    /// `problp-conformance`'s bit-identity checks against the scalar
    /// evaluator and the hardware simulators).
    pub fn context(&self) -> &A {
        &self.ctx
    }

    /// Converts engine values back to `f64` for inspection.
    pub fn to_f64s(&self, values: &[A::Value]) -> Vec<f64> {
        values.iter().map(|v| self.ctx.to_f64(v)).collect()
    }

    pub(crate) fn check_batch(&self, batch: &EvidenceBatch) -> Result<(), EngineError> {
        if batch.var_count() != self.tape.var_count() {
            return Err(EngineError::BatchLengthMismatch {
                batch: batch.var_count(),
                circuit: self.tape.var_count(),
            });
        }
        Ok(())
    }

    /// How many shards to use for `lanes` lanes.
    fn shard_count(&self, lanes: usize) -> usize {
        self.threads
            .min(lanes.div_ceil(MIN_LANES_PER_THREAD))
            .max(1)
    }

    /// Evaluates every lane of the batch, returning root values in batch
    /// order plus the aggregated sticky flags.
    ///
    /// Lanes are sharded across worker threads; results are independent
    /// of the thread count and of the chunk size (each lane's value is
    /// computed by exactly the same instruction sequence).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BatchLengthMismatch`] if the batch ranges
    /// over a different number of variables than the compiled circuit,
    /// and [`EngineError::WorkerPanic`] if a shard worker panicked (the
    /// engine itself stays usable).
    pub fn evaluate_batch(
        &self,
        batch: &EvidenceBatch,
    ) -> Result<BatchResult<A::Value>, EngineError> {
        self.check_batch(batch)?;
        let root = self.tape.root_reg();
        let mut values: Vec<A::Value> = vec![self.zero.clone(); batch.lanes()];
        let flags = self.sweep_batch(batch, &mut values, |regs, _| regs.get(root).clone())?;
        Ok(BatchResult { values, flags })
    }

    /// The shard scaffold behind every batch entry point: sweeps the
    /// lanes of `batch` through the engine's kernel and stores
    /// `emit(registers of the lane, lane)` into `out[lane]`, where `out`
    /// holds one slot per lane. Returns the sticky flags of the sweep
    /// merged with the parameter-conversion flags.
    ///
    /// Lanes are split into contiguous shards, one scoped worker thread
    /// each; a single shard runs inline on the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::WorkerPanic`] if a shard panicked, on the
    /// inline path too: a panicking arithmetic must not take down the
    /// caller's thread (outputs are discarded on error, and the engine
    /// itself holds no mutable state).
    pub(crate) fn sweep_batch<T: Send>(
        &self,
        batch: &EvidenceBatch,
        out: &mut [T],
        emit: impl Fn(LaneRegs<'_, A::Value>, usize) -> T + Sync,
    ) -> Result<Flags, EngineError> {
        let mut flags = self.const_flags;
        let lanes = out.len();
        if lanes == 0 {
            return Ok(flags);
        }
        // Built on the calling thread before any shard starts: a stream
        // built inside a shard would live in that thread's malloc arena,
        // which measurably raised peak RSS.
        let fused = self.fused_tape();
        let emit = &emit;
        let shards = self.shard_count(lanes);
        let swept = if shards <= 1 {
            let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.sweep_range(batch, fused, 0, out, emit)
            }))
            .map_err(|payload| EngineError::WorkerPanic {
                message: panic_message(payload),
            })?;
            vec![swept]
        } else {
            let per = lanes.div_ceil(shards);
            let joined = std::thread::scope(|scope| {
                let handles: Vec<_> = out
                    .chunks_mut(per)
                    .enumerate()
                    .map(|(i, out)| {
                        scope.spawn(move || self.sweep_range(batch, fused, i * per, out, emit))
                    })
                    .collect();
                // Join every handle before leaving the scope so one
                // panicking shard cannot re-panic the scope exit.
                handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
            });
            crate::error::collect_worker_results(joined)?
        };
        for f in swept {
            flags.merge(f);
        }
        Ok(flags)
    }

    /// Evaluates a single evidence instance on the reference tape path
    /// (no threads, no SoA blocking, no fused stream): the
    /// latency-oriented little sibling of [`Engine::evaluate_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BatchLengthMismatch`] on an evidence length
    /// mismatch.
    pub fn evaluate_one(&self, evidence: &Evidence) -> Result<(A::Value, Flags), EngineError> {
        let (mut regs, flags) = self.sweep_one(evidence)?;
        Ok((regs.swap_remove(self.tape.root_reg() as usize), flags))
    }

    /// Evaluates a single evidence instance on a **full-values** tape,
    /// returning the value of *every* circuit node: `values[i]` is source
    /// node `i`'s value, bit-identical to
    /// [`problp_ac::AcGraph::evaluate_nodes`] under the same arithmetic
    /// and semiring. This is the engine entry point of the max/min value
    /// analyses (`problp_bounds::AcAnalysis`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NeedsFullValues`] unless the engine was
    /// built from [`Tape::compile_full`], and
    /// [`EngineError::BatchLengthMismatch`] on an evidence length
    /// mismatch.
    pub fn evaluate_nodes_one(
        &self,
        evidence: &Evidence,
    ) -> Result<(Vec<A::Value>, Flags), EngineError> {
        if self.tape.mode() != TapeMode::Full {
            return Err(EngineError::NeedsFullValues);
        }
        self.sweep_one(evidence)
    }

    /// One reference sweep over a scalar register file: the whole
    /// register file after the sweep plus its sticky flags.
    fn sweep_one(&self, evidence: &Evidence) -> Result<(Vec<A::Value>, Flags), EngineError> {
        if evidence.len() != self.tape.var_count() {
            return Err(EngineError::BatchLengthMismatch {
                batch: evidence.len(),
                circuit: self.tape.var_count(),
            });
        }
        let mut ctx = self.ctx.clone();
        ctx.clear_flags();
        let mut regs: Vec<A::Value> = vec![self.zero.clone(); self.tape.num_regs()];
        for (c, &r) in self.consts.iter().zip(self.tape.param_regs()) {
            regs[r as usize] = c.clone();
        }
        self.run_instrs(&mut ctx, &mut regs, |var| {
            evidence
                .state(VarId::from_index(var as usize))
                .map_or(-1, |s| s as i32)
        });
        let mut flags = ctx.flags();
        flags.merge(self.const_flags);
        Ok((regs, flags))
    }

    /// Runs the instruction stream once over a scalar register file.
    /// `observed(var)` returns the evidence state of `var` or a negative
    /// value when the variable is unobserved (the [`UNOBSERVED`] column
    /// convention of [`EvidenceBatch`]).
    ///
    /// [`UNOBSERVED`]: problp_bayes::UNOBSERVED
    fn run_instrs(&self, ctx: &mut A, regs: &mut [A::Value], observed: impl Fn(u32) -> i32) {
        for &instr in self.tape.instrs() {
            if let Instr::LoadIndicator { dst, slot } = instr {
                let (var, state) = self.tape.slot(slot);
                regs[dst as usize] = self.indicator(state, observed(var)).clone();
            } else if let Some((op, dst, lhs, rhs)) = BinOp::decode(instr) {
                regs[dst as usize] = apply_op(ctx, op, &regs[lhs as usize], &regs[rhs as usize]);
            }
        }
    }

    /// SoA sweep of the contiguous lane range starting at `start`: after
    /// each lane block, `out[i] = emit(registers of lane, lane)` for every
    /// lane of the block (`out`'s length determines the range). Returns
    /// the shard's sticky flags. Runs the fused core when `fused` is
    /// given, the scalar reference core otherwise.
    fn sweep_range<T>(
        &self,
        batch: &EvidenceBatch,
        fused: Option<&FusedTape>,
        start: usize,
        out: &mut [T],
        emit: &impl Fn(LaneRegs<'_, A::Value>, usize) -> T,
    ) -> Flags {
        let mut ctx = self.ctx.clone();
        ctx.clear_flags();
        let num_regs = self.tape.num_regs();
        let chunk = self.chunk.min(out.len().max(1));
        let mut regs: Vec<A::Value> = vec![self.zero.clone(); num_regs * chunk];
        // Pinned parameter rows are written once: no instruction ever uses
        // them as a destination.
        for (c, &p) in self.consts.iter().zip(self.tape.param_regs()) {
            let p = p as usize;
            for slot in &mut regs[p * chunk..p * chunk + chunk] {
                *slot = c.clone();
            }
        }
        let mut done = 0;
        while done < out.len() {
            let n = chunk.min(out.len() - done);
            let base = start + done;
            match fused {
                Some(fused) => {
                    self.sweep_chunk_fused(&mut ctx, batch, fused, &mut regs, chunk, base, n);
                }
                None => self.sweep_chunk_scalar(&mut ctx, batch, &mut regs, chunk, base, n),
            }
            for (lane, slot) in out[done..done + n].iter_mut().enumerate() {
                let rows = LaneRegs {
                    rows: &regs,
                    chunk,
                    lane,
                };
                *slot = emit(rows, base + lane);
            }
            done += n;
        }
        ctx.flags()
    }

    /// Broadcasts one indicator slot into its destination row.
    #[allow(clippy::too_many_arguments)]
    fn load_indicator_chunk(
        &self,
        batch: &EvidenceBatch,
        regs: &mut [A::Value],
        chunk: usize,
        dst: u32,
        slot: u32,
        base: usize,
        n: usize,
    ) {
        let (var, state) = self.tape.slot(slot);
        let col = batch.column(VarId::from_index(var as usize));
        let d = dst as usize * chunk;
        for l in 0..n {
            regs[d + l] = self.indicator(state, col[base + l]).clone();
        }
    }

    /// The value of an indicator for `state` when its variable's evidence
    /// column reads `observed` (negative = unobserved): zero only when a
    /// different state is observed.
    fn indicator(&self, state: u32, observed: i32) -> &A::Value {
        if observed >= 0 && observed != state as i32 {
            &self.zero
        } else {
            &self.one
        }
    }

    /// One lane block through the reference scalar core: per-instruction
    /// loops through the `Arith` context, exactly the semantics the fused
    /// kernel is proven bit-identical to.
    fn sweep_chunk_scalar(
        &self,
        ctx: &mut A,
        batch: &EvidenceBatch,
        regs: &mut [A::Value],
        chunk: usize,
        base: usize,
        n: usize,
    ) {
        for &instr in self.tape.instrs() {
            if let Instr::LoadIndicator { dst, slot } = instr {
                self.load_indicator_chunk(batch, regs, chunk, dst, slot, base, n);
            } else if let Some((op, dst, lhs, rhs)) = BinOp::decode(instr) {
                let (d, a, b) = (dst as usize, lhs as usize, rhs as usize);
                scalar_bin_rows(ctx, op, regs, d * chunk, a * chunk, b * chunk, n);
            }
        }
    }

    /// One lane block through the fused superinstruction stream
    /// ([`KernelKind::Fused`]): one kernel dispatch per fused op.
    #[allow(clippy::too_many_arguments)]
    fn sweep_chunk_fused(
        &self,
        ctx: &mut A,
        batch: &EvidenceBatch,
        fused: &FusedTape,
        regs: &mut [A::Value],
        chunk: usize,
        base: usize,
        n: usize,
    ) {
        for instr in fused.instrs() {
            match *instr {
                FusedInstr::LoadIndicator { dst, slot } => {
                    self.load_indicator_chunk(batch, regs, chunk, dst, slot, base, n);
                }
                FusedInstr::Bin { op, dst, lhs, rhs } => {
                    ctx.bin_rows(
                        op,
                        regs,
                        dst as usize * chunk,
                        lhs as usize * chunk,
                        rhs as usize * chunk,
                        n,
                    );
                }
                FusedInstr::MulAcc { op, dst, acc, a, b } => {
                    ctx.mul_acc_rows(
                        op,
                        regs,
                        dst as usize * chunk,
                        acc as usize * chunk,
                        a as usize * chunk,
                        b as usize * chunk,
                        n,
                    );
                }
                FusedInstr::Reduce {
                    op,
                    dst,
                    first,
                    lo,
                    hi,
                } => {
                    ctx.reduce_rows(
                        op,
                        regs,
                        chunk,
                        dst as usize * chunk,
                        first as usize * chunk,
                        fused.operands(lo, hi),
                        n,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::networks;
    use problp_num::{F64Arith, FixedArith, FixedFormat, FloatArith, FloatFormat};

    fn sprinkler_engine() -> (problp_bayes::BayesNet, Engine<F64Arith>) {
        let net = networks::sprinkler();
        let ac = problp_ac::compile(&net).unwrap();
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        (net, engine)
    }

    fn single_var_evidences(net: &problp_bayes::BayesNet) -> Vec<Evidence> {
        let mut out = vec![Evidence::empty(net.var_count())];
        for v in 0..net.var_count() {
            for s in 0..net.variable(VarId::from_index(v)).arity() {
                let mut e = Evidence::empty(net.var_count());
                e.observe(VarId::from_index(v), s);
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn batch_matches_scalar_tree_walk_bit_for_bit() {
        let (net, engine) = sprinkler_engine();
        let evidences = single_var_evidences(&net);
        let ac = problp_ac::compile(&net).unwrap();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let result = engine.evaluate_batch(&batch).unwrap();
        for (e, got) in evidences.iter().zip(&result.values) {
            let want = ac.evaluate(e).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "evidence {e}");
        }
    }

    #[test]
    fn results_are_independent_of_threads_and_chunks() {
        let (net, engine) = sprinkler_engine();
        let evidences: Vec<Evidence> = (0..200).flat_map(|_| single_var_evidences(&net)).collect();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let reference = engine
            .clone()
            .with_threads(1)
            .evaluate_batch(&batch)
            .unwrap();
        for threads in [2, 3, 8] {
            for chunk in [1, 7, 64] {
                let got = engine
                    .clone()
                    .with_threads(threads)
                    .with_chunk(chunk)
                    .evaluate_batch(&batch)
                    .unwrap();
                assert_eq!(
                    reference.values, got.values,
                    "threads={threads} chunk={chunk}"
                );
                assert_eq!(reference.flags, got.flags);
            }
        }
    }

    #[test]
    fn evaluate_one_matches_the_batch_path() {
        let (net, engine) = sprinkler_engine();
        for e in single_var_evidences(&net) {
            let batch =
                EvidenceBatch::from_evidences(net.var_count(), std::slice::from_ref(&e)).unwrap();
            let batched = engine.evaluate_batch(&batch).unwrap();
            let (single, _) = engine.evaluate_one(&e).unwrap();
            assert_eq!(single.to_bits(), batched.values[0].to_bits());
        }
    }

    /// Every register row of the fused full-values sweep holds the value
    /// the single-instance reference sweep leaves in that register — the
    /// premise of reading the MPE traceback from the batch sweep.
    fn fused_rows_match_evaluate_nodes_one<A>(ac: &AcGraph, ctx: A, evidences: &[Evidence])
    where
        A: KernelSet + Clone + Send + Sync,
        A::Value: Clone + Send + Sync,
    {
        let batch = EvidenceBatch::from_evidences(ac.var_count(), evidences).unwrap();
        for semiring in [
            Semiring::SumProduct,
            Semiring::MaxProduct,
            Semiring::MinProduct,
        ] {
            let engine = Engine::from_graph_full(ac, semiring, ctx.clone())
                .unwrap()
                .with_chunk(16);
            assert_eq!(engine.kernel(), KernelKind::Fused);
            let bits = |regs: &[A::Value]| -> Vec<u64> {
                regs.iter()
                    .map(|v| engine.ctx.to_f64(v).to_bits())
                    .collect()
            };
            let num_regs = engine.tape.num_regs() as u32;
            let mut rows = vec![Vec::new(); evidences.len()];
            engine
                .sweep_batch(&batch, &mut rows, |regs, _| {
                    (0..num_regs).map(|r| regs.get(r).clone()).collect()
                })
                .unwrap();
            for (lane, e) in evidences.iter().enumerate() {
                let (want, _) = engine.evaluate_nodes_one(e).unwrap();
                assert_eq!(bits(&rows[lane]), bits(&want), "{semiring:?} lane {lane}");
            }
        }
    }

    #[test]
    fn fused_full_register_rows_match_the_reference_sweep() {
        let net = networks::alarm(7);
        let ac = problp_ac::compile(&net).unwrap();
        let evidences: Vec<Evidence> = single_var_evidences(&net).into_iter().take(40).collect();
        assert_eq!(evidences.len(), 40);
        fused_rows_match_evaluate_nodes_one(&ac, F64Arith::new(), &evidences);
        let fixed = FixedArith::new(FixedFormat::new(1, 10).unwrap());
        fused_rows_match_evaluate_nodes_one(&ac, fixed, &evidences);
        let float = FloatArith::new(FloatFormat::new(8, 13).unwrap());
        fused_rows_match_evaluate_nodes_one(&ac, float, &evidences);
    }

    #[test]
    fn empty_batches_are_fine() {
        let (net, engine) = sprinkler_engine();
        let batch = EvidenceBatch::new(net.var_count());
        let result = engine.evaluate_batch(&batch).unwrap();
        assert!(result.values.is_empty());
    }

    #[test]
    fn batch_length_mismatch_is_reported() {
        let (_, engine) = sprinkler_engine();
        let batch = EvidenceBatch::new(2);
        assert!(matches!(
            engine.evaluate_batch(&batch).unwrap_err(),
            EngineError::BatchLengthMismatch { .. }
        ));
    }
}
