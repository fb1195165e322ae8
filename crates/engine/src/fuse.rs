//! The tape peephole fuser: instruction stream → superinstructions.
//!
//! # Why fuse
//!
//! [`crate::Tape`] lowers n-ary sums and products to left-to-right binary
//! accumulator chains, emitted **contiguously** — a k-ary node is k−1
//! adjacent instructions accumulating into one destination register. The
//! batch evaluator pays one dispatch plus one full destination-row
//! write-back per step. [`Tape::fuse`] collapses those shapes back into
//! superinstructions so the evaluator does one dispatch (and one
//! destination write) per *node* instead of per *edge*:
//!
//! ```text
//!   Mul  t  ← a, b                        MulAcc d ← acc, a, b
//!   Add  d  ← acc, t        ====>           (d = acc + a·b; t elided)
//!
//!   Add  d  ← c0, c1
//!   Add  d  ← d,  c2        ====>         Reduce d ← c0, [c1, c2, c3]
//!   Add  d  ← d,  c3                        (one fold, one write-back)
//! ```
//!
//! # Bit-identity
//!
//! Fusion never reorders or re-associates arithmetic: a [`FusedInstr::Reduce`]
//! performs exactly the unfused chain's left-to-right fold, and a
//! [`FusedInstr::MulAcc`] keeps the multiply and the accumulate as two
//! separate roundings (it is **not** an FMA — contracting them would
//! change `f64` bits). The only rewrite is *where intermediate values
//! live*: chain partials stay in a local accumulator instead of being
//! round-tripped through the destination row (exact for every `Arith` —
//! values are plain bit patterns), and a fused multiply's scratch
//! register is elided only when provably dead. `tests/kernels.rs`
//! proptests pin fused == unfused bit for bit across all three semirings
//! and arithmetics.
//!
//! # Mode awareness
//!
//! In [`TapeMode::Full`] every register is an *observable* per-node
//! output (the MPE traceback and the bounds analyses read them all), so
//! the fuser only applies chain collapse there — every register keeps
//! its final value. `MulAcc`, which elides a scratch register entirely,
//! is restricted to [`TapeMode::Compact`] tapes where liveness is known.

use crate::tape::{Instr, Tape, TapeMode};

/// The elementwise operation a fused instruction applies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Sum-product addition.
    Add,
    /// Product (all semirings).
    Mul,
    /// Max-product maximum.
    Max,
    /// Skip-zero minimum (min-value analysis, paper §3.1.4).
    MinNz,
}

/// A tape [`Instr`] split by shape: an indicator load, or a binary op
/// as `(op, dst, lhs, rhs)`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Decoded {
    Load { dst: u32, slot: u32 },
    Bin(BinOp, u32, u32, u32),
}

impl BinOp {
    /// Splits a tape instruction by shape.
    pub(crate) fn split(instr: Instr) -> Decoded {
        match instr {
            Instr::LoadIndicator { dst, slot } => Decoded::Load { dst, slot },
            Instr::Add { dst, lhs, rhs } => Decoded::Bin(BinOp::Add, dst, lhs, rhs),
            Instr::Mul { dst, lhs, rhs } => Decoded::Bin(BinOp::Mul, dst, lhs, rhs),
            Instr::Max { dst, lhs, rhs } => Decoded::Bin(BinOp::Max, dst, lhs, rhs),
            Instr::MinNz { dst, lhs, rhs } => Decoded::Bin(BinOp::MinNz, dst, lhs, rhs),
        }
    }

    /// Decodes a binary tape instruction into `(op, dst, lhs, rhs)`;
    /// `None` for [`Instr::LoadIndicator`].
    pub(crate) fn decode(instr: Instr) -> Option<(BinOp, u32, u32, u32)> {
        match Self::split(instr) {
            Decoded::Bin(op, dst, lhs, rhs) => Some((op, dst, lhs, rhs)),
            Decoded::Load { .. } => None,
        }
    }
}

/// One fused superinstruction. Register semantics match [`Instr`];
/// `Reduce` operand lists live in the owning [`FusedTape`]'s side table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FusedInstr {
    /// `reg[dst] = indicator(slot)` — unchanged from [`Instr::LoadIndicator`].
    LoadIndicator {
        /// Destination register.
        dst: u32,
        /// Index into the tape's indicator slot table.
        slot: u32,
    },
    /// `reg[dst] = op(reg[lhs], reg[rhs])`: an unfused binary instruction.
    Bin {
        /// The elementwise operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// `reg[dst] = op(reg[acc], reg[a] * reg[b])`: a multiply fused into
    /// its sole consumer. The multiply and the outer op are two separate
    /// roundings (never an FMA); the original multiply's destination
    /// register is elided.
    MulAcc {
        /// The outer (accumulating) operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Accumulator operand register.
        acc: u32,
        /// Multiplicand register.
        a: u32,
        /// Multiplier register.
        b: u32,
    },
    /// `reg[dst] = fold(op, reg[first], operands[lo..hi])`: a collapsed
    /// k-ary accumulator chain, folding left to right in the unfused
    /// chain's exact order. `lo..hi` indexes [`FusedTape::operands`].
    Reduce {
        /// The fold operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// First (leftmost) operand register.
        first: u32,
        /// Start of the remaining operand registers in the side table.
        lo: u32,
        /// End (exclusive) of the operand range.
        hi: u32,
    },
}

/// Aggregate statistics of one fusion pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FuseStats {
    /// Instructions on the unfused source tape.
    pub source_instrs: usize,
    /// Superinstructions after fusion.
    pub fused_instrs: usize,
    /// `MulAcc` superinstructions emitted (one elided scratch register
    /// write each).
    pub mul_accs: usize,
    /// `Reduce` superinstructions emitted.
    pub reduces: usize,
}

impl std::fmt::Display for FuseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instrs -> {} fused ({} mulacc, {} reduce)",
            self.source_instrs, self.fused_instrs, self.mul_accs, self.reduces
        )
    }
}

/// A fused superinstruction stream over the same register file, root and
/// indicator slots as the [`Tape`] it was derived from.
///
/// Built by [`Tape::fuse`]; evaluated by engines on the
/// [`crate::KernelKind::Fused`] core, the [`crate::Engine`] default.
#[derive(Clone, Debug)]
pub struct FusedTape {
    instrs: Vec<FusedInstr>,
    /// Flattened `Reduce` operand registers, indexed by `lo..hi`.
    operands: Vec<u32>,
    stats: FuseStats,
}

impl FusedTape {
    /// The fused instruction stream.
    pub fn instrs(&self) -> &[FusedInstr] {
        &self.instrs
    }

    /// The operand registers of a [`FusedInstr::Reduce`] range.
    #[inline]
    pub fn operands(&self, lo: u32, hi: u32) -> &[u32] {
        &self.operands[lo as usize..hi as usize]
    }

    /// Statistics of the fusion pass that built this tape.
    pub fn stats(&self) -> FuseStats {
        self.stats
    }

    /// The whole flattened operand side table (the verifier bounds-checks
    /// `Reduce` ranges against it before slicing).
    pub(crate) fn operand_table(&self) -> &[u32] {
        &self.operands
    }

    /// Mutable access to the raw superinstruction stream. Exists so that
    /// verifier mutation tests can corrupt a stream on purpose; use
    /// [`Tape::verify_fused`] to re-check. Not a stable API.
    #[doc(hidden)]
    pub fn raw_instrs_mut(&mut self) -> &mut Vec<FusedInstr> {
        &mut self.instrs
    }

    /// Mutable access to the raw `Reduce` operand side table. Exists so
    /// that verifier mutation tests can corrupt fold order on purpose;
    /// use [`Tape::verify_fused`] to re-check. Not a stable API.
    #[doc(hidden)]
    pub fn raw_operands_mut(&mut self) -> &mut Vec<u32> {
        &mut self.operands
    }
}

impl std::fmt::Display for FusedTape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FusedTape({})", self.stats)
    }
}

/// Per-register occurrence table: at which instruction indices a register
/// is read or written, in stream order (reads of an index precede its
/// write, matching evaluation order).
struct RegEvents {
    /// `events[reg]` = ordered `(instr index, is_read)` pairs.
    events: Vec<Vec<(u32, bool)>>,
}

impl RegEvents {
    fn build(instrs: &[Instr], num_regs: usize) -> Self {
        let mut events: Vec<Vec<(u32, bool)>> = vec![Vec::new(); num_regs];
        for (i, &instr) in instrs.iter().enumerate() {
            let i = i as u32;
            match instr {
                Instr::LoadIndicator { dst, .. } => events[dst as usize].push((i, false)),
                Instr::Add { dst, lhs, rhs }
                | Instr::Mul { dst, lhs, rhs }
                | Instr::Max { dst, lhs, rhs }
                | Instr::MinNz { dst, lhs, rhs } => {
                    events[lhs as usize].push((i, true));
                    events[rhs as usize].push((i, true));
                    events[dst as usize].push((i, false));
                }
            }
        }
        RegEvents { events }
    }

    /// Whether `reg`'s value as of instruction `after` is dead: never
    /// read again before its next write (root registers are never dead —
    /// the caller excludes them).
    fn dead_after(&self, reg: u32, after: u32) -> bool {
        for &(i, is_read) in &self.events[reg as usize] {
            if i > after {
                // First occurrence past `after` settles it: a write kills
                // the old value, a read keeps it live.
                return !is_read;
            }
        }
        true
    }
}

/// Emits a `Reduce` folding into `dst` from `first`: `head` (if any)
/// then the maximal accumulator run continuing `op` into `dst` from
/// `instrs[from]`. Returns the index past the run, or `None` (emitting
/// nothing) when the run is empty.
#[allow(clippy::too_many_arguments)]
fn take_chain(
    instrs: &[Instr],
    from: usize,
    op: BinOp,
    dst: u32,
    first: u32,
    head: Option<u32>,
    out: &mut Vec<FusedInstr>,
    operands: &mut Vec<u32>,
    stats: &mut FuseStats,
) -> Option<usize> {
    let lo = operands.len();
    operands.extend(head);
    let mut j = from;
    while j < instrs.len() {
        match BinOp::decode(instrs[j]) {
            // A chain step accumulates the previous partial (`lhs == dst`)
            // with a register that is not the destination row (an aliased
            // rhs would observe the stale pre-chain value once the fold
            // keeps partials in a local accumulator).
            Some((o, d, l, r)) if o == op && d == dst && l == dst && r != dst => {
                operands.push(r);
                j += 1;
            }
            _ => break,
        }
    }
    if j == from {
        operands.truncate(lo);
        return None;
    }
    out.push(FusedInstr::Reduce {
        op,
        dst,
        first,
        lo: lo as u32,
        hi: operands.len() as u32,
    });
    stats.reduces += 1;
    Some(j)
}

impl Tape {
    /// Runs the peephole fusion pass, producing a superinstruction stream
    /// that evaluates bit-identically to this tape over the same register
    /// file (see the [module docs](crate::fuse) for the rewrite rules and
    /// the mode restrictions).
    pub fn fuse(&self) -> FusedTape {
        let instrs = self.instrs();
        let mut stats = FuseStats {
            source_instrs: instrs.len(),
            ..FuseStats::default()
        };
        let mut out: Vec<FusedInstr> = Vec::with_capacity(instrs.len());
        let mut operands: Vec<u32> = Vec::new();
        // MulAcc elides a scratch register, which is only legal where
        // registers are not observable per-node outputs.
        let mul_acc_ok = self.mode() == TapeMode::Compact;
        let events = RegEvents::build(instrs, self.num_regs());

        let mut i = 0;
        while i < instrs.len() {
            let (op, dst, lhs, rhs) = match BinOp::split(instrs[i]) {
                Decoded::Load { dst, slot } => {
                    out.push(FusedInstr::LoadIndicator { dst, slot });
                    i += 1;
                    continue;
                }
                Decoded::Bin(op, dst, lhs, rhs) => (op, dst, lhs, rhs),
            };

            // Rule B — MulAcc: a multiply whose result feeds the very next
            // instruction's rhs and is otherwise dead. `clhs != dst`
            // keeps the accumulator expressible; `cdst == dst` needs no
            // deadness proof (the fused op overwrites the scratch register
            // with the same value the unfused stream left there).
            if mul_acc_ok && op == BinOp::Mul && i + 1 < instrs.len() {
                if let Some((cop, cdst, clhs, crhs)) = BinOp::decode(instrs[i + 1]) {
                    let scratch_dead = cdst == dst
                        || (dst != self.root_reg() && events.dead_after(dst, i as u32 + 1));
                    if crhs == dst && clhs != dst && scratch_dead {
                        out.push(FusedInstr::MulAcc {
                            op: cop,
                            dst: cdst,
                            acc: clhs,
                            a: lhs,
                            b: rhs,
                        });
                        stats.mul_accs += 1;
                        // The consumer may have been the head of a longer
                        // chain; collapse the remaining steps, folding
                        // from the value the MulAcc just wrote.
                        i = take_chain(
                            instrs,
                            i + 2,
                            cop,
                            cdst,
                            cdst,
                            None,
                            &mut out,
                            &mut operands,
                            &mut stats,
                        )
                        .unwrap_or(i + 2);
                        continue;
                    }
                }
            }

            // Rule A — Reduce: collapse the maximal accumulator chain
            // headed by this instruction into one fold from `lhs`, with
            // `rhs` as its first operand.
            match take_chain(
                instrs,
                i + 1,
                op,
                dst,
                lhs,
                Some(rhs),
                &mut out,
                &mut operands,
                &mut stats,
            ) {
                Some(j) => i = j,
                None => {
                    out.push(FusedInstr::Bin { op, dst, lhs, rhs });
                    i += 1;
                }
            }
        }

        stats.fused_instrs = out.len();
        let fused = FusedTape {
            instrs: out,
            operands,
            stats,
        };
        // Debug builds prove the fused stream equivalent to its source
        // (symbolic execution, fold order included) before handing it out.
        #[cfg(debug_assertions)]
        if let Err(e) = self.verify_fused(&fused) {
            panic!("fuse produced an ill-formed stream: {e}");
        }
        fused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_ac::{AcGraph, Semiring};
    use problp_bayes::VarId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    /// λ_{a0}·0.3 + λ_{a1}·0.7 — two binary products into a binary sum.
    fn tiny() -> AcGraph {
        let mut g = AcGraph::new(vec![2]);
        let a0 = g.indicator(v(0), 0).unwrap();
        let a1 = g.indicator(v(0), 1).unwrap();
        let t0 = g.param(0.3).unwrap();
        let t1 = g.param(0.7).unwrap();
        let p0 = g.product(vec![a0, t0]).unwrap();
        let p1 = g.product(vec![a1, t1]).unwrap();
        let root = g.sum(vec![p0, p1]).unwrap();
        g.set_root(root);
        g
    }

    /// A 4-ary sum of binary products: chains worth collapsing.
    fn chained() -> AcGraph {
        let mut g = AcGraph::new(vec![4]);
        let mut prods = Vec::new();
        for s in 0..4 {
            let ind = g.indicator(v(0), s).unwrap();
            let p = g.param(0.1 + s as f64 * 0.2).unwrap();
            prods.push(g.product(vec![ind, p]).unwrap());
        }
        let root = g.sum(prods).unwrap();
        g.set_root(root);
        g
    }

    #[test]
    fn tiny_circuit_fuses_the_last_multiply() {
        let tape = Tape::compile(&tiny(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        // 2 loads + 2 muls + 1 add -> 2 loads + 1 mul + 1 mulacc.
        assert_eq!(fused.stats().source_instrs, 5);
        assert_eq!(fused.stats().mul_accs, 1);
        assert_eq!(fused.stats().fused_instrs, 4);
        assert!(fused
            .instrs()
            .iter()
            .any(|i| matches!(i, FusedInstr::MulAcc { op: BinOp::Add, .. })));
    }

    #[test]
    fn chains_collapse_to_reduce() {
        let tape = Tape::compile(&chained(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        let reduce = fused
            .instrs()
            .iter()
            .find_map(|i| match *i {
                FusedInstr::Reduce { op, lo, hi, .. } => Some((op, hi - lo)),
                _ => None,
            })
            .expect("the 4-ary sum collapses");
        assert_eq!(reduce.0, BinOp::Add);
        assert!(fused.stats().fused_instrs < fused.stats().source_instrs);
    }

    #[test]
    fn full_mode_never_elides_registers() {
        let tape = Tape::compile_full(&tiny(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        assert_eq!(fused.stats().mul_accs, 0, "every register is observable");
        // Every destination the unfused tape writes is still written.
        let mut written: Vec<bool> = vec![false; tape.num_regs()];
        for instr in fused.instrs() {
            match *instr {
                FusedInstr::LoadIndicator { dst, .. }
                | FusedInstr::Bin { dst, .. }
                | FusedInstr::MulAcc { dst, .. }
                | FusedInstr::Reduce { dst, .. } => written[dst as usize] = true,
            }
        }
        for instr in tape.instrs() {
            let dst = match *instr {
                Instr::LoadIndicator { dst, .. }
                | Instr::Add { dst, .. }
                | Instr::Mul { dst, .. }
                | Instr::Max { dst, .. }
                | Instr::MinNz { dst, .. } => dst,
            };
            assert!(written[dst as usize], "register {dst} lost its write");
        }
    }

    #[test]
    fn semiring_ops_round_trip_through_fusion() {
        for (semiring, op) in [
            (Semiring::SumProduct, BinOp::Add),
            (Semiring::MaxProduct, BinOp::Max),
            (Semiring::MinProduct, BinOp::MinNz),
        ] {
            let tape = Tape::compile(&chained(), semiring).unwrap();
            let fused = tape.fuse();
            let has_op = fused.instrs().iter().any(|i| match *i {
                FusedInstr::Bin { op: o, .. }
                | FusedInstr::MulAcc { op: o, .. }
                | FusedInstr::Reduce { op: o, .. } => o == op,
                FusedInstr::LoadIndicator { .. } => false,
            });
            assert!(has_op, "{semiring:?} lowers sums to {op:?}");
        }
    }
}
