//! The static tape verifier: single-pass dataflow checks over the
//! instruction stream, plus symbolic equivalence for fused streams.
//!
//! # What is proven
//!
//! [`Tape::verify`] is a forward dataflow pass over the flat instruction
//! stream establishing, without executing anything:
//!
//! * **bounds** — every register index is inside the register file, every
//!   indicator slot resolves to a real `(variable, state)` pair;
//! * **def-before-use** — every operand read is preceded by a write (or
//!   names a pinned parameter register, pre-filled before each sweep);
//! * **param immutability** — no instruction ever writes a pinned
//!   parameter register;
//! * **chain discipline** — an accumulator continuation (`dst == lhs`)
//!   extends the write immediately before it, with the same operation;
//!   anything else clobbered a live partial. The right operand never
//!   aliases the destination row (the fused kernels keep partials in a
//!   local accumulator, so an aliased `rhs` would observe a stale value);
//! * **full-mode completeness** — a [`TapeMode::Full`] tape elides
//!   nothing: one stable register per source node, each written by at
//!   most one defining chain and never reused;
//! * **root reachability** — the root register is defined, and in
//!   compact mode every instruction contributes to it (the `optimize`
//!   pass runs before compilation, so dead code on a compact tape is a
//!   compiler bug, not an input property).
//!
//! [`Tape::verify_fused`] extends this to a fused superinstruction
//! stream: after the same bounds checks (including the `Reduce` operand
//! side table), both streams are executed **symbolically** over
//! hash-consed expression trees and every observable register — the root
//! in compact mode, all of them in full mode — must hold the *exact same
//! expression*, operand order included. Fold order is therefore preserved
//! by construction: `a + b` and `b + a` are different expressions here,
//! no commutativity is assumed, and a `MulAcc` stays two nested
//! operations (never an FMA).
//!
//! In debug builds the verifier runs automatically after
//! [`Tape::compile`], [`Tape::compile_full`] and [`Tape::fuse`]; release
//! builds run it at serving admission
//! ([`crate::CircuitPool::register`]), where a failing tape is rejected
//! with the typed [`crate::EngineError::Verify`].

use std::collections::HashMap;

use crate::fuse::{BinOp, Decoded, FusedInstr, FusedTape};
use crate::tape::{Instr, Tape, TapeMode};

/// A well-formedness violation found by the static tape verifier.
///
/// Each variant names the instruction index (into [`Tape::instrs`] or
/// [`FusedTape::instrs`]) and register involved, so a corrupted tape can
/// be localized without executing it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum VerifyError {
    /// An instruction names a register outside the tape's register file.
    RegisterOutOfBounds {
        /// Index of the offending instruction.
        instr: usize,
        /// The out-of-range register.
        reg: u32,
    },
    /// An operand is read before any instruction (or parameter pre-fill)
    /// defines it.
    UseBeforeDef {
        /// Index of the offending instruction.
        instr: usize,
        /// The undefined register.
        reg: u32,
    },
    /// An instruction writes a pinned parameter register, which must stay
    /// immutable across a sweep.
    ParamRegisterWrite {
        /// Index of the offending instruction.
        instr: usize,
        /// The parameter register written.
        reg: u32,
    },
    /// A write lands on a register whose current value is still live: an
    /// accumulator continuation without its chain head, a right operand
    /// aliasing the destination row, or (on a full-values tape) a second
    /// definition of a node's stable output slot.
    ClobberedLiveRegister {
        /// Index of the offending instruction.
        instr: usize,
        /// The clobbered register.
        reg: u32,
    },
    /// A `LoadIndicator` slot index is outside the indicator table, or
    /// the slot's `(variable, state)` pair is outside the model.
    SlotOutOfBounds {
        /// Index of the offending instruction.
        instr: usize,
        /// The out-of-range slot.
        slot: u32,
    },
    /// A `Reduce` operand range does not fit the stream's side table.
    SideTableOutOfBounds {
        /// Index of the offending instruction.
        instr: usize,
        /// Start of the operand range.
        lo: u32,
        /// End (exclusive) of the operand range.
        hi: u32,
    },
    /// The root register is out of range or never defined.
    RootUndefined {
        /// The root register.
        reg: u32,
    },
    /// A compact-mode instruction does not contribute to the root value
    /// (dead code should have been elided before compilation).
    UnreachableInstr {
        /// Index of the dead instruction.
        instr: usize,
    },
    /// A full-values tape elided a node: a non-parameter register is
    /// never written, or the register file is not one slot per source
    /// node.
    FullModeElision {
        /// The uncovered register (or the expected register count when
        /// the file itself is missized).
        reg: u32,
    },
    /// A parameter table entry points outside the register file.
    ParamRegOutOfBounds {
        /// Index into the parameter table.
        index: usize,
        /// The out-of-range register.
        reg: u32,
    },
    /// A fused stream computes a different expression than its source
    /// tape for an observable register (fold order, operand identity and
    /// rounding structure are all part of the expression).
    FusedStreamDivergence {
        /// The diverging register (the root in compact mode).
        reg: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::RegisterOutOfBounds { instr, reg } => {
                write!(f, "instr {instr} names register {reg} outside the file")
            }
            VerifyError::UseBeforeDef { instr, reg } => {
                write!(
                    f,
                    "instr {instr} reads register {reg} before any definition"
                )
            }
            VerifyError::ParamRegisterWrite { instr, reg } => {
                write!(f, "instr {instr} writes pinned parameter register {reg}")
            }
            VerifyError::ClobberedLiveRegister { instr, reg } => {
                write!(f, "instr {instr} clobbers live register {reg}")
            }
            VerifyError::SlotOutOfBounds { instr, slot } => {
                write!(f, "instr {instr} loads unresolvable indicator slot {slot}")
            }
            VerifyError::SideTableOutOfBounds { instr, lo, hi } => {
                write!(
                    f,
                    "instr {instr} reduce range {lo}..{hi} leaves the operand side table"
                )
            }
            VerifyError::RootUndefined { reg } => {
                write!(f, "root register {reg} is never defined")
            }
            VerifyError::UnreachableInstr { instr } => {
                write!(f, "instr {instr} does not contribute to the root value")
            }
            VerifyError::FullModeElision { reg } => {
                write!(f, "full-values tape elides register {reg}")
            }
            VerifyError::ParamRegOutOfBounds { index, reg } => {
                write!(f, "parameter {index} pinned to out-of-range register {reg}")
            }
            VerifyError::FusedStreamDivergence { reg } => {
                write!(
                    f,
                    "fused stream diverges from the source tape at register {reg}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// One node of the hash-consed symbolic expression arena used by the
/// fused-stream equivalence check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ExprNode {
    /// The pre-filled constant of a parameter register.
    Param(u32),
    /// The evidence indicator of a slot.
    Indicator(u32),
    /// An operation application; operand order is significant (no
    /// commutativity or associativity is assumed anywhere).
    Op(BinOp, u32, u32),
}

/// Hash-consing arena: structurally equal expressions share one id, so
/// equivalence of two streams reduces to integer comparison per register.
#[derive(Default)]
struct ExprArena {
    ids: HashMap<ExprNode, u32>,
}

impl ExprArena {
    fn intern(&mut self, node: ExprNode) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(node).or_insert(next)
    }
}

/// The initial register state of one symbolic execution: the pinned
/// parameter constants, everything else undefined. Both streams intern
/// into the same arena, so identical expressions share one id.
fn initial_symbolic_regs(
    tape: &Tape,
    arena: &mut ExprArena,
) -> Result<Vec<Option<u32>>, VerifyError> {
    let mut regs: Vec<Option<u32>> = vec![None; tape.num_regs()];
    for (index, &reg) in tape.param_regs().iter().enumerate() {
        if reg as usize >= regs.len() {
            return Err(VerifyError::ParamRegOutOfBounds { index, reg });
        }
        regs[reg as usize] = Some(arena.intern(ExprNode::Param(reg)));
    }
    Ok(regs)
}

/// Reads a symbolic register, failing if no definition reaches it.
fn sym_read(regs: &[Option<u32>], reg: u32, instr: usize) -> Result<u32, VerifyError> {
    regs[reg as usize].ok_or(VerifyError::UseBeforeDef { instr, reg })
}

impl Tape {
    /// Runs the single-pass static verifier over this tape (see the
    /// [module docs](crate::verify) for the properties proven).
    ///
    /// In debug builds this also runs automatically at the end of
    /// [`Tape::compile`] and [`Tape::compile_full`];
    /// [`crate::CircuitPool::register`] runs it in every build as the
    /// serving admission gate.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found, in stream order.
    ///
    /// # Examples
    ///
    /// ```
    /// use problp_ac::{compile, Semiring};
    /// use problp_bayes::networks;
    /// use problp_engine::Tape;
    ///
    /// let ac = compile(&networks::sprinkler())?;
    /// let tape = Tape::compile(&ac, Semiring::SumProduct)?;
    /// tape.verify()?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn verify(&self) -> Result<(), VerifyError> {
        let num_regs = self.num_regs() as u32;
        let slots = self.indicator_slots().count() as u32;
        let arities = self.var_arities();

        // Parameter table: in range, and marked immutable + pre-defined.
        let mut is_param = vec![false; num_regs as usize];
        let mut defined = vec![false; num_regs as usize];
        for (index, &reg) in self.param_regs().iter().enumerate() {
            if reg >= num_regs {
                return Err(VerifyError::ParamRegOutOfBounds { index, reg });
            }
            is_param[reg as usize] = true;
            defined[reg as usize] = true;
        }
        if self.root_reg() >= num_regs {
            return Err(VerifyError::RootUndefined {
                reg: self.root_reg(),
            });
        }

        // Forward pass: bounds, def-before-use, param immutability and
        // accumulator chain discipline.
        let instrs = self.instrs();
        for (i, &instr) in instrs.iter().enumerate() {
            match BinOp::split(instr) {
                Decoded::Load { dst, slot } => {
                    if dst >= num_regs {
                        return Err(VerifyError::RegisterOutOfBounds { instr: i, reg: dst });
                    }
                    let resolvable = slot < slots && {
                        let (var, state) = self.slot(slot);
                        (var as usize) < arities.len() && (state as usize) < arities[var as usize]
                    };
                    if !resolvable {
                        return Err(VerifyError::SlotOutOfBounds { instr: i, slot });
                    }
                    if is_param[dst as usize] {
                        return Err(VerifyError::ParamRegisterWrite { instr: i, reg: dst });
                    }
                    if self.mode() == TapeMode::Full && defined[dst as usize] {
                        return Err(VerifyError::ClobberedLiveRegister { instr: i, reg: dst });
                    }
                    defined[dst as usize] = true;
                }
                Decoded::Bin(op, dst, lhs, rhs) => {
                    for reg in [dst, lhs, rhs] {
                        if reg >= num_regs {
                            return Err(VerifyError::RegisterOutOfBounds { instr: i, reg });
                        }
                    }
                    for reg in [lhs, rhs] {
                        if !defined[reg as usize] {
                            return Err(VerifyError::UseBeforeDef { instr: i, reg });
                        }
                    }
                    if is_param[dst as usize] {
                        return Err(VerifyError::ParamRegisterWrite { instr: i, reg: dst });
                    }
                    // The destination row never aliases the right operand:
                    // both compilers emit chains as `dst = op(dst, other)`,
                    // and the fused kernels rely on it (partials live in a
                    // local accumulator during a fold).
                    if rhs == dst {
                        return Err(VerifyError::ClobberedLiveRegister { instr: i, reg: dst });
                    }
                    if lhs == dst {
                        // A continuation extends the write immediately
                        // before it, with the same operation — anything
                        // else reads a partial some other node clobbered.
                        let continues = i > 0
                            && matches!(
                                BinOp::decode(instrs[i - 1]),
                                Some((prev_op, prev_dst, _, _))
                                    if prev_dst == dst && prev_op == op
                            );
                        if !continues {
                            return Err(VerifyError::ClobberedLiveRegister { instr: i, reg: dst });
                        }
                    } else if self.mode() == TapeMode::Full && defined[dst as usize] {
                        // Full-values registers are stable per-node output
                        // slots: a second defining chain is a clobber.
                        return Err(VerifyError::ClobberedLiveRegister { instr: i, reg: dst });
                    }
                    defined[dst as usize] = true;
                }
            }
        }

        if !defined[self.root_reg() as usize] {
            return Err(VerifyError::RootUndefined {
                reg: self.root_reg(),
            });
        }

        match self.mode() {
            TapeMode::Full => {
                // Elide nothing: one stable slot per source node, each
                // either a parameter or written by the stream.
                if self.num_regs() != self.stats().source_nodes {
                    return Err(VerifyError::FullModeElision { reg: num_regs });
                }
                if let Some(reg) = defined.iter().position(|d| !d) {
                    return Err(VerifyError::FullModeElision { reg: reg as u32 });
                }
            }
            TapeMode::Compact => {
                // Root reachability: `optimize` ran before compilation, so
                // every instruction must feed the root value. Backward
                // scan with a needed-register set: a write of a needed
                // register is the definition that reaches its reader.
                let mut needed = vec![false; num_regs as usize];
                needed[self.root_reg() as usize] = true;
                for (i, &instr) in instrs.iter().enumerate().rev() {
                    let (dst, reads) = match instr {
                        Instr::LoadIndicator { dst, .. } => (dst, None),
                        Instr::Add { dst, lhs, rhs }
                        | Instr::Mul { dst, lhs, rhs }
                        | Instr::Max { dst, lhs, rhs }
                        | Instr::MinNz { dst, lhs, rhs } => (dst, Some((lhs, rhs))),
                    };
                    if !needed[dst as usize] {
                        return Err(VerifyError::UnreachableInstr { instr: i });
                    }
                    needed[dst as usize] = false;
                    if let Some((lhs, rhs)) = reads {
                        needed[lhs as usize] = true;
                        needed[rhs as usize] = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies a fused superinstruction stream against this tape: the
    /// structural checks of [`Tape::verify`] plus bounds checks on the
    /// `Reduce` operand side table, then a symbolic execution of both
    /// streams proving every observable register computes the **same
    /// expression** — operand order, fold order and rounding structure
    /// included (see the [module docs](crate::verify)).
    ///
    /// In debug builds [`Tape::fuse`] runs this automatically on its
    /// result.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found: a structural violation in
    /// either stream, or [`VerifyError::FusedStreamDivergence`] naming
    /// the first observable register whose expressions differ.
    pub fn verify_fused(&self, fused: &FusedTape) -> Result<(), VerifyError> {
        self.verify()?;
        let num_regs = self.num_regs() as u32;
        let slots = self.indicator_slots().count() as u32;
        let side_table = fused.operand_table();

        // Structural pass over the fused stream.
        for (i, &instr) in fused.instrs().iter().enumerate() {
            match instr {
                FusedInstr::LoadIndicator { dst, slot } => {
                    if dst >= num_regs {
                        return Err(VerifyError::RegisterOutOfBounds { instr: i, reg: dst });
                    }
                    if slot >= slots {
                        return Err(VerifyError::SlotOutOfBounds { instr: i, slot });
                    }
                }
                FusedInstr::Bin { dst, lhs, rhs, .. } => {
                    for reg in [dst, lhs, rhs] {
                        if reg >= num_regs {
                            return Err(VerifyError::RegisterOutOfBounds { instr: i, reg });
                        }
                    }
                }
                FusedInstr::MulAcc { dst, acc, a, b, .. } => {
                    for reg in [dst, acc, a, b] {
                        if reg >= num_regs {
                            return Err(VerifyError::RegisterOutOfBounds { instr: i, reg });
                        }
                    }
                }
                FusedInstr::Reduce {
                    dst, first, lo, hi, ..
                } => {
                    if lo > hi || hi as usize > side_table.len() {
                        return Err(VerifyError::SideTableOutOfBounds { instr: i, lo, hi });
                    }
                    for reg in [dst, first] {
                        if reg >= num_regs {
                            return Err(VerifyError::RegisterOutOfBounds { instr: i, reg });
                        }
                    }
                    for &reg in fused.operands(lo, hi) {
                        if reg >= num_regs {
                            return Err(VerifyError::RegisterOutOfBounds { instr: i, reg });
                        }
                    }
                }
            }
        }

        // Symbolic execution of both streams over one shared arena.
        let mut arena = ExprArena::default();

        let mut tape_regs = initial_symbolic_regs(self, &mut arena)?;
        for (i, &instr) in self.instrs().iter().enumerate() {
            match BinOp::split(instr) {
                Decoded::Load { dst, slot } => {
                    tape_regs[dst as usize] = Some(arena.intern(ExprNode::Indicator(slot)));
                }
                Decoded::Bin(op, dst, lhs, rhs) => {
                    let l = sym_read(&tape_regs, lhs, i)?;
                    let r = sym_read(&tape_regs, rhs, i)?;
                    tape_regs[dst as usize] = Some(arena.intern(ExprNode::Op(op, l, r)));
                }
            }
        }

        let mut fused_regs = initial_symbolic_regs(self, &mut arena)?;
        for (i, &instr) in fused.instrs().iter().enumerate() {
            match instr {
                FusedInstr::LoadIndicator { dst, slot } => {
                    fused_regs[dst as usize] = Some(arena.intern(ExprNode::Indicator(slot)));
                }
                FusedInstr::Bin { op, dst, lhs, rhs } => {
                    let l = sym_read(&fused_regs, lhs, i)?;
                    let r = sym_read(&fused_regs, rhs, i)?;
                    fused_regs[dst as usize] = Some(arena.intern(ExprNode::Op(op, l, r)));
                }
                FusedInstr::MulAcc { op, dst, acc, a, b } => {
                    let av = sym_read(&fused_regs, a, i)?;
                    let bv = sym_read(&fused_regs, b, i)?;
                    let product = arena.intern(ExprNode::Op(BinOp::Mul, av, bv));
                    let accv = sym_read(&fused_regs, acc, i)?;
                    fused_regs[dst as usize] = Some(arena.intern(ExprNode::Op(op, accv, product)));
                }
                FusedInstr::Reduce {
                    op,
                    dst,
                    first,
                    lo,
                    hi,
                } => {
                    let mut accv = sym_read(&fused_regs, first, i)?;
                    for &reg in fused.operands(lo, hi) {
                        let r = sym_read(&fused_regs, reg, i)?;
                        accv = arena.intern(ExprNode::Op(op, accv, r));
                    }
                    fused_regs[dst as usize] = Some(accv);
                }
            }
        }

        // Observable registers must hold identical expressions: the root
        // in compact mode (scratch registers are legitimately elided),
        // every register in full mode (all are per-node outputs).
        match self.mode() {
            TapeMode::Compact => {
                let reg = self.root_reg();
                if tape_regs[reg as usize] != fused_regs[reg as usize] {
                    return Err(VerifyError::FusedStreamDivergence { reg });
                }
            }
            TapeMode::Full => {
                for reg in 0..num_regs {
                    if tape_regs[reg as usize] != fused_regs[reg as usize] {
                        return Err(VerifyError::FusedStreamDivergence { reg });
                    }
                }
            }
        }
        Ok(())
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

    /// Σ_s λ_{a,s}·θ_s over a 3-state variable: loads, muls and a chain.
    fn circuit() -> AcGraph {
        let mut g = AcGraph::new(vec![3]);
        let mut prods = Vec::new();
        for s in 0..3 {
            let ind = g.indicator(v(0), s).unwrap();
            let p = g.param(0.2 + s as f64 * 0.2).unwrap();
            prods.push(g.product(vec![ind, p]).unwrap());
        }
        let root = g.sum(prods).unwrap();
        g.set_root(root);
        g
    }

    #[test]
    fn fresh_tapes_verify_in_both_modes_and_semirings() {
        for semiring in [
            Semiring::SumProduct,
            Semiring::MaxProduct,
            Semiring::MinProduct,
        ] {
            let g = circuit();
            let compact = Tape::compile(&g, semiring).unwrap();
            compact.verify().unwrap();
            compact.verify_fused(&compact.fuse()).unwrap();
            let full = Tape::compile_full(&g, semiring).unwrap();
            full.verify().unwrap();
            full.verify_fused(&full.fuse()).unwrap();
        }
    }

    #[test]
    fn constant_root_tape_verifies() {
        let mut g = AcGraph::new(vec![2]);
        let p = g.param(0.25).unwrap();
        g.set_root(p);
        let tape = Tape::compile(&g, Semiring::SumProduct).unwrap();
        tape.verify().unwrap();
        tape.verify_fused(&tape.fuse()).unwrap();
    }

    #[test]
    fn use_before_def_is_caught() {
        let mut tape = Tape::compile(&circuit(), Semiring::SumProduct).unwrap();
        // Swap the first load with the multiply consuming it: the multiply
        // now reads the indicator register before it is defined.
        let instrs = tape.raw_instrs_mut();
        assert!(matches!(instrs[0], Instr::LoadIndicator { .. }));
        assert!(matches!(instrs[1], Instr::Mul { .. }));
        instrs.swap(0, 1);
        assert!(matches!(
            tape.verify(),
            Err(VerifyError::UseBeforeDef { instr: 0, .. })
        ));
    }

    #[test]
    fn fused_divergence_is_caught() {
        let tape = Tape::compile(&circuit(), Semiring::SumProduct).unwrap();
        let mut fused = tape.fuse();
        // Reorder a Reduce's operand side table: same multiset, different
        // fold order — the expression check must reject it.
        let ops = fused.raw_operands_mut();
        assert!(ops.len() >= 2, "the 3-ary sum produces reduce operands");
        ops.swap(0, 1);
        assert!(matches!(
            tape.verify_fused(&fused),
            Err(VerifyError::FusedStreamDivergence { .. })
        ));
    }
}
